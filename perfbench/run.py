"""Benchmark for mbbc: end-to-end evidence throughput and a per-module breakdown.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

It imports ``mbbc`` from ``src/`` of the checkout it sits in and drives the
public API from one process and one thread, as one caller in a closed loop:
each scenario starts when the previous one has finished. A scenario is one
config taken to its verdicts, one sweep cell, or one demo pair. Every outcome
is checked against the paper's bounds (see ``workloads.py``).

``--trace 0`` times the scenarios with nothing wrapped and reports the
end-to-end metrics. ``--trace 1`` runs the same untraced pass, then runs the
same inputs again with a span around each module boundary (``tracing.py``),
checks that every trace is byte-identical between the two passes, and reports
the per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Recorder, traced
from workloads import WORKLOADS, Workload

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_REPEATS = 11
# Host probes, see HostClock. REFERENCE_PROBE_S is about the probe time on
# this host when quiet; it fixes the speed that ``seconds`` refer to.
PROBE_ROWS = 300
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.5
REFERENCE_PROBE_S = 0.003
# Batches whose configs the set-up builds; the timed loop starts after them.
SETUP_BATCHES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_p50_s": "s",
    "trace_mb_per_scenario": "MB",
    "peak_rss_mb": "MB",
    "passed_share": "share",
}

PER_LAYER_UNITS = {
    "engine.step_self_s": "s",
    "engine.step_p50_ms": "ms",
    "engine.step_p99_ms": "ms",
    "engine.events": "count",
    "engine.p2p_event_share": "share",
    "engine.to_jsonl_s": "s",
    "engine.from_jsonl_s": "s",
    "engine.trace_bytes_per_event": "B/event",
    "protocol.send_phase_s": "s",
    "protocol.on_p2p_deliver_s": "s",
    "protocol.on_p2p_deliver_calls": "count",
    "protocol.compute_phase_s": "s",
    "protocol.deliveries": "count",
    "messages.sort_key_calls": "count",
    "messages.to_dict_calls": "count",
    "model.faulty_set_calls": "count",
    "model.faulty_set_s": "s",
    "checker.validity_s": "s",
    "checker.no_duplication_s": "s",
    "checker.integrity_s": "s",
    "checker.agreement_s": "s",
    "checker.delivery_count_law_s": "s",
    "checker.extract_deliveries_calls": "count",
    "checker.projection_s": "s",
    "adversary.dictate_sends_s": "s",
    "adversary.corrupt_state_s": "s",
    "adversary.dictated_envelopes": "count",
    "demos.self_s": "s",
    "scenario.from_dict_s": "s",
    "scenario.validate_s": "s",
    "scenario.resolved_schedule_s": "s",
    "sweeps.attack_scenario_s": "s",
    "bench.trace_overhead": "ratio",
}

# Per-layer metrics that are a span's self time (suffix _s) or a count,
# each per traced scenario.
_SELF_TIME_SPANS = {
    "engine.step_self_s": "engine.step",
    "engine.to_jsonl_s": "engine.to_jsonl",
    "engine.from_jsonl_s": "engine.from_jsonl",
    "protocol.send_phase_s": "protocol.send_phase",
    "protocol.on_p2p_deliver_s": "protocol.on_p2p_deliver",
    "protocol.compute_phase_s": "protocol.compute_phase",
    "model.faulty_set_s": "model.faulty_set",
    "checker.validity_s": "checker.validity",
    "checker.no_duplication_s": "checker.no_duplication",
    "checker.integrity_s": "checker.integrity",
    "checker.agreement_s": "checker.agreement",
    "checker.delivery_count_law_s": "checker.delivery_count_law",
    "checker.projection_s": "checker.projection",
    "adversary.dictate_sends_s": "adversary.dictate_sends",
    "adversary.corrupt_state_s": "adversary.corrupt_state",
    "demos.self_s": "demos.run_demo",
    "scenario.from_dict_s": "scenario.from_dict",
    "scenario.validate_s": "scenario.validate",
    "scenario.resolved_schedule_s": "scenario.resolved_schedule",
    "sweeps.attack_scenario_s": "sweeps.attack_scenario",
}
_COUNTS = {
    "protocol.on_p2p_deliver_calls": "protocol.on_p2p_deliver",
    "protocol.deliveries": "protocol.deliveries",
    "messages.sort_key_calls": "messages.sort_key",
    "messages.to_dict_calls": "messages.to_dict",
    "model.faulty_set_calls": "model.faulty_set",
    "checker.extract_deliveries_calls": "checker.extract_deliveries",
    "adversary.dictated_envelopes": "adversary.dictated_envelopes",
}


@dataclass
class Sample:
    """One timed piece of work: a scenario, or one set-up.

    ``wall_s`` is its wall-clock time without the host probes; ``seconds``
    is that time at the reference host speed (see HostClock).
    """

    start: float
    end: float
    wall_s: float
    seconds: float = 0.0
    digest: str = ""
    trace_bytes: int = 0
    events: int = 0
    p2p_events: int = 0
    problems: list[str] = field(default_factory=list)


def load_mbbc() -> None:
    """Import mbbc from this checkout's src/ only, never from an installed copy."""
    if not (SRC / "mbbc" / "__init__.py").is_file():
        raise ImportError(f"no mbbc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in ("mbbc", "mbbc.sweeps", "mbbc.demos"):
        importlib.import_module(name)
    origin = Path(sys.modules["mbbc"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"mbbc was imported from {origin}, not from {SRC}")


def probe_loop() -> None:
    """A fixed piece of work of the kinds mbbc does: dicts, a keyed sort, JSON.

    Its data fits in the CPU caches, so its time tracks the host's speed and
    hardly the state the benchmarked process leaves in memory.
    """
    rows = [{"round": i % 20, "kind": "P2P_SEND", "subject": i % 32,
             "detail": {"receiver": i % 7, "payload": f"m{i:06x}"}}
            for i in range(PROBE_ROWS)]
    rows.sort(key=lambda row: (row["subject"], row["round"], row["detail"]["payload"]))
    text = "\n".join(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows)
    if len([json.loads(line) for line in text.splitlines()]) != PROBE_ROWS:
        raise RuntimeError("host probe lost rows")


class HostClock:
    """Times work at a fixed host speed.

    The host is shared, and its speed drifts by tens of percent within a
    minute, in CPU time as much as in wall time. While the clock is active,
    a SIGALRM interval timer interrupts the work every PROBE_EVERY_S and times
    ``probe_loop``. A piece of work's ``wall_s`` leaves out the probes, and its
    ``seconds`` is ``wall_s`` times REFERENCE_PROBE_S over the median probe
    time within PROBE_WINDOW_S of the work.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (end time, duration)
        self._probing = 0.0

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum, frame) -> None:
        # A collection the probe's allocations trigger would sweep the
        # scenario's objects: leave it to the scenario, which pays for it anyway.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe_loop()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.probes.append((end, end - start))
        self._probing += end - start

    def run(self, fn, *args) -> tuple[object, Sample]:
        """Call ``fn(*args)``; return its result and its timing."""
        probing, start = self._probing, time.perf_counter()
        try:
            return fn(*args), self._sample(start, probing)
        except Exception:  # one broken scenario is a failure to report, not the end of the run
            traceback.print_exc(file=sys.stderr)
            sample = self._sample(start, probing)
            sample.problems.append("raised an exception")
            return None, sample

    def _sample(self, start: float, probing: float) -> Sample:
        end = time.perf_counter()
        return Sample(start, end, end - start - (self._probing - probing))

    def rescale(self, samples: list[Sample]) -> None:
        """Set ``seconds`` of samples timed while the clock was active."""
        ends = [t for t, _ in self.probes]
        for sample in samples:
            lo = bisect.bisect_left(ends, sample.start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(ends, sample.end + PROBE_WINDOW_S)
            near = [d for _, d in self.probes[lo:hi]] or [d for _, d in self.probes]
            sample.seconds = sample.wall_s * REFERENCE_PROBE_S / statistics.median(near)


def measure_setup(workload: Workload, pool: list, clock: HostClock) -> list[Sample]:
    """SETUP_REPEATS times: import mbbc afresh, then build, validate and resolve the pool's configs."""

    def setup() -> None:
        for name in [m for m in sys.modules if m == "mbbc" or m.startswith("mbbc.")]:
            del sys.modules[name]
        load_mbbc()
        for batch in pool:
            for item in batch:
                workload.prepare(item)

    samples = [clock.run(setup)[1] for _ in range(SETUP_REPEATS)]
    if any(s.problems for s in samples):
        raise RuntimeError(f"set-up of {workload.name} raised; see the traceback above")
    return samples


def run_scenario(workload: Workload, item, clock: HostClock) -> Sample:
    outcome, sample = clock.run(workload.run, item)
    if outcome is None:
        return sample
    digest = hashlib.sha256()
    for text in outcome.texts:
        data = text.encode("utf-8")
        # Same bytes Trace.sha256() hashes, without serialising the trace again.
        digest.update(hashlib.sha256(data).digest())
        sample.trace_bytes += len(data)
        sample.events += text.count("\n") - 1
        sample.p2p_events += text.count('"kind":"P2P_SEND"') + text.count('"kind":"P2P_DELIVER"')
    sample.digest = digest.hexdigest()
    sample.problems = workload.check(item, outcome)
    return sample


def run_batches(workload: Workload, batches: list, clock: HostClock) -> list[Sample]:
    return [run_scenario(workload, item, clock) for batch in batches for item in batch]


def timed_loop(workload: Workload, stream, seconds: float,
               clock: HostClock) -> tuple[list, list[Sample]]:
    """Run whole batches from ``stream`` until ``seconds`` of wall time have passed."""
    batches, samples = [], []
    deadline = time.perf_counter() + seconds
    while not batches or time.perf_counter() < deadline:
        batch = next(stream)
        batches.append(batch)
        samples += run_batches(workload, [batch], clock)
    return batches, samples


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of values, or the maximum below two values."""
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[Sample], samples: list[Sample]) -> dict[str, float]:
    passed = [s for s in samples if not s.problems]
    return {
        "setup_s": statistics.median(s.seconds for s in setup),
        "scenarios_per_s": len(passed) / sum(s.seconds for s in samples),
        "scenario_p50_s": statistics.median(s.seconds for s in samples),
        "trace_mb_per_scenario": sum(s.trace_bytes for s in samples) / len(samples) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "passed_share": len(passed) / len(samples),
    }


def per_layer(rec: Recorder, plain: list[Sample], traced_samples: list[Sample]) -> dict[str, float]:
    """Per-scenario layer metrics. The traced pass runs without host probes, so
    its times are plain wall-clock seconds."""
    count = len(traced_samples)
    events = sum(s.events for s in traced_samples)
    steps_ms = [d * 1e3 for d in rec.durations["engine.step"]]
    out = {name: rec.self_s[span] / count for name, span in _SELF_TIME_SPANS.items()}
    out.update({name: rec.calls[key] / count for name, key in _COUNTS.items()})
    out.update({
        "engine.step_p50_ms": _quantile(steps_ms, 50),
        "engine.step_p99_ms": _quantile(steps_ms, 99),
        "engine.events": events / count,
        "engine.p2p_event_share": sum(s.p2p_events for s in traced_samples) / events,
        "engine.trace_bytes_per_event": sum(s.trace_bytes for s in traced_samples) / events,
        "bench.trace_overhead":
            sum(s.wall_s for s in traced_samples) / sum(s.wall_s for s in plain),
    })
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the result object the benchmark prints last."""
    workload = WORKLOADS[name]
    stream = workload.batches(random.Random(f"{name}:{seed}"), tiny)
    pool = [next(stream) for _ in range(SETUP_BATCHES)]
    clock = HostClock()
    with clock:
        setup = measure_setup(workload, pool, clock)
        # Warm-up inputs come from another seed, so no timed schedule is cached in advance.
        run_batches(workload, [workload.warmup(random.Random(f"{name}:warmup:{seed}"))], clock)
        batches, plain = timed_loop(workload, stream, seconds, clock)
    clock.rescale(setup + plain)
    samples = list(plain)
    if trace:
        rec = Recorder()
        with traced(rec):
            traced_samples = run_batches(workload, batches, HostClock())
        for before, after in zip(plain, traced_samples):
            if after.digest != before.digest:
                after.problems.append("traced run changed the trace bytes")
        samples += traced_samples
        metrics, units = per_layer(rec, plain, traced_samples), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(setup, plain), END_TO_END_UNITS

    failed = sum(1 for s in samples if s.problems)
    speeds = [REFERENCE_PROBE_S / d for _, d in clock.probes]
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "problems": sorted({p for s in samples for p in s.problems}),
        "wall": {
            "setup_s": statistics.median(s.wall_s for s in setup),
            "scenarios_per_s": len(plain) / sum(s.wall_s for s in plain),
            "scenario_p50_s": statistics.median(s.wall_s for s in plain),
            "scenarios": len(plain),
            "probes": len(speeds),
            "speed_min": min(speeds),
            "speed_max": max(speeds),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        load_mbbc()
    except ImportError as exc:
        print(f"cannot import mbbc from this checkout: {exc}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    wall = result.pop("wall")
    for problem in result.pop("problems"):
        print(f"FAILED: {problem}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scenarios={wall['scenarios']} attempted={result['attempted']} failed={result['failed']} "
          f"failed_share={result['failed'] / result['attempted']:.4f}")
    print(f"wall clock: setup_s={wall['setup_s']:.6g} scenarios_per_s={wall['scenarios_per_s']:.6g} "
          f"scenario_p50_s={wall['scenario_p50_s']:.6g}; {wall['probes']} host probes, "
          f"speed {wall['speed_min']:.3f}..{wall['speed_max']:.3f} of the reference")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
