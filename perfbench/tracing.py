"""Spans around the public functions at each mbbc module boundary.

``traced(recorder)`` swaps those functions for wrappers while the block runs
and puts the originals back after it. No file of the package changes. For the
protocol, the wrapped names are the ones the engine imported
(``mbbc.engine.send_phase``, ...), so only the engine's calls are timed; the
adversary's faithful replays of the protocol count as adversary time.

A span's self time is its duration minus the durations of the spans it
encloses. Spans are folded into per-name totals as they close instead of
being kept one by one: the engine makes hundreds of thousands of calls per
scenario.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

# Spans whose every duration is kept, for percentiles.
KEEP_DURATIONS = frozenset({"engine.step"})


class Recorder:
    """Self time and calls per span name, counts, and durations of KEEP_DURATIONS spans."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        # One slot per open span: the time its closed child spans took.
        self._children: list[list[float]] = [[0.0]]

    def span(self, name: str, fn: Callable, count: str | None = None) -> Callable:
        """Wrap ``fn`` in a span; with ``count``, also add ``len(result)`` to that count."""
        children = self._children
        self_s, calls = self.self_s, self.calls
        durations = self.durations[name] if name in KEEP_DURATIONS else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            slot = [0.0]
            children.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children.pop()
                children[-1][0] += elapsed
                self_s[name] += elapsed - slot[0]
                calls[name] += 1
                if durations is not None:
                    durations.append(elapsed)
            if count is not None:
                calls[count] += len(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count its calls only; its time stays with the caller."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _wrap(raw, make: Callable[[Callable], Callable]):
    if isinstance(raw, classmethod):
        return classmethod(make(raw.__func__))
    return make(raw)


def _patches(rec: Recorder) -> list[tuple[object, str, Callable[[Callable], Callable]]]:
    from mbbc import checker, demos, engine, messages, model, scenario, sweeps

    def span(name: str, count: str | None = None) -> Callable[[Callable], Callable]:
        return lambda fn: rec.span(name, fn, count)

    def count(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: rec.counter(name, fn)

    def strategy_spans(build: Callable) -> Callable:
        def build_strategy(config):
            strategy = build(config)
            strategy.dictate_sends = rec.span(
                "adversary.dictate_sends", strategy.dictate_sends, "adversary.dictated_envelopes")
            strategy.corrupt_state = rec.span("adversary.corrupt_state", strategy.corrupt_state)
            return strategy
        return build_strategy

    return [
        (scenario.ScenarioConfig, "from_dict", span("scenario.from_dict")),
        (scenario.ScenarioConfig, "validate", span("scenario.validate")),
        (scenario.ScenarioConfig, "resolved_schedule", span("scenario.resolved_schedule")),
        (sweeps, "attack_scenario", span("sweeps.attack_scenario")),
        (demos, "run_demo", span("demos.run_demo")),
        # Both names the engine's entry point is called by; the span bounds
        # demos.run_demo's self time.
        (engine, "run", span("engine.run")),
        (demos, "run", span("engine.run")),
        (engine.Simulation, "step", span("engine.step")),
        (engine.Trace, "to_jsonl", span("engine.to_jsonl")),
        (engine.Trace, "from_jsonl", span("engine.from_jsonl")),
        (engine, "build_strategy", strategy_spans),
        (engine, "send_phase", span("protocol.send_phase")),
        (engine, "on_p2p_deliver", span("protocol.on_p2p_deliver")),
        (engine, "compute_phase", span("protocol.compute_phase", "protocol.deliveries")),
        (messages.ProtocolMessage, "sort_key", count("messages.sort_key")),
        (messages.ProtocolMessage, "to_dict", count("messages.to_dict")),
        (model.FailureSchedule, "faulty_set", span("model.faulty_set")),
        (checker, "check_validity", span("checker.validity")),
        (checker, "check_no_duplication", span("checker.no_duplication")),
        (checker, "check_integrity", span("checker.integrity")),
        (checker, "check_agreement", span("checker.agreement")),
        (checker, "check_delivery_count_laws", span("checker.delivery_count_law")),
        (checker, "extract_deliveries", count("checker.extract_deliveries")),
        (demos, "projection_jsonl", span("checker.projection")),
    ]


@contextlib.contextmanager
def traced(rec: Recorder) -> Iterator[Recorder]:
    """Record spans into ``rec`` for the duration of the block."""
    saved = []
    try:
        for owner, attr, make in _patches(rec):
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            setattr(owner, attr, _wrap(raw, make))
        yield rec
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
