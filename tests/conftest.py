"""Shared scenario builders and demo pins for the test suite.

Process naming: a scenario description's p_k is index k-1 here.
"""

from __future__ import annotations

import random

from mbbc.checker import VIOLATED, PropertyReport, replay_witness
from mbbc.demos import DemoResult, adapter_choices, adapter_output
from mbbc.engine import Trace, TraceEvent, deliver_oracle_events, encode_line
from mbbc.protocol import VariantTag
from mbbc.scenario import ScenarioConfig
from mbbc.sweeps import attack_scenario

# The phase of a round that writes each kind, as the engine runs them: the
# traced kinds and the two ``mbbc-trace/6`` dropped. A trace line holds no
# phase; renders of the older layouts put it back.
KIND_PHASE = {
    "AGENT_MOVE": "ADVERSARY",
    "CURED": "ORACLE",
    "P2P_SEND": "SEND",
    "BROADCAST_CALL": "COMPUTE",
    "DELIVER_CALL": "COMPUTE",
    "STATE_CORRUPTED": "COMPUTE",
}


def previous_layout_events(trace: Trace) -> list[TraceEvent]:
    """The trace's events as the engine wrote them before ``mbbc-trace/6``:
    each round's agent moves, by agent, and cure notices, by process, before
    its traced events. The header's schedule fixes both (``host_of`` and
    ``deliver_oracle_events``)."""
    config = trace.scenario()
    schedule = config.resolved_schedule()
    traced: dict[int, list[TraceEvent]] = {}
    for ev in trace.events:
        traced.setdefault(ev.round, []).append(ev)
    events = []
    for r in range(1, schedule.horizon + 1):
        for traj in schedule.trajectories:
            prev, now = schedule.host_of(traj.agent_id, r - 1), schedule.host_of(traj.agent_id, r)
            if prev != now:
                events.append(TraceEvent(r, "AGENT_MOVE", prev if now is None else now,
                                         {"agent": traj.agent_id, "from": prev, "to": now}))
        events += [TraceEvent(r, "CURED", p, {"faulty_since": since})
                   for p, since in deliver_oracle_events(schedule, r, config.setting.oracle)]
        events += traced.get(r, [])
    return events


def previous_layout_jsonl(trace: Trace) -> str:
    """The trace as ``mbbc-trace/5`` wrote it: its header in that format and
    ``previous_layout_events``."""
    header = {"fingerprint": trace.fingerprint, "format": "mbbc-trace/5", "seed": trace.seed,
              "config": trace.config}
    lines = [encode_line(header), *(encode_line(ev.to_dict()) for ev in previous_layout_events(trace))]
    return "\n".join(lines) + "\n"


def golden_correct_source(delta_s: int = 1, seed: int = 7) -> ScenarioConfig:
    """Correct source (index 0) broadcasts at round 1; one agent walks
    p2 -> p6 -> p1 -> p2 -> p6 in stays of delta_s rounds."""
    path = [1, 5, 0, 1, 5]
    segments = []
    first = 1
    for i, host in enumerate(path):
        last = first + delta_s - 1
        segments.append({"host": host, "first_round": first,
                         "last_round": None if i == len(path) - 1 else last})
        first = last + 1
    horizon = 4 * delta_s + 4
    return ScenarioConfig.from_dict({
        "n": 6, "f": 1, "delta_s": delta_s, "delta_b": 2, "delta_c": 1,
        "horizon": horizon, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": segments}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "hello"}],
        "strategy": {"kind": "BENIGN"},
    })


def split_send_scenario(targets: list[int], seed: int = 5) -> ScenarioConfig:
    """Faulty source (index 0, possessed rounds 1-3) splits its SEND across
    ``targets``; the agent hops onto index 5 for round 4 to swallow one ABORT."""
    return ScenarioConfig.from_dict({
        "n": 6, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1,
        "horizon": 8, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 0, "first_round": 1, "last_round": 3},
            {"host": 5, "first_round": 4, "last_round": 4},
            {"host": 0, "first_round": 5, "last_round": None}]}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "byz"}],
        "strategy": {"kind": "SPLIT_SEND", "targets": targets},
    })


def bfa_double_cure_scenario(seed: int = 3) -> ScenarioConfig:
    """BFA_WEAK: index 5 delivers at round 4 while correct, then is cured at
    rounds 6 and 8 (k=2 cures after birth+3); index 4 hosts the agent at round
    4 and is cured at rounds 5 and 7."""
    return ScenarioConfig.from_dict({
        "n": 6, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1,
        "horizon": 8, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "BFA"},
        "variant": "BFA_WEAK",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 4, "first_round": 1, "last_round": 4},
            {"host": 5, "first_round": 5, "last_round": 5},
            {"host": 4, "first_round": 6, "last_round": 6},
            {"host": 5, "first_round": 7, "last_round": 7},
            {"host": 4, "first_round": 8, "last_round": None}]}]},
        "broadcasts": [{"source": 0, "round": 1, "payload": "count"}],
        "strategy": {"kind": "BENIGN"},
    })


def zero_agent_scenario(n: int = 4, horizon: int = 5, broadcasts=()) -> ScenarioConfig:
    return ScenarioConfig.from_dict({
        "n": n, "f": 0, "delta_s": 1, "delta_b": 2, "delta_c": 1,
        "horizon": horizon, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": []},
        "broadcasts": list(broadcasts),
        "strategy": {"kind": "BENIGN"},
    })


def random_walk_schedule(rng: random.Random, n: int, f: int, horizon: int) -> list[dict]:
    """Random legal trajectories with delta_s=1: each agent re-hosts every round."""
    out = []
    for agent in range(f):
        segments = []
        host = rng.randrange(n)
        first = 1
        for r in range(2, horizon + 1):
            if rng.random() < 0.6:
                nxt = rng.randrange(n - 1)
                nxt = nxt if nxt < host else nxt + 1
                segments.append({"host": host, "first_round": first, "last_round": r - 1})
                host, first = nxt, r
        segments.append({"host": host, "first_round": first, "last_round": None})
        out.append({"agent_id": agent, "segments": segments})
    return out


# The names ``shape_config`` builds.
SHAPES = ("bfa_weak_roundrobin", "bfa_weak_walk", "ffa_full_walk", "nfa_weak_alternating_f2",
          "nfa_weak_roundrobin", "nfa_weak_walk")


def shape_config(name: str) -> ScenarioConfig:
    """Longer scenarios than the bundled configs: re-delivery in every round,
    repeated cures, random agent walks and an f=2 attack below the bound, so
    every checker has work to do."""
    if name == "nfa_weak_alternating_f2":
        return attack_scenario(VariantTag.NFA_WEAK, 12, 2, 2, "alternating")
    variant, oracle, n, horizon, walk = {
        "nfa_weak_roundrobin": ("NFA_WEAK", "NFA", 7, 40, False),
        "bfa_weak_roundrobin": ("BFA_WEAK", "BFA", 6, 30, False),
        "nfa_weak_walk": ("NFA_WEAK", "NFA", 7, 30, True),
        "bfa_weak_walk": ("BFA_WEAK", "BFA", 6, 30, True),
        "ffa_full_walk": ("FFA_FULL", "FFA", 6, 24, True),
    }[name]
    rng = random.Random(name)
    offset = rng.randrange(n)
    rounds = range(4, horizon - 6, 3)
    if walk:
        schedule = {"trajectories": random_walk_schedule(rng, n, 1, horizon)}
        sources = [rng.randrange(n) for _ in rounds]
    else:
        schedule = {"generator": "roundrobin", "params": {"offset": offset}}
        sources = [(offset + b + 1 + (5 * i) % (n - 2)) % n for i, b in enumerate(rounds)]
    return ScenarioConfig.from_dict({
        "n": n, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": horizon,
        "seed": rng.randrange(1000),
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": oracle},
        "variant": variant,
        "schedule": schedule,
        "broadcasts": [{"source": s, "round": b, "payload": f"m{i}"}
                       for i, (s, b) in enumerate(zip(sources, rounds))],
        "strategy": {"kind": "CRASH_SILENT"},
    })


def random_scenario(rng: random.Random) -> ScenarioConfig:
    """A random valid scenario, used by the determinism acceptance criterion."""
    n = rng.randrange(4, 9)
    f = 1
    delta_s = rng.choice([1, 2])
    horizon = rng.randrange(7, 11)
    kind = rng.choice(["BENIGN", "CRASH_SILENT", "ALTERNATING_SETS", "SPLIT_SEND"])
    if kind == "ALTERNATING_SETS":
        schedule = {"generator": "alternating",
                    "params": {"p1": [n - 2], "p2": [n - 1], "start": 2}}
        strategy = {"kind": kind, "p1": [n - 2], "p2": [n - 1]}
    else:
        schedule = {"generator": "roundrobin", "params": {"offset": rng.randrange(n)}}
        strategy = {"kind": kind}
        if kind == "SPLIT_SEND":
            strategy["targets"] = sorted(rng.sample(range(1, n), k=min(2, n - 1)))
    broadcasts = []
    if rng.random() < 0.8:
        broadcasts.append({"source": rng.randrange(n), "round": rng.randrange(1, 3),
                           "payload": f"m{rng.randrange(100)}"})
    return ScenarioConfig.from_dict({
        "n": n, "f": f, "delta_s": delta_s, "delta_b": 2, "delta_c": 1,
        "horizon": horizon, "seed": rng.randrange(1 << 30),
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": schedule,
        "broadcasts": broadcasts,
        "strategy": strategy,
    })


# At the default parameters, the checker's (history, property) violations of
# each adapter choice.
CHOICE_PINS = {
    "SOURCE_FLIP": {
        "deliver_first_payload": [("faulty_then_correct", "VALIDITY")],
        "deliver_second_payload": [("correct_then_faulty", "VALIDITY")],
        "deliver_neither": [("correct_then_faulty", "VALIDITY"),
                            ("faulty_then_correct", "VALIDITY")],
        "deliver_both": [("correct_then_faulty", "CONSISTENCY"),
                         ("faulty_then_correct", "CONSISTENCY")],
    },
    "WIPE_FLIP": {
        "deliver_on_cure": [("deliver_then_wipe", "NO_DUPLICATION")],
        "ignore_cure": [("wipe_only", "TOTALITY")],
    },
}


def choice_violations(result: DemoResult) -> dict[str, list[tuple[str, str]]]:
    """Each adapter choice of a demo to its (history, property) violations."""
    return {c["choice"]: [(v["history"], v["property"]) for v in c["violations"]]
            for c in result.choices}


def assert_violations_replay(result: DemoResult) -> None:
    """Every violation a demo reports is re-derived from its witness on the
    choice's output for that history."""
    pairs = {name: pair for names, pair in (
        (("correct_then_faulty", "deliver_then_wipe"), (result.config_first, result.trace_first)),
        (("faulty_then_correct", "wipe_only"), (result.config_second, result.trace_second)))
        for name in names}
    keeps = adapter_choices(result.kind, result.config_first)
    for choice in result.choices:
        for v in choice["violations"]:
            cfg, trace = pairs[v["history"]]
            report = PropertyReport(v["property"], VIOLATED, v["witness"], v["details"])
            assert replay_witness(report, adapter_output(trace, keeps[choice["choice"]]),
                                  cfg.resolved_schedule(), cfg.delta_b, cfg.delta_c,
                                  cfg.variant), (choice["choice"], v)
