"""Impossibility demonstrations.

Each demo builds a pair of scenarios whose executions are indistinguishable to
every permanently correct process, runs both, and verifies that the
projections are byte-identical. Each deterministic choice an (abstract,
hypothetical) one-shot reliable-broadcast adapter could make on that shared
observation is a filter over the (instance, process) deliveries of the
channel trace's DELIVER_CALL events; the checker scores the filtered copy of
both traces, and the demonstration holds when every choice violates a
one-shot property on at least one history.

``SOURCE_FLIP`` (aka THEOREM_3): the source broadcasts payload A at round 1
and payload B at the switch round, correct first and permanently faulty after
the switch in one history, the mirror in the other. Delivering one payload
starves validity where the other was the correct broadcast, neither starves
both, and both break one-shot consistency.

``WIPE_FLIP`` (aka THEOREM_4): a destination either delivered before being
possessed and wiped, or was possessed and wiped from the start; with only a
basic cure notification its state at the cure is the same in both, so
delivering on cure duplicates in one history and ignoring the cure breaks
totality in the other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

from .adversary import generate_paired_histories
from .checker import ONE_SHOT_PROPERTIES, VIOLATED, projection_jsonl, run_property_checks
from .engine import KIND_DELIVER_CALL, Memo, Trace, deliver_calls, delivered_instances, instance_detail, run
from .scenario import ScenarioConfig

SOURCE_FLIP_KINDS = ("THEOREM_3", "SOURCE_FLIP")


@dataclass
class DemoResult:
    kind: str
    params: dict
    config_first: ScenarioConfig
    config_second: ScenarioConfig
    trace_first: Trace
    trace_second: Trace
    projections_identical: bool
    choices: list[dict]
    holds: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "fingerprints": [self.config_first.fingerprint(), self.config_second.fingerprint()],
            "projections_identical": self.projections_identical,
            "choices": self.choices,
            "demonstration_holds": self.holds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_demo(kind: str, params: dict | None = None) -> DemoResult:
    params = dict(params or {})
    cfg1, cfg2 = generate_paired_histories(kind, params)
    trace1, trace2 = run(cfg1), run(cfg2)
    sched1, sched2 = cfg1.resolved_schedule(), cfg2.resolved_schedule()
    identical = projection_jsonl(trace1, sched1) == projection_jsonl(trace2, sched2)
    names = (("correct_then_faulty", "faulty_then_correct") if kind in SOURCE_FLIP_KINDS
             else ("deliver_then_wipe", "wipe_only"))
    histories = list(zip(names, (cfg1, cfg2), (trace1, trace2), (sched1, sched2)))
    choices = []
    for choice, keep in adapter_choices(kind, cfg1).items():
        verdicts, violations = {}, []
        for name, cfg, trace, sched in histories:
            reports = run_property_checks(adapter_output(trace, keep), sched, cfg.delta_b,
                                          cfg.delta_c, cfg.variant, ONE_SHOT_PROPERTIES)
            verdicts[name] = {r.property: r.verdict for r in reports}
            violations += [{"history": name, "property": r.property, "witness": r.witness,
                            "details": r.details} for r in reports if r.verdict == VIOLATED]
        choices.append({"choice": choice, "verdicts": verdicts, "violations": violations})
    holds = identical and all(c["violations"] for c in choices)
    return DemoResult(kind=kind, params=params, config_first=cfg1, config_second=cfg2,
                      trace_first=trace1, trace_second=trace2,
                      projections_identical=identical, choices=choices, holds=holds)


# An adapter's choice: whether it keeps the delivery of (source, payload) by
# a process in a round, called as ``keep(round, source, payload, process)``.
Keep = Callable[[int, int, bytes, int], bool]


def adapter_choices(kind: str, cfg: ScenarioConfig) -> dict[str, Keep]:
    """Each choice a deterministic one-shot adapter can make on a pair's shared
    observation, by name, as the deliveries of a channel trace it keeps.

    On the source-flip pair the adapter delivers one subset of the two
    payloads at every process in both histories. On the wipe-flip pair it
    delivers again on the cure, as the channel does, or ignores the cure.
    """
    if kind in SOURCE_FLIP_KINDS:
        m1, m2 = (b.payload for b in cfg.broadcasts)
        subsets = {"deliver_first_payload": {m1}, "deliver_second_payload": {m2},
                   "deliver_neither": set(), "deliver_both": {m1, m2}}
        return {name: lambda r, s, payload, p, chosen=chosen: payload in chosen
                for name, chosen in subsets.items()}
    target, wipe_round = cfg.strategy["target"], cfg.strategy["wipe_round"]
    return {"deliver_on_cure": lambda r, s, payload, p: True,
            "ignore_cure": lambda r, s, payload, p: p != target or r <= wipe_round}


def adapter_output(trace: Trace, keep: Keep) -> Trace:
    """An in-memory copy of a channel trace that holds only the deliveries
    ``keep`` accepts: what the adapter delivers on that history. Each round's
    kept instances, a class per list of processes that keep them, are
    regrouped by ``engine.deliver_calls`` and stand where the round's first
    DELIVER_CALL stood; a round left with none has none."""
    kept: dict[int, dict[tuple[int, ...], list[tuple[int, bytes]]]] = {}
    for _idx, r, by, source, payload in delivered_instances(trace.events):
        processes = [p for p in by if keep(r, source, payload, p)]
        if processes:
            kept.setdefault(r, {}).setdefault(tuple(processes), []).append((source, payload))
    instances = Memo(instance_detail)
    events = []
    for e in trace.events:
        if e.kind != KIND_DELIVER_CALL:
            events.append(e)
        elif e.round in kept:
            classes = [(sorted(delivered), list(members)) for members, delivered in kept.pop(e.round).items()]
            events += deliver_calls(e.round, classes, instances)
    return replace(trace, events=events)
