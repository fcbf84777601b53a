"""Property checkers over finished traces.

Each checker is a pure function of one ``TraceIndex`` (a trace, its failure
schedule and the scenario's parameters) returning a PropertyReport with
verdict SATISFIED, VIOLATED (with a witness: the indices of the events that
show the violation) or UNRESOLVED (the obligation falls due beyond the
horizon — never treated as a violation).
``run_property_checks`` is the entry point: it builds the index once and
runs the checkers a report asks for on it.

Deliveries performed while a process is faulty appear in traces but are
excluded from every evaluation: operations executed by a possessed process are
adversary output, not protocol output.

A DELIVER_CALL lists the processes that delivered its instances, each a
(source, payload), in its round, so the checkers read one ``DeliveryGroup``
per (event, instance), not one record per process; ``extract_deliveries``
expands the events. A witness cites the events of its groups, several groups
of one event as one index; a report's ``details`` name the processes.

"Eventually" is read over the finite horizon by one rule. Only the
delta_c-i.o.-correct processes (correct throughout the last delta_c rounds)
carry obligations. Each obligation has an anchor, the earliest round the
protocol itself promises: ``DELIVERY_DELAY`` rounds after the broadcast for
validity, one round after the first observed delivery for agreement and
totality. A process that has not delivered owes the delivery at its first
correct round at or after the anchor, ``FailureSchedule.next_correct``; when
that round lies past the horizon the obligation is UNRESOLVED, otherwise it
is VIOLATED.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .engine import (
    KIND_BROADCAST_CALL,
    KIND_DELIVER_CALL,
    KIND_P2P_SEND,
    TO_ALL,
    Memo,
    Trace,
    TraceEvent,
    delivered_instances,
    encode_line,
    event_lines,
    instance_detail,
    send_groups,
)
from .messages import decode_payload
from .model import FailureSchedule, io_correct_processes
from .protocol import DELIVERY_DELAY, VariantTag

SATISFIED = "SATISFIED"
VIOLATED = "VIOLATED"
UNRESOLVED = "UNRESOLVED"

VALIDITY = "VALIDITY"
NO_DUPLICATION = "NO_DUPLICATION"
INTEGRITY = "INTEGRITY"
CONSISTENCY = "CONSISTENCY"
AGREEMENT = "AGREEMENT"
TOTALITY = "TOTALITY"
DELIVERY_COUNT_LAW = "DELIVERY_COUNT_LAW"

MBBC_PROPERTIES = (VALIDITY, NO_DUPLICATION, INTEGRITY, AGREEMENT, DELIVERY_COUNT_LAW)
ALL_PROPERTIES = MBBC_PROPERTIES + (CONSISTENCY, TOTALITY)
# The one-shot reliable-broadcast properties: what an adapter's output is scored on.
ONE_SHOT_PROPERTIES = (VALIDITY, NO_DUPLICATION, INTEGRITY, CONSISTENCY, TOTALITY)


class DeliveryGroup(NamedTuple):
    """One instance of a DELIVER_CALL: ``correct`` holds the processes of the
    event's ``by`` that were correct in its round, in process order, and
    ``event_index`` is the event's; the groups of one event share it."""

    round: int
    source: int
    payload: bytes
    correct: tuple[int, ...]
    event_index: int


# Builds a DeliveryGroup from its five fields without the NamedTuple's ``__new__``.
_new_group = tuple.__new__
_ROUND, _CORRECT, _EVENT_INDEX = itemgetter(0), itemgetter(3), itemgetter(4)


@dataclass(frozen=True)
class BroadcastRecord:
    source: int
    round: int
    payload: bytes
    event_index: int


@dataclass
class PropertyReport:
    property: str
    verdict: str
    witness: list[int] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"property": self.property, "verdict": self.verdict,
                "witness": list(self.witness), "details": self.details}


def extract_deliveries(trace: Trace, schedule: FailureSchedule) -> list[DeliveryGroup]:
    """One group per (DELIVER_CALL, instance), in trace order, read from
    ``engine.delivered_instances``; ``correct`` may be empty. An event's
    faulty set and ``correct`` are found once, at its first instance, and
    each group is built as a tuple."""
    out: list[DeliveryGroup] = []
    last = correct = None
    for idx, r, by, source, payload in delivered_instances(trace.events):
        if idx != last:
            last, faulty = idx, schedule.faulty_set(r)
            correct = tuple(by) if faulty.isdisjoint(by) else tuple(p for p in by if p not in faulty)
        out.append(_new_group(DeliveryGroup, (r, source, payload, correct, idx)))
    return out


def extract_broadcasts(trace: Trace) -> list[BroadcastRecord]:
    return [BroadcastRecord(source=ev.subject, round=ev.round, payload=decode_payload(ev.detail),
                            event_index=idx)
            for idx, ev in enumerate(trace.events) if ev.kind == KIND_BROADCAST_CALL]


@dataclass
class TraceIndex:
    """One trace with the scenario's parameters, and what the checkers look up
    in it, gathered in one pass per part.

    Deliveries are kept per DELIVER_CALL instance group (its event index,
    round, instance and correct members), not per process, so the checkers
    scan groups. ``run_property_checks`` builds one index and hands it to every
    checker. Each part is built on first use, so a report that needs only
    some parts pays only for those.
    """

    trace: Trace
    schedule: FailureSchedule
    delta_b: int
    delta_c: int
    variant: VariantTag

    @cached_property
    def correct_deliveries(self) -> list[DeliveryGroup]:
        """The groups with a member correct in their round, in trace order."""
        return [g for g in extract_deliveries(self.trace, self.schedule) if g.correct]

    @cached_property
    def broadcasts(self) -> list[BroadcastRecord]:
        return extract_broadcasts(self.trace)

    def qualifies(self, b: BroadcastRecord) -> bool:
        """Whether ``b``'s source was correct for delta_b rounds from its round:
        only such a broadcast obliges a delivery or dates its instance."""
        return self.schedule.correct_during(b.source, b.round, b.round + self.delta_b - 1)

    @cached_property
    def births(self) -> dict[tuple[int, bytes], int]:
        """The round of each (source, payload)'s earliest qualifying broadcast."""
        out: dict[tuple[int, bytes], int] = {}
        for b in self.broadcasts:
            if self.qualifies(b):
                key = (b.source, b.payload)
                out[key] = min(b.round, out.get(key, b.round))
        return out

    @cached_property
    def by_instance(self) -> dict[tuple[int, bytes], list[DeliveryGroup]]:
        """Correct-time delivery groups per (source, payload), keyed in order of first delivery."""
        out: dict[tuple[int, bytes], list[DeliveryGroup]] = {}
        for g in self.correct_deliveries:
            out.setdefault((g.source, g.payload), []).append(g)
        return out

    @cached_property
    def delivered_by(self) -> dict[tuple[int, bytes], set[int]]:
        """The processes that delivered each (source, payload) while correct."""
        return {key: set().union(*(g.correct for g in groups))
                for key, groups in self.by_instance.items()}

    @cached_property
    def by_source(self) -> dict[int, list[tuple[int, bytes]]]:
        """Each source's delivered (source, payload) keys of ``by_instance``,
        sources and keys in order of first delivery."""
        out: dict[int, list[tuple[int, bytes]]] = {}
        for key in self.by_instance:
            out.setdefault(key[0], []).append(key)
        return out

    @cached_property
    def cured_rounds(self) -> dict[int, list[int]]:
        """The rounds in which each process is cured, ascending: faulty in the
        round before, correct in it (``FailureSchedule.cures``). The
        schedule fixes them; the trace does not hold them."""
        out: dict[int, list[int]] = {}
        for r in range(2, self.schedule.horizon + 1):
            for p, _since in self.schedule.cures(r):
                out.setdefault(p, []).append(r)
        return out

    @cached_property
    def io_correct(self) -> tuple[int, ...]:
        return io_correct_processes(self.schedule, self.delta_c)

    def owed(self, delivered: set[int], anchor: int) -> list[tuple[int, int | None]]:
        """``(p, due)`` for each i.o.-correct p not in ``delivered``, in process
        order: ``due`` is p's first correct round at or after ``anchor``, None
        when that lies past the horizon (the module docstring's one rule)."""
        return [(p, self.schedule.next_correct(p, anchor))
                for p in self.io_correct if p not in delivered]


# Verdicts from best to worst; a report's verdict is the worst of its parts.
_VERDICT_ORDER = (SATISFIED, UNRESOLVED, VIOLATED)


def _worst(*verdicts: str) -> str:
    return max(verdicts, key=_VERDICT_ORDER.index)


def check_validity(index: TraceIndex) -> PropertyReport:
    """Broadcasts by a source correct for delta_b rounds must reach a delivery.

    Two readings are evaluated: the base one (at least one delta_c-i.o.-correct
    process delivers while correct) always, and the per-process one (every
    such process delivers) when the scenario runs the full-oracle variant with
    n > 5f, where that stronger guarantee is promised.
    """
    schedule = index.schedule
    strong = index.variant is VariantTag.FFA_FULL and schedule.n > 5 * schedule.f

    instances = []
    verdict = SATISFIED
    witness: list[int] = []
    for b in index.broadcasts:
        if not index.qualifies(b):
            instances.append({"source": b.source, "round": b.round, "status": "vacuous",
                              "reason": "source not correct for delta_b rounds"})
            continue
        owed = index.owed(index.delivered_by.get((b.source, b.payload), set()),
                          b.round + DELIVERY_DELAY)
        enforceable = any(due is not None for _p, due in owed)
        # The base reading: some i.o.-correct process delivered.
        base = (SATISFIED if len(owed) < len(index.io_correct)
                else VIOLATED if enforceable else UNRESOLVED)
        inst: dict = {"source": b.source, "round": b.round, "base_reading": base}
        readings = [base]
        if strong:
            per_process = VIOLATED if enforceable else UNRESOLVED if owed else SATISFIED
            inst["per_process_reading"] = per_process
            if per_process == VIOLATED:
                inst["missing"] = [{"process": p, "due_round": due} for p, due in owed if due is not None]
            elif per_process == UNRESOLVED:
                inst["pending"] = [p for p, _due in owed]
            readings.append(per_process)
        if VIOLATED in readings:
            witness.append(b.event_index)
        verdict = _worst(verdict, *readings)
        instances.append(inst)

    details = {"instances": instances, "per_process_reading_evaluated": strong}
    if not instances:
        details["note"] = "no qualifying broadcast; vacuously satisfied"
    return PropertyReport(VALIDITY, verdict, sorted(set(witness)), details)


def check_no_duplication(index: TraceIndex) -> PropertyReport:
    """No process delivers the same (source, payload) twice while correct.

    An instance whose groups hold as many members as it has distinct
    delivering processes has no duplicate, and is not scanned per process.
    Otherwise one pass over its groups lists each process's groups, and each
    duplicating process's rounds and events are read off its list.
    """
    duplicates: list[tuple[int, int, int, list[int]]] = []
    witness: set[int] = set()
    for key, groups in index.by_instance.items():
        delivered = index.delivered_by[key]
        if sum(map(len, map(_CORRECT, groups))) == len(delivered):
            continue
        per_process: dict[int, list[DeliveryGroup]] = {p: [] for p in delivered}
        for g in groups:
            for p in g.correct:
                per_process[p].append(g)
        for p, mine in per_process.items():
            if len(mine) > 1:
                duplicates.append((p, key[0], mine[0].event_index, list(map(_ROUND, mine))))
                witness.update(map(_EVENT_INDEX, mine))
    if duplicates:
        duplicates.sort(key=lambda dup: dup[:3])
        details = {"duplicates": [{"process": p, "source": s, "rounds": rounds}
                                  for p, s, _first, rounds in duplicates]}
        return PropertyReport(NO_DUPLICATION, VIOLATED, sorted(witness), details)
    return PropertyReport(NO_DUPLICATION, SATISFIED, [],
                          {"deliveries": sum(map(len, index.delivered_by.values()))})


def check_integrity(index: TraceIndex) -> PropertyReport:
    """Every correct-time delivery traces back to a correct broadcast or a faulty source.

    A delivery in round r is explained by a broadcast when the earliest
    qualifying broadcast of its (source, payload) came in round r or before,
    and by a faulty source when the source's first faulty round is r or before.
    """
    schedule = index.schedule
    never = schedule.horizon + 1
    unexplained = [g for g in index.correct_deliveries
                   if index.births.get((g.source, g.payload), never) > g.round
                   and (schedule.first_faulty(g.source) or never) > g.round]
    if unexplained:
        # Per round, by process; a process's own deliveries keep their trace order.
        violations = sorted(({"process": p, "round": g.round, "source": g.source}
                             for g in unexplained for p in g.correct),
                            key=lambda v: (v["round"], v["process"]))
        return PropertyReport(INTEGRITY, VIOLATED, sorted(g.event_index for g in unexplained),
                              {"violations": violations})
    return PropertyReport(INTEGRITY, SATISFIED, [], {})


def _first_delivery(groups: Iterable[DeliveryGroup]) -> DeliveryGroup:
    """The group of the earliest round, of a tie the first in the trace."""
    return min(groups, key=lambda g: (g.round, g.event_index))


def _obligation_check(prop: str, index: TraceIndex,
                      obligations: Iterable[tuple[DeliveryGroup, set[int]]]) -> PropertyReport:
    """Shared core of Agreement (per message) and Totality (per source): each
    obligation is its first delivery group and the processes that delivered."""
    verdict = SATISFIED
    witness: list[int] = []
    details: list[dict] = []
    for d, delivered in sorted(obligations, key=lambda ob: ob[0].event_index):
        # "Eventually" grants at least one round past the first observed delivery.
        for p, due in index.owed(delivered, d.round + 1):
            entry = {"process": p, "source": d.source, "first_delivery_round": d.round,
                     "status": UNRESOLVED if due is None else VIOLATED}
            if due is not None:
                entry["due_round"] = due
                witness.append(d.event_index)
            verdict = _worst(verdict, entry["status"])
            details.append(entry)
    return PropertyReport(prop, verdict, sorted(set(witness)), {"obligations": details})


def check_agreement(index: TraceIndex) -> PropertyReport:
    """A correct-time delivery of (s, m) obliges every i.o.-correct process to deliver (s, m)."""
    return _obligation_check(AGREEMENT, index, ((_first_delivery(groups), index.delivered_by[key])
                                                for key, groups in index.by_instance.items()))


def check_mbrb_totality(index: TraceIndex) -> PropertyReport:
    """One-shot reading: a delivery from s obliges every i.o.-correct process to deliver from s."""
    obligations = []
    for keys in index.by_source.values():
        first = _first_delivery(chain.from_iterable(index.by_instance[key] for key in keys))
        obligations.append((first, set().union(*(index.delivered_by[key] for key in keys))))
    return _obligation_check(TOTALITY, index, obligations)


def check_mbrb_consistency(index: TraceIndex) -> PropertyReport:
    """One-shot reading: any two correct-time deliveries from one source carry equal payloads."""
    for source, keys in sorted(index.by_source.items()):
        if len(keys) > 1:
            return PropertyReport(CONSISTENCY, VIOLATED,
                                  [index.by_instance[key][0].event_index for key in keys[:2]],
                                  {"source": source, "distinct_payload_count": len(keys)})
    return PropertyReport(CONSISTENCY, SATISFIED, [], {})


def check_delivery_count_laws(index: TraceIndex) -> PropertyReport:
    """Duplicate-delivery laws of the weak variants.

    BFA_WEAK: once an instance has been delivered somewhere, each process must
    deliver it at least (1 if correct at birth+3 else 0) + (cures after
    birth+3) times — one baseline delivery plus one per cure. NFA_WEAK: a
    process must deliver the instance at every correct round from birth+3 on.
    Not applicable to the full variant.

    A violated instance cites its first correct-time DELIVER_CALL, which puts
    the law in force; under BFA_WEAK also each short process's own.

    The birth is the round of the instance's earliest broadcast whose source
    was correct for delta_b rounds from it, as VALIDITY reads it. An instance
    with no such broadcast takes its first delivery minus DELIVERY_DELAY: a
    source possessed before its SEND went out can be made to send it with
    any birth, and the protocol gates on the birth the SEND carries.
    """
    variant, schedule = index.variant, index.schedule
    if variant is VariantTag.FFA_FULL:
        return PropertyReport(DELIVERY_COUNT_LAW, SATISFIED, [],
                              {"note": "not applicable to the full no-duplication variant"})
    verdict = SATISFIED
    witness: list[int] = []
    details: list[dict] = []
    if variant is VariantTag.NFA_WEAK:
        correct_in = [schedule.correct_set(r) for r in range(1, schedule.horizon + 1)]
    for key, groups in sorted(index.by_instance.items(), key=lambda kv: kv[1][0].event_index):
        birth = index.births.get(key, min(g.round for g in groups) - DELIVERY_DELAY)
        due = birth + DELIVERY_DELAY
        inst: dict = {"source": key[0], "birth_round": birth}
        if variant is VariantTag.BFA_WEAK:
            actual = Counter(chain.from_iterable(g.correct for g in groups))
            for p in range(schedule.n):
                cures = [r for r in index.cured_rounds.get(p, []) if r > due]
                baseline = 1 if schedule.next_correct(p, due) == due else 0
                required = baseline + len(cures)
                if actual[p] < required:
                    witness.extend(g.event_index for g in groups if p in g.correct)
                    inst.setdefault("shortfalls", []).append(
                        {"process": p, "required": required, "actual": actual[p], "cures": cures})
        else:  # NFA_WEAK: per round, the correct processes that did not deliver
            delivered_in: dict[int, set[int]] = {}
            for g in groups:
                delivered_in.setdefault(g.round, set()).update(g.correct)
            missing = sorted((p, r) for r in range(max(due, 1), schedule.horizon + 1)
                             for p in correct_in[r - 1] - delivered_in.get(r, set()))
            if missing:
                inst["missing"] = [{"process": p, "round": r} for p, r in missing]
        if "shortfalls" in inst or "missing" in inst:
            verdict = VIOLATED
            witness.append(groups[0].event_index)
        details.append(inst)
    if not index.by_instance:
        details.append({"note": "no delivered instance; law vacuous"})
    return PropertyReport(DELIVERY_COUNT_LAW, verdict, sorted(set(witness)), {"instances": details})


def run_property_checks(trace: Trace, schedule: FailureSchedule, delta_b: int, delta_c: int,
                        variant: VariantTag, properties: tuple[str, ...] = MBBC_PROPERTIES,
                        ) -> list[PropertyReport]:
    """Check ``properties`` in order on one index of the trace, one report each."""
    checkers = _checkers()
    unknown = [prop for prop in properties if prop not in checkers]
    if unknown:
        raise ValueError(f"unknown property: {unknown[0]}")
    index = TraceIndex(trace, schedule, delta_b, delta_c, variant)
    return [checkers[prop](index) for prop in properties]


def _checkers() -> dict[str, Callable[[TraceIndex], PropertyReport]]:
    """Each property's checker, read from this module's names on every call,
    so a checker swapped on the module is the one that runs."""
    return {VALIDITY: check_validity, NO_DUPLICATION: check_no_duplication,
            INTEGRITY: check_integrity, AGREEMENT: check_agreement,
            DELIVERY_COUNT_LAW: check_delivery_count_laws, CONSISTENCY: check_mbrb_consistency,
            TOTALITY: check_mbrb_totality}


def reports_to_json(reports: list[PropertyReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)


def permanently_correct(schedule: FailureSchedule) -> frozenset[int]:
    return frozenset(p for p in range(schedule.n) if schedule.first_faulty(p) is None)


def projection(trace: Trace, schedule: FailureSchedule) -> list[TraceEvent]:
    """Events observable at processes that are correct throughout the run.

    Those are the sends that reach one of them, grouped by message: one
    P2P_SEND per round and distinct (message, receivers
    narrowed to them), ``{"from": [senders], "message": …, "to": [kept]}``
    with the senders sorted and the subject ``from[0]``. ``"ALL"`` narrows to
    their sorted list and a list to its kept members, duplicates included,
    so a correct fan-out and a possessed sender's dictated send to every
    process of the same message narrow alike. Messages are told apart by
    their encoded text, so type-exactly (``True`` is not ``1``), whether or
    not two sends share a message object. A round's groups are sorted by
    (message text, kept receivers), which depends only on who sent what to
    whom, not on the trace's order (fan-outs before dictated sends), and
    stand at its first P2P_SEND. A sender makes at most one send per message
    per round, so the groups are one-to-one with the (sender, message) sends.

    Their own broadcast and deliver calls stay one per process: each
    instance of a DELIVER_CALL gives one event per kept member of its
    ``by``, with that member as subject and the instance as detail, and a
    round's calls stand at its first call, by subject, a process's
    BROADCAST_CALLs first in trace order, then its DELIVER_CALLs in (source,
    payload) order, the order ``compute_phase`` delivers in. So the
    projection depends only on what each kept process broadcast and
    delivered, and not on how a trace groups its deliveries.

    Two executions are indistinguishable to the permanently correct
    processes exactly when their projections are identical; the
    impossibility demos assert this byte-for-byte on the serialized form.
    """
    keep = permanently_correct(schedule)
    sends = _kept_sends(trace.events, keep)
    calls = _kept_calls(trace.events, keep)
    observed = []
    for ev in trace.events:
        if ev.kind == KIND_P2P_SEND:
            observed += sends.pop(ev.round, ())
        elif ev.kind in (KIND_BROADCAST_CALL, KIND_DELIVER_CALL):
            observed += calls.pop(ev.round, ())
    return observed


def _kept_sends(events: list[TraceEvent], keep: frozenset[int]) -> dict[int, list[TraceEvent]]:
    """Each round's sends to the kept processes, one P2P_SEND per (message
    text, kept receivers) listing its senders (``projection``), read from
    ``engine.send_groups``. Each message object is encoded once; the memo
    holds it, so no id is reused. Groups with equal kept receivers share one
    list, which ``event_lines`` then encodes once."""
    everyone = sorted(keep)
    texts: dict[int, tuple[object, str]] = {}
    shared: dict[tuple[int, ...], list[int]] = {}
    by_round: dict[int, dict[tuple[str, tuple[int, ...]], tuple[object, list[int], list[int]]]] = {}
    for r, senders, message, to in send_groups(events):
        kept = everyone if to == TO_ALL else [q for q in to if q in keep]
        if not kept:
            continue
        hit = texts.get(id(message))
        if hit is None:
            hit = texts[id(message)] = (message, encode_line(message))
        groups = by_round.setdefault(r, {})
        key = (hit[1], tuple(kept))
        group = groups.get(key)
        if group is None:
            group = groups[key] = (message, shared.setdefault(key[1], kept), [])
        group[2].extend(senders)
    out: dict[int, list[TraceEvent]] = {}
    for r, groups in by_round.items():
        sends = out[r] = []
        for key in sorted(groups):
            message, kept, senders = groups[key]
            senders.sort()
            sends.append(TraceEvent(r, KIND_P2P_SEND, senders[0],
                                    {"from": senders, "message": message, "to": kept}))
    return out


def _kept_calls(events: list[TraceEvent], keep: frozenset[int]) -> dict[int, list[TraceEvent]]:
    """Each round's BROADCAST_CALLs and per-process DELIVER_CALLs of the kept
    processes, by subject, a process's broadcasts first, then its deliveries
    in (source, payload) order (``projection``). Each instance's detail is
    built once and shared."""
    by_round: dict[int, list[tuple[tuple, TraceEvent]]] = {}
    for ev in events:
        if ev.kind == KIND_BROADCAST_CALL and ev.subject in keep:
            by_round.setdefault(ev.round, []).append(((ev.subject, False), ev))
    details = Memo(instance_detail)
    for _idx, r, by, source, payload in delivered_instances(events):
        kept = [p for p in by if p in keep]
        if kept:
            detail = details[source, payload]
            by_round.setdefault(r, []).extend(
                ((p, True, source, payload), TraceEvent(r, KIND_DELIVER_CALL, p, detail))
                for p in kept)
    out = {}
    for r, calls in by_round.items():
        calls.sort(key=itemgetter(0))
        out[r] = [ev for _key, ev in calls]
    return out


def projection_jsonl(trace: Trace, schedule: FailureSchedule) -> str:
    return "\n".join(event_lines(projection(trace, schedule)))
