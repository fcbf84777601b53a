"""A reference checker written as an online monitor: what ``mbbc.checker`` is
checked against.

``Monitor.step(r, faulty, broadcasts, deliveries)`` reads only what round r
shows: the faulty set B(r), the round's broadcast calls as (source,
payload), and its deliveries as (process, source, payload), one per process
a DELIVER_CALL lists for each of its instances. ``Monitor.verdicts()``
settles what is still pending when the horizon ends and gives each of the
seven properties a verdict. ``monitor_verdicts`` feeds it a trace.

It is written from the definitions the checker's docstrings give, not from
the checker's code, and shares none of it: of ``mbbc.checker`` it imports
the property and verdict names only, and of the schedule it reads B(r)
alone, so it derives every schedule fact it needs (first faulty round,
cures, next correct round, correct windows) itself. The definitions, over
rounds 1..H:

- a process is correct in r when it is not in B(r); a delivery counts only
  when its process is correct in its round;
- a process is i.o.-correct when it is correct in each of the last delta_c
  rounds (none is when delta_c > H); only these carry obligations;
- a broadcast (s, b, m) qualifies when s is correct in each of the rounds
  b..b+delta_b-1, all within H;
- an obligation with anchor a on a set of processes: each i.o.-correct
  process that never delivered owes the delivery at its first correct round
  at or after a, VIOLATED when that round lies within H and UNRESOLVED
  when it does not.

The properties:

- VALIDITY: each qualifying broadcast is an obligation anchored DELAY rounds
  after it on some i.o.-correct process (UNRESOLVED when none is
  i.o.-correct) and, under FFA_FULL with n > 5f, on every one;
- NO_DUPLICATION: no process delivers one (source, payload) twice;
- INTEGRITY: each delivery of (s, m) in round r has a qualifying broadcast
  of (s, m) in round r or before, or s faulty in round r or before;
- AGREEMENT: each delivered (s, m) is an obligation on every i.o.-correct
  process, anchored one round after its first delivery;
- TOTALITY: the same per source s, over every payload of s;
- CONSISTENCY: no source has two payloads delivered;
- DELIVERY_COUNT_LAW: each delivered instance's birth is its earliest
  qualifying broadcast, else its first delivery minus DELAY, and its due
  round the birth plus DELAY. Under BFA_WEAK each process delivers it at
  least once if correct in the due round, plus once per cure after it (a
  round in which the process is correct after a faulty one); under NFA_WEAK
  every process correct in a round from the due one on delivers it in that
  round. FFA_FULL has no count law.

What a later round can still change is kept pending: the delta_c window,
each broadcast's delta_b qualification, and each process's next correct
round. The state is plain immutable values (ints, tuples and frozensets),
replaced at every step, so equal states compare and hash equal.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from mbbc.checker import (
    AGREEMENT,
    CONSISTENCY,
    DELIVERY_COUNT_LAW,
    INTEGRITY,
    NO_DUPLICATION,
    SATISFIED,
    TOTALITY,
    UNRESOLVED,
    VALIDITY,
    VIOLATED,
)
from mbbc.engine import KIND_BROADCAST_CALL, Trace, delivered_instances
from mbbc.messages import decode_payload
from mbbc.model import FailureSchedule
from mbbc.protocol import VariantTag

# Rounds from a broadcast to its delivery: the SEND, the ECHO quorum and the
# READY quorum take one round each.
DELAY = 3

# Verdicts from best to worst.
_ORDER = (SATISFIED, UNRESOLVED, VIOLATED)


def _worst(verdicts: Iterable[str]) -> str:
    return max(verdicts, key=_ORDER.index, default=SATISFIED)


class Monitor:
    """The seven properties over one run of n processes and f agents to
    ``horizon``, stepped one round at a time."""

    def __init__(self, n: int, f: int, horizon: int, delta_b: int, delta_c: int,
                 variant: VariantTag):
        self.n, self.f, self.horizon = n, f, horizon
        self.delta_b, self.delta_c, self.variant = delta_b, delta_c, variant
        self.round = 0
        # Each process's status changes, by round: correct before the
        # first, faulty from it until the second (a cure), and so on.
        self.flips: tuple[tuple[int, ...], ...] = ((),) * n
        # The broadcast calls as (source, round, payload).
        self.broadcasts: frozenset[tuple[int, int, bytes]] = frozenset()
        # ((process, source, payload), count) of the deliveries that count.
        self.counts: frozenset[tuple[tuple[int, int, bytes], int]] = frozenset()
        # (source, payload, first round, last miss) of each delivered
        # instance: the round of its first delivery, and the last round in
        # which some correct process did not deliver it (0 for none).
        self.instances: frozenset[tuple[int, bytes, int, int]] = frozenset()
        # The last round with a correct process, 0 for none.
        self.last_with_correct = 0

    def step(self, r: int, faulty: frozenset[int], broadcasts: Iterable[tuple[int, bytes]],
             deliveries: Iterable[tuple[int, int, bytes]]) -> None:
        if r != self.round + 1 or r > self.horizon:
            raise ValueError(f"round {r} does not follow round {self.round} of {self.horizon}")
        self.round = r
        self.flips = tuple(flips + (r,) if (p in faulty) != (len(flips) % 2 == 1) else flips
                           for p, flips in enumerate(self.flips))
        self.broadcasts |= {(source, r, payload) for source, payload in broadcasts}
        counts = dict(self.counts)
        delivered: dict[tuple[int, bytes], set[int]] = {}
        for p, source, payload in deliveries:
            if p not in faulty:
                counts[p, source, payload] = counts.get((p, source, payload), 0) + 1
                delivered.setdefault((source, payload), set()).add(p)
        self.counts = frozenset(counts.items())
        instances = {(s, m): (first, miss) for s, m, first, miss in self.instances}
        for key in delivered.keys() - instances.keys():
            # Not delivered before: missed in every earlier round that had a correct process.
            instances[key] = (r, self.last_with_correct)
        correct = set(range(self.n)) - faulty
        self.instances = frozenset(
            (s, m, first, r if correct - delivered.get((s, m), set()) else miss)
            for (s, m), (first, miss) in instances.items())
        if correct:
            self.last_with_correct = r

    def verdicts(self) -> dict[str, str]:
        """Each property's verdict once every round of the horizon is stepped."""
        if self.round != self.horizon:
            raise ValueError(f"stepped to round {self.round} of {self.horizon}")
        H, n, flips, faulty_in = self.horizon, self.n, self.flips, self._faulty_in

        def correct_throughout(p: int, first: int, last: int) -> bool:
            return 1 <= first and last <= H and not any(faulty_in(p, r) for r in range(first, last + 1))

        io_correct = [p for p in range(n) if correct_throughout(p, H - self.delta_c + 1, H)]

        def qualifies(s: int, b: int) -> bool:
            return correct_throughout(s, b, b + self.delta_b - 1)

        def obligation(delivered: set[int], anchor: int) -> str:
            owed = [p for p in io_correct if p not in delivered]
            if any(not faulty_in(p, r) for p in owed for r in range(anchor, H + 1)):
                return VIOLATED
            return UNRESOLVED if owed else SATISFIED

        counts = dict(self.counts)
        delivered_by: dict[tuple[int, bytes], set[int]] = {}
        for p, s, m in counts:
            delivered_by.setdefault((s, m), set()).add(p)
        births: dict[tuple[int, bytes], list[int]] = {}
        for s, b, m in self.broadcasts:
            if qualifies(s, b):
                births.setdefault((s, m), []).append(b)
        by_source: dict[int, list[tuple[bytes, int]]] = {}
        for s, m, first, _miss in self.instances:
            by_source.setdefault(s, []).append((m, first))

        validity = []
        strong = self.variant is VariantTag.FFA_FULL and n > 5 * self.f
        for (s, m), rounds in births.items():
            delivered = delivered_by.get((s, m), set())
            for b in rounds:
                if not delivered.intersection(io_correct):
                    # Some i.o.-correct process owes it; with none, none can deliver.
                    validity.append(obligation(delivered, b + DELAY) if io_correct else UNRESOLVED)
                if strong:
                    validity.append(obligation(delivered, b + DELAY))

        integrity = all((flips[s] and flips[s][0] <= first) or min(births.get((s, m), [H + 1])) <= first
                        for s, m, first, _miss in self.instances)

        totality = [obligation(set().union(*(delivered_by[s, m] for m, _first in payloads)),
                               min(first for _m, first in payloads) + 1)
                    for s, payloads in by_source.items()]

        return {
            VALIDITY: _worst(validity),
            NO_DUPLICATION: VIOLATED if any(count > 1 for count in counts.values()) else SATISFIED,
            INTEGRITY: SATISFIED if integrity else VIOLATED,
            AGREEMENT: _worst(obligation(delivered_by[s, m], first + 1)
                              for s, m, first, _miss in self.instances),
            TOTALITY: _worst(totality),
            CONSISTENCY: VIOLATED if any(len(p) > 1 for p in by_source.values()) else SATISFIED,
            DELIVERY_COUNT_LAW: self._count_law(counts, births),
        }

    def _faulty_in(self, p: int, r: int) -> bool:
        return bisect_right(self.flips[p], r) % 2 == 1

    def _count_law(self, counts: dict[tuple[int, int, bytes], int],
                   births: dict[tuple[int, bytes], list[int]]) -> str:
        if self.variant is VariantTag.FFA_FULL:
            return SATISFIED
        for s, m, first, miss in self.instances:
            # At least 1: a first delivery is in round 1 or later, a birth too.
            due = min(births.get((s, m), [first - DELAY])) + DELAY
            if self.variant is VariantTag.NFA_WEAK:
                if miss >= due:
                    return VIOLATED
                continue
            for p in range(self.n):
                baseline = 1 if due <= self.horizon and not self._faulty_in(p, due) else 0
                cures = sum(r > due for r in self.flips[p][1::2])
                if counts.get((p, s, m), 0) < baseline + cures:
                    return VIOLATED
        return SATISFIED


def monitor_verdicts(trace: Trace, schedule: FailureSchedule, delta_b: int, delta_c: int,
                     variant: VariantTag) -> dict[str, str]:
    """The monitor's verdicts on ``trace``, stepped through every round of
    ``schedule``'s horizon with its B(r), and the trace's broadcast calls and
    deliveries of the round."""
    broadcasts: dict[int, list[tuple[int, bytes]]] = {}
    deliveries: dict[int, list[tuple[int, int, bytes]]] = {}
    for ev in trace.events:
        if ev.kind == KIND_BROADCAST_CALL:
            broadcasts.setdefault(ev.round, []).append((ev.subject, decode_payload(ev.detail)))
    for _idx, r, by, source, payload in delivered_instances(trace.events):
        deliveries.setdefault(r, []).extend((p, source, payload) for p in by)
    monitor = Monitor(schedule.n, schedule.f, schedule.horizon, delta_b, delta_c, variant)
    for r in range(1, schedule.horizon + 1):
        monitor.step(r, schedule.faulty_set(r), broadcasts.get(r, ()), deliveries.get(r, ()))
    return monitor.verdicts()
