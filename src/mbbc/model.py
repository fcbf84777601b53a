"""Identities, rounds, agent trajectories and the derived faulty/correct sets.

Processes are indices ``0..n-1`` (process ``p_k`` of a scenario description is
index ``k-1``). Time is a round counter starting at 1; agents move only at
round boundaries, so a process is wholly faulty or wholly correct per round.
A schedule is the single source of truth for B(r) (faulty set), C(r)
(correct set) and each process's next correct round.

Each config object resolves its schedule once, and the schedule resolves
into round tables: it fills each agent's host row by slices and derives from
the rows, with set operations, the faulty and correct sets, each process's
faulty spans (which give its first faulty round and its next correct
round) and the cures with their span starts. Each table is built on first
use; the engine and the checkers read them instead of scanning round by
round.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple


class Timing(Enum):
    SYNC = "SYNC"
    ASYNC = "ASYNC"


class Mobility(Enum):
    S_MOB_PLUS = "S-MOB+"
    S_MOB = "S-MOB"
    A_MOB = "A-MOB"


class OracleKind(Enum):
    NFA = "NFA"
    BFA = "BFA"
    FFA = "FFA"


# Why the non-(SYNC, S-MOB+) settings are labels only, never executable.
UNSUPPORTED_REASONS = {
    Timing.ASYNC: (
        "asynchronous delivery is not executable: with no latency bound a single "
        "mobile agent can visit each process right after the message arrives and "
        "discard it, so no delivery guarantee can be simulated meaningfully"
    ),
    Mobility.A_MOB: (
        "agents with unknown sub-round residency are not executable: an agent that "
        "moves faster than one round can chase a message through all n processes "
        "within one delivery, defeating any round-aligned defense"
    ),
    Mobility.S_MOB: (
        "continuous-time agent movement is not executable in a round-based engine: "
        "mid-round moves break the per-round faulty/correct dichotomy this "
        "simulator is built on"
    ),
}


@dataclass(frozen=True)
class SettingTriple:
    """System setting: timing, agent mobility and local failure-awareness oracle."""

    timing: Timing
    mobility: Mobility
    oracle: OracleKind

    def unsupported_reason(self) -> str | None:
        if self.timing is Timing.ASYNC:
            return UNSUPPORTED_REASONS[Timing.ASYNC]
        if self.mobility is not Mobility.S_MOB_PLUS:
            return UNSUPPORTED_REASONS[self.mobility]
        return None

    def to_dict(self) -> dict:
        return {"timing": self.timing.value, "mobility": self.mobility.value, "oracle": self.oracle.value}

    @classmethod
    def from_dict(cls, data: dict) -> "SettingTriple":
        """Read ``timing``, ``mobility`` and ``oracle`` by name; a missing or
        unknown value is an ``InvalidScenario`` naming the field."""
        return cls(_setting_field(data, "timing", Timing), _setting_field(data, "mobility", Mobility),
                   _setting_field(data, "oracle", OracleKind))


def _setting_field(data: dict, key: str, kind: type[Enum]) -> Enum:
    if key not in data:
        raise InvalidScenario([f"setting needs {key!r}"])
    allowed = [member.value for member in kind]
    if data[key] not in allowed:
        raise InvalidScenario([f"setting {key} is {shown(data[key])}, not one of {', '.join(allowed)}"])
    return kind(data[key])


class RoundOutOfHorizon(Exception):
    """Raised when a round index outside [1, horizon] is queried."""


class InvalidScenario(Exception):
    """Configuration is structurally broken or violates a schedule invariant."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def shown(value, depth: int = 8) -> str:
    """``repr(value)`` for a message that echoes an outside value, with
    containers nested deeper than ``depth`` shown as ``[...]`` or ``{...}``:
    a value the JSON parser accepted can be nested too deep for ``repr``."""
    if isinstance(value, list) and value:
        inner = ", ".join(shown(v, depth - 1) for v in value) if depth else "..."
        return f"[{inner}]"
    if isinstance(value, dict) and value:
        inner = ", ".join(f"{shown(k, depth - 1)}: {shown(v, depth - 1)}"
                          for k, v in value.items()) if depth else "..."
        return f"{{{inner}}}"
    return repr(value)


def spec_object(value, what: str, keys: tuple[str, ...] | None = None) -> dict:
    """A JSON object of a spec; with ``keys``, one that holds no other key."""
    if not isinstance(value, dict):
        raise InvalidScenario([f"{what} is {shown(value)}, not an object"])
    if keys is not None and value.keys() - keys:
        raise InvalidScenario([f"{what} key {shown(key)} is not one of {', '.join(keys)}"
                               for key in value if key not in keys])
    return value


def spec_list(value, what: str) -> list:
    """A JSON array of a spec."""
    if not isinstance(value, list):
        raise InvalidScenario([f"{what} is {shown(value)}, not a list"])
    return value


def spec_int(data: dict, key: str, what: str, default: int | None = None) -> int:
    """An int field of a spec; required without a default. A bool, a float
    or a numeric string is not an int here."""
    if key not in data:
        if default is None:
            raise InvalidScenario([f"{what} needs {key!r}"])
        return default
    if type(data[key]) is not int:
        raise InvalidScenario([f"{what} {key} is {shown(data[key])}, not an int"])
    return data[key]


def spec_ints(data: dict, key: str, what: str) -> list[int]:
    """A list-of-ints field of a spec; absent means empty."""
    values = data.get(key, [])
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise InvalidScenario([f"{what} {key} is {shown(values)}, not a list of ints"])
    return values


class Segment(NamedTuple):
    """One contiguous stay of an agent on a host; ``last_round=None`` means open (to horizon).

    A tuple, so a generator builds its stays in bulk with ``tuple.__new__``."""

    host: int
    first_round: int
    last_round: int | None = None

    def to_dict(self) -> dict:
        return {"host": self.host, "first_round": self.first_round, "last_round": self.last_round}

    @classmethod
    def from_dict(cls, data: dict) -> "Segment":
        data = spec_object(data, "segment", cls._fields)
        last = data.get("last_round")
        if last is not None and type(last) is not int:
            raise InvalidScenario([f"segment last_round is {shown(last)}, neither an int nor null"])
        return cls(spec_int(data, "host", "segment"), spec_int(data, "first_round", "segment"), last)


@dataclass(frozen=True)
class AgentTrajectory:
    """Where one mobile agent sits over time.

    Segments are ordered and non-overlapping. Gaps are allowed: an agent may
    sit off-board for a while (the adversary simply fields fewer than f agents
    in those rounds). Back-to-back segments must change host — that is what a
    "move" means; after a gap the same host may be re-possessed.
    """

    agent_id: int
    segments: tuple[Segment, ...]

    def to_dict(self) -> dict:
        return {"agent_id": self.agent_id, "segments": [s.to_dict() for s in self.segments]}

    @classmethod
    def from_dict(cls, data: dict) -> "AgentTrajectory":
        data = spec_object(data, "trajectory", ("agent_id", "segments"))
        segments = spec_list(data.get("segments"), "trajectory segments")
        return cls(spec_int(data, "agent_id", "trajectory"),
                   tuple(Segment.from_dict(s) for s in segments))


@dataclass(frozen=True)
class ScheduleViolation:
    agent_id: int | None
    round: int | None
    rule: str
    detail: str


@dataclass(frozen=True)
class FailureSchedule:
    """Complete failure behaviour of a scenario: f agent trajectories over [1, horizon]."""

    n: int
    f: int
    delta_s: int
    horizon: int
    trajectories: tuple[AgentTrajectory, ...]

    @cached_property
    def _faulty_table(self) -> tuple[frozenset[int], ...]:
        """B(r) at index r - 1 for every r in [1, horizon], built on first
        use: each stay adds its host to the rounds it covers, clipped to
        [1, horizon]. ``validate_schedule`` refuses overlapping stays of one
        agent before any run reads the table.

        A cached property lives in the instance ``__dict__``, not in a field,
        so equality and hashing still see the five fields only.
        """
        horizon = self.horizon
        rounds: list[list[int]] = [[] for _ in range(horizon)]
        for traj in self.trajectories:
            for host, first, last in traj.segments:
                if last is None or last > horizon:
                    last = horizon
                if first < 1:
                    first = 1
                for r in range(first - 1, last):
                    rounds[r].append(host)
        return tuple(map(frozenset, rounds))

    @cached_property
    def _correct_sets(self) -> tuple[frozenset[int], ...]:
        """C(r) at index r - 1, built on first use from ``_faulty_table``."""
        return tuple(map(frozenset(range(self.n)).difference, self._faulty_table))

    @cached_property
    def _spans(self) -> dict[int, list[list[int]]]:
        """Each process's maximal faulty spans, ``[first, last]`` in round
        order, for the processes faulty in some round: one walk over
        ``_faulty_table`` that opens a span where a process joins B(r) and
        closes it where the process leaves."""
        spans: dict[int, list[list[int]]] = {}
        before: frozenset[int] = frozenset()
        for r, faulty in enumerate(self._faulty_table, start=1):
            for p in faulty - before:
                spans.setdefault(p, []).append([r, self.horizon])
            for p in before - faulty:
                spans[p][-1][1] = r - 1
            before = faulty
        return spans

    def faulty_set(self, r: int) -> frozenset[int]:
        """B(r): distinct hosts of all agents in round r (co-location collapses)."""
        if r < 1 or r > self.horizon:
            raise RoundOutOfHorizon(f"round {r} outside [1, {self.horizon}]")
        return self._faulty_table[r - 1]

    def correct_set(self, r: int) -> frozenset[int]:
        if r < 1 or r > self.horizon:
            raise RoundOutOfHorizon(f"round {r} outside [1, {self.horizon}]")
        return self._correct_sets[r - 1]

    def is_faulty(self, p: int, r: int) -> bool:
        return p in self.faulty_set(r)

    def first_faulty(self, p: int) -> int | None:
        """p's first faulty round; None when p is correct throughout the horizon."""
        spans = self._spans.get(p)
        return spans[0][0] if spans else None

    def correct_during(self, p: int, first: int, last: int) -> bool:
        """Correct in every round of [first, last]; rounds beyond the horizon are unknowable."""
        if last > self.horizon or first < 1:
            return False
        table = self._faulty_table
        return all(p not in table[r - 1] for r in range(first, last + 1))

    def cures(self, r: int) -> tuple[tuple[int, int], ...]:
        """Each process freed at the r-1/r boundary, faulty in r-1 and
        correct in r, with the first round of the maximal faulty span that
        just ended, in process order; none outside [2, horizon]."""
        return self._cure_table[r - 1] if 1 <= r <= self.horizon else ()

    @cached_property
    def _cure_table(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``cures(r)`` at index r - 1: each span that ends before the
        horizon, at its end, built on first use from ``_spans`` and, like
        it, kept outside the fields."""
        table: list[list[tuple[int, int]]] = [[] for _ in range(self.horizon)]
        for p, spans in sorted(self._spans.items()):
            for first, last in spans:
                if last < self.horizon:
                    table[last].append((p, first))
        return tuple(map(tuple, table))

    def next_correct(self, p: int, r: int) -> int | None:
        """p's first correct round at or after r; None when there is none within the horizon."""
        r = max(r, 1)
        spans = self._spans.get(p, [])
        i = bisect_right(spans, r, key=itemgetter(0))  # spans[i - 1] starts at or before r
        if i and r <= spans[i - 1][1]:
            r = spans[i - 1][1] + 1
        return r if r <= self.horizon else None


def validate_schedule(schedule: FailureSchedule) -> tuple[ScheduleViolation, ...]:
    """Check every schedule invariant; violations are returned as data, never raised."""
    out: list[ScheduleViolation] = []

    if schedule.n < 1:
        out.append(ScheduleViolation(None, None, "process-count", f"n={schedule.n} must be >= 1"))
    if schedule.f < 0:
        out.append(ScheduleViolation(None, None, "agent-count", f"f={schedule.f} must be >= 0"))
    if schedule.delta_s < 1:
        out.append(ScheduleViolation(None, None, "residency-unit", f"delta_s={schedule.delta_s} must be >= 1 round"))
    if schedule.horizon < 1:
        out.append(ScheduleViolation(None, None, "horizon", f"horizon={schedule.horizon} must be >= 1"))
    if len(schedule.trajectories) != schedule.f:
        out.append(ScheduleViolation(
            None, None, "trajectory-count",
            f"{len(schedule.trajectories)} trajectories for f={schedule.f} agents"))

    n, horizon, delta_s = schedule.n, schedule.horizon, schedule.delta_s
    for index, traj in enumerate(schedule.trajectories):
        agent = traj.agent_id
        # Each agent's id is its trajectory's index, so no two trajectories
        # name one agent.
        if agent != index:
            out.append(ScheduleViolation(agent, None, "agent-id",
                                         f"trajectory {index} has agent id {agent}, not {index}"))
        prev_host = prev_last = None
        for host, first, last_round in traj.segments:
            last = horizon if last_round is None else last_round
            if not 0 <= host < n:
                out.append(ScheduleViolation(agent, first, "host-range", f"host {host} outside [0, {n})"))
            if first < 1 or first > horizon:
                out.append(ScheduleViolation(agent, first, "segment-bounds", f"segment starts at round {first}"))
            if last < first:
                out.append(ScheduleViolation(agent, first, "segment-order",
                                             f"segment ends ({last}) before it starts"))
            elif last_round is not None and last - first + 1 < delta_s:
                out.append(ScheduleViolation(agent, first, "residency",
                                             f"residency {last - first + 1} < delta_s={delta_s}"))
            if last_round is not None and last_round > horizon:
                out.append(ScheduleViolation(agent, last_round, "segment-bounds",
                                             f"segment ends at round {last_round} beyond horizon"))
            if prev_last is not None:
                if first <= prev_last:
                    out.append(ScheduleViolation(agent, first, "segment-order",
                                                 "segments overlap or are out of order"))
                elif first == prev_last + 1 and host == prev_host:
                    out.append(ScheduleViolation(agent, first, "stationary-move",
                                                 f"adjacent segments both on host {host}"))
            prev_host, prev_last = host, last

    # |B(r)| <= f needs no rule of its own: each of the f trajectories, its
    # segments not overlapping, holds one host per round.
    return tuple(out)


def is_io_correct(schedule: FailureSchedule, p: int, delta_c: int) -> bool:
    """Finite-horizon reading of "delta_c-infinitely often correct".

    True iff after every round there is still a full delta_c-long correct
    window for p before the horizon. Obligations of processes that fail this
    test are not enforceable within the trace, so checkers exclude them.

    The window that must follow round horizon - delta_c can only be the last
    delta_c rounds, and that window follows every earlier round too; so the
    reading holds exactly when p is correct throughout the last delta_c rounds
    (never when delta_c exceeds the horizon).
    """
    if delta_c < 1:
        raise ValueError("delta_c must be >= 1")
    return schedule.correct_during(p, schedule.horizon - delta_c + 1, schedule.horizon)


def io_correct_processes(schedule: FailureSchedule, delta_c: int) -> tuple[int, ...]:
    """Those ``is_io_correct`` holds for: correct in each of the last delta_c rounds."""
    if delta_c < 1:
        raise ValueError("delta_c must be >= 1")
    if delta_c > schedule.horizon:
        return ()
    last = map(schedule.correct_set, range(schedule.horizon - delta_c + 1, schedule.horizon + 1))
    return tuple(sorted(frozenset.intersection(*last)))
