"""Identities, rounds, agent trajectories and the derived faulty/correct sets.

Processes are indices ``0..n-1`` (process ``p_k`` of a scenario description is
index ``k-1``). Time is a round counter starting at 1; agents move only at
round boundaries, so a process is wholly faulty or wholly correct per round.
A schedule is the single source of truth for B(r) (faulty set), C(r)
(correct set) and each process's next correct round.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


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


def spec_object(value, what: str) -> dict:
    """A JSON object of a spec."""
    if not isinstance(value, dict):
        raise InvalidScenario([f"{what} is {shown(value)}, not an object"])
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


@dataclass(frozen=True)
class Segment:
    """One contiguous stay of an agent on a host; ``last_round=None`` means open (to horizon)."""

    host: int
    first_round: int
    last_round: int | None = None

    def to_dict(self) -> dict:
        return {"host": self.host, "first_round": self.first_round, "last_round": self.last_round}

    @classmethod
    def from_dict(cls, data: dict) -> "Segment":
        data = spec_object(data, "segment")
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
        data = spec_object(data, "trajectory")
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

    def resolved_last(self, seg: Segment) -> int:
        return self.horizon if seg.last_round is None else seg.last_round

    def host_of(self, agent_id: int, r: int) -> int | None:
        """Host of an agent in round r, or None when the agent is off-board
        or r is outside [1, horizon]; an agent id outside [0, f) is a ValueError."""
        if not 0 <= agent_id < self.f:
            raise ValueError(f"agent {agent_id} outside [0, {self.f})")
        hosts = self._host_table[agent_id]
        return hosts[r - 1] if 1 <= r <= self.horizon else None

    @cached_property
    def _host_table(self) -> tuple[tuple[int | None, ...], ...]:
        """Each agent's host in round r at index r - 1, at the agent's index,
        built on first use and kept outside the fields as ``_faulty_table``
        is. Of overlapping segments, the first holds the round."""
        table = []
        for traj in self.trajectories:
            hosts: list[int | None] = [None] * self.horizon
            for seg in reversed(traj.segments):
                last = self.resolved_last(seg)
                for r in range(max(1, seg.first_round), min(last, self.horizon) + 1):
                    hosts[r - 1] = seg.host
            table.append(tuple(hosts))
        return tuple(table)

    @cached_property
    def _faulty_table(self) -> tuple[frozenset[int], ...]:
        """B(r) at index r - 1 for every r in [1, horizon]: the round's hosts
        in ``_host_table``, built on first use.

        A cached property lives in the instance ``__dict__``, not in a field,
        so equality and hashing still see the five fields only.
        """
        rounds = zip(*self._host_table) if self.trajectories else [()] * self.horizon
        return tuple(frozenset(h for h in hosts if h is not None) for hosts in rounds)

    def faulty_set(self, r: int) -> frozenset[int]:
        """B(r): distinct hosts of all agents in round r (co-location collapses)."""
        if r < 1 or r > self.horizon:
            raise RoundOutOfHorizon(f"round {r} outside [1, {self.horizon}]")
        return self._faulty_table[r - 1]

    def correct_set(self, r: int) -> frozenset[int]:
        return frozenset(range(self.n)) - self.faulty_set(r)

    def is_faulty(self, p: int, r: int) -> bool:
        return p in self.faulty_set(r)

    def is_correct(self, p: int, r: int) -> bool:
        return p not in self.faulty_set(r)

    def correct_during(self, p: int, first: int, last: int) -> bool:
        """Correct in every round of [first, last]; rounds beyond the horizon are unknowable."""
        if last > self.horizon or first < 1:
            return False
        table = self._faulty_table
        return all(p not in table[r - 1] for r in range(first, last + 1))

    def cured_processes(self, r: int) -> frozenset[int]:
        """Processes freed at the r-1/r boundary: faulty in r-1, correct in r."""
        if r < 2:
            return frozenset()
        return self.faulty_set(r - 1) - self.faulty_set(r)

    def faulty_span_start(self, p: int, r: int) -> int:
        """First round of the maximal contiguous faulty span of p that covers round r."""
        if not self.is_faulty(p, r):
            raise ValueError(f"process {p} is not faulty in round {r}")
        table = self._faulty_table
        start = r
        while start > 1 and p in table[start - 2]:
            start -= 1
        return start

    @cached_property
    def _correct_table(self) -> tuple[tuple[int, ...], ...]:
        """Each process's correct rounds, ascending, at index p, built on first
        use and kept outside the fields as ``_faulty_table`` is."""
        rounds: list[list[int]] = [[] for _ in range(self.n)]
        for r, faulty in enumerate(self._faulty_table, start=1):
            for p in range(self.n):
                if p not in faulty:
                    rounds[p].append(r)
        return tuple(map(tuple, rounds))

    def correct_rounds(self, p: int) -> tuple[int, ...]:
        return self._correct_table[p]

    def next_correct(self, p: int, r: int) -> int | None:
        """p's first correct round at or after r; None when there is none within the horizon."""
        rounds = self._correct_table[p]
        i = bisect_left(rounds, r)
        return rounds[i] if i < len(rounds) else None


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

    for index, traj in enumerate(schedule.trajectories):
        # ``host_of`` finds an agent's trajectory by its id.
        if traj.agent_id != index:
            out.append(ScheduleViolation(traj.agent_id, None, "agent-id",
                                         f"trajectory {index} has agent id {traj.agent_id}, not {index}"))
        prev: Segment | None = None
        for seg in traj.segments:
            last = schedule.resolved_last(seg)
            if not 0 <= seg.host < schedule.n:
                out.append(ScheduleViolation(traj.agent_id, seg.first_round, "host-range",
                                             f"host {seg.host} outside [0, {schedule.n})"))
            if seg.first_round < 1 or seg.first_round > schedule.horizon:
                out.append(ScheduleViolation(traj.agent_id, seg.first_round, "segment-bounds",
                                             f"segment starts at round {seg.first_round}"))
            if last < seg.first_round:
                out.append(ScheduleViolation(traj.agent_id, seg.first_round, "segment-order",
                                             f"segment ends ({last}) before it starts"))
            elif seg.last_round is not None and last - seg.first_round + 1 < schedule.delta_s:
                out.append(ScheduleViolation(traj.agent_id, seg.first_round, "residency",
                                             f"residency {last - seg.first_round + 1} < delta_s={schedule.delta_s}"))
            if seg.last_round is not None and seg.last_round > schedule.horizon:
                out.append(ScheduleViolation(traj.agent_id, seg.last_round, "segment-bounds",
                                             f"segment ends at round {seg.last_round} beyond horizon"))
            if prev is not None:
                prev_last = schedule.resolved_last(prev)
                if seg.first_round <= prev_last:
                    out.append(ScheduleViolation(traj.agent_id, seg.first_round, "segment-order",
                                                 "segments overlap or are out of order"))
                elif seg.first_round == prev_last + 1 and seg.host == prev.host:
                    out.append(ScheduleViolation(traj.agent_id, seg.first_round, "stationary-move",
                                                 f"adjacent segments both on host {seg.host}"))
            prev = seg

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
    return tuple(p for p in range(schedule.n) if is_io_correct(schedule, p, delta_c))
