"""Scenario configuration: the single JSON document driving a simulation.

A scenario pins everything the engine needs: sizes (n, f), timing parameters
(delta_s residency, delta_b/delta_c property windows, horizon), the setting
triple, the protocol variant, the failure schedule (explicit trajectories or a
named generator), the scheduled broadcast calls and the adversary strategy.
Field names in the JSON match the attribute names here exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, cycle, islice, repeat
from typing import Iterator

from .messages import compact_json, decode_payload, encode_payload
from .model import (
    AgentTrajectory,
    FailureSchedule,
    InvalidScenario,
    OracleKind,
    Segment,
    SettingTriple,
    shown,
    spec_int,
    spec_ints,
    spec_list,
    spec_object,
    validate_schedule,
)
from .protocol import Variant, VariantTag


class UnsupportedSetting(Exception):
    """Setting triple outside (SYNC, S-MOB+, *); carries the impossibility reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


VARIANT_ORACLE = {
    VariantTag.FFA_FULL: OracleKind.FFA,
    VariantTag.BFA_WEAK: OracleKind.BFA,
    VariantTag.NFA_WEAK: OracleKind.NFA,
}


# The largest horizon a scenario may have. Schedules, checkers and traces are
# sized by the horizon, and a trace header alone can ask for any, so `run`,
# `check` and `replay` all reject one above this. The bundled configs, sweeps
# and demos use at most 100 rounds.
MAX_HORIZON = 10_000
# The largest process count, for the same reason: schedules, checkers and a
# replay's states grow with n. The benchmark's largest n is 32.
MAX_N = 1_000

# The int fields of a config with the default of each optional one (None:
# required). A bool, a float or a numeric string is not an int here.
_SCALAR_DEFAULTS = {"n": None, "f": None, "delta_s": 1, "delta_b": 2, "delta_c": 1,
                    "horizon": None, "seed": 0}
# Every field a config may hold, in ``to_dict`` order; any other is rejected.
_CONFIG_KEYS = (*_SCALAR_DEFAULTS, "setting", "variant", "schedule", "broadcasts", "strategy")
_BROADCAST_KEYS = ("source", "round", "payload", "payload_hex")


@dataclass(frozen=True)
class Broadcast:
    source: int
    round: int
    payload: bytes

    def to_dict(self) -> dict:
        out = {"source": self.source, "round": self.round}
        out.update(encode_payload(self.payload))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Broadcast":
        for key in ("source", "round"):
            if type(data[key]) is not int:
                raise ValueError(f"field {key} is {shown(data[key])}, not an int")
        return cls(data["source"], data["round"], decode_payload(data))


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    f: int
    delta_s: int
    delta_b: int
    delta_c: int
    horizon: int
    seed: int
    setting: SettingTriple
    variant: VariantTag
    schedule: dict = field(hash=False)
    broadcasts: tuple[Broadcast, ...] = ()
    strategy: dict = field(default_factory=lambda: {"kind": "BENIGN"}, hash=False)

    def variant_spec(self) -> Variant:
        return Variant.for_tag(self.variant, self.f)

    def resolved_schedule(self) -> FailureSchedule:
        """The config's failure schedule. It is built once per config object,
        so ``validate``, the engine and the checkers share it and its tables."""
        return self._schedule

    @cached_property
    def _schedule(self) -> FailureSchedule:
        # Kept in the instance ``__dict__``, outside the fields, as
        # ``FailureSchedule`` keeps its tables.
        return build_schedule(self)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "f": self.f,
            "delta_s": self.delta_s,
            "delta_b": self.delta_b,
            "delta_c": self.delta_c,
            "horizon": self.horizon,
            "seed": self.seed,
            "setting": self.setting.to_dict(),
            "variant": self.variant.value,
            "schedule": self.schedule,
            "broadcasts": [b.to_dict() for b in self.broadcasts],
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        problems = [k for k in ("n", "f", "horizon", "setting", "schedule") if k not in data]
        if problems:
            raise InvalidScenario([f"missing config field: {k}" for k in problems])
        spec_object(data, "config", _CONFIG_KEYS)
        setting = SettingTriple.from_dict(spec_object(data["setting"], "setting",
                                                      ("timing", "mobility", "oracle")))
        try:
            variant = VariantTag(data.get("variant", "FFA_FULL"))
        except ValueError as exc:
            raise InvalidScenario([f"unknown variant: {shown(data.get('variant'))}"]) from exc
        scalars = {key: data.get(key, default) for key, default in _SCALAR_DEFAULTS.items()}
        problems = [f"config field {key} is {shown(value)}, not an int"
                    for key, value in scalars.items() if type(value) is not int]
        if problems:
            raise InvalidScenario(problems)
        try:
            broadcasts = tuple(Broadcast.from_dict(spec_object(b, "broadcast entry", _BROADCAST_KEYS))
                               for b in spec_list(data.get("broadcasts", []), "broadcasts"))
        except KeyError as exc:
            raise InvalidScenario([f"bad broadcast entry: needs {exc}"]) from exc
        except ValueError as exc:
            raise InvalidScenario([f"bad broadcast entry: {exc}"]) from exc
        return cls(
            **scalars,
            setting=setting,
            variant=variant,
            schedule=data["schedule"],
            broadcasts=broadcasts,
            strategy=data.get("strategy", {"kind": "BENIGN"}),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InvalidScenario([f"config is not valid JSON: {exc}"]) from exc
        if not isinstance(data, dict):
            raise InvalidScenario(["config must be a JSON object"])
        return cls.from_dict(data)

    def canonical_json(self) -> str:
        """The config as compact JSON with sorted keys, the text ``json.dumps``
        writes with those options, from the one C encoder that
        ``messages.compact_json`` builds at import (or the pure-Python
        encoder, slower, where the C accelerator is absent). A value the
        parser accepted can still be nested too deep to encode on a deeper
        stack."""
        try:
            return compact_json(self.to_dict())
        except RecursionError:
            raise InvalidScenario(["config is nested too deep to encode"]) from None

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Clone with field overrides given in JSON form (as they appear in the document)."""
        data = self.to_dict()
        data.update(kwargs)
        return ScenarioConfig.from_dict(data)

    def validate(self) -> None:
        """Raise UnsupportedSetting / InvalidScenario; schedule invariants included."""
        reason = self.setting.unsupported_reason()
        if reason is not None:
            raise UnsupportedSetting(reason)
        problems: list[str] = []
        if not 1 <= self.n <= MAX_N:
            problems.append(f"n={self.n} must be in [1, {MAX_N}]")
        if not 0 <= self.f < self.n:
            problems.append(f"f={self.f} must satisfy 0 <= f < n")
        if self.delta_s < 1:
            problems.append("delta_s must be >= 1 round in this setting (sub-round residency is not executable)")
        if self.delta_b < 1 or self.delta_c < 1:
            problems.append("delta_b and delta_c must be >= 1")
        if not 1 <= self.horizon <= MAX_HORIZON:
            problems.append(f"horizon={self.horizon} must be in [1, {MAX_HORIZON}]")
        expected_oracle = VARIANT_ORACLE[self.variant]
        if self.setting.oracle is not expected_oracle:
            problems.append(
                f"variant {self.variant.value} requires oracle {expected_oracle.value}, "
                f"got {self.setting.oracle.value}")
        for b in self.broadcasts:
            if not 0 <= b.source < self.n:
                problems.append(f"broadcast source {b.source} outside [0, {self.n})")
            if not 1 <= b.round <= self.horizon:
                problems.append(f"broadcast round {b.round} outside [1, {self.horizon}]")
        if problems:
            raise InvalidScenario(problems)
        violations = validate_schedule(self.resolved_schedule())
        if violations:
            raise InvalidScenario(
                [f"schedule: agent={v.agent_id} round={v.round} {v.rule}: {v.detail}" for v in violations])


def build_schedule(config: ScenarioConfig) -> FailureSchedule:
    """Resolve the schedule spec (explicit trajectories or a named generator)."""
    if isinstance(config.schedule, dict) and "trajectories" in config.schedule:
        spec = spec_object(config.schedule, "schedule", ("trajectories",))
        trajectories = tuple(AgentTrajectory.from_dict(t)
                             for t in spec_list(spec["trajectories"], "schedule trajectories"))
    else:
        spec = spec_object(config.schedule, "schedule", ("generator", "params"))
        generator = spec.get("generator")
        generate = _GENERATORS.get(generator) if isinstance(generator, str) else None
        if generate is None:
            raise InvalidScenario([f"unknown schedule generator: {shown(generator)}"])
        params = spec_object(spec.get("params", {}), f"{generator} generator params",
                             _GENERATOR_KEYS[generator])
        if generator != "static" and config.delta_s < 1:
            # Each generated stay lasts delta_s rounds; a shorter one never ends.
            raise InvalidScenario([f"{generator} generator needs delta_s >= 1, got {config.delta_s}"])
        trajectories = generate(config, params)
    return FailureSchedule(
        n=config.n, f=config.f, delta_s=config.delta_s, horizon=config.horizon,
        trajectories=trajectories)


def _static_trajectories(config: ScenarioConfig, params: dict) -> tuple[AgentTrajectory, ...]:
    hosts = spec_ints(params, "hosts", "static generator")
    if len(hosts) != config.f:
        raise InvalidScenario([f"static generator needs exactly f={config.f} hosts"])
    return tuple(
        AgentTrajectory(agent_id=i, segments=(Segment(host=h, first_round=1, last_round=None),))
        for i, h in enumerate(hosts))


def _alternating_trajectories(config: ScenarioConfig, params: dict) -> tuple[AgentTrajectory, ...]:
    """Each agent flips between its P1 host and its P2 host in stays of delta_s rounds.

    The first P1 stay starts at ``start`` (default round 2); pairing the sweep
    broadcast round with r_b = delta_s puts P1 on the wire for the SEND round
    and P2 on it for the ECHO and READY rounds — the f-spurious/f-silent
    double-hit works for every residency, not just delta_s = 1.
    """
    p1 = spec_ints(params, "p1", "alternating generator")
    p2 = spec_ints(params, "p2", "alternating generator")
    start = spec_int(params, "start", "alternating generator", default=2)
    if len(p1) != config.f or len(p2) != config.f:
        raise InvalidScenario([f"alternating generator needs |p1| = |p2| = f = {config.f}"])
    if set(p1) & set(p2):
        raise InvalidScenario(["alternating generator needs disjoint p1 and p2"])
    return tuple(_stays(config, i, start, cycle((p1[i], p2[i]))) for i in range(config.f))


def _roundrobin_trajectories(config: ScenarioConfig, params: dict) -> tuple[AgentTrajectory, ...]:
    """Agent i walks the ring of processes, one stay of delta_s per host."""
    offset = spec_int(params, "offset", "roundrobin generator", default=0)
    skip = set(spec_ints(params, "skip", "roundrobin generator"))
    problems = [f"roundrobin generator skip {s} outside [0, {config.n})"
                for s in sorted(skip) if not 0 <= s < config.n]
    if problems:
        raise InvalidScenario(problems)
    ring = [p for p in range(config.n) if p not in skip]
    if not ring:
        raise InvalidScenario(["roundrobin generator has no hosts left after skip"])
    return tuple(_stays(config, i, 1, islice(cycle(ring), (offset + i) % len(ring), None))
                 for i in range(config.f))


def _stays(config: ScenarioConfig, agent_id: int, start: int, hosts: Iterator[int]) -> AgentTrajectory:
    """Agent ``agent_id`` in stays of delta_s rounds from ``start`` to the
    horizon, the k-th stay (from 0) on the k-th of ``hosts``, built in bulk
    as ``Segment`` tuples. The last stay, which the horizon ends or cuts, is
    left open, so residency holds."""
    firsts = range(start, config.horizon + 1, config.delta_s)
    lasts = chain(range(start + config.delta_s - 1, config.horizon, config.delta_s), (None,))
    return AgentTrajectory(agent_id=agent_id,
                           segments=tuple(map(tuple.__new__, repeat(Segment), zip(hosts, firsts, lasts))))


_GENERATORS = {"static": _static_trajectories, "alternating": _alternating_trajectories,
               "roundrobin": _roundrobin_trajectories}
# The params each generator reads; it rejects any other.
_GENERATOR_KEYS = {"static": ("hosts",), "alternating": ("p1", "p2", "start"),
                   "roundrobin": ("offset", "skip")}
