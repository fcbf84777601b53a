"""Deterministic synchronous round engine.

Each round runs five sub-phases in a fixed order:

1. ADVERSARY — agent moves at the round boundary are recorded.
2. ORACLE   — cure notifications go to processes that were just freed
   (none under the no-awareness oracle).
3. SEND     — correct processes run the protocol send phase (which performs
   the cure wipe); faulty processes emit exactly what the strategy dictates,
   with the sender stamp forced (links are authenticated).
4. RECEIVE  — every envelope sent in the round is delivered in the round:
   no loss, duplication or reordering across rounds. Correct receivers
   ingest; messages reaching faulty processes are traced but have no
   protocol effect (the omniscient adversary sees them anyway).
5. COMPUTE  — correct processes run the protocol compute phase (scheduled
   broadcast calls are injected here); each faulty process's state is
   replaced by whatever the strategy returns.

Every externally visible action is appended to a totally ordered trace;
within a phase, events are ordered lexicographically by (subject, counterpart,
message bytes). Given a config (the seed is part of it), the trace is
bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field

from .adversary import Observation, Strategy, build_strategy
from .messages import Envelope, ProtocolMessage, encode_payload
from .model import FailureSchedule, OracleKind
from .protocol import (
    ProtocolState,
    begin_receive,
    compute_phase,
    init_state,
    on_cured,
    on_p2p_deliver,
    send_phase,
    state_fingerprint,
)
from .scenario import ScenarioConfig

logger = logging.getLogger("mbbc.engine")

# Phase labels in execution order.
PHASE_ADVERSARY = "ADVERSARY"
PHASE_ORACLE = "ORACLE"
PHASE_SEND = "SEND"
PHASE_RECEIVE = "RECEIVE"
PHASE_COMPUTE = "COMPUTE"

KIND_AGENT_MOVE = "AGENT_MOVE"
KIND_CURED = "CURED"
KIND_P2P_SEND = "P2P_SEND"
KIND_P2P_DELIVER = "P2P_DELIVER"
KIND_BROADCAST_CALL = "BROADCAST_CALL"
KIND_DELIVER_CALL = "DELIVER_CALL"
KIND_STATE_CORRUPTED = "STATE_CORRUPTED"


@dataclass(frozen=True)
class OracleEvent:
    kind: str
    process: int
    round: int
    faulty_since: int | None = None


@dataclass(frozen=True)
class TraceEvent:
    round: int
    phase: str
    kind: str
    subject: int
    detail: dict

    def to_dict(self) -> dict:
        return {"round": self.round, "phase": self.phase, "kind": self.kind,
                "subject": self.subject, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(data["round"], data["phase"], data["kind"], data["subject"], data["detail"])


@dataclass
class Trace:
    fingerprint: str
    seed: int
    config: dict
    events: list[TraceEvent] = field(default_factory=list)
    verdicts: dict | None = None

    def to_jsonl(self) -> str:
        header = {"fingerprint": self.fingerprint, "seed": self.seed, "config": self.config}
        if self.verdicts is not None:
            header["verdicts"] = self.verdicts
        lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
        lines.extend(
            json.dumps(ev.to_dict(), sort_keys=True, separators=(",", ":")) for ev in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse a trace; a line that is not the JSON object it should be raises a
        ValueError naming the line."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty trace file")
        try:
            header = json.loads(lines[0])
            fingerprint, seed, config = _header_fields(header)
            events = [TraceEvent.from_dict(json.loads(ln)) for ln in lines[1:]]
        except (ValueError, TypeError, KeyError):
            raise _malformed_line(text) from None
        return cls(fingerprint=fingerprint, seed=seed, config=config, events=events,
                   verdicts=header.get("verdicts"))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def scenario(self) -> ScenarioConfig:
        return ScenarioConfig.from_dict(self.config)


def _header_fields(header: dict) -> tuple[str, int, dict]:
    return header["fingerprint"], header["seed"], header["config"]


def _malformed_line(text: str) -> ValueError:
    """The error for the first line of a malformed trace (1-based, blank lines counted)."""
    numbered = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    for position, (number, line) in enumerate(numbered):
        what = "event" if position else "header"
        try:
            data = json.loads(line)
            if position:
                TraceEvent.from_dict(data)
            else:
                _header_fields(data)
        except (ValueError, TypeError, KeyError) as exc:
            if isinstance(exc, KeyError):
                reason = f"missing key {exc}"
            elif isinstance(exc, json.JSONDecodeError):
                reason = f"not valid JSON ({exc})"
            else:
                reason = "not a JSON object"
            return ValueError(f"trace line {number}: bad {what} line: {reason}")
    return ValueError("malformed trace")


def deliver_oracle_events(schedule: FailureSchedule, r: int, oracle: OracleKind) -> list[OracleEvent]:
    """Cure notifications at the start of round r: one per process freed at the boundary.

    The full-awareness oracle also reports when the just-ended faulty span
    began (spans merge across back-to-back agent stays — the process was
    faulty the whole time either way).
    """
    if oracle is OracleKind.NFA or r < 2:
        return []
    out = []
    for p in sorted(schedule.cured_processes(r)):
        since = schedule.faulty_span_start(p, r - 1) if oracle is OracleKind.FFA else None
        out.append(OracleEvent(kind="CURED", process=p, round=r, faulty_since=since))
    return out


class Simulation:
    """A stepped simulation; ``run()`` executes rounds 1..horizon and returns the trace."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.schedule = config.resolved_schedule()
        self.strategy: Strategy = build_strategy(config)
        self.variant = config.variant_spec()
        self.states: list[ProtocolState] = [init_state() for _ in range(config.n)]
        self.trace = Trace(fingerprint=config.fingerprint(), seed=config.seed, config=config.to_dict())
        self.round = 0
        self._broadcast_index: dict[tuple[int, int], list[bytes]] = {}
        for b in config.broadcasts:
            self._broadcast_index.setdefault((b.source, b.round), []).append(b.payload)

    def run(self) -> Trace:
        while self.round < self.config.horizon:
            self.step()
        logger.info("run complete: %d rounds, %d events", self.round, len(self.trace.events))
        return self.trace

    def step(self) -> None:
        r = self.round + 1
        if r > self.config.horizon:
            raise RuntimeError("simulation already ran to its horizon")
        self.round = r
        schedule = self.schedule
        n = self.config.n
        faulty = schedule.faulty_set(r)

        # ADVERSARY: record agent moves at the r-1/r boundary.
        for traj in schedule.trajectories:
            prev = schedule.host_of(traj.agent_id, r - 1) if r > 1 else None
            now = schedule.host_of(traj.agent_id, r)
            if prev != now and (prev is not None or now is not None):
                subject = now if now is not None else prev
                self._emit(r, PHASE_ADVERSARY, KIND_AGENT_MOVE, subject,
                           {"agent": traj.agent_id, "from": prev, "to": now})

        # ORACLE: cure notifications reach freed processes before they send.
        for ev in deliver_oracle_events(schedule, r, self.config.setting.oracle):
            self._emit(r, PHASE_ORACLE, KIND_CURED, ev.process, {"faulty_since": ev.faulty_since})
            on_cured(self.states[ev.process], ev.faulty_since)

        # SEND.
        obs = Observation(round=r, config=self.config, schedule=schedule,
                          states=self.states, events=self.trace.events, inbound={})
        envelopes: list[Envelope] = []
        for p in range(n):
            if p in faulty:
                for receiver, msg in self.strategy.dictate_sends(p, r, obs):
                    if not 0 <= receiver < n:
                        raise ValueError(f"strategy dictated receiver {receiver} out of range")
                    envelopes.append(Envelope(sender=p, receiver=receiver, message=msg, send_round=r))
            else:
                for msg in send_phase(self.states[p]):
                    for receiver in range(n):
                        envelopes.append(Envelope(sender=p, receiver=receiver, message=msg, send_round=r))
        envelopes.sort(key=lambda e: (e.sender, e.receiver, e.message.sort_key()))
        for env in envelopes:
            self._emit(r, PHASE_SEND, KIND_P2P_SEND, env.sender,
                       {"receiver": env.receiver, "message": env.message.to_dict()})

        # RECEIVE: synchronous reliable delivery of everything sent this round.
        for p in range(n):
            if p not in faulty:
                begin_receive(self.states[p])
        inbound: dict[int, list[tuple[int, ProtocolMessage]]] = {}
        for env in sorted(envelopes, key=lambda e: (e.receiver, e.sender, e.message.sort_key())):
            self._emit(r, PHASE_RECEIVE, KIND_P2P_DELIVER, env.receiver,
                       {"sender": env.sender, "message": env.message.to_dict()})
            inbound.setdefault(env.receiver, []).append((env.sender, env.message))
            if env.receiver not in faulty:
                on_p2p_deliver(self.states[env.receiver], env.sender, env.message)

        # COMPUTE.
        obs = Observation(round=r, config=self.config, schedule=schedule,
                          states=self.states, events=self.trace.events, inbound=inbound)
        for p in range(n):
            if p in faulty:
                new_state = self.strategy.corrupt_state(p, r, obs)
                self.states[p] = new_state
                self._emit(r, PHASE_COMPUTE, KIND_STATE_CORRUPTED, p,
                           {"state_digest": state_fingerprint(new_state)})
            else:
                payloads = self._broadcast_index.get((p, r), [])
                for payload in payloads:
                    self._emit(r, PHASE_COMPUTE, KIND_BROADCAST_CALL, p, dict(encode_payload(payload)))
                deliveries = compute_phase(self.states[p], p, self.variant, n, broadcasts=payloads)
                for source, payload in deliveries:
                    detail = {"source": source}
                    detail.update(encode_payload(payload))
                    self._emit(r, PHASE_COMPUTE, KIND_DELIVER_CALL, p, detail)

    def _emit(self, r: int, phase: str, kind: str, subject: int, detail: dict) -> None:
        self.trace.events.append(TraceEvent(round=r, phase=phase, kind=kind, subject=subject, detail=detail))


def run(config: ScenarioConfig) -> Trace:
    """Execute a scenario to its horizon and return the trace."""
    return Simulation(config).run()
