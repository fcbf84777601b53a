"""Deterministic synchronous round engine.

Each round runs five sub-phases in a fixed order:

1. ADVERSARY — agents move at the round boundary, as the failure schedule
   says; nothing is traced.
2. ORACLE   — cure notifications go to processes that were just freed
   (none under the no-awareness oracle); nothing is traced.
3. SEND     — correct processes, in process order, run the protocol send
   phase (which performs the cure wipe) and send each message to every
   process; faulty processes emit exactly what the strategy dictates, with
   the sender stamp forced (links are authenticated).
4. RECEIVE  — every message sent in the round is delivered in the round:
   no loss, duplication or reordering across rounds. Each distinct message
   the correct processes send to all is folded once, with all its senders,
   into the round's common tallies. A process's inbox is its dictated
   receipts, as (sender, message) pairs; ``receive_phase`` folds each
   distinct inbox once into a copy of the common tallies, and every
   process that holds it reads that one fold, read-only, possessed
   processes included. A process with no dictated receipt reads the common
   tallies themselves. Tallies are round-local and never part of a
   process's state. RECEIVE is the only place a fold is built: the
   strategies see every process's fold in the observation, and the
   history-forging ones run a possessed process's compute phase on that
   process's fold.
5. COMPUTE  — correct processes run the protocol compute phase on their
   tallies; each faulty process's state is replaced by whatever the
   strategy returns. A correct process's phase depends only on its fold,
   its cure flags, ``delivered`` and its ``rc`` after the phase's majority
   repair, which is the fold's majority counter when more than F votes
   back it and the process's own otherwise. Those five values are the
   process's class key, the fold named by its identity, as every fold is
   held until the round ends. The first process of each class, in process
   order, runs ``compute_phase``, and the others take its outcome through
   ``protocol.adopt_compute``; a freed process that re-enters with a stale
   counter thus joins the class its repair puts it in. A scheduled
   broadcast call joins its class like any other process; once the caller
   holds the class outcome, its queue gains the SEND, stamped with the
   repaired ``rc``. The send queue and ``delivered`` a state carries are
   immutable, so the members of a class share them, and the next SEND
   walks each distinct queue once, with all the senders that hold it. The
   round's deliveries are gathered per (source, payload).

Every externally visible action is appended to a totally ordered trace as
an event ``(round, kind, subject, detail)``. Each kind is written in one
phase, so an event's phase is its kind's: P2P_SEND in SEND, and
BROADCAST_CALL, DELIVER_CALL and STATE_CORRUPTED in COMPUTE; ADVERSARY,
ORACLE and RECEIVE write nothing. The schedule in the header's config fixes
the agents' moves and the cures, which ``FailureSchedule.host_of`` and
``deliver_oracle_events`` derive.

A correct fan-out is one P2P_SEND event per distinct message per round,
``{"from": [senders], "message": …, "to": "ALL"}`` with the senders strictly
increasing and the subject ``from[0]``; a dictated send is one event per
(sender, message) with the sorted receivers (duplicates kept) as ``to``. The
fan-outs come first, in message order, then the dictated sends in (sender,
message) order. Receipts are not traced; links are synchronous and reliable,
so ``deliveries`` derives them from the SEND events, which ``round_sends``
expands to one (sender, message, to) send per sender in (sender, message)
order; a process's tallies are a fold of its receipts, by (sender,
message). A round's deliveries are one DELIVER_CALL per distinct (source,
payload), ``{"by": [processes], "payload…": …, "source": s}`` with the
delivering processes strictly increasing and the subject ``by[0]``. They come
after the round's STATE_CORRUPTED and BROADCAST_CALL events, in (source,
payload) order, which is each process's own order: ``compute_phase``
delivers in it, so a process's deliveries are a subsequence of the round's.
Each distinct message dict, DELIVER_CALL detail and STATE_CORRUPTED detail is
built once per simulation, and the events that carry it share it read-only,
as the events of a parsed trace do. Given a config (the seed is part of it),
the trace is bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .adversary import Observation, Strategy, build_strategy
from .messages import ProtocolMessage, decode_payload, encode_payload, send_msg
from .model import FailureSchedule, OracleKind, shown
from .protocol import (
    ProtocolState,
    Tallies,
    adopt_compute,
    compute_phase,
    get_majority,
    init_state,
    on_cured,
    on_p2p_deliver,
    receive,
    send_phase,
    state_fingerprint,
)
from .scenario import ScenarioConfig

logger = logging.getLogger("mbbc.engine")

KIND_P2P_SEND = "P2P_SEND"
KIND_BROADCAST_CALL = "BROADCAST_CALL"
KIND_DELIVER_CALL = "DELIVER_CALL"
KIND_STATE_CORRUPTED = "STATE_CORRUPTED"

# The traced kinds, in the order of the phases that write them. Agent moves
# and cures are not traced: the header's schedule fixes them.
KINDS = (KIND_P2P_SEND, KIND_BROADCAST_CALL, KIND_DELIVER_CALL, KIND_STATE_CORRUPTED)

# The header's ``format``: one P2P_SEND per fan-out message, listing its
# senders, or per dictated (sender, message); no receipts, agent moves or
# cures; one DELIVER_CALL per (round, source, payload), listing its processes.
TRACE_FORMAT = "mbbc-trace/6"
# The ``to`` of a send that reaches every process.
TO_ALL = "ALL"

# One trace line: compact JSON with sorted keys. One encoder serves every
# line; ``json.dumps`` would build a new one per call.
encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class TraceEvent(NamedTuple):
    """One traced action. Events are immutable (use ``_replace``), and a
    detail is read-only: the events of a parsed trace share one dict per
    distinct detail text."""

    round: int
    kind: str
    subject: int
    detail: dict

    def to_dict(self) -> dict:
        return {"round": self.round, "kind": self.kind, "subject": self.subject,
                "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(data["round"], data["kind"], data["subject"], data["detail"])


# An event line is ``encode_line(ev.to_dict())``: the keys sorted, so the
# detail first, then kind, round and subject. Each known kind maps to the
# text between the detail and the round's digits.
_LINE_MIDDLES = {kind: f',"kind":"{kind}","round":' for kind in KINDS}


def event_lines(events: Iterable[TraceEvent]) -> list[str]:
    """Each event's trace line, equal to ``encode_line(ev.to_dict())``.

    The outer layout is written from a template, and each detail object, and
    each send's message and ``to`` objects, is encoded once per call, by
    identity (a projection's groups share their lists of receivers): the
    memo holds every object it has encoded, so no id is reused while it
    lives. A detail must therefore stay unchanged while its lines are
    written, which ``TraceEvent``'s contract (a read-only detail) gives. An
    event whose kind, round or subject the template does not cover is
    encoded whole.
    """
    encoded: dict[int, tuple[object, str]] = {}

    def encode(value) -> str:
        hit = encoded.get(id(value))
        if hit is None:
            hit = encoded[id(value)] = (value, encode_line(value))
        return hit[1]

    lines = []
    for ev in events:
        rnd, kind, subject, detail = ev
        middle = _LINE_MIDDLES.get(kind) if type(kind) is str else None
        if middle is None or type(rnd) is not int or type(subject) is not int:
            lines.append(encode_line(ev.to_dict()))
            continue
        hit = encoded.get(id(detail))
        if hit is not None:
            body = hit[1]
        elif (kind == KIND_P2P_SEND and type(detail) is dict and "message" in detail
                and "to" in detail and len(detail) == 2 + ("from" in detail)):
            senders = f'"from":{encode_line(detail["from"])},' if "from" in detail else ""
            body = (f'{{{senders}"message":{encode(detail["message"])},'
                    f'"to":{encode(detail["to"])}}}')
            encoded[id(detail)] = (detail, body)
        else:
            body = encode(detail)
        lines.append(f'{{"detail":{body}{middle}{rnd},"subject":{subject}}}')
    return lines


@dataclass
class Trace:
    fingerprint: str
    seed: int
    config: dict
    events: list[TraceEvent] = field(default_factory=list)

    def to_jsonl(self) -> str:
        header = {"fingerprint": self.fingerprint, "format": TRACE_FORMAT, "seed": self.seed,
                  "config": self.config}
        lines = [encode_line(header)]
        lines.extend(event_lines(self.events))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse and validate a trace; a bad line raises a ValueError naming it.

        The header holds exactly ``config``, ``fingerprint``, ``format`` and
        ``seed``: this ``format`` and a config with int ``n`` and ``horizon``.
        An event holds exactly ``detail``, ``kind``, ``round`` and
        ``subject``: a known kind, a round in [1, horizon], a subject in
        [0, n) and a dict detail; any other key is named. A P2P_SEND's ``to``
        is either "ALL", beside a ``from`` of strictly increasing senders in
        [0, n) whose first is the subject, or a list of receivers in [0, n)
        with no ``from``. A DELIVER_CALL's ``source`` is an int and
        its ``by`` a list of strictly increasing processes in [0, n) whose
        first is the subject, and the payload of a DELIVER_CALL or a
        BROADCAST_CALL decodes. A line in the writer's own layout has its
        detail parsed and checked once per distinct text; any other line is
        parsed whole.
        """
        numbered = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
                    if ln.strip()]
        if not numbered:
            raise ValueError("empty trace file")
        number, line = numbered[0]
        what = "header"
        try:
            fingerprint, seed, config = _header_fields(_json_object(line))
            n, horizon = config["n"], config["horizon"]
            what = "event"
            read = _layout_reader(n, horizon)
            events = []
            for number, line in numbered[1:]:
                events.append(read(line) or _event(_json_object(line), n, horizon))
        except KeyError as exc:
            raise ValueError(f"trace line {number}: bad {what} line: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"trace line {number}: bad {what} line: {exc}") from None
        return cls(fingerprint=fingerprint, seed=seed, config=config, events=events)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def scenario(self) -> ScenarioConfig:
        return ScenarioConfig.from_dict(self.config)


def _json_object(line: str) -> dict:
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    return data


def _is_int(value) -> bool:
    return type(value) is int


def _only_keys(data: dict, keys: frozenset[str]) -> None:
    """Reject a line with a key outside ``keys``; a missing one is a KeyError later."""
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown key {shown(key)}")


_HEADER_KEYS = frozenset({"config", "fingerprint", "format", "seed"})
_EVENT_KEYS = frozenset({"detail", "kind", "round", "subject"})


def _header_fields(header: dict) -> tuple[str, int, dict]:
    _only_keys(header, _HEADER_KEYS)
    fingerprint, seed, config = header["fingerprint"], header["seed"], header["config"]
    if header["format"] != TRACE_FORMAT:
        raise ValueError(f"format {shown(header['format'])} is not {TRACE_FORMAT!r}")
    if not isinstance(config, dict):
        raise ValueError("config is not a JSON object")
    for key in ("n", "horizon"):
        if not _is_int(config[key]) or config[key] < 1:
            raise ValueError(f"config {key} is not a positive int")
    return fingerprint, seed, config


def _event(data: dict, n: int, horizon: int) -> TraceEvent:
    _only_keys(data, _EVENT_KEYS)
    event = TraceEvent.from_dict(data)
    if event.kind not in KINDS:
        raise ValueError(f"unknown kind {shown(event.kind)}")
    if not _is_int(event.round) or not 1 <= event.round <= horizon:
        raise ValueError(f"round {shown(event.round)} outside 1..{horizon}")
    if not _is_int(event.subject) or not 0 <= event.subject < n:
        raise ValueError(f"subject {shown(event.subject)} outside 0..{n - 1}")
    first = _check_detail(event.kind, event.detail, n)
    if first is not None and event.subject != first:
        key = "from" if event.kind == KIND_P2P_SEND else "by"
        raise ValueError(f"subject {event.subject} is not the first of its {key} list, {first}")
    return event


def _check_detail(kind: str, detail, n: int) -> int | None:
    """The detail keys a reader of the trace relies on; a missing one is a
    KeyError. Returns the subject the detail requires, the first of its
    process list: ``from[0]`` of a fan-out, ``by[0]`` of a DELIVER_CALL; None
    for any other detail."""
    if not isinstance(detail, dict):
        raise ValueError("detail is not a JSON object")
    if kind == KIND_P2P_SEND:
        to = detail["to"]
        if not isinstance(detail["message"], dict):
            raise ValueError("message is not a JSON object")
        if to == TO_ALL:
            return _first_process("from", detail["from"], n)
        if not (isinstance(to, list) and all(_is_int(q) and 0 <= q < n for q in to)):
            raise ValueError(f"to {shown(to)} is neither {TO_ALL!r} nor a list of receivers in 0..{n - 1}")
        if "from" in detail:
            raise ValueError("a send to a list of receivers has a from; its sender is its subject")
    elif kind == KIND_DELIVER_CALL:
        if not _is_int(detail["source"]):
            raise ValueError(f"source {shown(detail['source'])} is not an int")
        decode_payload(detail)
        return _first_process("by", detail["by"], n)
    elif kind == KIND_BROADCAST_CALL:
        decode_payload(detail)
    return None


def _first_process(key: str, processes, n: int) -> int:
    """The first of a non-empty, strictly increasing list of processes in [0, n)."""
    if not (isinstance(processes, list) and processes and all(map(_is_int, processes))
            and 0 <= processes[0] and processes[-1] < n
            and all(a < b for a, b in zip(processes, processes[1:]))):
        raise ValueError(f"{key} {shown(processes)} is not a non-empty, strictly increasing "
                         f"list of processes in 0..{n - 1}")
    return processes[0]


# An event line in the writer's layout is the detail's text between these
# two keys, then a suffix of known labels and canonical non-negative ints,
# short enough that ``int`` and ``json.loads`` read them alike.
_DETAIL_KEY = '{"detail":'
_KIND_KEY = ',"kind":"'
_LAYOUT_SUFFIX = re.compile(r'([A-Z0-9_]+)","round":(0|[1-9][0-9]{0,8}),'
                            r'"subject":(0|[1-9][0-9]{0,8})\}')
# Each known kind to its interned self, so that events share its one string.
_LAYOUT_KINDS = {kind: kind for kind in KINDS}


def _layout_reader(n: int, horizon: int) -> Callable[[str], TraceEvent | None]:
    """A reader of event lines in the writer's layout, for one trace.

    ``read(line)`` returns the line's event when the line is in the layout
    and valid, and None for any line it cannot vouch for, which is left to
    ``_event``. The suffix holds no ``,"kind":"`` of its own, so the last
    one starts it. A detail text that ``json.loads`` reads is one JSON
    value, which the suffix cannot extend, so the whole line would read as
    the same event. Each distinct suffix is checked once, and each distinct
    (detail text, kind) is parsed and checked once; equal texts share one
    detail dict. The subject of a fan-out or a DELIVER_CALL is checked
    against its detail on every line.
    """
    suffixes: dict[str, tuple | None] = {}
    details: dict[tuple[str, str], tuple[dict | None, int | None]] = {}

    def read(line: str) -> TraceEvent | None:
        head, _, suffix = line.rpartition(_KIND_KEY)
        if not head.startswith(_DETAIL_KEY):
            return None
        try:
            fields = suffixes[suffix]
        except KeyError:
            fields = suffixes[suffix] = _layout_suffix(suffix, n, horizon)
        if fields is None:
            return None
        rnd, kind, subject = fields
        key = (head, kind)
        try:
            detail, sender = details[key]
        except KeyError:
            detail, sender = details[key] = _layout_detail(head[len(_DETAIL_KEY):], kind, n)
        if detail is None or (sender is not None and sender != subject):
            return None
        return TraceEvent(rnd, kind, subject, detail)

    return read


def _layout_suffix(suffix: str, n: int, horizon: int) -> tuple[int, str, int] | None:
    match = _LAYOUT_SUFFIX.fullmatch(suffix)
    if match is None:
        return None
    kind, rnd, subject = match.groups()
    kind = _LAYOUT_KINDS.get(kind)
    rnd, subject = int(rnd), int(subject)
    if kind is None or not 1 <= rnd <= horizon or subject >= n:
        return None
    return rnd, kind, subject


def _layout_detail(text: str, kind: str, n: int) -> tuple[dict | None, int | None]:
    """The detail and the subject it requires (``_check_detail``), or
    (None, None) when the per-line parser must read the line."""
    # Read inside one more array, the detail nests as deep as its whole line:
    # a detail too deep for the per-line parser is left to it, which rejects
    # the line. ``[text]`` holds one value exactly when ``text`` is one value.
    try:
        [detail] = json.loads(f"[{text}]")
        return detail, _check_detail(kind, detail, n)
    except (KeyError, ValueError, RecursionError):
        return None, None


class Delivery(NamedTuple):
    """One receipt implied by a P2P_SEND: ``receiver`` got ``message`` from ``sender``."""

    round: int
    receiver: int
    sender: int
    message: object


def _inboxes(outbox: Sequence[tuple[int, object, object]], n: int
             ) -> list[list[tuple[int, object]]]:
    """Turn one round's (sender, message, to) sends into each process's
    (sender, message) receipts, in outbox order."""
    inboxes: list[list[tuple[int, object]]] = [[] for _ in range(n)]
    everyone = range(n)
    for sender, message, to in outbox:
        if to == TO_ALL:
            receivers = everyone
        else:
            receivers = to
            for q in to:
                if not 0 <= q < n:
                    raise ValueError(f"receiver {q} of a send by {sender} is outside 0..{n - 1}")
        for q in receivers:
            inboxes[q].append((sender, message))
    return inboxes


def round_sends(events: Iterable[TraceEvent]) -> dict[int, list[tuple[int, object, object]]]:
    """Each round's sends as (sender, message, to), keyed by round in order of
    first appearance.

    An event with a ``from`` gives one such send per sender in it, whatever
    its ``to`` (a trace has ``from`` only beside ``"ALL"``, and
    ``checker.projection`` beside a list too), and one without its
    subject's. A round's sends are in (sender, message) order: by sender,
    and a sender's in event order, which is message order in the engine's
    traces. The messages and ``to`` values are the events' own objects.
    """
    by_round: dict[int, list[tuple[int, object, object]]] = {}
    for ev in events:
        if ev.kind == KIND_P2P_SEND:
            detail = ev.detail
            message, to = detail["message"], detail["to"]
            sends = by_round.setdefault(ev.round, [])
            if "from" in detail:
                sends.extend((sender, message, to) for sender in detail["from"])
            else:
                sends.append((ev.subject, message, to))
    for sends in by_round.values():
        sends.sort(key=itemgetter(0))
    return by_round


def deliveries(trace: Trace) -> list[Delivery]:
    """Every receipt the trace's P2P_SEND events imply, by round, then receiver,
    then (sender, message) as ``round_sends`` orders them.

    These are link deliveries of protocol messages, not the DELIVER_CALLs of
    the broadcast layer. Folding a process's receipts of a round, in this
    order, gives the tallies the engine's RECEIVE phase leaves it with;
    the messages are the SEND events' message dicts.
    """
    by_round = round_sends(trace.events)
    n = trace.config["n"]
    return [Delivery(r, receiver, sender, message)
            for r in sorted(by_round)
            for receiver, inbox in enumerate(_inboxes(by_round[r], n))
            for sender, message in inbox]


def _dictated(sender: int, sends: Sequence[tuple[int, ProtocolMessage]]
              ) -> list[tuple[int, ProtocolMessage, list[int]]]:
    """A faulty sender's dictated (receiver, message) pairs as outbox entries:
    one per distinct message, in message order, receivers sorted with duplicates kept."""
    receivers: dict[ProtocolMessage, list[int]] = {}
    for receiver, msg in sends:
        receivers.setdefault(msg, []).append(receiver)
    return [(sender, msg, sorted(receivers[msg]))
            for msg in sorted(receivers, key=ProtocolMessage.sort_key)]


def receive_phase(common: Tallies, inboxes: Sequence[Sequence[tuple[int, ProtocolMessage]]]
                  ) -> list[Tallies]:
    """Every process's tallies for one round, indexed by process: ``common``
    with the process's own (sender, message) receipts, ``inboxes[p]``,
    folded in.

    Each distinct inbox is folded once, and the processes that hold it share
    that fold read-only; a process with an empty inbox gets ``common``
    itself. Messages are type-exact, so equal inboxes fold to equal tallies.
    """
    folds: dict[tuple, Tallies] = {(): common}
    tallies: list[Tallies] = []
    for inbox in inboxes:
        key = tuple(inbox)
        fold = folds.get(key)
        if fold is None:
            fold = folds[key] = receive(common, key)
        tallies.append(fold)
    return tallies


def deliver_oracle_events(schedule: FailureSchedule, r: int, oracle: OracleKind
                          ) -> list[tuple[int, int | None]]:
    """Cure notifications at the start of round r: one ``(process, faulty_since)``
    per process freed at the boundary, in process order.

    The full-awareness oracle also reports when the just-ended faulty span
    began (spans merge across back-to-back agent stays — the process was
    faulty the whole time either way); the basic one reports None.
    """
    if oracle is OracleKind.NFA or r < 2:
        return []
    return [(p, schedule.faulty_span_start(p, r - 1) if oracle is OracleKind.FFA else None)
            for p in sorted(schedule.cured_processes(r))]


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
        # Messages are type-exact (``ProtocolMessage`` takes no bool for an
        # int), so equal keys encode to equal JSON.
        self._message_dicts: dict[ProtocolMessage, dict] = {}
        self._deliver_details: dict[tuple[int, bytes, tuple[int, ...]], dict] = {}
        self._digests: dict[tuple, dict] = {}
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

        # ORACLE: cure notifications reach freed processes before they send.
        # The agents' moves (ADVERSARY) are the schedule's; neither is traced.
        for p, since in deliver_oracle_events(schedule, r, self.config.setting.oracle):
            on_cured(self.states[p], since)

        # SEND: the correct senders grouped by the queue they hold, each
        # distinct queue walked once; each message's senders in process
        # order; one dictated entry per faulty (sender, message).
        obs = Observation(schedule=schedule, states=self.states)
        queues: dict[int, tuple[Iterable[ProtocolMessage], list[int]]] = {}
        dictated: list[tuple[int, ProtocolMessage, list[int]]] = []
        for p in range(n):
            if p in faulty:
                dictated.extend(_dictated(p, self.strategy.dictate_sends(p, r, obs)))
            else:
                queue = send_phase(self.states[p])
                queues.setdefault(id(queue), (queue, []))[1].append(p)
        fan_outs: dict[ProtocolMessage, list[int]] = {}
        for queue, senders in queues.values():
            for msg in queue:
                fan_outs.setdefault(msg, []).extend(senders)
        grouped = [(msg, sorted(fan_outs[msg])) for msg in sorted(fan_outs, key=ProtocolMessage.sort_key)]
        for msg, senders in grouped:
            self._emit(r, KIND_P2P_SEND, senders[0],
                       {"from": senders, "message": self._message(msg), "to": TO_ALL})
        for sender, msg, to in dictated:
            self._emit(r, KIND_P2P_SEND, sender, {"message": self._message(msg), "to": to})

        # RECEIVE: synchronous reliable delivery of everything sent this round.
        # Fan-outs come from correct senders and dictated sends from faulty
        # senders, so the two never share a sender: the common fold plus a
        # receiver's dictated receipts is its whole inbox, and a sender's
        # fan-outs fold in message order, as its receipts do.
        common = Tallies()
        for msg, senders in grouped:
            on_p2p_deliver(common, senders, msg)
        obs.tallies = tallies = receive_phase(common, _inboxes(dictated, n))

        # COMPUTE, run once per class of equal inputs (see the module docstring).
        # Consecutive processes mostly hold one fold, so its majority counter
        # is counted again only when the fold changes.
        F = self.variant.effective_f
        classes: dict[tuple, tuple[ProtocolState, list[tuple[int, bytes]]]] = {}
        delivered_by: dict[tuple[int, bytes], list[int]] = {}
        last = None
        for p in range(n):
            state = self.states[p]
            if p in faulty:
                new_state = self.strategy.corrupt_state(p, r, obs)
                self.states[p] = new_state
                self._emit(r, KIND_STATE_CORRUPTED, p, self._corrupted_detail(new_state))
                continue
            payloads = self._broadcast_index.get((p, r))
            fold = tallies[p]
            if fold is not last:
                last = fold
                majority = get_majority(fold.rc_votes.values(), None, min_backing=F)
            key = (id(fold), state.cured, state.cured_faulty_since, state.delivered,
                   state.rc if majority is None else majority)
            leader = classes.get(key)
            if leader is None:
                delivered = compute_phase(state, fold, p, self.variant, n)
                # A broadcast caller's SEND, added below, is its own, not its class's.
                outcome = replace(state) if payloads else state
                leader = classes[key] = outcome, delivered
            else:
                adopt_compute(state, leader[0])
                delivered = leader[1]
            if payloads:
                for payload in payloads:
                    self._emit(r, KIND_BROADCAST_CALL, p, dict(encode_payload(payload)))
                state.to_send = state.to_send.union(
                    [send_msg(p, state.rc - 1, payload) for payload in payloads])
            for instance in delivered:
                delivered_by.setdefault(instance, []).append(p)
        for source, payload in sorted(delivered_by):
            by = delivered_by[source, payload]
            self._emit(r, KIND_DELIVER_CALL, by[0], self._deliver_detail(source, payload, by))

    def _message(self, msg: ProtocolMessage) -> dict:
        """``msg.to_dict()``, built once per distinct message and shared read-only."""
        out = self._message_dicts.get(msg)
        if out is None:
            out = self._message_dicts[msg] = msg.to_dict()
        return out

    def _corrupted_detail(self, state: ProtocolState) -> dict:
        """A STATE_CORRUPTED detail, digested and built once per distinct state
        and shared read-only. The key holds each scalar field's type beside
        it, as ``True == 1`` digests differently; messages are type-exact and
        a delivered pair's source is an int."""
        key = (state.to_send, type(state.rc), state.rc, type(state.cured), state.cured,
               type(state.cured_faulty_since), state.cured_faulty_since, state.delivered)
        out = self._digests.get(key)
        if out is None:
            out = self._digests[key] = {"state_digest": state_fingerprint(state)}
        return out

    def _deliver_detail(self, source: int, payload: bytes, by: list[int]) -> dict:
        """A DELIVER_CALL's detail, built once per (source, payload, by) and shared read-only."""
        key = (source, payload, tuple(by))
        out = self._deliver_details.get(key)
        if out is None:
            out = self._deliver_details[key] = {"by": by, "source": source, **encode_payload(payload)}
        return out

    def _emit(self, r: int, kind: str, subject: int, detail: dict) -> None:
        self.trace.events.append(TraceEvent(r, kind, subject, detail))


def run(config: ScenarioConfig) -> Trace:
    """Execute a scenario to its horizon and return the trace."""
    return Simulation(config).run()
