"""Deterministic synchronous round engine.

Each round runs five sub-phases in a fixed order:

1. ADVERSARY — agents move at the round boundary, as the failure schedule
   says; nothing is traced.
2. ORACLE   — cure notifications go to processes that were just freed
   (none under the no-awareness oracle); nothing is traced.
3. SEND     — correct processes, in process order, run the protocol send
   phase (which performs the cure wipe) and send each message to every
   process; faulty processes emit exactly what the strategy dictates, with
   the sender stamp forced (links are authenticated). The correct senders
   are grouped by the queue they hold, and each distinct queue is walked
   once: a message one queue holds takes that queue's senders, already in
   process order, and only a message several queues hold merges and sorts
   theirs, once per set of queues. Messages are ordered by ``sort_key``,
   which the simulation keeps per message beside its dict and JSON text.
4. RECEIVE  — every message sent in the round is delivered in the round:
   no loss, duplication or reordering across rounds. Each distinct message
   the correct processes send to all is folded once, with all its senders,
   into the round's common tallies. A process's inbox is its dictated
   receipts, as (sender, message) pairs; only the receivers of dictated
   sends hold one. ``receive_phase`` folds each distinct inbox once into a
   copy of the common tallies, and every process that holds it reads that
   one fold, read-only, possessed processes included. A process with no
   dictated receipt reads the common tallies themselves. Tallies are
   round-local and never part of a process's state. RECEIVE is the only
   place a fold is built: the strategies see every process's fold in the
   observation, and the history-forging ones run a possessed process's
   compute phase on that process's fold.
5. COMPUTE  — correct processes run the protocol compute phase on their
   tallies; each faulty process's state is replaced by whatever the
   strategy returns. The phase works at two levels. The fold's reading
   (``protocol.read_fold``: its majority counter, the READY and ABORT
   votes its quorums call for, and its READY quorums' earliest births)
   depends on the fold alone, so it is built once per fold, by the first
   class key or compute phase that reads the fold, and kept on the fold for
   every other class and faithful compute that reads it. The rest depends
   on the process: a correct process's phase depends only on its fold,
   its cure flags, ``delivered`` and its ``rc`` after the majority repair,
   which is the reading's majority counter, or the process's own when the
   reading has none. Those five values are the process's class key, the
   fold named by its identity, as every fold is held until the round
   ends. The first process of each class, in process order, runs
   ``compute_phase``, and the others take its outcome through
   ``protocol.adopt_compute``; a freed process that re-enters with a stale
   counter thus joins the class its repair puts it in. A scheduled
   broadcast call joins its class like any other process; once the caller
   holds the class outcome, its queue gains the SEND, stamped with the
   repaired ``rc``. The send queue and ``delivered`` a state carries are
   immutable, so the members of a class share them, and so do the next
   SEND's senders of a queue. Each class delivers in (source, payload)
   order and lists its members in process order, so the round's
   DELIVER_CALLs are built per set of delivering classes, and only an
   instance several classes deliver merges and sorts their members.

Every externally visible action is appended to a totally ordered trace as
an event ``(round, kind, subject, detail)``. Each kind is written in one
phase, so an event's phase is its kind's: P2P_SEND in SEND, and
BROADCAST_CALL, DELIVER_CALL and STATE_CORRUPTED in COMPUTE; ADVERSARY,
ORACLE and RECEIVE write nothing. The schedule in the header's config fixes
the agents' moves and the cures, which ``FailureSchedule.host_of`` and
``deliver_oracle_events`` derive; the latter reads each round's cures from
``FailureSchedule.cures``, a table the schedule builds once.

A possessed process p writes its STATE_CORRUPTED in round r unless p was
also possessed in round r-1 and held a state of the same digest then: the
first round of each faulty span always has its event, and a stay that
leaves the state's digest unchanged writes nothing more. So the digest of
any possessed (p, r) is that of p's latest STATE_CORRUPTED at or before r
within its span, which starts at ``FailureSchedule.faulty_span_start(p, r)``.

A round's correct fan-outs are one P2P_SEND event per distinct list of
senders, ``{"from": [senders], "messages": [m, …], "to": "ALL"}``: the
senders strictly increasing, the subject ``from[0]``, and ``messages`` every
message, in message order, that exactly those senders sent to all. The
fan-outs are ordered by their first message, so each (sender, message) pair
stands in one of them. A dictated send is one event per (sender, message),
``{"message": …, "to": [receivers]}``, the receivers sorted with duplicates
kept: a faulty sender's ROUND votes replace each other, so its messages keep
their order. The fan-outs come first, then the dictated sends in (sender,
message) order. Receipts are not traced; links are synchronous and reliable,
so ``deliveries`` derives them from the SEND events, which ``send_groups``
reads per (event, message) and ``round_sends`` expands to one (sender,
message, to) send per sender in (sender, message) order; a process's tallies
are a fold of its receipts, by (sender, message). A round's deliveries are
one DELIVER_CALL per distinct list of delivering processes, ``{"by":
[processes], "instances": [{"payload…": …, "source": s}, …]}``: the
processes strictly increasing, the subject ``by[0]``, and the instances
strictly increasing in (source, payload) order. They come after the round's
STATE_CORRUPTED and BROADCAST_CALL events, ordered by their first instance.
``compute_phase`` delivers in (source, payload) order, so each event's
instances are, in order, a subsequence of the deliveries of every process it
lists. That holds per event only: a process listed in several events
delivers their instances interleaved. ``delivered_instances`` expands each
event into one (event, instance) delivery group per instance. Each distinct
message dict, instance dict and STATE_CORRUPTED detail is built once per
simulation, and the events that carry it share it read-only. A
STATE_CORRUPTED digest reads each queued message's JSON text
(``ProtocolMessage.to_json``), which is also written once per simulation.
Given a config (the seed is part of it), the trace is bit-reproducible.

The JSONL (``Trace.to_jsonl``) writes each distinct message and instance in
full once per trace, and cites it after that by its index in the trace's
message or instance table (``event_lines``). In memory nothing is cited: a
parsed trace's events share each message and instance the tables hold,
read-only, as the engine's events share the dicts it builds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import lt, methodcaller
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .adversary import Observation, Strategy, build_strategy
from .messages import ProtocolMessage, compact_json, decode_payload, encode_payload, send_msg
from .model import FailureSchedule, OracleKind, shown
from .protocol import (
    ProtocolState,
    Tallies,
    adopt_compute,
    compute_phase,
    init_state,
    on_cured,
    on_p2p_deliver,
    read_fold,
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

# The header's ``format``: per round, one P2P_SEND per list of fan-out
# senders, listing its messages, or per dictated (sender, message); no
# receipts, agent moves or cures; one DELIVER_CALL per list of delivering
# processes, listing its (source, payload) instances; a STATE_CORRUPTED only
# where a possessed process's digest is new to its stay; each distinct message
# and instance written in full once, and cited by its index after that.
TRACE_FORMAT = "mbbc-trace/9"
# The ``to`` of a send that reaches every process.
TO_ALL = "ALL"

# One trace line, citation or projection line: compact JSON with sorted
# keys, written by the one C encoder ``messages.compact_json`` builds at
# import (the pure-Python encoder, slower, where the C accelerator is absent).
encode_line = compact_json


class TraceEvent(NamedTuple):
    """One traced action. Events are immutable (use ``_replace``), and a
    detail is read-only: the engine's events share each detail it builds."""

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


def event_lines(events: Iterable[TraceEvent],
                tables: tuple[dict[str, int], dict[str, int]] | None = None) -> list[str]:
    """Each event's trace line.

    Without ``tables`` each line is ``encode_line(ev.to_dict())`` and stands
    alone, as a projection's lines must. ``tables`` is the (message,
    instance) pair of citation tables, each mapping an object's encoded text
    to its index: every object in a P2P_SEND's ``messages`` list (beside
    ``"ALL"``) or its ``message`` (beside any other ``to``), or in a DELIVER_CALL's
    ``instances``, is written in full at the first use of its text, which
    appends the text to its table, and as its int index at every later use.
    The tables are the caller's, so their definitions carry over from one
    call to the next; ``Trace.to_jsonl`` passes empty ones.

    The outer layout is written from a template, and each detail object, and
    each send's message and ``to`` objects and each DELIVER_CALL's instances,
    is encoded once per call, by identity (a projection's groups share their
    lists of receivers): the memos hold every object they have encoded, so
    no id is reused while they live. A detail's line is kept for a later
    event that shares the detail only when it defines nothing. A detail must
    therefore stay unchanged while its lines are written, which
    ``TraceEvent``'s contract (a read-only detail) gives. An event whose
    kind, round or subject the template does not cover is encoded whole.
    """
    encoded: dict[int, tuple[object, str]] = {}

    def encode(value) -> str:
        hit = encoded.get(id(value))
        if hit is None:
            hit = encoded[id(value)] = (value, encode_line(value))
        return hit[1]

    if tables is None:
        cite_message = cite_instance = encode
        messages = instances = ()
    else:
        cite_message, cite_instance = map(_citer, tables)
        messages, instances = tables

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
        elif type(detail) is not dict:
            body = encode(detail)
        else:
            before = len(messages) + len(instances)
            if (kind == KIND_P2P_SEND and "message" in detail and "to" in detail
                    and len(detail) == 2 + ("from" in detail) and detail["to"] != TO_ALL):
                senders = f'"from":{encode_line(detail["from"])},' if "from" in detail else ""
                body = (f'{{{senders}"message":{cite_message(detail["message"])},'
                        f'"to":{encode(detail["to"])}}}')
            elif (kind == KIND_P2P_SEND and len(detail) == 3 and "from" in detail
                    and type(detail.get("messages")) is list and detail.get("to") == TO_ALL):
                body = (f'{{"from":{encode_line(detail["from"])},'
                        f'"messages":[{",".join(map(cite_message, detail["messages"]))}],'
                        f'"to":{encode(detail["to"])}}}')
            elif (kind == KIND_DELIVER_CALL and len(detail) == 2 and "by" in detail
                    and type(detail.get("instances")) is list):
                body = (f'{{"by":{encode_line(detail["by"])},'
                        f'"instances":[{",".join(map(cite_instance, detail["instances"]))}]}}')
            elif tables is not None and kind in (KIND_P2P_SEND, KIND_DELIVER_CALL):
                body = encode_line(_cited_detail(kind, detail, cite_message, cite_instance))
            else:
                body = encode_line(detail)
            if len(messages) + len(instances) == before:
                encoded[id(detail)] = (detail, body)
        lines.append(f'{{"detail":{body}{middle}{rnd},"subject":{subject}}}')
    return lines


def _citer(table: dict[str, int]) -> Callable[[object], str]:
    """A writer of the objects of ``table``'s places: a JSON object in full
    at the first use of its text, which appends the text to ``table``, and
    as its index after that; any other value as it is. Each value is encoded
    once, and its memo holds it, so no id is reused."""
    written: dict[int, tuple[object, str]] = {}

    def cite(value) -> str:
        hit = written.get(id(value))
        if hit is not None:
            return hit[1]
        text = later = encode_line(value)
        if isinstance(value, dict):
            size = len(table)
            index = table.setdefault(text, size)
            later = str(index)
            if index != size:
                text = later
        written[id(value)] = (value, later)
        return text

    return cite


def _cited_detail(kind: str, detail: dict, cite_message: Callable[[object], str],
                  cite_instance: Callable[[object], str]) -> dict:
    """A copy of a detail outside the template whose cited place holds each
    object or its index, as ``cite_message`` or ``cite_instance`` writes it:
    the place the reader resolves, a P2P_SEND's ``messages`` beside "ALL"
    and its ``message`` otherwise, and a DELIVER_CALL's ``instances``."""
    if kind == KIND_DELIVER_CALL:
        key, cite = "instances", cite_instance
    else:
        key, cite = ("messages" if detail.get("to") == TO_ALL else "message"), cite_message
    if key not in detail:
        return detail

    def cited(value):
        text = cite(value)
        return int(text) if text.isdigit() else value

    value = detail[key]
    if key == "message":
        return {**detail, key: cited(value)}
    if isinstance(value, (list, tuple)):
        return {**detail, key: [cited(v) for v in value]}
    return detail


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
        lines.extend(event_lines(self.events, ({}, {})))
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
        [0, n) whose first is the subject and a non-empty list of
        ``messages`` (no ``message``), or a non-empty, sorted list of
        receivers in [0, n) beside a ``message`` (no ``from`` or
        ``messages``). A DELIVER_CALL's ``by`` is a list of strictly
        increasing processes in [0, n) whose first is the subject, and its
        ``instances`` a non-empty list, strictly increasing in (source,
        payload) order; the detail itself holds no ``source`` or payload. A
        BROADCAST_CALL's payload decodes.

        A message or an instance is a JSON object, which the reader appends
        to the trace's message or instance table, or an int citing an entry
        already there; an instance object holds an int ``source`` and a
        payload that decodes, checked once, at its definition. Each line is
        read as ``json.loads`` reads it (``_json_object`` scans a short line
        in C first) and checked whole, and each event has a detail of its
        own, but its messages and instances are the table's objects, shared
        read-only by every event that cites them.
        """
        numbered = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
                    if ln.strip()]
        if not numbered:
            raise ValueError("empty trace file")
        number, line = numbered[0]
        what = "header"
        scan_chars = sys.getrecursionlimit() // 2
        try:
            fingerprint, seed, config = _header_fields(_json_object(line, scan_chars))
            n, horizon = config["n"], config["horizon"]
            what = "event"
            tables = _Tables([], [], [])
            events = []
            for number, line in numbered[1:]:
                events.append(_event(_json_object(line, scan_chars), n, horizon, tables))
        except KeyError as exc:
            raise ValueError(f"trace line {number}: bad {what} line: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"trace line {number}: bad {what} line: {exc}") from None
        return cls(fingerprint=fingerprint, seed=seed, config=config, events=events)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def scenario(self) -> ScenarioConfig:
        return ScenarioConfig.from_dict(self.config)


# The C scanner that ``json.loads`` calls three frames down.
_scan_once = json.JSONDecoder().scan_once


def _json_object(line: str, scan_chars: int) -> dict:
    """The JSON object a line holds, as ``json.loads`` reads it, or a
    ValueError with ``json.loads``'s exact text.

    A line shorter than ``scan_chars`` goes to the C scanner alone, and to
    ``json.loads`` only when the scan raises or stops short of the line's
    end. The scan runs three frames shallower, so it could read a line
    nested past ``json.loads``'s reach; ``from_jsonl`` passes half the
    recursion limit, and a line that short nests a quarter of it at most.
    """
    try:
        data, end = _scan_once(line, 0) if len(line) < scan_chars else (None, -1)
    except (StopIteration, json.JSONDecodeError, RecursionError):
        end = -1
    if end != len(line):
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
    """Reject a line with a key outside ``keys``, naming the first; a
    missing one is a KeyError later."""
    if data.keys() <= keys:
        return
    key = next(key for key in data if key not in keys)
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


class _Tables(NamedTuple):
    """The citation tables of a trace being read, in definition order: each
    message, each instance and each instance's (source, payload)."""

    messages: list[dict]
    instances: list[dict]
    instance_keys: list[tuple[int, bytes]]


def _event(data: dict, n: int, horizon: int, tables: _Tables) -> TraceEvent:
    _only_keys(data, _EVENT_KEYS)
    event = TraceEvent.from_dict(data)
    if event.kind not in KINDS:
        raise ValueError(f"unknown kind {shown(event.kind)}")
    if not _is_int(event.round) or not 1 <= event.round <= horizon:
        raise ValueError(f"round {shown(event.round)} outside 1..{horizon}")
    if not _is_int(event.subject) or not 0 <= event.subject < n:
        raise ValueError(f"subject {shown(event.subject)} outside 0..{n - 1}")
    _check_detail(event.kind, event.detail, event.subject, n, tables)
    return event


def _check_detail(kind: str, detail, subject: int, n: int, tables: _Tables) -> None:
    """The detail keys a reader of the trace relies on; a missing one is a
    KeyError. The subject of a fan-out is its ``from[0]``, and of a
    DELIVER_CALL its ``by[0]``. Each message and instance citation is
    replaced, in place, by the table entry it cites."""
    if not isinstance(detail, dict):
        raise ValueError("detail is not a JSON object")
    if kind == KIND_P2P_SEND:
        to = detail["to"]
        table = tables.messages
        if to == TO_ALL:
            if "message" in detail:
                raise ValueError(f'a send to {TO_ALL!r} has a message; it lists its messages')
            messages = detail["messages"]
            if not (isinstance(messages, list) and messages):
                raise _not_a_list("messages", messages)
            for i, message in enumerate(messages):
                if type(message) is int and 0 <= message < len(table):
                    messages[i] = table[message]
                elif isinstance(message, dict):
                    table.append(message)
                elif isinstance(message, (int, float)):
                    raise _bad_citation("message", table, message)
                else:
                    raise _not_a_list("messages", messages)
            _check_processes("from", detail["from"], subject, n)
            return
        message = detail["message"]
        if type(message) is int and 0 <= message < len(table):
            detail["message"] = table[message]
        elif isinstance(message, dict):
            table.append(message)
        elif isinstance(message, (int, float)):
            raise _bad_citation("message", table, message)
        else:
            raise ValueError("message is not a JSON object")
        if not (isinstance(to, list) and _INT.issuperset(map(type, to))
                and (not to or 0 <= min(to) and max(to) < n)):
            raise ValueError(f"to {shown(to)} is neither {TO_ALL!r} nor a list of receivers in 0..{n - 1}")
        if not to:
            raise ValueError("to [] names no receiver")
        if to != sorted(to):
            raise ValueError(f"to {shown(to)} is not sorted")
        if "from" in detail:
            raise ValueError("a send to a list of receivers has a from; its sender is its subject")
        if "messages" in detail:
            raise ValueError("a send to a list of receivers has messages; it carries one message")
    elif kind == KIND_DELIVER_CALL:
        for key in ("source", "payload", "payload_hex"):
            if key in detail:
                raise ValueError(f"a DELIVER_CALL has a {key}; its instances carry theirs")
        instances = detail["instances"]
        if not (isinstance(instances, list) and instances):
            raise _not_a_list("instances", instances)
        table, keys = tables.instances, tables.instance_keys
        last = None
        for i, instance in enumerate(instances):
            if type(instance) is int and 0 <= instance < len(table):
                key = keys[instance]
                instances[i] = instance = table[instance]
            elif isinstance(instance, dict):
                if not _is_int(instance["source"]):
                    raise ValueError(f"source {shown(instance['source'])} is not an int")
                key = (instance["source"], decode_payload(instance))
                table.append(instance)
                keys.append(key)
            elif isinstance(instance, (int, float)):
                raise _bad_citation("instance", table, instance)
            else:
                raise _not_a_list("instances", instances)
            if last is not None and not last < key:
                raise ValueError(f"instance {shown(instance)} does not follow the one before it "
                                 "in strictly increasing (source, payload) order")
            last = key
        _check_processes("by", detail["by"], subject, n)
    elif kind == KIND_BROADCAST_CALL:
        decode_payload(detail)


def _not_a_list(key: str, values) -> ValueError:
    """The refusal of a ``values`` that is not a non-empty list of JSON
    objects and citations (numbers)."""
    return ValueError(f"{key} {shown(values)} is not a non-empty list of JSON objects")


def _bad_citation(name: str, table: list, value) -> ValueError:
    """The refusal of a number ``value`` that cites none of ``table``, the
    ``name`` objects defined so far: not a type-exact int, or out of range."""
    if not _is_int(value):
        return ValueError(f"{name} citation {shown(value)} is not an int")
    if not table:
        return ValueError(f"{name} citation {value} cites nothing: no {name} is defined yet")
    return ValueError(f"{name} citation {value} is outside 0..{len(table) - 1}, "
                      f"the {name}s defined so far")


# The one type a process or receiver list holds: ``_INT.issuperset(map(type,
# xs))`` tests every entry in C, and rejects a bool as ``True == 1`` would not.
_INT = frozenset({int})


def _check_processes(key: str, processes, subject: int, n: int) -> None:
    """Reject ``processes`` unless it is a non-empty, strictly increasing
    list of processes in [0, n) whose first is ``subject``."""
    if not (isinstance(processes, list) and processes and _INT.issuperset(map(type, processes))
            and 0 <= processes[0] and processes[-1] < n
            and all(map(lt, processes, islice(processes, 1, None)))):
        raise ValueError(f"{key} {shown(processes)} is not a non-empty, strictly increasing "
                         f"list of processes in 0..{n - 1}")
    if subject != processes[0]:
        raise ValueError(f"subject {subject} is not the first of its {key} list, {processes[0]}")


class Delivery(NamedTuple):
    """One receipt implied by a P2P_SEND: ``receiver`` got ``message`` from ``sender``."""

    round: int
    receiver: int
    sender: int
    message: object


def _inboxes(outbox: Sequence[tuple[int, object, object]], n: int
             ) -> list[Sequence[tuple[int, object]]]:
    """Turn one round's (sender, message, to) sends into each process's
    (sender, message) receipts, in outbox order: a list for each process
    that receives something, and one shared empty tuple for every other."""
    inboxes: list[Sequence[tuple[int, object]]] = [()] * n
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
            if not inboxes[q]:
                inboxes[q] = []
            inboxes[q].append((sender, message))
    return inboxes


def send_groups(events: Iterable[TraceEvent]) -> Iterator[tuple[int, Sequence[int], object, object]]:
    """Each P2P_SEND's (round, senders, message, to), one per message, in
    trace order: the senders are its ``from`` (its subject without one) and
    the messages its ``messages`` (its ``message`` without one), whatever its
    ``to``. A trace has ``from`` and ``messages`` only beside ``"ALL"``, and
    ``checker.projection`` writes ``from`` and ``message`` beside a list.
    The senders, messages and ``to`` values are the events' own objects."""
    for ev in events:
        if ev.kind == KIND_P2P_SEND:
            detail = ev.detail
            senders, to = detail["from"] if "from" in detail else (ev.subject,), detail["to"]
            for message in detail["messages"] if "messages" in detail else (detail["message"],):
                yield ev.round, senders, message, to


def round_sends(events: Iterable[TraceEvent]) -> dict[int, list[tuple[int, object, object]]]:
    """Each round's sends as (sender, message, to), one per sender of each of
    ``send_groups``, keyed by round in order of first appearance. A round's
    sends are in (sender, message) order, messages ordered as
    ``ProtocolMessage.sort_key`` orders them, and a sender's equal messages
    in event order.
    """
    by_round: dict[int, list[tuple[int, object, object]]] = {}
    # Each message object's sort key; the memo holds the object, so no id is reused.
    order: dict[int, tuple[object, tuple]] = {}
    for r, senders, message, to in send_groups(events):
        if id(message) not in order:
            order[id(message)] = (message, ProtocolMessage.from_dict(message).sort_key())
        by_round.setdefault(r, []).extend((sender, message, to) for sender in senders)
    for sends in by_round.values():
        sends.sort(key=lambda send: (send[0], order[id(send[1])][1]))
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


def delivered_instances(events: Sequence[TraceEvent]
                        ) -> Iterator[tuple[int, int, list[int], int, bytes]]:
    """Each instance of each DELIVER_CALL as (event index, round, by, source,
    payload), in trace order: the instances of one event follow each other
    and share its ``by`` list. Each instance object is decoded once; the
    memo holds it, so no id is reused."""
    decoded: dict[int, tuple[dict, int, bytes]] = {}
    for idx, ev in enumerate(events):
        if ev.kind == KIND_DELIVER_CALL:
            by = ev.detail["by"]
            for instance in ev.detail["instances"]:
                hit = decoded.get(id(instance))
                if hit is None:
                    hit = decoded[id(instance)] = (instance, instance["source"],
                                                   decode_payload(instance))
                yield idx, ev.round, by, hit[1], hit[2]


def instance_detail(source: int, payload: bytes) -> dict:
    """One (source, payload) instance as a DELIVER_CALL lists it."""
    return {"source": source, **encode_payload(payload)}


def deliver_calls(r: int, delivered_by: Mapping[tuple[int, bytes], Sequence[int]]) -> list[TraceEvent]:
    """Round r's DELIVER_CALLs for the processes that delivered each (source,
    payload), listed in increasing order: one event per distinct list, its
    instances in (source, payload) order, the events ordered by their first
    instance."""
    groups: dict[tuple[int, ...], list[dict]] = {}
    for source, payload in sorted(delivered_by):
        groups.setdefault(tuple(delivered_by[source, payload]), []).append(
            instance_detail(source, payload))
    return [TraceEvent(r, KIND_DELIVER_CALL, by[0], {"by": list(by), "instances": instances})
            for by, instances in groups.items()]


def _dictated(sender: int, sends: Sequence[tuple[int, ProtocolMessage]],
              sort_key: Callable[[ProtocolMessage], tuple]
              ) -> list[tuple[int, ProtocolMessage, list[int]]]:
    """A faulty sender's dictated (receiver, message) pairs as outbox entries:
    one per distinct message, in message order (``sort_key``), receivers
    sorted with duplicates kept."""
    receivers: dict[ProtocolMessage, list[int]] = {}
    for receiver, msg in sends:
        receivers.setdefault(msg, []).append(receiver)
    return [(sender, msg, sorted(receivers[msg])) for msg in sorted(receivers, key=sort_key)]


def receive_phase(common: Tallies, inboxes: Sequence[Sequence[tuple[int, ProtocolMessage]]]
                  ) -> list[Tallies]:
    """Every process's tallies for one round, indexed by process: ``common``
    with the process's own (sender, message) receipts, ``inboxes[p]``,
    folded in.

    Each distinct inbox is folded once, and the processes that hold it share
    that fold read-only; a process with an empty inbox gets ``common``
    itself. Messages are type-exact, so equal inboxes fold to equal tallies.
    """
    folds: dict[tuple, Tallies] = {}
    tallies: list[Tallies] = []
    for inbox in inboxes:
        if inbox:
            key = tuple(inbox)
            fold = folds.get(key)
            if fold is None:
                fold = folds[key] = receive(common, key)
            tallies.append(fold)
        else:
            tallies.append(common)
    return tallies


def deliver_oracle_events(schedule: FailureSchedule, r: int, oracle: OracleKind
                          ) -> list[tuple[int, int | None]]:
    """Cure notifications at the start of round r: one ``(process, faulty_since)``
    per process freed at the boundary, in process order, read from
    ``FailureSchedule.cures``.

    The full-awareness oracle also reports when the just-ended faulty span
    began (spans merge across back-to-back agent stays — the process was
    faulty the whole time either way); the basic one reports None.
    """
    if oracle is OracleKind.NFA:
        return []
    return [(p, since if oracle is OracleKind.FFA else None) for p, since in schedule.cures(r)]


class _Memo(dict):
    """A dict that builds a missing key's value as ``build(key)`` on its
    first lookup and keeps it, so a hit costs one C lookup."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


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
        # Each round's broadcast calls: caller -> payloads.
        self._broadcasts: dict[int, dict[int, list[bytes]]] = {}
        # Each distinct message's ``sort_key()``, ``to_dict()`` and JSON
        # text, and each (source, payload)'s instance dict, built once and
        # shared read-only. Messages are type-exact (``ProtocolMessage``
        # takes no bool for an int), so equal keys encode to equal JSON.
        self._sort_keys = _Memo(methodcaller("sort_key"))
        self._message_dicts = _Memo(methodcaller("to_dict"))
        self._message_texts = _Memo(methodcaller("to_json"))
        self._instances = _Memo(lambda instance: instance_detail(*instance))
        self._digests: dict[tuple, dict] = {}
        # Last round's possessed processes, each to its STATE_CORRUPTED detail.
        self._corrupted: dict[int, dict] = {}
        for b in config.broadcasts:
            self._broadcasts.setdefault(b.round, {}).setdefault(b.source, []).append(b.payload)

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
        schedule, states, strategy, variant = self.schedule, self.states, self.strategy, self.variant
        n = self.config.n
        emit = self.trace.events.append
        faulty = schedule.faulty_set(r)

        # ORACLE: cure notifications reach freed processes before they send.
        # The agents' moves (ADVERSARY) are the schedule's; neither is traced.
        for p, since in deliver_oracle_events(schedule, r, self.config.setting.oracle):
            on_cured(states[p], since)

        # SEND: the correct senders grouped by the queue they hold, in
        # process order, each distinct queue walked once; one dictated entry
        # per faulty (sender, message) that is dictated.
        obs = Observation(schedule=schedule, states=states)
        sort_key, message_dicts = self._sort_keys.__getitem__, self._message_dicts
        queues: list[tuple[Iterable[ProtocolMessage], list[int]]] = []
        senders_of: dict[int, list[int]] = {}
        dictated: list[tuple[int, ProtocolMessage, list[int]]] = []
        for p in range(n):
            if p in faulty:
                sends = strategy.dictate_sends(p, r, obs)
                if sends:
                    dictated += _dictated(p, sends, sort_key)
                continue
            queue = send_phase(states[p])
            senders = senders_of.get(id(queue))
            if senders is None:
                senders_of[id(queue)] = senders = [p]
                queues.append((queue, senders))
            else:
                senders.append(p)
        # A message one queue holds has that queue's senders; one several
        # hold, the union of theirs, sorted, built once per set of queues:
        # each queue joins each list held before its walk began once (those
        # lists all lived at that point, so no two share an id).
        fan_outs: dict[ProtocolMessage, list[int]] = {}
        for queue, senders in queues:
            unions: dict[int, list[int]] = {}
            for msg in queue:
                held = fan_outs.setdefault(msg, senders)
                if held is not senders:
                    union = unions.get(id(held))
                    if union is None:
                        union = unions[id(held)] = sorted(held + senders)
                    fan_outs[msg] = union
        ordered = sorted(fan_outs, key=sort_key)
        # Each distinct list of senders is one list object: one fan-out each.
        fan_out_messages: dict[int, tuple[list[int], list[dict]]] = {}
        for msg in ordered:
            senders = fan_outs[msg]
            group = fan_out_messages.get(id(senders))
            if group is None:
                group = fan_out_messages[id(senders)] = (senders, [])
            group[1].append(message_dicts[msg])
        for senders, messages in fan_out_messages.values():
            emit(TraceEvent(r, KIND_P2P_SEND, senders[0],
                            {"from": senders, "messages": messages, "to": TO_ALL}))
        for sender, msg, to in dictated:
            emit(TraceEvent(r, KIND_P2P_SEND, sender, {"message": message_dicts[msg], "to": to}))

        # RECEIVE: synchronous reliable delivery of everything sent this round.
        # Fan-outs come from correct senders and dictated sends from faulty
        # senders, so the two never share a sender: the common fold plus a
        # receiver's dictated receipts is its whole inbox, and a sender's
        # fan-outs fold in message order, as its receipts do.
        common = Tallies()
        for msg in ordered:
            on_p2p_deliver(common, fan_outs[msg], msg)
        obs.tallies = tallies = receive_phase(common, _inboxes(dictated, n))

        # COMPUTE, run once per class of equal inputs (see the module docstring).
        # The first read of a fold builds its reading, which the fold keeps;
        # a process that holds the fold the process before it held reads it
        # without a call. The reading's majority is the repaired counter of
        # the key.
        F = variant.effective_f
        broadcasts = self._broadcasts.get(r, {})
        # Each class's outcome, its deliveries and its members in process order.
        classes: dict[tuple, tuple[ProtocolState, list[tuple[int, bytes]], list[int]]] = {}
        # A possessed process writes its digest when it is new to its stay.
        last_corrupted, corrupted = self._corrupted, {}
        last_fold = majority = None
        for p in range(n):
            state = states[p]
            if p in faulty:
                new_state = states[p] = strategy.corrupt_state(p, r, obs)
                detail = corrupted[p] = self._corrupted_detail(new_state)
                if detail != last_corrupted.get(p):
                    emit(TraceEvent(r, KIND_STATE_CORRUPTED, p, detail))
                continue
            payloads = broadcasts.get(p) if broadcasts else None
            fold = tallies[p]
            if fold is not last_fold:
                last_fold, majority = fold, read_fold(fold, n, F).majority
            key = (id(fold), state.cured, state.cured_faulty_since, state.delivered,
                   state.rc if majority is None else majority)
            leader = classes.get(key)
            if leader is None:
                delivered = compute_phase(state, fold, p, variant, n)
                # A broadcast caller's SEND, added below, is its own, not its class's.
                outcome = replace(state) if payloads else state
                classes[key] = outcome, delivered, [p]
            else:
                adopt_compute(state, leader[0])
                leader[2].append(p)
            if payloads:
                for payload in payloads:
                    emit(TraceEvent(r, KIND_BROADCAST_CALL, p, dict(encode_payload(payload))))
                state.to_send = state.to_send.union(
                    [send_msg(p, state.rc - 1, payload) for payload in payloads])
        delivering = [(delivered, members) for _outcome, delivered, members in classes.values()
                      if delivered]
        if delivering:
            self.trace.events += self._deliver_calls(r, delivering)
        self._corrupted = corrupted

    def _deliver_calls(self, r: int, delivering: list[tuple[list[tuple[int, bytes]], list[int]]]
                       ) -> list[TraceEvent]:
        """Round r's DELIVER_CALLs, as ``deliver_calls`` writes them, from
        the classes that deliver: each class's deliveries in (source,
        payload) order and its members in process order, the classes in
        order of their first members. One event per distinct set of classes
        that deliver an instance: its ``by`` is their members, merged."""
        instances = self._instances
        if len(delivering) == 1:
            delivered, members = delivering[0]
            return [TraceEvent(r, KIND_DELIVER_CALL, members[0],
                               {"by": members, "instances": [instances[i] for i in delivered]})]
        holders: dict[tuple[int, bytes], list[int]] = {}
        for index, (delivered, _members) in enumerate(delivering):
            for instance in delivered:
                holders.setdefault(instance, []).append(index)
        groups: dict[tuple[int, ...], list[dict]] = {}
        for instance in sorted(holders):
            groups.setdefault(tuple(holders[instance]), []).append(instances[instance])
        events = []
        for indexes, listed in groups.items():
            by = (delivering[indexes[0]][1] if len(indexes) == 1
                  else sorted(p for index in indexes for p in delivering[index][1]))
            events.append(TraceEvent(r, KIND_DELIVER_CALL, by[0], {"by": by, "instances": listed}))
        return events

    def _corrupted_detail(self, state: ProtocolState) -> dict:
        """A STATE_CORRUPTED detail, digested and built once per distinct state
        and shared read-only. The digest reads each queued message's JSON
        text and sort key from the simulation's memos. The key holds each
        scalar field's type beside it, as ``True == 1`` digests differently;
        messages are type-exact and a delivered pair's source is an int."""
        key = (state.to_send, type(state.rc), state.rc, type(state.cured), state.cured,
               type(state.cured_faulty_since), state.cured_faulty_since, state.delivered)
        out = self._digests.get(key)
        if out is None:
            out = self._digests[key] = {"state_digest": state_fingerprint(
                state, self._message_texts.__getitem__, self._sort_keys.__getitem__)}
        return out


def run(config: ScenarioConfig) -> Trace:
    """Execute a scenario to its horizon and return the trace."""
    return Simulation(config).run()
