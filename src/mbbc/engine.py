"""Deterministic synchronous round engine.

Each round runs five sub-phases in a fixed order:

1. ADVERSARY — agents move at the round boundary, as the failure schedule
   says; nothing is traced.
2. ORACLE   — cure notifications go to processes that were just freed
   (none under the no-awareness oracle); nothing is traced.
3. SEND     — correct processes run the protocol send phase (which
   performs the cure wipe) and send each message to every process; faulty
   processes emit exactly what the strategy dictates, with the sender stamp
   forced (links are authenticated). Each round SEND finds its groups in
   ``Simulation.states``, the one record of each process's state: a group
   is one ``ProtocolState`` object and the correct processes that hold it,
   in process order. The send phase runs once per group, and the group's
   members are the senders of its queue. A strategy dictates (receiver,
   message) pairs, a ``TO_ALL`` receiver standing for every process. A
   possessed sender each of whose messages reaches every process exactly
   once is a group of one; every other one is partial. A message one group
   holds takes that group's members as senders, and only a message several
   groups hold merges and sorts theirs, once per set of groups. Messages
   are ordered by ``sort_key``, kept per message beside its dict.
4. RECEIVE  — every message sent in the round is delivered in the round:
   no loss, duplication or reordering across rounds. Each distinct message
   sent to all is folded once, with all its senders, correct or possessed,
   into the round's common tallies, in message order. A process's inbox is
   its receipts from the partial senders, as (sender, message) pairs; only
   their receivers hold one. ``receive_phase`` folds each distinct inbox
   once into a copy of the common tallies, and every process that holds
   it, possessed or not, reads that one fold, read-only. A process with no
   such receipt reads the common tallies themselves, as every process does
   in a round without partial senders. Tallies are round-local, never
   part of a process's state.
   RECEIVE is the only place a fold is built: the strategies see every
   process's fold in the observation, and the history-forging ones run a
   possessed process's compute phase on that process's fold.
5. COMPUTE  — correct processes run the protocol compute phase on their
   tallies; each faulty process's state is replaced by whatever the
   strategy returns. The phase works at two levels. The fold's reading
   (``protocol.read_fold``: its majority counter, the READY and ABORT
   votes its quorums call for, and its READY quorums' earliest births)
   depends on the fold alone, so it is built once per fold, by the first
   class key or compute phase that reads the fold, and kept on the fold for
   every other class and faithful compute that reads it. The rest depends
   on the process: a correct process's phase depends only on its fold,
   its cure flags and its ``rc`` after the majority repair, which is the
   reading's majority counter, or the process's own when the reading has
   none. Those four values are the class key, the fold named by its
   identity, as every fold is held until the round ends. The
   members of a group share all but the fold, so the key is taken once per
   group, and a group is split by fold only in a round with partial
   senders. The first group, or part of one, that enters a class runs
   ``compute_phase``: in place on its state object when it is the whole
   group, else on a copy. Every later member of the class takes the
   outcome object itself; a freed process that re-enters with a stale
   counter thus joins the class its repair puts it in. A scheduled
   broadcast call joins its class like any other process, then takes a
   copy of the outcome whose queue gains the SEND, stamped with the
   repaired ``rc`` (``protocol.queue_broadcasts``). No state object that
   two processes hold is changed in place: a possessed process, a freed
   process and a broadcast caller each get a copy of their state before
   anything changes it, and a group's state changes in place only for the
   whole group. The send queue a state carries is immutable, so copies
   share it. Each class delivers in (source, payload) order and lists its
   members in process order, so ``deliver_calls`` builds the round's
   DELIVER_CALLs per set of delivering classes, and only an instance
   several classes deliver merges and sorts their members.

Every externally visible action is appended to a totally ordered trace as
an event ``(round, kind, subject, detail)``. Each kind is written in one
phase, so an event's phase is its kind's: P2P_SEND in SEND, and
BROADCAST_CALL, DELIVER_CALL and STATE_CORRUPTED in COMPUTE; ADVERSARY,
ORACLE and RECEIVE write nothing. The schedule in the header's config fixes
the agents' moves and the cures: its stays are the moves, and
``deliver_oracle_events`` reads each round's cures from
``FailureSchedule.cures``, a table the schedule builds once.

A possessed process writes one STATE_CORRUPTED per faulty span (a maximal
run of rounds in which it is faulty), in the span's last round within the
horizon: the digest of the state it holds after that round, the state its
cure finds. That state is how a stay reaches the protocol once the agent
leaves; all else a possessed process does is its traced sends. The trace
holds no digest of a span's earlier rounds: a reader that needs one steps a
``Simulation`` and reads its ``states``.

A round's fan-outs are one P2P_SEND event per distinct list of senders,
correct or possessed, ``{"from": [senders], "messages": [m, …], "to":
"ALL"}``: the senders strictly increasing, the subject ``from[0]``, and
``messages`` every message, in message order, that exactly those senders
sent to all. The fan-outs are ordered by their first message, so each
(sender, message) pair stands in one of them. A partial sender's send is
one event per (sender, message), ``{"message": …, "to": [receivers]}``, the
receivers sorted with duplicates kept. A partial sender's message to every
process is dictated too: its ROUND votes replace each other in message
order, which a fold of some of its messages apart from the others would
not keep. The fan-outs come first, then the dictated sends in (sender,
message) order. Receipts are not traced; links are synchronous and
reliable, so ``deliveries`` derives them from the SEND events, which
``send_groups`` reads per (event, message) and ``round_sends`` expands to
one (sender, message, to) send per sender in (sender, message) order; a
process's tallies are a fold of its receipts, by (sender, message). A
round's deliveries are one DELIVER_CALL per distinct list of delivering
processes, ``{"by": [processes], "instances": [{"payload…": …, "source":
s}, …]}``: the processes strictly increasing, the subject ``by[0]``, and the
instances strictly increasing in (source, payload) order. They come after the round's
STATE_CORRUPTED and BROADCAST_CALL events, ordered by their first instance.
``compute_phase`` delivers in (source, payload) order, so each event's
instances are, in order, a subsequence of the deliveries of every process it
lists. That holds per event only: a process listed in several events
delivers their instances interleaved. ``delivered_instances`` expands each
event into one (event, instance) delivery group per instance, for every
reader of the DELIVER_CALLs. Each distinct message dict, instance dict and
STATE_CORRUPTED detail is built once per simulation, and the events that
carry it share it read-only.
Nothing in a run draws randomness, so a config fixes its trace bit for
bit; the trace's header is that config and the format, nothing more.

The JSONL (``Trace.to_jsonl``) writes each distinct message, instance,
process list (a fan-out's ``from``, a DELIVER_CALL's ``by``), receiver list
(a dictated send's ``to``) and state digest in full once per trace, and
cites it after that by its index in the trace's table of that kind
(``event_lines``). In memory nothing is cited: a parsed trace's events
share each value the tables hold, read-only, as the engine's events share
the dicts it builds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sys
from dataclasses import dataclass, field
from itertools import islice
from operator import lt, methodcaller
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .adversary import Observation, Strategy, build_strategy
from .messages import TO_ALL, ProtocolMessage, compact_json, decode_payload, encode_payload
from .model import FailureSchedule, OracleKind, shown
from .protocol import (
    ProtocolState,
    Tallies,
    compute_phase,
    init_state,
    on_cured,
    on_p2p_deliver,
    queue_broadcasts,
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

# The header's ``format``: a header of the config and the format alone; per
# round, one P2P_SEND per list of fan-out senders, correct or possessed,
# listing its messages, and one per partial sender's (sender, message),
# listing its receivers; no receipts, agent moves or cures; one
# DELIVER_CALL per list of delivering processes, listing its (source,
# payload) instances; one STATE_CORRUPTED per faulty span, in its last round
# within the horizon, the digest of a state's four fields
# (``protocol.state_fingerprint``) that the cure finds; each distinct message,
# instance, process list, receiver list and state digest written in full
# once, and cited by its index after that.
TRACE_FORMAT = "mbbc-trace/14"
# Each detail's one key set, by kind (a P2P_SEND's by its ``to``), and an
# instance object's: the reader refuses any other key, and ``event_lines``
# writes each of these details from its template.
_PAYLOAD_KEYS = frozenset({"payload", "payload_hex"})
_FAN_OUT_KEYS = frozenset({"from", "messages", "to"})
_DICTATED_KEYS = frozenset({"message", "to"})
_DETAIL_KEYS = {kind: (keys, f"a {kind}") for kind, keys in [
    (KIND_BROADCAST_CALL, _PAYLOAD_KEYS), (KIND_DELIVER_CALL, frozenset({"by", "instances"})),
    (KIND_STATE_CORRUPTED, frozenset({"state_digest"}))]}
_INSTANCE_KEYS = _PAYLOAD_KEYS | {"source"}

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


# An event line is ``encode_line(ev.to_dict())``: the keys sorted, so the
# detail first, then kind, round and subject. Each known kind maps to the
# text between the detail and the round's digits.
_LINE_MIDDLES = {kind: f',"kind":"{kind}","round":' for kind in KINDS}


def event_lines(events: Iterable[TraceEvent],
                tables: tuple[dict[str, int], ...] | None = None) -> list[str]:
    """Each event's trace line.

    Without ``tables`` each line is ``encode_line(ev.to_dict())`` and stands
    alone, as a projection's lines must. ``tables`` is the five citation
    tables of ``_CITED``, in its order, each mapping a value's encoded text
    to its index: every JSON object in a fan-out's ``messages``, a send's
    ``message`` (beside any other ``to``) or a DELIVER_CALL's ``instances``,
    every list in a fan-out's ``from``, a DELIVER_CALL's ``by`` or a
    dictated send's ``to``, and every string in a STATE_CORRUPTED's
    ``state_digest`` is written in full at the first use of its text, which
    appends the text to its table, and as its int index at every later use.
    The tables are the caller's, so their definitions carry over from one
    call to the next; ``Trace.to_jsonl`` passes empty ones.

    The outer layout is written from a template, and each detail object and
    each message and instance object is encoded once per call, by identity,
    as is a dictated send's ``from`` and each value a template places when
    there are no tables (a projection's groups share their lists of senders
    and of receivers): the memos hold
    every object they have encoded, so no id is reused while they live. A
    detail's line is kept for a later event that shares the detail only
    when it defines nothing. A detail must therefore stay unchanged while
    its lines are written, which ``TraceEvent``'s contract (a read-only
    detail) gives. An event, or a detail, that the template does not cover
    is encoded whole: no detail the reader accepts lies outside it.
    """
    encoded: dict[int, tuple[object, str]] = {}

    def encode(value) -> str:
        hit = encoded.get(id(value))
        if hit is None:
            hit = encoded[id(value)] = (value, encode_line(value))
        return hit[1]

    # One entry per value the tables gain: a line that adds none defines nothing.
    defined: list[int] = []
    if tables is None:
        cite_message = cite_instance = cite_processes = cite_receivers = cite_digest = encode
    else:
        cite_message, cite_instance, cite_processes, cite_receivers, cite_digest = (
            _citer(table, defines, defined) for table, defines in zip(tables, _CITED))

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
            before = len(defined)
            if (kind == KIND_P2P_SEND and "message" in detail and "to" in detail
                    and len(detail) == 2 + ("from" in detail) and detail["to"] != TO_ALL):
                senders = f'"from":{encode(detail["from"])},' if "from" in detail else ""
                body = (f'{{{senders}"message":{cite_message(detail["message"])},'
                        f'"to":{cite_receivers(detail["to"])}}}')
            elif (kind == KIND_P2P_SEND and len(detail) == 3 and "from" in detail
                    and type(detail.get("messages")) is list and detail["messages"]
                    and detail.get("to") == TO_ALL):
                body = (f'{{"from":{cite_processes(detail["from"])},'
                        f'"messages":[{",".join(map(cite_message, detail["messages"]))}],'
                        f'"to":{encode(detail["to"])}}}')
            elif (kind == KIND_DELIVER_CALL and len(detail) == 2 and "by" in detail
                    and type(detail.get("instances")) is list and detail["instances"]):
                body = (f'{{"by":{cite_processes(detail["by"])},'
                        f'"instances":[{",".join(map(cite_instance, detail["instances"]))}]}}')
            elif kind == KIND_STATE_CORRUPTED and len(detail) == 1 and "state_digest" in detail:
                body = f'{{"state_digest":{cite_digest(detail["state_digest"])}}}'
            else:
                body = encode_line(detail)
            if len(defined) == before:
                encoded[id(detail)] = (detail, body)
        lines.append(f'{{"detail":{body}{middle}{rnd},"subject":{subject}}}')
    return lines


# The citation tables of ``mbbc-trace/10``, in the order ``event_lines``
# takes them and ``_Tables`` holds them, each with the JSON type a value of
# its places must have to be defined there: messages, instances, process
# lists (``from`` and ``by``), receiver lists (a dictated send's ``to``)
# and state digests.
_CITED = (dict, dict, list, list, str)


def _citer(table: dict[str, int], defines: type, defined: list[int]) -> Callable[[object], str]:
    """A writer of the values of ``table``'s places: a value of type
    ``defines`` in full at the first use of its text, which appends the text
    to ``table`` and its index to ``defined``, and as its index after that;
    any other value as it is. A JSON object is encoded once, by identity,
    and its memo holds it, so no id is reused; a list or a string, which the
    engine builds afresh at each use, is encoded at each use."""
    def cite(value) -> str:
        text = encode_line(value)
        if isinstance(value, defines):
            size = len(table)
            index = table.setdefault(text, size)
            if index != size:
                return str(index)
            defined.append(index)
        return text

    if defines is not dict:
        return cite
    written: dict[int, tuple[object, str]] = {}

    def cite_object(value) -> str:
        hit = written.get(id(value))
        if hit is not None:
            return hit[1]
        text = cite(value)
        # Every later use cites the object's entry: a written object's text
        # is a key of ``table``, and no citation or other value's text is.
        written[id(value)] = (value, str(table.get(text, text)))
        return text

    return cite_object


@dataclass
class Trace:
    config: dict
    events: list[TraceEvent] = field(default_factory=list)

    def to_jsonl(self) -> str:
        lines = [encode_line({"config": self.config, "format": TRACE_FORMAT})]
        lines.extend(event_lines(self.events, tuple({} for _ in _CITED)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        """Parse and validate a trace; a bad line raises a ValueError naming it.

        The header holds exactly ``config`` and ``format``: this ``format``
        and a config with int ``n`` and ``horizon``.
        An event holds exactly ``detail``, ``kind``, ``round`` and
        ``subject``: a known kind, a round in [1, horizon], a subject in
        [0, n) and a dict detail of its one key set; any other key is
        named. A P2P_SEND's ``to`` is either "ALL", beside a ``from`` of
        strictly increasing senders in [0, n) whose first is the subject and
        a non-empty list of ``messages``, or a non-empty, sorted list of
        receivers in [0, n) beside a ``message``. A DELIVER_CALL's ``by`` is
        a list of strictly increasing processes in [0, n) whose first is the
        subject, and its ``instances`` a non-empty list, strictly increasing
        in (source, payload) order. A BROADCAST_CALL's payload decodes. A
        STATE_CORRUPTED's ``state_digest`` is 64 lowercase hex digits.

        Each of these values is either a definition, which the reader checks
        once, under the rule of its table, and appends to it, or a
        type-exact int citing an entry already there (``_Tables``): a
        message is a JSON object that ``ProtocolMessage.from_dict`` reads,
        an instance a JSON object of an int ``source`` and one payload that
        decodes; a ``from`` or a ``by`` is a process list, a dictated ``to``
        a receiver list, and a ``state_digest`` a digest. A citation costs a
        lookup, and of a process list also the check of its first entry
        against the line's subject. Each line is read as ``json.loads`` reads
        it (``_json_object`` scans a short line in C first) and checked
        whole, and each event has a detail of its own, but the values in it
        are the table's, shared read-only by every event that cites them.
        """
        numbered = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
                    if ln.strip()]
        if not numbered:
            raise ValueError("empty trace file")
        number, line = numbered[0]
        what = "header"
        scan_chars = sys.getrecursionlimit() // 2
        try:
            config = _header_config(_json_object(line, scan_chars))
            n, horizon = config["n"], config["horizon"]
            what = "event"
            tables = _Tables([], [], [], [], [], [])
            events = []
            for number, line in numbered[1:]:
                events.append(_event(_json_object(line, scan_chars), n, horizon, tables))
        except KeyError as exc:
            raise ValueError(f"trace line {number}: bad {what} line: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"trace line {number}: bad {what} line: {exc}") from None
        return cls(config=config, events=events)

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


def _unknown_key(data: dict, keys: frozenset[str], place: str = "") -> ValueError:
    """The refusal of an object with a key outside ``keys``, naming the
    first and the object's ``place`` in its line. Each caller tests
    ``data.keys() <= keys`` inline; a missing key is a KeyError later."""
    key = next(key for key in data if key not in keys)
    return ValueError(f"unknown key {shown(key)}" + (f" in {place}" if place else ""))


_HEADER_KEYS = frozenset({"config", "format"})
_EVENT_KEYS = frozenset({"detail", "kind", "round", "subject"})


def _header_config(header: dict) -> dict:
    """The config of a header; its ``format`` is read first, so a header of
    another format is refused for that format, whatever else it holds."""
    if header["format"] != TRACE_FORMAT:
        raise ValueError(f"format {shown(header['format'])} is not {TRACE_FORMAT!r}")
    if not header.keys() <= _HEADER_KEYS:
        raise _unknown_key(header, _HEADER_KEYS)
    config = header["config"]
    if not isinstance(config, dict):
        raise ValueError("config is not a JSON object")
    for key in ("n", "horizon"):
        if type(config[key]) is not int or config[key] < 1:
            raise ValueError(f"config {key} is not a positive int")
    return config


class _Tables(NamedTuple):
    """The citation tables of a trace being read, in definition order: each
    message, each instance and each instance's (source, payload), each
    process list (a fan-out's ``from`` or a DELIVER_CALL's ``by``), each
    receiver list (a dictated send's ``to``) and each state digest. An
    entry is appended once its definition passes its place's checks, so a
    citation of it needs only a lookup; a cited process list's first entry
    is still checked against each citing line's subject."""

    messages: list[dict]
    instances: list[dict]
    instance_keys: list[tuple[int, bytes]]
    processes: list[list[int]]
    receivers: list[list[int]]
    digests: list[str]


def _event(data: dict, n: int, horizon: int, tables: _Tables) -> TraceEvent:
    if not data.keys() <= _EVENT_KEYS:
        raise _unknown_key(data, _EVENT_KEYS)
    rnd, kind, subject, detail = data["round"], data["kind"], data["subject"], data["detail"]
    if kind not in KINDS:
        raise ValueError(f"unknown kind {shown(kind)}")
    if type(rnd) is not int or not 1 <= rnd <= horizon:
        raise ValueError(f"round {shown(rnd)} outside 1..{horizon}")
    if type(subject) is not int or not 0 <= subject < n:
        raise ValueError(f"subject {shown(subject)} outside 0..{n - 1}")
    _check_detail(kind, detail, subject, n, tables)
    return tuple.__new__(TraceEvent, (rnd, kind, subject, detail))


def _check_detail(kind: str, detail, subject: int, n: int, tables: _Tables) -> None:
    """The detail keys a reader of the trace relies on, and no other. The
    subject of a fan-out is its ``from[0]``, and of a DELIVER_CALL its
    ``by[0]``. Each citation is replaced, in place, by the table entry it
    cites."""
    if not isinstance(detail, dict):
        raise ValueError("detail is not a JSON object")
    if kind == KIND_P2P_SEND:
        to, table = detail["to"], tables.messages
        if to == TO_ALL:
            if not detail.keys() <= _FAN_OUT_KEYS:
                raise _unknown_key(detail, _FAN_OUT_KEYS, "a send to 'ALL'")
            messages = detail["messages"]
            if not (isinstance(messages, list) and messages and _resolved_messages(messages, table)):
                raise _not_a_list("messages", messages)
            detail["from"] = _check_processes("from", detail["from"], subject, n, tables.processes)
            return
        message = [detail["message"]]
        if not _resolved_messages(message, table):
            raise ValueError("message is not a JSON object")
        detail["message"] = message[0]
        table = tables.receivers
        if type(to) is int and 0 <= to < len(table):
            detail["to"] = table[to]
        elif (isinstance(to, list) and _INT.issuperset(map(type, to))
                and (not to or 0 <= min(to) and max(to) < n)):
            if not to:
                raise ValueError("to [] names no receiver")
            if to != sorted(to):
                raise ValueError(f"to {shown(to)} is not sorted")
            table.append(to)
        elif isinstance(to, (int, float)):
            raise _bad_citation("receiver list", table, to)
        else:
            raise ValueError(f"to {shown(to)} is neither {TO_ALL!r} nor a list of receivers in 0..{n - 1}")
        if not detail.keys() <= _DICTATED_KEYS:
            raise _unknown_key(detail, _DICTATED_KEYS, "a send to a list of receivers")
        return
    keys, place = _DETAIL_KEYS[kind]
    if not detail.keys() <= keys:
        raise _unknown_key(detail, keys, place)
    if kind == KIND_STATE_CORRUPTED:
        digest, table = detail["state_digest"], tables.digests
        if type(digest) is int and 0 <= digest < len(table):
            detail["state_digest"] = table[digest]
        elif type(digest) is str and len(digest) == 64 and _HEX.issuperset(digest):
            table.append(digest)
        elif isinstance(digest, (int, float)):
            raise _bad_citation("digest", table, digest)
        else:
            raise ValueError(f"state_digest {shown(digest)} is not 64 lowercase hex digits")
    elif kind == KIND_BROADCAST_CALL:
        decode_payload(detail)
    elif kind == KIND_DELIVER_CALL:
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
                if not instance.keys() <= _INSTANCE_KEYS:
                    raise _unknown_key(instance, _INSTANCE_KEYS, "an instance")
                if type(instance["source"]) is not int:
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
        detail["by"] = _check_processes("by", detail["by"], subject, n, tables.processes)


def _resolved_messages(values: list, table: list[dict]) -> bool:
    """Append each JSON object of ``values`` to ``table``, the messages so
    far, once ``ProtocolMessage.from_dict`` reads it as a message, and
    replace each int that cites one by it; any other number is refused, and
    any other value returns False."""
    for i, value in enumerate(values):
        if type(value) is int and 0 <= value < len(table):
            values[i] = table[value]
        elif isinstance(value, dict):
            ProtocolMessage.from_dict(value)
            table.append(value)
        elif isinstance(value, (int, float)):
            raise _bad_citation("message", table, value)
        else:
            return False
    return True


def _not_a_list(key: str, values) -> ValueError:
    """The refusal of a ``values`` that is not a non-empty list of JSON
    objects and citations (numbers)."""
    return ValueError(f"{key} {shown(values)} is not a non-empty list of JSON objects")


def _bad_citation(name: str, table: list, value) -> ValueError:
    """The refusal of a number ``value`` that cites none of ``table``, the
    ``name`` values defined so far: not a type-exact int, or out of range."""
    if type(value) is not int:
        return ValueError(f"{name} citation {shown(value)} is not an int")
    if not table:
        return ValueError(f"{name} citation {value} cites nothing: no {name} is defined yet")
    return ValueError(f"{name} citation {value} is outside 0..{len(table) - 1}, "
                      f"the {name}s defined so far")


# The digits of a STATE_CORRUPTED's ``state_digest``, a sha256 in lowercase hex.
_HEX = frozenset("0123456789abcdef")
# The one type a process or receiver list holds: ``_INT.issuperset(map(type,
# xs))`` tests every entry in C, and rejects a bool as ``True == 1`` would not.
_INT = frozenset({int})


def _check_processes(key: str, processes, subject: int, n: int, table: list[list[int]]) -> list[int]:
    """The process list ``processes`` is or cites in ``table``: a
    definition, appended to ``table``, must be a non-empty, strictly
    increasing list of processes in [0, n); and either way its first entry
    must be ``subject``."""
    if type(processes) is int and 0 <= processes < len(table):
        processes = table[processes]
    elif (isinstance(processes, list) and processes and _INT.issuperset(map(type, processes))
            and 0 <= processes[0] and processes[-1] < n
            and all(map(lt, processes, islice(processes, 1, None)))):
        table.append(processes)
    elif isinstance(processes, (int, float)):
        raise _bad_citation("process list", table, processes)
    else:
        raise ValueError(f"{key} {shown(processes)} is not a non-empty, strictly increasing "
                         f"list of processes in 0..{n - 1}")
    if subject != processes[0]:
        raise ValueError(f"subject {subject} is not the first of its {key} list, {processes[0]}")
    return processes


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


def instance_detail(instance: tuple[int, bytes]) -> dict:
    """One (source, payload) instance as a DELIVER_CALL lists it."""
    return {"source": instance[0], **encode_payload(instance[1])}


def deliver_calls(r: int, delivering: Sequence[tuple[Sequence[tuple[int, bytes]], list[int]]],
                  instances: Mapping[tuple[int, bytes], dict]) -> list[TraceEvent]:
    """Round r's DELIVER_CALLs from the classes that deliver: each class's
    (source, payload) deliveries in that order and its members in process
    order, no process in two classes that deliver one instance. One event
    per distinct set of classes that deliver an instance, its ``by`` their
    members, merged, its ``instances`` the dicts ``instances`` maps them to,
    the events in order of their first instances."""
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


def _dictated(sender: int, sends: Sequence[tuple[int | str, ProtocolMessage]],
              sort_key: Callable[[ProtocolMessage], tuple], everyone: list[int]
              ) -> tuple[list[tuple[int, ProtocolMessage, list[int]]], bool]:
    """A possessed sender's dictated (receiver, message) pairs as outbox
    entries, and whether each entry reaches every process exactly once. One
    entry per distinct message, in message order (``sort_key``), its
    receivers sorted with duplicates kept, a list of the entry's own; a
    ``TO_ALL`` receiver stands for each process of ``everyone``."""
    receivers: dict[ProtocolMessage, list] = {}
    for receiver, msg in sends:
        receivers.setdefault(msg, []).append(receiver)
    entries = []
    reaches_all = True
    for msg in sorted(receivers, key=sort_key):
        to = receivers[msg]
        if to == [TO_ALL]:
            to = everyone[:]
        else:
            if TO_ALL in to:
                to = [q for q in to if q != TO_ALL] + everyone * to.count(TO_ALL)
            to.sort()
            reaches_all = reaches_all and to == everyone
        entries.append((sender, msg, to))
    return entries, reaches_all


def _by_fold(members: list[int], tallies: Sequence[Tallies]) -> list[tuple[list[int], Tallies]]:
    """A group's members split by the fold each reads, each part in process
    order with its fold; ``members`` itself when all read one fold."""
    parts: dict[int, tuple[list[int], Tallies]] = {}
    for p in members:
        fold = tallies[p]
        part = parts.get(id(fold))
        if part is None:
            parts[id(fold)] = ([p], fold)
        else:
            part[0].append(p)
    if len(parts) == 1:
        return [(members, tallies[members[0]])]
    return list(parts.values())


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


class Memo(dict):
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
        # Each process's state, the one record of it: processes may share an
        # object (see the module docstring), and at the start all of them do.
        self.states: list[ProtocolState] = [init_state()] * config.n
        self._everyone = list(range(config.n))
        self.trace = Trace(config=config.to_dict())
        self.round = 0
        # Each round's broadcast calls: caller -> payloads.
        self._broadcasts: dict[int, dict[int, list[bytes]]] = {}
        # Each distinct message's ``sort_key()`` and ``to_dict()``, and each
        # (source, payload)'s instance dict, built once and shared
        # read-only. Messages are type-exact (``ProtocolMessage`` takes no
        # bool for an int), so equal keys encode to equal JSON.
        self._sort_keys = Memo(methodcaller("sort_key"))
        self._message_dicts = Memo(methodcaller("to_dict"))
        self._instances = Memo(instance_detail)
        self._digests: dict[tuple, dict] = {}
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
        # Each freed process is cured on a copy of its state, which other
        # processes may hold.
        for p, since in deliver_oracle_events(schedule, r, self.config.setting.oracle):
            state = states[p] = states[p].copy()
            on_cured(state, since)

        # SEND: one send phase per group of correct processes that hold one
        # state object, its members, in process order, the senders of its
        # queue; a possessed process sends what the strategy dictates. Each
        # possessed process gets a copy of its state, as a strategy may
        # change it.
        by_state: dict[int, tuple[ProtocolState, list[int]]] = {}
        for p, state in enumerate(states):
            if p in faulty:
                states[p] = state.copy()
                continue
            group = by_state.get(id(state))
            if group is None:
                by_state[id(state)] = (state, [p])
            else:
                group[1].append(p)
        groups = by_state.values()
        sending = [(senders, send_phase(state)) for state, senders in groups]
        obs = Observation(schedule=schedule, states=states)
        sort_key, message_dicts = self._sort_keys.__getitem__, self._message_dicts
        # A possessed sender each of whose messages reaches every process
        # exactly once sends as a group of one; every other one's entries
        # are partial, in (sender, message) order, and reach the inboxes.
        partial: list[tuple[int, ProtocolMessage, list[int]]] = []
        for p in sorted(faulty):
            sends = strategy.dictate_sends(p, r, obs)
            if sends:
                entries, reaches_all = _dictated(p, sends, sort_key, self._everyone)
                if reaches_all:
                    sending.append(([p], [msg for _p, msg, _to in entries]))
                else:
                    partial += entries
        # A message one group holds has that group's members as senders; one
        # several hold, the union of theirs, sorted, built once per set of
        # groups: each group joins each list held before its walk began once
        # (those lists all lived at that point, so no two share an id).
        fan_outs: dict[ProtocolMessage, list[int]] = {}
        for senders, messages in sending:
            unions: dict[int, list[int]] = {}
            for msg in messages:
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
        # COMPUTE extends a class's list of members in place, and that list
        # may be a group's, so each fan-out's ``from`` is a copy of its own.
        for senders, messages in fan_out_messages.values():
            emit(TraceEvent(r, KIND_P2P_SEND, senders[0],
                            {"from": senders[:], "messages": messages, "to": TO_ALL}))
        for sender, msg, to in partial:
            emit(TraceEvent(r, KIND_P2P_SEND, sender, {"message": message_dicts[msg], "to": to}))

        # RECEIVE: synchronous reliable delivery of everything sent this round.
        # No fan-out sender has a partial entry, and each sender's messages
        # fold in message order, as its receipts do: the common fold plus a
        # receiver's partial receipts is its whole inbox.
        common = Tallies()
        for msg in ordered:
            on_p2p_deliver(common, fan_outs[msg], msg)
        obs.tallies = tallies = (receive_phase(common, _inboxes(partial, n)) if partial
                                 else [common] * n)

        # COMPUTE, run once per class of equal inputs (see the module docstring).
        # The first read of a fold builds its reading, which the fold keeps;
        # a group that holds the fold the group before it held reads it
        # without a call. The reading's majority is the repaired counter of
        # the key.
        F = variant.effective_f
        # Each class: its outcome, its deliveries and its members.
        classes: dict[tuple, list] = {}
        last_fold = majority = None
        for state, members in groups:
            for part, fold in _by_fold(members, tallies) if partial else ((members, common),):
                if fold is not last_fold:
                    last_fold, majority = fold, read_fold(fold, n, F).majority
                key = (id(fold), state.cured, state.cured_faulty_since,
                       state.rc if majority is None else majority)
                found = classes.get(key)
                if found is None:
                    # In place when the part is every holder of the state.
                    outcome = state if part is members else state.copy()
                    classes[key] = [outcome, compute_phase(outcome, fold, variant, n), part]
                    if outcome is state:
                        continue
                else:
                    outcome = found[0]
                    found[2] += part
                for p in part:
                    states[p] = outcome
        # The possessed processes' states, each digested where its faulty
        # span ends, and the correct broadcast callers' SENDs, in process
        # order. A caller's SEND, stamped with the repaired counter, goes to
        # a copy of its class's outcome, its own.
        broadcasts = self._broadcasts.get(r)
        callers = broadcasts.keys() - faulty if broadcasts else ()
        ending = faulty if r == self.config.horizon else faulty - schedule.faulty_set(r + 1)
        for p in sorted(faulty.union(callers)) if callers else sorted(faulty):
            if p in faulty:
                state = states[p] = strategy.corrupt_state(p, r, obs)
                if p in ending:
                    emit(TraceEvent(r, KIND_STATE_CORRUPTED, p, self._corrupted_detail(state)))
            else:
                payloads = broadcasts[p]
                for payload in payloads:
                    emit(TraceEvent(r, KIND_BROADCAST_CALL, p, dict(encode_payload(payload))))
                state = states[p] = states[p].copy()
                queue_broadcasts(state, p, payloads)
        # A class that several groups entered lists their members in turn.
        delivering = []
        for _outcome, delivered, members in classes.values():
            if delivered:
                members.sort()
                delivering.append((delivered, members))
        if delivering:
            self.trace.events += deliver_calls(r, delivering, self._instances)

    def _corrupted_detail(self, state: ProtocolState) -> dict:
        """A STATE_CORRUPTED detail, digested and built once per distinct state
        and shared read-only."""
        key = (state.to_send, state.rc, state.cured, state.cured_faulty_since)
        out = self._digests.get(key)
        if out is None:
            out = self._digests[key] = {"state_digest": state_fingerprint(
                state, sort_key=self._sort_keys.__getitem__)}
        return out


def run(config: ScenarioConfig) -> Trace:
    """Execute a scenario to its horizon and return the trace."""
    return Simulation(config).run()
