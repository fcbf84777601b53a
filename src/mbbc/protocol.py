"""The broadcast-channel protocol as a deterministic per-process state machine.

A broadcast instance is keyed by (source, birth_round, payload) and moves
through four message stages: the source queues SEND in the birth round; every
process that receives a well-formed SEND echoes it; a process that collects
strictly more than (n+F)/2 ECHO votes queues READY, while one that collects
more than F but not a quorum queues ABORT. A READY quorum (more than 2F
distinct voters) on a key with at most F ABORT votes triggers delivery under
a variant-specific gate and is re-queued forever so that temporarily faulty
processes can still catch the quorum later.

All quorum comparisons are exact integer arithmetic (2*count > n+F); there is
no floating point anywhere. Votes are per-sender sets, so repeated messages
from one sender never inflate a tally.

A process's state (``ProtocolState``) is only what survives a round, which is
what an agent corrupts and a cured process resumes from. The vote tallies
(``Tallies``) are round-local: the receive phase builds them from the round's
traffic and the compute phase only reads them, which caps the influence of
any single faulty round.

The compute phase works at two levels. What depends on the tallies alone is
the fold's reading (``FoldReading``), taken once per fold and kept on it: the
ROUND majority that more than F votes back, the READY and ABORT votes its ECHO
quorums and relayable READY quorums call for, and the earliest birth of each
(source, payload) with a READY quorum. What depends on the process is applied
per call: the counter repair, the ECHOs of SENDs born one round before the
repaired counter, the process's own broadcast SENDs, the delivery gate and
the ROUND vote.

Three variants share the machine and differ only in the delivery gate and the
effective fault bound F:

* ``FFA_FULL``  — F = f. Deliver exactly in round birth+3, or on the cure of a
  stay that had begun by birth+3 (the full-awareness oracle supplies that
  start round). Gives the no-duplication guarantee.
* ``BFA_WEAK``  — F = f. No faulty-at knowledge, so every cure after birth+3
  re-delivers: duplicates once per cure, by design.
* ``NFA_WEAK``  — F = 2f (a freed process may flush one round of poisoned
  queue, so up to 2f processes misbehave per round). No oracle at all: deliver
  at every round >= birth+3 that shows a quorum.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .messages import MessageKind, ProtocolMessage, compact_json, echo_msg, round_msg, send_msg

InstanceKey = tuple[int, int, bytes]

# Read once here: an Enum class attribute costs a lookup per message.
_SEND, _ECHO, _READY, _ABORT, _ROUND = (MessageKind.SEND, MessageKind.ECHO, MessageKind.READY,
                                         MessageKind.ABORT, MessageKind.ROUND)
# Builds a ProtocolMessage from fields already validated, skipping ``__new__``'s checks.
_trusted = tuple.__new__

# Rounds from a broadcast to its delivery at a process correct throughout:
# the SEND, the ECHO quorum and the READY quorum take one round each.
DELIVERY_DELAY = 3


class VariantTag(Enum):
    FFA_FULL = "FFA_FULL"
    BFA_WEAK = "BFA_WEAK"
    NFA_WEAK = "NFA_WEAK"


@dataclass(frozen=True)
class Variant:
    """Protocol variant plus the effective fault bound used in every quorum."""

    tag: VariantTag
    effective_f: int

    @classmethod
    def for_tag(cls, tag: VariantTag, f: int) -> "Variant":
        return cls(tag, 2 * f if tag is VariantTag.NFA_WEAK else f)


@dataclass(slots=True)
class ProtocolState:
    """One process's protocol variables: what carries over between rounds.

    ``delivered`` is bookkeeping for the FFA_FULL gate only: it suppresses the
    pathological case where both gate branches could fire for one (source,
    payload) under adversarial schedules. It is part of the corruptible state,
    so it never substitutes for the gate logic itself.

    ``to_send`` and ``delivered`` are frozensets: a phase that changes one
    assigns a new set, so states may share them.
    """

    to_send: frozenset[ProtocolMessage] = frozenset()
    cured: bool = False
    cured_faulty_since: int | None = None
    rc: int = 1
    delivered: frozenset[tuple[int, bytes]] = frozenset()


class FoldReading(NamedTuple):
    """What the compute phase reads from one fold, whatever the process:
    ``majority``, the ROUND value more than F votes back, else None; ``votes``,
    the READY and ABORT messages the ECHO quorums and relayable READY quorums
    call for; ``ready_births``, each (source, payload) with a READY quorum and
    its earliest birth, in (source, payload) order."""

    majority: int | None
    votes: frozenset[ProtocolMessage]
    ready_births: tuple[tuple[tuple[int, bytes], int], ...]


@dataclass
class Tallies:
    """The votes one process received in one round. Read-only once built: the
    engine hands one fold to every process that received the same messages.

    ``readings`` keeps the fold's ``FoldReading`` per (n, F) once
    ``read_fold`` has taken it; it is not part of the votes, so equality
    ignores it."""

    sends: set[InstanceKey] = field(default_factory=set)
    echos: dict[InstanceKey, set[int]] = field(default_factory=dict)
    readys: dict[InstanceKey, set[int]] = field(default_factory=dict)
    aborts: dict[InstanceKey, set[int]] = field(default_factory=dict)
    rc_votes: dict[int, int] = field(default_factory=dict)
    readings: dict[tuple[int, int], FoldReading] = field(default_factory=dict, compare=False,
                                                         repr=False)


def init_state() -> ProtocolState:
    """Fresh state: empty collections, not cured, round counter 1."""
    return ProtocolState()


def on_cured(state: ProtocolState, faulty_since: int | None = None) -> None:
    """Oracle upcall: mark the process cured; FFA also reports when the stay began."""
    state.cured = True
    state.cured_faulty_since = faulty_since


def send_phase(state: ProtocolState) -> frozenset[ProtocolMessage]:
    """Return the messages to send to every process this round: the queue
    itself, in no particular order, as the engine orders a round's sends.

    A cured process discards its whole queue instead: anything in it may have
    been planted by the departed agent.
    """
    if state.cured:
        state.to_send = frozenset()
    return state.to_send


def receive(common: Tallies, receipts: Sequence[tuple[int, ProtocolMessage]]) -> Tallies:
    """One receive phase: ``common`` with ``receipts``, (sender, message)
    pairs, folded in order.

    ``common`` holds the traffic every process received this round, folded
    once; ``receipts`` are what this process alone received. With no receipts
    the result is ``common`` itself; otherwise it is a copy, every vote set
    copied, so ``common`` is left as it was.
    """
    if not receipts:
        return common
    tallies = Tallies(set(common.sends), _copy_votes(common.echos), _copy_votes(common.readys),
                      _copy_votes(common.aborts), dict(common.rc_votes))
    for sender, msg in receipts:
        on_p2p_deliver(tallies, (sender,), msg)
    return tallies


def _copy_votes(votes: dict[InstanceKey, set[int]]) -> dict[InstanceKey, set[int]]:
    return {key: set(voters) for key, voters in votes.items()}


def on_p2p_deliver(tallies: Tallies, senders: Collection[int], msg: ProtocolMessage) -> None:
    """Record one message, received from each of ``senders``, into a round's
    tallies: the same as recording it once per sender, in any order.

    A SEND counts only when its source field is one of its authenticated
    senders; vote maps hold sender sets, so duplicates from one sender are
    idempotent. A ROUND vote replaces the sender's earlier one, so a sender's
    messages must be recorded in the order it sent them.
    """
    kind = msg.kind
    if kind is _ROUND:
        tallies.rc_votes.update(dict.fromkeys(senders, msg.round_value))
        return
    key = msg[1:4]  # (source, birth_round, payload)
    if kind is _SEND:
        if msg.source in senders:
            tallies.sends.add(key)
        return
    votes = tallies.readys if kind is _READY else tallies.echos if kind is _ECHO else tallies.aborts
    votes.setdefault(key, set()).update(senders)


def get_majority(votes: Iterable[int], min_backing: int = 0) -> int | None:
    """Most frequent round vote; ties break toward the larger value; None without votes.

    A plurality value is adopted only when it has strictly more than
    ``min_backing`` votes — at least one vote the adversary cannot have forged;
    otherwise the result is None. Without the guard the counter is hijackable
    in round 1, when no honest vote has been sent yet and forged votes are the
    only input. Under n > 3f at least n-2f identical honest votes clear the
    guard and dominate any forged value, which is what keeps all correct
    counters equal; the tie-break exists only to stay deterministic on invalid
    scenarios.
    """
    counts: dict[int, int] = {}
    for vote in votes:
        counts[vote] = counts.get(vote, 0) + 1
    if not counts:
        return None
    value, count = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return value if count > min_backing else None


def read_fold(tallies: Tallies, n: int, F: int) -> FoldReading:
    """The fold's reading for n processes and fault bound F, taken on the
    first call and kept on ``tallies`` for the next. A key with more than F
    ABORT votes has no READY quorum.

    Each vote is built straight from its key, without ``ProtocolMessage``'s
    checks. That is sound only because every key in the vote maps is the
    (source, birth_round, payload) of a received message, validated when it
    was built: a vote equals ``ready_msg(*key)`` or ``abort_msg(*key)``."""
    reading = tallies.readings.get((n, F))
    if reading is not None:
        return reading
    votes: list[ProtocolMessage] = []
    for (source, birth, payload), voters in tallies.echos.items():
        if 2 * len(voters) > n + F:
            votes.append(_trusted(ProtocolMessage, (_READY, source, birth, payload, None)))
        elif len(voters) > F:
            votes.append(_trusted(ProtocolMessage, (_ABORT, source, birth, payload, None)))
    min_birth: dict[tuple[int, bytes], int] = {}
    for key, voters in tallies.readys.items():
        if len(voters) > 2 * F and len(tallies.aborts.get(key, ())) <= F:
            # Relay forever, delivered or not: later-cured processes need the quorum.
            source, birth, payload = key
            votes.append(_trusted(ProtocolMessage, (_READY, source, birth, payload, None)))
            instance = (source, payload)
            min_birth[instance] = min(birth, min_birth.get(instance, birth))
    reading = tallies.readings[n, F] = FoldReading(
        get_majority(tallies.rc_votes.values(), min_backing=F), frozenset(votes),
        tuple(sorted(min_birth.items())))
    return reading


def compute_phase(
    state: ProtocolState,
    tallies: Tallies,
    self_id: int,
    variant: Variant,
    n: int,
    broadcasts: Sequence[bytes] = (),
) -> list[tuple[int, bytes]]:
    """Run one compute phase on the round's ``tallies``, which it only reads;
    returns the deliveries (source, payload) it triggers, in (source,
    payload) order. A (source, payload) with READY quorums at several births
    goes through the delivery gate once, with the earliest birth.

    The fold's part comes from ``read_fold``, taken once per fold: its
    majority counter, its READY and ABORT votes, and its READY quorums with
    their earliest births. The phase applies the process's part in a fixed
    order: repair the round counter to the fold's majority (kept when none),
    apply any broadcast calls scheduled for this round (stamped with the
    repaired counter, before it increments), ECHO each SEND born the round
    before the repaired counter, put each READY quorum through the delivery
    gate, then clear the cure flags and increment the counter with its ROUND
    vote. The new queue is the fold's votes with the process's own messages;
    the old one is dropped.

    ``broadcasts`` serves the adversary's faithful compute of a possessed
    process. The engine passes none: a correct caller adopts its class's
    outcome, then adds the same SEND to its queue, stamped with the
    repaired counter, which is the incremented ``rc`` minus one.
    """
    reading = read_fold(tallies, n, variant.effective_f)
    if reading.majority is not None:
        state.rc = reading.majority
    rc = state.rc
    own = [round_msg(rc + 1)]
    for payload in broadcasts:
        own.append(send_msg(self_id, rc, payload))
    for source, birth, payload in tallies.sends:
        if rc == birth + 1:
            own.append(echo_msg(source, birth, payload))

    deliveries: list[tuple[int, bytes]] = []
    for instance, birth in reading.ready_births:
        if _delivery_gate(state, variant, birth):
            if variant.tag is VariantTag.FFA_FULL:
                if instance not in state.delivered:
                    state.delivered = state.delivered | {instance}
                    deliveries.append(instance)
            else:
                deliveries.append(instance)

    state.cured = False
    state.cured_faulty_since = None
    state.rc = rc + 1
    state.to_send = reading.votes.union(own)
    return deliveries


def adopt_compute(state: ProtocolState, done: ProtocolState) -> None:
    """Give ``state`` the outcome of the compute phase ``done`` has just run.

    Both must have entered the phase with the same tallies, cure flags and
    ``delivered``, and with ``rc`` values the majority repair turns into
    one, and ``done`` without a broadcast call: ``compute_phase`` would then
    leave ``state`` equal to ``done`` and return the same deliveries. A
    broadcast caller adopts too, then adds its SEND to its own queue. The
    queue and ``delivered`` are frozensets, so ``state`` shares ``done``'s
    rather than copying them.
    """
    state.to_send = done.to_send
    state.rc = done.rc
    state.delivered = done.delivered
    state.cured = done.cured
    state.cured_faulty_since = done.cured_faulty_since


def _delivery_gate(state: ProtocolState, variant: Variant, birth: int) -> bool:
    due = birth + DELIVERY_DELAY
    if variant.tag is VariantTag.NFA_WEAK:
        return state.rc >= due
    if state.rc == due:
        return True
    if not (state.cured and state.rc > due):
        return False
    if variant.tag is VariantTag.BFA_WEAK:
        return True
    # FFA_FULL: only the cure of a stay that had already begun by the due round.
    return state.cured_faulty_since is not None and state.cured_faulty_since <= due


# Compact JSON with sorted keys, the encoding of every digested value
# (``ProtocolMessage.to_json`` writes a message's): the one C encoder that
# ``messages.compact_json`` builds at import, or the pure-Python encoder,
# slower, where the C accelerator is absent.
_encode = compact_json


def state_fingerprint(state: ProtocolState,
                      message_text: Callable[[ProtocolMessage], str] = ProtocolMessage.to_json,
                      sort_key: Callable[[ProtocolMessage], tuple] | None = None) -> str:
    """Stable digest of a state's five fields, used to record corruption events in traces.

    The digest is the sha256 of one compact JSON object with sorted keys:
    ``cured``, ``cured_faulty_since``, ``delivered`` (sorted [source, payload
    hex] pairs), ``rc`` and ``to_send`` (the queued messages in message order,
    each as its ``to_dict``). It is assembled from each message's JSON text,
    ``message_text(m)``, in the order of ``sort_key(m)``; a caller that
    already holds the texts or the keys passes them, and the defaults call
    ``m.to_json()`` and ``m.sort_key()``. The bytes are the same either way.
    The other fields are written directly when each has its type (a bool, an
    int or None, an int, int sources), as the encoder would write them, and
    encoded otherwise, as ``True == 1`` is written differently.
    """
    cured, since, rc = state.cured, state.cured_faulty_since, state.rc
    delivered = sorted((s, p.hex()) for s, p in state.delivered)
    if (type(cured) is bool and type(rc) is int and (since is None or type(since) is int)
            and all(type(s) is int for s, _hex in delivered)):
        pairs = ",".join([f'[{s},"{h}"]' for s, h in delivered])
        head = (f'{{"cured":{"true" if cured else "false"},'
                f'"cured_faulty_since":{"null" if since is None else since},'
                f'"delivered":[{pairs}],"rc":{rc},"to_send":[')
    else:
        # ``to_send`` sorts last, so the encoding ends with its empty list: ``[]}``.
        head = _encode({"cured": cured, "cured_faulty_since": since, "delivered": delivered,
                        "rc": rc, "to_send": []})[:-2]
    queue = ",".join(map(message_text, sorted(state.to_send,
                                              key=sort_key or ProtocolMessage.sort_key)))
    return hashlib.sha256(f"{head}{queue}]}}".encode("utf-8")).hexdigest()
