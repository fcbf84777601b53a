"""Typed protocol messages.

Links are reliable and authenticated: the engine stamps the sender on every
send, and delivered bytes equal sent bytes. Payloads are raw ``bytes``;
JSON encoding uses a plain string when the payload is printable UTF-8 and a
hex escape otherwise.
"""

from __future__ import annotations

from enum import Enum
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

from .model import shown

# Compact JSON with sorted keys, the text of every trace line, config
# fingerprint and digested value: ``json.dumps(value, sort_keys=True,
# separators=(",", ":"))``. One C encoder, built once, writes every such text;
# ``json.dumps`` would build a new one per call. It keeps no markers (a shared
# dict would keep stale ids after an exception), so a cycle, like nesting past
# the recursion limit, is a RecursionError. Without the C accelerator the
# pure-Python encoder writes the same text, slower.
if c_make_encoder is None:
    compact_json = JSONEncoder(sort_keys=True, separators=(",", ":")).encode
else:
    _compact_chunks = c_make_encoder(None, JSONEncoder().default, encode_basestring_ascii,
                                     None, ":", ",", True, False, True)

    def compact_json(value) -> str:
        return "".join(_compact_chunks(value, 0))


# The receiver of a send to every process: a trace's ``to`` of a fan-out, and
# the receiver of a dictated send that reaches every process.
TO_ALL = "ALL"


class MessageKind(Enum):
    SEND = "SEND"
    ECHO = "ECHO"
    READY = "READY"
    ABORT = "ABORT"
    ROUND = "ROUND"

    # By identity, as equality is: a message's hash then runs in C.
    __hash__ = object.__hash__


_KIND_ORDER = {kind: i for i, kind in enumerate(MessageKind)}
_KINDS = {kind.value: kind for kind in MessageKind}
# The keys ``to_dict`` writes, by kind: a ROUND's, and an instance message's.
_ROUND_KEYS = ("kind", "round_value")
_INSTANCE_KEYS = ("kind", "source", "birth_round", "payload", "payload_hex")


class _MessageFields(NamedTuple):
    kind: MessageKind
    source: int | None = None
    birth_round: int | None = None
    payload: bytes | None = None
    round_value: int | None = None


class ProtocolMessage(_MessageFields):
    """One protocol message: an immutable tuple, so that it hashes and
    compares in C.

    SEND/ECHO/READY/ABORT carry ``(source, birth_round, payload)`` describing a
    broadcast instance; ROUND carries only ``round_value``, the sender's round
    counter vote. Any other field combination is rejected at construction,
    ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, kind: MessageKind, source: int | None = None, birth_round: int | None = None,
                payload: bytes | None = None, round_value: int | None = None) -> "ProtocolMessage":
        # Type-exact, so that equal messages are written alike: ``True == 1``
        # would let a boolean field stand for an int one.
        if not (source is None or type(source) is int):
            raise ValueError(f"source {shown(source)} is not an int")
        if not (birth_round is None or type(birth_round) is int):
            raise ValueError(f"birth_round {shown(birth_round)} is not an int")
        if not (round_value is None or type(round_value) is int):
            raise ValueError(f"round_value {shown(round_value)} is not an int")
        if kind is MessageKind.ROUND:
            if round_value is None or round_value < 1:
                raise ValueError("ROUND message requires round_value >= 1")
            if source is not None or birth_round is not None or payload is not None:
                raise ValueError("ROUND message carries only round_value")
        else:
            if source is None or birth_round is None or payload is None:
                raise ValueError(f"{kind.value} message requires source, birth_round, payload")
            if round_value is not None:
                raise ValueError(f"{kind.value} message must not carry round_value")
            if birth_round < 1:
                raise ValueError("birth_round must be >= 1")
            if source < 0:
                raise ValueError("source must be a process index")
            if type(payload) is not bytes:
                raise ValueError("payload must be bytes")
        return tuple.__new__(cls, (kind, source, birth_round, payload, round_value))

    @classmethod
    def _make(cls, iterable) -> "ProtocolMessage":
        return cls(*iterable)

    def sort_key(self) -> tuple:
        return (
            _KIND_ORDER[self.kind],
            -1 if self.source is None else self.source,
            -1 if self.birth_round is None else self.birth_round,
            b"" if self.payload is None else self.payload,
            -1 if self.round_value is None else self.round_value,
        )

    def to_json(self) -> str:
        """``compact_json(self.to_dict())``, written without the encoder's
        cost per call: every int field is type-exact, so it is written as
        its repr."""
        if self.kind is MessageKind.ROUND:
            return f'{{"kind":"ROUND","round_value":{self.round_value}}}'
        ((key, text),) = encode_payload(self.payload).items()
        return (f'{{"birth_round":{self.birth_round},"kind":"{self.kind.value}",'
                f'"{key}":{encode_basestring_ascii(text)},"source":{self.source}}}')

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.kind is MessageKind.ROUND:
            out["round_value"] = self.round_value
        else:
            out["source"] = self.source
            out["birth_round"] = self.birth_round
            out.update(encode_payload(self.payload))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolMessage":
        """The message ``to_dict`` wrote; a missing key is a KeyError, and a
        bad value, or a key the message's kind does not define, is a
        ValueError naming it."""
        value = data["kind"]
        kind = _KINDS.get(value) if type(value) is str else None
        if kind is None:
            raise ValueError(f"kind {shown(value)} is not one of {', '.join(_KINDS)}")
        keys = _ROUND_KEYS if kind is MessageKind.ROUND else _INSTANCE_KEYS
        if data.keys() - keys:
            key = next(key for key in data if key not in keys)
            raise ValueError(f"{kind.value} message key {shown(key)} is not one of {', '.join(keys)}")
        if kind is MessageKind.ROUND:
            return cls(kind=kind, round_value=data["round_value"])
        return cls(
            kind=kind,
            source=data["source"],
            birth_round=data["birth_round"],
            payload=decode_payload(data),
        )


def send_msg(source: int, birth_round: int, payload: bytes) -> ProtocolMessage:
    return ProtocolMessage(MessageKind.SEND, source, birth_round, payload)


def echo_msg(source: int, birth_round: int, payload: bytes) -> ProtocolMessage:
    return ProtocolMessage(MessageKind.ECHO, source, birth_round, payload)


def ready_msg(source: int, birth_round: int, payload: bytes) -> ProtocolMessage:
    return ProtocolMessage(MessageKind.READY, source, birth_round, payload)


def abort_msg(source: int, birth_round: int, payload: bytes) -> ProtocolMessage:
    return ProtocolMessage(MessageKind.ABORT, source, birth_round, payload)


def round_msg(round_value: int) -> ProtocolMessage:
    return ProtocolMessage(MessageKind.ROUND, round_value=round_value)


def encode_payload(payload: bytes) -> dict:
    """Encode a payload for JSON: UTF-8 string when printable, hex otherwise."""
    try:
        text = payload.decode("utf-8")
        if text.isprintable() or text == "":
            return {"payload": text}
    except UnicodeDecodeError:
        pass
    return {"payload_hex": payload.hex()}


def decode_payload(data: dict) -> bytes:
    """Inverse of ``encode_payload``; both keys, or a non-string value, is a ValueError."""
    if "payload_hex" in data and "payload" in data:
        raise ValueError("both payload and payload_hex are given; an entry takes one")
    key = "payload_hex" if "payload_hex" in data else "payload"
    text = data[key]
    if not isinstance(text, str):
        raise ValueError(f"{key} {shown(text)} is not a string")
    return bytes.fromhex(text) if key == "payload_hex" else text.encode("utf-8")
