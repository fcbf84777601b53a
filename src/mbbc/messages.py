"""Typed protocol messages.

Links are reliable and authenticated: the engine stamps the sender on every
send, and delivered bytes equal sent bytes. Payloads are raw ``bytes``;
JSON encoding uses a plain string when the payload is printable UTF-8 and a
hex escape otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import shown


class MessageKind(Enum):
    SEND = "SEND"
    ECHO = "ECHO"
    READY = "READY"
    ABORT = "ABORT"
    ROUND = "ROUND"


_KIND_ORDER = {kind: i for i, kind in enumerate(MessageKind)}


@dataclass(frozen=True)
class ProtocolMessage:
    """One protocol message.

    SEND/ECHO/READY/ABORT carry ``(source, birth_round, payload)`` describing a
    broadcast instance; ROUND carries only ``round_value``, the sender's round
    counter vote. Any other field combination is rejected at construction.
    """

    kind: MessageKind
    source: int | None = None
    birth_round: int | None = None
    payload: bytes | None = None
    round_value: int | None = None

    def __post_init__(self) -> None:
        # Type-exact, so that equal messages are written alike: ``True == 1``
        # would let a boolean field stand for an int one.
        for name in ("source", "birth_round", "round_value"):
            value = getattr(self, name)
            if value is not None and type(value) is not int:
                raise ValueError(f"{name} {shown(value)} is not an int")
        if self.kind is MessageKind.ROUND:
            if self.round_value is None or self.round_value < 1:
                raise ValueError("ROUND message requires round_value >= 1")
            if self.source is not None or self.birth_round is not None or self.payload is not None:
                raise ValueError("ROUND message carries only round_value")
        else:
            if self.source is None or self.birth_round is None or self.payload is None:
                raise ValueError(f"{self.kind.value} message requires source, birth_round, payload")
            if self.round_value is not None:
                raise ValueError(f"{self.kind.value} message must not carry round_value")
            if self.birth_round < 1:
                raise ValueError("birth_round must be >= 1")
            if self.source < 0:
                raise ValueError("source must be a process index")
            if type(self.payload) is not bytes:
                raise ValueError("payload must be bytes")

    def instance_key(self) -> tuple[int, int, bytes]:
        """The (source, birth_round, payload) triple keying the vote maps."""
        assert self.kind is not MessageKind.ROUND
        return (self.source, self.birth_round, self.payload)

    def sort_key(self) -> tuple:
        return (
            _KIND_ORDER[self.kind],
            -1 if self.source is None else self.source,
            -1 if self.birth_round is None else self.birth_round,
            b"" if self.payload is None else self.payload,
            -1 if self.round_value is None else self.round_value,
        )

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
        kind = MessageKind(data["kind"])
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
    """Inverse of ``encode_payload``; a value that is not a string is a ValueError."""
    key = "payload_hex" if "payload_hex" in data else "payload"
    text = data[key]
    if not isinstance(text, str):
        raise ValueError(f"{key} {shown(text)} is not a string")
    return bytes.fromhex(text) if key == "payload_hex" else text.encode("utf-8")
