import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbbc.messages import (
    MessageKind,
    ProtocolMessage,
    decode_payload,
    echo_msg,
    encode_payload,
    ready_msg,
    round_msg,
    send_msg,
)


def test_payload_kinds_require_instance_fields():
    with pytest.raises(ValueError):
        ProtocolMessage(MessageKind.SEND, source=0, birth_round=1)
    with pytest.raises(ValueError):
        ProtocolMessage(MessageKind.ECHO, source=0, birth_round=1, payload=b"x", round_value=3)


def test_round_kind_rejects_instance_fields():
    with pytest.raises(ValueError):
        ProtocolMessage(MessageKind.ROUND, source=0, round_value=2)
    with pytest.raises(ValueError):
        ProtocolMessage(MessageKind.ROUND)


def test_replace_checks_the_new_fields():
    """A message is a tuple, but ``_replace`` goes through the same checks as
    construction."""
    assert send_msg(0, 1, b"x")._replace(source=2) == send_msg(2, 1, b"x")
    with pytest.raises(ValueError, match="must not carry round_value"):
        send_msg(0, 1, b"x")._replace(round_value=3)
    with pytest.raises(ValueError, match="source True is not an int"):
        send_msg(0, 1, b"x")._replace(source=True)


def test_payload_equality_is_byte_equality():
    a = send_msg(0, 1, b"abc")
    b = send_msg(0, 1, b"abc")
    c = send_msg(0, 1, b"abd")
    assert a == b
    assert a != c


def test_dict_roundtrip_text_and_binary():
    for msg in (send_msg(2, 3, b"plain"), echo_msg(0, 1, b"\x00\xff"), round_msg(9)):
        assert ProtocolMessage.from_dict(msg.to_dict()) == msg


@pytest.mark.parametrize("msg", [send_msg(2, 3, b"plain"), echo_msg(0, 1, b"\x00\xff"),
                                 ready_msg(4, 2, b""), round_msg(9)])
def test_a_rebuilt_message_is_equal_and_hashes_alike(msg):
    """A message parsed back from its dict is a distinct object that stands
    for the same message: a set or dict key finds it."""
    back = ProtocolMessage.from_dict(msg.to_dict())
    assert back is not msg
    assert back == msg and hash(back) == hash(msg)
    assert back in {msg}


def test_binary_payload_hex_escaped():
    enc = encode_payload(b"\x00\x01")
    assert "payload_hex" in enc
    assert decode_payload(enc) == b"\x00\x01"
    assert encode_payload(b"text") == {"payload": "text"}


@pytest.mark.parametrize("data", [{"payload": 5}, {"payload": None}, {"payload_hex": 255}])
def test_payload_that_is_not_a_string_is_a_value_error(data):
    with pytest.raises(ValueError, match="not a string"):
        decode_payload(data)


@pytest.mark.parametrize("data", [{"payload": "y", "payload_hex": "79"},
                                  {"payload": "x", "payload_hex": "79"}])
def test_both_payload_keys_are_a_value_error(data):
    with pytest.raises(ValueError, match="^both payload and payload_hex are given; an entry takes one$"):
        decode_payload(data)


@pytest.mark.parametrize("data, text", [
    ({"kind": "ROUND", "round_value": 7, "zz": 1},
     "ROUND message key 'zz' is not one of kind, round_value"),
    ({"kind": "ROUND", "round_value": 7, "source": 0},
     "ROUND message key 'source' is not one of kind, round_value"),
    ({"kind": "READY", "source": 0, "birth_round": 1, "payload": "x", "round_value": 2},
     "READY message key 'round_value' is not one of kind, source, birth_round, payload, payload_hex"),
    ({"kind": "SEND", "source": 0, "birth_round": 1, "payload": "x", "x" * 40: 1},
     f"SEND message key '{'x' * 40}' is not one of kind, source, birth_round, payload, payload_hex"),
])
def test_a_key_the_message_does_not_define_is_named(data, text):
    with pytest.raises(ValueError) as err:
        ProtocolMessage.from_dict(data)
    assert str(err.value) == text


@pytest.mark.parametrize("kind, shown", [
    ("VOTE", "'VOTE'"), ("send", "'send'"), (None, "None"), (1, "1"), (["SEND"], "['SEND']"),
    ([[[[[[[[[["SEND"]]]]]]]]]], "[[[[[[[[[...]]]]]]]]]"),
])
def test_an_unknown_kind_is_named_shortened(kind, shown):
    with pytest.raises(ValueError) as err:
        ProtocolMessage.from_dict({"kind": kind, "round_value": 1})
    assert str(err.value) == f"kind {shown} is not one of SEND, ECHO, READY, ABORT, ROUND"


def test_sort_key_total_order():
    msgs = [round_msg(2), send_msg(1, 1, b"b"), send_msg(0, 1, b"a"), ready_msg(0, 1, b"a")]
    ordered = sorted(msgs, key=ProtocolMessage.sort_key)
    assert ordered[0].kind is MessageKind.SEND
    assert ordered[-1].kind is MessageKind.ROUND


@pytest.mark.parametrize("data, field", [
    ({"kind": "SEND", "source": True, "birth_round": 1, "payload": "x"}, "source"),
    ({"kind": "ECHO", "source": 0, "birth_round": 1.5, "payload": "x"}, "birth_round"),
    ({"kind": "READY", "source": 0, "birth_round": True, "payload": "x"}, "birth_round"),
    ({"kind": "ROUND", "round_value": True}, "round_value"),
    ({"kind": "ROUND", "round_value": 2.0}, "round_value"),
])
def test_int_fields_are_type_exact(data, field):
    """``True == 1`` and ``2.0 == 2``: a message holding them would equal, and
    hash like, one that is written differently."""
    with pytest.raises(ValueError, match=f"{field} .* is not an int"):
        ProtocolMessage.from_dict(data)


def test_payload_must_be_exactly_bytes():
    with pytest.raises(ValueError, match="payload must be bytes"):
        send_msg(0, 1, bytearray(b"x"))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(MessageKind)), source=st.integers(0, 2 ** 70),
       birth=st.integers(1, 2 ** 70), round_value=st.integers(1, 2 ** 70),
       payload=st.binary(max_size=8) | st.text(max_size=8).map(str.encode))
def test_to_json_is_the_encoders_text(kind, source, birth, round_value, payload):
    """``to_json`` writes what the compact, key-sorted encoder writes for
    ``to_dict()``: both payload keys, escapes and non-ASCII text included."""
    msg = (round_msg(round_value) if kind is MessageKind.ROUND
           else ProtocolMessage(kind, source, birth, payload))
    assert msg.to_json() == json.dumps(msg.to_dict(), sort_keys=True, separators=(",", ":"))
