"""The trace codec: without citation tables the line writer writes exactly
``encode_line(ev.to_dict())`` per event; with them, as ``Trace.to_jsonl``
writes, it writes those lines with every message, instance, process list,
receiver list and state digest after the first of its text cited by its
index (``cited``). The reader parses each line whole, to a pinned event or a
pinned error naming the line."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import roundrobin_crash, split_send_scenario
from mbbc import cli, engine
from mbbc.checker import permanently_correct, projection, projection_jsonl
from mbbc.demos import run_demo
from mbbc.engine import (
    KIND_DELIVER_CALL,
    KIND_P2P_SEND,
    KIND_STATE_CORRUPTED,
    Trace,
    TraceEvent,
    encode_line,
    event_lines,
    run,
)
from mbbc.scenario import ScenarioConfig

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
DEMOS = ["THEOREM_3", "THEOREM_4", "SOURCE_FLIP", "WIPE_FLIP"]

HEADER = '{"config":{"horizon":8,"n":6},"format":"' + engine.TRACE_FORMAT + '"}'
# A valid line of a kind whose detail's one key, ``state_digest``, is 64
# lowercase hex digits, as a sha256 is written.
DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
DETAIL = '{"state_digest":"' + DIGEST + '"}'
CORRUPTED = '{"detail":' + DETAIL + ',"kind":"STATE_CORRUPTED","round":1,"subject":0}'


def send_line(message: str, to: str = '"ALL"', round_: int = 1, subject: int = 0,
              senders: str | None = None) -> str:
    """A P2P_SEND line; ``senders`` is the text of its ``from``, by default
    ``[subject]`` for a send to "ALL" and none for any other. A send to "ALL"
    lists ``message`` as its one ``messages`` entry, any other carries it as
    its ``message``."""
    if senders is None and to == '"ALL"':
        senders = f"[{subject}]"
    from_ = "" if senders is None else f'"from":{senders},'
    body = f'"messages":[{message}]' if to == '"ALL"' else f'"message":{message}'
    return (f'{{"detail":{{{from_}{body},"to":{to}}},"kind":"P2P_SEND",'
            f'"round":{round_},"subject":{subject}}}')


def fan_out_line(messages: str, senders: str = "[0]", subject: int = 0) -> str:
    """A fan-out line whose ``messages`` is the text ``messages``."""
    return (f'{{"detail":{{"from":{senders},"messages":{messages},"to":"ALL"}},"kind":"P2P_SEND",'
            f'"round":1,"subject":{subject}}}')


def compute_line(kind: str, detail: str, subject: int = 0) -> str:
    return f'{{"detail":{detail},"kind":"{kind}","round":1,"subject":{subject}}}'


def deliver_line(by: str | None, subject: int = 0, instances: str = '[{"payload":"x","source":0}]') -> str:
    """A DELIVER_CALL line of ``instances`` with ``by`` set to ``by`` (omitted if None)."""
    by_ = "" if by is None else f'"by":{by},'
    return compute_line("DELIVER_CALL", f'{{{by_}"instances":{instances}}}', subject)


def per_line_events(trace: Trace) -> list[str]:
    return [encode_line(ev.to_dict()) for ev in trace.events]


def cited(lines: list[str]) -> list[str]:
    """The ``mbbc-trace/10`` citation pass over uncited event lines, written
    out literally. In line order and then list order, each value of one of
    five tables' places is kept in full the first time its text appears in
    its table, and replaced by the index of that first appearance after
    that. A JSON object in a fan-out's ``messages`` (``{"from", "messages":
    [...], "to": "ALL"}``) or a send's ``message`` (``{"message", "to"}``
    with any other ``to``, and a ``from`` in a projection) is a message; one
    in a DELIVER_CALL's ``instances`` (``{"by", "instances": [...]}``) an
    instance; a list in a fan-out's ``from`` or a DELIVER_CALL's ``by`` a
    process list; a list in a send's ``to`` beside a ``message`` a receiver
    list; and a string in a STATE_CORRUPTED's ``state_digest`` (its one
    key) a digest. A value of another type, and a detail of any other
    shape, which the reader refuses, is kept whole."""
    tables: dict[str, dict[str, int]] = {name: {} for name in (
        "message", "instance", "process list", "receiver list", "digest")}

    def cite(name: str, defines: type, value):
        if not isinstance(value, defines):
            return value
        table, text = tables[name], encode_line(value)
        if text in table:
            return table[text]
        table[text] = len(table)
        return value

    out = []
    for line in lines:
        event = json.loads(line)
        kind, detail = event["kind"], event["detail"]
        places: list[tuple[str, str, type]] = []
        keys = detail.keys() if isinstance(detail, dict) else None
        if keys is None:
            pass
        elif kind == KIND_DELIVER_CALL and keys == {"by", "instances"}:
            if isinstance(detail["instances"], list) and detail["instances"]:
                places = [("by", "process list", list), ("instances", "instance", dict)]
        elif kind == KIND_P2P_SEND and detail.get("to") == "ALL":
            if (keys == {"from", "messages", "to"} and isinstance(detail["messages"], list)
                    and detail["messages"]):
                places = [("from", "process list", list), ("messages", "message", dict)]
        elif kind == KIND_P2P_SEND and keys - {"from"} == {"message", "to"}:
            places = [("message", "message", dict), ("to", "receiver list", list)]
        elif kind == KIND_STATE_CORRUPTED and keys == {"state_digest"}:
            places = [("state_digest", "digest", str)]
        for key, name, defines in places:
            if key in ("messages", "instances"):
                detail[key] = [cite(name, defines, value) for value in detail[key]]
            else:
                detail[key] = cite(name, defines, detail[key])
        out.append(encode_line(event))
    return out


# Empty (message, instance, process list, receiver list, digest) citation
# tables, as ``Trace.to_jsonl`` starts from.
def tables() -> tuple[dict[str, int], ...]:
    return {}, {}, {}, {}, {}


def bundled_traces() -> list[Trace]:
    traces = [run(ScenarioConfig.from_json(path.read_text())) for path in CONFIGS]
    for kind in DEMOS:
        result = run_demo(kind, {})
        traces += [result.trace_first, result.trace_second]
    return traces


def projection_pairs() -> list[tuple[ScenarioConfig, Trace]]:
    """A split send with a duplicate target, and both histories of both demos."""
    config = split_send_scenario([1, 2, 2])
    pairs = [(config, run(config))]
    for kind in ("SOURCE_FLIP", "WIPE_FLIP"):
        result = run_demo(kind, {})
        pairs += [(result.config_first, result.trace_first),
                  (result.config_second, result.trace_second)]
    return pairs


def parse(text: str):
    """``Trace.from_jsonl(text)``'s events, each written back as its
    canonical line, or its ValueError text."""
    try:
        return per_line_events(Trace.from_jsonl(text))
    except ValueError as exc:
        return str(exc)


def dumps(value) -> str:
    """The text ``encode_line`` must write: ``json.dumps`` with its options."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# Strings the default text strategy leaves out or seldom draws: non-ASCII,
# control characters and lone surrogates.
SPECIAL_TEXT = st.sampled_from(["", "é", "日本", "\x00\x1f\x7f", "\n\t\"\\/", "\ud800",
                                "a\udfffb", "\U0001f600", "\u2028"])
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text() | SPECIAL_TEXT
                | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf,
                                   True, 1, 0, False, 10 ** 40]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4) | SPECIAL_TEXT, inner, max_size=5),
    max_leaves=30)

# Each bundled config's fingerprint, the sha256 of its ``canonical_json``.
CONFIG_FINGERPRINTS = {
    "alternating_below_bound_n5": "5295fc7dfea77d4ee0553a2e5d52c56355ecdd55c1e023df0b8df8b5c5e7abb3",
    "bfa_double_cure": "f00244c8f28ee98ea54f814f69b1ed52a4491d3eed1dfe6a5b75c01a88fb5db5",
    "bfa_forged_birth": "9ef9042a6765621abcaec3e2ba2c8dc80538ae8a519d1702e57ba38524fec0dd",
    "correct_source": "b72aaef4df448771bd1250b13c1e5662f1ce8bbc19cc4a3aacb58424f2f81cbc",
    "faulty_source_all_deliver": "a9b05aa3e4e9b26fd95c21e19cec1e415027b2a3efa31eb4e5d5abb95bd6cf1c",
    "faulty_source_none_deliver": "574f7ac87e92afb5867b5300b6d72ffb8fee3d04449298a5dc9e6a735c59fca1",
    "ffa_delivery_on_cure": "c813d684783bfa6bcb597b28a4c0c68880fc5d9bfa14a53e170ed06220bf36a0",
    "nfa_alternating_n7": "5aa0a8ca696f4d1ee5780acf19781cf20e65703b5a1051dd618c4d3906cdfb87",
}


class TestEncoder:
    """The one compact encoder behind every trace line, config fingerprint
    and digest writes what ``json.dumps`` writes with the same options."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def test_writes_what_json_dumps_writes(self, value):
        assert encode_line(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        "top-level string", "\ud800", -0.0, 1e300, math.nan, math.inf, -math.inf, 10 ** 40,
        None, [True, 1, False, 0], {"b": [1.5, "é"], "a": {"\x01": None}}, [], {}])
    def test_named_values(self, value):
        assert encode_line(value) == dumps(value)

    @pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"k": v}], ids=["list", "object"])
    def test_nesting_past_the_recursion_limit_raises_from_both(self, wrap):
        value = None
        for _ in range(100_000):
            value = wrap(value)
        with pytest.raises(RecursionError):
            encode_line(value)
        with pytest.raises(RecursionError):
            dumps(value)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    def test_bundled_config_texts_and_fingerprints_hold(self, path):
        config = ScenarioConfig.from_json(path.read_text())
        assert config.canonical_json() == dumps(config.to_dict())
        assert config.fingerprint() == CONFIG_FINGERPRINTS[path.stem]


class TestWriter:
    def test_bundled_traces_write_as_cited_per_event_lines(self):
        cites = 0
        for trace in bundled_traces():
            lines = trace.to_jsonl().splitlines()[1:]
            assert lines == cited(per_line_events(trace))
            cites += lines != per_line_events(trace)
        assert cites > 0

    def test_memo_keeps_types_apart_on_built_events(self):
        values = [1, True, 1.0, 0.0, -0.0, 0, False, None, "1"]
        events = [TraceEvent(1, KIND_P2P_SEND, 0,
                             {"from": [0], "message": {"kind": "ROUND", "round_value": v}, "to": "ALL"})
                  for v in values]
        events += [TraceEvent(1, KIND_P2P_SEND, 0,
                              {"from": [0], "messages": [{"kind": "ROUND", "round_value": v}],
                               "to": "ALL"}) for v in values]
        events += [TraceEvent(1, KIND_DELIVER_CALL, 0,
                              {"by": [0], "instances": [{"payload": "x", "source": v}]})
                   for v in values]
        events += [TraceEvent(1, "STATE_CORRUPTED", 0, {"state_digest": v}) for v in values]
        events += [TraceEvent(1, KIND_P2P_SEND, 0, {"from": [v], "messages": [{}], "to": "ALL"})
                   for v in values]
        events += [TraceEvent(1, KIND_P2P_SEND, 0, {"message": {}, "to": [v]}) for v in values]
        events += [TraceEvent(1, KIND_DELIVER_CALL, 0, {"by": [v], "instances": [{"source": 0}]})
                   for v in values]
        lines = [encode_line(ev.to_dict()) for ev in events]
        assert event_lines(events) == lines
        assert event_lines(events, tables()) == cited(lines)

    @pytest.mark.parametrize("event", [
        TraceEvent(1.0, "STATE_CORRUPTED", 0, {}),
        TraceEvent(True, "STATE_CORRUPTED", 0, {}),
        TraceEvent(1, "STATE_CORRUPTED", False, {}),
        TraceEvent(1, ["STATE_CORRUPTED"], 0, {}),
        TraceEvent(1, "P2P_DELIVER", 0, {}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "message": {}, "extra": 0}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "message": "m"}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "message": {}, "from": [0], "extra": 0}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": [1], "message": {}, "extra": [0]}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "message": {}, "from": {"b": 1, "a": -0.0}}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "messages": ({},), "from": [0]}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "messages": "m", "from": [0]}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "messages": [{}], "from": [0], "extra": 0}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "messages": [], "from": [0]}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"to": "ALL", "messages": [{}, 1.5], "x": [0]}),
        TraceEvent(1, KIND_DELIVER_CALL, 0, {"by": [0], "instances": ({"source": 0},)}),
        TraceEvent(1, KIND_DELIVER_CALL, 0, {"by": [0], "instances": [{"source": -0.0}], "x": 1}),
        TraceEvent(1, KIND_DELIVER_CALL, 0, {"by": {"b": 1, "a": 2}, "instances": []}),
        TraceEvent(1, KIND_DELIVER_CALL, 0, {"instances": [{}], "source": 0}),
        TraceEvent(1, "STATE_CORRUPTED", 0, {"a": {"b": -0.0}, "c": [1.5]}),
        TraceEvent(1, "STATE_CORRUPTED", 0, [1, "x"]),
        TraceEvent(-1, "STATE_CORRUPTED", 7, {}),
    ])
    def test_event_outside_the_template_writes_as_before(self, event):
        """An event, or a detail, outside the template is written whole at
        each use, with tables or without: nothing in it is cited, as the
        reader refuses every P2P_SEND, DELIVER_CALL and STATE_CORRUPTED
        detail outside it."""
        lines = [encode_line(event.to_dict())] * 2
        assert event_lines([event, event]) == lines
        assert event_lines([event, event], tables()) == lines

    def test_fresh_details_of_a_generator_write_as_per_event_lines(self):
        """The memo goes by identity and holds what it encoded: each event
        here is dropped once written, so without the hold CPython would hand
        a freed detail's id to a later detail of another value."""
        def events(count: int):
            for i in range(count):
                yield TraceEvent(1, "STATE_CORRUPTED", 0, {"state_digest": i})
                yield TraceEvent(1, KIND_P2P_SEND, 0,
                                 {"from": [0, i], "message": {"kind": "ROUND", "round_value": i},
                                  "to": "ALL"})
                yield TraceEvent(1, KIND_P2P_SEND, 0,
                                 {"message": {"kind": "ROUND", "round_value": -i}, "to": [i]})
                yield TraceEvent(1, KIND_P2P_SEND, 0,
                                 {"from": [i], "messages": [{"kind": "ROUND", "round_value": i},
                                                            {"kind": "ECHO", "x": -i}], "to": "ALL"})
                yield TraceEvent(1, KIND_DELIVER_CALL, 0,
                                 {"by": [i], "instances": [{"payload": str(i), "source": -i}]})

        lines = [encode_line(ev.to_dict()) for ev in events(300)]
        assert event_lines(events(300)) == lines
        assert event_lines(events(300), tables()) == cited(lines)

    def test_a_shared_detail_defines_its_objects_at_its_first_line_only(self):
        """The detail memo keeps a line only when it defines nothing: the
        second event of a shared detail cites what the first defined."""
        fan_out = {"from": [0, 1], "messages": [{"kind": "ROUND", "round_value": 2}], "to": "ALL"}
        dictated = {"message": {"kind": "ROUND", "round_value": 3}, "to": [1, 1]}
        deliver = {"by": [0], "instances": [{"payload": "x", "source": 0}]}
        events = [TraceEvent(r, kind, 0, detail) for detail, kind in [
            (fan_out, KIND_P2P_SEND), (dictated, KIND_P2P_SEND), (deliver, KIND_DELIVER_CALL)]
            for r in (1, 2)]
        lines = [encode_line(ev.to_dict()) for ev in events]
        written = event_lines(events, tables())
        assert written == cited(lines)
        assert [line.count('"kind":"ROUND"') + line.count('"source"') for line in written] == [
            1, 0, 1, 0, 1, 0]

    def test_details_with_a_key_outside_the_template_write_whole_and_are_refused(self):
        """A detail that holds a key outside its kind's key set is written
        whole, nothing in it cited, and the reader refuses it, naming the
        key."""
        message, instance = {"kind": "ROUND", "round_value": 2}, {"payload": "x", "source": 0}
        details = [(KIND_P2P_SEND, {"from": [0], "messages": [message], "to": "ALL", "note": 1}),
                   (KIND_P2P_SEND, {"message": message, "to": [1], "note": 1}),
                   (KIND_DELIVER_CALL, {"by": [0], "instances": [instance], "note": 1}),
                   (KIND_DELIVER_CALL, {"by": [0], "instances": [instance], "note": 2})]
        trace = Trace({"horizon": 8, "n": 6}, [TraceEvent(1, kind, 0, detail) for kind, detail in details])
        text = trace.to_jsonl()
        assert text.splitlines()[1:] == per_line_events(trace) == cited(per_line_events(trace))
        assert parse(text) == "trace line 2: bad event line: unknown key 'note' in a send to 'ALL'"

    def test_tables_carry_their_definitions_from_call_to_call(self):
        events = [TraceEvent(1, KIND_DELIVER_CALL, 0, {"by": [0], "instances": [
            {"payload": "x", "source": 0}, {"payload": "y", "source": 0}]})]
        shared = tables()
        first, = event_lines(events, shared)
        again, = event_lines(events, shared)
        assert shared == ({}, {'{"payload":"x","source":0}': 0, '{"payload":"y","source":0}': 1},
                          {"[0]": 0}, {}, {})
        assert first == encode_line(events[0].to_dict())
        assert again == first.replace('[{"payload":"x","source":0},{"payload":"y","source":0}]',
                                      "[0,1]").replace('"by":[0]', '"by":0')

    def test_projection_with_dictated_sends_writes_as_per_event_lines(self):
        dictated = 0
        for config, trace in projection_pairs():
            schedule = config.resolved_schedule()
            keep = permanently_correct(schedule)
            dictated += sum(ev.kind == KIND_P2P_SEND and isinstance(ev.detail["to"], list)
                            and bool(keep & set(ev.detail["to"])) for ev in trace.events)
            assert projection_jsonl(trace, schedule) == "\n".join(
                encode_line(ev.to_dict()) for ev in projection(trace, schedule))
        assert dictated > 0

    def test_projection_of_a_parsed_trace_writes_as_of_the_engine_trace(self):
        """The engine's events share details by construction and a parsed
        trace's do not; either way the projection's bytes are the same."""
        for config, trace in projection_pairs():
            schedule = config.resolved_schedule()
            parsed = Trace.from_jsonl(trace.to_jsonl())
            assert projection_jsonl(parsed, schedule) == projection_jsonl(trace, schedule)


# Each row of ``PARSER_TABLE`` is a line and what the reader makes of it as
# the third line of a trace, after HEADER and CORRUPTED: either the event it
# reads to, written back as its canonical line (ITSELF when that is the line
# itself), or ``refused(reason)``, the exact ValueError naming line 3. A
# refused row may hold two lines, the first of which reads; its ValueError
# names line 4.
ITSELF = None


class Refused(str):
    """A row's outcome when the reader refuses its line: the ValueError text."""


def refused(reason: str, line: int = 3) -> Refused:
    return Refused(f"trace line {line}: bad event line: {reason}")


PARSER_TABLE = [
    (CORRUPTED, ITSELF),
    ('{"detail": {"state_digest" : "' + DIGEST + '"}, "kind": "STATE_CORRUPTED", "round": 1, '
     '"subject": 0}', CORRUPTED),
    # A STATE_CORRUPTED's digest is a sha256 in lowercase hex, or the int
    # index of one already defined (CORRUPTED, line 2, defines digest 0), and
    # nothing else: any other number is a citation the reader refuses.
    (CORRUPTED.replace(f'"{DIGEST}"', "0"), CORRUPTED),
    (CORRUPTED.replace(DETAIL, "{}"), refused("missing key 'state_digest'")),
    (CORRUPTED.replace(DETAIL, '{"state_digest":null}'),
     refused("state_digest None is not 64 lowercase hex digits")),
    (CORRUPTED.replace(DETAIL, '{"state_digest":NaN}'), refused("digest citation nan is not an int")),
    (CORRUPTED.replace(DIGEST, DIGEST.upper()),
     refused(f"state_digest '{DIGEST.upper()}' is not 64 lowercase hex digits")),
    (CORRUPTED.replace(DIGEST, DIGEST[1:]),
     refused(f"state_digest '{DIGEST[1:]}' is not 64 lowercase hex digits")),
    (CORRUPTED.replace(DIGEST, DIGEST + "0"),
     refused(f"state_digest '{DIGEST}0' is not 64 lowercase hex digits")),
    (CORRUPTED.replace(DIGEST, "g" + DIGEST[1:]),
     refused(f"state_digest 'g{DIGEST[1:]}' is not 64 lowercase hex digits")),
    (CORRUPTED.replace(f'"{DIGEST}"', "[]"), refused("state_digest [] is not 64 lowercase hex digits")),
    # The reader scans a line in C and hands it to ``json.loads`` when the
    # scan does not read it whole: these read, or are refused, as
    # ``json.loads`` reads them.
    (CORRUPTED + "  ", CORRUPTED),
    ("  " + CORRUPTED, CORRUPTED),
    ("\t" + CORRUPTED + " \t", CORRUPTED),
    (CORRUPTED + "x", refused("not valid JSON (Extra data: line 1 column 142 (char 141))")),
    (CORRUPTED + " x", refused("not valid JSON (Extra data: line 1 column 143 (char 142))")),
    (CORRUPTED + ",", refused("not valid JSON (Extra data: line 1 column 142 (char 141))")),
    (CORRUPTED + CORRUPTED, refused("not valid JSON (Extra data: line 1 column 142 (char 141))")),
    (CORRUPTED + " " + CORRUPTED,
     refused("not valid JSON (Extra data: line 1 column 143 (char 142))")),
    ("[]", refused("not a JSON object")),
    (" [] ", refused("not a JSON object")),
    ("1", refused("not a JSON object")),
    ("null", refused("not a JSON object")),
    ('{"kind":"STATE_CORRUPTED","detail":' + DETAIL + ',"round":1,"subject":0}', CORRUPTED),
    (CORRUPTED.replace('"detail"', '"Detail"'), refused("unknown key 'Detail'")),
    (CORRUPTED.replace('{"detail":', '["detail",'),
     refused("not valid JSON (Expecting ',' delimiter: line 1 column 101 (char 100))")),
    ('{"detail":' + DETAIL + ',"kind":"STATE_CORRUPTED","subject":0,"round":1}', CORRUPTED),
    (CORRUPTED.replace('"round":1', '"round":01'),
     refused("not valid JSON (Expecting ',' delimiter: line 1 column 129 (char 128))")),
    (CORRUPTED.replace('"round":1', '"round":1.0'), refused('round 1.0 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":true'), refused('round True outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":1e0'), refused('round 1.0 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":-1'), refused('round -1 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":0'), refused('round 0 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":9'), refused('round 9 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":' + "1" * 30),
     refused('round 111111111111111111111111111111 outside 1..8')),
    (CORRUPTED.replace('"subject":0', '"subject":-0'),
     CORRUPTED),
    (CORRUPTED.replace('"subject":0', '"subject":6'), refused('subject 6 outside 0..5')),
    (CORRUPTED.replace('"subject":0', '"subject":5'), ITSELF),
    (CORRUPTED.replace('"STATE_CORRUPTED"', '"state_corrupted"'),
     refused("unknown kind 'state_corrupted'")),
    (CORRUPTED.replace('"STATE_CORRUPTED"', '"P2P_DELIVER"'),
     refused("unknown kind 'P2P_DELIVER'")),
    (CORRUPTED.replace(',"round"', ',"phase":"COMPUTE","round"'), refused("unknown key 'phase'")),
    (CORRUPTED.replace(',"kind"', ',"extra":5,"kind"'), refused("unknown key 'extra'")),
    (CORRUPTED[:-1] + ',"zz":0}', refused("unknown key 'zz'")),
    (CORRUPTED.replace(DETAIL, "[]"), refused('detail is not a JSON object')),
    (CORRUPTED.replace(DETAIL, '"x"'), refused('detail is not a JSON object')),
    (CORRUPTED.replace(DETAIL, ""),
     refused('not valid JSON (Expecting value: line 1 column 11 (char 10))')),
    (CORRUPTED.replace(DETAIL, "{},{}"),
     refused('not valid JSON (Expecting property name enclosed in double quotes: line 1 '
              'column 14 (char 13))')),
    (CORRUPTED.replace(DETAIL, '{"a":[{}'),
     refused("not valid JSON (Expecting ',' delimiter: line 1 column 26 (char 25))")),
    (CORRUPTED.replace(DETAIL, "\ufeff{}"),
     refused('not valid JSON (Expecting value: line 1 column 11 (char 10))')),
    ('{"a":[{}', refused("not valid JSON (Expecting ',' delimiter: line 1 column 9 (char 8))")),
    ("{}]}", refused('not valid JSON (Extra data: line 1 column 3 (char 2))')),
    ("{},{}", refused('not valid JSON (Extra data: line 1 column 3 (char 2))')),
    ('{"detail":{},"kind":"BROADCAST_CALL","round":2,"subject":1,' + CORRUPTED[1:], CORRUPTED),
    # The kinds of an older layout, whose facts the header's schedule fixes.
    ('{"detail":{"agent":0,"from":null,"to":1},"kind":"AGENT_MOVE","round":1,"subject":1}',
     refused("unknown kind 'AGENT_MOVE'")),
    ('{"detail":{"faulty_since":null},"kind":"CURED","round":1,"subject":0}',
     refused("unknown kind 'CURED'")),
    (send_line('{"kind":"SEND","source":0,"birth_round":1,'
               '"payload":",\\"kind\\":\\"P2P_SEND\\",\\"round\\":1,\\"subject\\":0}"}'),
     '{"detail":{"from":[0],"messages":[{"birth_round":1,"kind":"SEND","payload":"'
      ',\\"kind\\":\\"P2P_SEND\\",\\"round\\":1,\\"subject\\":0}","source":0}],"to":"ALL"}'
      ',"kind":"P2P_SEND","round":1,"subject":0}'),
    (send_line('{"kind":"SEND","source":0,"birth_round":1,"payload":"x"},"to":"ALL"}'
               ',"kind":"P2P_SEND","round":1,"subject":0}'),
     refused("not valid JSON (Expecting ',' delimiter: line 1 column 96 (char 95))")),
    (send_line('{"kind":"ROUND","round_value":2}'), ITSELF),
    (send_line('{"kind":"ROUND","round_value":2}', to="[5,0,5]", round_=8, subject=5),
     refused("to [5, 0, 5] is not sorted")),
    (send_line('{"kind":"ROUND","round_value":2}', to="[0,5,5]", round_=8, subject=5), ITSELF),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1,1]"), ITSELF),
    (send_line('{"kind":"ROUND","round_value":2}', to="[3,1]"), refused("to [3, 1] is not sorted")),
    (send_line('{"kind":"ROUND","round_value":2}', to="[]"), refused("to [] names no receiver")),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1,6]"),
     refused("to [1, 6] is neither 'ALL' nor a list of receivers in 0..5")),
    (send_line('{"kind":"ROUND","round_value":2}', to='"SOME"'),
     refused("to 'SOME' is neither 'ALL' nor a list of receivers in 0..5")),
    (send_line('{"kind":"ROUND","round_value":2}', to="[true]"),
     refused("to [True] is neither 'ALL' nor a list of receivers in 0..5")),
    (send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,3,5]"), ITSELF),
    (send_line('{"kind":"ROUND","round_value":2}', senders="[]"),
     refused('from [] is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', subject=2, senders="[2,1]"),
     refused('from [2, 1] is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,1]"),
     refused('from [1, 1] is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,6]"),
     refused('from [1, 6] is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', senders="[-1,0]"),
     refused('from [-1, 0] is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[true]"),
     refused('from [True] is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1.0]"),
     refused('from [1.0] is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', senders='"0"'),
     refused("from '0' is not a non-empty, strictly increasing list of processes in 0..5")),
    (send_line('{"kind":"ROUND","round_value":2}', senders="null"),
     refused('from None is not a non-empty, strictly increasing list of processes in 0..5')),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1]", senders="[0]"),
     refused("unknown key 'from' in a send to a list of receivers")),
    (send_line('{"kind":"ROUND","round_value":2}', to='"SOME"', senders="[0]"),
     refused("to 'SOME' is neither 'ALL' nor a list of receivers in 0..5")),
    ('{"detail":{"message":{"kind":"ROUND","round_value":2},"to":"ALL"},'
     '"kind":"P2P_SEND","round":1,"subject":0}',
     refused("unknown key 'message' in a send to 'ALL'")),
    ('{"detail":{"messages":[{"kind":"ROUND","round_value":2}],"to":"ALL"},'
     '"kind":"P2P_SEND","round":1,"subject":0}', refused("missing key 'from'")),
    # The fan-out of ``mbbc-trace/6``: one message beside "ALL".
    ('{"detail":{"from":[0],"message":{"kind":"ROUND","round_value":2},"to":"ALL"},'
     '"kind":"P2P_SEND","round":1,"subject":0}',
     refused("unknown key 'message' in a send to 'ALL'")),
    ('{"detail":{"from":[0],"message":{"kind":"ROUND","round_value":2},'
     '"messages":[{"kind":"ROUND","round_value":2}],"to":"ALL"},"kind":"P2P_SEND","round":1,"subject":0}',
     refused("unknown key 'message' in a send to 'ALL'")),
    ('{"detail":{"message":{"kind":"ROUND","round_value":2},'
     '"messages":[{"kind":"ROUND","round_value":2}],"to":[1]},"kind":"P2P_SEND","round":1,"subject":0}',
     refused("unknown key 'messages' in a send to a list of receivers")),
    (fan_out_line("[]"), refused('messages [] is not a non-empty list of JSON objects')),
    (fan_out_line("null"), refused('messages None is not a non-empty list of JSON objects')),
    (fan_out_line('{"kind":"ROUND","round_value":2}'),
     refused("messages {'kind': 'ROUND', 'round_value': 2} is not a non-empty list of JSON "
              'objects')),
    (fan_out_line('[{"kind":"ROUND","round_value":2},3]'),
     refused("message citation 3 is outside 0..0, the messages defined so far")),
    # Citations: an int in [0, entries so far) of the place's own table.
    (fan_out_line("[true]"), refused("message citation True is not an int")),
    (fan_out_line("[1.0]"), refused("message citation 1.0 is not an int")),
    (fan_out_line('[{"kind":"ROUND","round_value":2},-1]'),
     refused("message citation -1 is outside 0..0, the messages defined so far")),
    (fan_out_line("[0]"), refused("message citation 0 cites nothing: no message is defined yet")),
    (send_line("0", to="[1]"), refused("message citation 0 cites nothing: no message is defined yet")),
    (send_line("false", to="[1]"), refused("message citation False is not an int")),
    (send_line('"m"', to="[1]"), refused("message is not a JSON object")),
    # A message object is read as a ``ProtocolMessage`` where it is defined:
    # its kind, its keys and the types of its fields are a message's own, so
    # no two equal values of other types (``True == 1 == 1.0``) stand in it.
    (fan_out_line('[{"kind":"NOPE","x":1}]'),
     refused("kind 'NOPE' is not one of SEND, ECHO, READY, ABORT, ROUND")),
    (send_line('{"kind":"ROUND","round_value":2,"x":1}'),
     refused("ROUND message key 'x' is not one of kind, round_value")),
    (send_line('{"kind":"ROUND"}', to="[1]"), refused("missing key 'round_value'")),
    (send_line('{"kind":"ROUND","round_value":true}'), refused("round_value True is not an int")),
    (send_line('{"kind":"ROUND","round_value":1.0}', to="[1]"),
     refused("round_value 1.0 is not an int")),
    (send_line('{"kind":"ROUND","round_value":0}'),
     refused("ROUND message requires round_value >= 1")),
    (send_line('{"kind":"ROUND","round_value":2}') + "\n" + fan_out_line('[0,{"kind":"ECHO"}]'),
     refused("missing key 'source'", line=4)),
    (deliver_line("[0]", instances="[0]"),
     refused("instance citation 0 cites nothing: no instance is defined yet")),
    (deliver_line("[0]", instances="[1e0]"), refused("instance citation 1.0 is not an int")),
    (deliver_line("[0]") + "\n" + send_line("0", to="[1]"),
     refused("message citation 0 cites nothing: no message is defined yet", line=4)),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1]") + "\n"
     + deliver_line("[0]", instances="[0]"),
     refused("instance citation 0 cites nothing: no instance is defined yet", line=4)),
    (fan_out_line('[{"kind":"ROUND","round_value":2},{"kind":"ROUND","round_value":3}]',
                  senders="[1,4]", subject=1), ITSELF),
    (send_line('{"kind":"ROUND","round_value":2}', subject=3, senders="[1,3]"),
     refused('subject 3 is not the first of its from list, 1')),
    (send_line("[]"), refused('messages [[]] is not a non-empty list of JSON objects')),
    ('{"detail":{"to":"ALL"},"kind":"P2P_SEND","round":1,"subject":0}',
     refused("missing key 'messages'")),
    ('{"detail":{"message":{}},"kind":"P2P_SEND","round":1,"subject":0}',
     refused("missing key 'to'")),
    ('{"detail":{"to":[9]},"kind":"DELIVER_CALL","round":1,"subject":0}',
     refused("unknown key 'to' in a DELIVER_CALL")),
    (deliver_line("[0]", instances='[{"payload":"x"}]'), refused("missing key 'source'")),
    (deliver_line("[0]", instances='[{"payload":"x","source":"1"}]'),
     refused("source '1' is not an int")),
    (deliver_line("[0]", instances='[{"payload":"x","source":true}]'),
     refused('source True is not an int')),
    (deliver_line("[0]", instances='[{"payload":5,"source":0}]'),
     refused('payload 5 is not a string')),
    (deliver_line("[0]", instances='[{"payload_hex":"zz","source":0}]'),
     refused('non-hexadecimal number found in fromhex() arg at position 0')),
    (deliver_line("[0,2]", instances='[{"payload_hex":"00ff","source":5}]'), ITSELF),
    (deliver_line("[0]", instances="[]"),
     refused('instances [] is not a non-empty list of JSON objects')),
    (deliver_line("[0]", instances="null"),
     refused('instances None is not a non-empty list of JSON objects')),
    (deliver_line("[0]", instances='{"payload":"x","source":0}'),
     refused("instances {'payload': 'x', 'source': 0} is not a non-empty list of JSON objects")),
    (deliver_line("[0]", instances='[{"payload":"x","source":0},7]'),
     refused("instance citation 7 is outside 0..0, the instances defined so far")),
    (deliver_line("[0]", instances='[{"payload":"x","source":0},{"payload":"x","source":0}]'),
     refused("instance {'payload': 'x', 'source': 0} does not follow the one before it in "
              'strictly increasing (source, payload) order')),
    (deliver_line("[0]", instances='[{"payload":"y","source":0},{"payload":"x","source":0}]'),
     refused("instance {'payload': 'x', 'source': 0} does not follow the one before it in "
              'strictly increasing (source, payload) order')),
    (deliver_line("[0]", instances='[{"payload":"x","source":1},{"payload":"y","source":0}]'),
     refused("instance {'payload': 'y', 'source': 0} does not follow the one before it in "
              'strictly increasing (source, payload) order')),
    (deliver_line("[0]", instances='[{"payload":"x","source":0},{"payload_hex":"78","source":0}]'),
     refused("instance {'payload_hex': '78', 'source': 0} does not follow the one before "
              'it in strictly increasing (source, payload) order')),
    (deliver_line("[0]", instances='[{"payload_hex":"00ff","source":0},{"payload":"x","source":0},'
                                   '{"payload":"a","source":2}]'), ITSELF),
    # The DELIVER_CALL of ``mbbc-trace/6``: one instance's keys in the detail.
    (compute_line("DELIVER_CALL", '{"by":[0],"payload":"x","source":0}'),
     refused("unknown key 'payload' in a DELIVER_CALL")),
    (compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"source":0}'),
     refused("unknown key 'source' in a DELIVER_CALL")),
    (compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"payload":"x"}'),
     refused("unknown key 'payload' in a DELIVER_CALL")),
    (deliver_line("[0,1,5]"), ITSELF),
    (deliver_line(None), refused("missing key 'by'")),
    (deliver_line("[]"),
     refused('by [] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[2,1]", subject=2),
     refused('by [2, 1] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[1,1]", subject=1),
     refused('by [1, 1] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[1,6]", subject=1),
     refused('by [1, 6] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[-1,0]"),
     refused('by [-1, 0] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[true]", subject=1),
     refused('by [True] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[1.0]", subject=1),
     refused('by [1.0] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line('"0"'),
     refused("by '0' is not a non-empty, strictly increasing list of processes in 0..5")),
    (deliver_line("null"),
     refused('by None is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[1,3]", subject=3), refused('subject 3 is not the first of its by list, 1')),
    (deliver_line("[0]").replace('"DELIVER_CALL"', '"BROADCAST_CALL"'),
     refused("unknown key 'by' in a BROADCAST_CALL")),
    (compute_line("BROADCAST_CALL", "{}"), refused("missing key 'payload'")),
    (compute_line("BROADCAST_CALL", '{"payload_hex":"zz"}'),
     refused('non-hexadecimal number found in fromhex() arg at position 0')),
    (compute_line("BROADCAST_CALL", '{"payload":"x","to":[9]}'),
     refused("unknown key 'to' in a BROADCAST_CALL")),
    (compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"to":[9]}'),
     refused("unknown key 'to' in a DELIVER_CALL")),
    # A valid entry, then a bad one: the reader's checks meet the valid one
    # first. The first line of each citation row defines one object.
    (send_line('{"kind":"ROUND","round_value":2}') + "\n" + fan_out_line("[0,true]"),
     refused("message citation True is not an int", line=4)),
    (send_line('{"kind":"ROUND","round_value":2}') + "\n" + fan_out_line("[0,1.0]"),
     refused("message citation 1.0 is not an int", line=4)),
    (send_line('{"kind":"ROUND","round_value":2}') + "\n" + fan_out_line("[0,1]"),
     refused("message citation 1 is outside 0..0, the messages defined so far", line=4)),
    (deliver_line("[0]") + "\n" + deliver_line("[0]", instances="[0,true]"),
     refused("instance citation True is not an int", line=4)),
    (deliver_line("[0]") + "\n" + deliver_line("[0]", instances="[0,1.0]"),
     refused("instance citation 1.0 is not an int", line=4)),
    (deliver_line("[0]") + "\n" + deliver_line("[0]", instances="[0,1]"),
     refused("instance citation 1 is outside 0..0, the instances defined so far", line=4)),
    (send_line('{"kind":"ROUND","round_value":2}', to="[0,true]"),
     refused("to [0, True] is neither 'ALL' nor a list of receivers in 0..5")),
    (send_line('{"kind":"ROUND","round_value":2}', senders="[0,false]"),
     refused('from [0, False] is not a non-empty, strictly increasing list of processes in 0..5')),
    (deliver_line("[0,false]"),
     refused('by [0, False] is not a non-empty, strictly increasing list of processes in 0..5')),
    # A process list (a fan-out's ``from`` or a DELIVER_CALL's ``by``), a
    # receiver list (a dictated send's ``to``) or a digest is defined in
    # full, under its table's rule, or cited by an int index into its table.
    (CORRUPTED.replace(f'"{DIGEST}"', "1"),
     refused("digest citation 1 is outside 0..0, the digests defined so far")),
    (CORRUPTED.replace(f'"{DIGEST}"', "-1"),
     refused("digest citation -1 is outside 0..0, the digests defined so far")),
    (CORRUPTED.replace(f'"{DIGEST}"', "true"), refused("digest citation True is not an int")),
    (CORRUPTED.replace(f'"{DIGEST}"', "1.0"), refused("digest citation 1.0 is not an int")),
    (send_line('{"kind":"ROUND","round_value":2}', senders="0"),
     refused("process list citation 0 cites nothing: no process list is defined yet")),
    (deliver_line("0"), refused("process list citation 0 cites nothing: no process list is defined yet")),
    (deliver_line("true"), refused("process list citation True is not an int")),
    (send_line('{"kind":"ROUND","round_value":2}', senders="0.0"),
     refused("process list citation 0.0 is not an int")),
    (send_line('{"kind":"ROUND","round_value":2}', to="0"),
     refused("receiver list citation 0 cites nothing: no receiver list is defined yet")),
    (send_line('{"kind":"ROUND","round_value":2}', to="false"),
     refused("receiver list citation False is not an int")),
    (send_line('{"kind":"ROUND","round_value":2}', to="1.0"),
     refused("receiver list citation 1.0 is not an int")),
    (send_line('{"kind":"ROUND","round_value":2}', senders="[0,2]") + "\n" + deliver_line("1"),
     refused("process list citation 1 is outside 0..0, the process lists defined so far", line=4)),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1]") + "\n"
     + send_line("0", to="1"),
     refused("receiver list citation 1 is outside 0..0, the receiver lists defined so far", line=4)),
    # A cited ``from`` or ``by`` still names the line's subject first.
    (send_line('{"kind":"ROUND","round_value":2}', senders="[0,2]") + "\n"
     + send_line("0", subject=2, senders="0"),
     refused("subject 2 is not the first of its from list, 0", line=4)),
    (deliver_line("[0,2]") + "\n" + deliver_line("0", subject=2, instances="[0]"),
     refused("subject 2 is not the first of its by list, 0", line=4)),
    # A definition after another is checked under its table's rule as the
    # first is.
    (send_line('{"kind":"ROUND","round_value":2}') + "\n"
     + send_line("0", subject=2, senders="[2,1]"),
     refused("from [2, 1] is not a non-empty, strictly increasing list of processes in 0..5",
             line=4)),
    (deliver_line("[0]") + "\n" + deliver_line("[2,2]", subject=2, instances="[0]"),
     refused("by [2, 2] is not a non-empty, strictly increasing list of processes in 0..5",
             line=4)),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1]") + "\n"
     + send_line("0", to="[3,1]"), refused("to [3, 1] is not sorted", line=4)),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1]") + "\n"
     + send_line("0", to="[]"), refused("to [] names no receiver", line=4)),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1]") + "\n"
     + send_line("0", to="[1,6]"),
     refused("to [1, 6] is neither 'ALL' nor a list of receivers in 0..5", line=4)),
    # Each detail, and each instance object, holds the keys of its one key
    # set; any other key is refused by name, and so is a second payload.
    (fan_out_line('[{"kind":"ROUND","round_value":2}]').replace('"to"', '"note":1,"to"'),
     refused("unknown key 'note' in a send to 'ALL'")),
    (send_line('{"kind":"ROUND","round_value":2}', to="[1]").replace('"to"', '"note":1,"to"'),
     refused("unknown key 'note' in a send to a list of receivers")),
    (compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"note":1}'),
     refused("unknown key 'note' in a DELIVER_CALL")),
    (deliver_line("[0]", instances='[{"note":1,"payload":"x","source":0}]'),
     refused("unknown key 'note' in an instance")),
    (deliver_line("[0]") + "\n" + deliver_line("[0]", instances='[0,{"payload":"y","source":0,"x":1}]'),
     refused("unknown key 'x' in an instance", line=4)),
    (compute_line("BROADCAST_CALL", '{"note":1,"payload":"x"}'),
     refused("unknown key 'note' in a BROADCAST_CALL")),
    (compute_line("STATE_CORRUPTED", '{"note":1,"state_digest":"x"}'),
     refused("unknown key 'note' in a STATE_CORRUPTED")),
    (compute_line("BROADCAST_CALL", '{"payload":"x","payload_hex":"79"}'),
     refused("both payload and payload_hex are given; an entry takes one")),
    (deliver_line("[0]", instances='[{"payload":"x","payload_hex":"79","source":0}]'),
     refused("both payload and payload_hex are given; an entry takes one")),
]



class TestReader:
    @pytest.mark.parametrize(("line", "outcome"), PARSER_TABLE)
    def test_line_reads_to_its_pinned_outcome(self, line, outcome):
        expected = outcome if isinstance(outcome, Refused) else [CORRUPTED, outcome or line]
        assert parse("\n".join([HEADER, CORRUPTED, line]) + "\n") == expected

    def test_table_reads_as_one_trace(self):
        """The rows the reader accepts read as one trace to their pinned
        events, and a detail valid for one kind is still checked for the
        next: the last line's is a DELIVER_CALL's under P2P_SEND."""
        rows = [(line, outcome) for line, outcome in PARSER_TABLE
                if not isinstance(outcome, Refused)]
        assert len(rows) > 10
        lines = [line for line, _outcome in rows]
        assert parse("\n".join([HEADER, *lines]) + "\n") == [
            outcome or line for line, outcome in rows]
        text = "\n".join([HEADER, *lines, lines[-1].replace("DELIVER_CALL", "P2P_SEND")]) + "\n"
        assert parse(text) == f"trace line {len(lines) + 2}: bad event line: missing key 'to'"

    def test_deeply_nested_detail_is_refused_on_its_own_line(self):
        """From the first depth at which the parser runs out of recursion, a
        line is refused as not valid JSON on its own line number, and no
        RecursionError escapes; one level shallower it parses, and its
        message's kind is refused."""
        def refusal(depth: int) -> str:
            message = '{"kind":' + "[" * depth + "]" * depth + "}"
            return parse(f"{HEADER}\n{fan_out_line(f'[{message}]')}\n")

        invalid = "trace line 2: bad event line: not valid JSON ("
        lo, hi = 1, 100_000
        while lo < hi:
            mid = (lo + hi) // 2
            if refusal(mid).startswith(invalid):
                hi = mid
            else:
                lo = mid + 1
        assert refusal(lo - 1).startswith("trace line 2: bad event line: kind [")
        for depth in (lo, lo + 1, 100_000):
            assert refusal(depth).startswith(invalid), depth

    def test_citations_resolve_to_the_table_objects(self):
        """A citation reads to the object its table holds, shared read-only;
        a full object that repeats an earlier text appends, so a later
        citation of its index reads to it, and the trace writes back in the
        writer's own form, with the repeat cited."""
        x, y = '{"payload":"x","source":0}', '{"payload":"y","source":0}'
        m = '{"kind":"ROUND","round_value":2}'
        lines = [deliver_line("[0]", instances=f"[{x},{y}]"),
                 send_line(m, to="[1]"),
                 deliver_line("[1]", subject=1, instances=f"[{x}]"),
                 deliver_line("[0,2]", instances="[2,1]"),
                 send_line("0", subject=1, senders="[1,3]")]
        trace = Trace.from_jsonl("\n".join([HEADER, *lines]) + "\n")
        first, second, repeat, both, fan_out = (ev.detail for ev in trace.events)
        assert both["instances"][0] is repeat["instances"][0]
        assert both["instances"][1] is first["instances"][1]
        assert fan_out["messages"][0] is second["message"]
        assert per_line_events(trace) == [
            lines[0], lines[1], lines[2], deliver_line("[0,2]", instances=f"[{x},{y}]"),
            send_line(m, subject=1, senders="[1,3]")]
        assert trace.to_jsonl().splitlines()[1:] == [
            lines[0], lines[1], deliver_line("[1]", subject=1, instances="[0]"),
            deliver_line("[0,2]", instances="[0,1]"), lines[4]]

    def test_cited_instances_out_of_order_are_refused(self):
        """The (source, payload) order is checked on the kept keys of the
        cited instances, naming the line that cites them."""
        defined = deliver_line("[0]", instances='[{"payload":"x","source":0},{"payload":"y","source":1}]')
        text = "\n".join([HEADER, defined, deliver_line("[1]", subject=1, instances="[1,0]")]) + "\n"
        assert parse(text) == ("trace line 3: bad event line: instance {'payload': 'x', 'source': 0} "
                               "does not follow the one before it in strictly increasing (source, "
                               "payload) order")

    def test_each_line_of_a_shared_fan_out_detail_names_its_first_sender(self):
        """Two lines with one detail text: each line's subject is checked
        against that detail's first sender."""
        good = send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,4]")
        text = "\n".join([HEADER, good, good.replace('"subject":1', '"subject":4')]) + "\n"
        assert parse(text) == ("trace line 3: bad event line: "
                               "subject 4 is not the first of its from list, 1")

    def test_each_line_of_a_shared_deliver_call_detail_names_its_first_process(self):
        """As for a fan-out: on each of two lines with one detail text, a
        DELIVER_CALL's subject is checked against ``by[0]``."""
        good = deliver_line("[1,4]", subject=1)
        text = "\n".join([HEADER, good, good.replace('"subject":1', '"subject":4')]) + "\n"
        assert parse(text) == ("trace line 3: bad event line: "
                               "subject 4 is not the first of its by list, 1")

    @pytest.mark.parametrize("key, value", [("phase", '"ORACLE"'), ("seed", "0"),
                                            ("fingerprint", '"x"')])
    def test_a_header_key_outside_the_two_is_named(self, key, value):
        """A header holds its config and format alone: a leftover ``phase``,
        or the ``seed`` and ``fingerprint`` that ``mbbc-trace/11`` wrote
        beside the config, is refused, named."""
        header = HEADER.replace('"format"', f'"{key}":{value},"format"')
        assert parse(f"{header}\n{CORRUPTED}\n") == (
            f"trace line 1: bad header line: unknown key '{key}'")

    def test_a_trace_11_header_is_refused_for_its_format(self):
        """The format is read first, so a four-key ``mbbc-trace/11`` header
        is refused for its format, not for its keys."""
        header = ('{"config":{"horizon":8,"n":6},"fingerprint":"x","format":"mbbc-trace/11",'
                  '"seed":0}')
        assert parse(f"{header}\n{CORRUPTED}\n") == (
            "trace line 1: bad header line: format 'mbbc-trace/11' is not 'mbbc-trace/12'")

    def test_bundled_traces_read_back_and_cover_every_kind(self):
        kinds = set()
        for trace in bundled_traces():
            assert Trace.from_jsonl(trace.to_jsonl()) == trace
            kinds |= {ev.kind for ev in trace.events}
        assert kinds == set(engine.KINDS)
        # The header's schedule fixes the agents' moves and the cures.
        assert not kinds & {"AGENT_MOVE", "CURED"}

    def test_a_digest_citation_before_any_digest_is_refused(self):
        line = CORRUPTED.replace(f'"{DIGEST}"', "0")
        assert parse(f"{HEADER}\n{line}\n") == (
            "trace line 2: bad event line: digest citation 0 cites nothing: no digest is "
            "defined yet")

    def test_a_crash_silent_trace_cites_the_wiped_digest(self):
        """Each process the agent walks onto is wiped to the same state: its
        digest is written in full once and cited after that, and the trace
        reads back to the engine's events and writes back byte for byte."""
        trace = run(roundrobin_crash(7, 1, 12, (1,), "NFA_WEAK", "NFA"))
        text = trace.to_jsonl()
        digests = [json.loads(line)["detail"]["state_digest"] for line in text.splitlines()[1:]
                   if '"kind":"STATE_CORRUPTED"' in line]
        assert type(digests[0]) is str and digests[1:] and set(digests[1:]) == {0}
        parsed = Trace.from_jsonl(text)
        assert parsed == trace and parsed.to_jsonl() == text
        assert len({ev.detail["state_digest"] for ev in parsed.events
                    if ev.kind == KIND_STATE_CORRUPTED}) == 1

    def test_cited_lists_read_to_the_table_list(self):
        """``nfa_alternating_n7`` cites a ``from``, a ``by`` and a ``to``:
        each reads to the list its definition holds, shared read-only, and
        the trace writes back byte for byte."""
        path = next(path for path in CONFIGS if path.stem == "nfa_alternating_n7")
        trace = run(ScenarioConfig.from_json(path.read_text()))
        text = trace.to_jsonl()
        details = [json.loads(line)["detail"] for line in text.splitlines()[1:]]
        parsed = Trace.from_jsonl(text)
        assert parsed == trace and parsed.to_jsonl() == text
        defined = [ev.detail[key] for ev, detail in zip(parsed.events, details)
                   for key in ("from", "by", "to") if type(detail.get(key)) is list]
        for key in ("from", "by", "to"):
            cited = [ev.detail[key] for ev, detail in zip(parsed.events, details)
                     if type(detail.get(key)) is int]
            assert cited, key
            assert all(any(entry is value for value in defined) for entry in cited), key


def first_event(trace: Trace, kind: str, grouped: bool = False) -> int:
    """The index of the trace's first event of ``kind``; with ``grouped``, of
    its first one listing more than one process."""
    key = "from" if kind == KIND_P2P_SEND else "by"
    return next(i for i, ev in enumerate(trace.events) if ev.kind == kind
                and (kind != KIND_P2P_SEND or ev.detail["to"] == "ALL")
                and (not grouped or len(ev.detail[key]) > 1))


def smaller_instance(instance: dict) -> dict:
    """An instance of the same source whose payload sorts before ``instance``'s."""
    return {"payload_hex": "00", "source": instance["source"]}


# Each edit of one event's detail that the ``mbbc-trace/7`` reader refuses.
REFUSED_DETAILS = {
    "empty_messages": (KIND_P2P_SEND, lambda d: {**d, "messages": []}),
    "empty_instances": (KIND_DELIVER_CALL, lambda d: {**d, "instances": []}),
    "duplicate_instances": (KIND_DELIVER_CALL,
                            lambda d: {**d, "instances": [d["instances"][0], d["instances"][0]]}),
    "unsorted_instances": (KIND_DELIVER_CALL, lambda d: {
        **d, "instances": [d["instances"][0], smaller_instance(d["instances"][0])]}),
    "trace_6_fan_out": (KIND_P2P_SEND, lambda d: {"from": d["from"], "message": d["messages"][0],
                                                  "to": d["to"]}),
    "trace_6_fan_out_beside_messages": (KIND_P2P_SEND, lambda d: {**d, "message": d["messages"][0]}),
    "trace_6_deliver_call": (KIND_DELIVER_CALL, lambda d: {"by": d["by"], **d["instances"][0]}),
    "top_level_source": (KIND_DELIVER_CALL, lambda d: {**d, "source": d["instances"][0]["source"]}),
    "fan_out_undefined_key": (KIND_P2P_SEND, lambda d: {**d, "note": 1}),
    "instance_undefined_key": (KIND_DELIVER_CALL, lambda d: {
        **d, "instances": [{**d["instances"][0], "note": 1}, *d["instances"][1:]]}),
}


class TestRefusal:
    """A detail outside the ``mbbc-trace/7`` layout is a ValueError naming
    its line, and ``mbbc check`` exits 2 on it, in the middle of a real trace."""

    @pytest.mark.parametrize("name", sorted(REFUSED_DETAILS))
    def test_refused_detail_names_its_line(self, name, tmp_path, capsys):
        kind, edit = REFUSED_DETAILS[name]
        trace = run(split_send_scenario([1, 2, 3]))
        index = first_event(trace, kind, grouped=True)
        lines = trace.to_jsonl().splitlines()
        event = trace.events[index]
        lines[index + 1] = encode_line(event._replace(detail=edit(event.detail)).to_dict())
        text = "\n".join(lines) + "\n"
        with pytest.raises(ValueError, match=rf"^trace line {index + 2}: bad event line: "):
            Trace.from_jsonl(text)
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        capsys.readouterr()
        assert cli.main(["check", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"trace line {index + 2}: bad event line: " in err and "Traceback" not in err, err

    def test_the_unedited_trace_is_read(self):
        trace = run(split_send_scenario([1, 2, 3]))
        assert Trace.from_jsonl(trace.to_jsonl()) == trace
        for kind in (KIND_P2P_SEND, KIND_DELIVER_CALL):
            assert first_event(trace, kind, grouped=True) > 0
