"""The trace codec: without citation tables the line writer writes exactly
``encode_line(ev.to_dict())`` per event; with them, as ``Trace.to_jsonl``
writes, it writes those lines with every message and instance after the first
of its text cited by its index (``cited``). The reader parses each line
whole, to a pinned event or a pinned error naming the line."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import split_send_scenario
from mbbc import cli, engine
from mbbc.checker import permanently_correct, projection, projection_jsonl
from mbbc.demos import run_demo
from mbbc.engine import KIND_DELIVER_CALL, KIND_P2P_SEND, Trace, TraceEvent, encode_line, event_lines, run
from mbbc.scenario import ScenarioConfig

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
DEMOS = ["THEOREM_3", "THEOREM_4", "SOURCE_FLIP", "WIPE_FLIP"]

HEADER = ('{"config":{"horizon":8,"n":6},"fingerprint":"x","format":"' + engine.TRACE_FORMAT
          + '","seed":0}')
# A valid line of a kind whose detail the reader does not check.
CORRUPTED = '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'


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
    """The ``mbbc-trace/9`` citation pass over uncited event lines, written
    out literally. In line order and then list order, each JSON object in a
    P2P_SEND's ``messages`` (beside ``"ALL"``) or its ``message`` (beside
    anything else), and in a DELIVER_CALL's ``instances``, is kept in full
    the first time its text appears in its table, and replaced by the index
    of that first appearance after that."""
    tables: dict[str, dict[str, int]] = {KIND_P2P_SEND: {}, KIND_DELIVER_CALL: {}}
    out = []
    for line in lines:
        event = json.loads(line)
        kind, detail = event["kind"], event["detail"]
        if isinstance(kind, str) and kind in tables and isinstance(detail, dict):
            table = tables[kind]

            def cite(value):
                if not isinstance(value, dict):
                    return value
                text = encode_line(value)
                if text in table:
                    return table[text]
                table[text] = len(table)
                return value

            if kind == KIND_DELIVER_CALL:
                key = "instances"
            else:
                key = "messages" if detail.get("to") == "ALL" else "message"
            if key == "message" and key in detail:
                detail[key] = cite(detail[key])
            elif isinstance(detail.get(key), list):
                detail[key] = [cite(value) for value in detail[key]]
        out.append(encode_line(event))
    return out


# Empty (message, instance) citation tables, as ``Trace.to_jsonl`` starts from.
def tables() -> tuple[dict[str, int], dict[str, int]]:
    return {}, {}


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

    @pytest.mark.parametrize("values", [("1", "true", "1.0", "1"), ("0.0", "-0.0", "0", "0.0")])
    def test_equal_round_values_of_other_types_rewrite_byte_for_byte(self, values):
        """``True == 1 == 1.0`` and ``0.0 == -0.0``, but JSON writes each
        differently: a memo must not write one as another, and a table must
        not cite one for another. Only the fourth message repeats the text
        of the first, and only it is cited."""
        lines = [send_line(f'{{"kind":"ROUND","round_value":{v}}}', subject=s)
                 for s, v in enumerate(values)]
        trace = Trace.from_jsonl("\n".join([HEADER, *lines]) + "\n")
        assert per_line_events(trace) == lines
        written = trace.to_jsonl()
        assert written.splitlines()[1:] == cited(lines) == [*lines[:3], send_line("0", subject=3)]
        assert Trace.from_jsonl(written) == trace
        assert Trace.from_jsonl(written).to_jsonl() == written

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
        lines = [encode_line(ev.to_dict()) for ev in events]
        assert event_lines(events) == lines
        assert event_lines(events, tables()) == cited(lines)

    @pytest.mark.parametrize("event", [
        TraceEvent(1.0, "STATE_CORRUPTED", 0, {}),
        TraceEvent(True, "STATE_CORRUPTED", 0, {}),
        TraceEvent(1, "STATE_CORRUPTED", False, {}),
        TraceEvent(1, ["STATE_CORRUPTED"], 0, {}),
        TraceEvent(1, "P2P_DELIVER", 0, {}),
        TraceEvent(1, KIND_P2P_SEND, 0, {"message": {"round_value": [1]}, "to": [2, 1]}),
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
        lines = [encode_line(event.to_dict())] * 2
        assert event_lines([event, event]) == lines
        assert event_lines([event, event], tables()) == cited(lines)

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

    def test_details_with_a_key_outside_the_template_cite_as_the_reader_resolves(self):
        """The reader keeps a key it does not know, so a detail that holds
        one is written whole, its cited place cited all the same."""
        message, instance = {"kind": "ROUND", "round_value": 2}, {"payload": "x", "source": 0}
        details = [(KIND_P2P_SEND, {"from": [0], "messages": [message], "to": "ALL", "note": 1}),
                   (KIND_P2P_SEND, {"message": message, "to": [1], "note": 1}),
                   (KIND_DELIVER_CALL, {"by": [0], "instances": [instance], "note": 1}),
                   (KIND_DELIVER_CALL, {"by": [0], "instances": [instance], "note": 2})]
        trace = Trace("x", 0, {"horizon": 8, "n": 6},
                      [TraceEvent(1, kind, 0, detail) for kind, detail in details])
        lines = trace.to_jsonl().splitlines()[1:]
        assert lines == cited(per_line_events(trace))
        assert ['"message":0' in lines[1], '"instances":[0]' in lines[3]] == [True, True]
        assert Trace.from_jsonl(trace.to_jsonl()) == trace

    def test_tables_carry_their_definitions_from_call_to_call(self):
        events = [TraceEvent(1, KIND_DELIVER_CALL, 0, {"by": [0], "instances": [
            {"payload": "x", "source": 0}, {"payload": "y", "source": 0}]})]
        messages, instances = shared = tables()
        first, = event_lines(events, shared)
        again, = event_lines(events, shared)
        assert (messages, instances) == ({}, {'{"payload":"x","source":0}': 0,
                                             '{"payload":"y","source":0}': 1})
        assert first == encode_line(events[0].to_dict())
        assert again == first.replace('[{"payload":"x","source":0},{"payload":"y","source":0}]',
                                      "[0,1]")

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
    ('{"detail": {}, "kind": "STATE_CORRUPTED", "round": 1, "subject": 0}',
     '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    ('{"detail": {"state_digest" : null},"kind":"STATE_CORRUPTED","round":1,"subject":0}',
     '{"detail":{"state_digest":null},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    # The reader scans a line in C and hands it to ``json.loads`` when the
    # scan does not read it whole: these read, or are refused, as
    # ``json.loads`` reads them.
    (CORRUPTED + "  ", '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    ("  " + CORRUPTED, '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    ("\t" + CORRUPTED + " \t", '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    (CORRUPTED + "x", refused("not valid JSON (Extra data: line 1 column 61 (char 60))")),
    (CORRUPTED + " x", refused("not valid JSON (Extra data: line 1 column 62 (char 61))")),
    (CORRUPTED + ",", refused("not valid JSON (Extra data: line 1 column 61 (char 60))")),
    (CORRUPTED + CORRUPTED, refused("not valid JSON (Extra data: line 1 column 61 (char 60))")),
    (CORRUPTED + " " + CORRUPTED,
     refused("not valid JSON (Extra data: line 1 column 62 (char 61))")),
    ("[]", refused("not a JSON object")),
    (" [] ", refused("not a JSON object")),
    ("1", refused("not a JSON object")),
    ("null", refused("not a JSON object")),
    ('{"kind":"STATE_CORRUPTED","detail":{},"round":1,"subject":0}',
     '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    (CORRUPTED.replace('"detail"', '"Detail"'), refused("unknown key 'Detail'")),
    (CORRUPTED.replace('{"detail":', '["detail",'),
     refused("not valid JSON (Expecting ',' delimiter: line 1 column 20 (char 19))")),
    ('{"detail":{},"kind":"STATE_CORRUPTED","subject":0,"round":1}',
     '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    (CORRUPTED.replace('"round":1', '"round":01'),
     refused("not valid JSON (Expecting ',' delimiter: line 1 column 48 (char 47))")),
    (CORRUPTED.replace('"round":1', '"round":1.0'), refused('round 1.0 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":true'), refused('round True outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":1e0'), refused('round 1.0 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":-1'), refused('round -1 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":0'), refused('round 0 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":9'), refused('round 9 outside 1..8')),
    (CORRUPTED.replace('"round":1', '"round":' + "1" * 30),
     refused('round 111111111111111111111111111111 outside 1..8')),
    (CORRUPTED.replace('"subject":0', '"subject":-0'),
     '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
    (CORRUPTED.replace('"subject":0', '"subject":6'), refused('subject 6 outside 0..5')),
    (CORRUPTED.replace('"subject":0', '"subject":5'), ITSELF),
    (CORRUPTED.replace('"STATE_CORRUPTED"', '"state_corrupted"'),
     refused("unknown kind 'state_corrupted'")),
    (CORRUPTED.replace('"STATE_CORRUPTED"', '"P2P_DELIVER"'),
     refused("unknown kind 'P2P_DELIVER'")),
    (CORRUPTED.replace(',"round"', ',"phase":"COMPUTE","round"'), refused("unknown key 'phase'")),
    (CORRUPTED.replace(',"kind"', ',"extra":5,"kind"'), refused("unknown key 'extra'")),
    (CORRUPTED[:-1] + ',"zz":0}', refused("unknown key 'zz'")),
    (CORRUPTED.replace("{}", "[]"), refused('detail is not a JSON object')),
    (CORRUPTED.replace("{}", '"x"'), refused('detail is not a JSON object')),
    (CORRUPTED.replace("{}", ""),
     refused('not valid JSON (Expecting value: line 1 column 11 (char 10))')),
    (CORRUPTED.replace("{}", "{},{}"),
     refused('not valid JSON (Expecting property name enclosed in double quotes: line 1 '
              'column 14 (char 13))')),
    (CORRUPTED.replace("{}", '{"a":[{}'),
     refused("not valid JSON (Expecting ',' delimiter: line 1 column 26 (char 25))")),
    (CORRUPTED.replace("{}", '{"x":NaN}'), ITSELF),
    (CORRUPTED.replace("{}", "\ufeff{}"),
     refused('not valid JSON (Expecting value: line 1 column 11 (char 10))')),
    ('{"a":[{}', refused("not valid JSON (Expecting ',' delimiter: line 1 column 9 (char 8))")),
    ("{}]}", refused('not valid JSON (Extra data: line 1 column 3 (char 2))')),
    ("{},{}", refused('not valid JSON (Extra data: line 1 column 3 (char 2))')),
    ('{"detail":{},"kind":"BROADCAST_CALL","round":2,"subject":1,'
     '"detail":{"state_digest":null},"kind":"STATE_CORRUPTED","round":1,"subject":0}',
     '{"detail":{"state_digest":null},"kind":"STATE_CORRUPTED","round":1,"subject":0}'),
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
     refused('a send to a list of receivers has a from; its sender is its subject')),
    (send_line('{"kind":"ROUND","round_value":2}', to='"SOME"', senders="[0]"),
     refused("to 'SOME' is neither 'ALL' nor a list of receivers in 0..5")),
    ('{"detail":{"message":{"kind":"ROUND","round_value":2},"to":"ALL"},'
     '"kind":"P2P_SEND","round":1,"subject":0}',
     refused("a send to 'ALL' has a message; it lists its messages")),
    ('{"detail":{"messages":[{"kind":"ROUND","round_value":2}],"to":"ALL"},'
     '"kind":"P2P_SEND","round":1,"subject":0}', refused("missing key 'from'")),
    # The fan-out of ``mbbc-trace/6``: one message beside "ALL".
    ('{"detail":{"from":[0],"message":{"kind":"ROUND","round_value":2},"to":"ALL"},'
     '"kind":"P2P_SEND","round":1,"subject":0}',
     refused("a send to 'ALL' has a message; it lists its messages")),
    ('{"detail":{"from":[0],"message":{"kind":"ROUND","round_value":2},'
     '"messages":[{"kind":"ROUND","round_value":2}],"to":"ALL"},"kind":"P2P_SEND","round":1,"subject":0}',
     refused("a send to 'ALL' has a message; it lists its messages")),
    ('{"detail":{"message":{"kind":"ROUND","round_value":2},'
     '"messages":[{"kind":"ROUND","round_value":2}],"to":[1]},"kind":"P2P_SEND","round":1,"subject":0}',
     refused('a send to a list of receivers has messages; it carries one message')),
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
     refused("missing key 'instances'")),
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
     refused('a DELIVER_CALL has a source; its instances carry theirs')),
    (compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"source":0}'),
     refused('a DELIVER_CALL has a source; its instances carry theirs')),
    (compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"payload":"x"}'),
     refused('a DELIVER_CALL has a payload; its instances carry theirs')),
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
     refused("missing key 'payload'")),
    (compute_line("BROADCAST_CALL", "{}"), refused("missing key 'payload'")),
    (compute_line("BROADCAST_CALL", '{"payload_hex":"zz"}'),
     refused('non-hexadecimal number found in fromhex() arg at position 0')),
    (compute_line("BROADCAST_CALL", '{"payload":"x","to":[9]}'), ITSELF),
    (compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"to":[9]}'),
     ITSELF),
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
        assert parse(text) == f"trace line {len(lines) + 2}: bad event line: missing key 'message'"

    def test_deeply_nested_detail_is_refused_on_its_own_line(self):
        """From the first depth at which the parser runs out of recursion, a
        line is refused as not valid JSON on its own line number, and no
        RecursionError escapes."""
        def text(depth: int) -> str:
            detail = '{"x":' + "[" * depth + "]" * depth + "}"
            return f"{HEADER}\n{CORRUPTED.replace('{}', detail)}\n"

        lo, hi = 1, 100_000
        while lo < hi:
            mid = (lo + hi) // 2
            if isinstance(parse(text(mid)), str):
                hi = mid
            else:
                lo = mid + 1
        assert not isinstance(parse(text(lo - 1)), str)
        for depth in (lo, lo + 1, 100_000):
            refusal = parse(text(depth))
            assert refusal.startswith("trace line 2: bad event line: not valid JSON ("), depth

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

    def test_a_header_key_outside_the_four_is_named(self):
        header = HEADER.replace('"seed"', '"phase":"ORACLE","seed"')
        assert parse(f"{header}\n{CORRUPTED}\n") == (
            "trace line 1: bad header line: unknown key 'phase'")

    def test_bundled_traces_read_back_and_cover_every_kind(self):
        kinds = set()
        for trace in bundled_traces():
            assert Trace.from_jsonl(trace.to_jsonl()) == trace
            kinds |= {ev.kind for ev in trace.events}
        assert kinds == set(engine.KINDS)
        # The header's schedule fixes the agents' moves and the cures.
        assert not kinds & {"AGENT_MOVE", "CURED"}


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
