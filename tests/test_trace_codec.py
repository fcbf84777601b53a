"""The trace codec: the line writer writes exactly ``encode_line(ev.to_dict())``
per event, and the reader's fast path for lines in the writer's layout
accepts, rejects and names exactly what the per-line parser does."""

import json
from pathlib import Path

import pytest

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


def parse(text: str, monkeypatch, fast: bool):
    """``Trace.from_jsonl(text)``'s events, or its ValueError text; with
    ``fast`` off every line goes through the per-line parser."""
    with monkeypatch.context() as patch:
        if not fast:
            patch.setattr(engine, "_layout_reader", lambda n, horizon: lambda line: None)
        try:
            return Trace.from_jsonl(text).events
        except ValueError as exc:
            return str(exc)


class TestWriter:
    def test_bundled_traces_write_as_per_event_lines(self):
        for trace in bundled_traces():
            assert trace.to_jsonl().splitlines()[1:] == per_line_events(trace)

    @pytest.mark.parametrize("values", [("1", "true", "1.0", "1"), ("0.0", "-0.0", "0", "0.0")])
    def test_equal_round_values_of_other_types_rewrite_byte_for_byte(self, values):
        """``True == 1 == 1.0`` and ``0.0 == -0.0``, but JSON writes each
        differently: a memo must not write one as another."""
        lines = [send_line(f'{{"kind":"ROUND","round_value":{v}}}', subject=s)
                 for s, v in enumerate(values)]
        text = "\n".join([HEADER, *lines]) + "\n"
        trace = Trace.from_jsonl(text)
        assert trace.to_jsonl() == text
        assert trace.to_jsonl().splitlines()[1:] == per_line_events(trace)

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
        assert event_lines(events) == [encode_line(ev.to_dict()) for ev in events]

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
        assert event_lines([event, event]) == [encode_line(event.to_dict())] * 2

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

        assert event_lines(events(300)) == [encode_line(ev.to_dict()) for ev in events(300)]

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
        """A parsed trace shares details by text and the engine's by
        construction; either way the projection's bytes are the same."""
        for config, trace in projection_pairs():
            schedule = config.resolved_schedule()
            parsed = Trace.from_jsonl(trace.to_jsonl())
            assert projection_jsonl(parsed, schedule) == projection_jsonl(trace, schedule)


PARSER_TABLE = [
    CORRUPTED,
    '{"detail": {}, "kind": "STATE_CORRUPTED", "round": 1, "subject": 0}',
    '{"detail": {"state_digest" : null},"kind":"STATE_CORRUPTED","round":1,"subject":0}',
    CORRUPTED + "  ",
    "  " + CORRUPTED,
    '{"kind":"STATE_CORRUPTED","detail":{},"round":1,"subject":0}',
    CORRUPTED.replace('"detail"', '"Detail"'),
    CORRUPTED.replace('{"detail":', '["detail",'),
    '{"detail":{},"kind":"STATE_CORRUPTED","subject":0,"round":1}',
    CORRUPTED.replace('"round":1', '"round":01'),
    CORRUPTED.replace('"round":1', '"round":1.0'),
    CORRUPTED.replace('"round":1', '"round":true'),
    CORRUPTED.replace('"round":1', '"round":1e0'),
    CORRUPTED.replace('"round":1', '"round":-1'),
    CORRUPTED.replace('"round":1', '"round":0'),
    CORRUPTED.replace('"round":1', '"round":9'),
    CORRUPTED.replace('"round":1', '"round":' + "1" * 30),
    CORRUPTED.replace('"subject":0', '"subject":-0'),
    CORRUPTED.replace('"subject":0', '"subject":6'),
    CORRUPTED.replace('"subject":0', '"subject":5'),
    CORRUPTED.replace('"STATE_CORRUPTED"', '"state_corrupted"'),
    CORRUPTED.replace('"STATE_CORRUPTED"', '"P2P_DELIVER"'),
    CORRUPTED.replace(',"round"', ',"phase":"COMPUTE","round"'),
    CORRUPTED.replace(',"kind"', ',"extra":5,"kind"'),
    CORRUPTED[:-1] + ',"zz":0}',
    CORRUPTED.replace("{}", "[]"),
    CORRUPTED.replace("{}", '"x"'),
    CORRUPTED.replace("{}", ""),
    CORRUPTED.replace("{}", "{},{}"),
    CORRUPTED.replace("{}", '{"a":[{}'),
    CORRUPTED.replace("{}", '{"x":NaN}'),
    CORRUPTED.replace("{}", "\ufeff{}"),
    '{"a":[{}',
    "{}]}",
    "{},{}",
    '{"detail":{},"kind":"BROADCAST_CALL","round":2,"subject":1,'
    '"detail":{"state_digest":null},"kind":"STATE_CORRUPTED","round":1,"subject":0}',
    # The kinds of an older layout, whose facts the header's schedule fixes.
    '{"detail":{"agent":0,"from":null,"to":1},"kind":"AGENT_MOVE","round":1,"subject":1}',
    '{"detail":{"faulty_since":null},"kind":"CURED","round":1,"subject":0}',
    send_line('{"kind":"SEND","source":0,"birth_round":1,'
              '"payload":",\\"kind\\":\\"P2P_SEND\\",\\"round\\":1,\\"subject\\":0}"}'),
    send_line('{"kind":"SEND","source":0,"birth_round":1,"payload":"x"},"to":"ALL"}'
              ',"kind":"P2P_SEND","round":1,"subject":0}'),
    send_line('{"kind":"ROUND","round_value":2}'),
    send_line('{"kind":"ROUND","round_value":2}', to="[5,0,5]", round_=8, subject=5),
    send_line('{"kind":"ROUND","round_value":2}', to="[1,6]"),
    send_line('{"kind":"ROUND","round_value":2}', to='"SOME"'),
    send_line('{"kind":"ROUND","round_value":2}', to="[true]"),
    send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,3,5]"),
    send_line('{"kind":"ROUND","round_value":2}', senders="[]"),
    send_line('{"kind":"ROUND","round_value":2}', subject=2, senders="[2,1]"),
    send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,1]"),
    send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,6]"),
    send_line('{"kind":"ROUND","round_value":2}', senders="[-1,0]"),
    send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[true]"),
    send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1.0]"),
    send_line('{"kind":"ROUND","round_value":2}', senders='"0"'),
    send_line('{"kind":"ROUND","round_value":2}', senders="null"),
    send_line('{"kind":"ROUND","round_value":2}', to="[1]", senders="[0]"),
    send_line('{"kind":"ROUND","round_value":2}', to='"SOME"', senders="[0]"),
    '{"detail":{"message":{"kind":"ROUND","round_value":2},"to":"ALL"},'
    '"kind":"P2P_SEND","round":1,"subject":0}',
    '{"detail":{"messages":[{"kind":"ROUND","round_value":2}],"to":"ALL"},'
    '"kind":"P2P_SEND","round":1,"subject":0}',
    # The fan-out of ``mbbc-trace/6``: one message beside "ALL".
    '{"detail":{"from":[0],"message":{"kind":"ROUND","round_value":2},"to":"ALL"},'
    '"kind":"P2P_SEND","round":1,"subject":0}',
    '{"detail":{"from":[0],"message":{"kind":"ROUND","round_value":2},'
    '"messages":[{"kind":"ROUND","round_value":2}],"to":"ALL"},"kind":"P2P_SEND","round":1,"subject":0}',
    '{"detail":{"message":{"kind":"ROUND","round_value":2},'
    '"messages":[{"kind":"ROUND","round_value":2}],"to":[1]},"kind":"P2P_SEND","round":1,"subject":0}',
    fan_out_line("[]"),
    fan_out_line("null"),
    fan_out_line('{"kind":"ROUND","round_value":2}'),
    fan_out_line('[{"kind":"ROUND","round_value":2},3]'),
    fan_out_line('[{"kind":"ROUND","round_value":2},{"kind":"ROUND","round_value":3}]',
                 senders="[1,4]", subject=1),
    send_line('{"kind":"ROUND","round_value":2}', subject=3, senders="[1,3]"),
    send_line("[]"),
    '{"detail":{"to":"ALL"},"kind":"P2P_SEND","round":1,"subject":0}',
    '{"detail":{"message":{}},"kind":"P2P_SEND","round":1,"subject":0}',
    '{"detail":{"to":[9]},"kind":"DELIVER_CALL","round":1,"subject":0}',
    deliver_line("[0]", instances='[{"payload":"x"}]'),
    deliver_line("[0]", instances='[{"payload":"x","source":"1"}]'),
    deliver_line("[0]", instances='[{"payload":"x","source":true}]'),
    deliver_line("[0]", instances='[{"payload":5,"source":0}]'),
    deliver_line("[0]", instances='[{"payload_hex":"zz","source":0}]'),
    deliver_line("[0,2]", instances='[{"payload_hex":"00ff","source":5}]'),
    deliver_line("[0]", instances="[]"),
    deliver_line("[0]", instances="null"),
    deliver_line("[0]", instances='{"payload":"x","source":0}'),
    deliver_line("[0]", instances='[{"payload":"x","source":0},7]'),
    deliver_line("[0]", instances='[{"payload":"x","source":0},{"payload":"x","source":0}]'),
    deliver_line("[0]", instances='[{"payload":"y","source":0},{"payload":"x","source":0}]'),
    deliver_line("[0]", instances='[{"payload":"x","source":1},{"payload":"y","source":0}]'),
    deliver_line("[0]", instances='[{"payload":"x","source":0},{"payload_hex":"78","source":0}]'),
    deliver_line("[0]", instances='[{"payload_hex":"00ff","source":0},{"payload":"x","source":0},'
                                  '{"payload":"a","source":2}]'),
    # The DELIVER_CALL of ``mbbc-trace/6``: one instance's keys in the detail.
    compute_line("DELIVER_CALL", '{"by":[0],"payload":"x","source":0}'),
    compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"source":0}'),
    compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"payload":"x"}'),
    deliver_line("[0,1,5]"),
    deliver_line(None),
    deliver_line("[]"),
    deliver_line("[2,1]", subject=2),
    deliver_line("[1,1]", subject=1),
    deliver_line("[1,6]", subject=1),
    deliver_line("[-1,0]"),
    deliver_line("[true]", subject=1),
    deliver_line("[1.0]", subject=1),
    deliver_line('"0"'),
    deliver_line("null"),
    deliver_line("[1,3]", subject=3),
    deliver_line("[0]").replace('"DELIVER_CALL"', '"BROADCAST_CALL"'),
    compute_line("BROADCAST_CALL", "{}"),
    compute_line("BROADCAST_CALL", '{"payload_hex":"zz"}'),
    compute_line("BROADCAST_CALL", '{"payload":"x","to":[9]}'),
    compute_line("DELIVER_CALL", '{"by":[0],"instances":[{"payload":"x","source":0}],"to":[9]}'),
]


class TestReader:
    @pytest.mark.parametrize("line", PARSER_TABLE)
    def test_line_reads_as_the_per_line_parser_reads_it(self, line, monkeypatch):
        text = "\n".join([HEADER, CORRUPTED, line]) + "\n"
        fast = parse(text, monkeypatch, fast=True)
        assert fast == parse(text, monkeypatch, fast=False)
        if isinstance(fast, str):
            assert fast.startswith("trace line 3: "), fast

    def test_table_reads_as_one_trace_as_the_per_line_parser_reads_it(self, monkeypatch):
        """The memo of detail texts is keyed by kind: a detail valid for one
        kind is still checked for the next."""
        lines = [line for line in PARSER_TABLE
                 if not isinstance(parse(f"{HEADER}\n{line}\n", monkeypatch, True), str)]
        assert len(lines) > 10
        text = "\n".join([HEADER, *lines, lines[-1].replace("DELIVER_CALL", "P2P_SEND")]) + "\n"
        assert parse(text, monkeypatch, True) == parse(text, monkeypatch, False)
        assert parse(text, monkeypatch, True) == f"trace line {len(lines) + 2}: bad event line: missing key 'message'"

    def test_deeply_nested_detail_reads_as_the_per_line_parser_reads_it(self, monkeypatch):
        """A whole line nests one level deeper than its detail. At the first
        depth where the per-line parser runs out of recursion, the detail
        alone still parses, yet the fast path must reject the line too."""
        def detail(depth: int) -> str:
            return '{"x":' + "[" * depth + "]" * depth + "}"

        def text(depth: int) -> str:
            return f"{HEADER}\n{CORRUPTED.replace('{}', detail(depth))}\n"

        lo, hi = 1, 100_000
        while lo < hi:
            mid = (lo + hi) // 2
            if isinstance(parse(text(mid), monkeypatch, fast=False), str):
                hi = mid
            else:
                lo = mid + 1
        assert "not valid JSON" in parse(text(lo), monkeypatch, fast=False)
        assert json.loads(detail(lo))
        for depth in (lo - 1, lo, lo + 1, 100_000):
            assert parse(text(depth), monkeypatch, True) == parse(text(depth), monkeypatch, False)

    def test_each_line_of_a_shared_fan_out_detail_names_its_first_sender(self, monkeypatch):
        """Lines with one detail text share one parsed detail, but each line's
        subject is still checked against that detail's first sender."""
        good = send_line('{"kind":"ROUND","round_value":2}', subject=1, senders="[1,4]")
        text = "\n".join([HEADER, good, good.replace('"subject":1', '"subject":4')]) + "\n"
        assert parse(text, monkeypatch, True) == parse(text, monkeypatch, False)
        assert parse(text, monkeypatch, True).startswith("trace line 3: bad event line: subject 4 ")

    def test_each_line_of_a_shared_deliver_call_detail_names_its_first_process(self, monkeypatch):
        """As for a fan-out: a DELIVER_CALL's subject is checked against
        ``by[0]`` on every line, also when its detail text was read before."""
        good = deliver_line("[1,4]", subject=1)
        text = "\n".join([HEADER, good, good.replace('"subject":1', '"subject":4')]) + "\n"
        assert parse(text, monkeypatch, True) == parse(text, monkeypatch, False)
        assert parse(text, monkeypatch, True).startswith("trace line 3: bad event line: subject 4 ")

    def test_a_header_key_outside_the_four_is_named(self, monkeypatch):
        header = HEADER.replace('"seed"', '"phase":"ORACLE","seed"')
        assert parse(f"{header}\n{CORRUPTED}\n", monkeypatch, True) == (
            "trace line 1: bad header line: unknown key 'phase'")

    def test_equal_detail_texts_share_one_read_only_dict(self):
        text = "\n".join([HEADER, CORRUPTED, CORRUPTED.replace('"subject":0', '"subject":3')]) + "\n"
        first, second = Trace.from_jsonl(text).events
        assert first.detail is second.detail

    def test_every_bundled_event_line_takes_the_fast_path(self):
        """A layout pattern that misses a kind (``[A-Z_]+`` misses P2P_SEND)
        would send its lines down the per-line parser unnoticed."""
        kinds = set()
        for trace in bundled_traces():
            text = trace.to_jsonl()
            read = engine._layout_reader(trace.config["n"], trace.config["horizon"])
            assert [read(line) for line in text.splitlines()[1:]] == trace.events
            assert Trace.from_jsonl(text) == trace
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
