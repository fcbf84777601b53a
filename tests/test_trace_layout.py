"""The ``mbbc-trace/14`` layout on every trace the engine writes here: the
bundled configs, both histories of every demo kind, the longer shapes
(``conftest.shape_config``) and a seeded pool of ARBITRARY scripts over the
three variants (``conftest.arbitrary_config``), with the forged-birth
scripts of ``conftest.forged_birth_config`` for the STATE_CORRUPTED rule.

Per round, each (sender, message) fan-out stands in one P2P_SEND, a
possessed sender's too when each of its messages reaches every process
exactly once, and each (process, instance) delivery in at most one
DELIVER_CALL; the events are in first-message and first-instance order; a
possessed process writes one STATE_CORRUPTED per faulty span, in its last
round within the horizon, the digest of the state its cure finds; and the
trace reads back equal to itself. Its JSONL writes each message, instance,
process list, receiver list and state digest in full once, and cites it by
its index in that value's table after that. Over the pool, the
monitor (``monitor.Monitor``) gives every verdict, every violation's witness
cites the events it needs, and the projection does not depend on how a
trace groups its deliveries.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    SHAPES,
    arbitrary_config,
    assert_checked_independently,
    assert_deliver_call_layout,
    assert_fan_out_layout,
    assert_one_digest_per_span,
    forged_birth_config,
    shape_config,
    written_digests,
)
from mbbc.checker import ALL_PROPERTIES, permanently_correct, projection_jsonl, run_property_checks
from mbbc.demos import run_demo
from mbbc.engine import KIND_DELIVER_CALL, KIND_P2P_SEND, KIND_STATE_CORRUPTED, Trace, encode_line, run
from mbbc.messages import decode_payload
from mbbc.scenario import ScenarioConfig

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
DEMOS = ["THEOREM_3", "THEOREM_4", "SOURCE_FLIP", "WIPE_FLIP"]
ARBITRARY_SEEDS = range(60)


def case_traces(case: str) -> list[Trace]:
    if case in DEMOS:
        result = run_demo(case, {})
        return [result.trace_first, result.trace_second]
    if case.startswith("arbitrary-"):
        return [run(arbitrary_config(int(case.split("-")[1])))]
    if case.startswith("forged_birth-"):
        return [run(forged_birth_config(int(case.split("-")[1]), 6, 1))]
    if case in SHAPES:
        return [run(shape_config(case))]
    return [run(ScenarioConfig.from_json(next(p for p in CONFIGS if p.name == case).read_text()))]


CASES = ([p.name for p in CONFIGS] + DEMOS + list(SHAPES)
         + [f"arbitrary-{seed}" for seed in ARBITRARY_SEEDS])
SPAN_CASES = CASES + [f"forged_birth-{seed}" for seed in range(60)]
CITATION_CASES = ([p.name for p in CONFIGS] + DEMOS + list(SHAPES)
                  + [f"arbitrary-{seed}" for seed in range(200)])


# The citation tables of ``mbbc-trace/10``.
TABLES = ("message", "instance", "process list", "receiver list", "digest")


def cited_places(detail: dict, kind: str) -> list[tuple[str, list]]:
    """Each citation table's values in one line's detail: a fan-out's
    ``from`` and messages, a dictated send's message and ``to``, a
    DELIVER_CALL's ``by`` and instances, and a STATE_CORRUPTED's digest."""
    if kind == KIND_P2P_SEND and detail["to"] == "ALL":
        return [("process list", [detail["from"]]), ("message", detail["messages"])]
    if kind == KIND_P2P_SEND:
        return [("message", [detail["message"]]), ("receiver list", [detail["to"]])]
    if kind == KIND_DELIVER_CALL:
        return [("process list", [detail["by"]]), ("instance", detail["instances"])]
    if kind == KIND_STATE_CORRUPTED:
        return [("digest", [detail["state_digest"]])]
    return []


def citation_counts(trace: Trace) -> dict[str, int]:
    """The citations of each table in the trace's JSONL, after checking that
    each message, instance, process list, receiver list and digest text is
    written in full at most once, that every citation is an int index of an
    earlier definition in the same table, that the JSONL reads back to the
    trace's events and that the read trace writes back byte for byte."""
    text = trace.to_jsonl()
    tables: dict[str, list[str]] = {name: [] for name in TABLES}
    citations = dict.fromkeys(TABLES, 0)
    for line in text.splitlines()[1:]:
        event = json.loads(line)
        for name, values in cited_places(event["detail"], event["kind"]):
            table = tables[name]
            for value in values:
                if type(value) is int:
                    assert 0 <= value < len(table), line
                    citations[name] += 1
                else:
                    assert encode_line(value) not in table, line
                    table.append(encode_line(value))
    parsed = Trace.from_jsonl(text)
    assert parsed.events == trace.events
    assert parsed.to_jsonl() == text
    return citations


@pytest.mark.parametrize("case", CASES)
def test_grouped_layout_and_round_trip(case):
    for trace in case_traces(case):
        assert_fan_out_layout(trace.events)
        assert_deliver_call_layout(trace.events)
        assert Trace.from_jsonl(trace.to_jsonl()) == trace


@pytest.mark.parametrize("case", SPAN_CASES)
def test_one_state_corrupted_per_faulty_span(case):
    for trace in case_traces(case):
        assert_one_digest_per_span(trace)


@pytest.mark.parametrize("case", CITATION_CASES)
def test_each_cited_value_is_written_in_full_once(case):
    for trace in case_traces(case):
        citation_counts(trace)


def test_the_cases_cite_every_table():
    """The cases repeat each kind of cited value, so the test above sees
    citations of every table."""
    cited = dict.fromkeys(TABLES, 0)
    for case in CASES:
        for trace in case_traces(case):
            for name, count in citation_counts(trace).items():
                cited[name] += count
    assert all(cited.values()), cited


def test_the_cases_reach_every_kind_of_span_end():
    """The cases reach each side of the rule: spans of several rounds,
    whose earlier rounds write nothing, spans a cure ends and spans the
    horizon cuts, and processes with several spans."""
    longer = cured = cut = again = 0
    for case in SPAN_CASES:
        for trace in case_traces(case):
            schedule = trace.scenario().resolved_schedule()
            written = written_digests(trace)
            longer += sum(r > 1 and schedule.is_faulty(p, r - 1) for p, r in written)
            cured += sum(r < schedule.horizon for _p, r in written)
            cut += sum(r == schedule.horizon for _p, r in written)
            again += len(written) > len({p for p, _r in written})
    assert longer and cured and cut and again, (longer, cured, cut, again)


def test_a_possessed_sender_to_every_process_fans_out():
    """A possessed sender each of whose messages reaches every process
    exactly once stands in the fan-outs, as a correct one does: no sender's
    dictated P2P_SENDs of a round all list every process exactly once. The
    rule is per sender, not per send: a partial sender's message to every
    process stays dictated, listing every process. The cases reach both
    sides: possessed fan-out senders, and such dictated sends."""
    fanned = listed = 0
    for case in CASES:
        for trace in case_traces(case):
            everyone = list(range(trace.config["n"]))
            schedule = trace.scenario().resolved_schedule()
            dictated: dict[tuple[int, int], list[bool]] = {}
            for ev in trace.events:
                if ev.kind != KIND_P2P_SEND:
                    continue
                if ev.detail["to"] == "ALL":
                    fanned += sum(schedule.is_faulty(p, ev.round) for p in ev.detail["from"])
                else:
                    dictated.setdefault((ev.round, ev.subject), []).append(ev.detail["to"] == everyone)
            assert not any(all(full) for full in dictated.values()), case
            listed += sum(map(sum, dictated.values()))
    assert fanned and listed, (fanned, listed)


def test_the_pool_groups_several_messages_and_instances_per_event():
    """The pool reaches what the layout groups: fan-outs of several messages
    beside several sender lists in one round, and DELIVER_CALLs of several
    instances beside several ``by`` lists in one round."""
    for key in ("messages", "instances"):
        events = [(seed, ev) for seed in ARBITRARY_SEEDS
                  for ev in case_traces(f"arbitrary-{seed}")[0].events if key in ev.detail]
        assert any(len(ev.detail[key]) > 1 for _seed, ev in events), key
        rounds = [(seed, ev.round) for seed, ev in events]
        assert len(rounds) > len(set(rounds)), key


def test_equal_instances_share_one_dict():
    """The engine builds each instance dict once per simulation and every
    DELIVER_CALL that lists the instance shares it."""
    trace = run(ScenarioConfig.from_json(
        next(p for p in CONFIGS if p.name == "nfa_alternating_n7.json").read_text()))
    ids_by_text: dict[str, set[int]] = {}
    count = 0
    for ev in trace.events:
        if ev.kind == KIND_DELIVER_CALL:
            for instance in ev.detail["instances"]:
                ids_by_text.setdefault(encode_line(instance), set()).add(id(instance))
                count += 1
    assert count > len(ids_by_text)
    assert all(len(ids) == 1 for ids in ids_by_text.values())


@pytest.mark.parametrize("seed", ARBITRARY_SEEDS)
def test_every_violation_of_the_pool_replays_from_its_witness(seed):
    """A witness cites events; several instance groups of one DELIVER_CALL
    share its index, and the cited events still show the violation."""
    config = arbitrary_config(seed)
    trace = run(config)
    schedule = config.resolved_schedule()
    reports = run_property_checks(trace, schedule, config.delta_b, config.delta_c,
                                  config.variant, ALL_PROPERTIES)
    assert_checked_independently(reports, trace, schedule, config.delta_b, config.delta_c,
                                 config.variant)


def one_call_per_instance(trace: Trace) -> Trace:
    """The trace with each DELIVER_CALL split into one event per instance,
    a round's in descending (source, payload) order, where its first one
    stood: the same deliveries, grouped and ordered against the layout."""
    calls: dict[int, list] = {}
    for ev in trace.events:
        if ev.kind == KIND_DELIVER_CALL:
            calls.setdefault(ev.round, []).extend(
                ev._replace(detail={"by": ev.detail["by"], "instances": [instance]})
                for instance in ev.detail["instances"])
    events = []
    for ev in trace.events:
        if ev.kind != KIND_DELIVER_CALL:
            events.append(ev)
        elif ev.round in calls:
            events += sorted(calls.pop(ev.round), reverse=True, key=lambda e: (
                e.detail["instances"][0]["source"], decode_payload(e.detail["instances"][0])))
    return replace(trace, events=events)


@pytest.mark.parametrize("seed", ARBITRARY_SEEDS)
def test_the_projection_does_not_depend_on_how_deliveries_are_grouped(seed):
    """A kept process's deliveries of a round project in (source, payload)
    order whichever events list them and in whatever order."""
    config = arbitrary_config(seed)
    trace, schedule = run(config), config.resolved_schedule()
    split = one_call_per_instance(trace)
    assert projection_jsonl(split, schedule) == projection_jsonl(trace, schedule)


def test_the_pool_projects_several_deliveries_of_one_process_in_a_round():
    """So the test above orders something: some kept process delivers more
    than one instance in a round."""
    def several(seed: int) -> bool:
        config = arbitrary_config(seed)
        keep = permanently_correct(config.resolved_schedule())
        return any(ev.kind == KIND_DELIVER_CALL and len(ev.detail["instances"]) > 1
                   and keep & set(ev.detail["by"]) for ev in run(config).events)

    assert any(several(seed) for seed in ARBITRARY_SEEDS)
