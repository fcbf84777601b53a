import json

import pytest

from conftest import (
    CHOICE_PINS,
    assert_choice_verdicts_hold,
    assert_deliver_call_layout,
    choice_violations,
    possessed_digests,
)
from mbbc import cli
from mbbc.checker import NO_DUPLICATION, SATISFIED, VIOLATED, run_property_checks
from mbbc.demos import adapter_choices, adapter_output, run_demo
from mbbc.engine import KIND_DELIVER_CALL, delivered_instances
from mbbc.scenario import InvalidScenario


class TestSourceFlipDemo:
    def test_projections_byte_identical(self):
        result = run_demo("THEOREM_3", {})
        assert result.projections_identical

    def test_every_choice_violates_something(self):
        result = run_demo("THEOREM_3", {})
        assert result.holds
        assert {c["choice"] for c in result.choices} == {
            "deliver_first_payload", "deliver_second_payload", "deliver_neither", "deliver_both"}
        for choice in result.choices:
            assert choice["violations"], choice["choice"]

    def test_single_choice_violations_land_on_the_starved_history(self):
        result = run_demo("THEOREM_3", {})
        by_choice = {c["choice"]: c for c in result.choices}
        first = by_choice["deliver_first_payload"]["violations"]
        assert [(v["history"], v["property"]) for v in first] == [
            ("faulty_then_correct", "VALIDITY")]
        both = by_choice["deliver_both"]["violations"]
        assert {v["property"] for v in both} == {"CONSISTENCY"}

    def test_channel_protocol_itself_stays_clean_on_both_histories(self):
        # The multi-shot channel delivers both payloads exactly once each;
        # only the hypothetical one-shot adapter is squeezed.
        result = run_demo("THEOREM_3", {})
        for cfg, trace in ((result.config_first, result.trace_first),
                           (result.config_second, result.trace_second)):
            sched = cfg.resolved_schedule()
            for report in run_property_checks(trace, sched, cfg.delta_b, cfg.delta_c, cfg.variant):
                assert report.verdict != VIOLATED, report.property

    def test_parameters_respected(self):
        result = run_demo("SOURCE_FLIP", {"delta_1": 2, "m1": "alpha", "m2": "beta"})
        assert result.projections_identical and result.holds
        switch = 2 + 2 + 1
        assert result.config_first.broadcasts[1].round == switch

    def test_deterministic(self):
        a = run_demo("THEOREM_3", {})
        b = run_demo("THEOREM_3", {})
        assert a.trace_first.sha256() == b.trace_first.sha256()
        assert a.to_dict() == b.to_dict()


class TestWipeFlipDemo:
    def test_projections_byte_identical_and_holds(self):
        result = run_demo("THEOREM_4", {})
        assert result.projections_identical
        assert result.holds
        for choice in result.choices:
            assert choice["violations"], choice["choice"]

    def test_bundled_protocol_takes_the_duplicate_branch(self):
        # The basic-awareness variant really does deliver on cure: the
        # deliver-then-wipe history shows the duplicate on the real trace.
        result = run_demo("THEOREM_4", {})
        cfg = result.config_first
        sched = cfg.resolved_schedule()
        report = next(
            r for r in run_property_checks(
                result.trace_first, sched, cfg.delta_b, cfg.delta_c, cfg.variant)
            if r.property == NO_DUPLICATION)
        assert report.verdict == VIOLATED
        target = cfg.strategy["target"]
        cited = [result.trace_first.events[i] for i in report.witness]
        assert all(e.kind == KIND_DELIVER_CALL and target in e.detail["by"] for e in cited)
        # The real delivery and the cure re-delivery.
        assert sorted(e.round for e in cited) == [4, 7]
        assert report.details["duplicates"] == [
            {"process": target, "source": cfg.broadcasts[0].source, "rounds": [4, 7]}]

    def test_wipe_only_history_is_clean(self):
        result = run_demo("THEOREM_4", {})
        cfg = result.config_second
        sched = cfg.resolved_schedule()
        for report in run_property_checks(
                result.trace_second, sched, cfg.delta_b, cfg.delta_c, cfg.variant):
            assert report.verdict == SATISFIED, report.property

    def test_target_state_digest_identical_at_cure(self):
        # Both histories wipe the target to init in the same round: the
        # target's digests in that round coincide, which is the
        # local-indistinguishability core.
        result = run_demo("THEOREM_4", {})
        wipe_round = result.config_first.strategy["wipe_round"]
        target = result.config_first.strategy["target"]
        a = possessed_digests(result.trace_first)[target, wipe_round]
        b = possessed_digests(result.trace_second)[target, wipe_round]
        assert a == b

    def test_deliveries_differ_only_at_the_flip_target(self):
        result = run_demo("THEOREM_4", {})
        target = result.config_first.strategy["target"]

        def deliveries(trace):
            return {(p, e.round) for e in trace.events if e.kind == KIND_DELIVER_CALL
                    for p in e.detail["by"] if p != target}

        assert deliveries(result.trace_first) == deliveries(result.trace_second)


@pytest.mark.parametrize("kind", ["SOURCE_FLIP", "WIPE_FLIP"])
def test_checker_finds_a_replayable_violation_for_every_adapter_choice(kind):
    """Scored by the checker, not by hand: each choice an adapter could make on
    the shared observation violates some property on at least one history."""
    result = run_demo(kind, {})
    assert result.holds
    assert choice_violations(result) == CHOICE_PINS[kind]
    assert_choice_verdicts_hold(result)


def test_every_verdict_comes_from_the_checker():
    result = run_demo("SOURCE_FLIP", {})
    for choice in result.choices:
        for history, verdicts in choice["verdicts"].items():
            assert list(verdicts) == ["VALIDITY", "NO_DUPLICATION", "INTEGRITY", "CONSISTENCY",
                                      "TOTALITY"]
            violated = [p for p, verdict in verdicts.items() if verdict == VIOLATED]
            assert violated == [v["property"] for v in choice["violations"]
                                if v["history"] == history]


def test_adapter_output_leaves_the_channel_trace_alone():
    result = run_demo("WIPE_FLIP", {})
    before = result.trace_first.to_jsonl()
    keep = adapter_choices("WIPE_FLIP", result.config_first)["ignore_cure"]
    output = adapter_output(result.trace_first, keep)
    assert result.trace_first.to_jsonl() == before
    target = result.config_first.strategy["target"]
    changed = [e for e in result.trace_first.events if e not in output.events]
    assert changed and all(e.kind == KIND_DELIVER_CALL and target in e.detail["by"]
                           and e.round > result.config_first.strategy["wipe_round"]
                           for e in changed)


def deliveries_of(trace, keep=lambda r, source, payload, p: True) -> list[tuple[int, int, int, bytes]]:
    """(round, process, source, payload), sorted, for each member of each
    DELIVER_CALL instance that ``keep`` accepts."""
    return sorted((r, p, source, payload)
                  for _i, r, by, source, payload in delivered_instances(trace.events)
                  for p in by if keep(r, source, payload, p))


@pytest.mark.parametrize("kind", ["SOURCE_FLIP", "WIPE_FLIP"])
def test_adapter_output_narrows_each_deliver_call_to_the_kept_processes(kind):
    """Every choice keeps exactly the (instance, process) deliveries it
    accepts, regrouped in the trace's layout: one DELIVER_CALL per round and
    distinct ``by``, its subject ``by[0]``, its instances increasing, the
    events in first-instance order, none left empty, where the round's first
    DELIVER_CALL stood; nothing else changes. ``ignore_cure`` leaves the
    target in no DELIVER_CALL after the wipe round."""
    result = run_demo(kind, {})
    cfg = result.config_first
    narrowed = False
    for name, keep in adapter_choices(kind, cfg).items():
        for trace in (result.trace_first, result.trace_second):
            output = adapter_output(trace, keep)
            calls = [e for e in output.events if e.kind == KIND_DELIVER_CALL]
            assert all(e.detail["by"] and e.subject == e.detail["by"][0] for e in calls), name
            assert_deliver_call_layout(output.events)
            assert [e for e in output.events if e.kind != KIND_DELIVER_CALL] == [
                e for e in trace.events if e.kind != KIND_DELIVER_CALL]
            assert deliveries_of(output) == deliveries_of(trace, keep), name
            narrowed |= deliveries_of(output) != deliveries_of(trace)
            # Rounds in order, and a round's DELIVER_CALLs after its other events.
            marks = [(e.round, e.kind == KIND_DELIVER_CALL) for e in output.events]
            assert marks == sorted(marks), name
    assert narrowed
    if kind == "WIPE_FLIP":
        target, wipe_round = cfg.strategy["target"], cfg.strategy["wipe_round"]

        def cure(r, source, payload, p) -> bool:
            return p == target and r > wipe_round

        assert deliveries_of(result.trace_first, cure)
        keep = adapter_choices(kind, cfg)["ignore_cure"]
        for trace in (result.trace_first, result.trace_second):
            assert not deliveries_of(adapter_output(trace, keep), cure)


def test_wipe_flip_without_a_correct_delivery_does_not_hold(capsys):
    """With delta_1 = 3 the target would be possessed before the round its
    delivery falls due, so delivering on the cure would duplicate nothing: the
    construction rejects it, naming the bound, and accepts delta_1 = 4."""
    with pytest.raises(InvalidScenario, match="delta_1 >= 4"):
        run_demo("WIPE_FLIP", {"delta_1": 3})
    assert cli.main(["demo", "--kind", "WIPE_FLIP", "--params", '{"delta_1": 3}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and "delta_1 >= 4" in err, err
    assert "Traceback" not in err
    assert run_demo("WIPE_FLIP", {"delta_1": 4}).holds


def test_unknown_demo_kind_raises():
    with pytest.raises(InvalidScenario):
        run_demo("NOT_A_DEMO", {})


WIPE_FLIP_GRID = [{"n": n, "delta_1": d1, "delta_2": d2}
                  for n in range(4, 10) for d1 in range(1, 8) for d2 in range(1, 5)]
SOURCE_FLIP_GRID = [{"n": n, "delta_b": db, "delta_1": d1}
                    for n in range(4, 10) for db in range(1, 5) for d1 in range(1, 5)]


@pytest.mark.parametrize("kind, grid, rejected", [
    ("WIPE_FLIP", WIPE_FLIP_GRID, 72), ("SOURCE_FLIP", SOURCE_FLIP_GRID, 0)])
def test_every_accepted_construction_holds(kind, grid, rejected, capsys):
    """Over n 4-9 and the construction's delays, every accepted cell holds:
    identical projections and a violation for every adapter choice. WIPE_FLIP
    rejects exactly the cells with delta_1 <= 3 (exit 2)."""
    held, refused = 0, 0
    for params in grid:
        if kind == "WIPE_FLIP" and params["delta_1"] <= 3:
            assert cli.main(["demo", "--kind", kind, "--params", json.dumps(params)]) == 2, params
            refused += 1
            continue
        result = run_demo(kind, params)
        assert result.projections_identical, params
        assert all(choice["violations"] for choice in result.choices), params
        assert result.holds, params
        held += 1
    capsys.readouterr()
    assert (held, refused) == (96, rejected)
