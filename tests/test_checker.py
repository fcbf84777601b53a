import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    assert_checked_independently,
    bfa_double_cure_scenario,
    broadcast_event,
    deliver_event,
    fault_free_config,
    forged_trace,
    golden_correct_source,
    hand_built,
    one_stay_config,
    split_send_scenario,
)
from mbbc import checker
from mbbc.checker import (
    AGREEMENT,
    ALL_PROPERTIES,
    CONSISTENCY,
    DELIVERY_COUNT_LAW,
    INTEGRITY,
    MBBC_PROPERTIES,
    NO_DUPLICATION,
    SATISFIED,
    TOTALITY,
    UNRESOLVED,
    VALIDITY,
    VIOLATED,
    PropertyReport,
    extract_deliveries,
    permanently_correct,
    projection,
    projection_jsonl,
    reports_to_json,
    run_property_checks,
)
from mbbc.demos import run_demo
from mbbc.engine import (
    KIND_BROADCAST_CALL,
    KIND_DELIVER_CALL,
    KIND_P2P_SEND,
    KIND_STATE_CORRUPTED,
    TO_ALL,
    Trace,
    deliveries,
    encode_line,
    round_sends,
    run,
)
from mbbc.protocol import VariantTag
from mbbc.scenario import ScenarioConfig
from mbbc.sweeps import attack_scenario


def check_one(prop: str, trace: Trace, cfg: ScenarioConfig,
              variant: VariantTag | None = None) -> PropertyReport:
    """The report of one property, with delta_b 2 and delta_c 1."""
    report, = run_property_checks(trace, cfg.resolved_schedule(), 2, 1, variant or cfg.variant, (prop,))
    return report


def drop_delivery(trace: Trace, process: int, round_: int) -> None:
    """Take ``process`` out of its first DELIVER_CALL of ``round_`` (all the
    event's instances), in place, dropping the event if no process is left
    in it."""
    i, ev = next((i, e) for i, e in enumerate(trace.events) if e.kind == KIND_DELIVER_CALL
                 and e.round == round_ and process in e.detail["by"])
    by = [p for p in ev.detail["by"] if p != process]
    if by:
        trace.events[i] = ev._replace(subject=by[0], detail={**ev.detail, "by": by})
    else:
        del trace.events[i]


class TestValidity:
    def test_golden_trace_satisfied(self):
        cfg = golden_correct_source()
        report = check_one(VALIDITY, run(cfg), cfg)
        assert report.verdict == SATISFIED
        assert report.details["per_process_reading_evaluated"] is True

    def test_no_broadcast_vacuous(self):
        cfg = fault_free_config()
        report = check_one(VALIDITY, forged_trace(cfg, []), cfg)
        assert report.verdict == SATISFIED

    def test_alternating_attack_below_bound_violated(self):
        cfg = attack_scenario(VariantTag.FFA_FULL, 5, 1, 1, "alternating")
        trace = run(cfg)
        report = check_one(VALIDITY, trace, cfg)
        assert report.verdict == VIOLATED
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)

    def test_broadcast_too_close_to_horizon_unresolved(self):
        cfg = fault_free_config(horizon=3)
        trace = forged_trace(cfg, [broadcast_event(0, 1, "m")])
        report = check_one(VALIDITY, trace, cfg)
        assert report.verdict == UNRESOLVED  # due round 4 > horizon 3


class TestNoDuplication:
    def test_golden_trace_satisfied(self):
        cfg = golden_correct_source()
        assert check_one(NO_DUPLICATION, run(cfg), cfg).verdict == SATISFIED

    def test_bfa_double_cure_violated_with_three_records(self):
        cfg = bfa_double_cure_scenario()
        trace = run(cfg)
        report = check_one(NO_DUPLICATION, trace, cfg)
        assert report.verdict == VIOLATED
        # The twice-cured process is in three cited DELIVER_CALLs.
        assert sum(5 in trace.events[i].detail["by"] for i in report.witness) == 3
        assert {"process": 5, "source": 0, "rounds": [4, 6, 8]} in report.details["duplicates"]
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)

    def test_zero_deliveries_satisfied(self):
        cfg = fault_free_config()
        assert check_one(NO_DUPLICATION, forged_trace(cfg, []), cfg).verdict == SATISFIED


class TestIntegrity:
    def test_correct_source_broadcast_branch(self):
        cfg = golden_correct_source()
        assert check_one(INTEGRITY, run(cfg), cfg).verdict == SATISFIED

    def test_faulty_source_branch(self):
        cfg = split_send_scenario([1, 2, 3])
        assert check_one(INTEGRITY, run(cfg), cfg).verdict == SATISFIED

    def test_forged_unexplained_delivery_violated(self):
        cfg, trace = hand_built("unexplained_delivery")
        report = check_one(INTEGRITY, trace, cfg)
        assert report.verdict == VIOLATED
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)


    @pytest.mark.parametrize("round_, verdict", [(4, SATISFIED), (3, VIOLATED)])
    def test_source_faulty_from_the_delivery_round_explains_it(self, round_, verdict):
        cfg = one_stay_config(4, 8, 0, 4, None)
        trace = forged_trace(cfg, [deliver_event(2, round_, 0, "ghost")])
        assert check_one(INTEGRITY, trace, cfg).verdict == verdict

    @pytest.mark.parametrize("round_, verdict", [(3, SATISFIED), (2, VIOLATED)])
    def test_broadcast_in_the_delivery_round_explains_it(self, round_, verdict):
        cfg = fault_free_config(horizon=8)
        trace = forged_trace(cfg, [broadcast_event(0, 3, "m"), broadcast_event(0, 5, "m"),
                                   deliver_event(2, round_, 0, "m")])
        assert check_one(INTEGRITY, trace, cfg).verdict == verdict


class TestFaultyTimeDeliveries:
    def test_ignored_by_every_checker(self):
        # Process 1 is possessed throughout; what it "delivers" is adversary output.
        cfg = one_stay_config(4, 8, 1, 1, None, "BFA_WEAK")
        schedule = cfg.resolved_schedule()
        forged = [deliver_event(1, 3, 0, "a"), deliver_event(1, 4, 0, "a"),
                  deliver_event(1, 5, 0, "b")]
        reports = run_property_checks(forged_trace(cfg, forged), schedule, 2, 1, cfg.variant,
                                      ALL_PROPERTIES)
        assert all(r.verdict == SATISFIED for r in reports), [r.to_dict() for r in reports]
        # The same deliveries by a correct process violate most properties.
        cfg, honest = hand_built("correct_repeats")
        assert [(e.round, e.detail["instances"]) for e in honest.events] == [
            (e.round, e.detail["instances"]) for e in forged]
        reports = run_property_checks(honest, schedule, 2, 1, cfg.variant, ALL_PROPERTIES)
        violated = [r for r in reports if r.verdict == VIOLATED]
        assert {r.property for r in violated} == {
            "NO_DUPLICATION", "INTEGRITY", "AGREEMENT", "CONSISTENCY", "TOTALITY",
            "DELIVERY_COUNT_LAW"}
        assert_checked_independently(reports, honest, schedule, 2, 1, cfg.variant)


class TestAgreement:
    def test_all_deliver_satisfied(self):
        cfg = split_send_scenario([1, 2, 3])
        assert check_one(AGREEMENT, run(cfg), cfg).verdict == SATISFIED

    def test_none_deliver_vacuously_satisfied(self):
        cfg = split_send_scenario([1, 2])
        trace = run(cfg)
        assert not [g for g in extract_deliveries(trace, cfg.resolved_schedule()) if g.correct]
        assert check_one(AGREEMENT, trace, cfg).verdict == SATISFIED

    def test_forged_partial_delivery_violated(self):
        cfg, trace = hand_built("partial_delivery")
        report = check_one(AGREEMENT, trace, cfg)
        assert report.verdict == VIOLATED
        missing = {o["process"] for o in report.details["obligations"] if o["status"] == VIOLATED}
        assert missing == {2, 3}
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)

    def test_delivery_at_horizon_leaves_others_unresolved(self):
        cfg, trace = hand_built("delivery_at_horizon")
        report = check_one(AGREEMENT, trace, cfg)
        assert report.verdict == UNRESOLVED
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)


class TestMbrbCheckers:
    def test_consistency_violated_on_two_payloads(self):
        cfg, trace = hand_built("two_payloads")
        report = check_one(CONSISTENCY, trace, cfg)
        assert report.verdict == VIOLATED
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)

    def test_consistency_satisfied_on_equal_payloads(self):
        cfg = fault_free_config()
        trace = forged_trace(cfg, [deliver_event(0, 3, 2, "a"), deliver_event(1, 4, 2, "a")])
        assert check_one(CONSISTENCY, trace, cfg).verdict == SATISFIED

    def test_totality_unresolved_when_horizon_too_short(self):
        cfg = fault_free_config(n=3, horizon=4)
        trace = forged_trace(cfg, [deliver_event(0, 4, 2, "m")])
        assert check_one(TOTALITY, trace, cfg).verdict == UNRESOLVED

    def test_totality_counts_any_payload_from_source(self):
        cfg = fault_free_config(n=2, horizon=8)
        trace = forged_trace(cfg, [deliver_event(0, 3, 1, "a"), deliver_event(1, 4, 1, "b")])
        assert check_one(TOTALITY, trace, cfg).verdict == SATISFIED


class TestDeliveryCountLaws:
    def test_ffa_not_applicable(self):
        cfg = golden_correct_source()
        report = check_one(DELIVERY_COUNT_LAW, run(cfg), cfg, VariantTag.FFA_FULL)
        assert report.verdict == SATISFIED
        assert "not applicable" in report.details["note"]

    def test_bfa_bound_met(self):
        cfg = bfa_double_cure_scenario()
        trace = run(cfg)
        report = check_one(DELIVERY_COUNT_LAW, trace, cfg, VariantTag.BFA_WEAK)
        assert report.verdict == SATISFIED

    def test_bfa_bound_violated_when_cure_delivery_removed(self):
        cfg = bfa_double_cure_scenario()
        trace = run(cfg)
        # Drop one of the twice-cured process's cure deliveries.
        drop_delivery(trace, 5, 6)
        report = check_one(DELIVERY_COUNT_LAW, trace, cfg, VariantTag.BFA_WEAK)
        assert report.verdict == VIOLATED
        shortfall = report.details["instances"][0]["shortfalls"][0]
        assert shortfall["process"] == 5 and shortfall["required"] == 3
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1,
                                     VariantTag.BFA_WEAK)

    def test_nfa_per_round_law(self):
        cfg = attack_scenario(VariantTag.NFA_WEAK, 7, 1, 1, "alternating")
        trace = run(cfg)
        report = check_one(DELIVERY_COUNT_LAW, trace, cfg, VariantTag.NFA_WEAK)
        assert report.verdict == SATISFIED
        # Removing any one correct-round delivery breaks the law.
        first = next(e for e in trace.events if e.kind == KIND_DELIVER_CALL and e.round == 5)
        drop_delivery(trace, first.subject, 5)
        report = check_one(DELIVERY_COUNT_LAW, trace, cfg, VariantTag.NFA_WEAK)
        assert report.verdict == VIOLATED
        assert report.details["instances"][0]["missing"] == [{"process": first.subject, "round": 5}]
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1,
                                     VariantTag.NFA_WEAK)

    def test_a_source_correct_for_delta_b_rounds_gives_the_birth(self):
        cfg = bfa_double_cure_scenario()
        report = check_one(DELIVERY_COUNT_LAW, run(cfg), cfg, VariantTag.BFA_WEAK)
        assert [inst["birth_round"] for inst in report.details["instances"]] == [1]

    def test_a_source_possessed_before_its_send_is_owed_from_the_forged_birth(self):
        """Source 0 broadcasts in round 1 and is possessed in round 2, so its
        SEND never goes out; in round 5 the agent sends it with birth 4, and
        every process delivers in round 7. The counts are owed from birth 4,
        not from the broadcast: the cures of rounds 5 to 7 owe nothing."""
        cfg = ScenarioConfig.from_json((CONFIG_DIR / "bfa_forged_birth.json").read_text())
        trace = run(cfg)
        report = check_one(DELIVERY_COUNT_LAW, trace, cfg)
        assert report.verdict == SATISFIED, report.details
        assert report.details["instances"] == [{"source": 0, "birth_round": 4}]
        drop_delivery(trace, 3, 7)
        report = check_one(DELIVERY_COUNT_LAW, trace, cfg)
        assert report.verdict == VIOLATED
        assert report.details["instances"][0]["shortfalls"] == [
            {"process": 3, "required": 1, "actual": 0, "cures": []}]
        # Process 3 has no DELIVER_CALL left to cite: the witness is the
        # instance's first one, which puts the law in force.
        assert report.witness == [next(i for i, ev in enumerate(trace.events)
                                       if ev.kind == KIND_DELIVER_CALL)]
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)

    def test_an_nfa_violation_cites_the_delivery_that_puts_the_law_in_force(self):
        """NFA_WEAK, n=6, f=1: source 0 broadcasts in round 1 and the agent
        crashes host 4 in round 4, host 3 in round 5 and host 2 from round 7.
        The correct processes deliver in round 4 only, so the law misses 16
        (process, round) pairs; the report cites the round-4 DELIVER_CALL,
        not an empty witness."""
        cfg = ScenarioConfig.from_dict({
            "n": 6, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": 7, "seed": 0,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "NFA"},
            "variant": "NFA_WEAK",
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 4, "first_round": 4, "last_round": 4},
                {"host": 3, "first_round": 5, "last_round": 5},
                {"host": 2, "first_round": 7, "last_round": None}]}]},
            "broadcasts": [{"source": 0, "round": 1, "payload": "x"}],
            "strategy": {"kind": "CRASH_SILENT"},
        })
        trace = run(cfg)
        calls = [i for i, ev in enumerate(trace.events) if ev.kind == KIND_DELIVER_CALL]
        assert [(trace.events[i].round, trace.events[i].detail["by"]) for i in calls] == [
            (4, [0, 1, 2, 3, 5])]
        report = check_one(DELIVERY_COUNT_LAW, trace, cfg)
        assert report.verdict == VIOLATED
        assert len(report.details["instances"][0]["missing"]) == 16
        assert report.witness == calls
        assert_checked_independently([report], trace, cfg.resolved_schedule(), 2, 1, cfg.variant)

    def test_cures_come_from_the_schedule_not_the_trace(self):
        """Process 5 is cured in rounds 6 and 8 and re-delivers in both. A
        trace that drops its round-8 DELIVER_CALL, written and read back,
        still owes that re-delivery: no line records a cure, and the header's
        schedule says who is cured."""
        cfg = ScenarioConfig.from_json((CONFIG_DIR / "bfa_double_cure.json").read_text())
        trace = run(cfg)
        calls = [ev for ev in trace.events
                 if ev.kind == KIND_DELIVER_CALL and ev.round == 8 and ev.subject == 5]
        assert [ev.detail["by"] for ev in calls] == [[5]]
        trace.events = [ev for ev in trace.events if ev not in calls]
        report = check_one(DELIVERY_COUNT_LAW, Trace.from_jsonl(trace.to_jsonl()), cfg)
        assert report.verdict == VIOLATED
        assert report.details["instances"][0]["shortfalls"] == [
            {"process": 5, "required": 3, "actual": 2, "cures": [6, 8]}]


class TestReportPlumbing:
    def test_run_property_checks_order_and_json(self):
        cfg = golden_correct_source()
        reports = run_property_checks(run(cfg), cfg.resolved_schedule(), 2, 1, cfg.variant)
        assert [r.property for r in reports] == list(MBBC_PROPERTIES)
        text = reports_to_json(reports)
        assert '"VALIDITY"' in text and '"verdict"' in text

    def test_checkers_are_pure(self):
        cfg = golden_correct_source()
        trace = run(cfg)
        sched = cfg.resolved_schedule()
        a = run_property_checks(trace, sched, 2, 1, cfg.variant)
        b = run_property_checks(trace, sched, 2, 1, cfg.variant)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


class TestFullVariantNeverViolated:
    """Engine-produced full-oracle traces above the bound never violate anything."""

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("strategy", ["alternating", "split"])
    def test_attack_grid(self, n, strategy):
        cfg = attack_scenario(VariantTag.FFA_FULL, n, 1, 1, strategy)
        trace = run(cfg)
        for report in run_property_checks(trace, cfg.resolved_schedule(), 2, 1, cfg.variant):
            assert report.verdict in (SATISFIED, UNRESOLVED), (n, strategy, report.property)

    def test_crash_and_wipe_strategies(self):
        base = golden_correct_source()
        for kind in ("CRASH_SILENT", "BENIGN"):
            cfg = base.with_overrides(strategy={"kind": kind})
            trace = run(cfg)
            for report in run_property_checks(trace, cfg.resolved_schedule(), 2, 1, cfg.variant):
                assert report.verdict in (SATISFIED, UNRESOLVED), (kind, report.property)

    def test_wipe_strategy_cannot_force_duplicates_under_full_oracle(self):
        # A wiped-then-cured process re-delivers only if its stay began by the
        # due round; the wiped state itself carries no delivery memory.
        cfg = ScenarioConfig.from_dict({
            "n": 6, "f": 1, "delta_s": 1, "horizon": 8, "seed": 0,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
            "variant": "FFA_FULL",
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 1, "first_round": 2, "last_round": 6}]}]},
            "broadcasts": [{"source": 0, "round": 1, "payload": "m"}],
            "strategy": {"kind": "WIPE_AND_RUN", "target": 1, "sim_until": 0, "wipe_round": 6},
        })
        trace = run(cfg)
        deliveries = sorted((1, g.round) for g in extract_deliveries(trace, cfg.resolved_schedule())
                            if 1 in g.correct)
        assert deliveries == [(1, 7)]  # exactly once, at the cure
        for report in run_property_checks(trace, cfg.resolved_schedule(), 2, 1, cfg.variant):
            assert report.verdict in (SATISFIED, UNRESOLVED), report.property

    def test_random_schedule_fuzz(self):
        import random

        from conftest import random_walk_schedule

        rng = random.Random(2026)
        for trial in range(40):
            n = rng.randrange(6, 9)
            horizon = rng.randrange(7, 11)
            cfg = ScenarioConfig.from_dict({
                "n": n, "f": 1, "delta_s": 1, "horizon": horizon, "seed": trial,
                "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
                "variant": "FFA_FULL",
                "schedule": {"trajectories": random_walk_schedule(rng, n, 1, horizon)},
                "broadcasts": [{"source": 0, "round": rng.randrange(1, 4),
                                "payload": f"m{trial}"}],
                "strategy": {"kind": rng.choice(["BENIGN", "CRASH_SILENT"])},
            })
            trace = run(cfg)
            for report in run_property_checks(trace, cfg.resolved_schedule(), 2, 1, cfg.variant):
                assert report.verdict in (SATISFIED, UNRESOLVED), (trial, report.property)

    def test_two_agents_above_bound(self):
        cfg = attack_scenario(VariantTag.FFA_FULL, 11, 2, 1, "alternating")
        trace = run(cfg)
        for report in run_property_checks(trace, cfg.resolved_schedule(), 2, 1, cfg.variant):
            assert report.verdict in (SATISFIED, UNRESOLVED), report.property


def duplicate_receiver_scenario() -> ScenarioConfig:
    """n=4; process 0 is possessed throughout and sends one round vote to 2, 1, 2 and 0."""
    vote = {"kind": "ROUND", "round_value": 7}
    return ScenarioConfig.from_dict({
        "n": 4, "f": 1, "delta_s": 1, "horizon": 2, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": [{"agent_id": 0, "segments": [
            {"host": 0, "first_round": 1, "last_round": None}]}]},
        "strategy": {"kind": "ARBITRARY", "script": {
            "1": {"0": {"sends": [[2, vote], [1, vote], [2, vote], [0, vote]]}}}},
    })


class TestProjection:
    def test_projection_excludes_ever_faulty_subjects(self):
        cfg = golden_correct_source()
        trace = run(cfg)
        sched = cfg.resolved_schedule()
        keep = permanently_correct(sched)
        assert keep == {2, 3, 4}
        text = projection_jsonl(trace, sched)
        for line in text.splitlines():
            event = json.loads(line)
            if event["kind"] == KIND_P2P_SEND:
                to = event["detail"]["to"]
                assert isinstance(to, list) and to and set(to) <= keep
            else:
                assert event["kind"] in (KIND_BROADCAST_CALL, KIND_DELIVER_CALL)
                assert event["subject"] in keep
        events_subjects = {e.subject for e in trace.events} - keep
        assert events_subjects  # someone was excluded

    def test_projection_holds_the_receipts_of_kept_processes(self):
        cfg = split_send_scenario([1, 2, 3])
        trace = run(cfg)
        sched = cfg.resolved_schedule()
        keep = permanently_correct(sched)
        kept_receipts = [d for d in deliveries(trace) if d.receiver in keep]
        assert kept_receipts
        assert deliveries(replace(trace, events=projection(trace, sched))) == kept_receipts

    def test_projection_has_one_send_per_message_and_kept_receivers(self):
        """Each round's sends to kept processes, expanded per sender, group
        into one P2P_SEND per (message, kept receivers) listing its senders."""
        cfg = golden_correct_source()
        trace = run(cfg)
        sched = cfg.resolved_schedule()
        keep = permanently_correct(sched)
        everyone = sorted(keep)
        expected: dict[tuple[int, str, tuple[int, ...]], list[int]] = {}
        for r, sends in round_sends(trace.events).items():
            for sender, message, to in sends:
                kept = everyone if to == TO_ALL else [q for q in to if q in keep]
                if kept:
                    expected.setdefault((r, encode_line(message), tuple(kept)), []).append(sender)
        projected = [e for e in projection(trace, sched) if e.kind == KIND_P2P_SEND]
        assert {(e.round, encode_line(e.detail["message"]), tuple(e.detail["to"])): e.detail["from"]
                for e in projected} == expected
        assert len(projected) == len(expected)
        assert all(e.subject == e.detail["from"][0] for e in projected)
        assert any(len(e.detail["from"]) > 1 for e in projected)

    def test_projection_keeps_a_duplicate_kept_receiver(self):
        cfg = duplicate_receiver_scenario()
        trace = run(cfg)
        sched = cfg.resolved_schedule()
        assert permanently_correct(sched) == {1, 2, 3}
        sends = [e.detail["to"] for e in projection(trace, sched)
                 if e.kind == KIND_P2P_SEND and e.subject == 0]
        assert sends == [[1, 2, 2]]

    def test_changed_message_from_a_faulty_sender_shows_in_the_projection(self):
        """Two histories differing only in one message a faulty sender sends to
        a permanently correct process are told apart: here the SEND a split
        sender dictates to a list of targets."""
        config = split_send_scenario([1, 2, 3])
        trace = run(config)
        sched = config.resolved_schedule()
        keep = permanently_correct(sched)
        before = projection_jsonl(trace, sched)
        index, event = next((i, e) for i, e in enumerate(trace.events)
                            if e.kind == KIND_P2P_SEND and isinstance(e.detail["to"], list)
                            and sched.is_faulty(e.subject, e.round)
                            and "payload" in e.detail["message"] and keep & set(e.detail["to"]))
        message = {**event.detail["message"], "payload": "forged"}
        events = list(trace.events)
        events[index] = event._replace(detail={**event.detail, "message": message})
        assert projection_jsonl(replace(trace, events=events), sched) != before

    @pytest.mark.parametrize("edit", ["state_digest", "non_kept_receiver", "send_to_itself",
                                      "fan_out_sender_dictates", "disjoint_deliver_groups_swap"])
    def test_what_no_kept_process_observes_leaves_the_projection_alone(self, edit):
        """Editing the possessed source's corrupted state, dropping a receiver
        that is not permanently correct from one of its sends, adding a send
        that reaches only the source itself, taking a sender out of a fan-out
        and giving it a dictated send of each of its messages to every
        process, or swapping two DELIVER_CALLs of one round whose kept
        members are disjoint, is invisible. The SOURCE_FLIP source sends
        every message to every process, in the fan-outs, so the two edits of
        a dictated send edit a split source's SEND to itself and two others."""
        if edit in ("non_kept_receiver", "send_to_itself"):
            config = split_send_scenario([0, 2, 3])
            trace = run(config)
        else:
            result = run_demo("SOURCE_FLIP", {})
            trace, config = result.trace_second, result.config_second
        sched = config.resolved_schedule()
        keep = permanently_correct(sched)
        source = config.broadcasts[0].source
        assert source not in keep
        base = list(trace.events)
        events = list(base)
        if edit == "state_digest":
            i = next(i for i, e in enumerate(events)
                     if e.kind == KIND_STATE_CORRUPTED and e.subject == source)
            digest = events[i].detail["state_digest"]
            events[i] = events[i]._replace(detail={"state_digest": "0" * len(digest)})
        elif edit == "fan_out_sender_dictates":
            i = next(i for i, e in enumerate(events) if e.kind == KIND_P2P_SEND
                     and e.detail["to"] == TO_ALL and len(e.detail["from"]) > 1)
            fan_out = events[i]
            sender, *rest = fan_out.detail["from"]
            events[i] = fan_out._replace(subject=rest[0], detail={**fan_out.detail, "from": rest})
            last_send = max(j for j, e in enumerate(events)
                            if e.kind == KIND_P2P_SEND and e.round == fan_out.round)
            events[last_send + 1:last_send + 1] = [fan_out._replace(subject=sender, detail={
                "message": dict(message), "to": list(range(config.n))})
                for message in fan_out.detail["messages"]]
        elif edit == "disjoint_deliver_groups_swap":
            # The base trace delivers two instances in one round, at disjoint
            # kept processes; the edit lists the two events the other way round.
            i = next(i for i, e in enumerate(base) if e.kind == KIND_DELIVER_CALL
                     and len(keep & set(e.detail["by"])) > 1)
            call = base[i]
            kept = sorted(keep & set(call.detail["by"]))
            first_by = [p for p in call.detail["by"] if p not in kept[1:]]
            first = call._replace(subject=first_by[0], detail={**call.detail, "by": first_by})
            other = {"payload": "other", "source": call.detail["instances"][0]["source"]}
            second = call._replace(subject=kept[1], detail={"by": kept[1:], "instances": [other]})
            base[i:i + 1] = [first, second]
            events = list(base)
            events[i:i + 2] = [second, first]
        else:
            i = next(i for i, e in enumerate(events) if e.kind == KIND_P2P_SEND
                     and e.subject == source and isinstance(e.detail["to"], list))
            send = events[i]
            assert source in send.detail["to"]
            if edit == "non_kept_receiver":
                to = [q for q in send.detail["to"] if q != source]
                events[i] = send._replace(detail={**send.detail, "to": to})
            else:
                message = {"kind": "ROUND", "round_value": 99}
                events.insert(i, send._replace(detail={"message": message, "to": [source]}))
        assert events != base
        assert projection_jsonl(replace(trace, events=events), sched) == projection_jsonl(
            replace(trace, events=base), sched)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def nfa_weak_redelivery_config() -> ScenarioConfig:
    """The NFA_WEAK shape the benchmark times: n=7, f=1, horizon 100, 30 broadcasts
    in rounds 38, 40, ..., 96, re-delivered in every correct round."""
    n, offset = 7, 3
    rounds = [38 + 2 * i for i in range(30)]
    return ScenarioConfig.from_dict({
        "n": n, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": 100, "seed": 11,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "NFA"},
        "variant": "NFA_WEAK",
        "schedule": {"generator": "roundrobin", "params": {"offset": offset}},
        "broadcasts": [{"source": (offset + b + 1 + (7 * i) % (n - 2)) % n, "round": b,
                        "payload": f"m{i}"} for i, b in enumerate(rounds)],
        "strategy": {"kind": "CRASH_SILENT"},
    })


def index_cases():
    cases = [pytest.param(ScenarioConfig.from_json(path.read_text()), id=path.stem)
             for path in sorted(CONFIG_DIR.glob("*.json"))]
    cases.append(pytest.param(nfa_weak_redelivery_config(), id="nfa_weak_n7_h100"))
    return cases


class TestTraceIndex:
    """run_property_checks builds one index, which carries the scenario's parameters."""

    @pytest.mark.parametrize("properties", [MBBC_PROPERTIES, ALL_PROPERTIES])
    def test_deliveries_are_extracted_once_per_call(self, monkeypatch, properties):
        calls = []
        original = checker.extract_deliveries

        def counting(trace, schedule):
            calls.append(1)
            return original(trace, schedule)

        monkeypatch.setattr(checker, "extract_deliveries", counting)
        cfg = bfa_double_cure_scenario()
        trace = run(cfg)
        run_property_checks(trace, cfg.resolved_schedule(), 2, 1, cfg.variant, properties)
        assert len(calls) == 1
        run_property_checks(trace, cfg.resolved_schedule(), 2, 1, cfg.variant, properties)
        assert len(calls) == 2

    @pytest.mark.parametrize("cfg", index_cases())
    def test_reports_do_not_read_the_scenario_from_the_header(self, cfg):
        """A header config holding only n and horizon, which the trace reader
        accepts, gives the same reports as the full one."""
        trace = run(cfg)
        bare = Trace.from_jsonl(replace(trace, config={"n": cfg.n, "horizon": cfg.horizon}).to_jsonl())
        args = (cfg.resolved_schedule(), cfg.delta_b, cfg.delta_c, cfg.variant, ALL_PROPERTIES)
        assert reports_to_json(run_property_checks(bare, *args)) == reports_to_json(
            run_property_checks(trace, *args))

    @pytest.mark.parametrize("variant, evaluated", [
        (VariantTag.FFA_FULL, True), (VariantTag.BFA_WEAK, False), (VariantTag.NFA_WEAK, False)])
    def test_validity_reads_the_variant_it_is_given(self, variant, evaluated):
        """The per-process reading follows the variant passed in, not the
        header's (FFA_FULL here, with n > 5f)."""
        cfg = golden_correct_source()
        assert cfg.variant is VariantTag.FFA_FULL and cfg.n > 5 * cfg.f
        report = check_one(VALIDITY, run(cfg), cfg, variant)
        assert report.details["per_process_reading_evaluated"] is evaluated

    def test_a_checker_swapped_on_the_module_is_the_one_that_runs(self, monkeypatch):
        """perfbench/tracing.py times each checker by wrapping its module name."""
        calls = []
        original = checker.check_integrity

        def wrapped(index):
            calls.append(index)
            return original(index)

        monkeypatch.setattr(checker, "check_integrity", wrapped)
        cfg = golden_correct_source()
        assert check_one(INTEGRITY, run(cfg), cfg).verdict == SATISFIED
        assert len(calls) == 1 and calls[0].variant is cfg.variant

    @pytest.mark.parametrize("cfg", index_cases())
    def test_replay_confirms_every_violation(self, cfg):
        """The monitor gives every verdict, and every violation's witness holds."""
        trace = run(cfg)
        schedule = cfg.resolved_schedule()
        reports = run_property_checks(trace, schedule, cfg.delta_b, cfg.delta_c, cfg.variant,
                                      ALL_PROPERTIES)
        assert_checked_independently(reports, trace, schedule, cfg.delta_b, cfg.delta_c,
                                     cfg.variant)
