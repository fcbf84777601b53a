import pytest

from mbbc.adversary import (
    AlternatingSets,
    CrashSilent,
    Observation,
    SplitSend,
    Strategy,
    WipeAndRun,
    build_strategy,
    generate_paired_histories,
)
from mbbc.engine import Simulation, delivered_instances, deliveries, round_sends, run
from mbbc.messages import TO_ALL, MessageKind, send_msg
from mbbc.protocol import Tallies, init_state
from mbbc.scenario import InvalidScenario, ScenarioConfig
from conftest import golden_correct_source, zero_agent_scenario


def obs_for(config: ScenarioConfig, states=None) -> Observation:
    return Observation(schedule=config.resolved_schedule(),
                       states=states or [init_state() for _ in range(config.n)])


def alternating_config(n=6):
    return ScenarioConfig.from_dict({
        "n": n, "f": 1, "delta_s": 1, "horizon": 7, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"generator": "alternating", "params": {"p1": [n - 2], "p2": [n - 1], "start": 2}},
        "broadcasts": [{"source": 0, "round": 1, "payload": "m"}],
        "strategy": {"kind": "ALTERNATING_SETS", "p1": [n - 2], "p2": [n - 1]},
    })


class TestAlternatingSets:
    def test_p2_member_is_silent(self):
        cfg = alternating_config()
        strat = build_strategy(cfg)
        assert strat.dictate_sends(5, 3, obs_for(cfg)) == []

    def test_p1_member_sends_spurious_to_all_peers(self):
        cfg = alternating_config()
        strat = build_strategy(cfg)
        sends = strat.dictate_sends(4, 2, obs_for(cfg))
        receivers = {q for q, _ in sends}
        kinds = {m.kind for _, m in sends}
        assert receivers == {TO_ALL}
        assert MessageKind.READY in kinds and MessageKind.ECHO in kinds
        # The engine sends each of them to every process, itself included,
        # and writes the sender into the round's fan-outs, as a correct one.
        trace = run(cfg)
        received = [d.receiver for d in deliveries(trace) if (d.round, d.sender) == (2, 4)]
        assert sorted(received) == sorted(list(range(6)) * len(sends))
        sent = [to for sender, _msg, to in round_sends(trace.events)[2] if sender == 4]
        assert sent == [TO_ALL] * len(sends)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(InvalidScenario):
            AlternatingSets([3], [3], n=6, f=1)

    def test_wrong_set_size_rejected(self):
        with pytest.raises(InvalidScenario):
            AlternatingSets([3, 4], [5], n=6, f=1)

    def test_departing_p1_leaves_poisoned_queue(self):
        cfg = alternating_config()
        strat = build_strategy(cfg)
        state = strat.corrupt_state(4, 2, obs_for(cfg))
        assert state.to_send and state.rc == 9999

    def test_spurious_votes_can_never_clear_a_quorum(self):
        # f spurious senders: every fabricated key gathers at most f votes.
        cfg = alternating_config()
        trace = run(cfg)
        # No delivery for any payload other than the real broadcast.
        bad = [payload for _i, _r, _by, _s, payload in delivered_instances(trace.events)
               if payload != b"m"]
        assert bad == []


class TestSplitSend:
    def test_send_round_targets_only(self):
        cfg = ScenarioConfig.from_dict({
            "n": 6, "f": 1, "delta_s": 1, "horizon": 8, "seed": 0,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
            "variant": "FFA_FULL",
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 0, "first_round": 1, "last_round": 3},
                {"host": 5, "first_round": 4, "last_round": None}]}]},
            "broadcasts": [{"source": 0, "round": 1, "payload": "byz"}],
            "strategy": {"kind": "SPLIT_SEND", "targets": [1, 2, 3]},
        })
        strat = build_strategy(cfg)
        sends_r2 = strat.dictate_sends(0, 2, obs_for(cfg))
        assert {(q, m.kind) for q, m in sends_r2} == {(q, MessageKind.SEND) for q in (1, 2, 3)}
        sends_r3 = strat.dictate_sends(0, 3, obs_for(cfg))
        assert {(q, m.kind) for q, m in sends_r3} == {(q, MessageKind.ECHO) for q in (1, 2, 3)}
        assert strat.dictate_sends(5, 4, obs_for(cfg)) == []

    def test_target_out_of_range_rejected(self):
        with pytest.raises(InvalidScenario):
            SplitSend([9], [], n=6)


class TestStateCorruption:
    def test_wipe_and_run_wipes_at_wipe_round(self):
        cfg = zero_agent_scenario()
        strat = WipeAndRun(target=1, sim_until=0, wipe_round=6, config=cfg)
        states = [init_state() for _ in range(cfg.n)]
        states[1].rc = 42
        obs = obs_for(cfg, states=states)
        assert strat.corrupt_state(1, 6, obs) == init_state()
        assert strat.corrupt_state(1, 5, obs).rc == 42  # untouched before the wipe round

    def test_benign_is_identity(self):
        cfg = zero_agent_scenario()
        states = [init_state() for _ in range(cfg.n)]
        assert Strategy().corrupt_state(0, 1, obs_for(cfg, states=states)) is states[0]

    def test_crash_silent_wipes_on_departure(self):
        cfg = golden_correct_source()
        strat = CrashSilent()
        states = [init_state() for _ in range(6)]
        states[1].rc = 9
        obs = obs_for(cfg, states=states)
        # Agent leaves index 1 after round 1 in the golden schedule.
        assert strat.corrupt_state(1, 1, obs) == init_state()

    @pytest.mark.parametrize("kind, p, broadcast", [
        ("SOURCE_FLIP", 0, b"m-first"),  # the source, possessed from round 1
        ("WIPE_FLIP", 1, None),  # the target, run faithfully through delta_1
    ])
    def test_faithful_compute_reads_its_own_fold(self, kind, p, broadcast):
        """A possessed process run faithfully computes on ``obs.tallies[p]``,
        with the broadcast calls scheduled for it in the round."""
        cfg = generate_paired_histories(kind, {})[1]
        strat = build_strategy(cfg)
        tallies = [Tallies() for _ in range(cfg.n)]
        tallies[p] = Tallies(rc_votes=dict.fromkeys(range(cfg.n), 7))
        obs = Observation(schedule=cfg.resolved_schedule(),
                          states=[init_state() for _ in range(cfg.n)], tallies=tallies)
        state = strat.corrupt_state(p, 1, obs)
        assert state is obs.states[p] and state.rc == 8
        sends = {m for m in state.to_send if m.kind is MessageKind.SEND}
        assert sends == ({send_msg(p, 7, broadcast)} if broadcast else set())

    def test_arbitrary_rc_corruption_repaired_by_majority(self):
        # Script: process 2 is possessed in round 1 and left with rc=999;
        # the next compute's majority vote must repair it.
        cfg = ScenarioConfig.from_dict({
            "n": 5, "f": 1, "delta_s": 1, "horizon": 3, "seed": 0,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
            "variant": "FFA_FULL",
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 2, "first_round": 1, "last_round": 1}]}]},
            "strategy": {"kind": "ARBITRARY", "script": {"1": {"2": {"state": {"rc": 999}}}}},
        })
        sim = Simulation(cfg)
        sim.step()
        assert sim.states[2].rc == 999
        sim.step()  # round votes from round 2 repair the counter in its compute
        correct_rcs = {sim.states[p].rc for p in range(5)}
        assert correct_rcs == {3}

    @staticmethod
    def scripted_rc(rc: int) -> ScenarioConfig:
        """NFA_WEAK at n=3, f=1: process 1 is possessed in round 1 and left
        with ``rc``. No counter has more than F = 2 votes, so the majority
        repair keeps the freed process's own, and its next compute votes
        ``rc + 1``."""
        return ScenarioConfig.from_dict({
            "n": 3, "f": 1, "delta_s": 1, "horizon": 4, "seed": 0,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "NFA"},
            "variant": "NFA_WEAK",
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 1, "first_round": 1, "last_round": 1}]}]},
            "strategy": {"kind": "ARBITRARY", "script": {"1": {"1": {"state": {"rc": rc}}}}},
        })

    @pytest.mark.parametrize("rc", [-1, -3])
    def test_arbitrary_negative_rc_rejected_when_built(self, rc):
        """A ROUND vote is at least 1, so a counter below 0 is refused when
        the strategy is built, naming its round and process, not mid-run."""
        refusal = rf"^ARBITRARY round 1 process 1: state rc is {rc}, below 0$"
        with pytest.raises(InvalidScenario, match=refusal):
            build_strategy(self.scripted_rc(rc))

    def test_arbitrary_rc_zero_runs(self):
        sim = Simulation(self.scripted_rc(0))
        sim.run()
        assert sim.states[1].rc == 3

    def test_arbitrary_script_sends(self):
        cfg = ScenarioConfig.from_dict({
            "n": 3, "f": 1, "delta_s": 1, "horizon": 2, "seed": 0,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
            "variant": "FFA_FULL",
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 0, "first_round": 1, "last_round": None}]}]},
            "strategy": {"kind": "ARBITRARY", "script": {
                "1": {"0": {"sends": [[1, {"kind": "ROUND", "round_value": 7}]]}}}},
        })
        trace = run(cfg)
        sent = [(message, to) for sender, message, to in round_sends(trace.events)[1] if sender == 0]
        assert sent == [({"kind": "ROUND", "round_value": 7}, [1])]
        received = [d.receiver for d in deliveries(trace) if d.sender == 0 and d.round == 1]
        assert received == [1]


class TestPairedHistories:
    def test_deterministic_generation(self):
        a1, a2 = generate_paired_histories("THEOREM_3", {"seed": 4})
        b1, b2 = generate_paired_histories("THEOREM_3", {"seed": 4})
        assert a1 == b1 and a2 == b2

    def test_source_flip_schedules_mirror(self):
        h1, h2 = generate_paired_histories("THEOREM_3", {})
        s1 = h1.resolved_schedule()
        s2 = h2.resolved_schedule()
        switch = 4  # delta_b=2, delta_1=1
        for r in range(1, h1.horizon + 1):
            assert s1.is_faulty(0, r) == (r >= switch)
            assert s2.is_faulty(0, r) == (r < switch)

    def test_identical_payloads_rejected(self):
        with pytest.raises(InvalidScenario):
            generate_paired_histories("THEOREM_3", {"m1": "x", "m2": "x"})

    def test_wipe_flip_target_faulty_spans(self):
        h1, h2 = generate_paired_histories("THEOREM_4", {"delta_1": 4, "delta_2": 2})
        s1, s2 = h1.resolved_schedule(), h2.resolved_schedule()
        assert [r for r in range(1, h1.horizon + 1) if s1.is_faulty(1, r)] == [5, 6]
        assert [r for r in range(1, h2.horizon + 1) if s2.is_faulty(1, r)] == [1, 2, 3, 4, 5, 6]

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidScenario):
            generate_paired_histories("THEOREM_99", {})
