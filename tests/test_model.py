import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHAPES, scanned_host, shape_config
from mbbc.adversary import generate_paired_histories
from mbbc.checker import TraceIndex, permanently_correct
from mbbc.engine import Simulation, Trace
from mbbc.model import (
    AgentTrajectory,
    FailureSchedule,
    RoundOutOfHorizon,
    Segment,
    SettingTriple,
    Mobility,
    OracleKind,
    Timing,
    io_correct_processes,
    is_io_correct,
    validate_schedule,
)
from mbbc.protocol import VariantTag
from mbbc.scenario import InvalidScenario, ScenarioConfig
from mbbc.sweeps import BUNDLED_STRATEGIES, attack_scenario


def schedule_from(segments_per_agent, n=6, f=None, delta_s=1, horizon=6):
    f = len(segments_per_agent) if f is None else f
    trajectories = tuple(
        AgentTrajectory(agent_id=i, segments=tuple(Segment(*s) for s in segs))
        for i, segs in enumerate(segments_per_agent))
    return FailureSchedule(n=n, f=f, delta_s=delta_s, horizon=horizon, trajectories=trajectories)


# Roaming agent of the golden scenario: p2 in r1, p6 in r2, p1 in r3 (indices 1, 5, 0).
ROAMING_PATH = [(1, 1, 1), (5, 2, 2), (0, 3, 3)]


class TestValidateSchedule:
    def test_roaming_path_is_valid(self):
        sched = schedule_from([ROAMING_PATH], horizon=6)
        assert validate_schedule(sched) == ()

    def test_residency_below_delta_s_is_violation(self):
        sched = schedule_from([[(1, 1, 1)]], delta_s=2, horizon=4)
        violations = validate_schedule(sched)
        assert violations
        assert any(v.rule == "residency" for v in violations)

    def test_fault_free_schedule_is_valid(self):
        sched = schedule_from([], horizon=9)
        assert validate_schedule(sched) == ()
        assert all(sched.faulty_set(r) == frozenset() for r in range(1, 10))

    def test_adjacent_same_host_is_violation(self):
        sched = schedule_from([[(2, 1, 2), (2, 3, 4)]], horizon=6)
        violations = validate_schedule(sched)
        assert any(v.rule == "stationary-move" for v in violations)

    def test_gap_then_same_host_is_legal(self):
        sched = schedule_from([[(2, 1, 2), (2, 5, 6)]], horizon=6)
        assert validate_schedule(sched) == ()

    def test_overlapping_segments_are_violation(self):
        sched = schedule_from([[(2, 1, 3), (3, 3, 5)]], horizon=6)
        violations = validate_schedule(sched)
        assert any(v.rule == "segment-order" for v in violations)

    def test_trajectory_count_must_match_f(self):
        sched = schedule_from([ROAMING_PATH], f=2, horizon=6)
        violations = validate_schedule(sched)
        assert any(v.rule == "trajectory-count" for v in violations)

    def test_open_segment_exempt_from_residency(self):
        sched = schedule_from([[(1, 6, None)]], delta_s=3, horizon=6)
        assert validate_schedule(sched) == ()

    def test_validation_is_pure(self):
        sched = schedule_from([ROAMING_PATH], horizon=6)
        assert validate_schedule(sched) == validate_schedule(sched)


class TestFaultySets:
    def test_roaming_round1_is_p2(self):
        sched = schedule_from([ROAMING_PATH], horizon=6)
        assert sched.faulty_set(1) == {1}
        assert sched.faulty_set(2) == {5}
        assert sched.faulty_set(3) == {0}
        assert sched.faulty_set(4) == frozenset()

    def test_fault_free_empty(self):
        sched = schedule_from([], horizon=4)
        assert sched.faulty_set(2) == frozenset()

    def test_colocated_agents_collapse_to_one_process(self):
        sched = schedule_from([[(3, 1, 2)], [(3, 1, 2)]], horizon=4)
        assert sched.faulty_set(1) == {3}
        assert len(sched.faulty_set(1)) == 1

    def test_round_out_of_horizon_raises(self):
        sched = schedule_from([], horizon=4)
        with pytest.raises(RoundOutOfHorizon):
            sched.faulty_set(5)
        with pytest.raises(RoundOutOfHorizon):
            sched.faulty_set(0)

    def test_partition_invariant(self):
        sched = schedule_from([ROAMING_PATH], horizon=6)
        for r in range(1, 7):
            b, c = sched.faulty_set(r), sched.correct_set(r)
            assert b | c == frozenset(range(6))
            assert not b & c
            assert len(b) <= sched.f

    def test_a_cure_merges_back_to_back_stays(self):
        # Two agents chain on host 2: rounds 1-2 and 3-4, one span from round 1.
        sched = schedule_from([[(2, 1, 2)], [(2, 3, 4)]], horizon=6)
        assert sched.cures(5) == ((2, 1),)


class TestIoCorrect:
    def test_permanently_correct_is_yes(self):
        sched = schedule_from([ROAMING_PATH], horizon=6)
        assert is_io_correct(sched, 3, 1) is True

    def test_faulty_to_horizon_is_no(self):
        sched = schedule_from([[(2, 3, None)]], horizon=6)
        assert is_io_correct(sched, 2, 1) is False

    def test_roaming_p2_delta_c_one_horizon_six(self):
        sched = schedule_from([ROAMING_PATH], horizon=6)
        # Independent oracle: every suffix of rounds must contain a correct round.
        correct = {r for r in range(1, 7) if 1 in sched.correct_set(r)}
        expected = all(any(j in correct for j in range(r + 1, 7)) for r in range(0, 6))
        assert expected is True
        assert is_io_correct(sched, 1, 1) is True

    def test_matches_brute_force_window_oracle(self):
        sched = schedule_from([[(0, 1, 1), (1, 3, 3), (0, 5, 5)]], horizon=6)

        def brute(p, delta_c):
            for r in range(0, sched.horizon - delta_c + 1):
                found = False
                for b in range(r + 1, sched.horizon - delta_c + 2):
                    if all(p in sched.correct_set(j) for j in range(b, b + delta_c)):
                        found = True
                        break
                if not found:
                    return False
            return True

        for p in range(6):
            for delta_c in (1, 2, 3):
                assert is_io_correct(sched, p, delta_c) is brute(p, delta_c), (p, delta_c)

    def test_delta_c_longer_than_horizon_is_no(self):
        sched = schedule_from([], horizon=3)
        assert is_io_correct(sched, 0, 4) is False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_schedules_keep_invariants(data):
    n = data.draw(st.integers(3, 8))
    f = data.draw(st.integers(0, 2))
    horizon = data.draw(st.integers(2, 8))
    trajectories = []
    for agent in range(f):
        segs = []
        r = 1
        host = data.draw(st.integers(0, n - 1))
        while r <= horizon:
            length = data.draw(st.integers(1, 3))
            last = min(r + length - 1, horizon)
            segs.append(Segment(host=host, first_round=r, last_round=last))
            r = last + 1
            host = (host + 1 + data.draw(st.integers(0, n - 2))) % n
        trajectories.append(AgentTrajectory(agent_id=agent, segments=tuple(segs)))
    sched = FailureSchedule(n=n, f=f, delta_s=1, horizon=horizon, trajectories=tuple(trajectories))
    assert validate_schedule(sched) == ()
    for r in range(1, horizon + 1):
        assert len(sched.faulty_set(r)) <= f
        assert sched.faulty_set(r) | sched.correct_set(r) == frozenset(range(n))
    assert set(io_correct_processes(sched, 1)) <= set(range(n))


def test_setting_triple_support():
    ok = SettingTriple(Timing.SYNC, Mobility.S_MOB_PLUS, OracleKind.NFA)
    assert ok.unsupported_reason() is None
    bad = SettingTriple(Timing.ASYNC, Mobility.S_MOB, OracleKind.FFA)
    assert "asynchronous" in bad.unsupported_reason()
    amob = SettingTriple(Timing.SYNC, Mobility.A_MOB, OracleKind.FFA)
    assert "sub-round" in amob.unsupported_reason() or "round" in amob.unsupported_reason()


@st.composite
def valid_schedules(draw):
    """Valid schedules with gaps, open last stays and co-located agents."""
    n = draw(st.integers(2, 8))
    f = draw(st.integers(0, 3))
    horizon = draw(st.integers(1, 12))
    trajectories = []
    for agent in range(f):
        segs = []
        r = draw(st.integers(1, horizon))
        host = None
        while r <= horizon:
            choices = [h for h in range(n) if h != host]
            host = draw(st.sampled_from(choices))
            if draw(st.integers(0, 3)) == 0:  # an open stay, to the horizon
                segs.append(Segment(host=host, first_round=r, last_round=None))
                break
            last = min(r + draw(st.integers(0, 3)), horizon)
            segs.append(Segment(host=host, first_round=r, last_round=last))
            gap = draw(st.integers(0, 2))
            if gap:
                host = None  # after a gap the same host may be re-possessed
            r = last + 1 + gap
        trajectories.append(AgentTrajectory(agent_id=agent, segments=tuple(segs)))
    sched = FailureSchedule(n=n, f=f, delta_s=1, horizon=horizon, trajectories=tuple(trajectories))
    assert validate_schedule(sched) == ()
    return sched


def rebuilt(sched):
    """An equal schedule that shares no object with ``sched``."""
    return FailureSchedule(
        n=sched.n, f=sched.f, delta_s=sched.delta_s, horizon=sched.horizon,
        trajectories=tuple(
            AgentTrajectory(t.agent_id, tuple(Segment(s.host, s.first_round, s.last_round)
                                              for s in t.segments))
            for t in sched.trajectories))


def agent_hosts(sched, r):
    """The hosts the agents sit on in round r, off-board agents left out."""
    return frozenset(scanned_host(sched, a, r) for a in range(sched.f)) - {None}


def assert_tables_are_literal(sched):
    """Every round table of ``sched`` equals its literal recomputation,
    round by round, from a scan of its stays (``scanned_host``): the faulty
    and correct sets, the cures with their span starts, each process's
    correct rounds, next correct round and first faulty round, and the
    checker's cured rounds."""
    h, n = sched.horizon, sched.n
    faulty = [frozenset()] + [agent_hosts(sched, r) for r in range(1, h + 1)]

    def span_start(p, r):
        while r > 1 and p in faulty[r - 1]:
            r -= 1
        return r

    for r in range(1, h + 1):
        assert sched.faulty_set(r) == faulty[r], r
        assert sched.correct_set(r) == frozenset(range(n)) - faulty[r], r
        cured = faulty[r - 1] - faulty[r]
        assert sched.cures(r) == tuple((p, span_start(p, r - 1)) for p in sorted(cured)), r
    assert sched.cures(0) == sched.cures(h + 1) == ()
    for p in range(n):
        correct = tuple(r for r in range(1, h + 1) if p not in faulty[r])
        assert sched.first_faulty(p) == next((r for r in range(1, h + 1) if p in faulty[r]), None)
        for r in range(-1, h + 2):
            assert sched.next_correct(p, r) == next((c for c in correct if c >= r), None), (p, r)
        for r in range(1, h + 1):
            assert sched.is_faulty(p, r) is (p in faulty[r])
            clean = True
            for last in range(r, h + 2):
                clean = clean and last <= h and p not in faulty[last]
                assert sched.correct_during(p, r, last) is clean, (p, r, last)
    assert permanently_correct(sched) == {p for p in range(n) if all(p not in b for b in faulty)}
    cured_rounds: dict[int, list[int]] = {}
    for r in range(2, h + 1):
        for p, _start in sched.cures(r):
            cured_rounds.setdefault(p, []).append(r)
    index = TraceIndex(Trace({}), sched, 2, 1, VariantTag.BFA_WEAK)
    assert index.cured_rounds == cured_rounds


NAMED_SCHEDULES = [
    *(path.name for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))),
    *SHAPES]


def named_schedule(name: str) -> FailureSchedule:
    """The schedule of a bundled config or of a shape."""
    if name in SHAPES:
        return shape_config(name).resolved_schedule()
    path = Path(__file__).resolve().parents[1] / "configs" / name
    return ScenarioConfig.from_json(path.read_text()).resolved_schedule()


def assert_within_budget(sched: FailureSchedule) -> None:
    assert validate_schedule(sched) == ()
    for r in range(1, sched.horizon + 1):
        assert len(sched.faulty_set(r)) <= sched.f, r


class TestScheduleTable:
    @settings(max_examples=200, deadline=None)
    @given(valid_schedules())
    def test_faulty_set_is_the_set_of_agent_hosts(self, sched):
        for r in range(1, sched.horizon + 1):
            assert sched.faulty_set(r) == agent_hosts(sched, r), r

    @settings(max_examples=200, deadline=None)
    @given(valid_schedules())
    def test_derived_queries_agree_with_agent_hosts(self, sched):
        assert_tables_are_literal(sched)

    @pytest.mark.parametrize("name", NAMED_SCHEDULES)
    def test_derived_queries_of_a_named_schedule_agree_with_agent_hosts(self, name):
        assert_tables_are_literal(named_schedule(name))

    @pytest.mark.parametrize("strategy", BUNDLED_STRATEGIES)
    @pytest.mark.parametrize("f", [1, 2])
    @pytest.mark.parametrize("delta_s", [1, 2])
    def test_derived_queries_of_the_sweep_grid_agree_with_agent_hosts(self, strategy, f, delta_s):
        """Every cell of the resilience grid the sweeps and the benchmark
        run: n from 2f+1 to 6f+2, each variant."""
        for variant in VariantTag:
            for n in range(2 * f + 1, 6 * f + 3):
                assert_tables_are_literal(
                    attack_scenario(variant, n, f, delta_s, strategy).resolved_schedule())

    @pytest.mark.parametrize("kind", ["SOURCE_FLIP", "WIPE_FLIP"])
    @pytest.mark.parametrize("params", [{}, {"n": 16, "horizon": 30}])
    def test_derived_queries_of_the_demo_histories_agree_with_agent_hosts(self, kind, params):
        for config in generate_paired_histories(kind, params):
            assert_tables_are_literal(config.resolved_schedule())

    @settings(max_examples=200, deadline=None)
    @given(valid_schedules(), st.integers(1, 4))
    def test_io_correct_matches_the_window_definition(self, sched, delta_c):
        h = sched.horizon

        def definition(p):
            # After every round r there is a full delta_c-long correct window.
            for r in range(0, h - delta_c + 1):
                if not any(all(p in sched.correct_set(j) for j in range(b, b + delta_c))
                           for b in range(r + 1, h - delta_c + 2)):
                    return False
            return delta_c <= h

        for p in range(sched.n):
            assert is_io_correct(sched, p, delta_c) is definition(p), p

    @settings(max_examples=100, deadline=None)
    @given(valid_schedules())
    def test_equal_schedules_compare_and_hash_equal_built_or_not(self, sched):
        other = rebuilt(sched)
        assert sched == other and hash(sched) == hash(other)
        sched.faulty_set(1)  # builds the table of one side only
        sched.next_correct(0, 1)  # and its correct rounds
        assert sched == other and hash(sched) == hash(other)
        assert other == sched and repr(other) == repr(sched)
        other.faulty_set(sched.horizon)
        assert sched == other and hash(sched) == hash(other)
        assert len({sched, other}) == 1

    @settings(max_examples=200, deadline=None)
    @given(valid_schedules())
    def test_an_accepted_schedule_keeps_within_f_agents(self, sched):
        """Each agent holds one host per round, so a schedule that
        ``validate_schedule`` accepts never has more than f faulty processes
        in a round; it has no budget rule of its own."""
        assert_within_budget(sched)

    @pytest.mark.parametrize("name", NAMED_SCHEDULES)
    def test_a_named_schedule_keeps_within_f_agents(self, name):
        assert_within_budget(named_schedule(name))

    @pytest.mark.parametrize("name", NAMED_SCHEDULES)
    def test_faulty_sets_are_the_stays_clipped_to_the_horizon(self, name):
        """B(r) over all rounds holds exactly the (round, host) pairs of the
        stays, each stay clipped to [1, horizon] and an open one run to the
        horizon, on the bundled configs and on the shapes; no round outside
        [1, horizon] has a set."""
        sched = named_schedule(name)
        h = sched.horizon
        stayed = {(r, host) for traj in sched.trajectories for host, first, last in traj.segments
                  for r in range(max(first, 1), min(h if last is None else last, h) + 1)}
        tabled = {(r, p) for r in range(1, h + 1) for p in sched.faulty_set(r)}
        assert tabled == stayed
        for r in (-1, 0, h + 1, h + 2):
            with pytest.raises(RoundOutOfHorizon):
                sched.faulty_set(r)

    def test_overlapping_segments_are_refused_before_a_table_is_built(self):
        """Stays of one agent that overlap would each add their host to the
        shared rounds; ``validate_schedule`` refuses them as
        ``segment-order`` without building a table, and a run validates its
        schedule before it reads one."""
        config = ScenarioConfig.from_dict({
            **json.loads((Path(__file__).resolve().parents[1] / "configs" / "correct_source.json")
                         .read_text()),
            "schedule": {"trajectories": [{"agent_id": 0, "segments": [
                {"host": 1, "first_round": 1, "last_round": 3},
                {"host": 2, "first_round": 2, "last_round": None}]}]}})
        sched = config.resolved_schedule()
        assert [v.rule for v in validate_schedule(sched)] == ["segment-order"]
        with pytest.raises(InvalidScenario, match="segment-order"):
            Simulation(config)
        assert "_faulty_table" not in vars(sched)

    def test_table_is_not_a_field(self):
        from dataclasses import fields

        sched = schedule_from([ROAMING_PATH], horizon=6)
        sched.faulty_set(1)
        assert [f.name for f in fields(sched)] == ["n", "f", "delta_s", "horizon", "trajectories"]
        assert "_faulty_table" not in repr(sched)

    def test_unequal_schedules_stay_unequal_after_building(self):
        a = schedule_from([ROAMING_PATH], horizon=6)
        b = schedule_from([ROAMING_PATH[:2]], horizon=6)
        a.faulty_set(1), b.faulty_set(1)
        assert a != b
        assert a.faulty_set(3) == {0} and b.faulty_set(3) == frozenset()

    @pytest.mark.parametrize("built", [False, True])
    def test_round_out_of_horizon_still_raises(self, built):
        sched = schedule_from([ROAMING_PATH], horizon=6)
        if built:
            sched.faulty_set(3)
        for r in (-1, 0, 7, 100):
            with pytest.raises(RoundOutOfHorizon):
                sched.faulty_set(r)
            with pytest.raises(RoundOutOfHorizon):
                sched.correct_set(r)
            with pytest.raises(RoundOutOfHorizon):
                sched.is_faulty(0, r)
