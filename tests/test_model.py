from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHAPES, shape_config
from mbbc.checker import permanently_correct
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
from mbbc.scenario import ScenarioConfig


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

    def test_faulty_span_start_merges_back_to_back_stays(self):
        # Two agents chain on host 2: rounds 1-2 and 3-4.
        sched = schedule_from([[(2, 1, 2)], [(2, 3, 4)]], horizon=6)
        assert sched.faulty_span_start(2, 4) == 1


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
        correct = set(sched.correct_rounds(1))
        expected = all(any(j in correct for j in range(r + 1, 7)) for r in range(0, 6))
        assert expected is True
        assert is_io_correct(sched, 1, 1) is True

    def test_matches_brute_force_window_oracle(self):
        sched = schedule_from([[(0, 1, 1), (1, 3, 3), (0, 5, 5)]], horizon=6)

        def brute(p, delta_c):
            for r in range(0, sched.horizon - delta_c + 1):
                found = False
                for b in range(r + 1, sched.horizon - delta_c + 2):
                    if all(sched.is_correct(p, j) for j in range(b, b + delta_c)):
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


def assert_host_of_scans(sched):
    """``host_of`` equals the first segment holding the round, for every
    agent and every round from before 1 to past the horizon."""
    for agent, traj in enumerate(sched.trajectories):
        for r in range(-1, sched.horizon + 3):
            scanned = next((seg.host for seg in traj.segments
                            if seg.first_round <= r <= sched.resolved_last(seg)), None)
            assert sched.host_of(agent, r) == scanned, (agent, r)


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
            hosts = {sched.host_of(a, r) for a in range(sched.f)} - {None}
            assert sched.faulty_set(r) == hosts, r

    @settings(max_examples=200, deadline=None)
    @given(valid_schedules())
    def test_derived_queries_agree_with_agent_hosts(self, sched):
        def faulty(p, r):
            return any(sched.host_of(a, r) == p for a in range(sched.f))

        h = sched.horizon
        for p in range(sched.n):
            assert sched.correct_rounds(p) == tuple(r for r in range(1, h + 1) if not faulty(p, r))
            for r in range(1, h + 2):
                after = [later for later in range(r, h + 1) if not faulty(p, later)]
                assert sched.next_correct(p, r) == (after[0] if after else None), (p, r)
            for r in range(1, h + 1):
                assert sched.is_faulty(p, r) is faulty(p, r)
                assert sched.is_correct(p, r) is not faulty(p, r)
                assert (p in sched.cured_processes(r)) is (r > 1 and faulty(p, r - 1)
                                                           and not faulty(p, r))
                if faulty(p, r):
                    start = r
                    while start > 1 and faulty(p, start - 1):
                        start -= 1
                    assert sched.faulty_span_start(p, r) == start
                for last in range(r, h + 2):
                    expected = last <= h and not any(faulty(p, j) for j in range(r, last + 1))
                    assert sched.correct_during(p, r, last) is expected
        never_hosted = {p for p in range(sched.n)
                        if not any(faulty(p, r) for r in range(1, h + 1))}
        assert permanently_correct(sched) == never_hosted

    @settings(max_examples=200, deadline=None)
    @given(valid_schedules(), st.integers(1, 4))
    def test_io_correct_matches_the_window_definition(self, sched, delta_c):
        h = sched.horizon

        def definition(p):
            # After every round r there is a full delta_c-long correct window.
            for r in range(0, h - delta_c + 1):
                if not any(all(sched.is_correct(p, j) for j in range(b, b + delta_c))
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

    @pytest.mark.parametrize("name", NAMED_SCHEDULES)
    def test_host_of_equals_the_segment_scan(self, name):
        """The table ``host_of`` reads answers as a scan of the segments
        does, off-board and outside the horizon included, on the bundled
        configs and on roundrobin and walk shapes."""
        assert_host_of_scans(named_schedule(name))

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

    @settings(max_examples=200, deadline=None)
    @given(valid_schedules())
    def test_host_of_equals_the_segment_scan_on_random_schedules(self, sched):
        assert_host_of_scans(sched)

    def test_host_of_overlapping_segments_is_the_first_as_in_a_scan(self):
        sched = schedule_from([[(1, 1, 3), (2, 2, 5)], [(4, 3, None), (0, 1, 4)]], n=6, horizon=6)
        assert validate_schedule(sched) != ()
        assert_host_of_scans(sched)
        assert [sched.host_of(0, r) for r in range(1, 7)] == [1, 1, 1, 2, 2, None]

    @pytest.mark.parametrize("agent", [-1, -2, 2, 3])
    def test_host_of_an_agent_outside_0_to_f_is_a_value_error(self, agent):
        """No negative index reaches another agent's host, and no id past
        the last agent raises IndexError, in a round inside the horizon or not."""
        sched = schedule_from([[(1, 1, 3)], [(4, 2, None)]], n=6, horizon=6)
        for r in (0, 1, 4, 7):
            with pytest.raises(ValueError, match=rf"agent {agent} outside \[0, 2\)"):
                sched.host_of(agent, r)

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
                sched.is_correct(0, r)
            with pytest.raises(RoundOutOfHorizon):
                sched.is_faulty(0, r)
        with pytest.raises(RoundOutOfHorizon):
            sched.cured_processes(7)
