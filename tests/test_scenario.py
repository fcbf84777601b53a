import json

import pytest

from conftest import golden_correct_source
from mbbc.engine import Simulation
from mbbc.model import Segment
from mbbc.scenario import Broadcast, InvalidScenario, ScenarioConfig, build_schedule


def base_dict(**overrides):
    data = {
        "n": 6, "f": 1, "delta_s": 1, "horizon": 6, "seed": 0,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": []},
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_missing_fields_listed(self):
        with pytest.raises(InvalidScenario) as err:
            ScenarioConfig.from_dict({"n": 6})
        text = str(err.value)
        assert "f" in text and "horizon" in text

    def test_non_object_json_rejected(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig.from_json("[1, 2, 3]")
        with pytest.raises(InvalidScenario):
            ScenarioConfig.from_json("{not json")

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig.from_dict(base_dict(variant="SUPER"))

    def test_roundtrip_through_dict(self):
        cfg = golden_correct_source()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_binary_payload_roundtrip(self):
        b = Broadcast(source=0, round=1, payload=b"\x00\x01")
        assert Broadcast.from_dict(b.to_dict()) == b

    @pytest.mark.parametrize("broadcasts, named", [
        ("x", "broadcasts is 'x', not a list"),
        ({"source": 0}, "broadcasts is {'source': 0}, not a list"),
        (5, "broadcasts is 5, not a list"),
        ([7], "broadcast entry is 7, not an object"),
        ([{"round": 1, "payload": "m"}], "bad broadcast entry: needs 'source'"),
    ], ids=["string", "object", "int", "int-entry", "entry-without-source"])
    def test_a_bad_broadcasts_field_is_named(self, broadcasts, named):
        with pytest.raises(InvalidScenario) as err:
            ScenarioConfig.from_dict(base_dict(broadcasts=broadcasts))
        assert str(err.value) == named

    def test_fingerprint_stable_and_seed_sensitive(self):
        a = ScenarioConfig.from_dict(base_dict(seed=1))
        b = ScenarioConfig.from_dict(base_dict(seed=1))
        c = ScenarioConfig.from_dict(base_dict(seed=2))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestValidation:
    def test_trajectory_count_mismatch_reported(self):
        cfg = ScenarioConfig.from_dict(base_dict(f=2, schedule={"trajectories": []}))
        with pytest.raises(InvalidScenario) as err:
            cfg.validate()
        assert "trajectory-count" in str(err.value)

    def test_broadcast_bounds_checked(self):
        cfg = ScenarioConfig.from_dict(base_dict(
            f=0, broadcasts=[{"source": 9, "round": 1, "payload": "m"}]))
        with pytest.raises(InvalidScenario):
            cfg.validate()
        cfg = ScenarioConfig.from_dict(base_dict(
            f=0, broadcasts=[{"source": 0, "round": 99, "payload": "m"}]))
        with pytest.raises(InvalidScenario):
            cfg.validate()

    def test_f_must_be_below_n(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig.from_dict(base_dict(f=6)).validate()


class TestGenerators:
    def test_static_parks_agents_for_good(self):
        cfg = ScenarioConfig.from_dict(base_dict(
            schedule={"generator": "static", "params": {"hosts": [3]}}))
        sched = build_schedule(cfg)
        assert all(sched.faulty_set(r) == {3} for r in range(1, 7))

    def test_static_needs_exactly_f_hosts(self):
        cfg = ScenarioConfig.from_dict(base_dict(
            schedule={"generator": "static", "params": {"hosts": [3, 4]}}))
        with pytest.raises(InvalidScenario):
            build_schedule(cfg)

    def test_alternating_respects_residency(self):
        cfg = ScenarioConfig.from_dict(base_dict(
            delta_s=2, horizon=9,
            schedule={"generator": "alternating", "params": {"p1": [4], "p2": [5], "start": 2}}))
        sched = build_schedule(cfg)
        assert sched.faulty_set(1) == frozenset()
        assert sched.faulty_set(2) == {4} and sched.faulty_set(3) == {4}
        assert sched.faulty_set(4) == {5} and sched.faulty_set(5) == {5}
        assert sched.faulty_set(6) == {4}
        cfg.validate()

    def test_roundrobin_walks_the_ring(self):
        cfg = ScenarioConfig.from_dict(base_dict(
            n=4, horizon=4,
            schedule={"generator": "roundrobin", "params": {"offset": 1}}))
        sched = build_schedule(cfg)
        assert [sorted(sched.faulty_set(r)) for r in range(1, 5)] == [[1], [2], [3], [0]]
        cfg.validate()

    def test_unknown_generator_rejected(self):
        cfg = ScenarioConfig.from_dict(base_dict(schedule={"generator": "wat"}))
        with pytest.raises(InvalidScenario):
            build_schedule(cfg)

    @pytest.mark.parametrize("spec", [
        {"generator": "roundrobin", "params": {"offset": 1}},
        {"generator": "alternating", "params": {"p1": [4], "p2": [5]}},
    ])
    @pytest.mark.parametrize("delta_s", [0, -1])
    def test_generator_without_stays_rejected(self, spec, delta_s):
        """A generator stepping by delta_s < 1 would never reach the horizon."""
        cfg = ScenarioConfig.from_dict(base_dict(delta_s=delta_s, schedule=spec))
        with pytest.raises(InvalidScenario, match=f"delta_s >= 1, got {delta_s}"):
            build_schedule(cfg)



def trajectory(*segments):
    return {"agent_id": 0, "segments": [dict(zip(("host", "first_round", "last_round"), s))
                                        for s in segments]}


class TestUnknownKeys:
    """A key a spec does not define is rejected by name, never ignored."""

    @pytest.mark.parametrize("key", ["delta_S", "comment"])
    def test_config(self, key):
        with pytest.raises(InvalidScenario, match=f"config key '{key}' is not one of n, f, "):
            ScenarioConfig.from_dict(base_dict(**{key: 3}))

    @pytest.mark.parametrize("schedule, named", [
        ({"trajectories": [], "note": 1}, "schedule key 'note' is not one of trajectories"),
        ({"trajectories": [], "generator": "static"},
         "schedule key 'generator' is not one of trajectories"),
        ({"generator": "static", "params": {"hosts": [3]}, "param": {}},
         "schedule key 'param' is not one of generator, params"),
        ({"generator": "roundrobin", "params": {"ofset": 2}},
         "roundrobin generator params key 'ofset' is not one of offset, skip"),
        ({"generator": "static", "params": {"hosts": [3], "host": 3}},
         "static generator params key 'host' is not one of hosts"),
        ({"generator": "alternating", "params": {"p1": [4], "p2": [5], "begin": 2}},
         "alternating generator params key 'begin' is not one of p1, p2, start"),
        ({"trajectories": [{"agent_id": 0, "segments": [], "id": 0}]},
         "trajectory key 'id' is not one of agent_id, segments"),
        ({"trajectories": [{"agent_id": 0, "segments": [{"host": 1, "first_round": 1, "last": 2}]}]},
         "segment key 'last' is not one of host, first_round, last_round"),
        ({"trajectories": [{"agent_id": 0, "segments": [{"host": 1, "first_round": 1, "last": 2},
                                                        {"host": 2, "first_round": 3}]}]},
         "segment key 'last' is not one of host, first_round, last_round"),
    ], ids=["schedule-explicit", "schedule-both", "schedule-generator", "roundrobin", "static",
            "alternating", "trajectory", "last-segment", "segment-before-another"])
    def test_schedule_spec(self, schedule, named):
        cfg = ScenarioConfig.from_dict(base_dict(schedule=schedule))
        with pytest.raises(InvalidScenario) as err:
            cfg.validate()
        assert str(err.value) == named

    @pytest.mark.parametrize("setting, named", [
        ({"timing": "SYNC", "mobility": "S-MOB+", "orcale": "FFA"},
         ["setting key 'orcale' is not one of timing, mobility, oracle"]),
        ({"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA", "Timing": "ASYNC"},
         ["setting key 'Timing' is not one of timing, mobility, oracle"]),
    ], ids=["misspelled", "beside-the-three"])
    def test_setting(self, setting, named):
        with pytest.raises(InvalidScenario) as err:
            ScenarioConfig.from_dict(base_dict(setting=setting))
        assert err.value.problems == named

    @pytest.mark.parametrize("entry, named", [
        ({"source": 0, "rnd": 1, "payload": "m"},
         "broadcast entry key 'rnd' is not one of source, round, payload, payload_hex"),
        ({"source": 0, "round": 1, "payload": "m", "note": "x"},
         "broadcast entry key 'note' is not one of source, round, payload, payload_hex"),
        ({"source": 0, "round": 1, "payload": "m", "payload_hex": "6d"},
         "bad broadcast entry: both payload and payload_hex are given; an entry takes one"),
        ({"source": 0, "round": 1, "payload": "m", "payload_hex": "00ff"},
         "bad broadcast entry: both payload and payload_hex are given; an entry takes one"),
    ], ids=["misspelled-round", "beside-the-four", "both-payloads-alike", "both-payloads-differing"])
    def test_broadcast_entry(self, entry, named):
        with pytest.raises(InvalidScenario) as err:
            ScenarioConfig.from_dict(base_dict(broadcasts=[entry]))
        assert str(err.value) == named

    def test_every_unknown_key_is_named(self):
        with pytest.raises(InvalidScenario) as err:
            Segment.from_dict({"host": 1, "first": 1, "last": 2})
        assert err.value.problems == [
            "segment key 'first' is not one of host, first_round, last_round",
            "segment key 'last' is not one of host, first_round, last_round"]

    @pytest.mark.parametrize("skip", [[6], [-1], [0, 9]])
    def test_roundrobin_skip_outside_the_processes(self, skip):
        cfg = ScenarioConfig.from_dict(base_dict(
            schedule={"generator": "roundrobin", "params": {"skip": skip}}))
        with pytest.raises(InvalidScenario) as err:
            cfg.validate()
        assert err.value.problems == [f"roundrobin generator skip {s} outside [0, 6)"
                                      for s in skip if not 0 <= s < 6]


# Each schedule rejection with its text, as `validate` words it.
SCHEDULE_REJECTIONS = [
    pytest.param(
        {"generator": "roundrobin", "params": {"skip": [0, 1, 2, 4, 5]}}, {},
        "schedule: agent=0 round=2 stationary-move: adjacent segments both on host 3; "
        "schedule: agent=0 round=3 stationary-move: adjacent segments both on host 3; "
        "schedule: agent=0 round=4 stationary-move: adjacent segments both on host 3; "
        "schedule: agent=0 round=5 stationary-move: adjacent segments both on host 3",
        id="roundrobin-one-host"),
    pytest.param(
        {"generator": "roundrobin", "params": {"skip": [1, 2, 3, 4, 5]}}, {"delta_s": 2, "horizon": 7},
        "schedule: agent=0 round=3 stationary-move: adjacent segments both on host 0; "
        "schedule: agent=0 round=5 stationary-move: adjacent segments both on host 0; "
        "schedule: agent=0 round=7 stationary-move: adjacent segments both on host 0",
        id="roundrobin-one-host-delta_s-2"),
    pytest.param(
        {"generator": "alternating", "params": {"p1": [1], "p2": [2], "start": 0}}, {},
        "schedule: agent=0 round=0 segment-bounds: segment starts at round 0",
        id="alternating-start-0"),
    pytest.param(
        {"generator": "alternating", "params": {"p1": [6], "p2": [-1]}}, {},
        "schedule: agent=0 round=2 host-range: host 6 outside [0, 6); "
        "schedule: agent=0 round=3 host-range: host -1 outside [0, 6); "
        "schedule: agent=0 round=4 host-range: host 6 outside [0, 6); "
        "schedule: agent=0 round=5 host-range: host -1 outside [0, 6)",
        id="alternating-host-range"),
    pytest.param(
        {"generator": "static", "params": {"hosts": [7, 2]}}, {"f": 2},
        "schedule: agent=0 round=1 host-range: host 7 outside [0, 6)",
        id="static-host-range"),
    pytest.param(
        {"trajectories": [trajectory((1, 1, 1), (2, 2, None))]}, {"delta_s": 2},
        "schedule: agent=0 round=1 residency: residency 1 < delta_s=2",
        id="explicit-short"),
    pytest.param(
        {"trajectories": [trajectory((1, 1, 3), (2, 3, None))]}, {},
        "schedule: agent=0 round=3 segment-order: segments overlap or are out of order",
        id="explicit-overlap"),
    pytest.param(
        {"trajectories": [trajectory((1, 1, 2), (1, 3, 4), (1, 5, None))]}, {},
        "schedule: agent=0 round=3 stationary-move: adjacent segments both on host 1; "
        "schedule: agent=0 round=5 stationary-move: adjacent segments both on host 1",
        id="explicit-back-to-back"),
]


@pytest.mark.parametrize("schedule, sizes, text", SCHEDULE_REJECTIONS)
def test_a_schedule_rejection_keeps_its_text(schedule, sizes, text):
    cfg = ScenarioConfig.from_dict(base_dict(**{"horizon": 5, **sizes, "schedule": schedule}))
    with pytest.raises(InvalidScenario) as err:
        cfg.validate()
    assert str(err.value) == text


def test_one_schedule_per_config_object():
    """``validate``, the engine and ``resolved_schedule`` share one schedule
    and its tables; a derived config builds its own."""
    cfg = golden_correct_source()
    cfg.validate()
    sched = cfg.resolved_schedule()
    sim = Simulation(cfg)
    assert sim.schedule is sched
    sim.step()
    assert "_faulty_table" in vars(sched)  # built by the engine's first round
    assert cfg.resolved_schedule() is sched
    other = cfg.with_overrides(seed=cfg.seed + 1)
    assert other.resolved_schedule() is not sched and other.resolved_schedule() == sched
    assert cfg == ScenarioConfig.from_dict(cfg.to_dict()) and "_schedule" not in repr(cfg)


def test_config_json_files_are_self_describing(tmp_path):
    cfg = golden_correct_source()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ScenarioConfig.from_json(path.read_text())
    assert again == cfg
    again.validate()
