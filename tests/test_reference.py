"""The standing differential: ``Simulation`` against the literal round loop
of ``reference.Reference``, round by round.

For every round it compares, by meaning rather than by bytes, so that the
trace's grouping stays out of the reference:
- every process's ``state_fingerprint``;
- the sends as (sender, message, receiver), duplicates kept, the trace's
  P2P_SENDs expanded with ``engine.round_sends``;
- each correct process's deliveries, from ``engine.delivered_instances``;
- each possessed process's state digest as the trace gives it, its latest
  STATE_CORRUPTED within its faulty span (``conftest.possessed_digests``),
  against ``state_fingerprint`` of the reference's state after the round.

It runs on the bundled configs, both histories of both demo kinds, the
longer scenarios of ``conftest`` (``fanout_shaped`` at n=32 and f=6,
``weak_redelivery_shaped`` and every ``SHAPES`` config), the seeded
ARBITRARY scripts of ``conftest.arbitrary_config`` (seeds 0-199), a fixed
sample of f=2 FFA_FULL CRASH_SILENT schedules (n=11, horizon 6),
``conftest.split_send_scenario`` for every set of targets among processes
1-5, seeded SOURCE_FLIP and WIPE_FLIP pairs at n=16 and horizon 30 (the
``forged_pairs`` benchmark's shape), and every ALTERNATING_SETS cell of the
``frontier_sweep`` benchmark's grid. The last two are inputs whose
possessed processes send each message to every process, which the engine
folds into the common tallies and the reference into each inbox. The split sends are the inputs whose dictated inboxes read differently
from the common fold: only the targets see the faulty source's SEND and
ECHO, so only they reach the ECHO quorum. Half the forged votes of the
ARBITRARY scripts name a broadcast's own instance
(``test_the_pool_forges_votes_on_broadcast_instances``), yet under the
variant's bound those cannot move its quorums: the correct processes alone
put a correct source's ECHO count at or above the quorum, and the f forged
votes, with what freed processes flush, stay within F of every other
threshold. So about half the scripts also split the SEND of a source the
agent holds in its SEND and ECHO rounds, which leaves a subset of the
correct processes one ECHO above a threshold
(``test_the_pool_reaches_the_split_send_corner``).

Each of these mutations of the engine, made on a copy, fails this file:
- one fold reading kept per round rather than per fold, every fold of a
  round sharing one ``readings`` dict in ``engine.receive_phase`` (the
  split sends, 15 of 31, ``faulty_source_all_deliver`` and 95 of the 200
  pool scripts);
- the common fold's reading used for a dictated inbox, ``protocol.receive``
  handing its copy the common fold's ``readings`` (the same inputs);
- a STATE_CORRUPTED omitted at the start of a faulty span (most groups),
  or omitted when the digest equals the one the process held before its
  last cure (11 of the 26 tests); one written in every possessed round
  passes here and fails ``test_trace_layout.py``;
- the compute class key without ``cured_faulty_since`` (only the crash
  sample: it needs two processes cured in one round and one class, their
  faulty spans starting on either side of the due round, which a random
  script rarely builds; ``test_the_crash_sample_holds_the_cure_corner``
  keeps that corner in the sample);
- a broadcast caller's SEND added to its class's outcome rather than to a
  copy of its own, so that its class shares the SEND (most inputs of every
  group but the split sends);
- a possessed process left holding the state object its class shares, so
  that the strategy or the class's compute changes both (every group);
- a part of a group that a dictated inbox splits off computed in place,
  not on a copy (the split sends, both faulty-source configs and four of
  the eight pool groups).

A sender that dictates one message to every process and another to one
process folded into the common tallies for the first would change no state
here; ``test_engine.py`` pins that case on the folds themselves.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    SHAPES,
    arbitrary_config,
    fanout_shaped,
    possessed_digests,
    random_walk_schedule,
    shape_config,
    split_send_scenario,
    weak_redelivery_shaped,
)
from mbbc import engine
from mbbc.adversary import generate_paired_histories
from mbbc.engine import KIND_P2P_SEND, TO_ALL, Simulation, delivered_instances, round_sends, run
from mbbc.messages import ProtocolMessage
from mbbc.protocol import DELIVERY_DELAY, VariantTag, read_fold, state_fingerprint
from mbbc.scenario import ScenarioConfig
from mbbc.sweeps import attack_scenario
from reference import Reference

BUNDLED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
# The crash sample: its size and the seed of each schedule's walk.
CRASH_SAMPLE = range(300)


def crash_schedule(seed: int) -> ScenarioConfig:
    """n=11, f=2, FFA_FULL under CRASH_SILENT to horizon 6: two agents on
    random walks (``conftest.random_walk_schedule``), and source 0
    broadcasting once in round 1."""
    rng = random.Random(seed)
    return ScenarioConfig.from_dict({
        "n": 11, "f": 2, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": 6, "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
        "variant": "FFA_FULL",
        "schedule": {"trajectories": random_walk_schedule(rng, 11, 2, 6)},
        "broadcasts": [{"source": 0, "round": 1, "payload": "m"}],
        "strategy": {"kind": "CRASH_SILENT"},
    })


def assert_matches_reference(cfg: ScenarioConfig) -> None:
    """Step ``Simulation`` and ``Reference`` side by side to the horizon."""
    sim, ref = Simulation(cfg), Reference(cfg)
    n = cfg.n
    possessed: dict[tuple[int, int], str] = {}
    while sim.round < cfg.horizon:
        start = len(sim.trace.events)
        sim.step()
        events = sim.trace.events[start:]
        sends, delivered = ref.step()
        r = sim.round

        expanded: Counter = Counter()
        for sender, message, to in round_sends(events).get(r, []):
            msg = ProtocolMessage.from_dict(message)
            for q in range(n) if to == TO_ALL else to:
                expanded[sender, msg, q] += 1
        assert expanded == Counter(sends), r

        got: dict[int, list[tuple[int, bytes]]] = {p: [] for p in delivered}
        for _idx, _r, by, source, payload in delivered_instances(events):
            for p in by:
                got[p].append((source, payload))
        assert {p: sorted(instances) for p, instances in got.items()} == delivered, r

        assert ([state_fingerprint(s) for s in sim.states]
                == [state_fingerprint(s) for s in ref.states]), r
        possessed.update(((p, r), state_fingerprint(ref.states[p]))
                         for p in ref.schedule.faulty_set(r))
    assert possessed_digests(sim.trace) == possessed


@pytest.mark.parametrize("path", BUNDLED, ids=[path.stem for path in BUNDLED])
def test_bundled_configs(path):
    assert_matches_reference(ScenarioConfig.from_json(path.read_text()))


@pytest.mark.parametrize("config", [
    pytest.param(fanout_shaped, id="fanout_shaped"),
    pytest.param(weak_redelivery_shaped, id="weak_redelivery_shaped"),
    *[pytest.param(lambda name=name: shape_config(name), id=name) for name in SHAPES],
])
def test_long_shapes(config):
    assert_matches_reference(config())


@pytest.mark.parametrize("kind", ["SOURCE_FLIP", "WIPE_FLIP"])
@pytest.mark.parametrize("side", [0, 1])
def test_demo_histories(kind, side):
    assert_matches_reference(generate_paired_histories(kind, {})[side])


@pytest.mark.parametrize("first", range(0, 200, 25))
def test_arbitrary_scripts(first):
    for seed in range(first, first + 25):
        assert_matches_reference(arbitrary_config(seed))


def forged_pairs(seed: int) -> list[ScenarioConfig]:
    """Both histories of a SOURCE_FLIP and a WIPE_FLIP pair at n=16 and
    horizon 30, their source, target, seeds and payloads drawn from
    ``seed``: the pairs of the ``forged_pairs`` benchmark workload, whose
    possessed processes send every message to every process."""
    rng = random.Random(seed)
    source, target = rng.sample(range(16), 2)
    scale = {"n": 16, "horizon": 30, "source": source, "seed": rng.randrange(10 ** 6)}
    pairs = [("SOURCE_FLIP", {**scale, "m1": f"a{rng.randrange(16 ** 6):06x}",
                              "m2": f"b{rng.randrange(16 ** 6):06x}"}),
             ("WIPE_FLIP", {**scale, "target": target, "m": f"w{rng.randrange(16 ** 6):06x}"})]
    return [config for kind, params in pairs for config in generate_paired_histories(kind, params)]


@pytest.mark.parametrize("seed", range(3))
def test_forged_pairs_at_scale(seed):
    for config in forged_pairs(seed):
        assert_matches_reference(config)


@pytest.mark.parametrize("variant", list(VariantTag), ids=lambda variant: variant.value)
def test_alternating_sweep_cells(variant):
    """Every ALTERNATING_SETS cell of the ``frontier_sweep`` benchmark grid:
    n from 2f+1 to 6f+2 at f of 1 and 2, and delta_s of 1 and 2. Its P1
    hosts send each spurious vote to every process."""
    for f in (1, 2):
        for n in range(2 * f + 1, 6 * f + 3):
            for delta_s in (1, 2):
                assert_matches_reference(attack_scenario(variant, n, f, delta_s, "alternating"))


def test_split_sends():
    for k in range(1, 6):
        for targets in itertools.combinations(range(1, 6), k):
            assert_matches_reference(split_send_scenario(list(targets)))


@pytest.mark.parametrize("first", range(CRASH_SAMPLE.start, CRASH_SAMPLE.stop, 100))
def test_crash_schedules(first):
    for seed in range(first, first + 100):
        assert_matches_reference(crash_schedule(seed))


def test_the_crash_sample_holds_the_cure_corner():
    """Some schedules of the sample free two processes in one round after
    the due round, their faulty spans starting on either side of it: the
    two enter COMPUTE wiped, cured and with one repaired counter, and only
    ``cured_faulty_since`` tells FFA_FULL's delivery gate apart."""
    due = 1 + DELIVERY_DELAY
    corners = 0
    for seed in CRASH_SAMPLE:
        sched = crash_schedule(seed).resolved_schedule()
        if sched.is_faulty(0, 1):
            continue
        for r in range(due + 1, sched.horizon + 1):
            starts = {start <= due for _p, start in sched.cures(r)}
            corners += starts == {True, False}
    assert corners >= 30


def test_the_pool_forges_votes_on_broadcast_instances():
    """Most scripts of the pool dictate a SEND, ECHO, READY or ABORT that
    names one of their broadcasts' own (source, round, payload), so a forged
    vote lands on a real instance's tallies."""
    def forges(seed: int) -> bool:
        trace = run(arbitrary_config(seed))
        instances = {(b["source"], b["round"], b["payload"]) for b in trace.config["broadcasts"]}
        return any(ev.kind == KIND_P2P_SEND and ev.detail["to"] != TO_ALL
                   and ev.detail["message"]["kind"] != "ROUND"
                   and (ev.detail["message"]["source"], ev.detail["message"]["birth_round"],
                        ev.detail["message"]["payload"]) in instances
                   for ev in trace.events)

    assert sum(map(forges, range(200))) >= 150


def test_the_pool_reaches_the_split_send_corner(monkeypatch):
    """Many scripts of the pool give some correct process a fold whose
    reading differs from its round's common fold: the split sends of
    ``conftest.arbitrary_config`` leave a subset one ECHO above a threshold."""
    folds: list[tuple] = []
    receive_phase = engine.receive_phase

    def kept(common, inboxes):
        tallies = receive_phase(common, inboxes)
        folds.append((common, tallies))
        return tallies

    monkeypatch.setattr(engine, "receive_phase", kept)

    def splits(seed: int) -> bool:
        config = arbitrary_config(seed)
        sim, schedule = Simulation(config), config.resolved_schedule()
        F = sim.variant.effective_f
        folds.clear()
        sim.run()
        return any(read_fold(fold, config.n, F) != read_fold(common, config.n, F)
                   for r, (common, tallies) in enumerate(folds, start=1)
                   for p, fold in enumerate(tallies) if not schedule.is_faulty(p, r))

    assert sum(map(splits, range(200))) >= 80
