"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Process naming: a scenario description's p_k is index k-1.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from conftest import (
    CHOICE_PINS,
    assert_choice_verdicts_hold,
    bfa_double_cure_scenario,
    choice_violations,
    golden_correct_source,
    random_scenario,
    random_walk_schedule,
    split_send_scenario,
)
from mbbc.checker import (
    SATISFIED,
    VIOLATED,
    extract_deliveries,
    run_property_checks,
)
from mbbc.demos import run_demo
from mbbc.engine import Simulation, round_sends, run
from mbbc.model import is_io_correct
from mbbc.protocol import VariantTag
from mbbc.scenario import ScenarioConfig
from mbbc.sweeps import run_sweep


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS — {text}")


def _verdicts(cfg: ScenarioConfig, trace=None) -> dict[str, str]:
    trace = run(cfg) if trace is None else trace
    return {r.property: r.verdict
            for r in run_property_checks(trace, cfg.resolved_schedule(),
                                         cfg.delta_b, cfg.delta_c, cfg.variant)}


class Delivered(NamedTuple):
    process: int
    round: int


def _correct_time_deliveries(cfg: ScenarioConfig, trace) -> list[Delivered]:
    """One entry per correct member of each DELIVER_CALL instance group."""
    return [Delivered(p, g.round) for g in extract_deliveries(trace, cfg.resolved_schedule())
            for p in g.correct]


def test_criterion_01_golden_correct_source():
    cfg = golden_correct_source()
    trace = run(cfg)
    sched = cfg.resolved_schedule()
    deliveries = {(d.process, d.round) for d in _correct_time_deliveries(cfg, trace)}
    correct_at_4 = sched.correct_set(4)
    assert correct_at_4 == {0, 2, 3, 4, 5}
    for p in correct_at_4:
        assert (p, 4) in deliveries, f"process {p} must deliver in round 4"
    # Index 1 (the description's p2) is faulty in round 4 and delivers at its
    # first correct round after it.
    first_correct_after_4 = sched.next_correct(1, 5)
    assert (1, first_correct_after_4) in deliveries
    verdicts = _verdicts(cfg, trace)
    assert set(verdicts.values()) == {SATISFIED}, verdicts
    _report(1, "correct-source golden run: deliveries in round 4, laggard at its first "
               f"correct round ({first_correct_after_4}), all five checkers SATISFIED")


def test_criterion_02_faulty_source_all_deliver():
    cfg = split_send_scenario([1, 2, 3])
    trace = run(cfg)
    sched = cfg.resolved_schedule()
    # Echo quorum forms at exactly the targets.
    ready_senders = {sender for sender, message, _to in round_sends(trace.events)[4]
                     if message["kind"] == "READY"}
    assert ready_senders == {1, 2, 3}
    delivered = {d.process for d in _correct_time_deliveries(cfg, trace)}
    io_correct = {p for p in range(6) if is_io_correct(sched, p, cfg.delta_c)}
    assert io_correct <= delivered
    verdicts = _verdicts(cfg, trace)
    assert verdicts["AGREEMENT"] == SATISFIED
    assert set(verdicts.values()) == {SATISFIED}
    _report(2, f"split send to three targets: every i.o.-correct process delivers "
               f"({sorted(delivered)}), Agreement SATISFIED")


def test_criterion_03_faulty_source_none_deliver():
    cfg = split_send_scenario([1, 2])
    trace = run(cfg)
    aborts_in_4 = {sender for sender, message, _to in round_sends(trace.events)[4]
                   if message["kind"] == "ABORT"}
    assert len(aborts_in_4) > cfg.f, "more than f ABORTs must circulate"
    ready_sends = [message for sends in round_sends(trace.events).values()
                   for _sender, message, _to in sends if message["kind"] == "READY"]
    assert ready_sends == []
    assert _correct_time_deliveries(cfg, trace) == []
    verdicts = _verdicts(cfg, trace)
    assert verdicts["AGREEMENT"] == SATISFIED
    _report(3, f"split send to two targets: {len(aborts_in_4)} ABORT senders in round 4, "
               "no READY traffic, zero correct-time deliveries, Agreement vacuously SATISFIED")


def _frontier(variant: VariantTag, n_values, delta_s=1, strategies=("alternating", "split")):
    rows = run_sweep(variant, list(n_values), [1], delta_s=delta_s, strategies=strategies)
    violated_by_n: dict[int, set[tuple[str, str]]] = {}
    for row in rows:
        if row["verdict"] == VIOLATED:
            violated_by_n.setdefault(row["n"], set()).add((row["strategy"], row["property"]))
    return rows, violated_by_n


def test_criterion_04_resilience_frontier_ffa():
    rows, violated = _frontier(VariantTag.FFA_FULL, range(4, 9))
    assert set(violated) == {4, 5}, violated
    for n in (4, 5):
        assert violated[n], f"n={n} must show at least one VIOLATED property"
    _report(4, "full-variant frontier exact at n = 5f+1: violations at n in {4,5}, "
               "none at n in {6,7,8}")


def test_criterion_05_weak_variant_frontiers():
    _, nfa_violated = _frontier(VariantTag.NFA_WEAK, range(6, 9), strategies=("alternating",))
    weak_props = {"validity", "integrity", "agreement", "delivery_count_law"}
    nfa_weak_violations = {n: {p for _, p in v if p in weak_props} for n, v in nfa_violated.items()}
    assert nfa_weak_violations.get(6), "no-oracle variant must fail at n = 6f"
    assert not nfa_weak_violations.get(7) and not nfa_weak_violations.get(8)
    # No duplication is exactly the property abandoned: violated whenever the
    # weak variant actually works and duplicates arrive.
    assert ("alternating", "no_duplication") in nfa_violated[7]
    assert ("alternating", "no_duplication") in nfa_violated[8]

    _, bfa_violated = _frontier(VariantTag.BFA_WEAK, range(5, 9), strategies=("alternating",))
    bfa_weak_violations = {n: {p for _, p in v if p in weak_props} for n, v in bfa_violated.items()}
    assert bfa_weak_violations.get(5), "basic-oracle weak variant must fail at n = 5f"
    assert not any(bfa_weak_violations.get(n) for n in (6, 7, 8))
    for n in (6, 7, 8):
        assert ("alternating", "no_duplication") in bfa_violated[n], \
            "cure after birth+3 must show a no-duplication violation"
    _report(5, "weak frontiers exact (no-oracle at n > 6f, basic-oracle at n > 5f); "
               "no-duplication is the one property violated on the working runs")


def test_criterion_06_delivery_count_laws():
    # Basic-oracle variant: index 5 delivers at round 4 while correct, then is
    # cured twice after birth+3 -> exactly 1+k = 3 correct-time deliveries.
    cfg = bfa_double_cure_scenario()
    trace = run(cfg)
    per_process: dict[int, list[int]] = {}
    for d in _correct_time_deliveries(cfg, trace):
        per_process.setdefault(d.process, []).append(d.round)
    assert sorted(per_process[5]) == [4, 6, 8]
    verdicts = _verdicts(cfg, trace)
    assert verdicts["DELIVERY_COUNT_LAW"] == SATISFIED

    # No-oracle variant: one delivery per correct round from birth+3 on.
    from mbbc.sweeps import attack_scenario
    nfa_cfg = attack_scenario(VariantTag.NFA_WEAK, 7, 1, 1, "alternating")
    nfa_trace = run(nfa_cfg)
    sched = nfa_cfg.resolved_schedule()
    birth = nfa_cfg.broadcasts[0].round
    recs: dict[int, set[int]] = {}
    for d in _correct_time_deliveries(nfa_cfg, nfa_trace):
        recs.setdefault(d.process, set()).add(d.round)
    for p in range(nfa_cfg.n):
        expected = {r for r in range(birth + 3, nfa_cfg.horizon + 1) if p in sched.correct_set(r)}
        assert recs.get(p, set()) == expected, f"process {p}"
    nfa_verdicts = _verdicts(nfa_cfg, nfa_trace)
    assert nfa_verdicts["DELIVERY_COUNT_LAW"] == SATISFIED
    _report(6, "count laws: twice-cured process delivers exactly 1+k=3 times (basic oracle); "
               "one delivery per correct round from birth+3 (no oracle)")


def test_criterion_07_impossibility_demos():
    for kind, pins in (("THEOREM_3", CHOICE_PINS["SOURCE_FLIP"]),
                       ("THEOREM_4", CHOICE_PINS["WIPE_FLIP"])):
        result = run_demo(kind, {})
        assert result.projections_identical, kind
        assert result.holds, kind
        assert choice_violations(result) == pins, kind
        assert_choice_verdicts_hold(result)
    _report(7, "both paired constructions: byte-identical projections at permanently "
               "correct processes; the checker finds a replayable violation of every "
               "adapter choice")


def test_criterion_08_round_counter_robustness():
    n, f, horizon = 7, 2, 8
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        trajectories = random_walk_schedule(rng, n, f, horizon)
        cfg = ScenarioConfig.from_dict({
            "n": n, "f": f, "delta_s": 1, "horizon": horizon, "seed": seed,
            "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": "FFA"},
            "variant": "FFA_FULL",
            "schedule": {"trajectories": trajectories},
            "strategy": {"kind": "ARBITRARY", "script": _garbage_round_votes(trajectories, n, horizon)},
        })
        sim = Simulation(cfg)
        sched = cfg.resolved_schedule()
        for r in range(1, horizon + 1):
            sim.step()
            rcs = {sim.states[p].rc for p in sched.correct_set(r)}
            assert rcs == {r + 1}, f"seed={seed} round={r}: correct processes saw rc {rcs}"
            checked += 1
    assert checked == 100 * horizon
    _report(8, f"round counter equal at every compute across {checked} corrupted "
               "random-schedule rounds (n > 3f)")


def _garbage_round_votes(trajectories, n, horizon):
    """ARBITRARY script: every faulty process floods forged round votes and is
    left with a trashed counter."""
    script: dict = {}
    hosts_by_round: dict[int, set[int]] = {}
    for traj in trajectories:
        for seg in traj["segments"]:
            last = seg["last_round"] if seg["last_round"] is not None else horizon
            for r in range(seg["first_round"], last + 1):
                hosts_by_round.setdefault(r, set()).add(seg["host"])
    for r, hosts in hosts_by_round.items():
        script[str(r)] = {
            str(p): {
                "sends": [[q, {"kind": "ROUND", "round_value": 40 + r}] for q in range(n)],
                "state": {"rc": 777},
            } for p in hosts}
    return script


def test_criterion_09_delta_s_insensitivity():
    for delta_s in (1, 2, 3):
        cfg = golden_correct_source(delta_s=delta_s)
        trace = run(cfg)
        sched = cfg.resolved_schedule()
        deliveries = {(d.process, d.round) for d in _correct_time_deliveries(cfg, trace)}
        for p in sched.correct_set(4):
            assert (p, 4) in deliveries, (delta_s, p)
        verdicts = _verdicts(cfg, trace)
        assert set(verdicts.values()) == {SATISFIED}, (delta_s, verdicts)

        _, violated = _frontier(VariantTag.FFA_FULL, range(4, 9), delta_s=delta_s)
        assert set(violated) == {4, 5}, (delta_s, violated)
    _report(9, "golden run and frontier verdicts unchanged for residency 1, 2 and 3 rounds")


def test_criterion_10_determinism():
    rng = random.Random(20260809)
    identical = 0
    for _ in range(20):
        cfg = random_scenario(rng)
        assert run(cfg).sha256() == run(cfg).sha256()
        identical += 1
    assert identical == 20
    _report(10, "20 random (config, seed) pairs re-run with identical trace hashes")
