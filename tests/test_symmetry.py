"""Relabelling the processes of a config relabels its run.

A process permutation maps every place a config names a process: the hosts
of the explicit trajectories (taken from ``resolved_schedule()``, so a
generated schedule is relabelled too), the broadcast sources, the
strategy's ``p1``, ``p2``, ``targets`` and ``target``, the keys of
``sim_cure``, and an ARBITRARY script's process keys, its receivers and the
``source`` of every message it sends or queues. The relabelled run must
deliver exactly the relabelled (round, process, source, payload)
deliveries of the original, and give the same verdict on every property.

The pool: ``arbitrary_config`` seeds 0-299, ``forged_birth_config`` at
n=6, f=1, seeds 0-149, ``random_scenario`` seeds 0-299, the bundled
configs and every ``SHAPES`` config. Each cell takes one seeded
permutation that moves some process.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest

from conftest import SHAPES, arbitrary_config, forged_birth_config, random_scenario, shape_config
from mbbc.checker import ALL_PROPERTIES, run_property_checks
from mbbc.engine import delivered_instances, run
from mbbc.scenario import ScenarioConfig

BUNDLED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def permutation(n: int, seed: str) -> list[int]:
    """A seeded permutation of range(n) that moves some process when n > 1."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    if perm == sorted(perm):
        perm = perm[1:] + perm[:1]
    return perm


def relabelled_message(message: dict, perm: list[int]) -> dict:
    return {**message, "source": perm[message["source"]]} if "source" in message else message


def relabelled_script(script: dict, perm: list[int]) -> dict:
    out: dict = {}
    for rnd, per_proc in script.items():
        for p, actions in per_proc.items():
            actions = dict(actions)
            if "sends" in actions:
                actions["sends"] = [[perm[q], relabelled_message(m, perm)] for q, m in actions["sends"]]
            state = actions.get("state")
            if isinstance(state, dict) and "to_send" in state:
                actions["state"] = {**state, "to_send": [relabelled_message(m, perm)
                                                         for m in state["to_send"]]}
            out.setdefault(rnd, {})[str(perm[int(p)])] = actions
    return out


def relabelled_strategy(strategy: dict, perm: list[int]) -> dict:
    out = dict(strategy)
    for key in ("p1", "p2", "targets"):
        if key in out:
            out[key] = [perm[p] for p in out[key]]
    if "target" in out:
        out["target"] = perm[out["target"]]
    if "sim_cure" in out:
        out["sim_cure"] = {str(perm[int(p)]): cure for p, cure in out["sim_cure"].items()}
    if "script" in out:
        out["script"] = relabelled_script(out["script"], perm)
    return out


def relabelled(cfg: ScenarioConfig, perm: list[int]) -> ScenarioConfig:
    data = cfg.to_dict()
    trajectories = [t.to_dict() for t in cfg.resolved_schedule().trajectories]
    for trajectory in trajectories:
        for segment in trajectory["segments"]:
            segment["host"] = perm[segment["host"]]
    data["schedule"] = {"trajectories": trajectories}
    data["broadcasts"] = [{**b, "source": perm[b["source"]]} for b in data["broadcasts"]]
    data["strategy"] = relabelled_strategy(data["strategy"], perm)
    return ScenarioConfig.from_dict(data)


def outcome(cfg: ScenarioConfig) -> tuple[Counter, dict[str, str]]:
    """The run's (round, process, source, payload) deliveries, counted, and
    each property's verdict."""
    trace = run(cfg)
    delivered = Counter((r, p, source, payload)
                        for _i, r, by, source, payload in delivered_instances(trace.events)
                        for p in by)
    reports = run_property_checks(trace, cfg.resolved_schedule(), cfg.delta_b, cfg.delta_c,
                                  cfg.variant, ALL_PROPERTIES)
    return delivered, {report.property: report.verdict for report in reports}


def breaks(cells: list[tuple[str, Callable[[], ScenarioConfig]]]) -> list[tuple[str, list[int], str]]:
    """Each cell whose relabelled run is not its run relabelled, with the
    permutation and what differs."""
    out = []
    for name, build in cells:
        cfg = build()
        perm = permutation(cfg.n, name)
        delivered, verdicts = outcome(cfg)
        moved_delivered, moved_verdicts = outcome(relabelled(cfg, perm))
        expected = Counter({(r, perm[p], perm[source], payload): count
                            for (r, p, source, payload), count in delivered.items()})
        if moved_delivered != expected:
            out.append((name, perm, "deliveries"))
        if moved_verdicts != verdicts:
            out.append((name, perm, f"verdicts {verdicts} became {moved_verdicts}"))
    return out


POOLS = {
    "arbitrary": [(f"arbitrary-{seed}", lambda seed=seed: arbitrary_config(seed))
                  for seed in range(300)],
    "forged_birth": [(f"forged_birth-{seed}", lambda seed=seed: forged_birth_config(seed, 6, 1))
                     for seed in range(150)],
    "random_scenario": [(f"random_scenario-{seed}",
                         lambda seed=seed: random_scenario(random.Random(seed)))
                        for seed in range(300)],
    "bundled": [(path.stem, lambda path=path: ScenarioConfig.from_json(path.read_text()))
                for path in BUNDLED],
    "shapes": [(name, lambda name=name: shape_config(name)) for name in SHAPES],
}


@pytest.mark.parametrize("pool", POOLS)
def test_a_relabelled_config_runs_the_relabelled_run(pool):
    assert breaks(POOLS[pool]) == []


def test_the_relabelling_reaches_every_place_a_config_names_a_process():
    """On the bundled ARBITRARY config, every process key, receiver and
    message source moves as the permutation says, and a generated schedule
    becomes explicit trajectories on the moved hosts."""
    cfg = next(ScenarioConfig.from_json(path.read_text()) for path in BUNDLED
               if '"ARBITRARY"' in path.read_text())
    perm = list(range(cfg.n))[::-1]
    moved = relabelled(cfg, perm)
    assert moved.strategy != cfg.strategy
    assert relabelled(moved, perm).strategy == cfg.strategy
    assert ([[perm[s.host] for s in t.segments] for t in cfg.resolved_schedule().trajectories]
            == [[s.host for s in t.segments] for t in moved.resolved_schedule().trajectories])
    shape = shape_config("nfa_weak_roundrobin")
    moved = relabelled(shape, permutation(shape.n, "roundrobin"))
    assert "generator" in shape.schedule and "trajectories" in moved.schedule


def test_a_relabelling_that_breaks_the_symmetry_is_caught():
    """A config whose strategy names a process the permutation does not
    move with it (SPLIT_SEND's targets left as they were) no longer runs
    the relabelled run: the relation has the power to see a break."""
    cfg = ScenarioConfig.from_json(next(p for p in BUNDLED if p.stem.startswith("faulty_source"))
                                   .read_text())
    assert cfg.strategy["kind"] == "SPLIT_SEND"
    perm = permutation(cfg.n, "split")
    delivered, _verdicts = outcome(cfg)
    moved = relabelled(cfg, perm)
    unmoved = ScenarioConfig.from_dict({**moved.to_dict(), "strategy": cfg.strategy})
    expected = Counter({(r, perm[p], perm[source], payload): count
                        for (r, p, source, payload), count in delivered.items()})
    assert outcome(moved)[0] == expected
    assert outcome(unmoved)[0] != expected
