"""Relabelling the processes of a config relabels its run, and renaming
its payloads renames its run.

A process permutation maps every place a config names a process: the hosts
of the explicit trajectories (taken from ``resolved_schedule()``, so a
generated schedule is relabelled too), the broadcast sources, the
strategy's ``p1``, ``p2``, ``targets`` and ``target``, the keys of
``sim_cure``, and an ARBITRARY script's process keys, its receivers and the
``source`` of every message it sends or queues. The relabelled run must
deliver exactly the relabelled (round, process, source, payload)
deliveries of the original.

A payload renaming is a bijection from the payloads a config names onto
fresh ones in another order. It maps every place a config names a
payload: the broadcasts, and the payload of every message an ARBITRARY
script sends or queues, forged-birth messages included. A round's
deliveries are in (source, payload) order, which a renaming reorders, so
the renamed run must deliver the renamed deliveries as a multiset.

Under either relation the checker and the independent monitor
(``monitor.monitor_verdicts``) must each give the original run's verdict
on every property. The pool: ``arbitrary_config`` seeds 0-299,
``forged_birth_config`` at n=6, f=1, seeds 0-149, ``random_scenario``
seeds 0-299, the bundled configs and every ``SHAPES`` config. Each cell
takes one seeded permutation that moves some process and one seeded
renaming.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from conftest import SHAPES, arbitrary_config, forged_birth_config, random_scenario, shape_config
from mbbc.checker import ALL_PROPERTIES, run_property_checks
from mbbc.engine import delivered_instances, run
from mbbc.messages import decode_payload, encode_payload
from mbbc.scenario import ScenarioConfig
from monitor import monitor_verdicts

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


def mapped_script(script: dict, perm: list[int], message: Callable[[dict], dict]) -> dict:
    """An ARBITRARY script with its process keys and receivers moved by
    ``perm``, and each message it sends or queues mapped by ``message``."""
    out: dict = {}
    for rnd, per_proc in script.items():
        for p, actions in per_proc.items():
            actions = dict(actions)
            if "sends" in actions:
                actions["sends"] = [[perm[q], message(m)] for q, m in actions["sends"]]
            state = actions.get("state")
            if isinstance(state, dict) and "to_send" in state:
                actions["state"] = {**state, "to_send": [message(m) for m in state["to_send"]]}
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
        out["script"] = mapped_script(out["script"], perm, lambda m: relabelled_message(m, perm))
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


def payload_places(cfg: ScenarioConfig) -> list[dict]:
    """Every object of the config that names a payload: its broadcasts and
    each message its ARBITRARY script sends or queues."""
    data = cfg.to_dict()
    places = list(data["broadcasts"])
    for per_proc in data["strategy"].get("script", {}).values():
        for actions in per_proc.values():
            places += [m for _q, m in actions.get("sends", [])]
            state = actions.get("state")
            if isinstance(state, dict):
                places += state.get("to_send", [])
    return [place for place in places if place.keys() & {"payload", "payload_hex"}]


def renaming(cfg: ScenarioConfig, seed: str) -> dict[bytes, bytes]:
    """A seeded bijection from the payloads the config names onto fresh
    names that sort in another order, when it names more than one."""
    payloads = sorted({decode_payload(place) for place in payload_places(cfg)})
    order = list(range(len(payloads)))
    random.Random(seed).shuffle(order)
    if order == sorted(order):
        order = order[1:] + order[:1]
    return {payload: f"renamed-{i:04d}".encode() for payload, i in zip(payloads, order)}


def renamed_payload(place: dict, names: dict[bytes, bytes]) -> dict:
    if not place.keys() & {"payload", "payload_hex"}:
        return place
    kept = {k: v for k, v in place.items() if k not in ("payload", "payload_hex")}
    return {**kept, **encode_payload(names[decode_payload(place)])}


def renamed(cfg: ScenarioConfig, names: dict[bytes, bytes]) -> ScenarioConfig:
    data = cfg.to_dict()
    data["broadcasts"] = [renamed_payload(b, names) for b in data["broadcasts"]]
    if "script" in data["strategy"]:
        data["strategy"] = {**data["strategy"], "script": mapped_script(
            data["strategy"]["script"], list(range(cfg.n)), lambda m: renamed_payload(m, names))}
    return ScenarioConfig.from_dict(data)


class Outcome(NamedTuple):
    """A run's (round, process, source, payload) deliveries, counted, and
    each property's verdict by the checker and by the monitor."""

    delivered: Counter
    verdicts: dict[str, str]
    monitored: dict[str, str]


def outcome(cfg: ScenarioConfig) -> Outcome:
    trace = run(cfg)
    delivered = Counter((r, p, source, payload)
                        for _i, r, by, source, payload in delivered_instances(trace.events)
                        for p in by)
    schedule = cfg.resolved_schedule()
    reports = run_property_checks(trace, schedule, cfg.delta_b, cfg.delta_c, cfg.variant,
                                  ALL_PROPERTIES)
    return Outcome(delivered, {report.property: report.verdict for report in reports},
                   monitor_verdicts(trace, schedule, cfg.delta_b, cfg.delta_c, cfg.variant))


def differences(before: Outcome, after: Outcome, expected: Counter) -> list[str]:
    """What of ``after`` is not ``before`` under a relation: its deliveries
    against ``expected``, the deliveries of ``before`` mapped, and its
    checker and monitor verdicts against the checker's verdicts of
    ``before``, which the monitor of ``before`` must give too."""
    out = [] if after.delivered == expected else ["deliveries"]
    for name, verdicts in (("monitor before", before.monitored), ("checker", after.verdicts),
                           ("monitor", after.monitored)):
        if verdicts != before.verdicts:
            out.append(f"{name} verdicts {before.verdicts} became {verdicts}")
    return out


def breaks(cells: list[tuple[str, Callable[[], ScenarioConfig]]]) -> list[tuple[str, list[int], str]]:
    """Each cell whose relabelled run is not its run relabelled, with the
    permutation and what differs."""
    out = []
    for name, build in cells:
        cfg = build()
        perm = permutation(cfg.n, name)
        before = outcome(cfg)
        expected = Counter({(r, perm[p], perm[source], payload): count
                            for (r, p, source, payload), count in before.delivered.items()})
        out += [(name, perm, what) for what in differences(before, outcome(relabelled(cfg, perm)),
                                                          expected)]
    return out


def renaming_breaks(cells: list[tuple[str, Callable[[], ScenarioConfig]]]
                    ) -> list[tuple[str, dict[bytes, bytes], str]]:
    """Each cell whose renamed run is not its run renamed, with the renaming
    and what differs."""
    out = []
    for name, build in cells:
        cfg = build()
        names = renaming(cfg, name)
        before = outcome(cfg)
        expected = Counter({(r, p, source, names[payload]): count
                            for (r, p, source, payload), count in before.delivered.items()})
        out += [(name, names, what) for what in differences(before, outcome(renamed(cfg, names)),
                                                           expected)]
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


@pytest.mark.parametrize("pool", POOLS)
def test_a_renamed_config_runs_the_renamed_run(pool):
    assert renaming_breaks(POOLS[pool]) == []


def test_the_renaming_reaches_every_place_a_config_names_a_payload():
    """On the forged-birth scripts, the renaming reorders the payloads
    wherever there are two or more (most scripts), moves every broadcast
    and every scripted message that names a payload, and names none of the
    old ones; a second renaming with the inverse map gives the config back."""
    several = 0
    for seed in range(20):
        cfg = forged_birth_config(seed, 6, 1)
        names = renaming(cfg, str(seed))
        if len(names) > 1:
            several += 1
            assert sorted(names) != sorted(names, key=names.__getitem__)
        moved = renamed(cfg, names)
        assert {decode_payload(place) for place in payload_places(moved)} == set(names.values())
        assert len(payload_places(moved)) == len(payload_places(cfg))
        assert renamed(moved, {new: old for old, new in names.items()}) == cfg
    assert several >= 10


def test_a_renaming_that_breaks_the_symmetry_is_caught():
    """A forged-birth script whose forged votes name a broadcast's payload
    that the renaming does not move with it (the broadcasts renamed, the
    script left as it was) no longer runs the renamed run, and the checker
    and the monitor both see a CONSISTENCY violation the original lacks:
    the relation has the power to see a break."""
    cfg = forged_birth_config(7, 6, 1)
    names = renaming(cfg, "split")
    moved = renamed(cfg, names)
    unmoved = ScenarioConfig.from_dict({**moved.to_dict(), "strategy": cfg.strategy})
    before = outcome(cfg)
    expected = Counter({(r, p, source, names[payload]): count
                        for (r, p, source, payload), count in before.delivered.items()})
    assert differences(before, outcome(moved), expected) == []
    broken = outcome(unmoved)
    assert broken.delivered != expected
    assert broken.verdicts["CONSISTENCY"] == broken.monitored["CONSISTENCY"] == "VIOLATED"
    assert before.verdicts["CONSISTENCY"] == "SATISFIED"


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
    delivered = outcome(cfg).delivered
    moved = relabelled(cfg, perm)
    unmoved = ScenarioConfig.from_dict({**moved.to_dict(), "strategy": cfg.strategy})
    expected = Counter({(r, perm[p], perm[source], payload): count
                        for (r, p, source, payload), count in delivered.items()})
    assert outcome(moved).delivered == expected
    assert outcome(unmoved).delivered != expected
