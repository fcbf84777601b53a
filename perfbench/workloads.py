"""The four benchmark workloads: seeded inputs, the user's path through the
public API, and the paper's bounds each outcome must meet.

Every input is generated from the run's seed and nothing else. An input goes
through the same calls a user makes: ``ScenarioConfig.from_dict`` (or
``sweeps.attack_scenario`` / ``demos.run_demo``) -> ``engine.run`` ->
``Trace.to_jsonl`` -> ``Trace.from_jsonl`` -> ``checker.run_property_checks``.

The ``mbbc`` modules are imported inside the functions, not at the top: the
set-up measurement re-imports the package, and these functions must use the
modules it left in ``sys.modules``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

VIOLATED = "VIOLATED"
VARIANTS = ("FFA_FULL", "BFA_WEAK", "NFA_WEAK")
STRATEGIES = ("alternating", "split")


@dataclass(frozen=True)
class Outcome:
    """What one scenario leaves behind: its JSONL trace texts and its verdicts."""

    texts: list[str]
    verdicts: dict[str, Any]


@dataclass(frozen=True)
class Workload:
    name: str
    # batches(rng, tiny) yields lists of inputs forever. The timed loop only
    # stops between batches, so every run holds the same mix of inputs.
    batches: Callable[[random.Random, bool], Iterator[list]]
    prepare: Callable[[Any], None]
    run: Callable[[Any], Outcome]
    check: Callable[[Any, Outcome], list[str]]
    warmup: Callable[[random.Random], list]


def _evidence(config) -> Outcome:
    """run -> to_jsonl -> from_jsonl -> property checks, as `mbbc run` + `mbbc check` do."""
    from mbbc import checker, engine

    trace = engine.run(config)
    text = trace.to_jsonl()
    del trace  # `mbbc check` starts from the file, not from the engine's objects
    parsed = engine.Trace.from_jsonl(text)
    scenario = parsed.scenario()
    reports = checker.run_property_checks(
        parsed, scenario.resolved_schedule(), scenario.delta_b, scenario.delta_c, scenario.variant)
    return Outcome([text], {r.property: r.verdict for r in reports})


def _prepare_config(config) -> None:
    config.validate()
    config.resolved_schedule()


# --- fanout and weak_redelivery: roundrobin CRASH_SILENT configs -------------

def _crash_config(rng: random.Random, n: int, f: int, horizon: int, rounds: tuple[int, ...],
                  variant: str, oracle: str) -> dict:
    """A roundrobin CRASH_SILENT config with one seeded broadcast per round in ``rounds``.

    With delta_s = 1 and no skip list, agent i sits on process
    (offset + i + r - 1) mod n in round r, so whether a process is faulty in a
    round depends only on its distance from ``offset``. The seed picks the
    offset and the payloads; each source sits at a fixed distance from the
    offset. Every seed is then the same scenario up to relabelling and asks
    for the same work: the checker's scans stop at the same places. Each
    distance keeps the source correct in its broadcast round and the next
    (delta_b = 2), so no broadcast is dropped or vacuous.
    """
    offset = rng.randrange(n)
    broadcasts = [{"source": (offset + b + f + (7 * i) % (n - f - 1)) % n, "round": b,
                   "payload": f"m{rng.randrange(16 ** 6):06x}"}
                  for i, b in enumerate(rounds)]
    return {
        "n": n, "f": f, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": horizon,
        "seed": rng.randrange(10 ** 6),
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": oracle},
        "variant": variant,
        "schedule": {"generator": "roundrobin", "params": {"offset": offset}},
        "broadcasts": broadcasts,
        "strategy": {"kind": "CRASH_SILENT"},
    }


def _fanout_batches(rng: random.Random, tiny: bool) -> Iterator[list]:
    # FFA_FULL with n > 5f: the full-oracle variant's guarantees all apply.
    n, f, horizon, rounds = (8, 1, 8, (1, 2)) if tiny else (32, 6, 20, (1, 2, 3, 4, 5))
    while True:
        yield [_crash_config(rng, n, f, horizon, rounds, "FFA_FULL", "FFA")]


def _weak_batches(rng: random.Random, tiny: bool) -> Iterator[list]:
    # NFA_WEAK with n > 6f re-delivers every round from birth+3 on. Births in
    # the second half of the horizon give about 5k deliveries per scenario.
    if tiny:
        horizon, rounds = 16, (2, 4, 6)
    else:
        horizon, rounds = 100, tuple(38 + 2 * i for i in range(30))
    while True:
        yield [_crash_config(rng, 7, 1, horizon, rounds, "NFA_WEAK", "NFA")]


def _run_config(data: dict) -> Outcome:
    from mbbc.scenario import ScenarioConfig

    return _evidence(ScenarioConfig.from_dict(data))


def _prepare_config_dict(data: dict) -> None:
    from mbbc.scenario import ScenarioConfig

    _prepare_config(ScenarioConfig.from_dict(data))


def _violated(outcome: Outcome, properties) -> list[str]:
    return [f"{p} is VIOLATED" for p in properties if outcome.verdicts.get(p) == VIOLATED]


def _check_fanout(data: dict, outcome: Outcome) -> list[str]:
    return _violated(outcome, outcome.verdicts)


def _check_weak(data: dict, outcome: Outcome) -> list[str]:
    problems = _violated(outcome, ("VALIDITY", "INTEGRITY", "AGREEMENT", "DELIVERY_COUNT_LAW"))
    if outcome.verdicts.get("NO_DUPLICATION") != VIOLATED:
        problems.append("NO_DUPLICATION is not VIOLATED although NFA_WEAK re-delivers")
    return problems


# --- frontier_sweep: the bundled attacks over the (variant, n, f, delta_s) grid

def _grid(f_values: tuple[int, ...], delta_s_values: tuple[int, ...]) -> list[tuple]:
    # n starts at 2f+1: `sweeps.attack_scenario` rejects the alternating attack
    # below it instead of skipping the cell.
    return [(variant, n, f, delta_s, strategy)
            for variant in VARIANTS for strategy in STRATEGIES for f in f_values
            for n in range(2 * f + 1, 6 * f + 3) for delta_s in delta_s_values]


def _sweep_batches(rng: random.Random, tiny: bool) -> Iterator[list]:
    grid = _grid((1,), (1,)) if tiny else _grid((1, 2), (1, 2))
    seed = rng.randrange(10 ** 6)
    while True:
        cells = list(grid)
        rng.shuffle(cells)
        yield [(*cell, seed) for cell in cells]


def _sweep_warmup(rng: random.Random) -> list:
    # n = 6f+3 lies outside the timed grid, so no timed schedule is cached.
    seed = rng.randrange(10 ** 6)
    return [(variant, 9, 1, 1, strategy, seed) for variant in VARIANTS for strategy in STRATEGIES]


def _cell_config(cell: tuple):
    from mbbc import sweeps
    from mbbc.protocol import VariantTag

    variant, n, f, delta_s, strategy, seed = cell
    return sweeps.attack_scenario(VariantTag(variant), n, f, delta_s, strategy, seed=seed)


def _check_cell(cell: tuple, outcome: Outcome) -> list[str]:
    variant, n, f, _delta_s, strategy, _seed = cell
    problems = _violated(outcome, ("AGREEMENT", "INTEGRITY"))
    if strategy == "alternating":
        bound = 6 * f if variant == "NFA_WEAK" else 5 * f
        if (outcome.verdicts.get("VALIDITY") == VIOLATED) != (n <= bound):
            problems.append(f"VALIDITY is {outcome.verdicts.get('VALIDITY')} at n={n}, "
                            f"f={f}, but the bound puts the frontier at n > {bound}")
    return problems


# --- forged_pairs: the two impossibility demos, scaled up ---------------------

def _demo_batches(rng: random.Random, tiny: bool) -> Iterator[list]:
    n = 6 if tiny else 16
    scale = {"n": n} if tiny else {"n": n, "horizon": 30}
    while True:
        source, target = rng.sample(range(n), 2)
        seed = rng.randrange(10 ** 6)
        yield [
            ("SOURCE_FLIP", {**scale, "source": source, "seed": seed,
                             "m1": f"a{rng.randrange(16 ** 6):06x}",
                             "m2": f"b{rng.randrange(16 ** 6):06x}"}),
            ("WIPE_FLIP", {**scale, "source": source, "target": target, "seed": seed,
                           "m": f"w{rng.randrange(16 ** 6):06x}"}),
        ]


def _prepare_pair(item: tuple) -> None:
    from mbbc import adversary

    for config in adversary.generate_paired_histories(*item):
        _prepare_config(config)


def _run_pair(item: tuple) -> Outcome:
    """`mbbc demo --trace-out`: run the pair and serialise both traces."""
    from mbbc import demos

    result = demos.run_demo(*item)
    return Outcome([result.trace_first.to_jsonl(), result.trace_second.to_jsonl()],
                   {"holds": result.holds, "projections_identical": result.projections_identical})


def _check_pair(item: tuple, outcome: Outcome) -> list[str]:
    return [f"{key} is false" for key in ("holds", "projections_identical")
            if outcome.verdicts.get(key) is not True]


def _tiny_batch(batches: Callable[[random.Random, bool], Iterator[list]]) -> Callable:
    return lambda rng: next(batches(rng, True))


WORKLOADS = {w.name: w for w in (
    Workload(
        "fanout",
        _fanout_batches, _prepare_config_dict, _run_config, _check_fanout,
        _tiny_batch(_fanout_batches)),
    Workload(
        "weak_redelivery",
        _weak_batches, _prepare_config_dict, _run_config, _check_weak,
        _tiny_batch(_weak_batches)),
    Workload(
        "frontier_sweep",
        _sweep_batches, lambda cell: _prepare_config(_cell_config(cell)),
        lambda cell: _evidence(_cell_config(cell)), _check_cell, _sweep_warmup),
    Workload(
        "forged_pairs",
        _demo_batches, _prepare_pair, _run_pair, _check_pair,
        _tiny_batch(_demo_batches)),
)}
