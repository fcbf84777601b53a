"""The checker against the monitor of ``monitor.py``: the same verdict for
every property on every input below.

The inputs:
- the bundled configs, each also checked at delta_c 2 and 3 and at
  delta_b 1 and 3;
- every ``conftest.SHAPES`` config;
- the ARBITRARY scripts of ``conftest.arbitrary_config``, seeds 0-199;
- the forged-birth scripts of ``conftest.forged_birth_config`` at n=6 and
  f=1, seeds 0-99;
- every cell of the ``frontier_sweep`` benchmark's grid, run at every
  horizon from its broadcast round up to its own, less the cuts whose
  config ``validate`` refuses;
- both histories of both demo kinds, and each adapter choice's output on
  each, under ``ONE_SHOT_PROPERTIES``;
- the hand-built traces of ``conftest.HAND_BUILT``.

Together they reach every property VIOLATED, and VALIDITY, AGREEMENT and
TOTALITY UNRESOLVED too, so no verdict is compared only where both sides
say SATISFIED.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from conftest import (
    HAND_BUILT,
    SHAPES,
    arbitrary_config,
    bfa_double_cure_scenario,
    forged_birth_config,
    hand_built,
    shape_config,
)
from mbbc.checker import (
    AGREEMENT,
    ALL_PROPERTIES,
    ONE_SHOT_PROPERTIES,
    TOTALITY,
    UNRESOLVED,
    VALIDITY,
    VIOLATED,
    run_property_checks,
)
from mbbc.demos import adapter_choices, adapter_output, run_demo
from mbbc.engine import Trace, run
from mbbc.model import FailureSchedule
from mbbc.protocol import VariantTag
from mbbc.scenario import InvalidScenario, ScenarioConfig
from mbbc.sweeps import attack_scenario
from monitor import Monitor, monitor_verdicts

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# The ``frontier_sweep`` benchmark's grid: each variant and bundled attack,
# f of 1 and 2, n from 2f+1 to 6f+2, and delta_s of 1 and 2.
FRONTIER_GRID = [(variant, n, f, delta_s, strategy)
                 for variant in VariantTag for strategy in ("alternating", "split")
                 for f in (1, 2) for n in range(2 * f + 1, 6 * f + 3) for delta_s in (1, 2)]

Case = tuple[str, dict[str, str], dict[str, str]]


def compare(case: str, trace: Trace, schedule: FailureSchedule, delta_b: int, delta_c: int,
            variant: VariantTag, properties: tuple[str, ...] = ALL_PROPERTIES) -> Case:
    """The case, the checker's verdicts on ``properties`` and the monitor's."""
    reports = run_property_checks(trace, schedule, delta_b, delta_c, variant, properties)
    monitor = monitor_verdicts(trace, schedule, delta_b, delta_c, variant)
    return case, {r.property: r.verdict for r in reports}, {p: monitor[p] for p in properties}


def compare_config(case: str, config: ScenarioConfig, trace: Trace | None = None) -> Case:
    trace = run(config) if trace is None else trace
    return compare(case, trace, config.resolved_schedule(), config.delta_b, config.delta_c,
                   config.variant)


def bundled() -> list[Case]:
    out = []
    for path in CONFIGS:
        config = ScenarioConfig.from_json(path.read_text())
        trace, schedule = run(config), config.resolved_schedule()
        for delta_b, delta_c in ((config.delta_b, config.delta_c), (config.delta_b, 2),
                                 (config.delta_b, 3), (1, config.delta_c), (3, config.delta_c)):
            out.append(compare(f"{path.stem} delta_b={delta_b} delta_c={delta_c}", trace,
                               schedule, delta_b, delta_c, config.variant))
    return out


def frontier_cuts() -> list[Case]:
    out = []
    for variant, n, f, delta_s, strategy in FRONTIER_GRID:
        config = attack_scenario(variant, n, f, delta_s, strategy)
        for horizon in range(config.broadcasts[0].round, config.horizon + 1):
            cut = config.with_overrides(horizon=horizon)
            try:
                cut.validate()
            except InvalidScenario:
                continue
            out.append(compare_config(f"{variant.value} n={n} f={f} delta_s={delta_s} "
                                      f"{strategy} horizon={horizon}", cut))
    return out


def demos() -> list[Case]:
    out = []
    for kind in ("SOURCE_FLIP", "WIPE_FLIP"):
        result = run_demo(kind, {})
        histories = ((result.config_first, result.trace_first),
                     (result.config_second, result.trace_second))
        for side, (config, trace) in zip("ab", histories):
            out.append(compare_config(f"{kind}-{side}", config, trace))
            for choice, keep in adapter_choices(kind, result.config_first).items():
                out.append(compare(f"{kind}-{side} {choice}", adapter_output(trace, keep),
                                   config.resolved_schedule(), config.delta_b, config.delta_c,
                                   config.variant, ONE_SHOT_PROPERTIES))
    return out


FAMILIES = {
    "bundled": bundled,
    "shapes": lambda: [compare_config(name, shape_config(name)) for name in SHAPES],
    "arbitrary": lambda: [compare_config(f"arbitrary-{seed}", arbitrary_config(seed))
                          for seed in range(200)],
    "forged_birth": lambda: [compare_config(f"forged-birth-{seed}", forged_birth_config(seed, 6, 1))
                             for seed in range(100)],
    "frontier_cuts": frontier_cuts,
    "demos": demos,
    "hand_built": lambda: [compare_config(name, *hand_built(name)) for name in HAND_BUILT],
}


@cache
def compared(family: str) -> tuple[Case, ...]:
    """Each case of ``family`` with the checker's and the monitor's verdicts,
    computed once per test run."""
    return tuple(FAMILIES[family]())


@pytest.mark.parametrize("family", FAMILIES)
def test_the_monitor_gives_the_checkers_verdicts(family):
    differing = [case for case in compared(family) if case[1] != case[2]]
    assert not differing, differing[:5]


def test_the_inputs_reach_every_violation_and_the_unresolved_obligations():
    tally = Counter((prop, verdict) for family in FAMILIES for _case, verdicts, _monitor
                    in compared(family) for prop, verdict in verdicts.items())
    assert all(tally[prop, VIOLATED] for prop in ALL_PROPERTIES), tally
    assert all(tally[prop, UNRESOLVED] for prop in (VALIDITY, AGREEMENT, TOTALITY)), tally


def test_the_monitor_state_is_immutable_values():
    """Every field of the monitor is a hashable value, and a step replaces
    fields rather than changing them, so a state kept before a step can
    key a table after it."""
    config = bfa_double_cure_scenario()
    schedule = config.resolved_schedule()
    monitor = Monitor(config.n, config.f, config.horizon, config.delta_b, config.delta_c,
                      config.variant)
    kept = []
    for r in range(1, config.horizon + 1):
        kept.append((tuple(vars(monitor).values()), hash(tuple(vars(monitor).values()))))
        delivered = [(p, 0, b"count") for p in schedule.correct_set(r)] if r >= 4 else []
        monitor.step(r, schedule.faulty_set(r), [(0, b"count")] if r == 1 else [], delivered)
    assert all(hash(state) == digest for state, digest in kept)
    assert len({state for state, _digest in kept}) == config.horizon
