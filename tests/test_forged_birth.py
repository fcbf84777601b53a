"""FFA_FULL against possessed processes that forge a broadcast's own
(source, payload) at other births (``conftest.forged_birth_config``).

FFA_FULL delivers an instance in its due round, birth+3, or on the cure of a
stay that had begun by then, and nothing but that gate decides it. A
(source, payload) goes through the gate with its earliest READY birth, so
the one route on which both branches could pass for it is an earliest birth
that moves between rounds. These scripts reach that route: some correct
folds hold READY quorums for one (source, payload) at several births. One
above the bound, no promised property is violated on them.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import forged_birth_config
from mbbc import engine
from mbbc.checker import AGREEMENT, INTEGRITY, NO_DUPLICATION, VALIDITY, VIOLATED, run_property_checks
from mbbc.protocol import Tallies, Variant

# What FFA_FULL promises one above its bound n > 5f.
PROMISED = (VALIDITY, NO_DUPLICATION, INTEGRITY, AGREEMENT)
SEEDS = range(300)


def several_births(tallies: Tallies, F: int) -> bool:
    """Whether a (source, payload) holds READY quorums, not aborted, at
    more than one birth in this fold."""
    births = Counter((source, payload) for (source, birth, payload), voters in tallies.readys.items()
                     if len(voters) > 2 * F and len(tallies.aborts.get((source, birth, payload), ())) <= F)
    return any(count > 1 for count in births.values())


@pytest.mark.parametrize(("n", "f"), [(6, 1), (11, 2)])
def test_no_promised_property_is_violated_on_the_forged_birth_pool(n, f, monkeypatch):
    reached = 0
    compute_phase = engine.compute_phase

    def counted(state, tallies, variant: Variant, n):
        nonlocal reached
        reached += several_births(tallies, variant.effective_f)
        return compute_phase(state, tallies, variant, n)

    # The engine's calls are its correct classes; a faithful possessed
    # compute calls the protocol's own.
    monkeypatch.setattr(engine, "compute_phase", counted)
    violations = []
    for seed in SEEDS:
        config = forged_birth_config(seed, n, f)
        trace = engine.run(config)
        reports = run_property_checks(trace, config.resolved_schedule(), config.delta_b,
                                      config.delta_c, config.variant, PROMISED)
        violations += [(seed, r.property) for r in reports if r.verdict == VIOLATED]
    assert violations == []
    assert reached >= 100
