"""Resilience sweeps: run bundled attacks over (n, f) grids and tabulate verdicts.

The bundled attacks are the two adversary families the analysis says matter:

* ``alternating`` — two disjoint f-sets flip agents so that every round has f
  spurious senders and f silenced processes; phase-aligned to the broadcast so
  that it works for any residency. This is the attack that makes the
  SATISFIED/VIOLATED frontier land exactly at the solvability bound.
* ``split`` — a faulty source sends its SEND (and its own topping-up ECHO) to
  a preset-count subset, then the agent hops onto one abort-generator for the
  delivery round. With the bundled count this resolves to the no-deliveries
  outcome everywhere; explicit targets reproduce the all-deliver outcome.

Rows come out as (n, f, strategy, property, verdict, witness_round), ordered
deterministically regardless of execution order. A sweep skips the cells that
have no attack to run: ``f >= n``, and ``n < 2f+1`` for ``alternating``.
"""

from __future__ import annotations

import csv
import io
import logging

from .checker import MBBC_PROPERTIES, run_property_checks
from .engine import run
from .protocol import VariantTag
from .scenario import VARIANT_ORACLE, Broadcast, InvalidScenario, ScenarioConfig

logger = logging.getLogger("mbbc.sweeps")

BUNDLED_STRATEGIES = ("alternating", "split")


def split_target_count(n: int, f: int) -> int:
    """Bundled preset for how many processes the split source serves."""
    return max(0, (n - f) // 2 - f)


def attack_scenario(variant: VariantTag, n: int, f: int, delta_s: int, strategy: str,
                    seed: int = 0) -> ScenarioConfig:
    """One sweep cell: a full scenario for the given attack at the given sizes."""
    if delta_s < 1:
        # Every attack stays delta_s rounds on a host and times its broadcast by it.
        raise InvalidScenario([f"delta_s={delta_s} must be >= 1 (sub-round residency is not "
                               "executable)"])
    payload = b"sweep-payload"
    base = {
        "n": n, "f": f, "delta_s": delta_s, "delta_b": 2, "delta_c": 1,
        "seed": seed,
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": VARIANT_ORACLE[variant].value},
        "variant": variant.value,
    }
    if strategy == "alternating":
        if n < 2 * f + 1:
            raise InvalidScenario([f"alternating attack needs n >= 2f+1, got n={n}, f={f}"])
        p1 = list(range(n - 2 * f, n - f))
        p2 = list(range(n - f, n))
        birth = delta_s
        base.update({
            "horizon": birth + 4 + 2 * delta_s,
            "schedule": {"generator": "alternating", "params": {"p1": p1, "p2": p2, "start": 2}},
            "broadcasts": [Broadcast(0, birth, payload).to_dict()],
            "strategy": {"kind": "ALTERNATING_SETS", "p1": p1, "p2": p2},
        })
    elif strategy == "split":
        if delta_s > 3:
            raise InvalidScenario(["split attack is wired for delta_s <= 3 (the agent must hop "
                                   "onto an abort generator in the delivery round)"])
        count = split_target_count(n, f)
        targets = list(range(1, 1 + min(count, n - 2)))
        if f == 0:
            trajectories = []
        else:
            trajectories = [
                {"agent_id": 0, "segments": [
                    {"host": 0, "first_round": 1, "last_round": 3},
                    {"host": n - 1, "first_round": 4, "last_round": None},
                ]},
                *[{"agent_id": i, "segments": []} for i in range(1, f)],
            ]
        base.update({
            "horizon": 8 + 2 * delta_s,
            "schedule": {"trajectories": trajectories},
            "broadcasts": [Broadcast(0, 1, payload).to_dict()],
            "strategy": {"kind": "SPLIT_SEND", "targets": targets},
        })
    else:
        raise InvalidScenario([f"unknown bundled strategy: {strategy!r}"])
    return ScenarioConfig.from_dict(base)


def run_sweep(variant: VariantTag, n_values: list[int], f_values: list[int], delta_s: int = 1,
              strategies: tuple[str, ...] = BUNDLED_STRATEGIES) -> list[dict]:
    rows = []
    for n in sorted(n_values):
        for f in sorted(f_values):
            if f >= n:
                continue
            for strategy in strategies:
                if strategy == "alternating" and n < 2 * f + 1:
                    logger.info("skipping alternating cell n=%d f=%d: the attack needs n >= 2f+1",
                                n, f)
                    continue
                cfg = attack_scenario(variant, n, f, delta_s, strategy)
                trace = run(cfg)
                reports = run_property_checks(
                    trace, cfg.resolved_schedule(), cfg.delta_b, cfg.delta_c, variant, MBBC_PROPERTIES)
                for report in reports:
                    witness_round = ""
                    if report.witness:
                        witness_round = min(trace.events[i].round for i in report.witness)
                    rows.append({
                        "n": n, "f": f, "strategy": strategy,
                        "property": report.property.lower(), "verdict": report.verdict,
                        "witness_round": witness_round,
                    })
    rows.sort(key=lambda r: (r["n"], r["f"], r["strategy"], r["property"]))
    logger.info("sweep produced %d rows", len(rows))
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["n", "f", "strategy", "property", "verdict", "witness_round"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()

