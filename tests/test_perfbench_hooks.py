"""The benchmark's traced pass patches names of the package by string; a
refactor that drops one fails here, not only under ``perfbench/tests``.

``perfbench/run.py`` imports ``mbbc`` afresh while it measures set-up, and
``tracing.traced`` then patches the fresh modules. So every ``mbbc`` name
used here, the config run included, is resolved from ``sys.modules`` at call
time: a config built by an older ``mbbc.scenario`` would carry an older
``VariantTag``, which the fresh protocol does not know.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from conftest import golden_correct_source

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def mbbc(name: str):
    """The module ``mbbc.<name>`` as imported now."""
    return importlib.import_module(f"mbbc.{name}")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_patches_every_hook_and_restores_it():
    tracing = load_tracing()
    engine, protocol = mbbc("engine"), mbbc("protocol")
    config = mbbc("scenario").ScenarioConfig.from_dict(golden_correct_source().to_dict())
    with tracing.traced(tracing.Recorder()) as rec:
        engine.run(config)
    assert rec.calls["engine.step"] == config.horizon
    assert rec.calls["protocol.on_p2p_deliver"] > 0
    assert engine.on_p2p_deliver is protocol.on_p2p_deliver
    assert engine.compute_phase is protocol.compute_phase


def test_traced_demo_times_both_projections():
    """``checker.projection_s`` is the span around ``demos.projection_jsonl``:
    a ``run_demo`` that stopped calling it by that name would read 0 there."""
    tracing = load_tracing()
    with tracing.traced(tracing.Recorder()) as rec:
        mbbc("demos").run_demo("SOURCE_FLIP")
    assert rec.calls["checker.projection"] == 2
