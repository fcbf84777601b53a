"""Byte-level golden pins.

The sha256 of every bundled config's trace and of its property report, of
both traces of every demo kind at its default parameters, and of the
``mbbc sweep --n-range 4:12`` CSV of every variant. A refactor that changes a
single byte of this evidence fails here, where comparing a run with itself
(``test_criterion_10_determinism``) cannot notice.

Re-derive a pin only with a change that alters the trace format on purpose,
and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from mbbc import cli
from conftest import random_walk_schedule
from mbbc.checker import ALL_PROPERTIES, MBBC_PROPERTIES, reports_to_json, run_property_checks
from mbbc.engine import Trace, run
from mbbc.protocol import VariantTag
from mbbc.scenario import ScenarioConfig
from mbbc.sweeps import attack_scenario

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# config file -> (sha256 of the `mbbc run` trace, sha256 of its MBBC_PROPERTIES report)
TRACE_PINS = {
    "alternating_below_bound_n5.json": (
        "5aab3f3704b55415e6cd3126cde12093c4a10e84d5503c581b7278959a93f968",
        "e603344b06023e53107a40e2530d5f0b3f1527f8ce9937142b5103d392f5db75"),
    "bfa_double_cure.json": (
        "f2bc5990ce337a14bae647cdee3c54d3a51f595872b0e4c3b530107f0bf29e1d",
        "3ced0737e474e2cc2ed9d126f7a5b4ac24fe9dac5bd878184bb1604a8b980c7c"),
    "correct_source.json": (
        "1a4712718cecab38af6c6d3b17af453b6b1285257e27b7717a191d3d63d67d93",
        "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d"),
    "faulty_source_all_deliver.json": (
        "7c954a09d839d04546b10ad95f5959d0148808d12cfb3030afd3bb6c57a798fa",
        "c7b87f2c205e4a621edaaac842c72fdcfa621cb302679eb09989fe15c192e49b"),
    "faulty_source_none_deliver.json": (
        "44369a9b6918d2b2d9c7576a3544d2cb942b282afcfc088c6847637351d77d13",
        "705fdd46e505e921c31ab97f6710aacf3d404dd3136228e25f5300c32264159a"),
    "nfa_alternating_n7.json": (
        "302587fea2bfd3900c064cbb9ada64401f76da81059681101af31560539db470",
        "20a6f2a93a9c0d65fcb12efeee656ff702fe016982d47a567969ac7dc7f66c8f"),
}

# demo kind -> (sha256 of the -a.jsonl trace, sha256 of the -b.jsonl trace)
DEMO_PINS = {
    "SOURCE_FLIP": (
        "36a191936432540aa6643cef3cb72a66f54ca83b631346c5c89622d760aada31",
        "2e3606d71d7c0aa57b38e64e0afdea54303ea235c372723a52c0fa709df27eae"),
    "THEOREM_3": (
        "36a191936432540aa6643cef3cb72a66f54ca83b631346c5c89622d760aada31",
        "2e3606d71d7c0aa57b38e64e0afdea54303ea235c372723a52c0fa709df27eae"),
    "THEOREM_4": (
        "a2dc7ad686875394abd0086bd8515d4166fd819b0daba151a5516c8ea658116a",
        "e7c9c7972ea160e6c19c02c0c14657567af6d5dff67cfa98b3911baede448bb4"),
    "WIPE_FLIP": (
        "a2dc7ad686875394abd0086bd8515d4166fd819b0daba151a5516c8ea658116a",
        "e7c9c7972ea160e6c19c02c0c14657567af6d5dff67cfa98b3911baede448bb4"),
}

# variant -> sha256 of the `mbbc sweep --n-range 4:12` CSV
SWEEP_PINS = {
    "BFA_WEAK": "1be9715f326234a37af6813bcc4bbd9f8bf6826e10bba445f5ca90aa29023caf",
    "FFA_FULL": "442d130d26f6d7be1605b6b05e386a05f427c70a1b691365a57cad2faa0039f3",
    "NFA_WEAK": "0f5bf0e19beadc974556579c4173d4ff9db89fbadc69440ac58987b9d60001f3",
}

# shape -> sha256 of its ALL_PROPERTIES report; the shapes are built by `shape_config`
REPORT_PINS = {
    "bfa_weak_roundrobin": "3a0fd9fc45a312578ca45c436dba84e2411e4d416c87baef204e1f384752e2b5",
    "bfa_weak_walk": "9cf76d4d5a529dc00fc3636ac8e1d4de68474a76ee38d67f23430267a0d4bcb6",
    "ffa_full_walk": "65e4ebef130ac80e5937c222ac2b2f4a94d27676523340a3a21cf1fd3b41245a",
    "nfa_weak_alternating_f2": "91fce9726eed7dddffbc66239dcedca05db64b5e0ddddc47aa82e28411d62612",
    "nfa_weak_roundrobin": "c16a27463d816e87a0840e7a54d2a9dc5f03bb9092ec9fb6ceb0a656ba525982",
    "nfa_weak_walk": "7505775449f5622a7c53bbfbaaca0b39dcfe637a76159e73987f270fa95ee26f",
}


def shape_config(name: str) -> ScenarioConfig:
    """Longer scenarios than the bundled configs: re-delivery in every round,
    repeated cures, random agent walks and an f=2 attack below the bound, so
    every checker has work to do."""
    if name == "nfa_weak_alternating_f2":
        return attack_scenario(VariantTag.NFA_WEAK, 12, 2, 2, "alternating")
    variant, oracle, n, horizon, walk = {
        "nfa_weak_roundrobin": ("NFA_WEAK", "NFA", 7, 40, False),
        "bfa_weak_roundrobin": ("BFA_WEAK", "BFA", 6, 30, False),
        "nfa_weak_walk": ("NFA_WEAK", "NFA", 7, 30, True),
        "bfa_weak_walk": ("BFA_WEAK", "BFA", 6, 30, True),
        "ffa_full_walk": ("FFA_FULL", "FFA", 6, 24, True),
    }[name]
    rng = random.Random(name)
    offset = rng.randrange(n)
    rounds = range(4, horizon - 6, 3)
    if walk:
        schedule = {"trajectories": random_walk_schedule(rng, n, 1, horizon)}
        sources = [rng.randrange(n) for _ in rounds]
    else:
        schedule = {"generator": "roundrobin", "params": {"offset": offset}}
        sources = [(offset + b + 1 + (5 * i) % (n - 2)) % n for i, b in enumerate(rounds)]
    return ScenarioConfig.from_dict({
        "n": n, "f": 1, "delta_s": 1, "delta_b": 2, "delta_c": 1, "horizon": horizon,
        "seed": rng.randrange(1000),
        "setting": {"timing": "SYNC", "mobility": "S-MOB+", "oracle": oracle},
        "variant": variant,
        "schedule": schedule,
        "broadcasts": [{"source": s, "round": b, "payload": f"m{i}"}
                       for i, (s, b) in enumerate(zip(sources, rounds))],
        "strategy": {"kind": "CRASH_SILENT"},
    })


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_digests(name: str, tmp_path: Path) -> tuple[str, str]:
    out = tmp_path / "trace.jsonl"
    assert cli.main(["run", "--config", str(CONFIG_DIR / name), "--out", str(out)]) == 0
    data = out.read_bytes()
    trace = Trace.from_jsonl(data.decode("utf-8"))
    config = trace.scenario()
    reports = run_property_checks(trace, config.resolved_schedule(), config.delta_b,
                                  config.delta_c, config.variant, MBBC_PROPERTIES)
    return _sha256(data), _sha256(reports_to_json(reports).encode("utf-8"))


def demo_digests(kind: str, tmp_path: Path) -> tuple[str, str]:
    prefix = tmp_path / kind.lower()
    code = cli.main(["demo", "--kind", kind, "--out", str(tmp_path / "report.json"),
                     "--trace-out", str(prefix)])
    assert code == 0
    return tuple(_sha256(Path(f"{prefix}-{side}.jsonl").read_bytes()) for side in ("a", "b"))


def report_digest(name: str) -> str:
    config = shape_config(name)
    trace = run(config)
    reports = run_property_checks(trace, config.resolved_schedule(), config.delta_b,
                                  config.delta_c, config.variant, ALL_PROPERTIES)
    return _sha256(reports_to_json(reports).encode("utf-8"))


def sweep_digest(variant: str, tmp_path: Path) -> str:
    out = tmp_path / f"{variant}.csv"
    assert cli.main(["sweep", "--variant", variant, "--n-range", "4:12", "--out", str(out)]) == 0
    return _sha256(out.read_bytes())


def test_pins_cover_every_config_demo_and_variant():
    assert set(TRACE_PINS) == {p.name for p in CONFIG_DIR.glob("*.json")}
    assert set(DEMO_PINS) == {"THEOREM_3", "THEOREM_4", "SOURCE_FLIP", "WIPE_FLIP"}
    assert set(SWEEP_PINS) == {"FFA_FULL", "BFA_WEAK", "NFA_WEAK"}
    assert len(REPORT_PINS) == 6


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_bundled_config_trace_and_report_pinned(name, tmp_path):
    assert config_digests(name, tmp_path) == TRACE_PINS[name]


@pytest.mark.parametrize("kind", sorted(DEMO_PINS))
def test_demo_traces_pinned(kind, tmp_path):
    assert demo_digests(kind, tmp_path) == DEMO_PINS[kind]


@pytest.mark.parametrize("variant", sorted(SWEEP_PINS))
def test_sweep_csv_pinned(variant, tmp_path):
    assert sweep_digest(variant, tmp_path) == SWEEP_PINS[variant]


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_shape_report_pinned(name):
    assert report_digest(name) == REPORT_PINS[name]
