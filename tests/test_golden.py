"""Byte-level golden pins.

The sha256 of every bundled config's trace and of its property report, of
both traces of every demo kind at its default parameters, and of the
``mbbc sweep --n-range 4:12`` CSV of every variant. A refactor that changes a
single byte of this evidence fails here, where comparing a run with itself
(``test_criterion_10_determinism``) cannot notice.

Two families of pins survive a change of trace layout: each trace rendered
in the per-envelope layout (``per_envelope_jsonl``) still hashes to the
digest the engine's bytes had when it wrote that layout, and each report with
its witness indices replaced by the cited events (``WITNESS_PINS``) stays
put while the indices move.

Re-derive a pin only with a change that alters the trace format on purpose,
and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from mbbc import cli
from conftest import random_walk_schedule
from mbbc.checker import ALL_PROPERTIES, MBBC_PROPERTIES, reports_to_json, run_property_checks
from mbbc.engine import (
    KIND_P2P_SEND,
    PHASE_ADVERSARY,
    PHASE_ORACLE,
    TO_ALL,
    Trace,
    deliveries,
    run,
)
from mbbc.messages import ProtocolMessage
from mbbc.protocol import VariantTag
from mbbc.scenario import ScenarioConfig
from mbbc.sweeps import attack_scenario

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# config file -> (sha256 of the `mbbc run` trace, sha256 of its MBBC_PROPERTIES report)
TRACE_PINS = {
    "alternating_below_bound_n5.json": (
        "2b7962fc7ce1e64ca1981bcf82707206f32ab11ee654371d17dacb46433a9b81",
        "e603344b06023e53107a40e2530d5f0b3f1527f8ce9937142b5103d392f5db75"),
    "bfa_double_cure.json": (
        "be6a26e4886086e6b99602f78d4f8022653cfe2cbfbc6925f2b9fa51d3a15fb7",
        "11f826fa79275739ae3d2cff97d2168574590c064af9832d70d782d0353c1734"),
    "correct_source.json": (
        "25832ec344b285c039a76f4a2358cc5114313d3d69082fbbb3999538617556f5",
        "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d"),
    "faulty_source_all_deliver.json": (
        "d39e5af92fd1e95fd752de128365d0d0be2a49ab4ac24fc7a21a73cc615e92d4",
        "c7b87f2c205e4a621edaaac842c72fdcfa621cb302679eb09989fe15c192e49b"),
    "faulty_source_none_deliver.json": (
        "b640d9ffdbeea1ea55478d7b216437767e588a0fd9094051419fa14533270a65",
        "705fdd46e505e921c31ab97f6710aacf3d404dd3136228e25f5300c32264159a"),
    "nfa_alternating_n7.json": (
        "febc6c8844f5b6964e5253dc2adc8fcfbd7d0b176fdb880626ec2b3bdedf5f80",
        "ea82678ba6cdc9feab576cb9378cb87fbbb4e4545fe2be3e87c097ad6d6183bd"),
}

# demo kind -> (sha256 of the -a.jsonl trace, sha256 of the -b.jsonl trace)
DEMO_PINS = {
    "SOURCE_FLIP": (
        "0142f772a4da0decdde1ddc3434a11a8d7a8b74d889a41009271becd65fa2213",
        "73599bebc5c6a4d2ccaf3d65869b6fd4dce9178b871b80553ed0e98bb0868690"),
    "THEOREM_3": (
        "0142f772a4da0decdde1ddc3434a11a8d7a8b74d889a41009271becd65fa2213",
        "73599bebc5c6a4d2ccaf3d65869b6fd4dce9178b871b80553ed0e98bb0868690"),
    "THEOREM_4": (
        "b8ea55eb27f14b753cebf812da509a0798a55677aec32940d9ab6b80c41f03cb",
        "d6418b8d6dc8b7176112238a0c0457b4b8d4ea599c6ef7776b3e57c464e9185b"),
    "WIPE_FLIP": (
        "b8ea55eb27f14b753cebf812da509a0798a55677aec32940d9ab6b80c41f03cb",
        "d6418b8d6dc8b7176112238a0c0457b4b8d4ea599c6ef7776b3e57c464e9185b"),
}

# config file -> sha256 of its `mbbc run` trace rendered by `per_envelope_jsonl`:
# the digests of the bytes the engine wrote in the per-envelope layout
PER_ENVELOPE_TRACE_PINS = {
    "alternating_below_bound_n5.json": "76d013a164a047f4069eede8153aeb7a9c98cd7362579cd3ee1d581ad060d9c6",
    "bfa_double_cure.json": "86d84272eeb614cddbdc5c63d5086c79e5b0a6a6e5094863b9d5bc80d9c9ec91",
    "correct_source.json": "b917898543967900e8208577e641edf86e703d09e0e6a873f6246b4a3374981c",
    "faulty_source_all_deliver.json": "a22f0347572f6a432654d185a9b347d6710255cdd7de0f2e71ffe8adecd92003",
    "faulty_source_none_deliver.json": "fcc3d0dae264ebee1fedf4b745e9b6ef4401f3e59b2fcb1e7ce86b6a6f8871e1",
    "nfa_alternating_n7.json": "5cd2aff26bde26c39fa5ec4f7cf795136c2eb90750d957e3d3d2e50125e2467a",
}

# demo kind -> sha256 of its two traces rendered by `per_envelope_jsonl`
PER_ENVELOPE_DEMO_PINS = {
    "SOURCE_FLIP": (
        "c26f665466db9a792735eb93304354248196cd4dd1a5751cdc42ec4c0318bea1",
        "4a4487d32806570555b757b553b541e3019bec8a16301d1e6bcb0eb99e08323e"),
    "THEOREM_3": (
        "c26f665466db9a792735eb93304354248196cd4dd1a5751cdc42ec4c0318bea1",
        "4a4487d32806570555b757b553b541e3019bec8a16301d1e6bcb0eb99e08323e"),
    "THEOREM_4": (
        "6d316b5c53694dcf95ef1a30b986502bc73b1d8d64f8b4e5abcb3ed459aa6601",
        "291d8dcd1c33fef0162458ebe76d3f0930b2ba216ee9e4a1e491ce1c6c816777"),
    "WIPE_FLIP": (
        "6d316b5c53694dcf95ef1a30b986502bc73b1d8d64f8b4e5abcb3ed459aa6601",
        "291d8dcd1c33fef0162458ebe76d3f0930b2ba216ee9e4a1e491ce1c6c816777"),
}

# variant -> sha256 of the `mbbc sweep --n-range 4:12` CSV
SWEEP_PINS = {
    "BFA_WEAK": "1be9715f326234a37af6813bcc4bbd9f8bf6826e10bba445f5ca90aa29023caf",
    "FFA_FULL": "442d130d26f6d7be1605b6b05e386a05f427c70a1b691365a57cad2faa0039f3",
    "NFA_WEAK": "0f5bf0e19beadc974556579c4173d4ff9db89fbadc69440ac58987b9d60001f3",
}

# shape -> sha256 of its ALL_PROPERTIES report; the shapes are built by `shape_config`
REPORT_PINS = {
    "bfa_weak_roundrobin": "7b0967aa1827ad9c020993e602c3e374397cb0b27ceac5113b8e3b1e1e24a019",
    "bfa_weak_walk": "b7da2ab4fde08873edcd55b756c493952e3e49f50e12a7da3744a64289e817cd",
    "ffa_full_walk": "dd05de0657006a0d8b4ca5563629be1566cfa09d9b1d0ac998480539be98ce2b",
    "nfa_weak_alternating_f2": "9e80202c3b0ed2b3d83f899550a2d4ce1870ad230e5d9c9067f0497b452c57b2",
    "nfa_weak_roundrobin": "a740e62fce06a3d2eff0194bbd7a721aa530f0e4a61a2fda67206a6744a3e9b7",
    "nfa_weak_walk": "7d421e2fa0185ecfe75072a7c9970a1385ccf7701ba126b21227d60364a45a00",
}


# config file or shape -> sha256 of its report with every witness index
# replaced by the event it cites. Event indices shift when the trace layout
# changes; the cited events and the verdicts must not.
WITNESS_PINS = {
    "alternating_below_bound_n5.json": "53c0d4e0a75644b2b9ccf7544adf78b85a4d54cf77dc510c5eac7d772d7c6a58",
    "bfa_double_cure.json": "9ffec28f58cb14174b8ba913b18247e2858ee104f485bd25b63c2125510a6e5d",
    "bfa_weak_roundrobin": "1565e77f0dd0f402dde974ec7695213e7cfa080bbe88022a977ed73cc1713cb0",
    "bfa_weak_walk": "00d9bef35111d9479b493ef55d574d27918bd6c2c846098bd38e6fe1f4decd94",
    "correct_source.json": "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d",
    "faulty_source_all_deliver.json": "c7b87f2c205e4a621edaaac842c72fdcfa621cb302679eb09989fe15c192e49b",
    "faulty_source_none_deliver.json": "705fdd46e505e921c31ab97f6710aacf3d404dd3136228e25f5300c32264159a",
    "ffa_full_walk": "7cf094838d5861363b32f0c41481482361d29031c4d0cfa0f1a7ffaf03deafc1",
    "nfa_alternating_n7.json": "f94d5e04da6b62f45bd565a2f0b0428be0d1465fd15805e130d43dc8821c29e7",
    "nfa_weak_alternating_f2": "af830b6e07055455092fe6ef34fc6f1cd8575ceae2b4305d4f052611d7763607",
    "nfa_weak_roundrobin": "1d5856d0f29190f87111717cd67deec7e0a0f6859e9624f2771ca6673cae78df",
    "nfa_weak_walk": "72d97e350dc9bc05788af564a639243b6b64a170d9b239f743c4f5484fa09a96",
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


def per_envelope_jsonl(trace: Trace) -> str:
    """The trace in the per-envelope layout: a header without ``format``, and in
    each round one P2P_SEND per (sender, receiver, message) ordered by
    (sender, receiver, message), then one P2P_DELIVER per receipt in the
    engine's RECEIVE order, between the ORACLE and the COMPUTE events."""
    def line(round_, phase, kind, subject, detail) -> str:
        return json.dumps({"round": round_, "phase": phase, "kind": kind, "subject": subject,
                           "detail": detail}, sort_keys=True, separators=(",", ":"))

    n = trace.config["n"]
    rounds: dict[int, tuple[list, list, list]] = {}
    for ev in trace.events:
        before, sends, after = rounds.setdefault(ev.round, ([], [], []))
        if ev.kind == KIND_P2P_SEND:
            message = ev.detail["message"]
            order = ProtocolMessage.from_dict(message).sort_key()
            to = range(n) if ev.detail["to"] == TO_ALL else ev.detail["to"]
            sends.extend(((ev.subject, q, order), line(ev.round, ev.phase, ev.kind, ev.subject,
                                                       {"receiver": q, "message": message}))
                         for q in to)
        else:
            (before if ev.phase in (PHASE_ADVERSARY, PHASE_ORACLE) else after).append(
                line(ev.round, ev.phase, ev.kind, ev.subject, ev.detail))
    receipts: dict[int, list[str]] = {}
    for d in deliveries(trace):
        receipts.setdefault(d.round, []).append(line(
            d.round, "RECEIVE", "P2P_DELIVER", d.receiver, {"sender": d.sender, "message": d.message}))
    header = {"fingerprint": trace.fingerprint, "seed": trace.seed, "config": trace.config}
    out = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for r in sorted(rounds):
        before, sends, after = rounds[r]
        out += before
        out += [text for _key, text in sorted(sends, key=lambda entry: entry[0])]
        out += receipts.get(r, [])
        out += after
    return "\n".join(out) + "\n"


def witness_digest(trace: Trace, reports) -> str:
    docs = []
    for report in reports:
        doc = report.to_dict()
        doc["witness"] = [trace.events[i].to_dict() for i in report.witness]
        docs.append(doc)
    return _sha256(json.dumps(docs, indent=2, sort_keys=True).encode("utf-8"))


def config_evidence(name: str, tmp_path: Path):
    """The bytes `mbbc run` writes for a bundled config, the parsed trace and its reports."""
    out = tmp_path / "trace.jsonl"
    assert cli.main(["run", "--config", str(CONFIG_DIR / name), "--out", str(out)]) == 0
    data = out.read_bytes()
    trace = Trace.from_jsonl(data.decode("utf-8"))
    config = trace.scenario()
    reports = run_property_checks(trace, config.resolved_schedule(), config.delta_b,
                                  config.delta_c, config.variant, MBBC_PROPERTIES)
    return data, trace, reports


def config_digests(name: str, tmp_path: Path) -> tuple[str, str]:
    data, _trace, reports = config_evidence(name, tmp_path)
    return _sha256(data), _sha256(reports_to_json(reports).encode("utf-8"))


def demo_traces(kind: str, tmp_path: Path) -> list[bytes]:
    """The bytes of the two traces `mbbc demo --trace-out` writes."""
    prefix = tmp_path / kind.lower()
    code = cli.main(["demo", "--kind", kind, "--out", str(tmp_path / "report.json"),
                     "--trace-out", str(prefix)])
    assert code == 0
    return [Path(f"{prefix}-{side}.jsonl").read_bytes() for side in ("a", "b")]


def demo_digests(kind: str, tmp_path: Path) -> tuple[str, str]:
    return tuple(_sha256(data) for data in demo_traces(kind, tmp_path))


def per_envelope_digest(data: bytes) -> str:
    return _sha256(per_envelope_jsonl(Trace.from_jsonl(data.decode("utf-8"))).encode("utf-8"))


def shape_evidence(name: str):
    config = shape_config(name)
    trace = run(config)
    reports = run_property_checks(trace, config.resolved_schedule(), config.delta_b,
                                  config.delta_c, config.variant, ALL_PROPERTIES)
    return trace, reports


def report_digest(name: str) -> str:
    _trace, reports = shape_evidence(name)
    return _sha256(reports_to_json(reports).encode("utf-8"))


def witness_pin(name: str, tmp_path: Path) -> str:
    if name in TRACE_PINS:
        _data, trace, reports = config_evidence(name, tmp_path)
    else:
        trace, reports = shape_evidence(name)
    return witness_digest(trace, reports)


def sweep_digest(variant: str, tmp_path: Path) -> str:
    out = tmp_path / f"{variant}.csv"
    assert cli.main(["sweep", "--variant", variant, "--n-range", "4:12", "--out", str(out)]) == 0
    return _sha256(out.read_bytes())


def test_pins_cover_every_config_demo_and_variant():
    assert set(TRACE_PINS) == {p.name for p in CONFIG_DIR.glob("*.json")}
    assert set(DEMO_PINS) == {"THEOREM_3", "THEOREM_4", "SOURCE_FLIP", "WIPE_FLIP"}
    assert set(SWEEP_PINS) == {"FFA_FULL", "BFA_WEAK", "NFA_WEAK"}
    assert len(REPORT_PINS) == 6
    assert set(WITNESS_PINS) == set(TRACE_PINS) | set(REPORT_PINS)
    assert set(PER_ENVELOPE_TRACE_PINS) == set(TRACE_PINS)
    assert set(PER_ENVELOPE_DEMO_PINS) == set(DEMO_PINS)


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_bundled_config_trace_and_report_pinned(name, tmp_path):
    assert config_digests(name, tmp_path) == TRACE_PINS[name]


@pytest.mark.parametrize("name", sorted(PER_ENVELOPE_TRACE_PINS))
def test_bundled_config_trace_expands_to_its_per_envelope_pin(name, tmp_path):
    data, _trace, _reports = config_evidence(name, tmp_path)
    assert per_envelope_digest(data) == PER_ENVELOPE_TRACE_PINS[name]


@pytest.mark.parametrize("kind", sorted(DEMO_PINS))
def test_demo_traces_pinned(kind, tmp_path):
    assert demo_digests(kind, tmp_path) == DEMO_PINS[kind]


@pytest.mark.parametrize("kind", sorted(PER_ENVELOPE_DEMO_PINS))
def test_demo_traces_expand_to_their_per_envelope_pins(kind, tmp_path):
    digests = tuple(per_envelope_digest(data) for data in demo_traces(kind, tmp_path))
    assert digests == PER_ENVELOPE_DEMO_PINS[kind]


@pytest.mark.parametrize("variant", sorted(SWEEP_PINS))
def test_sweep_csv_pinned(variant, tmp_path):
    assert sweep_digest(variant, tmp_path) == SWEEP_PINS[variant]


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_shape_report_pinned(name):
    assert report_digest(name) == REPORT_PINS[name]


@pytest.mark.parametrize("name", sorted(WITNESS_PINS))
def test_witnessed_report_pinned(name, tmp_path):
    assert witness_pin(name, tmp_path) == WITNESS_PINS[name]
