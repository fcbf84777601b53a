"""Byte-level golden pins.

The sha256 of every bundled config's trace and of its property report, of
both traces of every demo kind at its default parameters, and of the
``mbbc sweep --n-range 4:12`` CSV of every variant. A refactor that changes a
single byte of this evidence fails here, where comparing a run with itself
(``test_criterion_10_determinism``) cannot notice.

Three families of pins survive a change of trace layout: each trace
rendered in the per-envelope layout (``per_envelope_jsonl``) still hashes to
the digest the engine's bytes had when it wrote that layout, each report with
its witness indices replaced by the cited events (``WITNESS_PINS``) stays
put while the indices move, and what the permanently correct processes
observe (``PROJECTION_PINS``) is read per (sender, message) whatever the
layout.

Re-derive a pin only with a change that alters the trace format on purpose,
and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from mbbc import cli
from conftest import SHAPES, shape_config
from mbbc.checker import (
    ALL_PROPERTIES,
    MBBC_PROPERTIES,
    projection_jsonl,
    reports_to_json,
    run_property_checks,
)
from mbbc.engine import (
    KIND_P2P_SEND,
    PHASE_ADVERSARY,
    PHASE_ORACLE,
    PHASE_SEND,
    TO_ALL,
    Trace,
    deliveries,
    round_sends,
    run,
)
from mbbc.messages import ProtocolMessage

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# config file -> (sha256 of the `mbbc run` trace, sha256 of its MBBC_PROPERTIES report)
TRACE_PINS = {
    "alternating_below_bound_n5.json": (
        "588765c711cb2198b00c44d07240efb11d84f8c8bd6f7fd2714a3dd7b122956a",
        "e603344b06023e53107a40e2530d5f0b3f1527f8ce9937142b5103d392f5db75"),
    "bfa_double_cure.json": (
        "ff2b02bb20913f74aee0a2247c1d62d1aca27fa32dd6563695eedcece65a2999",
        "a8fa944e376c2539232199db114866ebf91dcf0da5f528124a6a899a992c078a"),
    "correct_source.json": (
        "e9fc4b0be2e555da755736d09e8992919db3212ebf95ec76876706f9c2f13d1e",
        "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d"),
    "faulty_source_all_deliver.json": (
        "c3e0a15f9fadc118f9fb194c27b4602ffe6df726b972b3950a5fda7449749769",
        "c7b87f2c205e4a621edaaac842c72fdcfa621cb302679eb09989fe15c192e49b"),
    "faulty_source_none_deliver.json": (
        "cb4639ade6db677998c8fba91b60e440cd144118cec274ec277821ec3585836a",
        "705fdd46e505e921c31ab97f6710aacf3d404dd3136228e25f5300c32264159a"),
    "nfa_alternating_n7.json": (
        "9cf5a9eb474941e220d3be6a2a348eb1beb579857315b25efe1a0db5dda438e6",
        "3ce3cbb80d34bd150872992d6b62b22f7e32776e2253eb7484e1840ff91d3840"),
}

# demo kind -> (sha256 of the -a.jsonl trace, sha256 of the -b.jsonl trace)
DEMO_PINS = {
    "SOURCE_FLIP": (
        "9ea155f5ed0888744ec4690ea1c93fce401082f1982159d089b8514c6e7702f3",
        "1c4b06bbf7799976bdc69707dc2b51b0db28da35908ab2c7a27a480094c06994"),
    "THEOREM_3": (
        "9ea155f5ed0888744ec4690ea1c93fce401082f1982159d089b8514c6e7702f3",
        "1c4b06bbf7799976bdc69707dc2b51b0db28da35908ab2c7a27a480094c06994"),
    "THEOREM_4": (
        "9707f3233858bf0953026456da2859ed5f981cac68cf87f81abf734759363020",
        "667e14b10d84643391e6008ab6c3980e5eb359ccce94b38593fb51f37f0a81bd"),
    "WIPE_FLIP": (
        "9707f3233858bf0953026456da2859ed5f981cac68cf87f81abf734759363020",
        "667e14b10d84643391e6008ab6c3980e5eb359ccce94b38593fb51f37f0a81bd"),
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

# config file -> sha256 of `projection_jsonl` of its `mbbc run` trace; demo kind
# -> the same for its two traces. What the permanently correct processes
# observe is per (sender, message) whatever the trace's layout, so these
# pins survive a change of it.
PROJECTION_PINS = {
    "alternating_below_bound_n5.json": "ee2dad521d8679c8c84001d1eb63e4ba44b3665372f0356865dd0cf2d5788772",
    "bfa_double_cure.json": "ac51ba2b22aa161b6297ec5127a17df16b37fbfb9010a982f78b35d0b9cacc80",
    "correct_source.json": "54d4e1f730a59029e37766738cafb91dfde77d846ce1526af568cbca020399da",
    "faulty_source_all_deliver.json": "82f1092336043eaa414e28705eadfd2733a09501f836a999d1184c453923c11c",
    "faulty_source_none_deliver.json": "fd71deba851e4d699a89b27d307ff83378301263775a04e186c35a8ac3f493dd",
    "nfa_alternating_n7.json": "d1845342727d34a92083f2bde0c0d23217c9a25ce11f55dfa0185befce50d359",
    "SOURCE_FLIP": (
        "c5dda99cadaf0db0e3e26cd1da6e7cb2f814cf88040dce6819c234fd9af067cf",
        "c5dda99cadaf0db0e3e26cd1da6e7cb2f814cf88040dce6819c234fd9af067cf"),
    "THEOREM_3": (
        "c5dda99cadaf0db0e3e26cd1da6e7cb2f814cf88040dce6819c234fd9af067cf",
        "c5dda99cadaf0db0e3e26cd1da6e7cb2f814cf88040dce6819c234fd9af067cf"),
    "THEOREM_4": (
        "86b00e6443962abdda8a9044ca7a275d956eef66935899d708c08e4a11e9958b",
        "86b00e6443962abdda8a9044ca7a275d956eef66935899d708c08e4a11e9958b"),
    "WIPE_FLIP": (
        "86b00e6443962abdda8a9044ca7a275d956eef66935899d708c08e4a11e9958b",
        "86b00e6443962abdda8a9044ca7a275d956eef66935899d708c08e4a11e9958b"),
}

# variant -> sha256 of the `mbbc sweep --n-range 4:12` CSV
SWEEP_PINS = {
    "BFA_WEAK": "1be9715f326234a37af6813bcc4bbd9f8bf6826e10bba445f5ca90aa29023caf",
    "FFA_FULL": "442d130d26f6d7be1605b6b05e386a05f427c70a1b691365a57cad2faa0039f3",
    "NFA_WEAK": "0f5bf0e19beadc974556579c4173d4ff9db89fbadc69440ac58987b9d60001f3",
}

# shape -> sha256 of its ALL_PROPERTIES report; the shapes are built by `conftest.shape_config`
REPORT_PINS = {
    "bfa_weak_roundrobin": "045e458dda0e8b65dc43b311be14c57b04638e80d62c72ad0a4f1065c5840c12",
    "bfa_weak_walk": "d7a73b2858f54a99fc17936cd8d94e103e284641480fa36f7a3d45e221926d0b",
    "ffa_full_walk": "782463fd3aa19da41c3d4e6e235215d7037d055dab5eb96d3337f0bee91112a8",
    "nfa_weak_alternating_f2": "0b536c0db84341b15456d202ca63e3e85fb2944b1b2827642b8d040ba04b34ea",
    "nfa_weak_roundrobin": "06db5bb1ec241bdffe7541ad9f6226ed3b633f88ebbe54449320ea10c8207023",
    "nfa_weak_walk": "b9c8a09d31a6328c4acb5bdb07ebddc3a128ad2994c98eeb20efe2be83cafc63",
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
        before, _sends, after = rounds.setdefault(ev.round, ([], [], []))
        if ev.kind != KIND_P2P_SEND:
            (before if ev.phase in (PHASE_ADVERSARY, PHASE_ORACLE) else after).append(
                line(ev.round, ev.phase, ev.kind, ev.subject, ev.detail))
    for r, outbox in round_sends(trace.events).items():
        for sender, message, to in outbox:
            order = ProtocolMessage.from_dict(message).sort_key()
            rounds[r][1].extend(((sender, q, order), line(r, PHASE_SEND, KIND_P2P_SEND, sender,
                                                          {"receiver": q, "message": message}))
                                for q in (range(n) if to == TO_ALL else to))
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


def projection_digest(data: bytes) -> str:
    trace = Trace.from_jsonl(data.decode("utf-8"))
    return _sha256(projection_jsonl(trace, trace.scenario().resolved_schedule()).encode("utf-8"))


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
    assert set(REPORT_PINS) == set(SHAPES)
    assert set(WITNESS_PINS) == set(TRACE_PINS) | set(REPORT_PINS)
    assert set(PER_ENVELOPE_TRACE_PINS) == set(TRACE_PINS)
    assert set(PER_ENVELOPE_DEMO_PINS) == set(DEMO_PINS)
    assert set(PROJECTION_PINS) == set(TRACE_PINS) | set(DEMO_PINS)


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


@pytest.mark.parametrize("name", sorted(PROJECTION_PINS))
def test_projection_pinned(name, tmp_path):
    if name in TRACE_PINS:
        data, _trace, _reports = config_evidence(name, tmp_path)
        assert projection_digest(data) == PROJECTION_PINS[name]
    else:
        digests = tuple(projection_digest(data) for data in demo_traces(name, tmp_path))
        assert digests == PROJECTION_PINS[name]


@pytest.mark.parametrize("variant", sorted(SWEEP_PINS))
def test_sweep_csv_pinned(variant, tmp_path):
    assert sweep_digest(variant, tmp_path) == SWEEP_PINS[variant]


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_shape_report_pinned(name):
    assert report_digest(name) == REPORT_PINS[name]


@pytest.mark.parametrize("name", sorted(WITNESS_PINS))
def test_witnessed_report_pinned(name, tmp_path):
    assert witness_pin(name, tmp_path) == WITNESS_PINS[name]
