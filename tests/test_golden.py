"""Byte-level golden pins.

The sha256 of every bundled config's trace and of its property report, of
both traces of every demo kind at its default parameters, and of the
``mbbc sweep --n-range 4:12`` CSV of every variant. A refactor that changes a
single byte of this evidence fails here, where comparing a run with itself
(``test_criterion_10_determinism``) cannot notice.

Pins that survive a change of trace layout: each trace rendered in the
per-envelope layout (``per_envelope_jsonl``, one DELIVER_CALL per process)
still hashes to the digest the engine's bytes had when it wrote that layout,
and what the permanently correct processes observe, rendered one send per
(sender, message) (``expanded_projection_jsonl``), still hashes to the
digest the projection had before it grouped its sends (``PROJECTION_PINS``);
``GROUPED_PROJECTION_PINS`` pin the grouped bytes themselves. Each report
with its witness indices replaced by the cited events (``WITNESS_PINS``)
stays put while only the indices move; it moves with the cited events, as
when a DELIVER_CALL came to list its processes and, with ``mbbc-trace/7``,
its instances. These three renders put back the phase each line held before
``mbbc-trace/5``, read from its kind (``conftest.KIND_PHASE``), and the
per-envelope one also puts back each round's AGENT_MOVE and CURED lines,
which traces held before ``mbbc-trace/6``, from the header's schedule,
expands each grouped fan-out and DELIVER_CALL of ``mbbc-trace/7`` into one
event per message and per instance, and puts back each STATE_CORRUPTED that
``mbbc-trace/8`` omits while a possessed process's digest holds
(``conftest.previous_layout_events``). Each render reads the parsed
trace, whose citations of ``mbbc-trace/10`` are resolved, so none depends
on which value a line writes in full.

Re-derive a pin only with a change that alters the trace format on purpose,
and say so where the change is recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

import pytest

from mbbc import cli
from conftest import KIND_PHASE, SHAPES, previous_layout_events, shape_config
from mbbc.checker import (
    ALL_PROPERTIES,
    MBBC_PROPERTIES,
    projection_jsonl,
    reports_to_json,
    run_property_checks,
)
from mbbc.engine import (
    KIND_DELIVER_CALL,
    KIND_P2P_SEND,
    TO_ALL,
    Trace,
    TraceEvent,
    deliveries,
    round_sends,
    run,
)
from mbbc.messages import ProtocolMessage

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# config file -> (sha256 of the `mbbc run` trace, sha256 of its MBBC_PROPERTIES report)
TRACE_PINS = {
    "alternating_below_bound_n5.json": (
        "53a68cd6ca72d02257b6d49a83f184295c92d6b0448baf5964ecc8e12bb01ee6",
        "e603344b06023e53107a40e2530d5f0b3f1527f8ce9937142b5103d392f5db75"),
    "bfa_double_cure.json": (
        "4a292b358866b68fe84dfc85fe8ae457b5d021eefa97749c1140a4f1971d549c",
        "b565b1d7e2424a7619b181547bb51a6506f398ba7375d5cdec60f5d24028885e"),
    "bfa_forged_birth.json": (
        "a51e196aa125851a243366fbcd97e2c31bb9236acf58d5f5a0713703d6db5caf",
        "65c184fda9bfb54bb94dc1116421732dc3dc1db5654f0c24e9259231ebcd5cd9"),
    "correct_source.json": (
        "9b82ca934331cf789f23cf5c074bcdab8f8bf8bbefdbd6611a57a1f20e5568ed",
        "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d"),
    "faulty_source_all_deliver.json": (
        "e082694ae4cd398306331a3c4ab82a4a444459596b43bc8077a9ecbdfec9018f",
        "c7b87f2c205e4a621edaaac842c72fdcfa621cb302679eb09989fe15c192e49b"),
    "faulty_source_none_deliver.json": (
        "ad4007c13ee52cfc9db1a77f7244f3d67b10b83785b01827bd38e6b75b04ae0a",
        "705fdd46e505e921c31ab97f6710aacf3d404dd3136228e25f5300c32264159a"),
    "ffa_delivery_on_cure.json": (
        "48ea9374d396e686a500e4a85f04600af59622e6fa7ae44ce42e6d43e895be0f",
        "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d"),
    "nfa_alternating_n7.json": (
        "e220325a9e2f466b14c6e643ccd36b4fdb7ccae32df596921270431085e10f6f",
        "3ac542c815ed690f1f0b18b36830465ad3c364936fb2b3752eb9c6ee74facb78"),
}

# demo kind -> (sha256 of the -a.jsonl trace, sha256 of the -b.jsonl trace)
DEMO_PINS = {
    "SOURCE_FLIP": (
        "dd3d468d69c72d454cac125cdf638ae75af18d73ebad23e36b4b049c43bb75bf",
        "61c5df858f5de5d97a6c9bcbb0bb439becb8eda10be2217ae405ea223e0d8b6d"),
    "THEOREM_3": (
        "dd3d468d69c72d454cac125cdf638ae75af18d73ebad23e36b4b049c43bb75bf",
        "61c5df858f5de5d97a6c9bcbb0bb439becb8eda10be2217ae405ea223e0d8b6d"),
    "THEOREM_4": (
        "ab62d538f5969613fa17bc70ca8bd68f94737024f0f10ca624c6879c7ba84b5a",
        "db741bf2852d975151411fe6450d80140f731c951c250c936bd2dc93e60f212e"),
    "WIPE_FLIP": (
        "ab62d538f5969613fa17bc70ca8bd68f94737024f0f10ca624c6879c7ba84b5a",
        "db741bf2852d975151411fe6450d80140f731c951c250c936bd2dc93e60f212e"),
}

# config file -> sha256 of its `mbbc run` trace rendered by `per_envelope_jsonl`:
# the digests of the bytes the engine wrote in the per-envelope layout
PER_ENVELOPE_TRACE_PINS = {
    "alternating_below_bound_n5.json": "5e7c71f0c9969bbf0911b6faf61871e603a240293e8de354f1335ec00f2a68fe",
    "bfa_double_cure.json": "e9d900e357766e79f0782e430736ae333fa2ebc698b681751f21c0db67858e45",
    "bfa_forged_birth.json": "043c57799ef103356c04c6e72b3d713da3a006e90d5dc1c23ca45b6008118743",
    "correct_source.json": "3ed610e68d5968ad747ec64a574f7b1f6cfa83f5663fa583269bcc12ca3475a1",
    "faulty_source_all_deliver.json": "0f545159992357ecd49702930af7186c3ca73db4bb40b5e39d147ed4779ebee7",
    "faulty_source_none_deliver.json": "29b098b584fa0479a34d40a2a577285c2c0f9e10d35f39a20415730a968bc06c",
    "ffa_delivery_on_cure.json": "9fe00f72baf37726472ff321fc9fb872cbf01b9be257c2252ad28976e7787ab3",
    "nfa_alternating_n7.json": "06e33aa21f2c203007e7b4970f51463a4fda3bb7e02a50fc5e85fb30eba2a7d6",
}

# demo kind -> sha256 of its two traces rendered by `per_envelope_jsonl`
PER_ENVELOPE_DEMO_PINS = {
    "SOURCE_FLIP": (
        "e4271fb11a2c0f235400c970bbda5e20633525fa03ef4cecceb674b0ec4b9415",
        "662a13d7f0c4fe758fce90ab5b47fada5e656e2c0c9c65525e1ce90365001d2c"),
    "THEOREM_3": (
        "e4271fb11a2c0f235400c970bbda5e20633525fa03ef4cecceb674b0ec4b9415",
        "662a13d7f0c4fe758fce90ab5b47fada5e656e2c0c9c65525e1ce90365001d2c"),
    "THEOREM_4": (
        "370a8d8c6c4b1a2c64b01da15768a8bd454b73929841dd52c12576ba7f56785d",
        "34eb229c4eccceadbb1014aa86b4265969add559e6493991e69e176a28e98fa3"),
    "WIPE_FLIP": (
        "370a8d8c6c4b1a2c64b01da15768a8bd454b73929841dd52c12576ba7f56785d",
        "34eb229c4eccceadbb1014aa86b4265969add559e6493991e69e176a28e98fa3"),
}

# config file -> sha256 of `projection_jsonl` of its `mbbc run` trace rendered
# by `expanded_projection_jsonl`; demo kind -> the same for its two traces.
# What the permanently correct processes observe, one send per (sender,
# message), whatever the trace's layout or the projection's grouping, so
# these pins survive a change of either.
PROJECTION_PINS = {
    "alternating_below_bound_n5.json": "ee2dad521d8679c8c84001d1eb63e4ba44b3665372f0356865dd0cf2d5788772",
    "bfa_double_cure.json": "ac51ba2b22aa161b6297ec5127a17df16b37fbfb9010a982f78b35d0b9cacc80",
    "bfa_forged_birth.json": "1c903c78f30562aa5dd04396d9781404cbebf8150760c9448d14f3de4a8a5b9a",
    "correct_source.json": "54d4e1f730a59029e37766738cafb91dfde77d846ce1526af568cbca020399da",
    "faulty_source_all_deliver.json": "82f1092336043eaa414e28705eadfd2733a09501f836a999d1184c453923c11c",
    "faulty_source_none_deliver.json": "fd71deba851e4d699a89b27d307ff83378301263775a04e186c35a8ac3f493dd",
    "ffa_delivery_on_cure.json": "b725a28471bca693ea86b5eb94a955f0167195f2e0d20c25463963444e667778",
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

# config file or demo kind -> sha256 of `projection_jsonl` of its traces, as
# `PROJECTION_PINS`, but of the grouped bytes themselves
GROUPED_PROJECTION_PINS = {
    "alternating_below_bound_n5.json": "03d33d6439ea9c13714abc508af4c9ccd323cd9764bc15f29f03bf3556385ce1",
    "bfa_double_cure.json": "4d3b051a88da963d2bd35424d54c356568bdb0fc4859b9e411f98c07ea2e9fd5",
    "bfa_forged_birth.json": "d1a0c18775ddaaab4e482180cfcc7537542186b2028729986e5a620acdbc58ec",
    "correct_source.json": "7bf6fca384617aa6dd957b76d57801b50ca77e18c27908fd9fb9e18b6e54d135",
    "faulty_source_all_deliver.json": "309181f7435eed9b9a078f6b0ae1c03e4ebae1caebfa8a8711b43819ec1e0b5e",
    "faulty_source_none_deliver.json": "3e9ccb5e1c7e7ec1e9a1c01fc8151eccd9f57050eccee270f73cba35d69468c4",
    "ffa_delivery_on_cure.json": "ef17ef59d762f57cfc341dce42beabcc4f2a4afc1228c3daf419aebd3729de6f",
    "nfa_alternating_n7.json": "41447e36c321a6bf84f0cfee48149e896c742508145401c83914ccb6aee1eba2",
    "SOURCE_FLIP": (
        "276715fe07d0daaefbe625b693e29c396ec924185e816f0cd8fa2c5c7ff2a8b3",
        "276715fe07d0daaefbe625b693e29c396ec924185e816f0cd8fa2c5c7ff2a8b3"),
    "THEOREM_3": (
        "276715fe07d0daaefbe625b693e29c396ec924185e816f0cd8fa2c5c7ff2a8b3",
        "276715fe07d0daaefbe625b693e29c396ec924185e816f0cd8fa2c5c7ff2a8b3"),
    "THEOREM_4": (
        "c3637b844cbe3ddb63ac0d21b8ff8f4b420c1e855fc33e02d9822a60587eb814",
        "c3637b844cbe3ddb63ac0d21b8ff8f4b420c1e855fc33e02d9822a60587eb814"),
    "WIPE_FLIP": (
        "c3637b844cbe3ddb63ac0d21b8ff8f4b420c1e855fc33e02d9822a60587eb814",
        "c3637b844cbe3ddb63ac0d21b8ff8f4b420c1e855fc33e02d9822a60587eb814"),
}

# variant -> sha256 of the `mbbc sweep --n-range 4:12` CSV
SWEEP_PINS = {
    "BFA_WEAK": "1be9715f326234a37af6813bcc4bbd9f8bf6826e10bba445f5ca90aa29023caf",
    "FFA_FULL": "442d130d26f6d7be1605b6b05e386a05f427c70a1b691365a57cad2faa0039f3",
    "NFA_WEAK": "0f5bf0e19beadc974556579c4173d4ff9db89fbadc69440ac58987b9d60001f3",
}

# shape -> sha256 of its ALL_PROPERTIES report; the shapes are built by `conftest.shape_config`
REPORT_PINS = {
    "bfa_weak_roundrobin": "3fd2e38c4799b0cb0020c279c8fdead558f66b0f81d3072e9a7ddee90ba953c6",
    "bfa_weak_walk": "521581903eac44db0cc3acc43eaac695aae9c1af94f81d0341ca319f159c0d2b",
    "ffa_full_walk": "be2841d61d092e6812e487a38a9b8cf8c2088ff8979d9e922cffbbd28b81b572",
    "nfa_weak_alternating_f2": "edd0ded40ebed16279e68f583b5764460d27b6bf582a1d8acd141ed583c72463",
    "nfa_weak_roundrobin": "50cb60bbf4623710fd04305d7bdd03c768488c0b454db9647f309d88c0738e2e",
    "nfa_weak_walk": "15839396373304b343313acae565fa96b4b97372cc69d2f92e077a1d6736ff32",
}


# config file or shape -> sha256 of its report with every witness index
# replaced by the event it cites. Event indices shift when the trace layout
# changes; the cited events and the verdicts must not.
WITNESS_PINS = {
    "alternating_below_bound_n5.json": "53c0d4e0a75644b2b9ccf7544adf78b85a4d54cf77dc510c5eac7d772d7c6a58",
    "bfa_double_cure.json": "215be56faf39f2ac82280ca3a02c4ca19ab7973e3d96a363c48a3841e46d3ad9",
    "bfa_forged_birth.json": "65c184fda9bfb54bb94dc1116421732dc3dc1db5654f0c24e9259231ebcd5cd9",
    "bfa_weak_roundrobin": "9e6982d5a4e873bb5a8f8ffd10d5dbfc91fc2b4e08212fd94f7a57e67f247071",
    "bfa_weak_walk": "2b5a5c6154b5c29366c7253fd56a562a1477b2d2812675cca4a8a1da0eadf4a9",
    "correct_source.json": "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d",
    "faulty_source_all_deliver.json": "c7b87f2c205e4a621edaaac842c72fdcfa621cb302679eb09989fe15c192e49b",
    "faulty_source_none_deliver.json": "705fdd46e505e921c31ab97f6710aacf3d404dd3136228e25f5300c32264159a",
    "ffa_delivery_on_cure.json": "daca53e6f1498886ad6fd60f99090573446fce34e2072e151e3fa92a61f0a57d",
    "ffa_full_walk": "e1d6a32ce246cc28a4f9373e911f45eba53e982416ae371ceb2c833cced08864",
    "nfa_alternating_n7.json": "275c8036604cf97fb78f76d4a00a896c381d798cfe7b4bab22de1f8f14c9bc9c",
    "nfa_weak_alternating_f2": "af830b6e07055455092fe6ef34fc6f1cd8575ceae2b4305d4f052611d7763607",
    "nfa_weak_roundrobin": "d02a6f08415f86bccf31a9ed4007bb140068947402befa00eead883cc67e5d89",
    "nfa_weak_walk": "2658e0a34cacc03b8346e7a22ae70cf2be389d89f7f6ef17b097691d7ff0fd49",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def phased(event: dict) -> dict:
    """An event's dict with its phase, which trace lines held before
    ``mbbc-trace/5``, put back from its kind."""
    return {**event, "phase": KIND_PHASE[event["kind"]]}


def phased_line(event: dict) -> str:
    return encode(phased(event))


def per_envelope_jsonl(trace: Trace) -> str:
    """The trace in the per-envelope layout: a header of the config's
    fingerprint, its seed and the config, without ``format``, and in each
    round its agent moves and cure notices (``previous_layout_events``), then
    one P2P_SEND per (sender, receiver, message) ordered by (sender,
    receiver, message), then one P2P_DELIVER per receipt in the engine's
    RECEIVE order, then the COMPUTE events. Each DELIVER_CALL instance
    (``previous_layout_events`` lists them one per event, in (source,
    payload) order) is one event per process of its ``by``, without ``by``,
    and a round's COMPUTE events are stably ordered by subject."""
    def line(round_, kind, subject, detail) -> str:
        return phased_line({"round": round_, "kind": kind, "subject": subject, "detail": detail})

    n = trace.config["n"]
    rounds: dict[int, tuple[list, list, list]] = {}
    for ev in previous_layout_events(trace):
        before, _sends, after = rounds.setdefault(ev.round, ([], [], []))
        if ev.kind == KIND_DELIVER_CALL:
            detail = {k: v for k, v in ev.detail.items() if k != "by"}
            after.extend((p, line(ev.round, ev.kind, p, detail)) for p in ev.detail["by"])
        elif ev.kind != KIND_P2P_SEND:
            text = line(ev.round, ev.kind, ev.subject, ev.detail)
            if KIND_PHASE[ev.kind] in ("ADVERSARY", "ORACLE"):
                before.append(text)
            else:
                after.append((ev.subject, text))
    for r, outbox in round_sends(trace.events).items():
        for sender, message, to in outbox:
            order = ProtocolMessage.from_dict(message).sort_key()
            rounds[r][1].extend(((sender, q, order), line(r, KIND_P2P_SEND, sender,
                                                          {"receiver": q, "message": message}))
                                for q in (range(n) if to == TO_ALL else to))
    receipts: dict[int, list[str]] = {}
    for d in deliveries(trace):
        receipts.setdefault(d.round, []).append(encode({
            "round": d.round, "phase": "RECEIVE", "kind": "P2P_DELIVER", "subject": d.receiver,
            "detail": {"sender": d.sender, "message": d.message}}))
    header = {"fingerprint": trace.scenario().fingerprint(), "seed": trace.config["seed"],
              "config": trace.config}
    out = [encode(header)]
    for r in sorted(rounds):
        before, sends, after = rounds[r]
        out += before
        out += [text for _key, text in sorted(sends, key=lambda entry: entry[0])]
        out += receipts.get(r, [])
        out += [text for _subject, text in sorted(after, key=lambda entry: entry[0])]
    return "\n".join(out) + "\n"


def expanded_projection_jsonl(text: str) -> str:
    """A projection's JSONL with each grouped send expanded into one P2P_SEND
    per sender of its ``from``, with that sender as subject and the detail
    without ``from``. A round's sends, ordered by sender and then message
    order (``ProtocolMessage.sort_key``) as ``round_sends`` orders a trace's,
    stand at its first send; every other line is kept as it is. Each line
    gets back its phase."""
    events = [json.loads(text_line) for text_line in text.splitlines()]
    sends = round_sends(TraceEvent(**ev) for ev in events)
    out = []
    for ev in events:
        if ev["kind"] != KIND_P2P_SEND:
            out.append(phased_line(ev))
            continue
        outbox = sends.pop(ev["round"], [])
        outbox.sort(key=lambda send: (send[0], ProtocolMessage.from_dict(send[1]).sort_key()))
        out += [phased_line({"round": ev["round"], "kind": KIND_P2P_SEND, "subject": sender,
                             "detail": {"message": message, "to": to}})
                for sender, message, to in outbox]
    return "\n".join(out)


def projection_texts(data: bytes) -> str:
    trace = Trace.from_jsonl(data.decode("utf-8"))
    return projection_jsonl(trace, trace.scenario().resolved_schedule())


def projection_digest(data: bytes) -> str:
    return _sha256(expanded_projection_jsonl(projection_texts(data)).encode("utf-8"))


def grouped_projection_digest(data: bytes) -> str:
    return _sha256(projection_texts(data).encode("utf-8"))


def witness_digest(trace: Trace, reports) -> str:
    docs = []
    for report in reports:
        doc = report.to_dict()
        doc["witness"] = [phased(trace.events[i].to_dict()) for i in report.witness]
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
    assert set(GROUPED_PROJECTION_PINS) == set(PROJECTION_PINS)


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_bundled_config_trace_and_report_pinned(name, tmp_path):
    assert config_digests(name, tmp_path) == TRACE_PINS[name]


def test_delivery_on_cure_satisfies_every_property(tmp_path):
    """FFA_FULL, n=6, f=1: EQUIVOCATE_HISTORY holds process 3 in rounds 3-5
    and runs its compute faithfully, so it delivers the round-1 broadcast
    in the due round 4 while possessed, which is not traced. On its cure in
    round 6 the gate owes it the delivery, as its stay began by round 4;
    no state field records the possessed delivery, so nothing the agent
    left suppresses it, and every property holds (this trace once violated
    VALIDITY, AGREEMENT and TOTALITY)."""
    _data, trace, _reports = config_evidence("ffa_delivery_on_cure.json", tmp_path)
    config = trace.scenario()
    reports = run_property_checks(trace, config.resolved_schedule(), config.delta_b,
                                  config.delta_c, config.variant, ALL_PROPERTIES)
    assert {r.property: r.verdict for r in reports} == dict.fromkeys(ALL_PROPERTIES, "SATISFIED")
    assert [(ev.round, ev.detail["by"]) for ev in trace.events
            if ev.kind == KIND_DELIVER_CALL] == [(4, [0, 1, 2, 4, 5]), (6, [3])]


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


def projection_pin(name: str, digest: Callable[[bytes], str], tmp_path: Path):
    if name in TRACE_PINS:
        data, _trace, _reports = config_evidence(name, tmp_path)
        return digest(data)
    return tuple(digest(data) for data in demo_traces(name, tmp_path))


@pytest.mark.parametrize("name", sorted(PROJECTION_PINS))
def test_projection_pinned(name, tmp_path):
    assert projection_pin(name, projection_digest, tmp_path) == PROJECTION_PINS[name]


@pytest.mark.parametrize("name", sorted(GROUPED_PROJECTION_PINS))
def test_grouped_projection_pinned(name, tmp_path):
    assert projection_pin(name, grouped_projection_digest, tmp_path) == GROUPED_PROJECTION_PINS[name]


@pytest.mark.parametrize("variant", sorted(SWEEP_PINS))
def test_sweep_csv_pinned(variant, tmp_path):
    assert sweep_digest(variant, tmp_path) == SWEEP_PINS[variant]


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_shape_report_pinned(name):
    assert report_digest(name) == REPORT_PINS[name]


@pytest.mark.parametrize("name", sorted(WITNESS_PINS))
def test_witnessed_report_pinned(name, tmp_path):
    assert witness_pin(name, tmp_path) == WITNESS_PINS[name]
