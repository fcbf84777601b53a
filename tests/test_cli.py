import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import golden_correct_source
import mbbc
from mbbc import cli
from mbbc.engine import TRACE_FORMAT, Trace
from mbbc.sweeps import attack_scenario
from mbbc.protocol import VariantTag
from mbbc.scenario import MAX_HORIZON, MAX_N


def child_env(**extra) -> dict:
    """The caller's environment for a `python -m mbbc.cli` child, plus ``extra``.

    The child must import the same mbbc as this suite, whether it is
    installed, on PYTHONPATH, or on sys.path through pytest's `pythonpath`.
    """
    package_root = str(Path(mbbc.__file__).resolve().parents[1])
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def golden_config_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden_correct_source().to_dict()))
    return path


def test_run_writes_trace_and_summary(tmp_path, golden_config_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert cli.main(["run", "--config", str(golden_config_path), "--out", str(out)]) == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "rounds=8" in stdout and "deliveries=6" in stdout and "cured=" in stdout


def test_run_counts_the_cures_of_the_schedule(tmp_path, capsys):
    """The trace holds no cure; `cured=` counts the oracle's notices over the horizon."""
    config = Path(__file__).resolve().parents[1] / "configs" / "bfa_double_cure.json"
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "t.jsonl")]) == 0
    assert " cured=4 " in capsys.readouterr().out


def test_run_twice_identical_files(tmp_path, golden_config_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(["run", "--config", str(golden_config_path), "--out", str(a)]) == 0
    assert cli.main(["run", "--config", str(golden_config_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_seed_override_changes_fingerprint(tmp_path, golden_config_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(a), "--seed", "1"])
    cli.main(["run", "--config", str(golden_config_path), "--out", str(b), "--seed", "2"])
    assert a.read_text().splitlines()[0] != b.read_text().splitlines()[0]


def test_run_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 6}')
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "t.jsonl")]) == 2
    assert "invalid" in capsys.readouterr().err


def test_run_async_setting_exits_3_with_reason(tmp_path, capsys):
    cfg = golden_correct_source().to_dict()
    cfg["setting"] = {"timing": "ASYNC", "mobility": "S-MOB", "oracle": "FFA"}
    path = tmp_path / "async.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "t.jsonl")]) == 3
    err = capsys.readouterr().err
    assert "unsupported setting" in err and "asynchronous" in err


def test_check_clean_trace_exits_0(tmp_path, golden_config_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    report_path = tmp_path / "report.json"
    code = cli.main(["check", "--trace", str(trace), "--out", str(report_path)])
    assert code == 0
    reports = json.loads(report_path.read_text())
    assert {r["property"] for r in reports} == {
        "VALIDITY", "NO_DUPLICATION", "INTEGRITY", "AGREEMENT", "DELIVERY_COUNT_LAW"}
    assert all(r["verdict"] == "SATISFIED" for r in reports)


def test_check_violated_trace_exits_1(tmp_path):
    cfg = attack_scenario(VariantTag.FFA_FULL, 5, 1, 1, "alternating")
    cfg_path = tmp_path / "attack.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    trace = tmp_path / "attack.jsonl"
    cli.main(["run", "--config", str(cfg_path), "--out", str(trace)])
    assert cli.main(["check", "--trace", str(trace), "--out", str(tmp_path / "r.json")]) == 1


def test_check_property_selection(tmp_path, golden_config_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(trace),
                     "--properties", "consistency,totality"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["property"] for r in out] == ["CONSISTENCY", "TOTALITY"]


def test_check_empty_trace_all_vacuous(tmp_path, golden_config_path, capsys):
    # A header-only trace (no events) checks clean: everything is vacuous.
    trace = tmp_path / "empty.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    trace.write_text(trace.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(r["verdict"] == "SATISFIED" for r in out)


def test_check_unknown_property_exits_2(tmp_path, golden_config_path):
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    assert cli.main(["check", "--trace", str(trace), "--properties", "nonsense"]) == 2


@pytest.mark.parametrize("properties, named", [
    (",", "--properties ',' names no property"),
    ("", "--properties '' names no property"),
    ("validity,Validity", "--properties 'validity,Validity' names property VALIDITY twice"),
])
def test_check_property_list_naming_nothing_or_a_name_twice_exits_2(
        tmp_path, golden_config_path, capsys, properties, named):
    """A property list that checks nothing, or one property twice, is invalid
    input, not an empty or doubled report."""
    trace, report = tmp_path / "trace.jsonl", tmp_path / "r.json"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(trace), "--properties", properties,
                     "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err
    assert not report.exists()


def test_sweep_csv_frontier(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--variant", "FFA_FULL", "--n-range", "4:8",
                     "--f-range", "1:1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {r["strategy"] for r in rows} == {"alternating", "split"}
    violated_n = {int(r["n"]) for r in rows if r["verdict"] == "VIOLATED"}
    assert violated_n == {4, 5}


def test_sweep_skips_alternating_cells_below_2f_plus_1(tmp_path, caplog):
    both, only_f1 = tmp_path / "both.csv", tmp_path / "f1.csv"
    with caplog.at_level("INFO", logger="mbbc.sweeps"):
        assert cli.main(["sweep", "--n-range", "4:8", "--f-range", "1:2", "--out", str(both)]) == 0
    assert "skipping alternating cell n=4 f=2" in caplog.text
    assert cli.main(["sweep", "--n-range", "4:8", "--f-range", "1:1", "--out", str(only_f1)]) == 0
    rows = list(csv.DictReader(both.read_text().splitlines()))
    f1_rows = list(csv.DictReader(only_f1.read_text().splitlines()))
    assert [r for r in rows if r["f"] == "1"] == f1_rows
    f2_cells = {(int(r["n"]), r["strategy"]) for r in rows if r["f"] == "2"}
    assert f2_cells == {(n, "split") for n in range(4, 9)} | {(n, "alternating") for n in range(5, 9)}


@pytest.mark.parametrize("flags, named", [
    (["--n-range", "5..3"], "--n-range '5..3' is empty"),
    (["--n-range", "-1"], "--n-range '-1' holds -1, below 1"),
    (["--n-range", "4", "--f-range", "0..-1"], "--f-range '0..-1' is empty"),
    (["--n-range", "4", "--strategies", ","], "--strategies ',' names no strategy"),
    (["--n-range", "1", "--f-range", "1"], "leave no cell to run"),
    (["--n-range", "1", "--f-range", "1", "--strategies", "nope"], "names unknown strategy 'nope'"),
    (["--n-range", "4", "--f-range", "2", "--strategies", "alternating"], "leave no cell to run"),
    (["--n-range", "5", "--f-range", "1", "--strategies", "alternating,split,alternating"],
     "names strategy 'alternating' twice"),
])
def test_sweep_with_no_cells_to_run_exits_2(tmp_path, capsys, flags, named):
    """A sweep range or strategy list that leaves nothing to run, or that
    names a strategy twice, is invalid input, not an empty or doubled CSV."""
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err, err
    assert not out.exists()


@pytest.mark.parametrize("flags, cells", [
    (["--n-range", "5", "--f-range", "1", "--strategies", "alternating"], 1),
    (["--n-range", "4:6", "--f-range", "1:2"], 11),
])
def test_sweep_prints_the_number_of_cells_it_ran(tmp_path, capsys, flags, cells):
    """``cells=`` counts the (n, f, strategy) cells, not the CSV rows, of
    which each cell writes one per property."""
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *flags, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len({(r["n"], r["f"], r["strategy"]) for r in rows}) == cells < len(rows)
    assert f"cells={cells} " in capsys.readouterr().out


def scalar(key, value):
    return lambda cfg: cfg.update({key: value})


def broadcast_field(key, value):
    return lambda cfg: cfg["broadcasts"][0].update({key: value})


def strategy(spec):
    return lambda cfg: cfg.update({"strategy": spec})


def schedule(spec):
    return lambda cfg: cfg.update({"schedule": spec})


def segment_field(key, value):
    return lambda cfg: cfg["schedule"]["trajectories"][0]["segments"][0].update({key: value})


def without_segment_field(key):
    return lambda cfg: cfg["schedule"]["trajectories"][0]["segments"][0].pop(key)


def setting_field(key, value):
    return lambda cfg: cfg["setting"].update({key: value})


def without_setting_field(key):
    return lambda cfg: cfg["setting"].pop(key)


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def arbitrary(actions):
    return strategy({"kind": "ARBITRARY", "script": {"1": {"1": actions}}})


ROUND_VOTE = {"kind": "ROUND", "round_value": 7}
WIPE = {"kind": "WIPE_AND_RUN", "target": 1, "sim_until": 0, "wipe_round": 2}


@pytest.mark.parametrize("edit, named", [
    pytest.param(scalar("n", "6"), "field n", id="n-string"),
    pytest.param(scalar("f", True), "field f", id="f-bool"),
    pytest.param(scalar("delta_s", 1.0), "field delta_s", id="delta_s-float"),
    pytest.param(scalar("delta_b", None), "field delta_b", id="delta_b-null"),
    pytest.param(scalar("delta_c", "1"), "field delta_c", id="delta_c-string"),
    pytest.param(scalar("horizon", 8.5), "field horizon", id="horizon-float"),
    pytest.param(scalar("seed", "7"), "field seed", id="seed-string"),
    pytest.param(scalar("horizon", MAX_HORIZON + 1), f"horizon={MAX_HORIZON + 1} must be in",
                 id="horizon-above-max"),
    pytest.param(scalar("n", MAX_N + 1), f"n={MAX_N + 1} must be in", id="n-above-max"),
    pytest.param(broadcast_field("source", "0"), "field source", id="broadcast-source-string"),
    pytest.param(broadcast_field("round", 1.0), "field round", id="broadcast-round-float"),
    pytest.param(broadcast_field("payload", 5), "payload 5", id="broadcast-payload-int"),
    pytest.param(strategy({k: v for k, v in WIPE.items() if k != "target"}), "'target'",
                 id="wipe-without-target"),
    pytest.param(strategy({k: v for k, v in WIPE.items() if k != "wipe_round"}), "'wipe_round'",
                 id="wipe-without-wipe_round"),
    pytest.param(strategy({**WIPE, "target": "1"}), "target", id="wipe-target-string"),
    pytest.param(strategy({**WIPE, "sim_until": None}), "sim_until", id="wipe-sim_until-null"),
    pytest.param(strategy({"kind": "ALTERNATING_SETS", "p1": ["5"], "p2": [4]}), "p1",
                 id="alternating-member-string"),
    pytest.param(strategy({"kind": "SPLIT_SEND", "targets": 2}), "targets", id="split-targets-int"),
    pytest.param(strategy({"kind": "EQUIVOCATE_HISTORY", "sim_cure": {"0": ["4", 1]}}), "sim_cure",
                 id="equivocate-cure-round-string"),
    pytest.param(strategy({"kind": "EQUIVOCATE_HISTORY", "sim_cure": {"zero": [4, 1]}}), "'zero'",
                 id="equivocate-cure-process-key"),
    pytest.param(strategy("BENIGN"), "strategy", id="strategy-string"),
    pytest.param(arbitrary({"sends": [["1", ROUND_VOTE]]}), "receiver '1'", id="arbitrary-receiver-string"),
    pytest.param(arbitrary({"sends": [[6, ROUND_VOTE]]}), "receiver 6", id="arbitrary-receiver-range"),
    pytest.param(arbitrary({"sends": [[1, {"kind": "ROUND", "round_value": "7"}]]}), "round_value",
                 id="arbitrary-round_value-string"),
    pytest.param(arbitrary({"sends": [[1, {"kind": "ROUND", "round_value": True}]]}),
                 "round_value True is not an int", id="arbitrary-round_value-bool"),
    pytest.param(arbitrary({"sends": [[1, {"kind": "SEND", "source": True, "birth_round": 1,
                                            "payload": "x"}]]}),
                 "source True is not an int", id="arbitrary-source-bool"),
    pytest.param(arbitrary({"sends": [[1, {"kind": "ECHO", "source": 1, "birth_round": 1.5,
                                            "payload": "x"}]]}),
                 "birth_round 1.5 is not an int", id="arbitrary-birth_round-float"),
    pytest.param(arbitrary({"state": {"to_send": [{"kind": "ROUND", "round_value": 3.0}]}}),
                 "round_value 3.0 is not an int", id="arbitrary-to_send-round_value-float"),
    pytest.param(arbitrary({"sends": [[1, {"round_value": 7}]]}), "kind", id="arbitrary-message-no-kind"),
    pytest.param(arbitrary({"sends": [[1, {"kind": "SEND", "source": 0, "birth_round": 1,
                                            "payload": 5}]]}), "payload", id="arbitrary-payload-int"),
    pytest.param(arbitrary({"sends": [1]}), "pair", id="arbitrary-send-not-a-pair"),
    pytest.param(arbitrary({"state": {"rc": "3"}}), "rc", id="arbitrary-rc-string"),
    pytest.param(arbitrary({"state": {"cured": 1}}), "cured", id="arbitrary-cured-int"),
    pytest.param(arbitrary({"state": {"to_send": [{"kind": "ECHO"}]}}), "ECHO",
                 id="arbitrary-to_send-message"),
    pytest.param(strategy({"kind": "ARBITRARY", "script": {"one": {"1": {}}}}), "'one'",
                 id="arbitrary-round-key"),
    pytest.param(schedule("x"), "schedule is 'x'", id="schedule-string"),
    pytest.param(schedule({"generator": "roundrobin", "params": {"offset": "1"}}), "offset",
                 id="roundrobin-offset-string"),
    pytest.param(segment_field("host", "1"), "host", id="segment-host-string"),
    pytest.param(segment_field("first_round", "1"), "first_round", id="segment-first_round-string"),
    pytest.param(without_segment_field("host"), "'host'", id="segment-without-host"),
    pytest.param(schedule({"trajectories": 5}), "trajectories", id="trajectories-int"),
    pytest.param(schedule({"generator": "static", "params": {"hosts": ["3"]}}), "hosts",
                 id="static-host-string"),
    pytest.param(schedule({"generator": "alternating", "params": {"p1": [4], "p2": [5], "start": "2"}}),
                 "start", id="alternating-start-string"),
    pytest.param(segment_field("last_round", 1.0), "last_round", id="segment-last_round-float"),
    pytest.param(segment_field("host", True), "host", id="segment-host-bool"),
    pytest.param(lambda cfg: cfg["schedule"]["trajectories"][0].update({"agent_id": 3}), "agent id 3",
                 id="trajectory-agent_id-range"),
    pytest.param(scalar("setting", None), "setting is None", id="setting-null"),
    pytest.param(scalar("setting", "SYNC"), "setting is 'SYNC'", id="setting-string"),
    pytest.param(scalar("setting", []), "setting is []", id="setting-list"),
    pytest.param(setting_field("timing", nested("SYNC", 13)),
                 "setting timing is [[[[[[[[[...]]]]]]]]], not one of SYNC, ASYNC",
                 id="setting-timing-nested"),
    pytest.param(without_setting_field("mobility"), "setting needs 'mobility'",
                 id="setting-without-mobility"),
    pytest.param(setting_field("oracle", "XFA"), "setting oracle is 'XFA', not one of NFA, BFA, FFA",
                 id="setting-oracle-unknown"),
])
def test_run_malformed_config_exits_2(tmp_path, capsys, edit, named):
    """A malformed scalar, broadcast, strategy or schedule spec is an invalid
    scenario: exit 2 with a message naming what is wrong, never a traceback."""
    cfg = golden_correct_source().to_dict()
    edit(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "t.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and named in err, err
    assert "Traceback" not in err


GOOD_HEADER = ('{"config":{"horizon":8,"n":6},"fingerprint":"x","format":"' + TRACE_FORMAT
               + '","seed":0}')
GOOD_EVENT = '{"detail":{},"kind":"STATE_CORRUPTED","round":1,"subject":0}'
# An event line of the older layout, and one with a key of no layout.
LEFTOVER_PHASE = GOOD_EVENT.replace(',"round"', ',"phase":"SEND","round"')
EXTRA_KEY = GOOD_EVENT.replace(',"kind"', ',"extra":5,"kind"')
# Nested past any recursion limit of the JSON parser.
DEEP = "[" * 100_000 + "]" * 100_000


def fan_out(senders: str | None, subject: int, to: str = '"ALL"') -> str:
    """A P2P_SEND line in round 2 with ``from`` set to ``senders`` (omitted if None)."""
    from_ = "" if senders is None else f'"from":{senders},'
    return (f'{{"detail":{{{from_}"message":{{"kind":"ROUND","round_value":2}},"to":{to}}},'
            f'"kind":"P2P_SEND","round":2,"subject":{subject}}}')


def compute_event(kind: str, detail: str, subject: int = 1) -> str:
    """A trace of GOOD_HEADER and one event of ``kind`` in round 2."""
    return GOOD_HEADER + f'\n{{"detail":{detail},"kind":"{kind}","round":2,"subject":{subject}}}\n'


def deliver_call(by: str | None, subject: int = 1) -> str:
    """A trace of GOOD_HEADER and one DELIVER_CALL with ``by`` set to ``by`` (omitted if None)."""
    by_ = "" if by is None else f'"by":{by},'
    return compute_event("DELIVER_CALL", f'{{{by_}"payload":"x","source":0}}', subject)


@pytest.mark.parametrize("text, line", [
    (GOOD_HEADER + "\n[1]\n", 2),
    (GOOD_HEADER + "\n" + GOOD_EVENT + "\n\n7\n", 4),
    (GOOD_HEADER + '\n{"subject":0,"detail":{}}\n', 2),
    (GOOD_HEADER + '\n{"round":1,"subject":0,"detail":{}}\n', 2),
    (GOOD_HEADER + "\n{not json\n", 2),
    ('{"fingerprint":"x","seed":0}\n' + GOOD_EVENT + "\n", 1),
    ('{"config":{},"fingerprint":"x"}\n', 1),
    ("[1]\n", 1),
    (GOOD_HEADER.replace(f',"format":"{TRACE_FORMAT}"', "") + "\n" + GOOD_EVENT + "\n", 1),
    (GOOD_HEADER.replace(TRACE_FORMAT, "mbbc-trace/1") + "\n" + GOOD_EVENT + "\n", 1),
    pytest.param(GOOD_HEADER.replace(TRACE_FORMAT, "mbbc-trace/2") + "\n", 1, id="header-only-trace-2"),
    (GOOD_HEADER.replace('"n":6', '"n":"6"') + "\n", 1),
    (GOOD_HEADER + "\n" + GOOD_EVENT.replace('"round":1', '"round":99') + "\n", 2),
    (GOOD_HEADER + "\n" + GOOD_EVENT.replace('"round":1', '"round":"1"') + "\n", 2),
    (GOOD_HEADER + "\n" + GOOD_EVENT.replace('"subject":0', '"subject":6') + "\n", 2),
    (GOOD_HEADER + "\n" + GOOD_EVENT.replace('"STATE_CORRUPTED"', '"P2P_DELIVER"') + "\n", 2),
    # The kinds of an older layout: the header's schedule fixes moves and cures.
    pytest.param(GOOD_HEADER + '\n{"detail":{"agent":0,"from":null,"to":1},"kind":"AGENT_MOVE",'
                 '"round":1,"subject":1}\n', 2, id="agent-move"),
    pytest.param(GOOD_HEADER + '\n{"detail":{"faulty_since":1},"kind":"CURED","round":2,'
                 '"subject":1}\n', 2, id="cured"),
    pytest.param(GOOD_HEADER + "\n" + LEFTOVER_PHASE + "\n", 2, id="leftover-phase"),
    pytest.param(GOOD_HEADER + "\n" + EXTRA_KEY + "\n", 2, id="extra-key"),
    pytest.param(GOOD_HEADER.replace('"seed"', '"extra":5,"seed"') + "\n", 1, id="header-extra-key"),
    (GOOD_HEADER + "\n" + GOOD_EVENT.replace('{}', '[]') + "\n", 2),
    (GOOD_HEADER + '\n{"detail":{"message":{"kind":"ROUND","round_value":2},"to":[1,6]},'
     '"kind":"P2P_SEND","round":2,"subject":0}\n', 2),
    (GOOD_HEADER + '\n{"detail":{"message":{"kind":"ROUND","round_value":2},"to":"SOME"},'
     '"kind":"P2P_SEND","round":2,"subject":0}\n', 2),
    pytest.param(GOOD_HEADER + "\n" + GOOD_EVENT + "\n" + fan_out("[]", 0) + "\n", 3, id="from-empty"),
    pytest.param(GOOD_HEADER + "\n" + fan_out("[2,1]", 2) + "\n", 2, id="from-unsorted"),
    pytest.param(GOOD_HEADER + "\n" + fan_out("[1,1]", 1) + "\n", 2, id="from-duplicate"),
    pytest.param(GOOD_HEADER + "\n" + fan_out("[1,6]", 1) + "\n", 2, id="from-out-of-range"),
    pytest.param(GOOD_HEADER + "\n" + fan_out("[-1,1]", 0) + "\n", 2, id="from-negative"),
    pytest.param(GOOD_HEADER + "\n" + fan_out("[true]", 1) + "\n", 2, id="from-bool"),
    pytest.param(GOOD_HEADER + "\n" + fan_out("[0]", 0, to="[1]") + "\n", 2, id="from-beside-a-list"),
    pytest.param(GOOD_HEADER + "\n" + fan_out(None, 0) + "\n", 2, id="all-without-from"),
    pytest.param(GOOD_HEADER + "\n" + fan_out("[1,3]", 3) + "\n", 2, id="subject-not-first-sender"),
    pytest.param(GOOD_HEADER + "\n" + GOOD_EVENT.replace("{}", DEEP) + "\n", 2, id="deeply_nested"),
    pytest.param(compute_event("DELIVER_CALL", '{"by":[1],"payload":"x"}'), 2, id="deliver-without-source"),
    pytest.param(compute_event("DELIVER_CALL", '{"by":[1],"payload":"x","source":"1"}'), 2,
                 id="deliver-source-string"),
    pytest.param(compute_event("DELIVER_CALL", '{"by":[1],"payload":"x","source":true}'), 2,
                 id="deliver-source-bool"),
    pytest.param(compute_event("DELIVER_CALL", '{"by":[1],"payload":5,"source":0}'), 2, id="deliver-payload-int"),
    pytest.param(compute_event("DELIVER_CALL", '{"by":[1],"payload_hex":"zz","source":0}'), 2,
                 id="deliver-payload-hex"),
    pytest.param(deliver_call(None), 2, id="by-missing"),
    pytest.param(deliver_call("[]"), 2, id="by-empty"),
    pytest.param(deliver_call("[2,1]", 2), 2, id="by-unsorted"),
    pytest.param(deliver_call("[1,1]"), 2, id="by-duplicate"),
    pytest.param(deliver_call("[1,6]"), 2, id="by-out-of-range"),
    pytest.param(deliver_call("[-1,1]"), 2, id="by-negative"),
    pytest.param(deliver_call("[true]"), 2, id="by-bool"),
    pytest.param(deliver_call("[1.0]"), 2, id="by-float"),
    pytest.param(deliver_call('"1"'), 2, id="by-string"),
    pytest.param(deliver_call("null"), 2, id="by-null"),
    pytest.param(deliver_call("[0,1]"), 2, id="subject-not-first-deliverer"),
    pytest.param(compute_event("BROADCAST_CALL", "{}"), 2, id="broadcast-without-payload"),
    pytest.param(compute_event("BROADCAST_CALL", '{"payload_hex":"zz"}'), 2, id="broadcast-payload-hex"),
])
def test_check_malformed_trace_exits_2_naming_the_line(tmp_path, capsys, text, line):
    trace = tmp_path / "bad.jsonl"
    trace.write_text(text)
    assert cli.main(["check", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"trace line {line}:" in err
    assert "Traceback" not in err


def test_a_well_formed_deliver_call_is_read():
    """The rejection cases above differ from this trace in one field each."""
    event, = Trace.from_jsonl(deliver_call("[1,3]")).events
    assert (event.subject, event.detail["by"]) == (1, [1, 3])


@pytest.mark.parametrize("command", ["check", "replay"])
@pytest.mark.parametrize("line, key", [(LEFTOVER_PHASE, "phase"), (EXTRA_KEY, "extra")])
def test_an_event_key_of_no_layout_exits_2_naming_it(tmp_path, golden_config_path, capsys,
                                                     command, line, key):
    """An event holds exactly detail, kind, round and subject: a key beside
    them is not dropped, so `replay` cannot call such a file identical."""
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    header, *events = trace.read_text().splitlines()
    trace.write_text("\n".join([header, line, *events]) + "\n")
    capsys.readouterr()
    assert cli.main([command, "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"trace line 2: bad event line: unknown key '{key}'" in err, err


@pytest.mark.parametrize("command", ["check", "replay"])
@pytest.mark.parametrize("old", ["mbbc-trace/2", "mbbc-trace/3", "mbbc-trace/4", "mbbc-trace/5"])
def test_header_only_trace_of_an_older_format_exits_2_naming_line_1(tmp_path, capsys, command, old):
    """There is no reader for older layouts: an older header is refused at
    line 1 before any event is read."""
    trace = tmp_path / "old.jsonl"
    trace.write_text(GOOD_HEADER.replace(TRACE_FORMAT, old) + "\n")
    assert old in trace.read_text()
    assert cli.main([command, "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "trace line 1: bad header line:" in err and f"format '{old}'" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "replay"])
def test_trace_header_setting_not_an_object_exits_2(tmp_path, golden_config_path, capsys, command):
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["setting"] = "SYNC"
    trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert cli.main([command, "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and "setting is 'SYNC'" in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    {"generator": "roundrobin", "params": {"offset": 1}},
    {"generator": "alternating", "params": {"p1": [4], "p2": [5]}},
])
@pytest.mark.parametrize("delta_s", [0, -1])
def test_check_of_a_generated_schedule_without_stays_exits_2(tmp_path, capsys, spec, delta_s):
    """A header whose generator would step by delta_s < 1 is rejected, not looped on."""
    config, trace = tmp_path / "config.json", tmp_path / "trace.jsonl"
    config.write_text(json.dumps({**golden_correct_source().to_dict(), "schedule": spec}))
    assert cli.main(["run", "--config", str(config), "--out", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["delta_s"] = delta_s
    trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and "delta_s must be >= 1" in err, err


@pytest.mark.parametrize("edit, flags, code", [
    pytest.param(lambda cfg: cfg["setting"].update(timing="ASYNC"), [], 3, id="async"),
    pytest.param(lambda cfg: cfg.update(f=9), [], 2, id="f-above-n"),
    pytest.param(lambda cfg: cfg["schedule"]["trajectories"][0]["segments"][0].update(host=40), [], 2,
                 id="segment-host-40"),
    pytest.param(lambda cfg: cfg["schedule"].update(trajectories=[]), [], 2, id="no-trajectories"),
    pytest.param(lambda cfg: cfg.update(variant="NFA_WEAK"), [], 2, id="variant-oracle-mismatch"),
    pytest.param(None, ["--delta-b", "0"], 2, id="delta-b-0"),
    pytest.param(None, ["--delta-b", "-3"], 2, id="delta-b-negative"),
])
def test_check_validates_the_header_config(tmp_path, golden_config_path, capsys, edit, flags, code):
    """``check`` rejects a header config, or a window override, that ``run``
    would reject, with the same exit code; ``replay`` of the trace agrees."""
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    if edit is not None:
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header["config"])
        trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(trace), *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:" if code == 2 else "unsupported setting:"), err
    if edit is not None:
        assert cli.main(["replay", "--trace", str(trace)]) == code


@pytest.mark.parametrize("spec, named", [
    ({"kind": "NOPE"}, "unknown strategy kind: 'NOPE'"),
    ({"kind": "ALTERNATING_SETS", "p1": [0], "p2": [0]}, "requires disjoint sets"),
])
def test_check_and_replay_reject_a_header_strategy_alike(tmp_path, golden_config_path, capsys,
                                                          spec, named):
    """``check`` builds the header's strategy as the engine does, so a
    strategy that ``replay`` cannot run fails both, with one message."""
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["strategy"] = spec
    trace.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    errors = []
    for command in ("check", "replay"):
        assert cli.main([command, "--trace", str(trace)]) == 2, command
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1], errors
    assert errors[0].startswith("invalid scenario:") and named in errors[0], errors[0]


def header_only_exit(tmp_path, capsys, command, **config) -> str:
    """Run ``command`` on a trace of one header line holding the golden
    config with ``config`` over it; it must exit 2 within a second. Returns
    its stderr."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"config": {**golden_correct_source().to_dict(), **config},
                                 "fingerprint": "x", "format": TRACE_FORMAT, "seed": 0}) + "\n")
    start = time.perf_counter()
    assert cli.main([command, "--trace", str(trace)]) == 2
    assert time.perf_counter() - start < 1.0
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "replay"])
def test_header_only_trace_with_a_huge_horizon_exits_2_at_once(tmp_path, capsys, command):
    """Schedules and checkers are sized by the horizon; a header alone must
    not be able to ask for millions of rounds."""
    err = header_only_exit(tmp_path, capsys, command, horizon=2_000_000)
    assert err.startswith("invalid scenario:") and f"must be in [1, {MAX_HORIZON}]" in err, err


@pytest.mark.parametrize("command", ["check", "replay"])
def test_header_only_trace_with_a_huge_n_exits_2_at_once(tmp_path, capsys, command):
    """Schedules, checkers and a replay's states grow with n; a header alone
    must not be able to ask for millions of processes."""
    err = header_only_exit(tmp_path, capsys, command, n=2_000_000)
    assert err.startswith("invalid scenario:") and f"n=2000000 must be in [1, {MAX_N}]" in err, err


@pytest.mark.parametrize("field", ['"round":99', '"round":"3"'])
def test_check_deliver_call_with_bad_round_exits_2(tmp_path, golden_config_path, capsys, field):
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    bad = next(i for i, line in enumerate(lines) if '"DELIVER_CALL"' in line)
    lines[bad] = lines[bad].replace('"round":4', field, 1)
    assert field in lines[bad]
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["check", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"trace line {bad + 1}: bad event line: round" in err and "Traceback" not in err


def test_check_malformed_trace_subprocess_has_no_traceback(tmp_path):
    trace = tmp_path / "bad.jsonl"
    trace.write_text(GOOD_HEADER + "\n[1]\n")
    proc = subprocess.run([sys.executable, "-m", "mbbc.cli", "check", "--trace", str(trace)],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "trace line 2" in proc.stderr


def test_demo_commands(tmp_path, capsys):
    report = tmp_path / "demo.json"
    assert cli.main(["demo", "--kind", "THEOREM_3", "--out", str(report),
                     "--trace-out", str(tmp_path / "pair")]) == 0
    data = json.loads(report.read_text())
    assert data["projections_identical"] is True
    assert data["demonstration_holds"] is True
    assert (tmp_path / "pair-a.jsonl").exists() and (tmp_path / "pair-b.jsonl").exists()
    assert cli.main(["demo", "--kind", "THEOREM_4"]) == 0


@pytest.mark.parametrize("kind, params, named", [
    ("SOURCE_FLIP", "[1]", "params is [1], not an object"),
    ("SOURCE_FLIP", "7", "params is 7, not an object"),
    ("SOURCE_FLIP", '"x"', "params is 'x', not an object"),
    ("SOURCE_FLIP", "null", "params is None, not an object"),
    ("SOURCE_FLIP", '{"delta_1": "1"}', "params delta_1 is '1', not an int"),
    ("SOURCE_FLIP", '{"delta_b": true}', "params delta_b is True, not an int"),
    ("SOURCE_FLIP", '{"horizon": 9.0}', "params horizon is 9.0, not an int"),
    ("SOURCE_FLIP", '{"source": [0]}', "params source is [0], not an int"),
    ("SOURCE_FLIP", '{"n": "6"}', "params n is '6', not an int"),
    ("WIPE_FLIP", '{"delta_2": null}', "params delta_2 is None, not an int"),
    ("WIPE_FLIP", '{"target": false}', "params target is False, not an int"),
    ("WIPE_FLIP", '{"seed": "0"}', "params seed is '0', not an int"),
    ("WIPE_FLIP", "{not json", "params is not valid JSON"),
    pytest.param("WIPE_FLIP", DEEP, "params is not valid JSON", id="deeply_nested"),
    ("WIPE_FLIP", '{"delta1": 2}', "params key 'delta1' is not one WIPE_FLIP takes"),
    ("SOURCE_FLIP", '{"target": 1}', "params key 'target' is not one SOURCE_FLIP takes"),
    ("WIPE_FLIP", '{"m1": "x"}', "params key 'm1'"),
    ("SOURCE_FLIP", '{"m1": 5}', "params m1 is 5, not a string"),
    ("SOURCE_FLIP", '{"m2": null}', "params m2 is None, not a string"),
    ("WIPE_FLIP", '{"m": ["x"]}', "params m is ['x'], not a string"),
    pytest.param("SOURCE_FLIP", '{"m1": ' + "[" * 200 + "]" * 200 + "}",
                 "params m1 is [[[[[[[[[...]]]]]]]]], not a string", id="m1-nested"),
    pytest.param("SOURCE_FLIP", '{"zzz": ' + "[" * 200 + "]" * 200 + "}", "params key 'zzz'",
                 id="unknown-key-nested"),
])
def test_demo_bad_params_exit_2_naming_the_field(capsys, kind, params, named):
    assert cli.main(["demo", "--kind", kind, "--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and named in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("where, named", [
    ("schedule", "schedule is [[[[[[[[[...]]]]]]]]], not an object"),
    ("strategy", "config is nested too deep to encode"),
    ("m1", "params m1 is [[[[[[[[[...]]]]]]]]], not a string"),
    ("zzz", "params key 'zzz'"),
], ids=["schedule", "strategy-unused-key", "m1", "unknown-key"])
def test_deepest_value_the_parser_accepts_exits_2(tmp_path, capsys, where, named):
    """A value nested just below the JSON parser's recursion limit parses;
    the message that echoes it, or the fingerprint that encodes an unused
    key, is made on a deeper stack and must not run out of recursion there."""
    config = tmp_path / "config.json"

    def argv(depth: int) -> list[str]:
        value = "[" * depth + "]" * depth
        if where in ("schedule", "strategy"):
            edit = {"schedule": "@"} if where == "schedule" else {"strategy": {"kind": "BENIGN", "x": "@"}}
            config.write_text(json.dumps({**golden_correct_source().to_dict(), **edit})
                              .replace('"@"', value))
            return ["run", "--config", str(config), "--out", str(tmp_path / "t.jsonl")]
        return ["demo", "--kind", "SOURCE_FLIP", "--params", f'{{"{where}": {value}}}']

    lo, hi = 1, 100_000
    while lo < hi:
        mid = (lo + hi) // 2
        cli.main(argv(mid))
        if "not valid JSON" in capsys.readouterr().err:
            hi = mid
        else:
            lo = mid + 1
    assert cli.main(argv(lo - 1)) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:") and named in err, err


@pytest.mark.parametrize("command", ["run", "replay"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    """JSON nested past the parser's recursion limit is invalid JSON, not a crash."""
    path = tmp_path / "deep"
    if command == "run":
        path.write_text('{"n": ' + DEEP + "}")
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "t.jsonl")]
    else:
        path.write_text(GOOD_HEADER + "\n" + GOOD_EVENT.replace("{}", DEEP) + "\n")
        argv = ["replay", "--trace", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


def test_replay_roundtrip_and_divergence(tmp_path, golden_config_path, capsys):
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    assert cli.main(["replay", "--trace", str(trace)]) == 0
    assert cli.main(["replay", "--config", str(golden_config_path), "--trace", str(trace)]) == 0
    # Tamper with the first event line (.jsonl uses compact separators).
    lines = trace.read_text().splitlines()
    assert '"round":1' in lines[1]
    lines[1] = lines[1].replace('"round":1', '"round":2', 1)
    trace.write_text("\n".join(lines) + "\n")
    assert cli.main(["replay", "--trace", str(trace)]) == 1


@pytest.mark.parametrize("edit", ["truncated", "extended"])
def test_replay_of_a_prefix_trace_names_the_first_line_past_it(tmp_path, golden_config_path,
                                                               capsys, edit):
    """A stored trace that is a line-for-line prefix of the fresh one, or
    extends it, diverges at the first line past the shorter side."""
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    lines = trace.read_text().splitlines()
    last = len(lines) - 1
    stored = lines[:-1] if edit == "truncated" else lines + [lines[-1]]
    trace.write_text("\n".join(stored) + "\n")
    capsys.readouterr()
    assert cli.main(["replay", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    at = last if edit == "truncated" else last + 1
    stored_line, fresh_line = ((cli.END_OF_TRACE, lines[-1]) if edit == "truncated"
                               else (lines[-1], cli.END_OF_TRACE))
    assert f"first divergence at line {at}:\n  stored: {stored_line}\n  fresh:  {fresh_line}" in err


def test_replay_of_a_float_round_value_diverges(tmp_path, golden_config_path, capsys):
    """``2.0 == 2`` in Python, but the stored bytes differ from the fresh ones."""
    trace = tmp_path / "trace.jsonl"
    cli.main(["run", "--config", str(golden_config_path), "--out", str(trace)])
    text = trace.read_text()
    assert '"round_value":2}' in text
    trace.write_text(text.replace('"round_value":2}', '"round_value":2.0}', 1))
    capsys.readouterr()
    assert cli.main(["replay", "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "replay diverged" in err and '"round_value":2.0}' in err


def test_module_entrypoint_smoke(tmp_path, golden_config_path):
    out = tmp_path / "t.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "mbbc.cli", "run", "--config", str(golden_config_path),
         "--out", str(out)],
        capture_output=True, text=True, env=child_env(MBBC_LOG_LEVEL="info"),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "mbbc.engine INFO run complete" in proc.stderr
    in_process = tmp_path / "in_process.jsonl"
    assert cli.main(["run", "--config", str(golden_config_path), "--out", str(in_process)]) == 0
    assert out.read_bytes() == in_process.read_bytes()
