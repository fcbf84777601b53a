"""Every bundled scenario under configs/ runs and checks clean, or reproduces
its documented violation."""

import json
from pathlib import Path

import pytest

from mbbc import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# check exit code 0 = no violation; 1 = the documented violation.
EXPECTED = {
    "correct_source.json": (0, None),
    "faulty_source_all_deliver.json": (0, None),
    "faulty_source_none_deliver.json": (0, None),
    # The weak variant abandons no-duplication: cures re-deliver, by design.
    "bfa_double_cure.json": (1, {"NO_DUPLICATION"}),
    # The source is possessed before its SEND goes out, and the agent sends
    # it later with a later birth: every count is owed from that birth.
    "bfa_forged_birth.json": (0, None),
    # A stay across the due round, run faithfully: the cure owes the delivery.
    "ffa_delivery_on_cure.json": (0, None),
    "nfa_alternating_n7.json": (1, {"NO_DUPLICATION"}),
    # Below the n > 5f bound the alternating attack starves validity.
    "alternating_below_bound_n5.json": (1, {"VALIDITY"}),
}


def test_manifest_covers_exactly_the_bundled_files():
    assert {p.name for p in CONFIG_DIR.glob("*.json")} == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bundled_config_runs_and_checks(name, tmp_path):
    expected_code, expected_violations = EXPECTED[name]
    trace = tmp_path / "trace.jsonl"
    report = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(CONFIG_DIR / name), "--out", str(trace)]) == 0
    code = cli.main(["check", "--trace", str(trace), "--out", str(report)])
    assert code == expected_code, name
    if expected_violations is not None:
        reports = json.loads(report.read_text())
        violated = {r["property"] for r in reports if r["verdict"] == "VIOLATED"}
        assert violated == expected_violations, name
