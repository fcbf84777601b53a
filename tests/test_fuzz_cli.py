"""Fuzz the CLI in-process with mutated bundled configs, traces and demo params.

Whatever the input, ``mbbc`` returns 0, 1, 2 or 3 and raises nothing, so no
traceback is printed; 1 comes only with a VIOLATED report, a diverging replay
or a failed demonstration. The examples are derandomized so that Tier-1 stays
reproducible.
"""

import contextlib
import copy
import io
import json
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mbbc import cli
from mbbc.checker import VIOLATED
from mbbc.engine import encode_line, run
from mbbc.scenario import ScenarioConfig

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
# What a mutated value becomes: every JSON type. No int is large, so no
# mutated horizon or n asks for a long run.
REPLACEMENTS = [None, "x", "", [], [0], {}, True, 1.5, -1, 0]

# Each demo kind's parameters, all given; a mutation drops or retypes one, or
# sets an int one to a small value, so no mutation asks for a long run.
DEMO_PARAMS = {
    "SOURCE_FLIP": {"n": 6, "delta_b": 2, "delta_1": 1, "source": 0, "horizon": 10, "seed": 0,
                    "m1": "m-first", "m2": "m-second"},
    "WIPE_FLIP": {"n": 6, "delta_1": 4, "delta_2": 2, "source": 0, "target": 1, "horizon": 10,
                  "seed": 0, "m": "m-wipe"},
}
DEMO_INTS = ("n", "horizon", "delta_b", "delta_1", "delta_2", "source", "target")

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """One directory for every example: each overwrites the files it uses."""
    return tmp_path_factory.mktemp("fuzz")


@lru_cache(maxsize=None)
def bundled_trace(index: int) -> str:
    return run(ScenarioConfig.from_json(CONFIGS[index].read_text())).to_jsonl()


def slots(node) -> list[tuple[object, object]]:
    """Every (container, key) in a JSON document, outermost first."""
    out = []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        out.extend(slots(child))
    return out


def mutate(data, document):
    """A copy of ``document`` with one key dropped or one value's type changed."""
    document = copy.deepcopy(document)
    container, key = data.draw(st.sampled_from(slots(document)))
    if isinstance(container, dict) and data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(st.sampled_from(REPLACEMENTS))
    return document


def mutate_trace(data, text: str) -> str:
    lines = text.splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    action = data.draw(st.sampled_from(["mutate", "truncate", "swap_detail"]))
    if action == "mutate":
        lines[index] = encode_line(mutate(data, json.loads(lines[index])))
    elif action == "truncate":
        lines[index] = lines[index][:data.draw(st.integers(0, len(lines[index]) - 1))]
    else:
        other = data.draw(st.integers(1, len(lines) - 1))
        index = max(index, 1)
        first, second = json.loads(lines[index]), json.loads(lines[other])
        first["detail"], second["detail"] = second["detail"], first["detail"]
        lines[index], lines[other] = encode_line(first), encode_line(second)
    return "\n".join(lines) + "\n"


def main(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(data=st.data(), index=st.integers(0, len(CONFIGS) - 1))
def test_mutated_config_runs_or_is_rejected(workdir, data, index):
    config = mutate(data, json.loads(CONFIGS[index].read_text()))
    (workdir / "config.json").write_text(json.dumps(config))
    code, _, err = main("run", "--config", str(workdir / "config.json"),
                        "--out", str(workdir / "run.jsonl"))
    assert code != 1, err


@FUZZ
@given(data=st.data(), index=st.integers(0, len(CONFIGS) - 1))
def test_mutated_trace_is_checked_replayed_or_rejected(workdir, data, index):
    trace = workdir / "trace.jsonl"
    trace.write_text(mutate_trace(data, bundled_trace(index)))
    checked, out, err = main("check", "--trace", str(trace))
    if checked == 1:
        assert any(report["verdict"] == VIOLATED for report in json.loads(out)), out
    code, _, err = main("replay", "--trace", str(trace))
    if code == 1:
        assert "replay diverged" in err, err
    if checked in (2, 3):
        assert code == checked, err


@FUZZ
@given(data=st.data(), kind=st.sampled_from(sorted(DEMO_PARAMS)))
def test_mutated_demo_params_hold_fail_or_are_rejected(data, kind):
    params = DEMO_PARAMS[kind]
    for _ in range(data.draw(st.integers(1, 2))):
        if data.draw(st.booleans()):
            params = mutate(data, params)
        else:
            params = {**params, data.draw(st.sampled_from(DEMO_INTS)): data.draw(st.integers(-1, 40))}
    code, _, err = main("demo", "--kind", kind, "--params", json.dumps(params))
    if code == 1:
        assert "demonstration FAILED" in err, err
