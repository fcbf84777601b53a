"""Command-line interface.

Commands: ``run`` (scenario -> JSON-lines trace), ``check`` (trace -> property
report JSON), ``sweep`` (attack grid -> CSV), ``demo`` (paired indistinguishable
histories + adapter dichotomy report), ``replay`` (re-run a scenario and diff
against a stored trace). Exit codes: 0 success / no violation, 1 violation or
failed demonstration or diverging replay, 2 invalid configuration or input,
3 unsupported setting (the message explains the impossibility).

Set ``MBBC_LOG_LEVEL`` to error, info or debug to control logging.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from itertools import zip_longest
from pathlib import Path

from .adversary import build_strategy
from .checker import (
    ALL_PROPERTIES,
    MBBC_PROPERTIES,
    VIOLATED,
    reports_to_json,
    run_property_checks,
)
from .demos import run_demo
from .engine import Trace, deliver_oracle_events, delivered_instances, event_lines, run
from .model import spec_object
from .protocol import VariantTag
from .scenario import InvalidScenario, ScenarioConfig, UnsupportedSetting
from .sweeps import BUNDLED_STRATEGIES, rows_to_csv, run_sweep

logger = logging.getLogger("mbbc.cli")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3

# What ``replay`` prints for a line past the end of one side's trace.
END_OF_TRACE = "<end of trace>"


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnsupportedSetting as exc:
        print(f"unsupported setting: {exc.reason}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mbbc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and write its trace")
    p_run.add_argument("--config", required=True, type=Path, help="scenario JSON file")
    p_run.add_argument("--out", "--trace", dest="out", required=True, type=Path,
                       help="output trace path (JSON lines)")
    p_run.set_defaults(handler=cmd_run)

    p_check = sub.add_parser("check", help="evaluate properties over a trace")
    p_check.add_argument("--trace", required=True, type=Path, help="trace file from `mbbc run`")
    p_check.add_argument("--properties", default=None,
                         help="comma list from: " + ",".join(p.lower() for p in ALL_PROPERTIES))
    p_check.add_argument("--delta-b", type=int, default=None, help="override the config delta_b")
    p_check.add_argument("--delta-c", type=int, default=None, help="override the config delta_c")
    p_check.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    p_check.set_defaults(handler=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run bundled attacks over an (n, f) grid")
    p_sweep.add_argument("--variant", default="FFA_FULL",
                         choices=[v.value for v in VariantTag])
    p_sweep.add_argument("--n-range", required=True, help="e.g. 4:8 (inclusive)")
    p_sweep.add_argument("--f-range", default="1:1", help="e.g. 1:1 (inclusive)")
    p_sweep.add_argument("--delta-s", type=int, default=1)
    p_sweep.add_argument("--strategies", default=",".join(BUNDLED_STRATEGIES))
    p_sweep.add_argument("--out", required=True, type=Path, help="output CSV path")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_demo = sub.add_parser("demo", help="replay a paired impossibility construction")
    p_demo.add_argument("--kind", required=True,
                        choices=["THEOREM_3", "THEOREM_4", "SOURCE_FLIP", "WIPE_FLIP"])
    p_demo.add_argument("--params", default=None, help="JSON object of construction parameters")
    p_demo.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    p_demo.add_argument("--trace-out", type=Path, default=None,
                        help="prefix for dumping the two traces (suffix -a.jsonl / -b.jsonl)")
    p_demo.set_defaults(handler=cmd_demo)

    p_replay = sub.add_parser("replay", help="re-run a scenario and diff against a stored trace")
    p_replay.add_argument("--config", type=Path, default=None,
                          help="scenario JSON (defaults to the config embedded in the trace)")
    p_replay.add_argument("--trace", required=True, type=Path)
    p_replay.set_defaults(handler=cmd_replay)

    return parser


def cmd_run(args) -> int:
    config = ScenarioConfig.from_json(args.config.read_text())
    trace = run(config)
    args.out.write_text(trace.to_jsonl())
    deliveries = sum(len(by) for _idx, _r, by, _source, _payload in delivered_instances(trace.events))
    schedule, oracle = config.resolved_schedule(), config.setting.oracle
    cured = sum(len(deliver_oracle_events(schedule, r, oracle)) for r in range(1, config.horizon + 1))
    print(f"rounds={config.horizon} deliveries={deliveries} cured={cured} "
          f"events={len(trace.events)} trace={args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    trace = Trace.from_jsonl(args.trace.read_text())
    overrides = {"delta_b": args.delta_b, "delta_c": args.delta_c}
    config = trace.scenario().with_overrides(**{k: v for k, v in overrides.items() if v is not None})
    config.validate()
    build_strategy(config)  # a header strategy that `run` and `replay` reject is rejected here too
    properties = MBBC_PROPERTIES
    if args.properties is not None:
        properties = tuple(p.strip().upper() for p in args.properties.split(",") if p.strip())
        if not properties:
            raise ValueError(f"--properties {args.properties!r} names no property")
        unknown = [p for p in properties if p not in ALL_PROPERTIES]
        if unknown:
            raise ValueError(f"unknown properties: {', '.join(unknown)}")
        repeated = [p for i, p in enumerate(properties) if p in properties[:i]]
        if repeated:
            raise ValueError(f"--properties {args.properties!r} names property {repeated[0]} twice")
    reports = run_property_checks(trace, config.resolved_schedule(), config.delta_b, config.delta_c,
                                  config.variant, properties)
    text = reports_to_json(reports)
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    for report in reports:
        print(f"{report.property}: {report.verdict}", file=sys.stderr)
    return EXIT_VIOLATION if any(r.verdict == VIOLATED for r in reports) else EXIT_OK


def cmd_sweep(args) -> int:
    n_values = _parse_range(args.n_range, "--n-range", low=1)
    f_values = _parse_range(args.f_range, "--f-range", low=0)
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    if not strategies:
        raise ValueError(f"--strategies {args.strategies!r} names no strategy")
    unknown = [s for s in strategies if s not in BUNDLED_STRATEGIES]
    if unknown:
        raise ValueError(f"--strategies {args.strategies!r} names unknown strategy {unknown[0]!r}, "
                         f"not one of {', '.join(BUNDLED_STRATEGIES)}")
    repeated = [s for i, s in enumerate(strategies) if s in strategies[:i]]
    if repeated:
        raise ValueError(f"--strategies {args.strategies!r} names strategy {repeated[0]!r} twice")
    rows = run_sweep(VariantTag(args.variant), n_values, f_values, delta_s=args.delta_s,
                     strategies=strategies)
    if not rows:
        raise ValueError(f"--n-range {args.n_range!r}, --f-range {args.f_range!r} and --strategies "
                         f"{args.strategies!r} leave no cell to run: a cell needs f < n, "
                         f"and alternating n >= 2f+1")
    args.out.write_text(rows_to_csv(rows))
    violated = sum(1 for r in rows if r["verdict"] == VIOLATED)
    cells = len({(r["n"], r["f"], r["strategy"]) for r in rows})
    print(f"cells={cells} violated={violated} csv={args.out}")
    return EXIT_OK


def cmd_demo(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidScenario([f"params is not valid JSON: {exc}"]) from None
    result = run_demo(args.kind, spec_object(params, "params"))
    text = result.to_json()
    if args.out is not None:
        args.out.write_text(text + "\n")
    else:
        print(text)
    if args.trace_out is not None:
        base = str(args.trace_out)
        Path(base + "-a.jsonl").write_text(result.trace_first.to_jsonl())
        Path(base + "-b.jsonl").write_text(result.trace_second.to_jsonl())
    status = "holds" if result.holds else "FAILED"
    print(f"demo {args.kind}: projections_identical={result.projections_identical} "
          f"choices={len(result.choices)} demonstration {status}", file=sys.stderr)
    return EXIT_OK if result.holds else EXIT_VIOLATION


def cmd_replay(args) -> int:
    stored = Trace.from_jsonl(args.trace.read_text())
    if args.config is not None:
        config = ScenarioConfig.from_json(args.config.read_text())
    else:
        config = stored.scenario()
    fresh = run(config)
    stored_text = stored.to_jsonl()
    fresh_text = fresh.to_jsonl()
    if stored_text == fresh_text:
        print(f"replay identical: {hashlib.sha256(fresh_text.encode('utf-8')).hexdigest()}")
        return EXIT_OK
    print("replay diverged from the stored trace", file=sys.stderr)
    stored_lines, fresh_lines = stored_text.splitlines(), fresh_text.splitlines()
    i = next(i for i, (a, b) in enumerate(zip_longest(stored_lines, fresh_lines)) if a != b)
    print(f"first divergence at line {i}:\n  stored: {_shown_line(stored, stored_lines, i)}\n"
          f"  fresh:  {_shown_line(fresh, fresh_lines, i)}", file=sys.stderr)
    return EXIT_VIOLATION


def _shown_line(trace: Trace, lines: list[str], i: int) -> str:
    """Line ``i`` of the trace's ``lines`` as ``replay`` prints it: the
    header as written, an event resolved, with every cited value in full,
    and END_OF_TRACE past the last line."""
    if i >= len(lines):
        return END_OF_TRACE
    if i == 0:
        return lines[0]
    return event_lines(trace.events[i - 1:i])[0]


def _parse_range(text: str, flag: str, low: int) -> list[int]:
    """The values of an inclusive range ``lo:hi`` or ``lo..hi``, or of one
    value; a bound that is not an int, an empty range, or one reaching below
    ``low``, is a ValueError naming ``flag``."""
    def bound(value: str) -> int:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{flag} {text!r}: {value!r} is not an int") from None

    sep = ":" if ":" in text else ".."
    if sep in text:
        lo, _, hi = text.partition(sep)
        values = list(range(bound(lo), bound(hi) + 1))
    else:
        values = [bound(text)]
    if not values:
        raise ValueError(f"{flag} {text!r} is empty")
    if values[0] < low:
        raise ValueError(f"{flag} {text!r} holds {values[0]}, below {low}")
    return values


def _setup_logging() -> None:
    level_name = os.environ.get("MBBC_LOG_LEVEL", "error").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR)
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")


if __name__ == "__main__":
    sys.exit(main())
