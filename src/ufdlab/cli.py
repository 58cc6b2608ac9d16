"""Command-line surface: claim runner and presentation exporter.

    ufdlab claim list
    ufdlab claim run <id> [--params f.json] [--out report.json] [--timeout S]
    ufdlab claim run-all --suite acceptance [--out reports.json] [--timeout S]
    ufdlab ring export --input ring.json --format cas-text

Reports go to stdout as JSON (or to --out); progress lines go to stderr, so
stdout stays machine-readable.  `ClaimReport` enforces the shipped report
schema when a report is built, and the emitted keys are checked against the
schema's before a report is written.  Exit codes: 0 all claims verified,
1 at least one refuted, 2 at least one unknown (and none refuted),
3 usage error (a bad argument or parameter, or a builder's HypothesisError),
4 internal error: any other exception, with its traceback on stderr and
nothing on stdout.  The env var UFDLAB_CAPS ("degree=128,terms=50000")
overrides the size caps for everything a claim runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .claims import (
    DEFAULT_TIMEOUT_S,
    REGISTRY,
    ClaimReport,
    UsageError,
    exit_code,
    report_schema,
    run_claim,
    suite_claims,
)
from .constructions import export_presentation, load_presentation_json


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 3."""

    def error(self, message):
        raise UsageError(message)


TIMEOUT_HELP = (f"per-claim seconds before the status degrades to unknown "
                f"(default {DEFAULT_TIMEOUT_S:g})")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ufdlab", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True)

    claim = top.add_parser("claim", help="list or run registered claims")
    sub = claim.add_subparsers(dest="action", required=True)

    sub.add_parser("list", help="print every claim id with its statement")

    run = sub.add_parser("run", help="run one claim and emit its report")
    run.add_argument("claim_id")
    run.add_argument("--params", metavar="FILE",
                     help="JSON parameter file (default: the claim's shipped parameters)")
    run.add_argument("--out", metavar="FILE", help="write the report here")
    run.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S, help=TIMEOUT_HELP)

    run_all = sub.add_parser("run-all", help="run every claim of a suite")
    run_all.add_argument("--suite", required=True)
    run_all.add_argument("--out", metavar="FILE")
    run_all.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S, help=TIMEOUT_HELP)

    ring = top.add_parser("ring", help="presentation import/export")
    rsub = ring.add_subparsers(dest="action", required=True)
    export = rsub.add_parser("export", help="re-serialize a presentation file")
    export.add_argument("--input", required=True, metavar="FILE")
    export.add_argument("--format", required=True, choices=("json", "cas-text"))
    return parser


def _load_json_file(path: str):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"{path} is not valid JSON: {err}") from err


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped early (`| head -1`).  The verdicts stand, so
            # the exit code is still theirs; send the unwritten rest to
            # devnull so the interpreter's flush at exit does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _checked_json(report: ClaimReport, schema: dict) -> dict:
    """The report's JSON document, checked to hold every key the schema
    requires and none it does not declare.  `ClaimReport` has already
    enforced the rules on the values."""
    doc = report.to_json()
    missing = sorted(set(schema["required"]) - doc.keys())
    extra = sorted(doc.keys() - schema["properties"].keys())
    if missing or extra:
        raise ValueError(f"report for claim {report.claim_id!r} does not fit the "
                         f"schema: missing keys {missing}, undeclared keys {extra}")
    return doc


def _cmd_claim_list() -> int:
    width = max(len(cid) for cid in REGISTRY)
    lines = [f"{cid:<{width}}  {spec.statement}" for cid, spec in REGISTRY.items()]
    _emit("\n".join(lines), None)
    return 0


def _cmd_claim_run(args) -> int:
    params = None
    if args.params is not None:
        params = _load_json_file(args.params)
        if not isinstance(params, dict):
            raise UsageError(f"{args.params} must hold a JSON object")
    report = run_claim(args.claim_id, params, timeout=args.timeout)
    doc = _checked_json(report, report_schema())
    _emit(json.dumps(doc, indent=2), args.out)
    if args.out is not None:
        print(f"{report.status:10} {report.claim_id}", file=sys.stderr)
    return exit_code([report])


def _cmd_claim_run_all(args) -> int:
    reports = []
    for cid in suite_claims(args.suite):
        reports.append(run_claim(cid, timeout=args.timeout))
        print(f"{reports[-1].status:10} {cid}", file=sys.stderr)
    schema = report_schema()
    _emit(json.dumps([_checked_json(r, schema) for r in reports], indent=2), args.out)
    return exit_code(reports)


def _cmd_ring_export(args) -> int:
    try:
        with open(args.input, "r") as fh:
            text = fh.read()
    except OSError as err:
        raise UsageError(f"cannot read {args.input}: {err}") from err
    try:
        ring = load_presentation_json(text)
    except (ValueError, KeyError, TypeError) as err:
        raise UsageError(f"{args.input} is not a presentation file: {err}") from err
    _emit(export_presentation(ring, args.format), None)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "claim":
            if args.action == "list":
                return _cmd_claim_list()
            if args.action == "run":
                return _cmd_claim_run(args)
            return _cmd_claim_run_all(args)
        return _cmd_ring_export(args)
    except UsageError as err:
        print(f"ufdlab: {err}", file=sys.stderr)
        return 3
    except SystemExit as err:  # argparse --help and friends
        return int(err.code or 0)
    except Exception:  # a bug, not a verdict
        import traceback  # here, so that launching the CLI does not load it
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
