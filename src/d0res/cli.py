"""Command-line interface.

    d0res analyze <file> [--rank R]... [--truncation N] [--strict]
                         [--format json|text] [--output PATH]
    d0res corpus <dir> [--update-golden]
    d0res oracle <file>

Exit codes: 0 success, 1 certificate failure under --strict (or corpus/golden
mismatch), 2 input error, 3 unsupported field extension.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import __version__
from .errors import D0resError, InputError, UnsupportedFieldExtension
from .report import (
    _oracle_block,
    assemble_report,
    check_ranks,
    check_truncation,
    emit_report,
    parse_request,
    report_passes,
    run_analyze,
    run_with_escalation,
)
from .verify import ORACLE_MAX_RANK, aggregate_critical_rank

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED_FIELD = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="d0res",
        description="certify punctual-module separation data for curve germs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one germ and emit a report")
    p_an.add_argument("file", help="JSON request file ('-' for stdin)")
    p_an.add_argument("--rank", action="append", type=int, default=None,
                      help="rank to certify (repeatable; default r0..r0+2)")
    p_an.add_argument("--truncation", type=int, default=None,
                      help="starting series truncation")
    p_an.add_argument("--strict", action="store_true",
                      help="exit 1 when any requested certificate fails")
    p_an.add_argument("--format", choices=("json", "text"), default=None,
                      help="override the report format")
    p_an.add_argument("--output", default=None, help="write the report here")

    p_co = sub.add_parser("corpus", help="run every request in a directory")
    p_co.add_argument("dir", help="directory of JSON request files")
    p_co.add_argument("--update-golden", action="store_true",
                      help="write golden snapshots instead of comparing")

    p_or = sub.add_parser("oracle", help="run the construction oracles only")
    p_or.add_argument("file", help="JSON request file ('-' for stdin)")
    return parser


def _load_request(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "rb") as fh:
                text = fh.read().decode()
        obj = json.loads(text)
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(path, f"invalid JSON: {exc}")
    return parse_request(obj)


def _apply_overrides(req, args):
    """Command-line values replace the request's, under the same rules."""
    if args.rank is not None:
        check_ranks(args.rank)
        req.ranks = list(args.rank)
        req.echo["ranks"] = list(args.rank)
    if args.truncation is not None:
        check_truncation(args.truncation)
        req.truncation = args.truncation
        req.echo["truncation"] = args.truncation
    if args.format:
        req.fmt = args.format
        req.echo["format"] = args.format
    return req


def cmd_analyze(args) -> int:
    req = _apply_overrides(_load_request(args.file), args)
    report = run_analyze(req)
    blob = emit_report(report, req.fmt)
    if args.output:
        _atomic_write(args.output, blob)
    else:
        sys.stdout.buffer.write(blob)
    if args.strict and not report_passes(report):
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_corpus(args) -> int:
    directory = args.dir
    if not os.path.isdir(directory):
        raise InputError(directory, "not a directory")
    names = sorted(
        f for f in os.listdir(directory)
        if f.endswith(".json") and os.path.isfile(os.path.join(directory, f))
    )
    if not names:
        raise InputError(directory, "no request files found")
    golden_dir = os.path.join(directory, "golden")

    failures = 0
    germs = []
    for name in names:
        req = _load_request(os.path.join(directory, name))
        req.fmt = "json"
        req.echo["format"] = "json"
        germ, report = run_with_escalation(
            req, lambda g, c, t, r: (g, assemble_report(req, g, c, t, r)))
        blob = emit_report(report, "json")
        golden_path = os.path.join(golden_dir, name)
        if args.update_golden:
            os.makedirs(golden_dir, exist_ok=True)
            _atomic_write(golden_path, blob)
            status = "written"
        elif not os.path.exists(golden_path):
            status = "missing golden"
            failures += 1
        else:
            with open(golden_path, "rb") as fh:
                status = "ok" if fh.read() == blob else "DIFFERS"
            if status == "DIFFERS":
                failures += 1
        passes = report_passes(report)
        if not passes:
            failures += 1
        print(f"{name}: r0={report['germ']['r0']} "
              f"{'pass' if passes else 'FAIL'} golden={status}")
        germs.append(germ)
    agg = aggregate_critical_rank(germs)
    print(f"aggregate: l0={agg['l0']} r0={agg['r0']} "
          f"per-germ r0={agg['per_germ_r0']}")
    return EXIT_VERIFICATION_FAILED if failures else EXIT_OK


def cmd_oracle(args) -> int:
    req = _load_request(args.file)

    def stage(germ, ctx, trunc, ranks):
        oracles = _oracle_block(germ, ORACLE_MAX_RANK)
        checks = [ok for row in oracles["pushforward_restriction"]
                  for ok in row["results"].values()]
        checks += [row["matches_l_matrix"]
                   for row in oracles["colength_crosscheck"]]
        return {"version": __version__, "truncation": trunc, **oracles,
                "pass": all(checks)}

    out = run_with_escalation(req, stage)
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return EXIT_OK if out["pass"] else EXIT_VERIFICATION_FAILED


def _atomic_write(path, blob: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".d0res-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "corpus":
            return cmd_corpus(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        parser.error("unknown command")
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except UnsupportedFieldExtension as exc:
        print(f"unsupported field extension: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_FIELD
    except D0resError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
