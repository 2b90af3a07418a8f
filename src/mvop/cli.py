"""Command dispatch and machine-readable reports.

Checks run in declaration order; every engine error becomes a failed check
carrying the error class, never a crash. The process exit status is 0 exactly
when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .exactalg import DecompositionError, DomainError, frac, poly_str
from .diffop import Verdict
from .dsl import LIMIT, CheckCommand, ParseError, SpecDocument, parse_spec
from . import catalog as _catalog
from . import dwalgebra as _dw

_STATUS_PASS = "pass"
_STATUS_FAIL = "fail"
_STATUS_ERROR = "error"


def _status(ok: bool) -> str:
    return _STATUS_PASS if ok else _STATUS_FAIL


def _result(name, kind, status, detail, seconds):
    return {
        "name": name,
        "kind": kind,
        "status": status,
        "detail": detail,
        "time_ms": round(seconds * 1000, 3),
    }


def _outcome(kind: str, vals: list, opts: dict, n_max: int):
    """The result of one check: a Verdict, or a Report of named verdicts."""
    nmax = opts.get("nmax", n_max)
    if kind == "in_algebra":
        return _dw.verify_in_DW(*vals, nmax)
    if kind == "symmetric":
        return _dw.symmetry_check(*vals)
    if kind == "darboux":
        return _dw.darboux_verify(_dw.DarbouxCertificate(*vals, n_max))
    if kind == "intertwine":
        v = _dw.intertwiner_verify(*vals, nmax)
        if v.ok:
            v.detail = "lambda_n = " + ", ".join(str(c.entry(0, 0)) for c in v.eigs[:6])
        return v
    if kind == "search":
        basis = _dw.intertwiner_search(*vals, opts["order"], n_horizon=opts.get("horizon"))
        if "dim" not in opts:
            return Verdict(True, basis.describe())
        detail = f"{basis.describe()} (dim {basis.dim}, expected {opts['dim']})"
        return Verdict(basis.dim == opts["dim"], detail)
    if kind == "decompose":
        try:
            return Verdict(True, f"p(t) = {poly_str(_dw.module_decompose(*vals))}")
        except DecompositionError as exc:
            return Verdict(False, str(exc))
    if kind == "classify":
        got = _dw.scalar_darboux_class(*vals)
        return Verdict(got == opts.get("expect", got), f"darboux-related: {'true' if got else 'false'}")
    if kind == "entry":
        return _catalog.verify_entry(vals[0], None, n_max)
    raise ValueError(f"unhandled check kind {kind}")


def _rows(label: str, kind: str, check) -> list[dict]:
    """The result rows of one check: a Report's checks, one row for a Verdict,
    or one error row carrying the class of the engine error raised."""
    t0 = time.monotonic()
    try:
        out = check()
    except Exception as exc:  # engine errors become failed checks
        return [_result(label, kind, _STATUS_ERROR, f"{type(exc).__name__}: {exc}", time.monotonic() - t0)]
    if isinstance(out, Verdict):
        return [_result(label, kind, _status(out.ok), out.detail, time.monotonic() - t0)]
    return [_result(f"{label}: {c.name}", kind, _status(c.ok), c.detail, c.seconds) for c in out.checks]


def _run_check(cmd: CheckCommand, n_max: int) -> list[dict]:
    vals = [a.value for a in cmd.args]
    return _rows(cmd.label(), cmd.kind, lambda: _outcome(cmd.kind, vals, cmd.options, n_max))


def _report(checks: list[dict], n_max: int) -> dict:
    return {
        "tool": "mvop",
        "version": __version__,
        "nmax": n_max,
        "ok": all(c["status"] == _STATUS_PASS for c in checks),
        "checks": checks,
    }


def run(doc: SpecDocument, n_max: int = 8) -> dict:
    """Execute a document's checks and assemble the JSON-ready report."""
    checks: list[dict] = []
    for cmd in doc.checks:
        checks.extend(_run_check(cmd, n_max))
    return _report(checks, n_max)


def _emit(report: dict, fmt: str, out_path: str | None) -> int | None:
    """Print or write the report; 2 when the file cannot be written."""
    if fmt == "json":
        text = json.dumps(report, indent=2)
    else:
        lines = []
        for c in report["checks"]:
            mark = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}[c["status"]]
            detail = f"  [{c['detail']}]" if c["detail"] else ""
            lines.append(f"{mark:5s} {c['name']}{detail}")
        lines.append(
            f"{'OK' if report['ok'] else 'FAILED'}: "
            f"{sum(1 for c in report['checks'] if c['status'] == 'pass')}"
            f"/{len(report['checks'])} checks passed (nmax={report['nmax']})"
        )
        text = "\n".join(lines)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return None


def _parse_params(s: str | None) -> dict[str, Fraction]:
    if not s:
        return {}
    out = {}
    for piece in s.split(","):
        piece = piece.strip()
        if not piece:
            continue
        k, eq, v = (t.strip() for t in piece.partition("="))
        if not (eq and k.isascii() and k.isidentifier()):  # a DSL name: [A-Za-z_][A-Za-z0-9_]*
            raise ValueError(f"bad --params entry {piece!r}, expected name=value")
        if k in out:
            raise ValueError(f"--params names {k!r} more than once")
        if not v.isascii():
            # Fraction() reads any script's digits; the DSL reads ASCII only
            raise ValueError(f"--params value {v!r} for {k!r} is not ASCII")
        out[k] = frac(v)
    return out


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process:
    parsing leaves it unchanged, and building it costs more than most checks."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = argparse.ArgumentParser(
        prog="mvop",
        description="exact verification engine for matrix differential operators, "
        "matrix orthogonal polynomials, and Darboux transformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--nmax", type=int, default=8, help="verification horizon (default 8)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the checks of a .mvop document")
    p_verify.add_argument("file")
    p_verify.add_argument("--params", default=None, help="override document parameters, k=v,...")
    add_common(p_verify)

    p_entry = sub.add_parser("entry", help="verify a catalog entry end to end")
    p_entry.add_argument("name", choices=_catalog.ENTRY_NAMES)
    p_entry.add_argument("--params", default=None, help="override entry parameters, k=v,...")
    add_common(p_entry)

    p_search = sub.add_parser("search", help="search scalar intertwiners between two weights")
    p_search.add_argument("w1", help="e.g. 'laguerre(alpha=1/2)'")
    p_search.add_argument("w2")
    p_search.add_argument("--order", type=int, required=True)
    add_common(p_search)

    p_classify = sub.add_parser("classify", help="decide the Darboux class of two scalar weights")
    p_classify.add_argument("w1")
    p_classify.add_argument("w2")
    add_common(p_classify)

    _PARSER = parser
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not 0 <= args.nmax <= LIMIT:
        print(f"bad horizon: --nmax {args.nmax} outside 0..{LIMIT}", file=sys.stderr)
        return 2

    # reading the input and admitting its parameters: a failure here is a
    # usage error (exit 2); nothing below this block is caught here
    try:
        if args.command == "entry":
            e = _catalog.entry(args.name, _parse_params(args.params))
        elif args.command == "verify":
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = parse_spec(fh.read(), _parse_params(args.params))
        elif args.command == "search":
            doc = parse_spec(f"check search({args.w1.strip()}, {args.w2.strip()}, order={args.order})\n")
        else:
            doc = parse_spec(f"check classify({args.w1.strip()}, {args.w2.strip()})\n")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, DomainError) as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 2

    if args.command == "entry":
        checks = _rows(f"entry({args.name})", "entry", lambda: _catalog.check_entry(e, args.nmax))
        report = _report(checks, args.nmax)
    else:
        report = run(doc, args.nmax)
    return _emit(report, args.format, args.out) or (0 if report["ok"] else 1)


if __name__ == "__main__":
    sys.exit(main())
