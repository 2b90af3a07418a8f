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
from .exactalg import DecompositionError, DomainError, frac
from .dsl import LIMIT, CheckCommand, ParseError, SpecDocument, parse_spec
from . import catalog as _catalog
from . import dwalgebra as _dw

_STATUS_PASS = "pass"
_STATUS_FAIL = "fail"
_STATUS_ERROR = "error"


def _result(name, kind, status, detail, seconds):
    return {
        "name": name,
        "kind": kind,
        "status": status,
        "detail": detail,
        "time_ms": round(seconds * 1000, 3),
    }


def _flatten_report(label: str, kind: str, rep: _dw.Report) -> list[dict]:
    return [
        _result(f"{label}: {c.name}", kind, _STATUS_PASS if c.ok else _STATUS_FAIL, c.detail, c.seconds)
        for c in rep.checks
    ]


def _run_check(cmd: CheckCommand, n_max: int) -> list[dict]:
    label = cmd.label()
    t0 = time.monotonic()
    kind = cmd.kind
    vals = [a.value for a in cmd.args]
    opts = cmd.options

    def one(status, detail=""):
        if isinstance(status, bool):
            status = _STATUS_PASS if status else _STATUS_FAIL
        return [_result(label, kind, status, detail, time.monotonic() - t0)]

    try:
        if kind == "in_algebra":
            rep = _dw.verify_in_DW(vals[0], vals[1], opts.get("nmax", n_max))
            return one(rep.ok, rep.detail)
        if kind == "symmetric":
            rep = _dw.symmetry_check(vals[0], vals[1])
            return one(rep.ok, "" if rep.ok else f"residual at coefficient index k in {sorted(rep.residuals)}")
        if kind == "darboux":
            cert = _dw.DarbouxCertificate(vals[0], vals[1], vals[2], vals[3], vals[4], n_max)
            return _flatten_report(label, kind, _dw.darboux_verify(cert))
        if kind == "intertwine":
            rep = _dw.intertwiner_verify(vals[0], vals[1], vals[2], opts.get("nmax", n_max))
            detail = (
                "lambda_n = " + ", ".join(str(v) for v in rep.lambdas[: min(6, len(rep.lambdas))])
                if rep.ok
                else rep.detail
            )
            return one(rep.ok, detail)
        if kind == "search":
            basis = _dw.intertwiner_search(
                vals[0],
                vals[1],
                opts["order"],
                opts.get("slack", 0),
                opts.get("horizon"),
            )
            detail = basis.describe()
            ok = True
            if "dim" in opts:
                ok = basis.dim == opts["dim"]
                detail += f" (dim {basis.dim}, expected {opts['dim']})"
            return one(ok, detail)
        if kind == "decompose":
            try:
                p = _dw.module_decompose(vals[0], vals[1], vals[2])
                from .exactalg import poly_str

                return one(True, f"p(t) = {poly_str(p)}")
            except DecompositionError as exc:
                return one(False, str(exc))
        if kind == "classify":
            got = _dw.scalar_darboux_class(vals[0], vals[1])
            ok = True
            detail = f"darboux-related: {'true' if got else 'false'}"
            if "expect" in opts:
                ok = got == opts["expect"]
            return one(ok, detail)
        if kind == "entry":
            return _entry_checks(label, lambda: _catalog.verify_entry(vals[0], None, n_max))
        return one(_STATUS_ERROR, f"unhandled check kind {kind}")
    except Exception as exc:  # engine errors become failed checks
        return one(_STATUS_ERROR, f"{type(exc).__name__}: {exc}")


def _entry_checks(label: str, verify) -> list[dict]:
    """The checks of an entry's report, or one error check carrying the class
    of the engine error raised while they ran."""
    t0 = time.monotonic()
    try:
        return _flatten_report(label, "entry", verify())
    except Exception as exc:  # engine errors become failed checks
        return [_result(label, "entry", _STATUS_ERROR, f"{type(exc).__name__}: {exc}", time.monotonic() - t0)]


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
        if "=" not in piece:
            raise ValueError(f"bad --params entry {piece!r}, expected name=value")
        k, v = piece.split("=", 1)
        out[k.strip()] = frac(v.strip())
    return out


def main(argv=None) -> int:
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
    p_search.add_argument("--slack", type=int, default=0, help=f"coefficient degree slack, 0..{LIMIT} (default 0)")
    add_common(p_search)

    p_classify = sub.add_parser("classify", help="decide the Darboux class of two scalar weights")
    p_classify.add_argument("w1")
    p_classify.add_argument("w2")
    add_common(p_classify)

    args = parser.parse_args(argv)
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
            doc = parse_spec(
                f"check search({args.w1.strip()}, {args.w2.strip()}, "
                f"order={args.order}, slack={args.slack})\n"
            )
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
        checks = _entry_checks(f"entry({args.name})", lambda: _catalog.check_entry(e, args.nmax))
        report = _report(checks, args.nmax)
    else:
        report = run(doc, args.nmax)
    return _emit(report, args.format, args.out) or (0 if report["ok"] else 1)


if __name__ == "__main__":
    sys.exit(main())
