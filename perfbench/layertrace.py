"""Per-layer tracing of mvop from outside the package.

``install`` rebinds the public functions of each module (and every alias that
another mvop module imported with ``from .x import f``) to timing wrappers;
``uninstall`` puts the originals back. Spans are kept in memory and written
out once, after the run. Nothing under ``src/`` is changed.

A span records its name, its parent span, start and end, and the job it
belongs to (-1 while setting up). Self time is the span's duration minus the
time its child spans cover. ``Poly.__mul__`` is counted in aggregate (calls
and time) instead of one span per call; its time still counts as child time
of the enclosing span.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from mvop import catalog, cli, diffop, dsl, dwalgebra, exactalg, weights

MODULES = ("exactalg", "diffop", "weights", "dwalgebra", "catalog", "dsl", "cli")

_SEARCHES = ("dwalgebra.intertwiner_search", "dwalgebra.matrix_intertwiner_search")


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for v in row:
            v = Fraction(v)
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _nullspace_attrs(args, kwargs, result):
    rows, ncols = args[0], args[1]
    return {"rows": len(rows), "cols": ncols, "max_bits": _max_bits(rows), "rank": ncols - len(result)}


def _solve_attrs(args, kwargs, result):
    a, b = args[0], args[1]
    return {"cells": len(a) * (len(a) + len(b[0]))}


def _poly_attrs(args, kwargs, result):
    return {"n": args[1]}


def _entry_attrs(args, kwargs, result):
    return {"name": args[0]}


def _len_attrs(args, kwargs, result):
    return {"size": len(result)}


# (layer name, owner, attribute, attrs-from-call); an owner that is a class is
# patched in place, a module function is rebound in every mvop module that
# holds the same object
TARGETS = (
    ("exactalg.nullspace", exactalg, "nullspace", _nullspace_attrs),
    ("exactalg.solve_square", exactalg, "solve_square", _solve_attrs),
    ("exactalg.det", exactalg.FracMat, "det", None),
    ("exactalg.det", exactalg.MatRF, "det", None),
    ("exactalg.inv", exactalg.FracMat, "inv", None),
    ("exactalg.inv", exactalg.MatRF, "inverse", None),
    ("exactalg.nonneg_integer_roots", exactalg, "nonneg_integer_roots", None),
    ("diffop.apply", diffop, "apply", None),
    ("diffop.compose", diffop, "compose", None),
    ("diffop.w_adjoint", diffop, "w_adjoint", None),
    ("diffop.degree_preserving", diffop, "degree_preserving", None),
    ("weights.sequence_for", weights, "sequence_for", None),
    ("weights.opseq_poly", weights.OPSequence, "poly", _poly_attrs),
    ("weights.inner_product", weights, "inner_product", None),
    ("dwalgebra.verify_in_DW", dwalgebra, "verify_in_DW", None),
    ("dwalgebra.symmetry_check", dwalgebra, "symmetry_check", None),
    ("dwalgebra.darboux_verify", dwalgebra, "darboux_verify", None),
    ("dwalgebra.intertwiner_search", dwalgebra, "intertwiner_search", lambda a, k, r: {"size": r.dim}),
    ("dwalgebra.matrix_intertwiner_search", dwalgebra, "matrix_intertwiner_search", _len_attrs),
    ("dwalgebra.matrix_intertwiner_verify", dwalgebra, "matrix_intertwiner_verify", None),
    ("dwalgebra.fullness_check", dwalgebra, "fullness_check", None),
    ("catalog.entry", catalog, "entry", None),
    ("catalog.verify_entry", catalog, "verify_entry", _entry_attrs),
    ("dsl.parse_spec", dsl, "parse_spec", None),
    ("cli.run", cli, "run", None),
    ("cli.main", cli, "main", None),
)

# counted in aggregate: (layer name, class, attributes sharing one function)
AGGREGATES = (("exactalg.poly_mul", exactalg.Poly, ("__mul__", "__rmul__")),)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, self_s, job, attrs)
        self.agg_calls: dict[str, int] = defaultdict(int)
        self.agg_time: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._seen_sequences: set[int] = set()

    def span_wrapper(self, name, fn, attrs_of):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            attrs = attrs_of(args, kwargs, result) if attrs_of else None
            if name == "weights.sequence_for":
                attrs = {"hit": id(result) in tracer._seen_sequences}
                tracer._seen_sequences.add(id(result))
            tracer.spans.append((sid, parent, name, t0, t1, t1 - t0 - frame[1], tracer.job, attrs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate_wrapper(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, total = self.agg_calls, self.agg_time

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            if stack:
                stack[-1][1] += dt
            calls[name] += 1
            total[name] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _mvop_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "mvop" or n.startswith("mvop.")]


class Installation:
    """The rebinding of every traced function; ``undo`` restores them all."""

    def __init__(self, tracer: Tracer):
        self._undo: list[tuple] = []
        modules = _mvop_modules()
        for name, owner, attr, attrs_of in TARGETS:
            original = getattr(owner, attr)
            wrapped = tracer.span_wrapper(name, original, attrs_of)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, alias, wrapped)
        for name, cls, attrs in AGGREGATES:
            original = getattr(cls, attrs[0])
            wrapped = tracer.aggregate_wrapper(name, original)
            for attr in attrs:
                self._set(cls, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def any_installed() -> bool:
    """True when some traced function is currently a wrapper."""
    for _, owner, attr, _ in TARGETS:
        if hasattr(getattr(owner, attr), "__wrapped__"):
            return True
    for mod in _mvop_modules():
        for value in vars(mod).values():
            if callable(value) and hasattr(value, "__wrapped__"):
                return True
    return any(hasattr(getattr(cls, a), "__wrapped__") for _, cls, attrs in AGGREGATES for a in attrs)


def src_lines(src_dir: Path) -> dict[str, int]:
    out = {}
    for mod in MODULES:
        with open(src_dir / "mvop" / f"{mod}.py", encoding="utf-8") as fh:
            out[mod] = sum(1 for _ in fh)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, from the spans of one traced run."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    by_id = {}
    for span in tracer.spans:
        sid, _, name, _, _, st, _, _ = span
        calls[name] += 1
        self_s[name] += st
        by_id[sid] = span
    for name, n in tracer.agg_calls.items():
        calls[name] += n
        self_s[name] += tracer.agg_time[name]

    out: dict[str, float] = {}
    for name, _, _, _ in TARGETS + tuple((a[0], None, None, None) for a in AGGREGATES):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    null = [s[7] for s in tracer.spans if s[2] == "exactalg.nullspace"]
    out["exactalg.nullspace.cells"] = sum(a["rows"] * a["cols"] for a in null)
    out["exactalg.nullspace.max_bits"] = max((a["max_bits"] for a in null), default=0)
    rows = sum(a["rows"] for a in null)
    out["exactalg.nullspace.rank_per_row"] = sum(a["rank"] for a in null) / rows if rows else 0.0
    out["exactalg.solve_square.cells"] = sum(
        s[7]["cells"] for s in tracer.spans if s[2] == "exactalg.solve_square"
    )

    in_jobs = [s[7]["hit"] for s in tracer.spans if s[2] == "weights.sequence_for" and s[6] >= 0]
    out["weights.sequence_for.hit_ratio"] = sum(in_jobs) / len(in_jobs) if in_jobs else 0.0
    out["weights.opseq_poly.max_degree"] = max(
        (s[7]["n"] for s in tracer.spans if s[2] == "weights.opseq_poly"), default=0
    )

    # verified ratio: basis returned by a search / nullspace dimension found
    # by the elimination calls made inside that search
    found: dict[int, int] = defaultdict(int)
    for sid, parent, name, _, _, _, _, attrs in tracer.spans:
        if name != "exactalg.nullspace":
            continue
        while parent >= 0 and by_id[parent][2] not in _SEARCHES:
            parent = by_id[parent][1]
        if parent >= 0:
            found[parent] += attrs["cols"] - attrs["rank"]
    returned = sum(by_id[sid][7]["size"] for sid in found)
    total_found = sum(found.values())
    out["dwalgebra.search.verified_ratio"] = returned / total_found if total_found else 0.0

    per_entry: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        if s[2] == "catalog.verify_entry":
            per_entry[s[7]["name"]].append(s[4] - s[3])
    for entry_name in catalog.ENTRY_NAMES:
        ts = per_entry.get(entry_name)
        out[f"catalog.verify_entry.{entry_name}.p50_s"] = statistics.median(ts) if ts else 0.0
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    """All spans as JSON lines (times relative to the first span start)."""
    base = min((s[3] for s in tracer.spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1, st, job, attrs in tracer.spans:
            rec = {"id": sid, "parent": parent, "name": name, "start": t0 - base,
                   "end": t1 - base, "self": st, "job": job}
            if attrs:
                rec["attrs"] = attrs
            fh.write(json.dumps(rec) + "\n")
        for name, n in tracer.agg_calls.items():
            fh.write(json.dumps({"aggregate": name, "calls": n, "time": tracer.agg_time[name]}) + "\n")
