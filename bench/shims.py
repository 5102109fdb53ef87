"""Timing shims around the public functions of each ircur layer.

The benchmark measures layers from the outside: it replaces each target
function with a wrapper that records a span (name, start, end, parent span,
run id) and reads the ``matcore.ALLOCATIONS`` meter at both ends.  Targets
are found by identity: every attribute of every loaded ``ircur.*`` module,
and of every class defined there, that *is* the original function object is
replaced, so names imported with ``from .matcore import ...`` are wrapped
too.  A target that no longer exists is recorded in ``Tracer.missing`` and
the metrics that need it are reported as missing; nothing crashes.

Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# span name -> "module:qualified.name" of the function it wraps
TARGETS = {
    "matcore.submatrix": "ircur.matcore:submatrix",
    "matcore.truncated_svd": "ircur.matcore:truncated_svd",
    "matcore.frob_norm": "ircur.matcore:frob_norm",
    "matcore.apply_left": "ircur.matcore:PinvFactor.apply_left",
    "matcore.apply_right": "ircur.matcore:PinvFactor.apply_right",
    "matcore.require_finite": "ircur.matcore:require_finite",
    "matcore.inf_norm": "ircur.matcore:inf_norm",
    "matcore.qr_thin": "ircur.matcore:qr_thin",
    "sampling.sample_indices": "ircur.sampling:sample_indices",
    "solver.solve": "ircur.solver:solve",
    "convert.cur_to_svd": "ircur.convert:cur_to_svd",
    "synth.gen_low_rank": "ircur.synth:gen_low_rank",
    "synth.gen_sparse": "ircur.synth:gen_sparse",
    "synth.success_check": "ircur.synth:success_check",
    "mio.read_matrix": "ircur.mio:read_matrix",
    "mio.write_matrix": "ircur.mio:write_matrix",
    "cli.main": "ircur.cli:main",
}
METER = "ircur.matcore:ALLOCATIONS"
SPAN_KEYS = ("name", "start", "end", "parent", "run", "alloc0", "alloc1", "info")

# Per-run metric -> span names it needs (for naming what a missing target hides).
NEEDS = {
    "matcore.gather_rows.ms": ["matcore.submatrix"],
    "matcore.gather_cols.ms": ["matcore.submatrix"],
    "matcore.gather.bytes": ["matcore.submatrix"],
    "matcore.truncated_svd.ms": ["matcore.truncated_svd"],
    "matcore.frob_norm.ms": ["matcore.frob_norm"],
    "matcore.pinv_apply.ms": ["matcore.apply_left", "matcore.apply_right"],
    "matcore.entry_scan.ms": ["matcore.require_finite", "matcore.inf_norm"],
    "matcore.qr_thin.ms": ["matcore.qr_thin"],
    "matcore.alloc_units_per_iter": ["solver.solve", "meter"],
    "sampling.sample_indices.ms": ["sampling.sample_indices"],
    "sampling.rows": ["solver.solve"],
    "sampling.cols": ["solver.solve"],
    "solver.solve.s": ["solver.solve"],
    "solver.self_ms_per_iter": ["solver.solve"],
    "solver.iterations": ["solver.solve"],
    "solver.effective_rank": ["solver.solve"],
    "convert.cur_to_svd.ms": ["convert.cur_to_svd"],
    "synth.generate.ms": ["synth.gen_low_rank", "synth.gen_sparse"],
    "synth.success_check.ms": ["synth.success_check"],
    "mio.read_matrix.s": ["mio.read_matrix"],
    "mio.write_matrix.ms": ["mio.write_matrix"],
    "mio.read.bytes": ["mio.read_matrix"],
}


def resolve(spec: str):
    """The object named by ``"module:qual.name"``, or None if it is gone."""
    modname, qual = spec.split(":")
    try:
        obj = importlib.import_module(modname)
    except ImportError:
        return None
    for part in qual.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _submatrix_info(args, kwargs, out):
    rows = kwargs.get("rows", args[1] if len(args) > 1 else None)
    cols = kwargs.get("cols", args[2] if len(args) > 2 else None)
    kind = "block" if rows is not None and cols is not None else (
        "rows" if rows is not None else "cols" if cols is not None else "all")
    return {"kind": kind, "bytes": int(out.nbytes)}


def _solve_info(args, kwargs, out):
    cur, _, trace = out
    rows = getattr(trace, "sampled_rows", None)
    cols = getattr(trace, "sampled_cols", None)
    return {
        "iterations": int(trace.iterations),
        "converged": bool(trace.converged),
        "effective_rank": int(cur.core_pinv.effective_rank),
        "rows": statistics.median(rows) if rows else None,
        "cols": statistics.median(cols) if cols else None,
    }


def _read_info(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


INFO = {
    "matcore.submatrix": _submatrix_info,
    "solver.solve": _solve_info,
    "mio.read_matrix": _read_info,
}


class Tracer:
    """Span recorder plus the shims that feed it (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # one list per span, fields as in SPAN_KEYS
        self.run = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._meter = None

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records a span called ``name``."""
        info = INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            meter = self._meter
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run,
                   meter.count if meter else 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[6] = meter.count if meter else 0
            if info is not None:
                try:
                    rec[7] = info(args, kwargs, out)
                except (AttributeError, TypeError, ValueError):
                    rec[7] = {}  # the result changed shape; its counts go missing
            return out

        return shim

    def install(self) -> None:
        """Replace every reference to each target inside loaded ircur modules."""
        originals = {}
        self.missing = []
        for name, spec in TARGETS.items():
            fn = resolve(spec)
            if fn is None or not callable(fn):
                self.missing.append(f"{name} ({spec})")
            else:
                originals[id(fn)] = (fn, self.span(name, fn))
        self._meter = resolve(METER)
        if self._meter is None:
            self.missing.append(f"meter ({METER})")
        for modname, mod in list(sys.modules.items()):
            if modname != "ircur" and not modname.startswith("ircur."):
                continue
            owners = [mod] + [
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__.startswith("ircur")
            ]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    hit = originals.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(owner, attr, hit[1])
                        self._undo.append((owner, attr, val))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def missing_metrics(self) -> dict[str, list[str]]:
        """Metric name -> the missing targets it needs."""
        gone = {m.split(" ")[0] for m in self.missing}
        return {
            metric: [n for n in needs if n in gone]
            for metric, needs in NEEDS.items()
            if any(n in gone for n in needs)
        }

    def dump(self, path) -> None:
        doc = {"missing": self.missing, "spans": [dict(zip(SPAN_KEYS, s)) for s in self.spans]}
        Path(path).write_text(json.dumps(doc))

    def absorb(self, path, run: int) -> None:
        """Append the spans another process dumped to ``path``, as run ``run``."""
        doc = json.loads(Path(path).read_text())
        offset = len(self.spans)
        for d in doc["spans"]:
            s = [d[k] for k in SPAN_KEYS]
            s[3] = s[3] + offset if s[3] >= 0 else -1
            s[4] = run
            self.spans.append(s)
        self.missing = sorted(set(self.missing) | set(doc["missing"]))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, edge = 0.0, start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], edge), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(end - start - covered)
    return out


def per_run(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per run id: summed layer metrics (ms unless the name says otherwise).

    Layer self times (``<layer>.self_ms``) count every span of the run; the
    matcore kernel metrics other than ``qr_thin`` count only spans inside a
    ``solver.solve`` span, so they are per solve even when a check or a
    conversion calls the same kernels afterwards.
    """
    selfs = self_times(spans)
    in_solve = [False] * len(spans)
    child_sum = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        in_solve[i] = p >= 0 and (spans[p][0] == "solver.solve" or in_solve[p])
        if p >= 0:
            child_sum[p] += s[2] - s[1]
    runs: dict[int, dict[str, float]] = {}
    for s, self_s, inside, kids in zip(spans, selfs, in_solve, child_sum):
        name, start, end, _, run, a0, a1, info = s
        m = runs.setdefault(run, {})
        dur_ms = (end - start) * 1e3

        def add(key, v):
            m[key] = m.get(key, 0.0) + v

        add(f"{name.split('.')[0]}.self_ms", self_s * 1e3)
        info = info or {}
        if name == "solver.solve":
            add("solver.solve.s", dur_ms / 1e3)
            add("solver.children_ms", kids * 1e3)
            if "iterations" in info:
                its = max(info["iterations"], 1)
                add("solver.self_ms_per_iter", self_s * 1e3 / its)
                add("solver.iterations", info["iterations"])
                add("solver.effective_rank", info["effective_rank"])
                add("matcore.alloc_units_per_iter", (a1 - a0) / its)
            if info.get("rows") is not None:
                add("sampling.rows", info["rows"])
                add("sampling.cols", info["cols"])
        elif name in ("synth.gen_low_rank", "synth.gen_sparse"):
            add("synth.generate.ms", dur_ms)
        elif name == "mio.read_matrix":
            add("mio.read_matrix.s", dur_ms / 1e3)
            if "bytes" in info:
                add("mio.read.bytes", info["bytes"])
        elif name.startswith("matcore.") and name != "matcore.qr_thin":
            if not inside:
                continue
            if name == "matcore.submatrix" and "kind" in info:
                add(f"matcore.gather_{info['kind']}.ms", dur_ms)
                add("matcore.gather.bytes", info["bytes"])
            elif name in ("matcore.apply_left", "matcore.apply_right"):
                add("matcore.pinv_apply.ms", dur_ms)
            elif name in ("matcore.require_finite", "matcore.inf_norm"):
                add("matcore.entry_scan.ms", dur_ms)
            else:
                add(f"{name}.ms", dur_ms)
        else:
            add(f"{name}.ms", dur_ms)
    return runs
