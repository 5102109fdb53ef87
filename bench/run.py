#!/usr/bin/env python3
"""The ircur benchmark: three workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload large-fixed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a source checkout; it puts ``src/`` on the import
path, so nothing has to be installed.  Every input is built from
``--seed`` by the benchmark's own numpy code, so the benchmark knows the
true low-rank part ``L`` while the program only ever sees ``D`` (or a BIN
file holding ``D``).  All traffic is a closed loop: one caller, serial, one
operation at a time, BLAS left at its default thread count.

Workloads (why each exists is in BENCHMARK.json):

* ``large-fixed``: library ``solve()`` on a C-order n=8000 ``D``, mode
  ``fixed``, ``zeta0 = 2 max|L|``, a new solver seed per solve.
* ``file-resampled``: ``python -m ircur solve data.bin --mode resampled
  --svd`` on an n=6000 BIN file, a fresh process per command.
* ``grid-small``: phase-transition traffic at n=300, rounds over
  c in {1,2,4} x alpha in {0.1,0.2,0.3} x both modes, each trial running
  ``gen_low_rank`` + ``gen_sparse``, ``solve`` and ``success_check``.

``--trace 0`` measures end to end with no shims for ``--seconds``.
``--trace 1`` follows each untraced operation at once with a replay of it
under the timing shims of ``shims.py``, for ``--seconds`` in all; per-layer
numbers come from the replays' spans, and ``trace.overhead_pct`` compares
the two passes.

Declared end-to-end metrics (every workload reports each of them):

* ``setup_s``: median of three set-ups: building ``D`` (large-fixed),
  building ``D`` and writing the BIN file (file-resampled), a fresh
  interpreter importing ircur (grid-small).
* ``solve_s``: median wall time of one solve: library ``solve()`` on
  large-fixed and grid-small (grid: median of the per-cell medians), the
  whole ``ircur solve`` command on file-resampled.
* ``iter_ms``: median steady iteration, the gap between consecutive
  ``observer`` callbacks; on file-resampled, rows 2.. of the command's
  ``trace.csv``.
* ``peak_rss_mb``: ``ru_maxrss`` of this process (library workloads, so
  ``D`` is included) or of the CLI commands (``RUSAGE_CHILDREN``).
* ``ops_per_s``: checked solves, commands or trials per second, each
  operation (each grid cell's trials) taken at its median wall time, so a
  few slow outliers do not move it.
* ``recovery_rate``: share of operations whose estimate passes its check.

The report also prints ``solve_s_p90``, ``first_iter_ms``, ``iter_ms_p90``,
``command_s``, ``trials_per_s``, ``false_converged_rate``, ``error_rate``
and the layer metrics that only some workloads exercise; BENCHMARK.json
cannot declare them because they are 0, not applicable, or too noisy on
some workload.

Every metric of every workload is printed as ``<workload> <name> <value>
<unit>`` (or ``n/a``), then an environment line, then, as the last line, the
JSON result holding the metrics BENCHMARK.json declares.  The exit code is
non-zero, with no result, when the ircur sources are not present.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

from shims import Tracer, per_run  # noqa: E402

SUCCESS_TOL = 1e-3  # relative Frobenius error that counts as recovered
HELDOUT = 64        # held-out rows and columns per check
BLOCK = 500         # rows per generation block (keeps temporaries slab-sized)
CHILD_TIMEOUT = 170  # seconds before a CLI command is killed


@dataclass(frozen=True)
class Sizes:
    """One workload's problem: ``setups`` builds of the inputs give setup_s;
    ``ladder`` holds the smaller n that solver.iter_slope also solves."""

    n: int
    rank: int = 5
    alpha: float = 0.1
    c: float = 4.0
    setups: int = 3
    ladder: tuple[int, ...] = ()


WORKLOADS = ("large-fixed", "file-resampled", "grid-small")
SIZES = {
    "large-fixed": Sizes(8000, ladder=(1000, 2000, 4000)),
    "file-resampled": Sizes(6000),
    "grid-small": Sizes(300),
}
GRID_C = (1.0, 2.0, 4.0)
GRID_ALPHA = (0.1, 0.2, 0.3)
GRID_MODES = ("fixed", "resampled")
GRID_MAX_ITER = 60

# Every metric the benchmark knows, with its unit, in report order.
END_TO_END = {
    "setup_s": "s", "solve_s": "s", "solve_s_p90": "s", "first_iter_ms": "ms",
    "iter_ms": "ms", "iter_ms_p90": "ms", "command_s": "s", "peak_rss_mb": "MB",
    "ops_per_s": "1/s", "trials_per_s": "1/s", "recovery_rate": "ratio",
    "false_converged_rate": "ratio", "error_rate": "ratio",
}
PER_LAYER = {
    "matcore.gather_rows.ms": "ms", "matcore.gather_cols.ms": "ms",
    "matcore.gather.bytes": "bytes", "matcore.truncated_svd.ms": "ms",
    "matcore.frob_norm.ms": "ms", "matcore.pinv_apply.ms": "ms",
    "matcore.entry_scan.ms": "ms", "matcore.qr_thin.ms": "ms",
    "matcore.alloc_units_per_iter": "count", "matcore.self_ms": "ms",
    "sampling.sample_indices.ms": "ms", "sampling.rows": "count",
    "sampling.cols": "count", "sampling.self_ms": "ms",
    "solver.solve.s": "s", "solver.self_ms_per_iter": "ms",
    "solver.iterations": "count", "solver.effective_rank": "count",
    "solver.iter_slope": "ratio", "solver.self_ms": "ms",
    "solver.accounted_pct": "%",
    "convert.cur_to_svd.ms": "ms", "convert.self_ms": "ms",
    "synth.generate.ms": "ms", "synth.success_check.ms": "ms", "synth.self_ms": "ms",
    "mio.read_matrix.s": "s", "mio.write_matrix.ms": "ms", "mio.read.bytes": "bytes",
    "mio.self_ms": "ms", "cli.startup_s": "s", "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}
# Metrics (or layer prefixes ending in ".") a workload does not exercise.
NOT_APPLICABLE = {
    "large-fixed": ("command_s", "trials_per_s", "matcore.qr_thin.ms",
                    "convert.", "synth.", "mio.", "cli."),
    "file-resampled": ("trials_per_s", "solver.iter_slope", "synth."),
    "grid-small": ("command_s", "matcore.qr_thin.ms", "solver.iter_slope",
                   "convert.", "mio.", "cli."),
}


def applicable(workload: str, metric: str) -> bool:
    return not any(metric == na or (na.endswith(".") and metric.startswith(na))
                   for na in NOT_APPLICABLE[workload])


# ---------------------------------------------------------------- accounting


@dataclass
class Tally:
    """Operations attempted, failed, recovered and falsely converged.

    An operation fails when it raises, exits non-zero, returns non-finite
    factors, or (where a miss is a failure) fails its recovery check.
    """

    attempted: int = 0
    failed: int = 0
    recovered: int = 0
    false_converged: int = 0

    def record(self, ok: bool, recovered: bool, converged: bool, miss_fails: bool) -> None:
        self.attempted += 1
        recovered = bool(ok and recovered)
        self.recovered += recovered
        self.false_converged += ok and converged and not recovered
        self.failed += (not ok) or (miss_fails and not recovered)


class Grouped(dict):
    """Timings by group: a grid cell on grid-small, one group elsewhere.

    The median is the median of the per-group medians.  The grid runs whole
    rounds of 18 unlike cells, so the median of the pooled trials would sit
    in the gap between the 9th and 10th cells and swing with their extremes.
    """

    def add(self, group: int, *values: float) -> None:
        self.setdefault(group, []).extend(values)

    def flat(self) -> list[float]:
        return [v for g in sorted(self) for v in self[g]]

    def median(self):
        return statistics.median(statistics.median(v) for v in self.values()) if self else None

    def typical_rate(self):
        """Values per unit of their sum, each group at its median."""
        return (sum(len(v) for v in self.values())
                / sum(len(v) * statistics.median(v) for v in self.values()))

    def p90(self):
        return float(np.percentile(self.flat(), 90)) if self else None


@dataclass
class Samples:
    """Raw timings of one pass over a workload."""

    group: int = 0
    op_s: Grouped = field(default_factory=Grouped)     # the solve or command alone
    wall_s: Grouped = field(default_factory=Grouped)   # the whole checked operation
    first_ms: Grouped = field(default_factory=Grouped)
    gaps_ms: Grouped = field(default_factory=Grouped)


# ---------------------------------------------------------------- inputs


def low_rank_data(size: Sizes, seed: int, n: int | None = None, transpose: bool = False):
    """``D = A B^T + S`` in C order, built in row blocks.

    S corrupts each entry independently with probability alpha, with values
    uniform on [-a, a], a = mean |L|.  With ``transpose`` the returned array
    is ``D^T`` in C order, i.e. ``D``'s column-major payload.  Returns
    ``(D or D^T, A, B, max|L|)``.
    """
    n = size.n if n is None else n
    rng = np.random.default_rng([seed, n])
    A = rng.standard_normal((n, size.rank))
    B = rng.standard_normal((n, size.rank))
    left, right = (B, A) if transpose else (A, B)
    M = np.empty((n, n))
    abs_sum, l_max = 0.0, 0.0
    for lo in range(0, n, BLOCK):
        blk = M[lo : lo + BLOCK]
        np.matmul(left[lo : lo + BLOCK], right.T, out=blk)
        mag = np.abs(blk)
        abs_sum += float(mag.sum())
        l_max = max(l_max, float(mag.max()))
    amp = abs_sum / M.size
    for lo in range(0, n, BLOCK):
        blk = M[lo : lo + BLOCK]
        hit = rng.random(blk.shape) < size.alpha
        blk[hit] += rng.uniform(-amp, amp, int(hit.sum()))
    return M, A, B, l_max


def write_bin(path: Path, payload_t: np.ndarray) -> None:
    """Write the BIN layout from ``D^T`` held in C order (= D column-major)."""
    cols, rows = payload_t.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sii", b"IRCM", rows, cols))
        payload_t.astype("<f8", copy=False).tofile(fh)


def read_bin(path: Path) -> np.ndarray:
    """The benchmark's own parser of the documented BIN layout."""
    data = Path(path).read_bytes()
    magic, rows, cols = struct.unpack_from("<4sii", data)
    if magic != b"IRCM" or rows < 0 or cols < 0 or len(data) != 12 + 8 * rows * cols:
        raise ValueError(f"{path}: not a well-formed BIN matrix")
    return np.frombuffer(data, "<f8", offset=12).reshape((rows, cols), order="F")


def heldout(n: int, seed: int, k: int, exclude=()) -> np.ndarray:
    """k indices drawn from the seed, avoiding ``exclude`` where possible."""
    perm = np.random.default_rng([seed, n, 7]).permutation(n)
    keep = perm[~np.isin(perm, np.asarray(exclude, dtype=np.int64))]
    return np.sort((keep if keep.size >= k else perm)[: min(k, n)])


def heldout_error(rows_est, cols_est, A, B, I, J) -> float:
    """Largest relative Frobenius error of the estimate on rows I / columns J."""
    errs = []
    for est, true in ((rows_est, A[I] @ B.T), (cols_est, A @ B[J].T)):
        if not np.isfinite(est).all():
            return math.inf
        errs.append(np.linalg.norm(est - true) / np.linalg.norm(true))
    return max(errs)


def cur_estimate(cur, rank: int, I, J):
    """Rows I and columns J of ``C U_r^+ R``, evaluated with plain numpy."""
    U = cur.R[:, cur.cols.indices]
    w, s, vt = np.linalg.svd(U, full_matrices=False)
    k = min(rank, s.size)
    keep = s[:k] > 1e-12 * s[0] if s.size and s[0] > 0 else np.zeros(k, bool)
    P = (vt[:k][keep].T / s[:k][keep]) @ w[:, :k][:, keep].T
    return (cur.C[I] @ P) @ cur.R, cur.C @ (P @ cur.R[:, J])


def factors_finite(cur) -> bool:
    return bool(np.isfinite(cur.C).all() and np.isfinite(cur.R).all())


# ---------------------------------------------------------------- loops


def measure(seconds: float, op, replay=None, whole: int = 1) -> Samples:
    """Closed loop: ``op(k, samples)`` for k = 0, 1, ... until ``seconds`` pass
    and k is a multiple of ``whole``.

    Each op's wall time goes to ``wall_s`` under the group the op set.  With
    ``replay``, each op is followed at once by ``replay(k)``, a traced repeat
    of the same op, so that the untraced and traced passes see the same
    machine state.
    """
    plain = Samples()
    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or k % whole or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        op(k, plain)
        plain.wall_s.add(plain.group, time.perf_counter() - t0)
        if replay is not None:
            replay(k)
        k += 1
    return plain


def shimmed(tracer: Tracer, op, samples: "Samples"):
    """A replay that runs ``op(k, samples)`` with the shims installed."""
    def replay(k):
        tracer.install()
        try:
            op(k, samples)
        finally:
            tracer.uninstall()
    return replay


def lib_solve(D, cfg, samples: Samples):
    """One library solve; records wall time, first-callback and gap times."""
    from ircur import solver

    marks: list[float] = []
    t0 = time.perf_counter()
    cur, _, trace = solver.solve(D, cfg, observer=lambda *_: marks.append(time.perf_counter()))
    t1 = time.perf_counter()
    samples.op_s.add(samples.group, t1 - t0)
    if marks:
        samples.first_ms.add(samples.group, (marks[0] - t0) * 1e3)
        samples.gaps_ms.add(samples.group, *(np.diff(marks) * 1e3).tolist())
    return cur, trace


def guarded(tally: Tally, fn, miss_fails: bool) -> None:
    """Run one checked operation; any exception counts as a failure."""
    try:
        ok, recovered, converged = fn()
    except Exception:  # an operation that raises is a counted failure
        traceback.print_exc(file=sys.stderr)
        ok, recovered, converged = False, False, False
    tally.record(ok, recovered, converged, miss_fails)


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def startup_s(module: str, repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing ``module``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------- workloads


@dataclass
class Result:
    metrics: dict[str, float | None]
    tally: Tally
    missing: dict[str, list[str]] = field(default_factory=dict)
    working_sets: dict[str, int] = field(default_factory=dict)


def _end_to_end(samples: Samples, tally: Tally, setups: list[float], peak_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "solve_s": samples.op_s.median(),
        "solve_s_p90": samples.op_s.p90(),
        "first_iter_ms": samples.first_ms.median(),
        "iter_ms": samples.gaps_ms.median(),
        "iter_ms_p90": samples.gaps_ms.p90(),
        "peak_rss_mb": peak_mb,
        "ops_per_s": samples.wall_s.typical_rate(),
        "recovery_rate": tally.recovered / tally.attempted,
        "false_converged_rate": tally.false_converged / tally.attempted,
        "error_rate": tally.failed / tally.attempted,
    }


def slab_bytes(size: Sizes) -> int:
    """Bytes of one sampled row slab, ceil(c r ln n) x n float64."""
    return math.ceil(size.c * size.rank * math.log(size.n)) * size.n * 8


def _overhead_pct(untraced: Samples, traced: Samples) -> float:
    """Median over paired operations of traced / untraced wall time, as a %."""
    pairs = zip(traced.op_s.flat(), untraced.op_s.flat())
    return (statistics.median(t / u for t, u in pairs) - 1.0) * 100.0


def large_fixed(seed: int, seconds: float, traced: bool, size: Sizes) -> Result:
    from ircur.sampling import RngSeed
    from ircur.solver import SolverConfig

    setups = []
    for _ in range(size.setups):
        D = None  # drop the previous copy before building the next
        t0 = time.perf_counter()
        D, A, B, l_max = low_rank_data(size, seed)
        setups.append(time.perf_counter() - t0)
    tally = Tally()
    tracer = Tracer()

    def op(k, samples):
        tracer.run = k
        cfg = SolverConfig(rank=size.rank, zeta0=2.0 * l_max, c_rows=size.c, c_cols=size.c,
                           mode="fixed", seed=RngSeed(seed, k))

        def checked():
            cur, trace = lib_solve(D, cfg, samples)
            I = heldout(size.n, seed, HELDOUT, cur.rows.indices)
            J = heldout(size.n, seed + 1, HELDOUT, cur.cols.indices)
            err = heldout_error(*cur_estimate(cur, size.rank, I, J), A, B, I, J)
            return factors_finite(cur), err <= SUCCESS_TOL, trace.converged
        guarded(tally, checked, miss_fails=True)

    spans = Samples()
    plain = measure(seconds, op, shimmed(tracer, op, spans) if traced else None)
    m = _end_to_end(plain, tally, setups, rss_mb(resource.RUSAGE_SELF))
    result = Result(m, tally, working_sets={"D": D.nbytes, "slab": slab_bytes(size)})
    if traced:
        m.update(layer_metrics(tracer))
        m["trace.overhead_pct"] = _overhead_pct(plain, spans)
        m["solver.iter_slope"] = iter_slope(size, seed, m["iter_ms"])
        result.missing = tracer.missing_metrics()
        tracer.dump(WORK / "spans-large-fixed.json")
    return result


def iter_slope(size: Sizes, seed: int, top_ms: float) -> float:
    """Log-log slope of median iteration time over the n ladder (fixed mode)."""
    from ircur.sampling import RngSeed
    from ircur.solver import SolverConfig

    ns, ms = [], []
    for n in size.ladder:
        D, _, _, l_max = low_rank_data(size, seed, n=n)
        s = Samples()
        lib_solve(D, SolverConfig(rank=size.rank, zeta0=2.0 * l_max, c_rows=size.c,
                                  c_cols=size.c, mode="fixed", seed=RngSeed(seed)), s)
        ns.append(n)
        ms.append(s.gaps_ms.median())
    ns.append(size.n)
    ms.append(top_ms)
    return float(np.polyfit(np.log(ns), np.log(ms), 1)[0])


def file_resampled(seed: int, seconds: float, traced: bool, size: Sizes, work: Path) -> Result:
    data = work / "data.bin"
    setups = []
    for _ in range(size.setups):
        Dt = None
        t0 = time.perf_counter()
        Dt, A, B, _ = low_rank_data(size, seed, transpose=True)
        write_bin(data, Dt)
        setups.append(time.perf_counter() - t0)
    del Dt
    I = heldout(size.n, seed, HELDOUT)
    J = heldout(size.n, seed + 1, HELDOUT)
    tally = Tally()
    tracer = Tracer()  # collects the spans each traced child process dumps

    def op(k, samples, trace_to: Path | None = None):
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        prefix = ([sys.executable, str(BENCH / "traced_cli.py"), str(trace_to)]
                  if trace_to else [sys.executable, "-m", "ircur"])
        argv = prefix + ["solve", str(data), "--rank", str(size.rank), "--mode", "resampled",
                         "--svd", "--out-dir", str(out), "--seed", str(seed * 1000 + k)]

        def checked():
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
            samples.op_s.add(0, time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return False, False, False
            rows = (out / "trace.csv").read_text().split()[1:]
            millis = [float(r.split(",")[3]) for r in rows]
            samples.first_ms.add(0, millis[0])
            samples.gaps_ms.add(0, *millis[1:])
            W, sigma, V = (read_bin(out / f"{x}.bin") for x in ("W", "sigma", "V"))
            sigma = sigma.ravel()
            err = heldout_error((W[I] * sigma) @ V.T, (W * sigma) @ V[J].T, A, B, I, J)
            return True, err <= SUCCESS_TOL, True
        guarded(tally, checked, miss_fails=True)

    spans = Samples()

    def replay(k):
        path = work / "spans.json"
        path.unlink(missing_ok=True)
        op(k, spans, trace_to=path)
        if path.exists():
            tracer.absorb(path, k)

    plain = measure(seconds, op, replay if traced else None)
    m = _end_to_end(plain, tally, setups, 0.0)
    m["command_s"] = m["solve_s"]
    result = Result(m, tally, working_sets={"D": size.n**2 * 8, "slab": slab_bytes(size)})
    if traced:
        m.update(layer_metrics(tracer))
        m["trace.overhead_pct"] = _overhead_pct(plain, spans)
        m["cli.startup_s"] = startup_s("ircur.cli")
        result.missing = tracer.missing_metrics()
        tracer.dump(WORK / "spans-file-resampled.json")
    m["peak_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)
    return result


def grid_small(seed: int, seconds: float, traced: bool, size: Sizes) -> Result:
    from ircur import synth
    from ircur.sampling import RngSeed
    from ircur.solver import SolverConfig

    setups = [startup_s("ircur", repeats=1) for _ in range(size.setups)]
    cells = [(c, a, mode) for c in GRID_C for a in GRID_ALPHA for mode in GRID_MODES]
    tally = Tally()
    tracer = Tracer()

    def trial(k, samples):
        rnd, ci = divmod(k, len(cells))
        c, alpha, mode = cells[ci]
        ss = np.random.SeedSequence([seed, rnd, ci])
        gen = np.random.default_rng(ss)
        tracer.run = k
        samples.group = ci

        def checked():
            L = synth.gen_low_rank(size.n, size.rank, gen)
            D = L + synth.gen_sparse(L, alpha, gen)
            cfg = SolverConfig(rank=size.rank, zeta0=2.0 * float(np.abs(L).max()),
                               c_rows=c, c_cols=c, mode=mode, max_iter=GRID_MAX_ITER,
                               seed=RngSeed(int(ss.generate_state(1, np.uint64)[0])))
            cur, trace = lib_solve(D, cfg, samples)
            ok = factors_finite(cur)
            return ok, ok and synth.success_check(cur, L), trace.converged
        guarded(tally, checked, miss_fails=False)

    spans = Samples()
    plain = measure(seconds, trial, shimmed(tracer, trial, spans) if traced else None,
                    whole=len(cells))  # whole rounds keep every cell equally weighted
    m = _end_to_end(plain, tally, setups, rss_mb(resource.RUSAGE_SELF))
    m["trials_per_s"] = m["ops_per_s"]
    result = Result(m, tally, working_sets={"D": size.n**2 * 8})
    if traced:
        m.update(layer_metrics(tracer))
        m["trace.overhead_pct"] = _overhead_pct(plain, spans)
        result.missing = tracer.missing_metrics()
        tracer.dump(WORK / "spans-grid-small.json")
    return result


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Medians over runs of the per-run layer sums, plus the span accounting."""
    runs = list(per_run(tracer.spans).values())
    keys = sorted({k for r in runs for k in r})
    out = {k: statistics.median(r[k] for r in runs if k in r) for k in keys}
    # Child spans plus self time must add up to the traced solve (100%);
    # more means children overlap, i.e. the span nesting is broken.
    acc = [(r["solver.children_ms"] + r["solver.self_ms_per_iter"] * r["solver.iterations"])
           / (r["solver.solve.s"] * 1e3) * 100.0
           for r in runs if "solver.self_ms_per_iter" in r]
    if acc:
        out["solver.accounted_pct"] = statistics.median(acc)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 sizes: dict[str, Sizes] | None = None) -> Result:
    sizes = SIZES if sizes is None else sizes
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir()
    try:
        if name == "large-fixed":
            return large_fixed(seed, seconds, traced, sizes[name])
        if name == "file-resampled":
            return file_resampled(seed, seconds, traced, sizes[name], work)
        return grid_small(seed, seconds, traced, sizes[name])
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------- environment


def blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_sizes() -> dict[str, str]:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            out[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def environment(seed: int, working_sets: dict[str, int]) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "working_sets_mb": {k: round(v / 2**20, 1) for k, v in working_sets.items()},
        "commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------- main


def report_line(workload: str, name: str, unit: str, value) -> str:
    if not applicable(workload, name):
        return f"{workload} {name} n/a"
    if value is None:
        return f"{workload} {name} missing"
    return f"{workload} {name} {value:.6g} {unit}"


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, in turn; a summary line comes last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ircur" / "__init__.py").is_file():
        print(f"error: no ircur sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # A terminated run unwinds, so its CLI child is killed and its files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    catalogue = dict(END_TO_END, **(PER_LAYER if args.trace else {}))
    for name, unit in catalogue.items():
        print(report_line(args.workload, name, unit, res.metrics.get(name)))
    for metric, targets in res.missing.items():
        print(f"{args.workload} missing {metric}: target gone: {', '.join(targets)}")
    print("env " + json.dumps(environment(args.seed, res.working_sets)))

    metrics = {}
    for d in declared:
        v = res.metrics.get(d["name"])
        if v is None:
            print(f"warning: declared metric {d['name']} not measured", file=sys.stderr)
        else:
            metrics[d["name"]] = {"value": float(v), "unit": d["unit"]}
    t = res.tally
    print(json.dumps({"correct": t.failed == 0 and len(metrics) == len(declared),
                      "attempted": t.attempted, "failed": t.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
