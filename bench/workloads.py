"""The benchmark workloads: what each one runs, the output checks that make
an operation count as failed, and the metrics computed from a run.

One operation is one model build, one error-grid cell, one model
evaluation or one estimate. Every workload runs the same phases per
iteration (model build or set-up model, a 3x3 error grid, single-point
evaluations, estimates); the workloads differ in problem size and in how
much of each phase an iteration holds. See NOTES.md for why each exists.
"""

from __future__ import annotations

import math
import resource
import time
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SWEEP_TOL = 1e-8
EPS_NODE = 1e-3
ZOOM_RUNS = 3


@dataclass(frozen=True)
class Workload:
    make_problem: object        # paramrom module -> SplitProblem
    cross: int                  # values per axis of the sparse cross
    setup_model: bool           # build the full-box model once per set-up
    setup_reps: int             # set-up repetitions; setup_s is their median
    evals: int                  # single-point evaluations per iteration
    estimates: int              # estimates per iteration
    zoom: bool                  # refine_estimate (True) or estimate_parameters
    probes: int                 # size of the fixed design of true points


WORKLOADS = {
    "sim1-offline": Workload(
        make_problem=lambda pr: pr.helmholtz_2d("sim1", 200),
        cross=9, setup_model=False, setup_reps=15, evals=2000, estimates=2,
        zoom=False, probes=16),
    "advdiff-online": Workload(
        make_problem=lambda pr: pr.advection_diffusion_1d(9999, 0.01),
        cross=9, setup_model=True, setup_reps=30, evals=5000, estimates=4,
        zoom=False, probes=64),
    "sim3-zoom": Workload(
        make_problem=lambda pr: pr.helmholtz_2d("sim3", 100),
        cross=7, setup_model=True, setup_reps=13, evals=2000, estimates=1,
        zoom=True, probes=16),
}

# Substrings of the library's warning messages, one named count each.
WARNING_KINDS = [
    ("warn.lanczos_breakdown", "Lanczos breakdown at step"),
    ("warn.lanczos_breakdown_again", "Lanczos breakdown again"),
    ("warn.biorth_drift", "biorthogonality drift"),
    ("warn.residual_mismatch", "disagrees with explicit residual"),
    ("warn.mode_growth", "grew the max node error"),
]
WARNING_NAMES = [name for name, _ in WARNING_KINDS] + ["warn.other"]


def classify_warning(message):
    text = str(message)
    for name, pattern in WARNING_KINDS:
        if pattern in text:
            return name
    return "warn.other"


def _radical_inverse(i, base):
    value, scale = 0.0, 1.0
    while i > 0:
        scale /= base
        value += scale * (i % base)
        i //= base
    return value


def probe_points(box, count):
    """The first ``count`` points of the 2-D Halton sequence (bases 2 and 3)
    mapped to the box: the fixed design of true parameters that the accuracy
    metrics are computed on. It is the same in every run and has no tunable
    choice, so it cannot be picked to flatter the estimator."""
    (a1, b1), (a2, b2) = box
    return [(a1 + _radical_inverse(i, 2) * (b1 - a1),
             a2 + _radical_inverse(i, 3) * (b2 - a2))
            for i in range(1, count + 1)]


class ParameterError:
    """Box-relative max-norm distance from an estimate to the parameters
    that give the same operator as the true ones.

    When the problem has two or more non-constant coefficients (each a
    monotone function of one parameter in the presets used here), that set
    is the true point alone and the distance is
    max(|dmu1|/w1, |dmu2|/w2). When it has a single coefficient f, the
    observation only determines the value of f, so the distance is taken to
    the level curve f(mu) = f(true), traced on a fine grid in mu1 with mu2
    recovered from the monotone mu2-part of f. Coefficients are sums of
    one-variable terms, so f(mu1, mu2) = f(mu1, a2) + f(a1, mu2) - f(a1, a2).
    """

    GRID = 20001

    def __init__(self, problem):
        (a1, b1), (a2, b2) = self.box = problem.box
        self.widths = (b1 - a1, b2 - a2)
        varying = [f for f in problem.functions
                   if any(t["fn"] != "const" for t in f.terms)]
        self.level_set = len(varying) == 1
        if not self.level_set:
            return
        f = self.f = varying[0]
        self.mu1 = np.linspace(a1, b1, self.GRID)
        mu2 = np.linspace(a2, b2, self.GRID)
        base = f(a1, a2)
        self.g1 = np.array([f(x, a2) for x in self.mu1]) - base
        g2 = np.array([f(a1, y) for y in mu2]) - base
        step = np.diff(g2)
        if np.all(step < 0):
            g2, mu2 = g2[::-1], mu2[::-1]
        elif not np.all(step > 0):
            raise ValueError("coefficient is not monotone in mu2")
        self.g2, self.mu2 = g2, mu2
        self.base = base

    def __call__(self, estimate, true):
        w1, w2 = self.widths
        if not self.level_set:
            return max(abs(estimate[0] - true[0]) / w1,
                       abs(estimate[1] - true[1]) / w2)
        target = self.f(*true) - self.base - self.g1
        on_curve = (target >= self.g2[0]) & (target <= self.g2[-1])
        mu2 = np.interp(target[on_curve], self.g2, self.mu2)
        dist = np.maximum(np.abs(self.mu1[on_curve] - estimate[0]) / w1,
                          np.abs(mu2 - estimate[1]) / w2)
        return float(dist.min())


def in_box(point, box):
    (a1, b1), (a2, b2) = box
    return a1 <= point[0] <= b1 and a2 <= point[1] <= b2


@dataclass
class Run:
    """Samples, operation counts, failures and warnings of one run."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: {
        "setup_s": [], "build_s": [], "errmap_s": [], "estimate_s": [],
        "eval_n": 0})
    eval_batches: list = field(default_factory=list)   # (p50, p90) in us
    grid_errors: list = field(default_factory=list)
    probe_errors: list = field(default_factory=list)
    seeded_errors: list = field(default_factory=list)
    warnings: dict = field(default_factory=lambda: {"setup": Counter(),
                                                    "loop": Counter()})
    iterations: int = 0
    loop_s: float = 0.0

    def op(self, ok, reason=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[reason] += 1

    def record_warnings(self, phase, caught):
        for w in caught:
            self.warnings[phase][classify_warning(w.message)] += 1


class Bench:
    """Runs one workload with a given seed; ``tracer`` is None with tracing
    off."""

    def __init__(self, pr, workload, seed, tracer=None):
        self.pr = pr
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.clock = time.perf_counter
        self.run = Run()
        # Library exceptions that make an operation fail rather than stop
        # the benchmark. Anything else is a defect and ends the run.
        self.op_errors = (pr.ParamRomError, np.linalg.LinAlgError,
                          ArithmeticError, ValueError)

    def counts(self):
        return self.pr.factorization_count(), self.pr.triangular_solve_count()

    # -- operations -------------------------------------------------------

    def build(self, problem):
        """Sparse cross -> two sweeps -> decomposition -> splines. Returns
        the interpolated model, or None when the build failed."""
        pr, n = self.pr, self.w.cross
        f0 = self.pr.factorization_count()
        start = self.clock()
        try:
            nodes = pr.sparse_cross_nodes(problem.box, n, n)
            mu1_star, mu2_star = nodes.anchors
            lines = [pr.snapshot_sweep(problem, 2, mu2_star, nodes.mu1_values,
                                       tol=SWEEP_TOL),
                     pr.snapshot_sweep(problem, 1, mu1_star, nodes.mu2_values,
                                       tol=SWEEP_TOL)]
            tensor = pr.SnapshotTensor.from_lines(nodes, lines)
            model = pr.decompose(tensor, eps_node=EPS_NODE)
            interpolated = pr.interpolate_model(model)
        except self.op_errors as exc:
            self.run.op(False, "build raised %s" % type(exc).__name__)
            return None
        elapsed = self.clock() - start
        factorizations = self.pr.factorization_count() - f0
        reason = None
        if factorizations != len(lines):
            reason = "build made %d LU factorizations for %d sweep lines" % (
                factorizations, len(lines))
        elif not all(bool(np.all(line.converged)) for line in lines):
            reason = "sweep returned an unconverged value"
        elif not all(line.snapshots.shape == (len(line.values), problem.n)
                     and np.isfinite(line.snapshots).all() for line in lines):
            reason = "snapshot non-finite or of wrong length"
        elif not model.converged:
            reason = "decomposition not converged"
        self.run.op(reason is None, reason)
        if reason is not None:
            return None
        self.run.samples["build_s"].append(elapsed)
        return interpolated

    def error_map(self, model, problem):
        start = self.clock()
        try:
            rows = self.pr.error_grid(model, problem, 3, 3)
        except self.op_errors as exc:
            self.run.op(False, "error_grid raised %s" % type(exc).__name__)
            return
        self.run.samples["errmap_s"].append(self.clock() - start)
        errors = []
        for row in rows:
            ok = row["class"] != "failed" and math.isfinite(row["rel_err"])
            self.run.op(ok, "error_grid cell failed")
            if ok:
                errors.append(row["rel_err"])
        if errors:
            self.run.grid_errors.append(max(errors))

    def evaluate(self, model, points):
        """One batch of single-point evaluations. Only the batch's latency
        percentiles are kept, so the benchmark's own memory does not grow
        with the number of evaluations a run makes."""
        clock, n = self.clock, model.n
        latencies = []
        for mu1, mu2 in points:
            before = self.counts()
            try:
                start = clock()
                x = model(mu1, mu2)
                latencies.append(clock() - start)
            except self.op_errors as exc:
                self.run.op(False, "evaluation raised %s" % type(exc).__name__)
                continue
            if self.counts() != before:
                self.run.op(False, "evaluation made a factorization or solve")
            elif x.shape != (n,) or not np.isfinite(x).all():
                self.run.op(False, "evaluation non-finite or of wrong length")
            else:
                self.run.op(True)
        if latencies:
            self.run.eval_batches.append(np.percentile(latencies, [50, 90]) * 1e6)
            self.run.samples["eval_n"] += len(latencies)

    def estimate(self, problem, model, true, error_of):
        """One estimate from a noiseless observation at ``true``. Returns the
        parameter error, or None when the estimate failed."""
        pr = self.pr
        with nullcontext() if self.tracer is None else self.tracer.paused():
            x_obs = pr.direct_reference_solve(problem, *true)
        before = self.counts()
        start = self.clock()
        try:
            if self.w.zoom:
                records = pr.refine_estimate(
                    problem, x_obs, runs=ZOOM_RUNS, n1=self.w.cross,
                    n2=self.w.cross, sweep_tol=SWEEP_TOL, eps_node=EPS_NODE)
                point = records[-1].estimate
            else:
                point = pr.estimate_parameters(model, x_obs)[:2]
        except self.op_errors as exc:
            self.run.op(False, "estimate raised %s" % type(exc).__name__)
            return None
        elapsed = self.clock() - start
        factorizations = self.counts()[0] - before[0]
        reason = None
        if self.w.zoom:
            if len(records) != ZOOM_RUNS:
                reason = "refine_estimate returned %d runs" % len(records)
            elif factorizations != 2 * ZOOM_RUNS:
                reason = "zoom made %d LU factorizations for %d model builds" % (
                    factorizations, ZOOM_RUNS)
            elif not all(r.decomposition_converged for r in records):
                reason = "zoom decomposition not converged"
            elif not all(in_box(r.estimate, r.box) for r in records):
                reason = "estimate outside its box"
        elif self.counts() != before:
            reason = "estimate made a factorization or solve"
        elif not in_box(point, model.box):
            reason = "estimate outside its box"
        if reason is None and not all(math.isfinite(v) for v in point):
            reason = "estimate non-finite"
        self.run.op(reason is None, reason)
        if reason is not None:
            return None
        self.run.samples["estimate_s"].append(elapsed)
        return error_of(point, true)

    # -- the run ----------------------------------------------------------

    def setup(self):
        """One set-up: assemble the problem and, where the workload says so,
        build the full-box model. Returns (problem, model); model is None
        when that build failed."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = self.clock()
            problem = self.w.make_problem(self.pr)
            model = self.build(problem) if self.w.setup_model else None
            elapsed = self.clock() - start
        self.run.record_warnings("setup", caught)
        if model is not None or not self.w.setup_model:
            self.run.samples["setup_s"].append(elapsed)
        return problem, model

    def execute(self, seconds):
        """Set up, then iterate. The probe iterations (the fixed design of
        true points) always run first and in full. With tracing off the run
        then continues on seeded true points until ``seconds`` have passed;
        with tracing on it repeats the probe iterations in whole passes, so
        that its counts are the same in every run.

        With tracing off, the repeated set-ups are spread evenly over the
        run, between iterations, so that a short burst of load from outside
        the process moves one set-up sample rather than all of them. With
        tracing on they all run first, so that set-up spans stay out of the
        per-iteration numbers."""
        run, w = self.run, self.w
        spread_setups = self.tracer is None
        problem, model = self.setup()
        if w.setup_model and model is None:
            return run
        setups = 1
        while not spread_setups and setups < w.setup_reps:
            self.setup()
            setups += 1
        error_of = ParameterError(problem)
        probes = probe_points(problem.box, w.probes)
        probe_iters = len(probes) // w.estimates
        case_rng = np.random.default_rng([self.seed, 1])
        eval_rng = np.random.default_rng([self.seed, 2])
        (a1, b1), (a2, b2) = problem.box
        if self.tracer is not None:
            self.tracer.phase = "loop"
            self.tracer.reset_spans()
        start = self.clock()
        i = 0
        while True:
            elapsed = self.clock() - start
            if self.tracer is None:
                if i >= probe_iters and elapsed >= seconds:
                    break
            elif i % probe_iters == 0 and i > 0 and elapsed >= seconds:
                break
            if spread_setups and setups < w.setup_reps \
                    and elapsed >= seconds * setups / w.setup_reps:
                self.setup()
                setups += 1
            if self.tracer is None and i >= probe_iters:
                cases = [(float(case_rng.uniform(a1, b1)),
                          float(case_rng.uniform(a2, b2)))
                         for _ in range(w.estimates)]
                probe = False
            else:
                j = (i % probe_iters) * w.estimates
                cases = probes[j:j + w.estimates]
                probe = i < probe_iters
            points = np.column_stack([eval_rng.uniform(a1, b1, w.evals),
                                      eval_rng.uniform(a2, b2, w.evals)])
            self.iteration(problem, model, cases, points, error_of, probe)
            i += 1
        run.loop_s = self.clock() - start
        run.iterations = i
        while setups < w.setup_reps:
            self.setup()
            setups += 1
        return run

    def iteration(self, problem, model, cases, points, error_of, probe):
        run = self.run
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if not self.w.setup_model:
                model = self.build(problem)
            if model is not None:
                self.error_map(model, problem)
                self.evaluate(model, points.tolist())
                for true in cases:
                    err = self.estimate(problem, model, true, error_of)
                    if err is not None:
                        (run.probe_errors if probe else run.seeded_errors).append(err)
        run.record_warnings("loop", caught)


# -- metrics ----------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines(root):
    return sum(len(p.read_text().splitlines())
               for p in sorted(Path(root, "src").rglob("*.py")))


def _median(values):
    return float(np.median(values)) if values else float("nan")


def batch_percentile(run, column):
    """Lower quartile over evaluation batches (one per iteration) of each
    batch's p50 (column 0) or p90 (column 1) latency, in microseconds.

    On a shared machine, memory traffic from outside the process slows a
    share of the calls in about a third of sim1's batches (n = 40,000, so
    each call streams 640 KB), which moved a whole-run or median-of-batches
    p90 by up to 60% between runs. A slower program moves every batch,
    quiet ones included, so the quiet batches still show it."""
    if not run.eval_batches:
        return float("nan")
    return float(np.percentile([b[column] for b in run.eval_batches], 25))


def end_to_end(run):
    s = run.samples
    return {
        "setup_s": (_median(s["setup_s"]), "s"),
        "build_s": (_median(s["build_s"]), "s"),
        "errmap_s": (_median(s["errmap_s"]), "s"),
        "eval_us_p50": (batch_percentile(run, 0), "us"),
        "eval_us_p90": (batch_percentile(run, 1), "us"),
        "estimate_s": (_median(s["estimate_s"]), "s"),
        "model_err_max": (max(run.grid_errors) if run.grid_errors else float("nan"), "fraction"),
        "estimate_err_p50": (_median(run.probe_errors), "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(run, tracer, root):
    """Per-layer metrics of a traced run.

    Times (``_s``, self time) and call counts (``_n``) are per loop
    iteration. The cost-model counts (``linalg.lu_factor_n``,
    ``linalg.lu_solve_n``, ``krylov.steps``, ``krylov.breakdown_retries``,
    ``hopgd.rank``) are per model build, and ``chebyshev.degree``,
    ``chebyshev.block_size`` and ``krylov.basis_mb`` per sweep line, taken
    from the builds of the timed loop or, where the loop builds nothing,
    from the set-up builds.
    """
    it = max(run.iterations, 1)
    t, calls = tracer.self_s, tracer.calls
    phase = "loop" if any(b["phase"] == "loop" for b in tracer.builds) else "setup"
    builds = [b for b in tracer.builds if b["phase"] == phase]
    sweeps = [s for s in tracer.sweeps if s["phase"] == phase]
    grows = [g for g in tracer.grows if g["phase"] == phase]
    nb, nl = len(builds), len(sweeps)
    steps = sum(s["k"] for s in sweeps)
    attempted = sum(g["attempted"] for g in grows)
    estimates = calls["estimate.estimate"]
    spans = sum(calls.values())
    m = {
        "krylov.sweep_s": (t["krylov.sweep"] / it, "s"),
        "krylov.grow_s": (t["krylov.grow"] / it, "s"),
        "krylov.materialize_s": (t["krylov.materialize"] / it, "s"),
        "krylov.steps": (_ratio(steps, nb), "count"),
        "krylov.solves_per_step": (_ratio(sum(g["solves"] for g in grows), attempted), "ratio"),
        "krylov.useful_step_frac": (_ratio(steps, attempted), "fraction"),
        "krylov.breakdown_retries": (_ratio(sum(g["breakdown"] for g in grows), nb), "count"),
        "krylov.basis_mb": (_ratio(sum(8.0 * s["block_size"] * s["k"] for s in sweeps) / 2**20, nl), "MB"),
        "chebyshev.fit_s": (t["chebyshev.fit"] / it, "s"),
        "chebyshev.pencil_solve_s": (t["chebyshev.pencil_solve"] / it, "s"),
        "chebyshev.pencil_solve_n": (calls["chebyshev.pencil_solve"] / it, "count"),
        "chebyshev.degree": (_ratio(sum(s["degree"] for s in sweeps), nl), "count"),
        "chebyshev.block_size": (_ratio(sum(s["block_size"] for s in sweeps), nl), "count"),
        "linalg.lu_factor_s": (t["linalg.lu_factor"] / it, "s"),
        "linalg.lu_factor_n": (_ratio(sum(s["factorizations"] for s in sweeps), nb), "count"),
        "linalg.lu_solve_s": (t["linalg.lu_solve"] / it, "s"),
        "linalg.lu_solve_n": (_ratio(sum(s["solves"] for s in sweeps), nb), "count"),
        "linalg.spline_eval_s": (t["linalg.spline_eval"] / it, "s"),
        "linalg.spline_eval_n": (calls["linalg.spline_eval"] / it, "count"),
        "problems.direct_solve_s": (t["problems.direct_solve"] / it, "s"),
        "problems.direct_solve_n": (calls["problems.direct_solve"] / it, "count"),
        "problems.assemble_s": (t["problems.assemble"] / it, "s"),
        "hopgd.decompose_s": (t["hopgd.decompose"] / it, "s"),
        "hopgd.rank": (_ratio(sum(b["rank"] for b in builds), nb), "count"),
        "rom.interp_build_s": (t["rom.interp_build"] / it, "s"),
        "rom.eval_s": (t["rom.eval"] / it, "s"),
        "rom.eval_n": (calls["rom.eval"] / it, "count"),
        "rom.error_grid_s": (t["rom.error_grid"] / it, "s"),
        "estimate.estimate_s": ((t["estimate.estimate"] + t["estimate.refine"]) / it, "s"),
        "estimate.model_evals": (_ratio(
            tracer.edges[("rom.eval", "estimate.estimate")]
            + tracer.edges[("linalg.spline_eval", "estimate.estimate")],
            estimates), "count"),
        "estimate.zoom_runs": (_ratio(sum(tracer.refines), len(tracer.refines)), "count"),
        "src.lines": (src_lines(root), "lines"),
        "trace.spans_n": (spans / it, "count"),
        "trace.overhead_s": (spans * tracer.span_cost_s() / it, "s"),
    }
    for name in WARNING_NAMES:
        m[name] = (run.warnings["loop"][name] / it, "count")
    return m


# Machine-independent counts: they repeat exactly between traced runs.
COUNT_NAMES = ["linalg.lu_factor_n", "linalg.lu_solve_n", "krylov.steps",
               "chebyshev.degree", "hopgd.rank", "src.lines"]
