"""Span tracer that measures the paramrom layers from outside the library.

``Tracer.install`` replaces public functions and methods of the paramrom
modules by wrappers that record a span per call: its name, its parent span,
its duration and its self time (the duration minus the part covered by
child spans). A few spans also read the library's own counters and result
objects (``factorization_count()``, ``triangular_solve_count()``,
``SnapshotLine.k``/``.meta``, ``SeparatedModel.rank``). Spans are kept as
aggregates in memory; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute path, span name). A target that a later version of the
# library no longer has is skipped and reported, so the benchmark keeps
# running across refactors.
TARGETS = [
    ("problems", "assemble", "problems.assemble"),
    ("problems", "direct_reference_solve", "problems.direct_solve"),
    ("linalg", "LUFactorization.__init__", "linalg.lu_factor"),
    ("linalg", "LUFactorization.solve", "linalg.lu_solve"),
    ("linalg", "CubicSpline.__call__", "linalg.spline_eval"),
    ("chebyshev", "ChebyshevOperator.__init__", "chebyshev.fit"),
    ("chebyshev", "CompanionPencil.solve", "chebyshev.pencil_solve"),
    ("krylov", "snapshot_sweep", "krylov.sweep"),
    ("krylov", "ShiftedKrylov.grow", "krylov.grow"),
    ("krylov", "ShiftedKrylov.evaluate", "krylov.materialize"),
    ("hopgd", "decompose", "hopgd.decompose"),
    ("rom", "InterpolatedModel.__init__", "rom.interp_build"),
    ("rom", "InterpolatedModel.__call__", "rom.eval"),
    ("rom", "error_grid", "rom.error_grid"),
    ("estimate", "estimate_parameters", "estimate.estimate"),
    ("estimate", "refine_estimate", "estimate.refine"),
]


class Tracer:
    """Aggregated spans plus the per-sweep, per-grow and per-build records
    that the cost-model counts are computed from. Every record carries the
    phase it was made in ("setup" or "loop")."""

    def __init__(self):
        self.clock = time.perf_counter
        self.phase = "setup"
        self.missing = []
        self._stack = []            # [name, child seconds]
        self._paused = False
        self.reset_spans()
        self.sweeps = []            # dict per snapshot_sweep call
        self.grows = []             # dict per ShiftedKrylov.grow call
        self.builds = []            # dict per decompose call
        self.refines = []           # zoom runs per refine_estimate call

    def reset_spans(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.edges = Counter()      # (span, parent span) -> calls

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (benchmark input generation)."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def wrap(self, name, fn, hook=None):
        """Wrapper recording one span per call of ``fn``. ``hook(args,
        result, exc, ctx)`` runs after the call with ``ctx`` from
        ``hook.before(args)``."""
        clock = self.clock
        stack = self._stack

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            ctx = hook.before(args) if hook else None
            frame = [name, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.edges[(name, parent)] += 1
                if hook:
                    hook.after(args, result, exc, ctx)

        return wrapper

    def install(self, paramrom):
        """Wrap every target found in the loaded ``paramrom`` package."""
        counters = (paramrom.factorization_count, paramrom.triangular_solve_count)
        hooks = {
            "krylov.sweep": _SweepHook(self, counters),
            "krylov.grow": _GrowHook(self, counters),
            "hopgd.decompose": _BuildHook(self),
            "estimate.refine": _RefineHook(self),
        }
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "paramrom" or key.startswith("paramrom."))]
        for module_name, path, span in TARGETS:
            module = sys.modules.get("paramrom." + module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(module_name + "." + path)
                continue
            wrapped = self.wrap(span, original, hooks.get(span))
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            # A module-level function is rebound wherever it was imported by
            # name, so calls through any paramrom namespace are recorded.
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def span_cost_s(self, calls=20000):
        """Measured cost of one recorded span around a no-op call."""
        probe = Tracer()
        noop = probe.wrap("noop", lambda: None)
        raw = lambda: None
        start = self.clock()
        for _ in range(calls):
            raw()
        base = self.clock() - start
        start = self.clock()
        for _ in range(calls):
            noop()
        return max((self.clock() - start - base) / calls, 0.0)


class _Hook:
    def before(self, args):
        return None


class _SweepHook(_Hook):
    """Records each snapshot line with the LU factorizations and triangular
    solves that its sweep made."""

    def __init__(self, tracer, counters):
        self.tracer = tracer
        self.factor_count, self.solve_count = counters

    def before(self, args):
        return self.factor_count(), self.solve_count()

    def after(self, args, line, exc, ctx):
        if line is None:
            return
        degree = line.meta.get("chebyshev_degree", 0)
        n = line.snapshots.shape[1]
        self.tracer.sweeps.append({
            "phase": self.tracer.phase,
            "k": int(line.k),
            "degree": int(degree),
            "block_size": int(degree) * n,
            "factorizations": self.factor_count() - ctx[0],
            "solves": self.solve_count() - ctx[1],
        })


class _GrowHook(_Hook):
    """Records Krylov steps attempted per grow call, including the step
    abandoned when a breakdown error escapes, and the triangular solves
    they cost."""

    def __init__(self, tracer, counters):
        self.tracer = tracer
        self.solve_count = counters[1]

    def before(self, args):
        return args[0].k, self.solve_count()

    def after(self, args, result, exc, ctx):
        steps = args[0].k - ctx[0]
        breakdown = exc is not None and type(exc).__name__ == "BreakdownError"
        self.tracer.grows.append({
            "phase": self.tracer.phase,
            "attempted": steps + (1 if breakdown else 0),
            "breakdown": breakdown,
            "solves": self.solve_count() - ctx[1],
        })


class _BuildHook(_Hook):
    """One decomposition per model build: records the model rank."""

    def __init__(self, tracer):
        self.tracer = tracer

    def after(self, args, model, exc, ctx):
        if model is not None:
            self.tracer.builds.append({"phase": self.tracer.phase,
                                       "rank": int(model.rank)})


class _RefineHook(_Hook):
    """Records the zoom runs of each refine_estimate call."""

    def __init__(self, tracer):
        self.tracer = tracer

    def after(self, args, records, exc, ctx):
        if records is not None:
            self.tracer.refines.append(len(records))
