"""paramrom benchmark: one workload per invocation, from the repository root.

    python3 bench/run.py --workload sim1-offline --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the paramrom layers are wrapped
in spans and the metrics are the per-layer ones. The line before it holds
the details: environment, sample counts, the machine-independent counts,
warnings by kind and the reasons of any failed operations. Workloads and
metrics are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# Single-threaded BLAS unless the caller chose otherwise: steadier timings
# on a shared machine, and the plain single-threaded baseline.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_paramrom():
    """Import the library from the ``src/`` of this checkout, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "paramrom" / "__init__.py").is_file():
        sys.exit("bench: no paramrom sources under %s" % src)
    sys.path.insert(0, str(src))
    import paramrom
    if Path(paramrom.__file__).resolve().parent != (src / "paramrom").resolve():
        sys.exit("bench: paramrom imported from %s, not from %s"
                 % (paramrom.__file__, src))
    return paramrom


def environment(np, scipy):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import (COUNT_NAMES, WORKLOADS, Bench, end_to_end,
                           per_layer)

    args = parse_args(argv, WORKLOADS)
    pr = import_paramrom()
    import numpy as np
    import scipy

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(pr)
    bench = Bench(pr, WORKLOADS[args.workload], args.seed, tracer)
    run = bench.execute(args.seconds)

    if tracer is None:
        metrics = end_to_end(run)
    else:
        metrics = per_layer(run, tracer, ROOT)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(np, scipy),
        "iterations": run.iterations,
        "loop_s": run.loop_s,
        "samples": {k: v if isinstance(v, int) else len(v)
                    for k, v in run.samples.items()},
        "warnings": {phase: dict(c) for phase, c in run.warnings.items()},
        "failures": dict(run.failures),
        "probe_errors": run.probe_errors,
        "seeded_estimate_err_p50": (float(np.median(run.seeded_errors))
                                    if run.seeded_errors else None),
        "seeded_errors": run.seeded_errors,
    }
    if tracer is not None:
        report["counts"] = {k: metrics[k][0] for k in COUNT_NAMES}
        report["untraced_targets"] = tracer.missing
    # A metric without samples (every operation of its phase failed) is
    # written as null, which keeps the line valid JSON, and makes the run
    # incorrect.
    finite = all(np.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": run.failed == 0 and run.attempted > 0 and finite,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v if np.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
