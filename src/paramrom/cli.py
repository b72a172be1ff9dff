"""Command-line front end wiring problems -> sweeps -> decomposition ->
evaluation / error maps / parameter estimation.

Commands: snapshots, decompose, eval, errmap, estimate, demo. Every
command is a pure function of its config and input files; all randomness
sits behind --seed. Exit codes: 0 ok, 2 input error, 3 decomposition not
converged, 4 solver failure. Failures emit one machine-readable JSON line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import estimate as est
from . import hopgd, krylov, problems, rom, storage
from .errors import NoConvergenceError, ParamRomError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
EXIT_SOLVER = 4


@dataclass
class RunConfig:
    """Reproducible description of one pipeline run; round-trips via JSON."""

    problem: dict = field(default_factory=lambda: {
        "name": "advection_diffusion", "grid_n": 999, "dt": 0.01})
    nodes: dict = field(default_factory=lambda: {
        "kind": "sparse_cross", "n1": 5, "n2": 5, "anchors": None})
    box: list = None
    sweep: dict = field(default_factory=lambda: {
        "sigma": None, "tol": 1e-8, "k_max": 300})
    decompose: dict = field(default_factory=lambda: {
        "eps_node": 1e-3, "max_modes": 50})
    seed: int = 0
    outdir: str = "paramrom_out"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Merge ``d`` over the defaults. The keys of ``nodes``, ``sweep``
        and ``decompose`` must be known. A ``problem`` that names a preset or
        a ``dir`` replaces the default problem, so no other preset's keys
        carry over; its keys are checked by the preset that builds it
        (``problems.from_config``). ``box`` must be null or
        [[a1, b1], [a2, b2]] of finite numbers with a < b."""
        cfg = cls()
        for key, value in d.items():
            if not hasattr(cfg, key):
                raise ValueError("unknown config key %r" % key)
            default = getattr(cfg, key)
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ValueError("config key %r must be an object" % key)
                unknown = sorted(set(value) - set(default))
                if key != "problem" and unknown:
                    raise ValueError("unknown %s config key %r"
                                     % (key, unknown[0]))
                if key == "problem" and {"name", "dir"} & set(value):
                    default = {}
                value = default | value
            setattr(cfg, key, value)
        if cfg.box is not None and not _is_box(cfg.box):
            raise ValueError("box must be null or [[a1, b1], [a2, b2]] of finite "
                             "numbers with a < b, got %r" % (cfg.box,))
        sigma = cfg.sweep["sigma"]
        if sigma is not None and type(sigma) not in (int, float):
            raise ValueError("sweep.sigma must be null or a number, got %r"
                             % (sigma,))
        return cfg

    @classmethod
    def load(cls, path):
        return cls.from_dict(storage.load_json(path))


def _is_box(box):
    """True for [[a1, b1], [a2, b2]] of finite numbers with a < b."""
    def is_interval(side):
        return (isinstance(side, (list, tuple)) and len(side) == 2
                and all(type(v) in (int, float) and math.isfinite(v) for v in side)
                and side[0] < side[1])
    return (isinstance(box, (list, tuple)) and len(box) == 2
            and all(map(is_interval, box)))


def _build_problem(cfg):
    problem = problems.from_config(cfg.problem)
    if cfg.box:
        problem.box = (tuple(cfg.box[0]), tuple(cfg.box[1]))
    return problem


def _node_set(cfg, box):
    plan = cfg.nodes
    kind = plan["kind"]
    n1, n2 = int(plan["n1"]), int(plan["n2"])
    if kind == "sparse_cross":
        anchors = plan["anchors"]
        return hopgd.sparse_cross_nodes(box, n1, n2,
                                        tuple(anchors) if anchors else None)
    if kind == "full_grid":
        return hopgd.full_grid_nodes(box, n1, n2)
    raise ValueError("unknown node kind %r" % kind)


def cmd_snapshots(cfg):
    problem = _build_problem(cfg)
    nodes = _node_set(cfg, problem.box)
    outdir = cfg.outdir
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    lines_meta = []
    for index, (fixed_axis, fixed_value, values) in enumerate(nodes.sweeps()):
        line = krylov.snapshot_sweep(
            problem, fixed_axis, fixed_value, values,
            sigma=cfg.sweep["sigma"],
            tol=float(cfg.sweep["tol"]),
            k_max=int(cfg.sweep["k_max"]),
        )
        line_dir = os.path.join(outdir, "line_%02d" % index)
        os.makedirs(line_dir, exist_ok=True)
        for vi in range(values.shape[0]):
            storage.save_vector(os.path.join(line_dir, "value_%03d" % vi),
                                line.snapshots[vi])
        meta = {
            "fixed_axis": line.fixed_axis,
            "fixed_value": line.fixed_value,
            "free_values": line.values.tolist(),
            "sigma": line.sigma,
            "tol": line.tol,
            "k": line.k,
            "residuals": line.residuals.tolist(),
            "converged": line.converged.tolist(),
        }
        meta.update(line.meta)
        storage.save_json(os.path.join(line_dir, "meta.json"), meta)
        meta["dir"] = os.path.basename(line_dir)
        lines_meta.append(meta)
    manifest = {
        "problem": cfg.problem,
        "box": [list(problem.box[0]), list(problem.box[1])],
        "nodes": nodes.to_dict(),
        "lines": lines_meta,
        "offline_seconds": time.perf_counter() - t0,
    }
    storage.save_json(os.path.join(outdir, "manifest.json"), manifest)
    print(json.dumps({"snapshots": outdir, "lines": len(lines_meta),
                      "vectors": len(nodes.members)}))
    return EXIT_OK


def _load_lines(snapdir, manifest):
    lines = []
    for meta in manifest["lines"]:
        line_dir = os.path.join(snapdir, meta["dir"])
        values = np.asarray(meta["free_values"], dtype=np.float64)
        snaps = np.array([
            storage.load_vector(os.path.join(line_dir, "value_%03d" % vi))
            for vi in range(values.shape[0])
        ])
        lines.append(krylov.SnapshotLine(
            fixed_axis=int(meta["fixed_axis"]),
            fixed_value=float(meta["fixed_value"]),
            values=values,
            snapshots=snaps,
            converged=np.asarray(meta["converged"], dtype=bool),
            residuals=np.asarray(meta["residuals"], dtype=np.float64),
            sigma=float(meta["sigma"]),
            tol=float(meta["tol"]),
            k=int(meta["k"]),
        ))
    return lines


def cmd_decompose(snapdir, modeldir, options, seed=0):
    manifest_path = os.path.join(snapdir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError("no manifest.json in %s" % snapdir)
    manifest = storage.load_json(manifest_path)
    if not manifest.get("lines"):
        raise FileNotFoundError("snapshot directory %s has no lines" % snapdir)
    nodes = hopgd.NodeSet.from_dict(manifest["nodes"])
    tensor = hopgd.SnapshotTensor.from_lines(nodes, _load_lines(snapdir, manifest))
    t0 = time.perf_counter()
    model = hopgd.decompose(tensor, restart_seed=seed, **options)
    seconds = time.perf_counter() - t0
    hopgd.save_model(model, modeldir, extra={
        "problem": manifest["problem"],
        "snapshots": os.path.abspath(snapdir),
        "decompose_seconds": seconds,
    })
    print(json.dumps({"model": modeldir, "rank": model.rank,
                      "converged": model.converged,
                      "max_node_error": model.log[-1]["max_node_error"]
                      if model.log else None}))
    return EXIT_OK if model.converged else EXIT_NOT_CONVERGED


def _load_interpolated(modeldir):
    model, doc = hopgd.load_model(modeldir)
    return rom.interpolate_model(model), doc


def cmd_eval(modeldir, mu1, mu2, out=None, reference=False):
    interpolated, doc = _load_interpolated(modeldir)
    t0 = time.perf_counter()
    x = interpolated(mu1, mu2)
    online = time.perf_counter() - t0
    report = {"mu1": mu1, "mu2": mu2, "online_seconds": online}
    if out:
        report["vector"] = storage.save_vector(out, x)
    if reference:
        problem = problems.from_config(doc["problem"])
        t0 = time.perf_counter()
        x_ref = problems.direct_reference_solve(problem, mu1, mu2)
        report["direct_seconds"] = time.perf_counter() - t0
        err = rom.relative_error(x, x_ref)
        report["rel_err_percent"] = 100.0 * err
        report["class"] = rom.classify_error(err)
        if out:
            base = out[:-len(".f64le")] if out.endswith(".f64le") else out
            report["reference_vector"] = storage.save_vector(
                base + "_reference", x_ref)
    print(json.dumps(report))
    return EXIT_OK


def cmd_errmap(modeldir, out, grid1=20, grid2=20):
    interpolated, doc = _load_interpolated(modeldir)
    problem = problems.from_config(doc["problem"])
    rows = rom.error_grid(interpolated, problem, grid1, grid2)
    rom.write_error_grid_csv(rows, out)
    errs = np.array([r["rel_err"] for r in rows])
    ok = np.isfinite(errs)
    summary = {
        "csv": out,
        "cells": len(rows),
        "accurate_fraction": float(np.mean(errs[ok] < rom.ACCURATE_THRESHOLD)),
        "reliable_fraction": float(np.mean(errs[ok] < rom.RELIABLE_THRESHOLD)),
        "max_rel_err_percent": float(100.0 * errs[ok].max()),
        "failed_cells": int((~ok).sum()),
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_estimate(cfg, observed=None, true_mu=None, noise=0.0, runs=3,
                 shrink=0.5, out=None):
    for key, is_set in (("nodes.kind", cfg.nodes["kind"] != "sparse_cross"),
                        ("nodes.anchors", cfg.nodes["anchors"] is not None),
                        ("sweep.sigma", cfg.sweep["sigma"] is not None)):
        if is_set:
            raise ValueError("estimate does not support config key %r: each run "
                             "samples a midpoint cross at the default shift" % key)
    problem = _build_problem(cfg)
    if observed is not None:
        x_obs = storage.load_vector(observed)
    elif true_mu is not None:
        x_obs = problems.direct_reference_solve(problem, *true_mu)
    else:
        raise ValueError("need --observed or --true-mu1/--true-mu2")
    if noise:
        x_obs = est.add_noise(x_obs, noise, seed=cfg.seed)
    records = est.refine_estimate(
        problem, x_obs, runs=runs,
        n1=int(cfg.nodes["n1"]), n2=int(cfg.nodes["n2"]),
        shrink=shrink,
        sweep_tol=float(cfg.sweep["tol"]),
        k_max=int(cfg.sweep["k_max"]),
        eps_node=float(cfg.decompose["eps_node"]),
        max_modes=int(cfg.decompose["max_modes"]),
        true_parameters=true_mu,
    )
    report = {"runs": [r.to_dict() for r in records],
              "estimate": {"mu1": records[-1].estimate[0],
                           "mu2": records[-1].estimate[1]},
              "noise": noise, "seed": cfg.seed}
    if out:
        storage.save_json(out, report)
        report["report"] = out
    print(json.dumps(report["estimate"] | {"runs": len(records)}))
    return EXIT_OK


def cmd_demo(outdir, seed=42):
    """Desk-scale end-to-end workflow on the advection-diffusion problem:
    snapshots, decomposition, error map, noisy parameter estimation, with
    the offline/online timing split."""
    cfg = RunConfig(outdir=os.path.join(outdir, "snapshots"), seed=seed)
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    cmd_snapshots(cfg)
    modeldir = os.path.join(outdir, "model")
    status = cmd_decompose(cfg.outdir, modeldir, dict(cfg.decompose), seed=seed)
    offline = time.perf_counter() - t0
    if status != EXIT_OK:
        return status
    cmd_errmap(modeldir, os.path.join(outdir, "errmap.csv"), 20, 20)

    interpolated, doc = _load_interpolated(modeldir)
    problem = problems.from_config(doc["problem"])
    t0 = time.perf_counter()
    interpolated(0.33, 0.21)
    online = time.perf_counter() - t0

    true_mu = (0.3, 0.4)
    cmd_estimate(RunConfig(seed=seed), true_mu=true_mu, noise=1e-2, runs=3,
                 out=os.path.join(outdir, "estimate.json"))
    print(json.dumps({"offline_seconds": offline, "online_seconds": online,
                      "outdir": outdir}))
    return EXIT_OK


def _parser():
    p = argparse.ArgumentParser(prog="paramrom", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_config(sp, node_plan=True):
        sp.add_argument("--config", help="JSON config file (RunConfig schema)")
        sp.add_argument("--problem", help="preset name; naming another preset "
                        "than the config's drops the config's problem keys")
        sp.add_argument("--grid-n", type=int)
        sp.add_argument("--dt", type=float)
        if node_plan:
            sp.add_argument("--kind", choices=["sparse_cross", "full_grid"])
            sp.add_argument("--sigma", type=float)
        sp.add_argument("--n1", type=int)
        sp.add_argument("--n2", type=int)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--k-max", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("-o", "--outdir")

    sp = sub.add_parser("snapshots", help="run the sweeps for a node plan")
    add_config(sp)

    sp = sub.add_parser("decompose", help="decompose a snapshot directory")
    sp.add_argument("snapshots")
    sp.add_argument("-o", "--model", required=True)
    sp.add_argument("--eps-node", type=float)
    sp.add_argument("--max-modes", type=int)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("eval", help="evaluate a model at one point")
    sp.add_argument("model")
    sp.add_argument("--mu1", type=float, required=True)
    sp.add_argument("--mu2", type=float, required=True)
    sp.add_argument("-o", "--out")
    sp.add_argument("--reference", action="store_true",
                    help="also direct-solve and report the relative error")

    sp = sub.add_parser("errmap", help="model-vs-direct error map CSV")
    sp.add_argument("model")
    sp.add_argument("-o", "--out", required=True)
    sp.add_argument("--grid", default="20x20", help="G1xG2 cells")

    # Each zoom run samples a midpoint cross at the default shift, so
    # estimate takes no --kind or --sigma.
    sp = sub.add_parser("estimate", help="multi-run parameter estimation")
    add_config(sp, node_plan=False)
    sp.add_argument("--observed", help="observed solution vector (.f64le)")
    sp.add_argument("--true-mu1", type=float)
    sp.add_argument("--true-mu2", type=float)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--runs", type=int, default=3)
    sp.add_argument("--shrink", type=float, default=0.5)
    sp.add_argument("--report", help="write the per-run report JSON here")

    sp = sub.add_parser("demo", help="desk-scale end-to-end workflow")
    sp.add_argument("-o", "--outdir", default="paramrom_demo")
    sp.add_argument("--seed", type=int, default=42)

    return p


def _config_from_args(args):
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    if args.problem and args.problem != cfg.problem.get("name"):
        # Another preset's keys (such as the default's dt) do not carry over.
        cfg.problem = {"name": args.problem}
    if args.grid_n is not None:
        cfg.problem["grid_n"] = args.grid_n
    if args.dt is not None:
        cfg.problem["dt"] = args.dt
    if getattr(args, "kind", None):
        cfg.nodes["kind"] = args.kind
    if args.n1 is not None:
        cfg.nodes["n1"] = args.n1
    if args.n2 is not None:
        cfg.nodes["n2"] = args.n2
    if getattr(args, "sigma", None) is not None:
        cfg.sweep["sigma"] = args.sigma
    if args.tol is not None:
        cfg.sweep["tol"] = args.tol
    if args.k_max is not None:
        cfg.sweep["k_max"] = args.k_max
    if args.seed is not None:
        cfg.seed = args.seed
    if args.outdir:
        cfg.outdir = args.outdir
    return cfg


def _fail(code, exc):
    sys.stderr.write(json.dumps({"error": str(exc), "code": code,
                                 "type": type(exc).__name__}) + "\n")
    return code


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "snapshots":
            return cmd_snapshots(_config_from_args(args))
        if args.command == "decompose":
            options = {}
            for key in ("eps_node", "max_modes"):
                value = getattr(args, key)
                if value is not None:
                    options[key] = value
            return cmd_decompose(args.snapshots, args.model, options,
                                 seed=args.seed)
        if args.command == "eval":
            return cmd_eval(args.model, args.mu1, args.mu2, out=args.out,
                            reference=args.reference)
        if args.command == "errmap":
            g1, g2 = (int(v) for v in args.grid.lower().split("x"))
            return cmd_errmap(args.model, args.out, g1, g2)
        if args.command == "estimate":
            cfg = _config_from_args(args)
            true_mu = None
            if args.true_mu1 is not None and args.true_mu2 is not None:
                true_mu = (args.true_mu1, args.true_mu2)
            return cmd_estimate(cfg, observed=args.observed, true_mu=true_mu,
                                noise=args.noise, runs=args.runs,
                                shrink=args.shrink, out=args.report)
        if args.command == "demo":
            return cmd_demo(args.outdir, seed=args.seed)
        raise ValueError("unknown command %r" % args.command)
    except NoConvergenceError as exc:
        return _fail(EXIT_SOLVER, exc)
    except (FileNotFoundError, ValueError, KeyError) as exc:
        return _fail(EXIT_INPUT, exc)
    except ParamRomError as exc:
        return _fail(EXIT_SOLVER, exc)


if __name__ == "__main__":
    sys.exit(main())
