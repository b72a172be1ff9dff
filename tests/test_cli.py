import json
import os

import pytest

from paramrom import cli, storage
from paramrom.cli import RunConfig


def small_cross_config(tmp_path, outname="snaps"):
    return RunConfig.from_dict({
        "problem": {"name": "helmholtz_sim1", "grid_n": 6},
        "nodes": {"kind": "sparse_cross", "n1": 7, "n2": 7},
        "sweep": {"sigma": 1.48, "tol": 1e-8, "k_max": 200},
        "outdir": str(tmp_path / outname),
    })


def test_config_round_trip(tmp_path):
    cfg = small_cross_config(tmp_path)
    path = tmp_path / "cfg.json"
    storage.save_json(path, cfg.to_dict())
    back = RunConfig.load(path)
    assert back.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        RunConfig.from_dict({"unknown": 1})


def test_snapshots_cross_layout(tmp_path, capsys):
    cfg = small_cross_config(tmp_path)
    assert cli.cmd_snapshots(cfg) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lines"] == 2
    assert out["vectors"] == 13
    manifest = storage.load_json(os.path.join(cfg.outdir, "manifest.json"))
    assert len(manifest["lines"]) == 2
    line0 = manifest["lines"][0]
    assert len(line0["free_values"]) == 7
    assert os.path.exists(os.path.join(cfg.outdir, "line_00", "value_006.f64le"))


def test_snapshots_rerun_is_byte_identical(tmp_path):
    cfg1 = small_cross_config(tmp_path, "a")
    cfg2 = small_cross_config(tmp_path, "b")
    cli.cmd_snapshots(cfg1)
    cli.cmd_snapshots(cfg2)
    v1 = (tmp_path / "a" / "line_00" / "value_003.f64le").read_bytes()
    v2 = (tmp_path / "b" / "line_00" / "value_003.f64le").read_bytes()
    assert v1 == v2


def test_full_grid_snapshot_plan(tmp_path, capsys):
    cfg = RunConfig.from_dict({
        "problem": {"name": "helmholtz_sim2", "grid_n": 5},
        "nodes": {"kind": "full_grid", "n1": 4, "n2": 3},
        "outdir": str(tmp_path / "grid"),
    })
    assert cli.cmd_snapshots(cfg) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lines"] == 3          # one sweep per fixed mu2 value
    assert out["vectors"] == 12


def test_decompose_and_eval(tmp_path, capsys):
    cfg = small_cross_config(tmp_path)
    cli.cmd_snapshots(cfg)
    modeldir = str(tmp_path / "model")
    code = cli.cmd_decompose(cfg.outdir, modeldir, {"eps_node": 1e-3})
    assert code == 0
    capsys.readouterr()
    # evaluate at a node: model error there is below the decomposition tol
    code = cli.cmd_eval(modeldir, 1.5, 1.5, out=str(tmp_path / "x"),
                        reference=True)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rel_err_percent"] < 0.1 + 1e-4
    x = storage.load_vector(tmp_path / "x")
    assert x.shape == (36,)


def test_decompose_not_converged_exit_code(tmp_path, capsys):
    cfg = RunConfig.from_dict({
        "problem": {"name": "advection_diffusion", "grid_n": 60, "dt": 0.01},
        "nodes": {"kind": "sparse_cross", "n1": 5, "n2": 5},
        "outdir": str(tmp_path / "adsnaps"),
    })
    cli.cmd_snapshots(cfg)
    code = cli.cmd_decompose(cfg.outdir, str(tmp_path / "m"),
                             {"eps_node": 1e-14, "max_modes": 1})
    assert code == 3


def test_decompose_missing_dir_exit_code(tmp_path):
    code = cli.main(["decompose", str(tmp_path / "nothing"),
                     "-o", str(tmp_path / "m")])
    assert code == 2


def test_errmap_csv(tmp_path, capsys):
    cfg = small_cross_config(tmp_path)
    cli.cmd_snapshots(cfg)
    modeldir = str(tmp_path / "model")
    cli.cmd_decompose(cfg.outdir, modeldir, {})
    capsys.readouterr()
    csv_path = str(tmp_path / "errmap.csv")
    assert cli.cmd_errmap(modeldir, csv_path, 5, 4) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells"] == 20
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "mu1,mu2,rel_err_percent,class"
    assert len(lines) == 21


def test_estimate_reproducible(tmp_path, capsys):
    argv = ["estimate", "--problem", "advection_diffusion", "--grid-n", "80",
            "--n1", "5", "--n2", "5", "--true-mu1", "0.3", "--true-mu2", "0.2",
            "--noise", "1e-2", "--seed", "11", "--runs", "2",
            "--report", str(tmp_path / "r1.json")]
    assert cli.main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    argv[-1] = str(tmp_path / "r2.json")
    assert cli.main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["mu1"] == second["mu1"]
    assert first["mu2"] == second["mu2"]
    r1 = storage.load_json(tmp_path / "r1.json")
    assert len(r1["runs"]) == 2
    assert "rel_err_percent_mu1" in r1["runs"][0]


def test_cli_entry_point_help():
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0


def test_demo_workflow(tmp_path, capsys):
    # Smaller-than-default demo via the demo command's own config is the
    # desk advdiff; keep it as an integration check of the full wiring.
    code = cli.cmd_demo(str(tmp_path / "demo"), seed=2)
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert summary["offline_seconds"] > 0
    assert os.path.exists(tmp_path / "demo" / "errmap.csv")
    assert os.path.exists(tmp_path / "demo" / "estimate.json")
