"""End-to-end CLI checks: subcommands, exit codes, CSV determinism."""
import json

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import k0

from shgff.cli import (
    EXIT_CONFIG, EXIT_NONCONVERGED, EXIT_OK, EXIT_REGION, main,
)

UNIT_CFG = {
    "model": {"b": 0.25, "mass": 1.0},
    "operators": [
        {"name": "O1", "omega": 0.0, "spin": 0.0, "growth": 0.0,
         "provider": {"kind": "unit"}},
        {"name": "O2", "omega": 0.0, "spin": 0.0, "growth": 0.0,
         "provider": {"kind": "unit"}},
    ],
    "request": {"points": [[0.0, 1.0], [0.0, 0.0]], "r": [1],
                "nodes": 96, "tol": 1e-9},
}

KT_CFG = {
    "model": {"b": 0.25, "mass": 1.0},
    "operators": [
        {"name": "kt", "omega": 0.0, "spin": 0.0, "growth": 0.0,
         "provider": {"kind": "k-transform", "t": 0.3, "c1": 1.0}},
    ],
    "request": {"points": [[0.0, 0.0]], "r": []},
}


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_specfun_outputs_values(runner):
    res = runner.invoke(main, ["specfun", "--b", "0.25", "--beta", "0.0"])
    assert res.exit_code == EXIT_OK
    line = res.output.strip().splitlines()[1].split(",")
    assert float(line[1]) == -1.0  # S(0) = -1
    assert abs(float(line[3])) < 1e-12  # F(0) = 0


def test_specfun_rejects_bad_coupling(runner):
    res = runner.invoke(main, ["specfun", "--b", "0.7", "--beta", "1.0"])
    assert res.exit_code == EXIT_CONFIG


def test_enumerate(runner):
    res = runner.invoke(main, ["enumerate", "--k", "3", "--r", "1,1"])
    assert res.exit_code == EXIT_OK
    assert "total: 2" in res.output


def test_verify_passes_for_k_transform(runner, tmp_path):
    path = _write(tmp_path, KT_CFG)
    res = runner.invoke(main, ["verify", "--config", path, "--n-max", "2",
                               "--tol", "1e-6"])
    assert res.exit_code == EXIT_OK, res.output
    assert "OK" in res.output


def test_verify_fails_for_unit_fixture(runner, tmp_path):
    path = _write(tmp_path, UNIT_CFG)
    res = runner.invoke(main, ["verify", "--config", path, "--n-max", "2"])
    assert res.exit_code == EXIT_NONCONVERGED


def test_eval_ff(runner, tmp_path):
    path = _write(tmp_path, UNIT_CFG)
    res = runner.invoke(main, ["eval-ff", "--config", path,
                               "--operator", "O1", "--betas", "0.1,0.5"])
    assert res.exit_code == EXIT_OK
    assert "F_2" in res.output


def test_eval_ff_unknown_operator(runner, tmp_path):
    path = _write(tmp_path, UNIT_CFG)
    res = runner.invoke(main, ["eval-ff", "--config", path,
                               "--operator", "nope", "--betas", "0.1"])
    assert res.exit_code == EXIT_CONFIG


def test_correlator_csv_and_determinism(runner, tmp_path):
    path = _write(tmp_path, UNIT_CFG)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    r1 = runner.invoke(main, ["correlator", "--config", path, "--output", out1])
    r2 = runner.invoke(main, ["correlator", "--config", path, "--output", out2])
    assert r1.exit_code == EXIT_OK, r1.output
    assert r2.exit_code == EXIT_OK
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2  # byte-identical reruns
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "composition,re_I,im_I,err,phase_re,phase_im"
    assert lines[-1].startswith("total,")
    total = float(lines[-1].split(",")[1])
    assert abs(total - k0(1.0) / np.pi) < 1e-8


def test_correlator_region_error(runner, tmp_path):
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["request"]["points"] = [[0.0, 0.0], [0.0, 1.0]]
    path = _write(tmp_path, cfg)
    res = runner.invoke(main, ["correlator", "--config", path])
    assert res.exit_code == EXIT_REGION


def test_correlator_bad_config(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = runner.invoke(main, ["correlator", "--config", str(path)])
    assert res.exit_code == EXIT_CONFIG


@pytest.mark.parametrize("flags", [["--tol", "0"], ["--nodes", "0"], ["--L", "0"],
                                   ["--L", "-1"]])
def test_correlator_rejects_nonpositive_settings(runner, tmp_path, flags):
    path = _write(tmp_path, UNIT_CFG)
    res = runner.invoke(main, ["correlator", "--config", path] + flags)
    assert res.exit_code == EXIT_CONFIG, res.output


def test_correlator_rejects_nonpositive_config_values(runner, tmp_path):
    for key, val in (("tol", 0.0), ("nodes", 0), ("L", -2.0)):
        cfg = json.loads(json.dumps(UNIT_CFG))
        cfg["request"][key] = val
        res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
        assert res.exit_code == EXIT_CONFIG, (key, res.output)


def test_correlator_rejects_max_nodes_below_second_level(runner, tmp_path):
    # every composition evaluates nodes and 2 * nodes intervals per axis
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["request"]["max_nodes"] = 64
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "max_nodes" in res.output
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, UNIT_CFG),
                               "--nodes", "2000"])
    assert res.exit_code == EXIT_CONFIG, res.output


def test_correlator_rejects_k_transform_at_half_coupling(runner, tmp_path):
    # sin(2 pi b) = 1.2e-16 at b = 1/2; the residue coupling would be ~1e16
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["model"]["b"] = 0.5
    cfg["operators"] = [KT_CFG["operators"][0]] * 2
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output


def test_correlator_threads_match_serial(runner, tmp_path):
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["request"]["r"] = [2]
    cfg["request"]["nodes"] = 48
    path = _write(tmp_path, cfg)
    out1, out2 = str(tmp_path / "s.csv"), str(tmp_path / "t.csv")
    r1 = runner.invoke(main, ["correlator", "--config", path, "--output", out1])
    r2 = runner.invoke(main, ["correlator", "--config", path, "--output", out2,
                              "--threads", "4"])
    assert r1.exit_code == EXIT_OK and r2.exit_code == EXIT_OK
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_correlator_threads_reject_bad_mixed(runner, tmp_path):
    path = _write(tmp_path, UNIT_CFG)
    res = runner.invoke(main, ["correlator", "--config", path, "--mixed", "5",
                               "--threads", "2"])
    assert res.exit_code == EXIT_CONFIG, res.output


def test_correlator_unit_at_half_coupling_is_config_error(runner, tmp_path):
    # eta_max is 0 at b = 1/2, so no admissible ladder exists
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["model"]["b"] = 0.5
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output


def test_correlator_smeared(runner, tmp_path):
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["request"]["smearings"] = [
        {"center": [0.0, 1.0], "width": [0.05, 0.05]},
        {"center": [0.0, 0.0], "width": [0.05, 0.05]},
    ]
    path = _write(tmp_path, cfg)
    res = runner.invoke(main, ["correlator", "--config", path, "--smeared"])
    assert res.exit_code == EXIT_OK, res.output
    total = float(res.output.strip().splitlines()[-1].split(",")[1])
    w = 0.05
    want = (2 * np.pi * w * w) ** 2 * k0(1.0) / np.pi
    assert abs(total - want) < 0.02 * want


def test_correlator_smeared_three_point_is_config_error(runner, tmp_path):
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["operators"].append(dict(cfg["operators"][0], name="O3"))
    cfg["request"]["points"] = [[0.0, 1.0], [0.0, 0.0], [0.0, -1.0]]
    cfg["request"]["r"] = [1, 1]
    cfg["request"]["smearings"] = [
        {"center": [0.0, x1], "width": [0.05, 0.05]} for x1 in (1.0, 0.0, -1.0)]
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg),
                               "--smeared"])
    assert res.exit_code == EXIT_CONFIG, res.output


def test_correlator_writes_doc(runner, tmp_path):
    cfg = json.loads(json.dumps(UNIT_CFG))
    doc = tmp_path / "report.txt"
    cfg["output"] = {"doc": str(doc)}
    path = _write(tmp_path, cfg)
    res = runner.invoke(main, ["correlator", "--config", path])
    assert res.exit_code == EXIT_OK
    assert doc.read_text().startswith("W =")
