"""End-to-end CLI checks: subcommands, exit codes, CSV determinism."""
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import k0

import shgff.cli
from shgff.cli import (
    EXIT_CONFIG, EXIT_INTERNAL, EXIT_NONCONVERGED, EXIT_OK, EXIT_REGION, _model_from,
    _operators_from, _request_from, main,
)
from shgff.correlator import CorrelatorRequest

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
    b1, b2 = Path(out1).read_bytes(), Path(out2).read_bytes()
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


def test_request_keeps_correlator_request_defaults():
    # sizes that neither the config nor a flag gives are CorrelatorRequest's
    cfg = json.loads(json.dumps(UNIT_CFG))
    del cfg["request"]["nodes"], cfg["request"]["tol"]
    params = _model_from(cfg)
    ops = _operators_from(cfg, params)
    got = _request_from(cfg, params, ops, None, None, None)
    assert got == CorrelatorRequest(params=params, operators=ops, points=got.points,
                                    r=got.r)
    # a flag wins over the config
    cfg["request"].update(nodes=96, L=6.0, tol=1e-9)
    got = _request_from(cfg, params, ops, 1e-6, 48, None)
    assert (got.nodes, got.L, got.tol, got.max_nodes) == \
        (48, 6.0, 1e-6, CorrelatorRequest.max_nodes)


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
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


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


def test_specfun_free_point_at_zero_rapidity(runner):
    # S = sinh/sinh and F = w_{1/2} at b = 0: both identically 1
    res = runner.invoke(main, ["specfun", "--b", "0", "--beta", "0"])
    assert res.exit_code == EXIT_OK, res.output
    assert [float(x) for x in res.output.splitlines()[1].split(",")] == [0.0, 1.0, 0.0, 1.0, 0.0]


def test_correlator_writes_doc(runner, tmp_path):
    cfg = json.loads(json.dumps(UNIT_CFG))
    doc = tmp_path / "report.txt"
    cfg["output"] = {"doc": str(doc)}
    path = _write(tmp_path, cfg)
    res = runner.invoke(main, ["correlator", "--config", path])
    assert res.exit_code == EXIT_OK
    assert doc.read_text().startswith("W =")


def _variant(cfg, section, **entries):
    out = json.loads(json.dumps(cfg))
    out.setdefault(section, {}).update(entries)
    return out


# exponential-like operators whose coefficients stop at n = 1
EL_CFG = _variant(UNIT_CFG, "request", r=[2], nodes=16)
EL_CFG["operators"] = [
    {"name": name, "provider": {"kind": "exponential-like", "coefficients": [1.0, 1.0]}}
    for name in ("E1", "E2")]
REGION_CFG = _variant(UNIT_CFG, "request", points=[[0.0, 0.0], [0.0, 1.0]])
UNCONVERGED_CFG = _variant(UNIT_CFG, "request", nodes=4, max_nodes=8, tol=1e-12)
DOC_CFG = _variant(UNIT_CFG, "output", doc="missing/report.txt")
FD_DOC_CFG = _variant(UNIT_CFG, "output", doc=1)
LIST_OUTPUT_CFG = dict(UNIT_CFG, output=[])


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


# (argv with CFG for the config's path, config, name in shgff.cli replaced by
# _boom, exit code, start of a line the failure prints); paths are relative to
# an empty directory
EXIT_TABLE = [
    pytest.param(["specfun", "--b", "0.25", "--beta", "800"], None, None, EXIT_OK, None,
                 id="specfun-ok"),
    pytest.param(["specfun", "--b", "0", "--beta", "0"], None, None, EXIT_OK, None,
                 id="specfun-free-point-at-zero"),
    pytest.param(["specfun", "--b", "0.7", "--beta", "1"], None, None, EXIT_CONFIG,
                 "config error: coupling b", id="specfun-bad-coupling"),
    pytest.param(["specfun", "--b", "0.25", "--beta", "1"], None, "s_matrix", EXIT_INTERNAL,
                 "internal error: boom", id="specfun-internal"),
    pytest.param(["verify", "--config", "CFG", "--n-max", "2"], KT_CFG, None, EXIT_OK, None,
                 id="verify-ok"),
    pytest.param(["verify", "--config", "CFG", "--n-max", "2"], UNIT_CFG, None,
                 EXIT_NONCONVERGED, "FAIL worst residual", id="verify-fail"),
    pytest.param(["verify", "--config", "CFG", "--n-max", "2"], EL_CFG, None, EXIT_CONFIG,
                 "config error: no coefficient provided for n = 2",
                 id="verify-missing-coefficient"),
    pytest.param(["verify", "--config", "CFG", "--n-max", "-1"], KT_CFG, None, EXIT_CONFIG,
                 "Error: Invalid value for '--n-max'", id="verify-negative-n-max"),
    pytest.param(["verify", "--config", "missing.json"], None, None, EXIT_CONFIG,
                 "config error: [Errno 2]", id="verify-missing-config"),
    pytest.param(["enumerate", "--k", "3", "--r", "1,1"], None, None, EXIT_OK, None,
                 id="enumerate-ok"),
    pytest.param(["enumerate", "--k", "3", "--r", "1,x"], None, None, EXIT_CONFIG,
                 "config error: invalid literal", id="enumerate-bad-rank"),
    pytest.param(["enumerate", "--k", "3", "--r", "1,1"], None, "enumerate_compositions",
                 EXIT_INTERNAL, "internal error: boom", id="enumerate-internal"),
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.1,0.2"], KT_CFG, None,
                 EXIT_OK, None, id="eval-ff-ok"),
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.1,0.2"], EL_CFG, None,
                 EXIT_CONFIG, "config error: no coefficient provided for n = 2",
                 id="eval-ff-missing-coefficient"),
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.1,0.1"], KT_CFG, None,
                 EXIT_CONFIG, "config error: ", id="eval-ff-coinciding-rapidities"),
    pytest.param(["eval-ff", "--config", "CFG", "--operator", "nope", "--betas", "0.1"],
                 UNIT_CFG, None, EXIT_CONFIG, "config error: no operator named nope",
                 id="eval-ff-unknown-operator"),
    pytest.param(["correlator", "--config", "CFG", "--output", "out.csv"], UNIT_CFG, None,
                 EXIT_OK, None, id="correlator-ok"),
    pytest.param(["correlator", "--config", "CFG", "--output", "missing/out.csv"], UNIT_CFG,
                 None, EXIT_CONFIG, "config error: [Errno 2]", id="correlator-bad-output"),
    pytest.param(["correlator", "--config", "CFG"], DOC_CFG, None, EXIT_CONFIG,
                 "config error: [Errno 2]", id="correlator-bad-doc"),
    pytest.param(["correlator", "--config", "CFG"], FD_DOC_CFG, "compute_W_r", EXIT_CONFIG,
                 "config error: bad output section", id="correlator-doc-not-a-path"),
    pytest.param(["correlator", "--config", "CFG"], LIST_OUTPUT_CFG, "compute_W_r",
                 EXIT_CONFIG, "config error: bad output section", id="correlator-output-list"),
    pytest.param(["correlator", "--config", "CFG"], EL_CFG, None, EXIT_CONFIG,
                 "config error: no coefficient provided for n = 2",
                 id="correlator-missing-coefficient"),
    pytest.param(["correlator", "--config", "CFG"], REGION_CFG, None, EXIT_REGION,
                 "region error: points must be space-like", id="correlator-region"),
    pytest.param(["correlator", "--config", "CFG", "--threads", "2"], REGION_CFG, None,
                 EXIT_REGION, "region error: points must be space-like",
                 id="correlator-region-threads"),
    pytest.param(["correlator", "--config", "CFG", "--threads", "0"], UNIT_CFG, None,
                 EXIT_CONFIG, "Error: Invalid value for '--threads'", id="correlator-no-threads"),
    pytest.param(["correlator", "--config", "CFG"], UNCONVERGED_CFG, None, EXIT_NONCONVERGED,
                 "non-convergence: error estimate", id="correlator-unconverged"),
    pytest.param(["correlator", "--config", "CFG"], UNIT_CFG, "compute_W_r", EXIT_INTERNAL,
                 "internal error: boom", id="correlator-internal"),
]


@pytest.mark.parametrize("argv, cfg, broken, code, message", EXIT_TABLE)
def test_exit_codes(runner, tmp_path, monkeypatch, argv, cfg, broken, code, message):
    monkeypatch.chdir(tmp_path)
    if broken:
        monkeypatch.setattr(shgff.cli, broken, _boom)
    if cfg is not None:
        argv = [_write(tmp_path, cfg) if a == "CFG" else a for a in argv]
    res = runner.invoke(main, argv)
    assert res.exit_code == code, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if message is not None:
        assert any(line.startswith(message) for line in res.output.splitlines()), res.output
