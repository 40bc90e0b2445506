"""End-to-end CLI checks: subcommands, exit codes, CSV determinism."""
import dataclasses
import json
import math
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
from shgff.correlator import CorrelatorRequest, GaussianSmearing, SpacetimePoint, compute_W_r

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


def test_specfun_options_are_the_coupling_and_rapidities(runner):
    # S and F_min do not depend on the mass, so specfun takes none
    res = runner.invoke(main, ["specfun", "--help"])
    assert res.exit_code == EXIT_OK
    assert {w.rstrip(",") for w in res.output.split() if w.startswith("--")} == {
        "--b", "--beta", "--help"}


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


@pytest.mark.parametrize("key, value, message", [
    ("tol", 0.0, "tol must be a finite positive number, got 0.0"),
    ("nodes", 0, "nodes must be a positive integer, got 0"),
    ("L", 0.0, "L must be a finite positive number, got 0.0"),
    ("L", -1.0, "L must be a finite positive number, got -1.0"),
    ("L", -2.0, "L must be a finite positive number, got -2.0"),
])
def test_correlator_rejects_nonpositive_settings(runner, tmp_path, key, value, message):
    cfg = _variant(UNIT_CFG, "request", **{key: value})
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output == f"config error: {message}\n"


def test_request_section_holds_the_request_fields():
    # what the config does not give keeps CorrelatorRequest's default
    cfg = json.loads(json.dumps(UNIT_CFG))
    del cfg["request"]["nodes"], cfg["request"]["tol"]
    params = _model_from(cfg)
    ops = _operators_from(cfg, params)
    got = _request_from(cfg, params, ops)
    assert got == CorrelatorRequest(params=params, operators=ops, points=got.points,
                                    r=got.r)
    # every field but params and operators is a key
    cfg["request"].update(nodes=48, L=6.0, max_nodes=192, tol=1e-6, mixed_t=2)
    got = _request_from(cfg, params, ops)
    assert (got.nodes, got.L, got.max_nodes, got.tol, got.mixed_t) == (48, 6.0, 192, 1e-6, 2)


def test_correlator_rejects_max_nodes_below_second_level(runner, tmp_path):
    # every composition evaluates nodes and 2 * nodes intervals per axis
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["request"]["max_nodes"] = 64
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "max_nodes" in res.output
    # the request's own refusal, without the "bad request section" label
    cfg = _variant(UNIT_CFG, "request", nodes=2000)
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output == "config error: max_nodes must be at least 2 * nodes = 4000, got 3072\n"


def test_correlator_rejects_k_transform_at_half_coupling(runner, tmp_path):
    # sin(2 pi b) = 1.2e-16 at b = 1/2; the residue coupling would be ~1e16
    cfg = json.loads(json.dumps(UNIT_CFG))
    cfg["model"]["b"] = 0.5
    cfg["operators"] = [KT_CFG["operators"][0]] * 2
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output


def test_correlator_rejects_bad_mixed(runner, tmp_path):
    path = _write(tmp_path, _variant(UNIT_CFG, "request", mixed_t=5))
    res = runner.invoke(main, ["correlator", "--config", path])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output == "config error: mixed_t must be an integer in 1..2, got 5\n"


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
    res = runner.invoke(main, ["correlator", "--config", path])
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
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output == "config error: smeared correlators are two-point only (k <= 2)\n"


def _total_row(result):
    return ",".join(["total", *(f"{x:.17e}" for x in (result.value.real, result.value.imag,
                                                       result.error, 1.0, 0.0))])


@pytest.mark.parametrize("key, value", [
    ("mixed_t", 2),
    ("smearings", [GaussianSmearing((0.0, 1.0), (0.05, 0.05)),
                   GaussianSmearing((0.0, 0.0), (0.05, 0.05))]),
])
def test_correlator_runs_the_whole_request_section(runner, tmp_path, key, value):
    # "mixed_t" was refused as an unknown key, and "smearings" were ignored
    # without a word: the point correlator ran unless a flag asked for them
    doc = [{"center": list(g.center), "width": list(g.width)} for g in value] \
        if key == "smearings" else value
    res = runner.invoke(main, ["correlator", "--config",
                               _write(tmp_path, _variant(UNIT_CFG, "request", **{key: doc}))])
    assert res.exit_code == EXIT_OK, res.output
    params = _model_from(UNIT_CFG)
    plain = CorrelatorRequest(params=params, operators=_operators_from(UNIT_CFG, params),
                              points=[SpacetimePoint(0.0, 1.0), SpacetimePoint(0.0, 0.0)],
                              r=(1,), nodes=96, tol=1e-9)
    want = compute_W_r(dataclasses.replace(plain, **{key: value}))
    assert res.output.splitlines()[-1] == _total_row(want)
    if key == "smearings":
        assert _total_row(want) != _total_row(compute_W_r(plain))


def test_correlator_options_are_deployment_settings(runner):
    # a run's numbers come from the config's request section alone
    res = runner.invoke(main, ["correlator", "--help"])
    assert res.exit_code == EXIT_OK
    options = {word.rstrip(",") for line in res.output.splitlines()
               for word in line.split() if word.startswith("--")}
    assert options == {"--config", "--output", "--help"}


def test_specfun_free_point_at_zero_rapidity(runner):
    # S = sinh/sinh and F = w_{1/2} at b = 0: both identically 1
    res = runner.invoke(main, ["specfun", "--b", "0", "--beta", "0"])
    assert res.exit_code == EXIT_OK, res.output
    assert [float(x) for x in res.output.splitlines()[1].split(",")] == [0.0, 1.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("entries, code", [
    ({}, EXIT_OK),
    # the composition's error, 1.3e-2, exceeds tol; W's, 2.1e-3, does not
    (dict(nodes=8, max_nodes=16, tol=1e-2), EXIT_OK),
    (dict(nodes=8, max_nodes=16, tol=1e-3), EXIT_NONCONVERGED),
])
def test_correlator_exit_code_is_the_verdict(runner, tmp_path, entries, code):
    cfg = _variant(UNIT_CFG, "request", **entries)
    out = tmp_path / "out.csv"
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg),
                               "--output", str(out)])
    assert res.exit_code == code, res.output
    # the CSV is the one report, and the exit code the one verdict: W's error <= tol
    total = out.read_text().splitlines()[-1].split(",")
    assert total[0] == "total" and res.output.startswith(out.read_text())
    assert (float(total[3]) <= cfg["request"]["tol"]) is (code == EXIT_OK)


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
SMEARED_CFG = _variant(UNIT_CFG, "request", smearings=[
    {"center": [0.0, 1.0], "width": [0.05, 0.05]},
    {"center": [0.0, 0.0], "width": [0.05, 0.05]}])
SMEARED_R2_CFG = _variant(UNIT_CFG, "request", r=[2], max_nodes=384, smearings=[
    {"center": [0.0, 1.0], "width": [0.3, 0.3]},
    {"center": [0.0, 0.0], "width": [0.3, 0.3]}])
NO_POINTS_CFG = _variant(UNIT_CFG, "request")
del NO_POINTS_CFG["request"]["points"]
SMEARED_NO_POINTS_CFG = _variant(SMEARED_CFG, "request")
del SMEARED_NO_POINTS_CFG["request"]["points"]
THREE_OPS_TWO_POINTS_CFG = _variant(UNIT_CFG, "request", r=[1, 1])
THREE_OPS_TWO_POINTS_CFG["operators"].append(dict(UNIT_CFG["operators"][0], name="O3"))
TWO_OPS_THREE_POINTS_CFG = _variant(UNIT_CFG, "request",
                                    points=[[0.0, 1.0], [0.0, 0.0], [0.0, -1.0]])
NO_SHIFT_CFG = _variant(UNIT_CFG, "request", ladder={})
OUT_OF_STRIP_CFG = _variant(UNIT_CFG, "request", ladder={"2,1": 3.3})
BAD_CENTER_CFG = _variant(UNIT_CFG, "request", smearings=[
    {"center": ["a", 1.0], "width": [0.05, 0.05]},
    {"center": [0.0, 0.0], "width": [0.05, 0.05]}])
ZERO_WIDTH_CFG = _variant(UNIT_CFG, "request", smearings=[
    {"center": [0.0, 1.0], "width": [0.05, 0.0]},
    {"center": [0.0, 0.0], "width": [0.05, 0.05]}])
NAN_POINT_CFG = _variant(UNIT_CFG, "request", points=[[float("nan"), 1.0], [0.0, 0.0]])
INFINITE_POINT_CFG = _variant(UNIT_CFG, "request", points=[[0.0, float("inf")], [0.0, 0.0]])
KT2_CFG = _variant(UNIT_CFG, "request")
KT2_CFG["operators"] = [KT_CFG["operators"][0]] * 2
# K-transform operators whose F_1 is near 1e300, so the product of two overflows
HUGE_T_CFG = _variant(dict(KT2_CFG, operators=[
    {"provider": {"kind": "k-transform", "t": 1e300}}] * 2), "request", nodes=16)
# kt3pt's three-operator K-transform request on contours 2 L = 800 apart
KT3_WIDE_CFG = _variant(dict(UNIT_CFG, operators=[KT_CFG["operators"][0]] * 3), "request",
                        points=[[0.0, 1.0], [0.0, 0.0], [0.0, -1.0]], r=[1, 1], L=400.0,
                        tol=1e-6)
# the two-operator K-transform request at r = (2) with the dual exponent set off 1/2 - b
B_HAT_CFG = _variant(_variant(KT2_CFG, "request", r=[2], nodes=32, max_nodes=64, L=6.0),
                     "model", b_hat=0.6)
DOC_CFG = _variant(UNIT_CFG, "output", doc="missing/report.txt")
FD_DOC_CFG = _variant(UNIT_CFG, "output", doc=1)
LIST_OUTPUT_CFG = dict(UNIT_CFG, output=[])
# the unit two-point config with the smeared config's smearings at its top level
TOP_SMEARINGS_CFG = dict(UNIT_CFG, smearings=SMEARED_CFG["request"]["smearings"])


def test_correlator_overflow_prints_no_row(runner, tmp_path):
    # it printed 1,inf,inf,nan and total,nan,nan,nan before exiting 4; the
    # refusal is the one line of output
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, HUGE_T_CFG)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output.startswith("config error: I_n = (inf+infj)")
    assert len(res.output.splitlines()) == 1


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
    pytest.param(["specfun", "--b", "0.5", "--beta", "0"], None, None, EXIT_OK,
                 ",".join(f"{v:.17e}" for v in (0.0, 1.0, 0.0, 1.0, 0.0)),
                 id="specfun-half-point-at-zero"),
    pytest.param(["specfun", "--b", "0.7", "--beta", "1"], None, None, EXIT_CONFIG,
                 "config error: coupling b", id="specfun-bad-coupling"),
    # S and F_min do not depend on the mass: --mass was validated and changed no digit
    pytest.param(["specfun", "--b", "0.25", "--mass", "2", "--beta", "1"], None, None,
                 EXIT_CONFIG, "Error: No such option", id="specfun-mass"),
    *(pytest.param(["specfun", "--b", "0.25", "--beta", "1", "--beta", beta], None, None,
                   EXIT_CONFIG, "config error: rapidities must be finite real numbers",
                   id=f"specfun-beta-{beta}")
      for beta in ("nan", "inf", "-inf")),
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
    # worst > nan is never true: "OK worst residual" and exit 0 whatever the residuals
    *(pytest.param(["verify", "--config", "CFG", "--n-max", "2", "--tol", tol], UNIT_CFG, None,
                   EXIT_CONFIG, f"config error: tol must be a finite positive number, got {float(tol)!r}",
                   id=f"verify-tol-{tol}")
      for tol in ("nan", "inf", "0.0")),
    pytest.param(["enumerate", "--k", "3", "--r", "1,1"], None, None, EXIT_OK, None,
                 id="enumerate-ok"),
    pytest.param(["enumerate", "--k", "3", "--r", "1,x"], None, None, EXIT_CONFIG,
                 "config error: invalid literal", id="enumerate-bad-rank"),
    pytest.param(["enumerate", "--k", "2", "--r", "-1"], None, None, EXIT_CONFIG,
                 "config error: truncation ranks must be non-negative",
                 id="enumerate-negative-rank"),
    # the counts of block (2, 1) ran up to the rank: no output in 10 s
    pytest.param(["enumerate", "--k", "3", "--r", f"{10 ** 30},1"], None, None, EXIT_CONFIG,
                 "config error: truncation ranks must be at most 64", id="enumerate-huge-rank"),
    pytest.param(["enumerate", "--k", "3", "--r", "1,1"], None, "enumerate_compositions",
                 EXIT_INTERNAL, "internal error: boom", id="enumerate-internal"),
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.1,0.2"], KT_CFG, None,
                 EXIT_OK, None, id="eval-ff-ok"),
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.1,0.2"], EL_CFG, None,
                 EXIT_CONFIG, "config error: no coefficient provided for n = 2",
                 id="eval-ff-missing-coefficient"),
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.1,0.1"], KT_CFG, None,
                 EXIT_CONFIG, "config error: ", id="eval-ff-coinciding-rapidities"),
    # a NaN or infinite rapidity printed "kt F_2 = nan nan" with exit 0, after RuntimeWarnings
    *(pytest.param(["eval-ff", "--config", "CFG", "--betas", f"0.3,{beta}"], KT_CFG, None,
                   EXIT_CONFIG, "config error: rapidities must be finite complex numbers",
                   id=f"eval-ff-beta-{beta}")
      for beta in ("nan", "inf", "-inf", "nan+1j")),
    # sinh overflowed in the K-transform's pair factor, with a RuntimeWarning
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "800,0"], KT_CFG, None, EXIT_OK,
                 "kt F_2 = -2.", id="eval-ff-far-apart"),
    pytest.param(["eval-ff", "--config", "CFG", "--operator", "nope", "--betas", "0.1"],
                 UNIT_CFG, None, EXIT_CONFIG, "config error: no operator named nope",
                 id="eval-ff-unknown-operator"),
    pytest.param(["correlator", "--config", "CFG", "--output", "out.csv"], UNIT_CFG, None,
                 EXIT_OK, None, id="correlator-ok"),
    pytest.param(["correlator", "--config", "CFG", "--output", "missing/out.csv"], UNIT_CFG,
                 None, EXIT_CONFIG, "config error: [Errno 2]", id="correlator-bad-output"),
    # the output section and its report went: a config has no top-level key but
    # model, operators and request
    *(pytest.param(["correlator", "--config", "CFG"], cfg, "compute_W_r", EXIT_CONFIG,
                   "config error: unknown keys ['output'] in a config", id=f"correlator-{name}")
      for name, cfg in (("bad-doc", DOC_CFG), ("doc-not-a-path", FD_DOC_CFG),
                        ("output-list", LIST_OUTPUT_CFG))),
    # a misplaced smearings was ignored: the point correlator ran with exit 0
    pytest.param(["correlator", "--config", "CFG"], TOP_SMEARINGS_CFG, "compute_W_r",
                 EXIT_CONFIG, "config error: unknown keys ['smearings'] in a config",
                 id="correlator-top-level-smearings"),
    *(pytest.param([command, "--config", "CFG", *args], FD_DOC_CFG, None, EXIT_CONFIG,
                   "config error: unknown keys ['output'] in a config", id=f"{command}-output")
      for command, args in (("verify", ["--n-max", "2"]), ("eval-ff", ["--betas", "0.3"]))),
    pytest.param(["correlator", "--config", "CFG", "--threads", "2"], UNIT_CFG, "compute_W_r",
                 EXIT_CONFIG, "Error: No such option", id="correlator-threads"),
    pytest.param(["correlator", "--config", "CFG"], EL_CFG, None, EXIT_CONFIG,
                 "config error: no coefficient provided for n = 2",
                 id="correlator-missing-coefficient"),
    pytest.param(["correlator", "--config", "CFG"], REGION_CFG, None, EXIT_REGION,
                 "region error: points must be space-like", id="correlator-region"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", mixed_t=2),
                 None, EXIT_OK, None, id="correlator-mixed"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", mixed_t=5),
                 None, EXIT_CONFIG, "config error: mixed_t must be an integer in 1..2, got 5",
                 id="correlator-bad-mixed"),
    pytest.param(["correlator", "--config", "CFG"], _variant(SMEARED_CFG, "request", mixed_t=2),
                 None, EXIT_CONFIG,
                 "config error: smeared correlators have no t-distinguished form",
                 id="correlator-smeared-mixed"),
    pytest.param(["correlator", "--config", "CFG"], BAD_CENTER_CFG, None,
                 EXIT_CONFIG, "config error: bad request section: center must be two finite",
                 id="correlator-smeared-bad-center"),
    pytest.param(["correlator", "--config", "CFG"], ZERO_WIDTH_CFG, None,
                 EXIT_CONFIG, "config error: bad request section: widths must be positive",
                 id="correlator-smeared-zero-width"),
    # a smeared config had to list points that nothing read
    pytest.param(["correlator", "--config", "CFG"], SMEARED_NO_POINTS_CFG, None,
                 EXIT_OK, None, id="correlator-smeared-no-points"),
    pytest.param(["correlator", "--config", "CFG"], dict(UNIT_CFG, request=[]), None,
                 EXIT_CONFIG, "config error: bad request section", id="correlator-request-list"),
    # "internal error: 'list' object has no attribute 'get'" (and 'int' ..., 'items') before
    pytest.param(["correlator", "--config", "CFG"],
                 dict(UNIT_CFG, operators=[{"provider": [1]}, UNIT_CFG["operators"][1]]), None,
                 EXIT_CONFIG, "config error: bad operators section: provider must be a mapping",
                 id="correlator-provider-list"),
    pytest.param(["correlator", "--config", "CFG"],
                 dict(UNIT_CFG, operators=[5, UNIT_CFG["operators"][1]]), None, EXIT_CONFIG,
                 "config error: bad operators section: an operator must be a mapping",
                 id="correlator-operator-number"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", ladder=[1]),
                 None, EXIT_CONFIG, "config error: bad request section: ladder must be a mapping",
                 id="correlator-ladder-list"),
    # "bad request section: 'points'" before
    pytest.param(["correlator", "--config", "CFG"], NO_POINTS_CFG, None, EXIT_CONFIG,
                 "config error: one point per operator required: 2 operators, 0 points",
                 id="correlator-no-points"),
    pytest.param(["correlator", "--config", "CFG"], THREE_OPS_TWO_POINTS_CFG, None, EXIT_CONFIG,
                 "config error: one point per operator required: 3 operators, 2 points",
                 id="correlator-three-operators-two-points"),
    pytest.param(["correlator", "--config", "CFG"], TWO_OPS_THREE_POINTS_CFG, None, EXIT_CONFIG,
                 "config error: one point per operator required: 2 operators, 3 points",
                 id="correlator-two-operators-three-points"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", L=math.inf),
                 None, EXIT_CONFIG, "config error: L must be a finite positive number, got inf",
                 id="correlator-infinite-L"),
    # check_region passed both: "L = 8.0 is too large" for NaN, NaN rows and exit 4 for inf
    pytest.param(["correlator", "--config", "CFG"], NAN_POINT_CFG, None, EXIT_CONFIG,
                 "config error: point coordinates must be finite real numbers, got (nan, 1.0)",
                 id="correlator-nan-point"),
    pytest.param(["correlator", "--config", "CFG"], INFINITE_POINT_CFG, None, EXIT_CONFIG,
                 "config error: point coordinates must be finite real numbers, got (0.0, inf)",
                 id="correlator-infinite-point"),
    # exp(gamma) in the plane waves overflowed (internal error) at 1000; 1e308 gave NaN rows
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", L=1000.0),
                 None, EXIT_CONFIG, "config error: L = 1000.0 is too large",
                 id="correlator-overflowing-L"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", L=1e308),
                 None, EXIT_CONFIG, "config error: L = 1e+308 is too large",
                 id="correlator-huge-L"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", L=700.0),
                 None, EXIT_NONCONVERGED, "non-convergence: error estimate",
                 id="correlator-large-L"),
    # GaussianSmearing.fourier's q0 * q0 overflowed (internal error) at 354, 360 and 700
    pytest.param(["correlator", "--config", "CFG"], _variant(SMEARED_R2_CFG, "request", L=360.0),
                 None, EXIT_CONFIG,
                 "config error: L = 360.0 is too large for a smeared correlator",
                 id="correlator-smeared-overflowing-L"),
    pytest.param(["correlator", "--config", "CFG"], _variant(SMEARED_R2_CFG, "request", L=300.0),
                 None, EXIT_NONCONVERGED, "non-convergence: error estimate",
                 id="correlator-smeared-large-L"),
    # the K-transform pair factors of contours 2 L apart were NaN: "I_n = (nan+nanj) with
    # error nan at composition (1, 0, 1): the result overflows the double range"
    pytest.param(["correlator", "--config", "CFG"], KT3_WIDE_CFG, None, EXIT_OK,
                 "total,2.84114056923", id="correlator-k-transform-wide-L"),
    pytest.param(["correlator", "--config", "CFG"], NO_SHIFT_CFG, None, EXIT_CONFIG,
                 "config error: ladder has no shift for occupied block (2, 1)",
                 id="correlator-ladder-missing-shift"),
    pytest.param(["correlator", "--config", "CFG"], OUT_OF_STRIP_CFG, None, EXIT_CONFIG,
                 "config error: ladder violation at block (2, 1): eta=3.3 must be below pi",
                 id="correlator-ladder-outside-strip"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", nodes=2000),
                 None, EXIT_CONFIG, "config error: max_nodes must be at least 2 * nodes = 4000",
                 id="correlator-nodes-beyond-max-nodes"),
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", tol=-1.0),
                 None, EXIT_CONFIG, "config error: tol must be a finite positive number, got -1.0",
                 id="correlator-negative-tol"),
    # b_hat = 1/2 - b is no setting: at 0.6 the correlator printed W = 1.41e-2 with
    # error 2.9e-14 and exit 0, and verify --n-max 2 saw exchange 1.6 and exit 4
    *(pytest.param([command, "--config", "CFG", *args], B_HAT_CFG, None, EXIT_CONFIG,
                   "config error: bad model section: ", id=f"{command}-b-hat")
      for command, args in (("correlator", []), ("verify", ["--n-max", "2"]),
                            ("eval-ff", ["--betas", "0.3,-0.2"]))),
    # mass <= 0 was False on NaN: total,nan,... and non-convergence (exit 4)
    *(pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "model", mass=mass),
                   None, EXIT_CONFIG, "config error: bad model section: mass must be a finite "
                   f"positive number, got {mass}", id=f"correlator-mass-{mass}")
      for mass in (float("nan"), float("inf"))),
    # a misspelt kind was the unit operator: "kt F_2 = 1.0 0.0" and exit 0; a
    # misspelt omega was 0; a NaN t printed "F_2 = nan nan" and exited 0
    *(pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.3,-0.2"],
                   dict(KT_CFG, operators=[doc]), None, EXIT_CONFIG,
                   f"config error: bad operators section: {message}", id=f"eval-ff-{name}")
      for name, doc, message in (
          ("no-kind", {"provider": {"kidn": "k-transform", "t": 0.3}}, "provider has no kind"),
          ("unknown-key", {"omgea": 0.5, "provider": KT_CFG["operators"][0]["provider"]},
           "unknown keys ['omgea']"),
          ("nan-t", {"provider": {"kind": "k-transform", "t": float("nan")}},
           "t must be a finite real number, got nan"))),
    # total,nan,... and exit 4 before
    pytest.param(["correlator", "--config", "CFG"],
                 dict(UNIT_CFG, operators=[UNIT_CFG["operators"][0],
                                           dict(UNIT_CFG["operators"][1], omega=float("nan"))]),
                 None, EXIT_CONFIG, "config error: bad operators section: omega must be a finite real number, got nan",
                 id="correlator-nan-omega"),
    # an operator given as JSON text was parsed, and the correlator ran with exit 0
    pytest.param(["correlator", "--config", "CFG"],
                 dict(UNIT_CFG, operators=['{"provider": {"kind": "unit"}}',
                                           UNIT_CFG["operators"][1]]), None, EXIT_CONFIG,
                 "config error: bad operators section: an operator must be a mapping",
                 id="correlator-json-text-operator"),
    # int() ran r = (1,), 24 nodes and r = (1,) with exit 0
    *(pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", **entries),
                   None, EXIT_CONFIG, f"config error: {message}", id=f"correlator-{name}")
      for name, entries, message in (
          ("fractional-rank", {"r": [1.5]},
           "truncation ranks must be non-negative integers, got (1.5,)"),
          ("bool-rank", {"r": [True]},
           "truncation ranks must be non-negative integers, got (True,)"),
          ("ranks-too-many", {"r": [1, 1]}, "r must have length k-1 = 1, got (1, 1)"),
          ("fractional-nodes", {"nodes": 24.7}, "nodes must be a positive integer, got 24.7"),
          ("fractional-max-nodes", {"max_nodes": 400.5},
           "max_nodes must be an integer, got 400.5"))),
    # a 400-digit rank enumerated compositions until killed; r = [65] ended in meshgrid's
    # "maximum supported dimension for an ndarray is currently 64"
    *(pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", r=[r]),
                   None, EXIT_CONFIG, "config error: truncation ranks must be at most 64",
                   id=f"correlator-rank-{name}")
      for name, r in (("65", 65), ("huge", 10 ** 400))),
    # ExponentialPn.coeff divided by t: "internal error: complex division by zero" (exit 5)
    *(pytest.param([command, "--config", "CFG", *args],
                   dict(KT2_CFG, operators=[{"provider": {"kind": "k-transform", "t": 0}}] * 2),
                   None, EXIT_CONFIG,
                   "config error: bad operators section: ExponentialPn needs t != 0",
                   id=f"{command}-zero-t")
      for command, args in (("eval-ff", ["--betas", "0.3,-0.2"]), ("verify", []),
                            ("correlator", []))),
    # the OverflowErrors of (g / t) ** k in ExponentialPn.coeff ("complex exponentiation")
    # and of t ** sum(ells) ("Numerical result out of range") ended in internal error (exit 5)
    *(pytest.param([command, "--config", "CFG", *args],
                   _variant(dict(KT2_CFG, operators=[
                       {"provider": {"kind": "k-transform", "t": t}}] * 2), "request",
                            r=[2], nodes=16),
                   None, EXIT_CONFIG,
                   f"config error: ExponentialPn overflows at t = {t!r}, n = ",
                   id=f"{command}-t-{t}")
      for t in (1e-320, 1e300)
      for command, args in (("eval-ff", ["--betas", "0.3,-0.2,0.1"]), ("verify", []),
                            ("correlator", []))),
    # its values are near 1e298, but finite
    pytest.param(["eval-ff", "--config", "CFG", "--betas", "0.3,-0.2,0.1"],
                 dict(KT_CFG, operators=[{"name": "kt", "provider": {"kind": "k-transform",
                                                                     "t": 1e-300}}]),
                 None, EXIT_OK, "kt F_3 = ", id="eval-ff-t-1e-300"),
    # each ran with exit 0: tol = 1, float() of each string, and eta = 1
    *(pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", **entries),
                   None, EXIT_CONFIG, f"config error: {message}", id=f"correlator-{name}")
      for name, entries, message in (
          ("bool-tol", {"tol": True}, "tol must be a finite positive number, got True"),
          ("string-L", {"L": "6"}, "L must be a finite positive number, got '6'"),
          ("string-point", {"points": [["0", "1"], [0, 0]]},
           "point coordinates must be finite real numbers, got ('0', '1')"),
          ("bool-shift", {"ladder": {"2,1": True}},
           "bad request section: ladder shift of block (2, 1) must be a finite real number, "
           "got True"),
          ("string-shift", {"ladder": {"2,1": "0.3"}},
           "bad request section: ladder shift of block (2, 1) must be a finite real number, "
           "got '0.3'"))),
    # an error of 4.1e-2 was reported as converged
    pytest.param(["correlator", "--config", "CFG"], _variant(UNIT_CFG, "request", tol=math.inf),
                 None, EXIT_CONFIG, "config error: tol must be a finite positive number, got inf",
                 id="correlator-infinite-tol"),
    pytest.param(["correlator", "--config", "CFG"], UNCONVERGED_CFG, None, EXIT_NONCONVERGED,
                 "non-convergence: error estimate", id="correlator-unconverged"),
    # F_1 near 1e300 per operator: the scale overflowed, with RuntimeWarnings, to the rows
    # 1,inf,inf,nan and total,nan,nan,nan and exit 4
    pytest.param(["correlator", "--config", "CFG"], HUGE_T_CFG, None, EXIT_CONFIG,
                 "config error: I_n = (inf+infj) with error nan at composition (1,): "
                 "the result overflows the double range", id="correlator-t-1e300-r1"),
    # a finite I_n whose |integrand| rises toward +L: an infinite tail is non-convergence
    pytest.param(["correlator", "--config", "CFG"],
                 _variant(dict(UNIT_CFG, operators=[{"provider": {
                     "kind": "exponential-like", "coefficients": [1, 1], "slope": 10}}] * 2),
                     "request", L=3.0),
                 None, EXIT_NONCONVERGED, "non-convergence: error estimate inf",
                 id="correlator-infinite-tail"),
    pytest.param(["correlator", "--config", "CFG"], UNIT_CFG, "compute_W_r",
                 EXIT_INTERNAL, "internal error: boom", id="correlator-internal"),
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


def _operator_variant(doc):
    """UNIT_CFG with its first operator replaced by `doc`."""
    return dict(UNIT_CFG, operators=[doc, UNIT_CFG["operators"][1]])


# (config with the value v at one number key, what the refusal names)
NUMBER_KEYS = {
    "b": (lambda v: _variant(UNIT_CFG, "model", b=v), "coupling b must be a number"),
    "mass": (lambda v: _variant(UNIT_CFG, "model", mass=v),
             "mass must be a finite positive number"),
    **{key: (lambda v, key=key: _operator_variant(dict(UNIT_CFG["operators"][0], **{key: v})),
             f"{key} must be a finite real number") for key in ("omega", "spin", "growth")},
    **{key: (lambda v, key=key: _operator_variant(
        {"provider": {"kind": "k-transform", "t": 0.3, key: v}}),
        f"{key} must be a finite real number") for key in ("t", "c1")},
    "slope": (lambda v: _operator_variant({"provider": {
        "kind": "exponential-like", "coefficients": [1.0, 1.0, 1.0], "slope": v}}),
        "slope must be a finite complex number"),
    "coefficient": (lambda v: _operator_variant({"provider": {
        "kind": "exponential-like", "coefficients": [1.0, v, 1.0]}}),
        "coefficient must be a finite complex number"),
    "L": (lambda v: _variant(UNIT_CFG, "request", L=v), "L must be a finite positive number"),
    "tol": (lambda v: _variant(UNIT_CFG, "request", tol=v),
            "tol must be a finite positive number"),
    "point": (lambda v: _variant(UNIT_CFG, "request", points=[[v, 1.0], [0.0, 0.0]]),
              "point coordinates must be finite real numbers"),
    "ladder-shift": (lambda v: _variant(UNIT_CFG, "request", ladder={"2,1": v}),
                     "ladder shift of block (2, 1) must be a finite real number"),
    "smearing-center": (lambda v: _variant(SMEARED_CFG, "request", smearings=[
        {"center": [0.0, v], "width": [0.05, 0.05]}, SMEARED_CFG["request"]["smearings"][1]]),
        "center must be two finite numbers"),
    "smearing-width": (lambda v: _variant(SMEARED_CFG, "request", smearings=[
        {"center": [0.0, 1.0], "width": [v, 0.05]}, SMEARED_CFG["request"]["smearings"][1]]),
        "width must be two finite numbers"),
}


# a string ran through float() (or complex()), a bool as 0 or 1, both with exit 0 where a key
# had no check of its own; an integer beyond float range ended in "internal error: int too
# large to convert to float" (exit 5)
@pytest.mark.parametrize("value", ["0.5", True, 10 ** 400, float("nan")],
                         ids=["string", "bool", "huge-int", "nan"])
@pytest.mark.parametrize("key", NUMBER_KEYS)
def test_every_config_number_is_a_finite_number(runner, tmp_path, key, value):
    cfg, names = NUMBER_KEYS[key]
    # the same config with a good number runs
    good = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg(0.25))])
    assert good.exit_code in (EXIT_OK, EXIT_NONCONVERGED), good.output
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg(value))])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "internal error" not in res.output
    assert any(line.startswith("config error:") and names in line
               for line in res.output.splitlines()), res.output


# each ran with exit 0, as if the key were absent; a smearing of 5 exited 2 with
# "'int' object is not subscriptable"
@pytest.mark.parametrize("cfg, prefix, message", [
    (_variant(UNIT_CFG, "model", mas=7.0), "bad model section: ",
     "unexpected keyword argument 'mas'"),
    (B_HAT_CFG, "bad model section: ", "unexpected keyword argument 'b_hat'"),
    (_variant(UNIT_CFG, "request", nodse=8), "bad request section: ", "unknown keys ['nodse']"),
    (_variant(SMEARED_CFG, "request", smearings=[
        {"center": [0.0, 1.0], "widht": [0.05, 0.05]}, SMEARED_CFG["request"]["smearings"][1]]),
     "bad request section: ", "unknown keys ['widht']"),
    (_variant(SMEARED_CFG, "request", smearings=[5, SMEARED_CFG["request"]["smearings"][1]]),
     "bad request section: ", "a smearing must be a mapping, got 5"),
    # the refusal names the unknown key and echoes nothing else of the config
    (_variant(UNIT_CFG, "outptu", doc="report.txt"), "", "unknown keys ['outptu'] in a config\n"),
], ids=["model", "model-b-hat", "request", "smearing", "smearing-number", "top-level"])
def test_config_sections_refuse_unknown_keys(runner, tmp_path, cfg, prefix, message):
    res = runner.invoke(main, ["correlator", "--config", _write(tmp_path, cfg)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output.startswith(f"config error: {prefix}"), res.output
    assert message in res.output
