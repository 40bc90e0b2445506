"""Command line interface.

A config is a JSON mapping of a `model`, an `operators` and, for
`correlator`, a `request` section; any other top-level key is refused.
`correlator` reports once, as a CSV on stdout (copied to --output if given),
and its exit code is the verdict on the result.

Exit codes: 0 success, 2 configuration error, 3 kinematic-region violation,
4 quadrature non-convergence, 5 internal error. `correlator` exits 4 exactly
when its result is not converged, that is when W's error exceeds the
request's tol; tol is also each composition's refinement target. Every
command fails the same way: a RegionError exits 3, any other ValueError or an
OSError exits 2 and any other exception exits 5 (see Main.invoke); a usage
error is click's, exit 2.
"""
from __future__ import annotations

import dataclasses
import json
import numbers

import click

from .combin import _is_finite, blocks, enumerate_compositions
from .correlator import (
    ContourLadder, CorrelatorRequest, GaussianSmearing, RegionError, SpacetimePoint, compute_W_r,
)
from .formfactor import _check_keys, load_operator, verify_axioms
from .specfun import ModelParams, min_form_factor, s_matrix

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGION = 3
EXIT_NONCONVERGED = 4
EXIT_INTERNAL = 5


class Failure(click.ClickException):
    """A failed command. click's standalone mode shows it, as its message
    alone on stderr, and exits with its exit_code."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code

    def show(self, file=None):
        click.echo(self.message, file=file, err=True)


class Main(click.Group):
    def invoke(self, ctx):
        """Run the command; the one place where an exception becomes an exit code."""
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, BrokenPipeError):
            raise
        except RegionError as exc:
            raise Failure(f"region error: {exc}", EXIT_REGION) from exc
        except (ValueError, OSError) as exc:
            raise Failure(f"config error: {exc}", EXIT_CONFIG) from exc
        except Exception as exc:  # noqa: BLE001
            raise Failure(f"internal error: {exc}", EXIT_INTERNAL) from exc


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _load_config(path: str) -> tuple[dict, ModelParams, list]:
    """The config at path, with the model and the operators it describes. Its
    top level holds the model, operators and request sections (the last read
    by correlator alone) and no other key."""
    with open(path) as fh:
        cfg = json.load(fh)
    _check_keys(cfg, ("model", "operators", "request"), "a config")
    params = _model_from(cfg)
    return cfg, params, _operators_from(cfg, params)


def _model_from(cfg: dict) -> ModelParams:
    try:
        return ModelParams(**cfg["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad model section: {exc}") from exc


def _operators_from(cfg: dict, params: ModelParams) -> list:
    try:
        return [load_operator(doc, params) for doc in cfg["operators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad operators section: {exc}") from exc


def _request_from(cfg: dict, params: ModelParams, operators) -> CorrelatorRequest:
    """The request that the request section describes: its keys are
    CorrelatorRequest's fields but params and operators, and a section with
    `smearings` is a smeared request."""
    fields = {f.name for f in dataclasses.fields(CorrelatorRequest)} - {"params", "operators"}
    try:
        r = cfg["request"]
        _check_keys(r, fields, "request")
        # every other value passes as given, so that the request refuses one of the wrong type
        given = dict(r, r=tuple(r["r"]),
                     points=[SpacetimePoint(*p) for p in r.get("points", ())])
        if "ladder" in r:
            if not isinstance(r["ladder"], dict):
                raise ValueError(f"ladder must be a mapping, got {r['ladder']!r}")
            given["ladder"] = ContourLadder({tuple(map(int, k.split(","))): v
                                             for k, v in r["ladder"].items()})
        if "smearings" in r:
            for s in r["smearings"]:
                _check_keys(s, ("center", "width"), "a smearing")
            given["smearings"] = [GaussianSmearing(tuple(s["center"]), tuple(s["width"]))
                                  for s in r["smearings"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad request section: {exc}") from exc
    return CorrelatorRequest(params=params, operators=operators, **given)


@click.group(cls=Main)
def main():
    """Form-factor bootstrap and truncated correlation functions."""


@main.command("specfun")
@click.option("--b", type=float, required=True, help="coupling in [0, 1/2]")
@click.option("--beta", "betas", type=float, multiple=True, required=True,
              help="rapidity (repeatable)")
def specfun_cmd(b, betas):
    """Evaluate the two-body S-matrix and minimal form factor, which do not
    depend on the mass."""
    params = ModelParams(b=b)
    # an infinite rapidity ended in internal error and a NaN printed a nan row
    if not all(map(_is_finite, betas)):
        raise ValueError(f"rapidities must be finite real numbers, got {list(betas)!r}")
    click.echo("beta,re(S),im(S),re(F),im(F)")
    for be in betas:
        s = s_matrix(be, params)
        f = min_form_factor(be, params)
        click.echo(",".join([_fmt(be), _fmt(s.real), _fmt(s.imag),
                             _fmt(f.real), _fmt(f.imag)]))


@main.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--n-max", type=click.IntRange(min=0), default=3)
@click.option("--tol", type=float, default=1e-6)
def verify_cmd(config_path, n_max, tol):
    """Check the bootstrap axioms for every configured operator."""
    # worst > nan is never true, so a NaN tol would pass every residual
    if not (_is_finite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    _, params, operators = _load_config(config_path)
    worst = 0.0
    for op in operators:
        for n in range(n_max + 1):
            rep = verify_axioms(op, params, n)
            worst = max(worst, rep.max_residual())
            click.echo(f"{op.name} n={n} exchange={rep.exchange:.3e} "
                       f"periodicity={rep.periodicity:.3e} "
                       f"residue={rep.residue:.3e} boost={rep.boost:.3e}")
    if worst > tol:
        raise Failure(f"FAIL worst residual {worst:.3e} > {tol:.1e}", EXIT_NONCONVERGED)
    click.echo(f"OK worst residual {worst:.3e}")


@main.command("enumerate")
@click.option("--k", type=int, required=True)
@click.option("--r", "r_str", required=True, help="comma-separated ranks r_1..r_{k-1}")
def enumerate_cmd(k, r_str):
    """List composition vectors with the given crossing ranks."""
    comps = enumerate_compositions(k, tuple(int(x) for x in r_str.split(",")))
    click.echo("blocks: " + " ".join(f"({b},{a})" for b, a in blocks(k)))
    for c in comps:
        click.echo(" ".join(str(x) for x in c.counts))
    click.echo(f"total: {len(comps)}")


@main.command("eval-ff")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--operator", "op_name", default=None)
@click.option("--betas", "betas_str", required=True,
              help="comma-separated rapidities")
def eval_ff_cmd(config_path, op_name, betas_str):
    """Evaluate an operator's n-particle form factor."""
    _, _, operators = _load_config(config_path)
    betas = [complex(x) for x in betas_str.split(",")] if betas_str else []
    # the form factors would turn a NaN or infinite rapidity into a nan row
    if not all(_is_finite(b, numbers.Complex) for b in betas):
        raise ValueError(f"rapidities must be finite complex numbers, got {betas_str!r}")
    ops = [op for op in operators if op_name is None or op.name == op_name]
    if not ops:
        raise ValueError(f"no operator named {op_name}")
    for op in ops:
        val = complex(op.provider.evaluate(betas))
        click.echo(f"{op.name} F_{len(betas)} = {_fmt(val.real)} {_fmt(val.imag)}")


@main.command("correlator")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--output", "output_path", default=None, type=click.Path())
def correlator_cmd(config_path, output_path):
    """Compute the truncated correlator of the config's request section and
    write a CSV breakdown."""
    result = compute_W_r(_request_from(*_load_config(config_path)))

    lines = ["composition,re_I,im_I,err,phase_re,phase_im"]
    for comp, val, err, ph in result.breakdown:
        comp_str = ";".join(str(c) for c in comp.counts)
        lines.append(",".join([comp_str, _fmt(val.real), _fmt(val.imag),
                               _fmt(err), _fmt(ph.real), _fmt(ph.imag)]))
    lines.append(",".join(["total", _fmt(result.value.real),
                           _fmt(result.value.imag), _fmt(result.error),
                           _fmt(1.0), _fmt(0.0)]))
    text = "\n".join(lines) + "\n"
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    click.echo(text, nl=False)
    if not result.converged:
        raise Failure(f"non-convergence: error estimate {result.error:.3e} "
                      f"exceeds tolerance", EXIT_NONCONVERGED)


if __name__ == "__main__":
    main()
