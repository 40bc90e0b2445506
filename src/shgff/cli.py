"""Command line interface.

Exit codes: 0 success, 2 configuration error, 3 kinematic-region violation,
4 quadrature non-convergence, 5 internal error. Every command fails the same
way: a RegionError exits 3, any other ValueError or an OSError exits 2 and any
other exception exits 5 (see Main.invoke); a usage error is click's, exit 2.
"""
from __future__ import annotations

import concurrent.futures
import json

import click

from .combin import blocks, enumerate_compositions
from .correlator import (
    ContourLadder, CorrelatorRequest, GaussianSmearing, RegionError, SpacetimePoint,
    compute_W_r, smeared_correlator, _sum_compositions,
)
from .formfactor import load_operator, verify_axioms
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


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _model_from(cfg: dict) -> ModelParams:
    try:
        m = cfg["model"]
        return ModelParams(b=float(m["b"]), mass=float(m.get("mass", 1.0)),
                           b_hat=m.get("b_hat"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad model section: {exc}") from exc


def _operators_from(cfg: dict, params: ModelParams) -> list:
    try:
        return [load_operator(doc, params) for doc in cfg["operators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad operators section: {exc}") from exc


def _request_from(cfg: dict, params: ModelParams, operators, tol, nodes, L
                  ) -> CorrelatorRequest:
    try:
        r = cfg["request"]
        points = [SpacetimePoint(float(p[0]), float(p[1])) for p in r["points"]]
        ladder = None
        if "ladder" in r:
            ladder = ContourLadder(len(operators),
                                   {tuple(map(int, k.split(","))): float(v)
                                    for k, v in r["ladder"].items()})
        # a flag overrides the config; what neither gives keeps the request's default
        given = {key: kind(r[key] if flag is None else flag)
                 for key, kind, flag in (("nodes", int, nodes), ("L", float, L),
                                         ("max_nodes", int, None), ("tol", float, tol))
                 if flag is not None or key in r}
        return CorrelatorRequest(
            params=params, operators=operators, points=points,
            r=tuple(int(x) for x in r["r"]), ladder=ladder, **given)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad request section: {exc}") from exc


def _doc_from(cfg: dict) -> str | None:
    """The path of the report that the output section asks for, if any."""
    out = cfg.get("output", {})
    doc = out.get("doc") if isinstance(out, dict) else None
    if not isinstance(out, dict) or not isinstance(doc, (str, type(None))):
        raise ValueError(f"bad output section: expected {{\"doc\": path}}, got {out!r}")
    return doc


def _smearings_from(cfg: dict) -> list:
    try:
        return [GaussianSmearing(tuple(s["center"]), tuple(s["width"]))
                for s in cfg["request"]["smearings"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad smearings: {exc}") from exc


@click.group(cls=Main)
def main():
    """Form-factor bootstrap and truncated correlation functions."""


@main.command("specfun")
@click.option("--b", type=float, required=True, help="coupling in [0, 1/2]")
@click.option("--mass", type=float, default=1.0)
@click.option("--beta", "betas", type=float, multiple=True, required=True,
              help="rapidity (repeatable)")
def specfun_cmd(b, mass, betas):
    """Evaluate the two-body S-matrix and minimal form factor."""
    params = ModelParams(b=b, mass=mass)
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
    cfg = _load_config(config_path)
    params = _model_from(cfg)
    worst = 0.0
    for op in _operators_from(cfg, params):
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
    cfg = _load_config(config_path)
    params = _model_from(cfg)
    operators = _operators_from(cfg, params)
    betas = [complex(x) for x in betas_str.split(",")] if betas_str else []
    ops = [op for op in operators if op_name is None or op.name == op_name]
    if not ops:
        raise ValueError(f"no operator named {op_name}")
    for op in ops:
        val = complex(op.provider.evaluate(betas))
        click.echo(f"{op.name} F_{len(betas)} = {_fmt(val.real)} {_fmt(val.imag)}")


@main.command("correlator")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--output", "output_path", default=None, type=click.Path())
@click.option("--mixed", "mixed_t", type=int, default=None,
              help="distinguished operator index for the t-representation")
@click.option("--smeared", is_flag=True, default=False)
@click.option("--threads", type=click.IntRange(min=1), default=1)
@click.option("--tol", type=float, default=None)
@click.option("--nodes", type=int, default=None,
              help="grid intervals per axis over [-L, L] at the first level")
@click.option("--l", "--L", "L", type=float, default=None,
              help="half-width of each contour's integration window")
def correlator_cmd(config_path, output_path, mixed_t, smeared, threads, tol, nodes, L):
    """Compute a truncated correlator and write a CSV breakdown."""
    cfg = _load_config(config_path)
    params = _model_from(cfg)
    request = _request_from(cfg, params, _operators_from(cfg, params), tol, nodes, L)
    doc_path = _doc_from(cfg)
    if smeared:
        result = smeared_correlator(request, _smearings_from(cfg))
    elif threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            result = _sum_compositions(request, mixed_t, pool.map)
    else:
        result = compute_W_r(request, mixed_t=mixed_t)

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

    if doc_path:
        with open(doc_path, "w") as fh:
            fh.write(result.describe() + "\n")
    if result.error > request.tol * max(1.0, abs(result.value)):
        raise Failure(f"non-convergence: error estimate {result.error:.3e} "
                      f"exceeds tolerance", EXIT_NONCONVERGED)


if __name__ == "__main__":
    main()
