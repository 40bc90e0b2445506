"""Spans at the layer boundaries of shgff, recorded from outside the package.

``Tracer.installed()`` replaces each public function in ``BOUNDARIES`` by a
wrapper at the place where shgff looks the name up (``formfactor`` binds
``min_form_factor`` at import, so the wrapper goes on
``shgff.formfactor.min_form_factor``), and puts the originals back on exit.
Each wrapped call appends one span ``[name, start, end, parent, op, points,
nodes]`` to an in-memory list; ``layer_metrics`` derives counts and self
times from that list once the pass is over.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, OP, POINTS, NODES = range(7)
LAYERS = ("specfun", "formfactor", "combin", "kernelalg", "correlator")


def _arg0_size(args, kwargs, out):
    return np.size(args[0])


def _out_size(args, kwargs, out):
    return np.size(out)


def _betas_size(args, kwargs, out):
    # provider.evaluate(self, betas): the largest array among the rapidities
    return max((np.size(b) for b in args[1]), default=1)


def _grid(args, kwargs, out):
    # integrand(request, comp, gamma, ...): points evaluated, nodes per axis
    arrays = [g for vs in args[2].values() for g in vs]
    return np.size(out), max((max(np.shape(g), default=1) for g in arrays), default=0)


def _terms(args, kwargs, out):
    return len(args[0].terms)


def _count(args, kwargs, out):
    return len(out)


def _test_points(args, kwargs, out):
    return max((np.size(b) for b in args[0]), default=1)


# (module or "module:Class", attribute, span name, how many points a call covers)
BOUNDARIES = (
    ("shgff.specfun", "log_barnes_g", "specfun.barnes", _arg0_size),
    ("shgff.formfactor", "min_form_factor", "specfun.min_ff", _arg0_size),
    ("shgff.correlator", "momentum", "specfun.kinematics", _arg0_size),
    ("shgff.correlator", "minkowski_dot", "specfun.kinematics", _out_size),
    ("shgff.correlator", "s_matrix", "specfun.kinematics", _arg0_size),
    ("shgff.formfactor", "s_matrix", "specfun.kinematics", _arg0_size),
    ("shgff.kernelalg", "s_matrix", "specfun.kinematics", _arg0_size),
    ("shgff.formfactor:KTransformProvider", "evaluate", "formfactor.evaluate", _betas_size),
    ("shgff.formfactor:FixtureUnitProvider", "evaluate", "formfactor.evaluate", _betas_size),
    ("shgff.formfactor", "k_transform", "formfactor.k_transform", None),
    ("shgff.kernelalg", "s_product", "combin.s_product", None),
    ("shgff.correlator", "enumerate_compositions", "combin.compositions", _count),
    ("shgff.kernelalg", "expand_direct", "kernelalg.expand", None),
    ("shgff.kernelalg", "expand_dual", "kernelalg.expand", None),
    ("shgff.kernelalg", "expand_mixed", "kernelalg.expand", None),
    ("shgff.kernelalg", "pair_numeric_with_tail", "kernelalg.pair", _terms),
    ("shgff.correlator", "compute_W_r", "correlator.compute_W_r", None),
    ("shgff.correlator", "smeared_correlator", "correlator.smeared", None),
    ("shgff.correlator", "compute_I_n", "correlator.compute_I_n", None),
    ("shgff.correlator", "integrand", "correlator.integrand", _grid),
    ("shgff.correlator:GaussianSmearing", "fourier", "correlator.smearing", _out_size),
    # the kernel_pair test function is benchmark code, evaluated inside kernelalg
    ("workloads", "_gaussian_test", "bench.test_fn", _test_points),
)


def _owner(path):
    mod, _, cls = path.partition(":")
    owner = importlib.import_module(mod)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder for one process; one id per operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def wrap(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if measure is not None:
                got = measure(args, kwargs, out)
                if isinstance(got, tuple):
                    rec[POINTS], rec[NODES] = got
                else:
                    rec[POINTS] = got
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install a wrapper at every boundary; restore the originals on exit."""
        saved = []
        try:
            for path, attr, name, measure in BOUNDARIES:
                owner = _owner(path)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, measure))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def operation(self, fn):
        """Run one benchmark operation under a fresh id and a root span."""
        self._op += 1
        return self.wrap("bench.op", fn)()


def layer_metrics(spans, traced_pass_s):
    """Counts, inclusive times and per-layer self times from one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; calls nest on one thread, so children never overlap.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    calls, points, incl = defaultdict(int), defaultdict(int), defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    max_nodes = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] += 1
        points[name] += s[POINTS]
        incl[name] += dur
        max_nodes = max(max_nodes, s[NODES])
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += dur - sum(spans[c][END] - spans[c][START]
                                           for c in children[i])
    # accepted grid: the last integrand evaluation of each compute_I_n call
    accepted = evaluated = 0
    for i, s in enumerate(spans):
        if s[NAME] == "correlator.compute_I_n":
            grids = [spans[c][POINTS] for c in children[i]
                     if spans[c][NAME] == "correlator.integrand"]
            if grids:
                accepted += grids[-1]
                evaluated += sum(grids)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "specfun.barnes.calls": calls["specfun.barnes"],
        "specfun.barnes.points": points["specfun.barnes"],
        "specfun.barnes.s": incl["specfun.barnes"],
        "specfun.barnes.us_per_point": 1e6 * ratio(incl["specfun.barnes"],
                                                   points["specfun.barnes"]),
        "specfun.barnes.points_per_call": ratio(points["specfun.barnes"],
                                                calls["specfun.barnes"]),
        "specfun.min_ff.calls": calls["specfun.min_ff"],
        "specfun.min_ff.points": points["specfun.min_ff"],
        "specfun.min_ff.s": incl["specfun.min_ff"],
        "specfun.kinematics.points": points["specfun.kinematics"],
        "specfun.kinematics.s": incl["specfun.kinematics"],
        "formfactor.evaluate.calls": calls["formfactor.evaluate"],
        "formfactor.evaluate.s": incl["formfactor.evaluate"],
        "formfactor.k_transform.calls": calls["formfactor.k_transform"],
        "formfactor.k_transform.s": incl["formfactor.k_transform"],
        "combin.s_product.calls": calls["combin.s_product"],
        "combin.s_product.s": incl["combin.s_product"],
        "combin.compositions": points["combin.compositions"],
        "kernelalg.terms": points["kernelalg.pair"],
        "kernelalg.test_points": points["bench.test_fn"],
        "kernelalg.pair_s": incl["kernelalg.pair"],
        "correlator.integrand.calls": calls["correlator.integrand"],
        "correlator.integrand.points": points["correlator.integrand"],
        "correlator.integrand.s": incl["correlator.integrand"],
        "correlator.max_nodes": max_nodes,
        "correlator.useful_point_ratio": ratio(accepted, evaluated),
        "trace.spans": len(spans),
        "trace.attributed_share": ratio(sum(layer_self.values()), traced_pass_s),
    }
    for layer, s in layer_self.items():
        m[f"{layer}.self_s"] = s
    return m
