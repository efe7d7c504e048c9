"""Spans and counters for the traced run, recorded from the benchmark's side.

``Tracer.installed()`` replaces each traced public function with a wrapper
in every hdivkit module that holds it by name (``from .mesh import
vertex_patches`` binds a second reference), and the traced methods on their
classes; leaving the context restores the originals.  Spans stay in memory
as (name, start, end, parent, op) rows and are written out at the end.  A
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import hdivkit.linsolve
import hdivkit.quadpolicy

# (module, function, span name): public functions traced at each layer boundary
FUNCTIONS = (
    ("hdivkit.mesh", "build_structured", "mesh.build"),
    ("hdivkit.mesh", "build_lshape", "mesh.build"),
    ("hdivkit.mesh", "vertex_patches", "mesh.vertex_patches"),
    ("hdivkit.elements", "rtn_reference", "elements.rtn_reference"),
    ("hdivkit.elements", "rtn_space", "elements.rtn_space"),
    ("hdivkit.projections", "project_scalar", "projections.project_scalar"),
    ("hdivkit.projections", "interp_product_with_hat", "projections.interp_product_with_hat"),
    ("hdivkit.local_solve", "theta_field", "local_solve.theta_field"),
    ("hdivkit.local_solve", "build_patch_problem", "local_solve.build_patch_problem"),
    ("hdivkit.local_solve", "patch_equilibrate", "local_solve.patch_equilibrate"),
    ("hdivkit.local_solve", "patch_stability_ratio", "local_solve.patch_stability_ratio"),
    ("hdivkit.linsolve", "dense_solve", "linsolve.dense_solve"),
    ("hdivkit.best_approx", "local_best", "best_approx.local_best"),
    ("hdivkit.best_approx", "local_best_constrained", "best_approx.local_best_constrained"),
    ("hdivkit.best_approx", "global_best", "best_approx.global_best"),
    ("hdivkit.projector", "project_hdiv", "projector.project_hdiv"),
    ("hdivkit.projector", "projector_report", "projector.projector_report"),
    ("hdivkit.model_problems", "solve_mixed", "model_problems.solve_mixed"),
    ("hdivkit.model_problems", "solve_ls_mixed", "model_problems.solve_ls_mixed"),
    ("hdivkit.model_problems", "flux_error", "model_problems.flux_error"),
    ("hdivkit.model_problems", "potential_h1_error", "model_problems.potential_h1_error"),
)

# (class, method, span name): SparseFactor is what every global solver calls
METHODS = (
    (hdivkit.quadpolicy.QuadPolicy, "element_rules", "quadpolicy.element_rules"),
    (hdivkit.linsolve.SparseFactor, "__init__", "linsolve.sparse_factor"),
    (hdivkit.linsolve.SparseFactor, "solve", "linsolve.sparse_solve"),
)

FIELD_SPAN = "fields.eval"

# per-layer metric -> (span whose self time it is | counter, unit)
PER_LAYER = {
    "mesh.build.s": ("mesh.build", "s"),
    "mesh.vertex_patches.s": ("mesh.vertex_patches", "s"),
    "mesh.vertex_patches.calls": ("#mesh.vertex_patches.calls", "count"),
    "elements.rtn_reference.s": ("elements.rtn_reference", "s"),
    "elements.rtn_space.s": ("elements.rtn_space", "s"),
    "elements.elements_built": ("#elements.elements_built", "count"),
    "quadpolicy.element_rules.s": ("quadpolicy.element_rules", "s"),
    "quadpolicy.element_rules.calls": ("#quadpolicy.element_rules.calls", "count"),
    "quadpolicy.cache_hit_ratio": ("#quadpolicy.cache_hit_ratio", "ratio"),
    "quadpolicy.points": ("#quadpolicy.points", "count"),
    "fields.eval.s": (FIELD_SPAN, "s"),
    "fields.eval.points": ("#fields.eval.points", "count"),
    "projections.project_scalar.self_s": ("projections.project_scalar", "s"),
    "projections.interp_product_with_hat.self_s": ("projections.interp_product_with_hat", "s"),
    "local_solve.theta_field.self_s": ("local_solve.theta_field", "s"),
    "local_solve.build_patch_problem.self_s": ("local_solve.build_patch_problem", "s"),
    "local_solve.build_patch_problem.calls": ("#local_solve.build_patch_problem.calls", "count"),
    "local_solve.patch_equilibrate.self_s": ("local_solve.patch_equilibrate", "s"),
    "local_solve.patch_stability_ratio.self_s": ("local_solve.patch_stability_ratio", "s"),
    "linsolve.dense_solve.self_s": ("linsolve.dense_solve", "s"),
    "linsolve.dense_solve.calls": ("#linsolve.dense_solve.calls", "count"),
    "linsolve.dense_solve.flops_computed": ("#linsolve.dense_solve.flops_computed", "flop"),
    "linsolve.sparse_factor.s": ("linsolve.sparse_factor", "s"),
    "linsolve.sparse_factor.calls": ("#linsolve.sparse_factor.calls", "count"),
    "linsolve.sparse_factor.nnz_lu": ("#linsolve.sparse_factor.nnz_lu", "count"),
    "linsolve.sparse_solve.s": ("linsolve.sparse_solve", "s"),
    "best_approx.local_best.self_s": ("best_approx.local_best", "s"),
    "best_approx.local_best_constrained.self_s": ("best_approx.local_best_constrained", "s"),
    "best_approx.global_best.self_s": ("best_approx.global_best", "s"),
    "projector.project_hdiv.self_s": ("projector.project_hdiv", "s"),
    "projector.projector_report.self_s": ("projector.projector_report", "s"),
    "model_problems.solve_mixed.self_s": ("model_problems.solve_mixed", "s"),
    "model_problems.solve_ls_mixed.self_s": ("model_problems.solve_ls_mixed", "s"),
    "model_problems.flux_error.s": ("model_problems.flux_error", "s"),
    "model_problems.potential_h1_error.s": ("model_problems.potential_h1_error", "s"),
}


def _tri_points(rule):
    return len(rule.points) if hasattr(rule, "points") else len(rule[0])


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.active = False
        self.op = -1
        self._stack = []
        self._spaces_seen = set()
        self._policy_keys = weakref.WeakKeyDictionary()

    # -- spans ------------------------------------------------------------------------

    @contextmanager
    def span(self, name):
        i = len(self.spans)
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(row)
        self._stack.append(i)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name):
        count = {
            "mesh.vertex_patches": self._count_vertex_patches,
            "elements.rtn_space": self._count_rtn_space,
            "quadpolicy.element_rules": self._count_element_rules,
            "local_solve.build_patch_problem": self._count_build_patch_problem,
            "linsolve.dense_solve": self._count_dense_solve,
            "linsolve.sparse_factor": self._count_sparse_factor,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(args, kwargs, out)
            return out

        return wrapper

    def count_field(self, fn):
        """Wrap one of the benchmark's own field callables (pts -> values)."""

        def counted(pts):
            if not self.active:
                return fn(pts)
            self.counts["fields.eval.points"] += len(pts)
            with self.span(FIELD_SPAN):
                return fn(pts)

        return counted

    # -- counters at the layer boundaries -----------------------------------------------

    def _count_vertex_patches(self, args, kwargs, out):
        self.counts["mesh.vertex_patches.calls"] += 1

    def _count_rtn_space(self, args, kwargs, out):
        if id(out) not in self._spaces_seen:  # spaces live as long as their mesh
            self._spaces_seen.add(id(out))
            self.counts["elements.elements_built"] += len(out.elements)

    def _count_element_rules(self, args, kwargs, out):
        policy = args[0]
        key = kwargs.get("key", args[2] if len(args) > 2 else None)
        self.counts["quadpolicy.element_rules.calls"] += 1
        self.counts["quadpolicy.points"] += _tri_points(out[0])
        if key is not None:
            seen = self._policy_keys.setdefault(policy, set())
            self.counts["quadpolicy.cache_hits"] += key in seen
            seen.add(key)

    def _count_build_patch_problem(self, args, kwargs, out):
        self.counts["local_solve.build_patch_problem.calls"] += 1

    def _count_dense_solve(self, args, kwargs, out):
        n = len(out)
        self.counts["linsolve.dense_solve.calls"] += 1
        self.counts["linsolve.dense_solve.flops_computed"] += n**3 / 3

    def _count_sparse_factor(self, args, kwargs, out):
        lu = args[0].lu
        self.counts["linsolve.sparse_factor.calls"] += 1
        self.counts["linsolve.sparse_factor.nnz_lu"] += lu.L.nnz + lu.U.nnz

    # -- installation --------------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the traced functions everywhere hdivkit holds them and record
        until exit, which restores the originals."""
        modules = [m for n, m in list(sys.modules.items()) if n == "hdivkit" or n.startswith("hdivkit.")]
        undo = []
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for ref, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, ref, orig))
                        setattr(mod, ref, wrapper)
        for cls, attr, name in METHODS:
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))
        self.active = True
        try:
            yield
        finally:
            self.active = False
            for owner, ref, orig in reversed(undo):
                setattr(owner, ref, orig)

    # -- results ------------------------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for (name, t0, t1, parent, op), c in zip(self.spans, child):
            out[name] += t1 - t0 - c
        return out

    def per_layer(self):
        """Every per-layer metric: self time of its span, or its counter."""
        selfs = self.self_times()
        counts = dict(self.counts)
        calls = counts.get("quadpolicy.element_rules.calls", 0)
        counts["quadpolicy.cache_hit_ratio"] = (
            counts.get("quadpolicy.cache_hits", 0) / calls if calls else 0.0
        )
        out = {}
        for metric, (source, unit) in PER_LAYER.items():
            if source.startswith("#"):
                value = counts.get(source[1:], 0)
            else:
                value = selfs.get(source, 0.0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        names = sorted({row[0] for row in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "spans": [[index[n], t0, t1, p, op] for n, t0, t1, p, op in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )
