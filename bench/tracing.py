"""Outside-in layer trace: wraps freelip's public functions from here.

Every public module-level function of the layer modules is replaced by a
wrapper, in every freelip module that holds a reference to it (modules
import each other's functions by name).  A few hot methods are wrapped on
their classes, and scipy's ``linprog`` is wrapped where ``simplex`` and
``projections`` imported it, as ``highs.linprog``.

For each wrapped name the tracer keeps the call count, the self time
(wall time minus the time of directly nested wrapped calls) and the total
time of outermost activations, plus caller -> callee edges of the same
three figures.  Size counters are computed from call arguments only, so
they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("graphs", "metric", "simplex", "freenorm", "cyclespace", "embeddings",
          "haar_system", "projections", "linalg", "recursive")

METHODS = (("recursive", "TensorVector", "l1"),
           ("recursive", "TensorVector", "materialize"),
           ("haar_system", "DyadicVector", "inner"))

MB = 2 ** 20


def _transport_cells(cost, supply, demand, mode="exact"):
    return len(supply) * len(demand)


def _min_l1_cells(x, zcols, mode="exact"):
    return len(x) * len(zcols)


def _dual_pairs(dist, weights, base, mode="exact"):
    n = len(weights)
    return n * (n - 1)


def _min_proj_dense_mb(basis_cols, ambient_dim, mode="float"):
    """Bytes of the dense float64 LP matrices _min_proj_lp_float builds:
    (2m^2 + m) inequality rows plus k^2 equality rows, km + m^2 + 1 columns.
    The exact mode builds no numpy matrices and counts 0."""
    if mode != "float":
        return 0.0
    m, k = ambient_dim, len(basis_cols)
    return 8 * ((2 * m * m + m) + k * k) * (k * m + m * m + 1) / MB


SIZES = {
    "simplex.transportation": ("cells", _transport_cells),
    "simplex.min_l1_combination": ("cells", _min_l1_cells),
    "simplex.lipschitz_dual": ("pairs", _dual_pairs),
    "projections.minimal_projection_lp": ("dense_mb", _min_proj_dense_mb),
}

# (metric name, unit) pairs reported by a traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("simplex.transportation.calls", "count"),
    ("simplex.transportation.self_s", "s"),
    ("simplex.transportation.cells", "count"),
    ("simplex.solve_standard_exact.calls", "count"),
    ("simplex.solve_standard_exact.self_s", "s"),
    ("simplex.lipschitz_dual.calls", "count"),
    ("simplex.lipschitz_dual.self_s", "s"),
    ("simplex.lipschitz_dual.pairs", "count"),
    ("simplex.min_l1_combination.calls", "count"),
    ("simplex.min_l1_combination.self_s", "s"),
    ("simplex.min_l1_combination.cells", "count"),
    ("freenorm.ae_norm.calls", "count"),
    ("freenorm.ae_norm.total_s", "s"),
    ("freenorm.lip_dual.calls", "count"),
    ("freenorm.lip_dual.total_s", "s"),
    ("freenorm.tree_norm.total_s", "s"),
    ("cyclespace.quotient_norm.calls", "count"),
    ("cyclespace.quotient_norm.total_s", "s"),
    ("embeddings.projection_norm.calls", "count"),
    ("embeddings.projection_norm.total_s", "s"),
    ("embeddings.half_dim_embedding.total_s", "s"),
    ("embeddings.large_embedding.total_s", "s"),
    ("embeddings.diamond_top_level.total_s", "s"),
    ("haar_system.verify_even_level_span.total_s", "s"),
    ("haar_system.diamond_bm_bounds.total_s", "s"),
    ("haar_system.multibranch_analysis.total_s", "s"),
    ("haar_system.haar.calls", "count"),
    ("haar_system.haar.self_s", "s"),
    ("haar_system.haar_coefficients.calls", "count"),
    ("haar_system.haar_coefficients.self_s", "s"),
    ("haar_system.DyadicVector.inner.calls", "count"),
    ("haar_system.DyadicVector.inner.self_s", "s"),
    ("recursive.witness.total_s", "s"),
    ("recursive.TensorVector.l1.calls", "count"),
    ("recursive.TensorVector.l1.self_s", "s"),
    ("recursive.TensorVector.materialize.total_s", "s"),
    ("recursive.annihilation_check.total_s", "s"),
    ("recursive.laakso_nonunique_projection.total_s", "s"),
    ("recursive.profile_base.total_s", "s"),
    ("projections.minimal_projection_lp.calls", "count"),
    ("projections.minimal_projection_lp.total_s", "s"),
    ("projections.minimal_projection_lp.dense_mb", "MB"),
    ("highs.linprog.calls", "count"),
    ("highs.linprog.self_s", "s"),
    ("projections.orthogonal_projection.total_s", "s"),
    ("projections.generate_group.total_s", "s"),
    ("projections.average_projection.total_s", "s"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.inverse.calls", "count"),
    ("linalg.inverse.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("graphs.recursive_family.self_s", "s"),
    ("graphs.recursive_family.total_s", "s"),
    ("graphs.compose.self_s", "s"),
    ("metric.graph_metric.self_s", "s"),
    ("metric.validate_metric.self_s", "s"),
    ("cyclespace.fundamental_cycle_basis.self_s", "s"),
]


class Tracer:
    """Per-name and per-edge call statistics of wrapped functions."""

    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, self_s, total_s]
        self.edges: dict[tuple, list] = {}   # (caller, callee) -> same
        self.sizes = {f"{name}.{kind}": 0 for name, (kind, _) in SIZES.items()}
        self._stack: list[list] = []         # [name, child seconds]
        self._depth: dict[str, int] = {}

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        kind, size = SIZES.get(name, (None, None))
        key = f"{name}.{kind}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if size is not None:
                self.sizes[key] += size(*args, **kwargs)
            caller = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._depth[name] = depth
                own = elapsed - frame[1]
                stat[0] += 1
                stat[1] += own
                edge = self.edges.setdefault((caller, name), [0, 0.0, 0.0])
                edge[0] += 1
                edge[1] += own
                if depth == 0:
                    stat[2] += elapsed
                    edge[2] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed

        return traced

    def install(self):
        """Wrap every traced function wherever freelip holds a reference."""
        targets = traced_functions()
        wrapped = {id(fn): (fn, self.wrap(name, fn)) for name, fn in targets.items()}
        for holder in _freelip_modules():
            for attr, obj in list(vars(holder).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"freelip.{layer}"), cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, wrapped[id(targets[name])][1])

    def value(self, metric):
        if metric in self.sizes:
            return self.sizes[metric]
        name, field = metric.rsplit(".", 1)
        stat = self.stats.get(name, (0, 0.0, 0.0))  # a removed function does no work
        return {"calls": stat[0], "self_s": stat[1], "total_s": stat[2]}[field]

    def metrics(self):
        return {name: {"value": self.value(name), "unit": unit} for name, unit in PER_LAYER}

    def dump(self):
        """Everything recorded, for the trace file."""
        def row(s):
            return {"calls": s[0], "self_s": s[1], "total_s": s[2]}
        return {
            "functions": {k: row(v) for k, v in sorted(self.stats.items()) if v[0]},
            "edges": [{"caller": c, "callee": n, **row(v)}
                      for (c, n), v in sorted(self.edges.items(), key=lambda kv: -kv[1][1])],
            "sizes": dict(sorted(self.sizes.items())),
        }


def traced_functions():
    """Name -> function for everything a traced run wraps: the public
    module-level functions of each layer, the METHODS, and scipy's linprog
    as ``highs.linprog``."""
    from scipy.optimize import linprog

    out = {"highs.linprog": linprog}
    for layer in LAYERS:
        mod = importlib.import_module(f"freelip.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"freelip.{layer}"), cls_name)
        out[f"{layer}.{cls_name}.{meth}"] = vars(cls)[meth]
    return out


def _freelip_modules():
    import freelip

    return [freelip] + [mod for name, mod in sorted(sys.modules.items())
                        if name.startswith("freelip.") and mod is not None]
