"""Per-layer spans for one traced verification batch, recorded from outside.

`install` wraps chosen functions of `repmoduli.chars`, `groups`, `oscomplex`
and `numerics` by rebinding every name in the loaded `repmoduli.*`
namespaces that refers to them, so calls made through `from .chars import
...` are traced too.  No source file changes.  Each wrapped call is a span;
its self time is its duration minus the time its child spans cover, so the
self times of all layers sum to the time spent inside outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> the functions whose self time it sums, as "module:qualname"
LAYERS = {
    "chars.inner_product": (
        "chars:inner_product", "chars:restricted_inner_product",
        "chars:d_theta", "chars:centralizer_dim"),
    "chars.orthogonality": (
        "chars:check_row_orthogonality", "chars:check_column_orthogonality"),
    "chars.table_build": (
        "chars:table_for", "chars:table_psl2_even", "chars:table_sl2_odd",
        "chars:table_psl2_odd", "chars:table_suzuki",
        "chars:table_dihedral_odd", "chars:table_cyclic"),
    "chars.theta_balance": ("chars:theta_balance",),
    "chars.centralizer_checks": ("chars:centralizer_checks",),
    "groups.enumerate": ("groups:psl2_model",),
    "groups.fusion": (
        "groups:build_subgroup", "groups:fusion_table", "groups:stored_fusion"),
    "oscomplex.euler": ("oscomplex:euler_identity",),
    "oscomplex.graph": ("oscomplex:build_orbit_graph",),
    "oscomplex.brown": (
        "oscomplex:brown_presentation", "oscomplex:BrownPresentation.verify",
        "oscomplex:BrownPresentation.relations"),
    "oscomplex.moduli_dim": ("oscomplex:moduli_dimension_report",),
    "oscomplex.words": (
        "oscomplex:random_closed_path", "oscomplex:path_to_word",
        "oscomplex:random_word", "oscomplex:random_kernel_word"),
    "numerics.realize": ("numerics:realize_irreducible",),
    "numerics.word_eval": ("numerics:rho_tau_eval", "numerics:h_action"),
    "numerics.spectral": ("numerics:spectral_split",),
    "numerics.commutant": ("numerics:commutant_rank",),
    "numerics.differential": ("numerics:word_differential_check",),
    "numerics.moduli_points": (
        "numerics:identity_moduli_point", "numerics:random_moduli_point",
        "numerics:random_h_point"),
}

# exact counters: layer whose call count it is
CALL_COUNTERS = {
    "chars.inner_product_calls": "chars.inner_product",
    "groups.enumerations": "groups.enumerate",
    "groups.fusion_calls": "groups.fusion",
    "oscomplex.euler_pairs": "oscomplex.euler",
    "numerics.word_evals": "numerics.word_eval",
}


def _pairs_rows(tracer, args, out):
    tracer.counts["chars.orthogonality_pairs"] += len(args[0].chars) ** 2


def _pairs_columns(tracer, args, out):
    tracer.counts["chars.orthogonality_pairs"] += len(args[0].labels) ** 2


def _table_cells(tracer, args, out):
    tracer.count_once("chars.table_cells", out,
                      len(out.chars) * len(out.labels))


def _group_order(tracer, args, out):
    tracer.counts["groups.elements_enumerated"] += out.order


def _relation_count(tracer, args, out):
    tracer.count_once("oscomplex.relations", args[0], len(out))


# counters summed from a call's arguments and result, after its span closes
HOOKS = {
    "chars:check_row_orthogonality": _pairs_rows,
    "chars:check_column_orthogonality": _pairs_columns,
    "groups:psl2_model": _group_order,
    "oscomplex:BrownPresentation.relations": _relation_count,
    **{target: _table_cells for target in LAYERS["chars.table_build"]},
}


class Tracer:
    """Self time and call count per layer, plus summed counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_level = 0.0        # summed duration of the outermost spans
        self._open = []             # child time covered, per open span
        self._counted = {}          # id -> object, counted once by count_once
        self.builders = []          # the lru_cached table builders

    def wrap(self, layer, fn, hook=None):
        clock, stack = self.clock, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.self_time[layer] += duration - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.top_level += duration
            if hook is not None:
                hook(self, args, out)
            return out
        return traced

    def count_once(self, name, obj, n):
        """Add n to counter `name` the first time `obj` is seen; the object
        is kept alive so that its id is not reused."""
        if id(obj) not in self._counted:
            self._counted[id(obj)] = obj
            self.counts[name] += n

    def metrics(self, verify_s):
        """Per-layer metrics of a traced batch that took `verify_s`."""
        out = {f"{layer}_s": self.self_time[layer] for layer in LAYERS}
        out.update({name: self.calls[layer]
                    for name, layer in CALL_COUNTERS.items()})
        for name in ("chars.orthogonality_pairs", "chars.table_cells",
                     "groups.elements_enumerated", "oscomplex.relations"):
            out[name] = self.counts[name]
        out["chars.tables_built"] = sum(fn.cache_info().misses
                                        for fn in self.builders)
        busy = self.self_time["chars.inner_product"]
        out["chars.inner_products_per_s"] = \
            self.calls["chars.inner_product"] / busy if busy else 0.0
        out["cli.other_s"] = verify_s - self.top_level
        return out


def _modules():
    for name in ("chars", "groups", "oscomplex", "numerics"):
        importlib.import_module(f"repmoduli.{name}")
    return [m for name, m in list(sys.modules.items())
            if m is not None and
            (name == "repmoduli" or name.startswith("repmoduli."))]


def install(tracer):
    """Rebind every traced function in the loaded package to its span."""
    modules = _modules()
    for layer, targets in LAYERS.items():
        for target in targets:
            modname, qualname = target.split(":")
            module = sys.modules[f"repmoduli.{modname}"]
            hook = HOOKS.get(target)
            if "." in qualname:             # a method: rebind it on its class
                cls, attr = qualname.split(".")
                owner = getattr(module, cls)
                setattr(owner, attr,
                        tracer.wrap(layer, getattr(owner, attr), hook))
                continue
            original = getattr(module, qualname)
            if hasattr(original, "cache_info"):
                tracer.builders.append(original)
            traced = tracer.wrap(layer, original, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, traced)
