"""Span tracer installed from outside the package.

Wraps the public functions of each layer module and the public methods
of `BitMatrix`, `GroupTable` and `StabilizerGroup`, records one span per
call (name, start, end, parent) and derives self times and exact work
counters from them.  Nothing under `src/` is edited; `uninstall()` puts
every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("gf2", "group", "complexes", "sheaf", "css", "gates", "floquet", "cli")
CLASSES = (("gf2", "BitMatrix"), ("group", "GroupTable"), ("floquet", "StabilizerGroup"))


def _faces(args, c):
    return {"complexes.faces": sum(c.n_faces(m) for m in c.masks)}


# Per-call observers: map a span name to a function of (args, result)
# returning counter increments by metric name.
OBSERVERS = {
    "gf2.BitMatrix.rank": lambda a, r: {"gf2.rank.bits": a[0].rows * a[0].cols},
    "gf2.BitMatrix.rref": lambda a, r: {"gf2.rref.bits": a[0].rows * a[0].cols},
    "group.GroupTable.__init__": lambda a, r: {"group.elements": a[0].size},
    "complexes.build_coset_complex": _faces,
    "sheaf.check_pair_products": lambda a, r: {"sheaf.pair_products.pairs": r["checked"]},
    "gates.membership_phase": lambda a, r: {"gates.membership.members": int(r == 0)},
}


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.names = []  # span name table; spans refer to it by index
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.child = array("d")  # summed duration of direct children, per span
        self.stack = []
        self.counters = Counter()
        self.errors = Counter()
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        layer = name.split(".", 1)[0]
        code = len(self.names)
        self.names.append(name)
        names, start, end, parent, child, stack = (
            self.name, self.start, self.end, self.parent, self.child, self.stack
        )
        errors, counters = self.errors, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parent.append(stack[-1] if stack else -1)
            child.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                if stack:
                    child[stack[-1]] += t1 - t0
            if observe is not None:
                counters.update(observe(args, result))
            return result

        return traced

    def install(self, package="cosetcode"):
        """Wrap every public function and method of the layer modules."""
        mods = {layer: importlib.import_module(package + "." + layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrapped[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj))
        # replace each function in every namespace that imported it
        namespaces = [
            m for k, m in list(sys.modules.items())
            if k == package or k.startswith(package + ".")
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name in CLASSES:
            cls = getattr(mods[layer], cls_name)
            for attr, raw in list(vars(cls).items()):
                # GroupTable's constructor is where enumeration happens
                if attr.startswith("_") and (cls_name, attr) != ("GroupTable", "__init__"):
                    continue
                prefix = "%s.%s.%s" % (layer, cls_name, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patch(cls, attr, type(raw)(self._wrap(prefix, raw.__func__)))
                elif inspect.isfunction(raw):
                    self._patch(cls, attr, self._wrap(prefix, raw))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self time and call count per span name; plus the summed
        duration of top-level spans (those the benchmark called)."""
        self_s = defaultdict(float)
        calls = Counter()
        top = 0.0
        for code, t0, t1, par, ch in zip(self.name, self.start, self.end, self.parent, self.child):
            name = self.names[code]
            self_s[name] += (t1 - t0) - ch
            calls[name] += 1
            if par < 0:
                top += t1 - t0
        return self_s, calls, top

    def write(self, path):
        """Write every span to a compressed numpy archive."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def layer_metrics(tracer, wall_s):
    """Every per-layer metric of the traced iteration, by name."""
    self_s, calls, top = tracer.self_times()
    c = tracer.counters

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    out = {}
    for layer in LAYERS:
        prefix = layer + "."
        out[prefix + "self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        out[prefix + "errors"] = tracer.errors.get(layer, 0)
    out["bench.self_s"] = wall_s - top
    out["bench.wall_s"] = wall_s
    out["trace.spans"] = len(tracer.name)

    bm = "gf2.BitMatrix."
    for call in ("rank", "rref", "kernel_basis", "solve", "matmul", "transpose", "in_row_space"):
        out["gf2.%s.calls" % call] = n(bm + call)
    out["gf2.solve.calls"] += n(bm + "solve_vec")
    out["gf2.rank.bits"] = c["gf2.rank.bits"]
    out["gf2.rref.bits"] = c["gf2.rref.bits"]

    out["group.enumerate.self_s"] = s("group.enumerate_group", "group.GroupTable.__init__")
    out["group.elements"] = c["group.elements"]
    out["group.coset_reps.calls"] = n("group.GroupTable.coset_reps")
    out["group.left_mul_perm.calls"] = n("group.GroupTable.left_mul_perm")

    out["complexes.build.self_s"] = s("complexes.build_coset_complex")
    out["complexes.faces"] = c["complexes.faces"]
    out["complexes.verify_structure.self_s"] = s("complexes.verify_structure")

    out["sheaf.attach.self_s"] = s("sheaf.attach_local_codes")
    out["sheaf.induce.self_s"] = s("sheaf.induce_lower_codes")
    out["sheaf.dual.self_s"] = s("sheaf.dual_sheaf")
    pairs = c["sheaf.pair_products.pairs"]
    pp_s = s("sheaf.check_pair_products")
    out["sheaf.pair_products.pairs"] = pairs
    out["sheaf.pair_products.self_s"] = pp_s
    out["sheaf.pair_products.pairs_per_s"] = pairs / pp_s if pp_s > 0 else 0.0
    out["sheaf.link.self_s"] = s("sheaf.link_vertex_code_dimension")

    out["css.extract.self_s"] = s("css.extract_css")
    out["css.unfolding.self_s"] = s("css.unfolding_check")
    out["css.rate_report.self_s"] = s("css.rate_report")
    out["css.logical_basis.self_s"] = s("css.logical_basis")

    queries = n("gates.membership_phase")
    out["gates.membership.calls"] = queries
    out["gates.membership.self_s"] = s("gates.membership_phase")
    out["gates.membership.member_ratio"] = (
        c["gates.membership.members"] / queries if queries else 0.0
    )

    out["floquet.measure.calls"] = n("floquet.StabilizerGroup.measure")
    out["floquet.canonical.calls"] = n("floquet.StabilizerGroup.canonical")
    out["floquet.run_schedule.self_s"] = s("floquet.run_schedule")
    return out
