"""Span tracer that wraps the public functions of each possheaf layer.

Nothing under `src/` knows about it: `Tracer.install` replaces each target
function by a wrapper in every possheaf namespace that holds it (modules
that did `from .exactla import solve`, and class dictionaries for
methods).  Each wrapped call records a span (name, start, end, parent)
in memory; `end_op` reduces the spans of one CLI call to per-name calls,
total and self time, and frees them.
"""

import functools
import sys
import time
from array import array

# (metric prefix, module, attributes, stat).  Several attributes under one
# prefix are counted together.  Stats: "count" records calls only (no span);
# "cells" adds the largest operand (rows*cols); "density" adds nonzero/total
# operand entries; "repeat" adds the share of calls on an object and
# arguments already seen in the same CLI call; "total" reports total time
# instead of calls and self time.
TARGETS = [
    ("exactla.rref", "exactla", ["rref"], "cells"),
    ("exactla.solve", "exactla", ["solve"], None),
    ("exactla.matmul", "exactla", ["Matrix.__mul__"], "density"),
    ("exactla.quotient_basis", "exactla", ["quotient_basis"], None),
    ("exactla.kernel_basis", "exactla", ["kernel_basis"], None),
    ("exactla.coords_of", "exactla", ["Subspace.coords_of"], None),
    ("exactla.identity", "exactla", ["Matrix.identity"], "count"),
    ("sheafcat.cokernel", "sheafcat", ["SheafContext.cokernel", "VectorContext.cokernel"], None),
    ("sheafcat.kernel", "sheafcat", ["SheafContext.kernel", "VectorContext.kernel"], None),
    ("sheafcat.compose", "sheafcat", ["SheafContext.compose", "VectorContext.compose"], None),
    ("sheafcat.direct_sum", "sheafcat", ["SheafContext.direct_sum", "VectorContext.direct_sum"], None),
    ("sheafcat.injective_embed", "sheafcat",
     ["SheafContext.injective_embed", "VectorContext.injective_embed"], None),
    ("sheafcat.pushforward", "sheafcat", ["Pushforward.apply", "Pushforward.apply_map"], None),
    ("sheafcat.global_sections", "sheafcat", ["global_sections"], None),
    ("sheafcat.gamma_struct_map", "sheafcat", ["gamma_struct_map"], None),
    ("homalg.injective_resolution", "homalg", ["injective_resolution"], None),
    ("homalg.cohomology", "homalg", ["cohomology"], None),
    ("homalg.horseshoe", "homalg", ["horseshoe"], None),
    ("homalg.comparison_lift", "homalg", ["comparison_lift"], None),
    ("homalg.connecting", "homalg", ["connecting"], None),
    ("ceres.compute_invariants", "ceres", ["compute_invariants"], None),
    ("ceres.build_injective_triple", "ceres", ["build_injective_triple"], None),
    ("ceres.build_ce_triple", "ceres", ["build_ce_triple"], None),
    ("ceres.verify_ce", "ceres", ["verify_ce"], None),
    ("specseq.tower", "specseq", ["CoupleTower.__init__"], None),
    ("specseq.derive", "specseq", ["ExactCouple.derive"], None),
    ("specseq.d_map", "specseq", ["ExactCouple.d_map"], "repeat"),
    ("specseq.subquotient", "specseq", ["Subquotient.__init__"], None),
    ("specseq.subquotient_zero", "specseq", ["Subquotient.zero"], "count"),
    ("specseq.page_map", "specseq", ["CoupleMorphism.page_map"], "repeat"),
    ("gross.grothendieck_ss", "gross", ["grothendieck_ss"], None),
    ("gross.delta_morphism", "gross", ["delta_morphism"], None),
    ("gross.verify_main_theorem", "gross", ["verify_main_theorem"], None),
    ("gross.first_ss_check", "gross", ["first_ss_check"], None),
    ("gross.e2_identification", "gross", ["E2Identification.__init__"], None),
    ("gross.leray_ss", "gross", ["leray_ss"], None),
    ("instancefile.load", "instancefile", ["Instance.load"], None),
    ("cli.main", "cli", ["main"], "total"),
]

_STATS_SPAN = "tracer.stats"   # time spent computing stats; excluded from parents' self time


def resolve(modname, path):
    """The attribute `possheaf.<modname>.<path>` as stored (a classmethod
    stays one), or None if the program has no such attribute."""
    owner = sys.modules.get("possheaf." + modname)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return None if owner is None else vars(owner).get(name)


def code_key(raw):
    """The (file, line, name) key cProfile uses for the function behind raw."""
    code = getattr(raw, "__func__", raw).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _namespaces():
    """Dictionaries of every possheaf module and of the classes it defines."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "possheaf" and not modname.startswith("possheaf."):
            continue
        out.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == modname:
                out.append(value)
    return out


class Tracer:
    def __init__(self):
        self.names = []                     # span name ids -> names
        self.name_id = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls = {}                     # metric prefix -> calls (all ops)
        self.total_s = {}
        self.self_s = {}
        self.max_cells = 0
        self.nonzero = 0
        self.entries = 0
        self.repeats = {}
        self._seen = set()
        self._keep = []                     # objects whose id() is in _seen
        self.missing = []                   # targets this program lacks

    # -- installation ------------------------------------------------------

    def install(self):
        spaces = _namespaces()
        for prefix, modname, paths, stat in TARGETS:
            self.calls.setdefault(prefix, 0)
            for path in paths:
                raw = resolve(modname, path)
                if raw is None:
                    self.missing.append("%s.%s" % (modname, path))
                    continue
                func = getattr(raw, "__func__", raw)
                wrapped = functools.wraps(func)(self._wrapper(prefix, func, stat))
                new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                for space in spaces:
                    for key, value in list(vars(space).items()):
                        if value is raw:
                            setattr(space, key, new)

    def _wrapper(self, prefix, fn, stat):
        calls = self.calls
        if stat == "count":
            def counting(*args, **kwargs):
                calls[prefix] += 1
                return fn(*args, **kwargs)
            return counting
        nid = self._id(prefix)
        sid = self._id(_STATS_SPAN)
        measure = {"cells": self._cells, "density": self._density,
                   "repeat": functools.partial(self._repeat, prefix)}.get(stat)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if measure is not None:
                s0 = perf()
                measure(args)
                names.append(sid)
                parents.append(stack[-1])
                starts.append(s0)
                ends.append(perf())
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()
        return traced

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    # -- stats -------------------------------------------------------------

    def _cells(self, args):
        m = args[0]
        self.max_cells = max(self.max_cells, m.rows * m.cols)

    def _density(self, args):
        a, b = args[0], args[1]
        if not hasattr(b, "data"):     # scalar product
            return
        for m in (a, b):
            self.entries += m.rows * m.cols
            self.nonzero += sum(1 for row in m.data for x in row if x)

    def _repeat(self, prefix, args):
        key = (prefix, id(args[0])) + tuple(args[1:])
        if key in self._seen:
            self.repeats[prefix] = self.repeats.get(prefix, 0) + 1
        else:
            self._seen.add(key)
            self._keep.append(args[0])

    # -- reduction ---------------------------------------------------------

    def end_op(self):
        """Fold the spans of one CLI call into the per-name totals."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls, total, selft = self.calls, self.total_s, self.self_s
        for i in range(n):
            name = self.names[names[i]]
            if name == _STATS_SPAN:
                continue
            calls[name] += 1
            total[name] = total.get(name, 0.0) + dur[i]
            selft[name] = selft.get(name, 0.0) + dur[i] - child[i]
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self._seen.clear()
        self._keep.clear()

    def summary(self):
        """Per-layer figures accumulated over every ended op."""
        out = {}
        for prefix, _, _, stat in TARGETS:
            if stat == "total":
                out[prefix + ".total_s"] = self.total_s.get(prefix, 0.0)
                continue
            out[prefix + ".calls"] = self.calls.get(prefix, 0)
            if stat != "count":
                out[prefix + ".self_s"] = self.self_s.get(prefix, 0.0)
            if stat == "repeat":
                calls = self.calls.get(prefix, 0)
                out[prefix + ".repeat_frac"] = self.repeats.get(prefix, 0) / calls if calls else 0.0
        out["exactla.rref.max_cells"] = self.max_cells
        out["exactla.matmul.density"] = self.nonzero / self.entries if self.entries else 0.0
        return out
