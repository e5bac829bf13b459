"""Sixteen layout rules of src/possheaf, and its tracked size.

Every definition shipped in src/possheaf is reached from src/possheaf.
Code that only tests use belongs under tests/ (dense_oracle.py,
specseq_oracle.py, engine_oracle.py, fixtures.py), so the package ships
what the command line runs and nothing a later change has to keep
working for a test's sake.

The scan collects every top-level function and class, and every method
whose name is not a dunder, in src/possheaf.  A definition counts as
referenced when its name appears somewhere in src/possheaf outside its
own body, as an `ast.Name`, an `ast.Attribute` or an import alias.
`cli.main` is the entry point and is exempt.

Known limit: names are matched bare, with no types behind them, so a
definition whose name matches an attribute used anywhere passes even if
nothing calls it: a `SheafMorphism.comp` that nothing called would pass on
the strength of `ChainMap.comp`, and a `Sheaf.is_zero` on
`CochainComplex.is_zero`.  So the test can miss dead code, and it flags only
definitions that no code in src/possheaf names.

Only exactla knows how a matrix is stored and how field elements behave.
Every other module builds and takes apart matrices through exactla's
constructors, slices, block builders and operators, so a change of storage
(sparse rows, say, or bare ints for a prime field) touches exactla alone.
The scan flags, in every module but exactla, an attribute named `data`, a
direct call of `Matrix(...)`, and a call of a field's `one()` or `zero()`.

Only exactla knows what a rational is.  No other module imports `fractions`,
no module at all imports `gmpy2` (the rational type is `Fraction`), and no
module divides with `/` but `RationalField.inv`.  Over
the rationals an integral value is a bare int, so `/` of two field
elements could give a float; `inv` turns its argument into a rational
first, and every other quotient is a product with an inverse.

Only `homalg.DirectSum` places summands.  No other code in src/possheaf
calls a context's `direct_sum`, `sum_offsets` or `placed`, so where a
summand sits, and how its injection, projection and the structural maps
between sums are made, is decided in one class.

A map into or out of a direct sum is placed, never computed: no call of
`add` or `sub` in src/possheaf has an argument that calls `.inj(`,
`.proj(` or `.structural_to(`.  Its components go to `DirectSum.into` or
`DirectSum.out_of`, which copy each one in at its summand's offset, instead
of being composed with injections, projections or structural maps and
added up.  A part that is a map into another sum goes to `into` too, keyed
by that sum, so no code in ceres calls a context's `add`: each comparison
map of a Cartan-Eilenberg row is one `into` of its parts.

A double complex has one spectral-sequence object, `specseq.CoupleTower`:
its pages, limit, filtration and graded isomorphisms are read off the
tower itself.  No module but specseq (where each `ExactCouple` keeps its
tower) reads an attribute named `tower`, so no caller reaches through a
wrapper to the tower behind it.

A stalk's linear algebra runs once per distinct tuple of operands: the
field's memo keeps `kernel_basis`, `cokernel_basis` and `image_basis`, and
the other kernels go through one stalk loop, `sheafcat._stalkwise`, which
shares a result among the stalks that hold equal operands.  No loop in
sheafcat that reads `.comps` calls `solve` or `_extend_matrix` itself, so
no operation goes back to one elimination per stalk beside it.

Every function the benchmark's tracer wraps (`perfbench/tracer.py`,
`TARGETS`) exists under the name it is wrapped by, so a refactor that drops
or renames one (`Matrix.identity`, say, or `Subspace.coords_of`) fails here
rather than turning a traced benchmark run incorrect.  The tracer is only
imported and asked to resolve each name.

The maps a chain map induces on cocycles, coboundaries and cohomology are
made by one routine, `homalg.induced_maps`.  In ceres, `verify_ce` and the
`InjectiveTriple._verify_*` checks call neither `lift_through_mono` nor
`descend_along_epi`, so no check writes out an induced map of its own.

The maps a couple morphism induces on the pages are made by one routine,
`Subquotient.induced_map`, which checks both witnesses: no method of
`specseq.CoupleMorphism` calls `.project(`, so none transports a page map
through coordinates of its own.

The E2 identification reads the tagged cohomology column of a
Cartan-Eilenberg double by structural maps: no method of
`gross.E2Identification` calls `lift_through_mono`, so none lifts through
row cohomology computed afresh.

There is one abelian category in src/possheaf: sheaves on a finite poset.
Once Gamma is applied, values are plain matrices, and `VectorContext` is
only the context a complex of them is validated in.  It defines `__init__`,
the six operations that validating a complex or a chain map reads, and the
names the tracer wraps under `VectorContext`, and its instances hold only
`field`.  The rule reads the tracer's `TARGETS`, so it tightens by itself
when the tracer stops wrapping a name.  The full category of vector spaces
is a test oracle (`engine_oracle.VectorSpaces`).

The engine makes one set of choices.  The coboundary morphism and its
filtrations do not depend on the chosen resolutions, and the tests check
that against a second set (`engine_oracle.EagerSheafContext` with
`flip=True`), so no name `flip` appears in src/possheaf: no parameter,
attribute or variable selects between choices.  Nor does `ChainMap.__init__`
take `validate`: every chain map is checked when it is made.

A map into a realized coinduced sum is built from its rows at the
summands' peaks, by `sheafcat._into_coinduced`, so only sheafcat knows
where a summand sits in a stalk: no other module reads an attribute named
`slot` or `present`, the `InjectiveSheaf` fields that say so.

A Cartan-Eilenberg row has no one-object direct sum: a bare chosen
injective at the end of a ladder is a summand of the sum in the middle, and
the ladder checks read its side map as that sum's own injection or
projection.  Each `DirectSum` call in ceres takes a list display of two or
more objects or a comprehension over a `_LAYOUT` entry, and every
`_LAYOUT` entry has two or more keys.

The size of src/possheaf is tracked in ROADMAP.md ("The `src/` line count
(N now)"), and N is the newline count of src/possheaf/*.py, as `wc -l`
gives it, so a change that grows or shrinks the package updates the figure.
"""

import ast
import collections
import glob
import importlib
import importlib.util
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src", "possheaf")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
EXEMPT = {("cli", "main")}


def _definitions(tree):
    """(qualified name, bare name, node) of each top-level def/class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _references(node):
    """Bare names referenced anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
            if sub.asname:
                yield sub.asname


def _trees():
    """Module name -> parsed source, for each module of src/possheaf."""
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname[:-3]] = ast.parse(fh.read(), filename=fname)
    return trees


def unreferenced_definitions():
    """`module.name` of each definition that src/possheaf names only inside its own body."""
    trees = _trees()
    everywhere = collections.Counter(ref for tree in trees.values() for ref in _references(tree))
    found = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            inside = sum(1 for ref in _references(node) if ref == name)
            if (module, qualname) not in EXEMPT and everywhere[name] == inside:
                found.append("%s.%s" % (module, qualname))
    return found


def test_every_shipped_definition_is_referenced_in_src():
    assert unreferenced_definitions() == []


def storage_sites():
    """`module:line what` of each use of matrix storage or field scalars outside exactla."""
    found = []
    for module, tree in _trees().items():
        if module == "exactla":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "data":
                found.append("%s:%d .data" % (module, node.lineno))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Matrix":
                    found.append("%s:%d Matrix(...)" % (module, node.lineno))
                elif isinstance(func, ast.Attribute) and name in ("one", "zero") and not node.args:
                    found.append("%s:%d .%s()" % (module, node.lineno, name))
    return found


def test_only_exactla_touches_matrix_storage():
    assert storage_sites() == []


def _nodes_of_method(tree, cls, method):
    """The AST nodes of cls.method in tree."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return set(ast.walk(item))
    return set()


def rational_sites():
    """`module:line what` of each `/` outside RationalField.inv, each `fractions`
    import outside exactla and each `gmpy2` import anywhere."""
    found = []
    for module, tree in _trees().items():
        allowed = _nodes_of_method(tree, "RationalField", "inv") if module == "exactla" else set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                if node not in allowed:
                    found.append("%s:%d /" % (module, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                banned = ("gmpy2",) if module == "exactla" else ("fractions", "gmpy2")
                for name in names:
                    if name.split(".")[0] in banned:
                        found.append("%s:%d import %s" % (module, node.lineno, name))
    return found


def test_only_rational_field_inv_divides():
    assert rational_sites() == []


def _called_name(node):
    """The bare name a Call node calls, or None."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


PLACEMENT = ("direct_sum", "sum_offsets", "placed")


def placement_sites():
    """`module:line name` of each call of a PLACEMENT method outside homalg.DirectSum."""
    found = []
    for module, tree in _trees().items():
        allowed = set()
        if module == "homalg":
            allowed = {n for node in tree.body if isinstance(node, ast.ClassDef)
                       and node.name == "DirectSum" for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node not in allowed and _called_name(node) in PLACEMENT:
                found.append("%s:%d %s" % (module, node.lineno, _called_name(node)))
    return found


def test_only_direct_sum_places_summands():
    assert placement_sites() == []


def summed_placement_sites():
    """`module:line name` of each `add` or `sub` call with an argument that calls
    `.inj(`, `.proj(` or `.structural_to(`."""
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in ("add", "sub"):
                if any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                       and sub.func.attr in ("inj", "proj", "structural_to")
                       for arg in node.args + [kw.value for kw in node.keywords]
                       for sub in ast.walk(arg)):
                    found.append("%s:%d %s" % (module, node.lineno, _called_name(node)))
    return found


def test_maps_into_and_out_of_sums_are_placed_not_added():
    assert summed_placement_sites() == []


def ceres_add_sites():
    """`ceres:line` of each call of a context's `add` in ceres: `ctx.add(` or
    `<x>.ctx.add(`, not a check report's `add`."""
    return ["ceres:%d" % node.lineno for node in ast.walk(_trees()["ceres"])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add"
            and "ctx" in (getattr(node.func.value, "id", None), getattr(node.func.value, "attr", None))]


def test_ceres_places_each_row_map_in_one_into():
    assert ceres_add_sites() == []


def tower_hops():
    """`module:line` of each `.tower` read outside specseq."""
    return ["%s:%d" % (module, node.lineno) for module, tree in _trees().items()
            if module != "specseq" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "tower"]


def test_spectral_sequences_are_read_off_the_tower():
    assert tower_hops() == []


STALK_KERNELS = ("solve", "_extend_matrix")     # the memoized kernels may run per stalk
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def stalk_loop_sites(tree):
    """`sheafcat:line name` of each call of a STALK_KERNELS function inside a
    loop of tree that reads `.comps`, outside `_stalkwise`."""
    inside = {n for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_stalkwise" for n in ast.walk(node)}
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, _LOOPS) or loop in inside:
            continue
        nodes = list(ast.walk(loop))
        if any(isinstance(n, ast.Attribute) and n.attr == "comps" for n in nodes):
            found.update("sheafcat:%d %s" % (n.lineno, _called_name(n)) for n in nodes
                         if isinstance(n, ast.Call) and _called_name(n) in STALK_KERNELS)
    return sorted(found)


def test_stalk_linear_algebra_runs_once_per_distinct_stalk():
    assert stalk_loop_sites(_trees()["sheafcat"]) == []


HAND_INDUCED = ("lift_through_mono", "descend_along_epi")


def hand_induced_sites():
    """`name:line call` of each HAND_INDUCED call in ceres's `verify_ce` or an
    `InjectiveTriple._verify_*` method."""
    tree = _trees()["ceres"]
    checks = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "verify_ce"]
    checks += [item for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "InjectiveTriple"
               for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name.startswith("_verify_")]
    return ["%s:%d %s" % (check.name, n.lineno, _called_name(n)) for check in checks
            for n in ast.walk(check)
            if isinstance(n, ast.Call) and _called_name(n) in HAND_INDUCED]


def test_checks_read_induced_maps_from_homalg():
    assert hand_induced_sites() == []


def page_projection_sites():
    """`method:line` of each `.project(` call in specseq's CoupleMorphism."""
    cls = next(node for node in _trees()["specseq"].body
               if isinstance(node, ast.ClassDef) and node.name == "CoupleMorphism")
    return ["%s:%d" % (item.name, n.lineno) for item in cls.body
            if isinstance(item, ast.FunctionDef) for n in ast.walk(item)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "project"]


def test_page_maps_go_through_induced_map():
    assert page_projection_sites() == []


def e2_lift_sites():
    """`method:line` of each `lift_through_mono` call in gross's E2Identification."""
    cls = next(node for node in _trees()["gross"].body
               if isinstance(node, ast.ClassDef) and node.name == "E2Identification")
    return ["%s:%d" % (item.name, n.lineno) for item in cls.body
            if isinstance(item, ast.FunctionDef) for n in ast.walk(item)
            if isinstance(n, ast.Call) and _called_name(n) == "lift_through_mono"]


def test_e2_identification_reads_the_h_column_by_structural_maps():
    assert e2_lift_sites() == []


def choice_sites():
    """`module.function(arg)` of each function of src/possheaf with a `flip`
    argument, `module:line flip` of each other name or attribute `flip`, and
    `homalg.ChainMap.__init__(validate)` if it takes `validate`."""
    found = set()
    for module, tree in _trees().items():
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                qualname = fn.name if fn is node else "%s.%s" % (node.name, fn.name)
                found.update("%s.%s(%s)" % (module, qualname, a.arg) for a in fn.args.args
                             if a.arg == "flip"
                             or (qualname, a.arg) == ("ChainMap.__init__", "validate"))
        found.update("%s:%d flip" % (module, n.lineno) for n in ast.walk(tree)
                     if isinstance(n, ast.Name) and n.id == "flip"
                     or isinstance(n, ast.Attribute) and n.attr == "flip"
                     or isinstance(n, ast.keyword) and n.arg == "flip")
    return sorted(found)


def test_the_engine_makes_one_set_of_choices():
    assert choice_sites() == []


def _tracer():
    """perfbench/tracer.py, imported without writing bytecode under perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = keep
    return tracer


def test_every_traced_name_resolves():
    tracer = _tracer()
    missing = []
    for _, modname, paths, _ in tracer.TARGETS:
        importlib.import_module("possheaf." + modname)
        missing += ["%s.%s" % (modname, path) for path in paths
                    if tracer.resolve(modname, path) is None]
    assert missing == []


GAMMA_COMPLEX_OPS = {"zero_obj", "zero_map", "compose", "map_eq", "is_zero_map", "check_map"}


def vector_context_extras():
    """Members of sheafcat's VectorContext, and attributes its methods set on
    self, beyond `__init__`, GAMMA_COMPLEX_OPS, the names the tracer wraps
    under `VectorContext` and the instance attribute `field`."""
    traced = {path.split(".", 1)[1] for _, modname, paths, _ in _tracer().TARGETS
              if modname == "sheafcat" for path in paths if path.startswith("VectorContext.")}
    cls = next(node for node in _trees()["sheafcat"].body
               if isinstance(node, ast.ClassDef) and node.name == "VectorContext")
    members = set()
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(item.name)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            members.update(t.id for t in targets if isinstance(t, ast.Name))
        for sub in ast.walk(item):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                members.add("self." + sub.attr)
    return sorted(members - GAMMA_COMPLEX_OPS - traced - {"__init__", "self.field"})


def test_vector_context_is_the_context_of_gamma_complexes():
    assert vector_context_extras() == []


def slot_readers():
    """`module:line attr` of each `.slot` or `.present` read outside sheafcat."""
    return ["%s:%d %s" % (module, node.lineno, node.attr) for module, tree in _trees().items()
            if module != "sheafcat" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("slot", "present")]


def test_only_sheafcat_reads_where_a_coinduced_summand_sits():
    assert slot_readers() == []


def _over_layout(arg):
    """Whether arg is a comprehension whose one generator runs over `_LAYOUT[...](...)`."""
    if not isinstance(arg, ast.ListComp) or len(arg.generators) != 1:
        return False
    it = arg.generators[0].iter
    return (isinstance(it, ast.Call) and isinstance(it.func, ast.Subscript)
            and isinstance(it.func.value, ast.Name) and it.func.value.id == "_LAYOUT")


def one_object_sum_sites():
    """`ceres:line` of each DirectSum call whose objects are neither a list or
    tuple display of two or more nor a comprehension over a `_LAYOUT` entry,
    and `_LAYOUT[name]` of each entry with fewer than two keys."""
    from possheaf import ceres

    found = []
    for node in ast.walk(_trees()["ceres"]):
        if isinstance(node, ast.Call) and _called_name(node) == "DirectSum":
            objs = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(objs, (ast.List, ast.Tuple)) and len(objs.elts) >= 2
                    or _over_layout(objs)):
                found.append("ceres:%d" % node.lineno)
    found += ["_LAYOUT[%r]" % name for name, keys in ceres._LAYOUT.items() if len(keys(0)) < 2]
    return found


def test_ceres_builds_no_one_object_sum():
    assert one_object_sum_sites() == []


def test_roadmap_tracks_the_src_line_count():
    with open(os.path.join(ROOT, "ROADMAP.md")) as fh:
        tracked = re.search(r"The `src/` line count \(([0-9,]+) now\)", fh.read()).group(1)
    lines = 0
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    assert int(tracked.replace(",", "")) == lines
