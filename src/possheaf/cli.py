"""Command-line entry point: parse instance files, run pipelines, verify.

One instance file may define everything; commands select objects by name.
Output is plain text by default; --format report emits a machine-readable
JSON document.  The exit code is 0 exactly when every executed check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import homalg
from .homalg import CheckReport, ExtensionFailure, TruncationInsufficient, ZigzagFailure
from .ceres import (
    InternalCommutativityFailure,
    InternalExactnessFailure,
    build_ce_triple,
    compute_invariants,
    verify_ce,
)
from .exactla import NoSolution, field_from_name
from .forge import GenConfig, gen_poset, gen_ses_complexes, gen_ses_sheaves, gen_sheaf
from .gross import (
    AcyclicityViolation,
    E2Identification,
    FunctorPair,
    PreconditionFailed,
    acyclic_middle_analysis,
    delta_morphism,
    first_ss_check,
    grothendieck_ss,
    leray_ss,
    verify_main_theorem,
)
from .instancefile import (
    Instance,
    InstanceError,
    morphism_to_dict,
    poset_to_dict,
    sheaf_to_dict,
    validate_instance,
)
from .poset import UnknownElement
from .sheafcat import SheafContext, cohomology_on_opens


class _Run:
    """Collects check results and tables for both output formats."""

    def __init__(self, command, fmt):
        self.command = command
        self.fmt = fmt
        self.report = CheckReport()
        self.lines = []
        self.tables = {}
        self.to_stderr = False    # set by commands whose stdout is a document

    def say(self, text):
        self.lines.append(text)

    def check(self, name, ok, detail=""):
        self.report.add(name, ok, detail)
        self.say(CheckReport.line(name, ok, detail))

    def table(self, name, rows):
        self.tables[name] = rows

    def emit(self):
        out = sys.stderr if self.to_stderr else sys.stdout
        if self.fmt == "report":
            checks = [{"name": name, "ok": ok, "detail": detail}
                      for name, ok, detail in self.report.items]
            doc = {"command": self.command, "ok": self.report.ok,
                   "checks": checks, "tables": self.tables}
            print(json.dumps(doc, indent=2), file=out)
        else:
            for name, rows in self.tables.items():
                print(name, file=out)
                for row in rows:
                    print("  " + "  ".join(str(x) for x in row), file=out)
            for line in self.lines:
                print(line, file=out)
        return 0 if self.report.ok else 1


def _field(args):
    """The field of --field, or None to take the instance file's own."""
    return field_from_name(args.field) if args.field else None


def _load(args):
    return Instance.load(args.file, field=_field(args))


def _get(section, name, kind):
    if name not in section:
        raise InstanceError("unknown %s %r" % (kind, name))
    return section[name]


def cmd_validate(args, run):
    ok, messages = validate_instance(args.file, field=_field(args))
    for msg in messages:
        run.say(msg)
    run.check("instance file valid", ok)


def cmd_cohomology(args, run):
    inst = _load(args)
    F = _get(inst.sheaves, args.sheaf, "sheaf")
    p = F.poset
    names = p.elements
    if args.open is not None:
        names = args.open.split(",") if args.open else []   # the first unknown one is named
    try:
        if not p.is_open(names):
            raise InstanceError("--open: %r is not an up-set" % (sorted(set(names)),))
    except UnknownElement as exc:
        raise InstanceError("--open: %s" % exc) from exc
    dims, = cohomology_on_opens(F, [{p.idx(x) for x in names}], max_q=args.max_degree)
    run.table("H^q dims", [(q, d) for q, d in enumerate(dims)])
    run.check("cohomology computed", True)


def cmd_resolve(args, run):
    inst = _load(args)
    F = _get(inst.sheaves, args.sheaf, "sheaf")
    ctx = SheafContext(F.poset, inst.field)
    res = homalg.injective_resolution(ctx, F, max_len=args.max_degree)
    rows = []
    for q in res.complex.degrees():
        I = res.complex.obj(q)
        rows.append((q, [(F.poset.elements[x], v) for (x, v) in I.summands]))
    run.table("coinduced resolution", rows)
    run.check("resolution exact", res.verify_exact())
    if res.truncated:
        run.say("note: bound was raised past --max-degree to stay exact")


def cmd_ce(args, run):
    inst = _load(args)
    kind, *data = _get(inst.sequences, args.sequence, "sequence")
    if kind != "complexes":
        raise InstanceError("sequence %r is not a sequence of complexes" % args.sequence)
    ses = data[0]
    if args.max_degree is not None and args.max_degree < ses.ctx.resolution_bound():
        run.say("warning: --max-degree %d is below the safe bound %d"
                % (args.max_degree, ses.ctx.resolution_bound()))
    inv = compute_invariants(ses)
    run.check("nineteen derived sequences exact", True,
              "%d labels" % sum(inv.label_counts().values()))
    ce = build_ce_triple(ses, depth=args.max_degree)
    run.say("depth: %d rows" % ce.depth())
    for name in ("A", "B", "C"):
        rep = verify_ce(ce.doubles[name])
        run.check("Cartan-Eilenberg property for %s" % name, rep.ok,
                  "" if rep.ok else rep.failures()[0][0])
    ok_rows = True
    for p in range(ce.depth()):
        t = ce.triples[p]
        for q in t.inv.main_degrees():
            if not ses.ctx.is_exact_pair(ce.row_iotas[p].comp(q), ce.row_pis[p].comp(q),
                                         t.cplx["J"].obj(q)):
                ok_rows = False
    run.check("rows exact in every bidegree", ok_rows)


def _map_from(args, inst, poset, what):
    """The map of --map, once `what`, which lives on poset, is on its source."""
    f = _get(inst.maps, args.map, "map")
    if f.source is not poset:
        raise InstanceError("%s is not on the source poset of map %r" % (what, args.map))
    return f


def _pair_for(args, inst, F):
    """The functor pair of --map, or of the identity, for the sheaf F of --sheaf."""
    if args.map is None:
        return FunctorPair(None, F.poset, inst.field)
    f = _map_from(args, inst, F.poset, "sheaf %r" % args.sheaf)
    return FunctorPair(f, f.source, inst.field)


def cmd_gss(args, run):
    inst = _load(args)
    F = _get(inst.sheaves, args.sheaf, "sheaf")
    pair = _pair_for(args, inst, F)
    data = grothendieck_ss(pair, F)
    run.table("E2 page (p, q, dim)", data.ss.page_table(2))
    run.table("E_inf page (p, q, dim)", data.ss.page_table(data.ss.r_inf))
    diffs = []
    for r in range(2, data.ss.r_inf):
        for (p, q, _) in data.ss.page_table(r):
            d = data.ss.page(r).d_map(p, q)
            if not d.is_zero():
                diffs.append((r, p, q, d.to_str_rows()))
    run.table("nonzero differentials (r, p, q, matrix)", diffs)
    run.table("total cohomology", [(n, data.ss.total_h_dim(n))
                                   for n in range(2 * data.ss.D + 1)])
    run.check("first spectral sequence checks", first_ss_check(data).ok)
    run.check("E2 identification invertible",
              E2Identification(data.double, data.ss).check())
    run.check("convergence: E_inf matches total cohomology", data.ss.convergence_ok())


def cmd_leray(args, run):
    inst = _load(args)
    F = _get(inst.sheaves, args.sheaf, "sheaf")
    f = _map_from(args, inst, F.poset, "sheaf %r" % args.sheaf)
    data, ident, comparisons = leray_ss(f, F, field=inst.field)
    run.table("E2 page (p, q, dim)", data.ss.page_table(2))
    run.table("total cohomology", [(n, data.ss.total_h_dim(n))
                                   for n in range(2 * data.ss.D + 1)])
    if data.ss.page_table(2) == data.ss.page_table(data.ss.r_inf):
        run.say("degenerates at E2")
    run.check("E2 = H^p(Y, R^q f_*) dimensions", all(a == b for a, b in comparisons.values()))
    run.check("E2 identification invertible", ident.check())
    run.check("first spectral sequence checks", first_ss_check(data).ok)
    run.check("convergence: E_inf matches total cohomology", data.ss.convergence_ok())


def _sequence_for(args, inst):
    """The functor pair of --map and the maps (iota, pi) of --sequence."""
    kind, *data = _get(inst.sequences, args.sequence, "sequence")
    if kind != "sheaves":
        raise InstanceError("sequence %r is not a sequence of sheaves" % args.sequence)
    iota, pi = data
    f = _map_from(args, inst, iota.source.poset, "sequence %r" % args.sequence)
    return FunctorPair(f, f.source, inst.field), iota, pi


def cmd_delta(args, run):
    family = delta_morphism(*_sequence_for(args, _load(args)))
    run.say("recorded couple signs: %s" % family.mor.signs)
    for r in range(2, family.r_inf + 1):
        rows = []
        for (p, q) in sorted(set(family.ssT.page_dims(r))):
            m = family.delta_r(r, p, q)
            rows.append((p, q, "%dx%d" % (m.rows, m.cols), m.to_str_rows()))
        run.table("delta_%d maps" % r, rows)
    run.check("coboundary family constructed", True)


def cmd_verify_main(args, run):
    rep = verify_main_theorem(delta_morphism(*_sequence_for(args, _load(args))))
    for name, ok, detail in rep.items:
        run.check(name, ok, detail)


def cmd_verify_cz(args, run):
    # the family is built only once the middle sheaf passes its precondition
    rep = acyclic_middle_analysis(*_sequence_for(args, _load(args)))
    for name, ok, detail in rep.items:
        run.check(name, ok, detail)


# the failures the CE construction declares; selftest reports them per seed,
# and anything else stays a traceback
_CONSTRUCTION_FAILURES = (InternalExactnessFailure, InternalCommutativityFailure,
                          TruncationInsufficient, ZigzagFailure, ExtensionFailure, NoSolution)


def cmd_selftest(args, run):
    passed, field = 0, field_from_name(args.field or "q")
    for k in range(args.count):
        cfg = GenConfig("%d-%d" % (args.seed, k), max_elements=5, max_stalk_dim=2, field=field)
        try:
            ce = build_ce_triple(gen_ses_complexes(cfg))
            ok = all(verify_ce(ce.doubles[n]).ok for n in ("A", "B", "C"))
        except _CONSTRUCTION_FAILURES as exc:   # a failure here is an engine bug
            ok = False
            run.say("seed %s failed: %s" % (cfg.seed, exc))
        passed += bool(ok)
    run.check("selftest", passed == args.count, "%d/%d PASS" % (passed, args.count))


def cmd_forge(args, run):
    name = args.field or "q"
    cfg = GenConfig(args.seed, max_elements=args.max_elements,
                    max_stalk_dim=2, field=field_from_name(name))
    doc = {"field": name, "posets": {}, "sheaves": {}}
    if args.kind == "poset":
        doc["posets"]["P"] = poset_to_dict(gen_poset(cfg))
    elif args.kind == "sheaf":
        p = gen_poset(cfg.child("poset"))
        doc["posets"]["P"] = poset_to_dict(p)
        doc["sheaves"]["F"] = sheaf_to_dict(gen_sheaf(cfg, p), "P")
    else:  # ses
        p = gen_poset(cfg.child("poset"))
        _, mono, epi = gen_ses_sheaves(cfg, p)
        doc["posets"]["P"] = poset_to_dict(p)
        doc["sheaves"]["A"] = sheaf_to_dict(mono.source, "P")
        doc["sheaves"]["B"] = sheaf_to_dict(mono.target, "P")
        doc["sheaves"]["C"] = sheaf_to_dict(epi.target, "P")
        doc["morphisms"] = {"iota": morphism_to_dict(mono, "A", "B"),
                            "pi": morphism_to_dict(epi, "B", "C")}
        doc["sequences"] = {"S": {"kind": "sheaves", "iota": "iota", "pi": "pi"}}
    print(json.dumps(doc, indent=2))
    run.to_stderr = True
    run.check("instance generated", True)


def _at_least(low, what):
    """argparse type: a decimal integer of at least low, called `what` in errors."""
    def parse(text):
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError("invalid %s %r: must be an integer >= %d"
                                             % (what, text, low))
        return int(text)
    return parse


def _field_name(name):
    """argparse type for --field: the name, once it names a field."""
    try:
        field_from_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("invalid field %r: %s" % (name, exc)) from exc
    return name


def build_parser():
    top = argparse.ArgumentParser(prog="possheaf",
                                  description="exact spectral sequences of sheaves on finite posets")
    top.add_argument("--field", type=_field_name,
                     help="q or fp:<prime>; default: the instance file's field (forge, selftest: q)")
    top.add_argument("--format", default="text", choices=["text", "report"])
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, file_arg=True, **opts):
        p = sub.add_parser(name)
        if file_arg:
            p.add_argument("file")
        for opt, kw in opts.items():
            p.add_argument("--" + opt.replace("_", "-"), **kw)
        p.set_defaults(func=func)
        return p

    # --max-degree: an option of the commands that read it
    max_degree = {"type": _at_least(0, "degree"), "default": None}
    add("validate", cmd_validate)
    add("cohomology", cmd_cohomology, sheaf={"required": True}, open={"default": None},
        max_degree=max_degree)
    add("resolve", cmd_resolve, sheaf={"required": True}, max_degree=max_degree)
    add("ce", cmd_ce, sequence={"required": True}, max_degree=max_degree)
    add("gss", cmd_gss, sheaf={"required": True}, map={"default": None})
    add("leray", cmd_leray, sheaf={"required": True}, map={"required": True})
    add("delta", cmd_delta, sequence={"required": True}, map={"required": True})
    add("verify-main", cmd_verify_main, sequence={"required": True}, map={"required": True})
    add("verify-cz", cmd_verify_cz, sequence={"required": True}, map={"required": True})
    add("selftest", cmd_selftest, file_arg=False,
        seed={"type": int, "default": 0}, count={"type": _at_least(1, "count"), "default": 10})
    # gen_poset draws between 2 and --max-elements elements
    add("forge", cmd_forge, file_arg=False,
        seed={"type": int, "default": 0},
        kind={"default": "ses", "choices": ["poset", "sheaf", "ses"]},
        max_elements={"type": _at_least(2, "element bound"), "default": 5})
    return top


# input and hypothesis failures that end a run as a named FAIL (exit 1); any
# other exception is an engine bug and stays a traceback
_DOMAIN_ERRORS = {
    InstanceError: "input error",
    PreconditionFailed: "precondition failed",
    TruncationInsufficient: "truncation insufficient",
    AcyclicityViolation: "acyclicity violated",
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    run = _Run(args.command, args.format)
    try:
        args.func(args, run)
    except tuple(_DOMAIN_ERRORS) as exc:
        run.check(_DOMAIN_ERRORS[type(exc)], False, str(exc))
    return run.emit()


if __name__ == "__main__":
    sys.exit(main())
