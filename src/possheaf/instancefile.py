"""The JSON instance format: posets, sheaves, morphisms, maps, complexes, SESs.

Matrices are row-major arrays of strings "n" or "n/d" (exact, no decimals).
Restrictions are keyed by cover "x<y", morphism components by element.  All
cross-references are by name and resolved at load time; every referenced
object passes its validator before any computation runs.
"""

from __future__ import annotations

import json

from .exactla import Matrix, field_from_name
from .homalg import ChainMap, CochainComplex, SESOfComplexes
from .poset import MonotoneMap, NotMonotone, Poset, UnknownElement
from .sheafcat import IllFormedMorphism, Sheaf, SheafContext, SheafMorphism


class InstanceError(Exception):
    """Parse or validation failure, with the offending location in the text."""


def _matrix_from_rows(field, rows, nrows, ncols, where):
    if rows is None:
        return Matrix.zeros(field, nrows, ncols)
    if (type(rows) is not list or len(rows) != nrows
            or any(type(r) is not list or len(r) != ncols for r in rows)):
        raise InstanceError("%s: expected a %dx%d matrix" % (where, nrows, ncols))
    try:
        data = [[field.parse(x) for x in r] for r in rows]
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError("%s: bad matrix entry (%s)" % (where, exc)) from exc
    return Matrix.from_rows(field, data, ncols)


# the JSON shape of each section's objects, as read by the parsers below: a
# JSON type, (list, k) for an array of k, (dict, k) for an object of named k,
# {field: k} for an object with only those fields, each, where present, of
# shape k, or None for a field whose parser checks its shape.  A reference to
# another object is its name, so a string.
_SHAPES = {
    "posets": {"elements": (list, str), "covers": (list, (list, str))},
    "sheaves": {"poset": str, "stalks": dict, "restrictions": dict},
    "morphisms": {"source": str, "target": str, "components": dict},
    "maps": {"source": str, "target": str, "values": None},
    "complexes": {"poset": str,
                  "terms": (list, {"degree": None, "object": str, "differential": str})},
    "sequences": {"kind": str, "A": str, "B": str, "C": str, "iota": None, "pi": None},
}
_DOCUMENT = {"field": None, **{section: (dict, shape) for section, shape in _SHAPES.items()}}

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _expect(value, shape, path):
    """Raise an InstanceError naming path unless value has the given shape."""
    if shape is None:
        return
    fields, items = {}, None
    if isinstance(shape, dict):
        kind, fields = dict, shape
    elif type(shape) is tuple:
        kind, items = shape
    else:
        kind = shape
    if type(value) is not kind:
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise InstanceError("%s: expected %s, got %s" % (path, _JSON_NAMES[kind], got))
    for field in value if fields else ():
        at = "%s.%s" % (path, field) if path else field
        if field not in fields:
            raise InstanceError("unknown key %s" % at)
        _expect(value[field], fields[field], at)
    if items is not None:
        for key, item in (value.items() if kind is dict else enumerate(value)):
            _expect(item, items, ("%s.%s" if kind is dict else "%s[%d]") % (path, key))


class _Repeated(dict):
    """A JSON object that names a key twice; `key` is the first key named again."""


def _no_repeats(pairs, repeated):
    """json's object hook: the object of pairs, or, if a key repeats, a
    `_Repeated` one, also added to the list repeated (json itself keeps the
    last value without a word)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        obj = _Repeated(obj)
        obj.key = next(k for i, k in enumerate(keys) if k in keys[:i])
        repeated.append(obj)
    return obj


def _repeated_key(value, path=""):
    """The path of the first key that an object in value names twice, or None;
    a walk of the whole document, so it runs only once a repeat is seen."""
    if isinstance(value, _Repeated):
        return "%s.%s" % (path, value.key) if path else value.key
    if isinstance(value, dict):
        items = [("%s.%s" % (path, k) if path else k, v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [("%s[%d]" % (path, i), v) for i, v in enumerate(value)]
    else:
        return None
    return next((found for at, v in items if (found := _repeated_key(v, at)) is not None), None)


def _check_shape(doc):
    """The document is an object with only the keys of _DOCUMENT, and each
    section present an object of named objects of the section's shape."""
    _expect(doc, dict, "document")
    _expect(doc, _DOCUMENT, "")


class Instance:
    """All named objects of one instance file, fully validated."""

    def __init__(self, field):
        self.field = field
        self.posets = {}
        self.sheaves = {}
        self.morphisms = {}
        self.maps = {}
        self.complexes = {}
        self.sequences = {}

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, path, field=None):
        try:
            repeated = []
            with open(path) as fh:
                doc = json.load(fh, object_pairs_hook=lambda pairs: _no_repeats(pairs, repeated))
        except OSError as exc:
            raise InstanceError("%s: cannot read: %s" % (path, exc.strerror or exc)) from exc
        except json.JSONDecodeError as exc:
            raise InstanceError("%s: line %d column %d: %s"
                                % (path, exc.lineno, exc.colno, exc.msg)) from exc
        if repeated:
            raise InstanceError("%s: duplicate key %s" % (path, _repeated_key(doc)))
        return cls.from_dict(doc, field=field)

    @classmethod
    def from_dict(cls, doc, field=None):
        _check_shape(doc)
        name = doc.get("field", "q")
        try:
            own = field_from_name(name)
        except ValueError as exc:
            raise InstanceError("field %r: %s" % (name, exc)) from exc
        inst = cls(field if field is not None else own)
        for name, spec in doc.get("posets", {}).items():
            try:
                inst.posets[name] = Poset(spec["elements"],
                                          [tuple(c) for c in spec.get("covers", [])])
            except (KeyError, ValueError, UnknownElement) as exc:
                raise InstanceError("poset %r: %s" % (name, exc)) from exc
        for name, spec in doc.get("sheaves", {}).items():
            inst.sheaves[name] = inst._parse_sheaf(name, spec)
        for name, spec in doc.get("morphisms", {}).items():
            inst.morphisms[name] = inst._parse_morphism(name, spec)
        for name, spec in doc.get("maps", {}).items():
            inst.maps[name] = inst._parse_map(name, spec)
        for name, spec in doc.get("complexes", {}).items():
            inst.complexes[name] = inst._parse_complex(name, spec)
        for name, spec in doc.get("sequences", {}).items():
            inst.sequences[name] = inst._parse_sequence(name, spec)
        return inst

    def _poset(self, ref, where):
        if ref not in self.posets:
            raise InstanceError("%s: unknown poset %r" % (where, ref))
        return self.posets[ref]

    def _parse_sheaf(self, name, spec):
        where = "sheaf %r" % name
        p = self._poset(spec.get("poset"), where)
        stalks = spec.get("stalks", {})
        for e, d in stalks.items():
            if e not in p.index:
                raise InstanceError("%s: stalk at unknown element %r" % (where, e))
            if type(d) is not int or d < 0:   # bool, float and str are rejected too
                raise InstanceError("%s: stalk at %r must be an integer >= 0, got %r"
                                    % (where, e, d))
        dims = [stalks.get(e, 0) for e in p.elements]
        rho = {}
        given = spec.get("restrictions", {})
        for key in given:
            if "<" not in key:
                raise InstanceError("%s: restriction key %r is not 'x<y'" % (where, key))
        for (i, j) in p.covers:
            key = "%s<%s" % (p.elements[i], p.elements[j])
            rho[(i, j)] = _matrix_from_rows(self.field, given.get(key),
                                            dims[j], dims[i], "%s %s" % (where, key))
        extra = set(given) - {"%s<%s" % (p.elements[i], p.elements[j]) for (i, j) in p.covers}
        if extra:
            raise InstanceError("%s: restriction %r is not a cover" % (where, sorted(extra)[0]))
        try:
            return Sheaf(p, self.field, dims, rho)
        except ValueError as exc:
            raise InstanceError("%s: %s" % (where, exc)) from exc

    def _parse_morphism(self, name, spec):
        where = "morphism %r" % name
        for ref in (spec.get("source"), spec.get("target")):
            if ref not in self.sheaves:
                raise InstanceError("%s: unknown sheaf %r" % (where, ref))
        src = self.sheaves[spec["source"]]
        tgt = self.sheaves[spec["target"]]
        if src.poset is not tgt.poset:
            raise InstanceError("%s: source and target posets differ" % where)
        comps_spec = spec.get("components", {})
        for e in comps_spec:
            if e not in src.poset.index:
                raise InstanceError("%s: component at unknown element %r" % (where, e))
        comps = []
        for i, e in enumerate(src.poset.elements):
            comps.append(_matrix_from_rows(self.field, comps_spec.get(e),
                                           tgt.dims[i], src.dims[i],
                                           "%s at %s" % (where, e)))
        try:
            return SheafMorphism(src, tgt, comps)
        except IllFormedMorphism as exc:
            raise InstanceError("%s: %s" % (where, exc)) from exc

    def _parse_map(self, name, spec):
        where = "map %r" % name
        src = self._poset(spec.get("source"), where)
        tgt = self._poset(spec.get("target"), where)
        values = spec.get("values", {})
        if not (isinstance(values, dict) and all(type(v) is str for v in values.values())):
            raise InstanceError("%s: values must map element names to element names" % where)
        try:
            return MonotoneMap(src, tgt, values)
        except (UnknownElement, NotMonotone) as exc:
            raise InstanceError("%s: %s" % (where, exc)) from exc

    def _parse_complex(self, name, spec):
        where = "complex %r" % name
        p = self._poset(spec.get("poset"), where)
        ctx = SheafContext(p, self.field)
        objects, diffs = {}, {}
        for t, term in enumerate(spec.get("terms", [])):
            if "degree" not in term:
                raise InstanceError("%s: term %d has no degree" % (where, t))
            q = term["degree"]
            if type(q) is not int:   # bool, float, str and null are rejected too
                raise InstanceError("%s: term %d: degree must be an integer, got %r"
                                    % (where, t, q))
            ref = term.get("object")
            if ref not in self.sheaves:
                raise InstanceError("%s: unknown sheaf %r at degree %d" % (where, ref, q))
            objects[q] = self.sheaves[ref]
            dref = term.get("differential")
            if dref is not None:
                if dref not in self.morphisms:
                    raise InstanceError("%s: unknown morphism %r" % (where, dref))
                diffs[q] = self.morphisms[dref]
            if objects[q].poset is not p or (q in diffs and diffs[q].source.poset is not p):
                raise InstanceError("%s: term at degree %d is not on poset %r"
                                    % (where, q, spec.get("poset")))
        try:
            return CochainComplex(ctx, objects, diffs)
        except (ValueError, IllFormedMorphism) as exc:
            raise InstanceError("%s: %s" % (where, exc)) from exc

    def _parse_sequence(self, name, spec):
        where = "sequence %r" % name
        kind = spec.get("kind", "sheaves")
        morphism = str if kind == "sheaves" else (dict, str)   # or one per degree
        shape = {**_SHAPES["sequences"], "iota": morphism, "pi": morphism}
        if kind == "sheaves":   # A, B and C name the complexes of a sequence of complexes
            del shape["A"], shape["B"], shape["C"]
        _expect(spec, shape, "sequences.%s" % name)
        if kind == "sheaves":
            for ref in (spec.get("iota"), spec.get("pi")):
                if ref not in self.morphisms:
                    raise InstanceError("%s: unknown morphism %r" % (where, ref))
            iota = self.morphisms[spec["iota"]]
            pi = self.morphisms[spec["pi"]]
            ctx = SheafContext(iota.source.poset, self.field)
            if not (ctx.is_mono(iota) and ctx.is_epi(pi)
                    and ctx.is_exact_pair(iota, pi, iota.target)):
                raise InstanceError("%s: not a short exact sequence" % where)
            return ("sheaves", iota, pi)
        if kind == "complexes":
            cplxs = []
            for key in ("A", "B", "C"):
                ref = spec.get(key)
                if ref not in self.complexes:
                    raise InstanceError("%s: unknown complex %r" % (where, ref))
                cplxs.append(self.complexes[ref])
            A, B, C = cplxs
            if not (A.ctx.poset is B.ctx.poset is C.ctx.poset):
                raise InstanceError("%s: A, B and C are not on one poset" % where)

            def chain_map(tag, src, tgt):
                comps = {}
                for qs, ref in spec.get(tag, {}).items():
                    if ref not in self.morphisms:
                        raise InstanceError("%s: unknown morphism %r" % (where, ref))
                    try:
                        q = int(qs)
                    except ValueError:
                        raise InstanceError("%s: %s: degree %r is not an integer"
                                            % (where, tag, qs)) from None
                    if qs != str(q):    # int() also reads '00', '+0', ' 0 ', '1_0', non-ASCII digits
                        raise InstanceError("%s: %s: degree %r is not written as %r"
                                            % (where, tag, qs, str(q)))
                    comps[q] = self.morphisms[ref]
                try:
                    return ChainMap(src, tgt, comps)
                except (ValueError, IllFormedMorphism) as exc:
                    raise InstanceError("%s: %s: %s" % (where, tag, exc)) from exc

            iota = chain_map("iota", A, B)
            pi = chain_map("pi", B, C)
            try:
                return ("complexes", SESOfComplexes(iota, pi))
            except ValueError as exc:
                raise InstanceError("%s: %s" % (where, exc)) from exc
        raise InstanceError("%s: unknown kind %r" % (where, kind))


# -- serialization ------------------------------------------------------------

def poset_to_dict(p: Poset):
    return {"elements": list(p.elements),
            "covers": [[p.elements[i], p.elements[j]] for (i, j) in p.covers]}

def sheaf_to_dict(F: Sheaf, poset_name):
    out = {"poset": poset_name,
           "stalks": {F.poset.elements[i]: F.dims[i]
                      for i in range(len(F.poset)) if F.dims[i]},
           "restrictions": {}}
    for (i, j) in F.poset.covers:
        if F.dims[i] and F.dims[j]:
            key = "%s<%s" % (F.poset.elements[i], F.poset.elements[j])
            out["restrictions"][key] = F.restriction(i, j).to_str_rows()
    return out


def morphism_to_dict(phi: SheafMorphism, source_name, target_name):
    comps = {}
    for i, e in enumerate(phi.source.poset.elements):
        if phi.source.dims[i] and phi.target.dims[i]:
            comps[e] = phi.comps[i].to_str_rows()
    return {"source": source_name, "target": target_name, "components": comps}


def validate_instance(path, field=None):
    """Parse and run every invariant check; returns (ok, messages)."""
    messages = []
    try:
        inst = Instance.load(path, field=field)
    except InstanceError as exc:
        return False, [str(exc)]
    for section, noun in (("posets", "poset"), ("sheaves", "sheaf"), ("morphisms", "morphism"),
                          ("maps", "map"), ("complexes", "complex"), ("sequences", "sequence")):
        for name in sorted(getattr(inst, section)):
            messages.append("%s %s: valid" % (noun, name))
    return True, messages
