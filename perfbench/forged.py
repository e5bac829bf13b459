"""Forged `ce` inputs: short exact sequences of complexes as instance files.

Each pool entry is built by `forge.gen_ses_complexes` at the `selftest`
bounds and converted with the `instancefile` helpers plus the small complex
serializer below (the instance format has no writer for complexes).  Only
`record.py` uses this, to freeze the pool into `reference/`; runs read the
frozen documents, so a change to `forge` or `instancefile` cannot change a
run's inputs.  Requires `src/` on `sys.path`.
"""

from possheaf.forge import GenConfig, gen_ses_complexes
from possheaf.instancefile import morphism_to_dict, poset_to_dict, sheaf_to_dict


def pool_config(k):
    """Generator config of pool entry k: the `selftest` bounds."""
    return GenConfig("perfbench-%d" % k, max_elements=5, max_stalk_dim=2)


def ses_to_doc(ses):
    """Instance document holding the complexes A, B, C and sequence S."""
    doc = {"field": "q", "posets": {"P": poset_to_dict(ses.ctx.poset)},
           "sheaves": {}, "morphisms": {}, "complexes": {}, "sequences": {}}
    for tag, cplx in (("A", ses.A), ("B", ses.B), ("C", ses.C)):
        terms = []
        for q in sorted(cplx.objects):
            name = "%s%d" % (tag, q)
            doc["sheaves"][name] = sheaf_to_dict(cplx.objects[q], "P")
            term = {"degree": q, "object": name}
            # a differential into a degree outside the complex is the zero map
            if q in cplx.diffs and q + 1 in cplx.objects:
                doc["morphisms"]["d" + name] = morphism_to_dict(
                    cplx.diffs[q], name, "%s%d" % (tag, q + 1))
                term["differential"] = "d" + name
            terms.append(term)
        doc["complexes"][tag] = {"poset": "P", "terms": terms}
    seq = {"kind": "complexes", "A": "A", "B": "B", "C": "C"}
    for tag, cmap, src, tgt in (("iota", ses.iota, "A", "B"), ("pi", ses.pi, "B", "C")):
        comps = {}
        for q in sorted(cmap.comps):
            if q in cmap.source.objects and q in cmap.target.objects:
                name = "%s%d" % (tag, q)
                doc["morphisms"][name] = morphism_to_dict(
                    cmap.comps[q], "%s%d" % (src, q), "%s%d" % (tgt, q))
                comps[str(q)] = name
        seq[tag] = comps
    doc["sequences"]["S"] = seq
    return doc


def pool_doc(k):
    """The instance document of pool entry k."""
    return ses_to_doc(gen_ses_complexes(pool_config(k)))
