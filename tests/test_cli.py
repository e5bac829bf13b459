import contextlib
import io
import json
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from possheaf.ceres import InternalCommutativityFailure, InternalExactnessFailure
from possheaf.cli import main
from possheaf.exactla import NoSolution, field_from_name
from possheaf.forge import gen_ses_complexes
from possheaf.homalg import ExtensionFailure, TruncationInsufficient, ZigzagFailure
from possheaf.instancefile import Instance, InstanceError, validate_instance

HERE = os.path.dirname(os.path.abspath(__file__))
PSEUDOCIRCLE = os.path.join(HERE, "..", "instances", "pseudocircle.json")
TORUS = os.path.join(HERE, "..", "instances", "torus.json")


def test_validate_shipped_files(capsys):
    assert main(["validate", PSEUDOCIRCLE]) == 0
    assert main(["validate", TORUS]) == 0


def test_validate_reports_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "line" in out


def test_validate_names_nonmonotone_map(tmp_path):
    doc = {
        "posets": {"P": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                   "Q": {"elements": ["u", "v"], "covers": [["v", "u"]]}},
        "maps": {"f": {"source": "P", "target": "Q", "values": {"a": "u", "b": "v"}}},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    ok, messages = validate_instance(str(path))
    assert not ok
    assert any("monotone" in m for m in messages)


def test_empty_file_is_valid(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    ok, messages = validate_instance(str(path))
    assert ok and messages == []


def test_dangling_reference(tmp_path):
    doc = {"sheaves": {"F": {"poset": "nope", "stalks": {}}}}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    ok, messages = validate_instance(str(path))
    assert not ok and "unknown poset" in messages[0]


def test_cohomology_command(capsys):
    assert main(["cohomology", PSEUDOCIRCLE, "--sheaf", "k"]) == 0
    out = capsys.readouterr().out
    assert "0  1" in out and "1  1" in out


def test_cohomology_on_open(capsys):
    assert main(["cohomology", PSEUDOCIRCLE, "--sheaf", "k", "--open", "c"]) == 0


def test_resolve_command(capsys):
    assert main(["resolve", PSEUDOCIRCLE, "--sheaf", "k"]) == 0
    out = capsys.readouterr().out
    assert "resolution exact" in out


def test_gss_report_format(capsys):
    assert main(["--format", "report", "gss", PSEUDOCIRCLE, "--sheaf", "k"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert any(c["name"].startswith("convergence") for c in doc["checks"])


def test_leray_torus_degenerates(capsys):
    assert main(["leray", TORUS, "--map", "pr1", "--sheaf", "k"]) == 0
    out = capsys.readouterr().out
    assert "degenerates at E2" in out


def test_leray_on_the_three_torus(tmp_path):
    """The graded-size path: T^3 (64 elements, 512 as the sum of its
    injective's stalk dimensions), fibered over T^2."""
    from fixtures import torus_power
    from possheaf.exactla import QQ
    from possheaf.instancefile import poset_to_dict, sheaf_to_dict
    from possheaf.sheafcat import SheafContext

    T3, proj = torus_power(3)
    doc = {"posets": {"T3": poset_to_dict(T3), "T2": poset_to_dict(proj.target)},
           "sheaves": {"k": sheaf_to_dict(SheafContext(T3, QQ).constant_sheaf(), "T3")},
           "maps": {"pr1": {"source": "T3", "target": "T2",
                            "values": {x: proj.target.elements[proj.values[i]]
                                       for i, x in enumerate(T3.elements)}}}}
    path = tmp_path / "t3.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["--format", "report", "leray", str(path), "--map", "pr1",
                     "--sheaf", "k"]) == 0
    report = json.loads(buf.getvalue())
    assert report["checks"] and all(check["ok"] for check in report["checks"])
    dims = [d for _, d in report["tables"]["total cohomology"]]
    assert dims[:4] == [1, 3, 3, 1] and not any(dims[4:]) and len(dims) > 4


def test_verify_main_pseudocircle(capsys):
    assert main(["verify-main", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"]) == 0
    out = capsys.readouterr().out
    assert "bullet2" in out and "FAIL" not in out


def test_verify_cz_pseudocircle(capsys):
    assert main(["verify-cz", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"]) == 0


def test_delta_command(capsys):
    assert main(["delta", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"]) == 0
    out = capsys.readouterr().out
    assert "recorded couple signs" in out


def test_selftest(capsys):
    assert main(["selftest", "--seed", "7", "--count", "3"]) == 0
    out = capsys.readouterr().out
    assert "3/3 PASS" in out


@pytest.mark.parametrize("name", ["q", "fp:2", "fp:32003"])
def test_selftest_forges_over_the_field_flag(monkeypatch, capsys, name):
    import possheaf.cli as cli

    fields = []

    def spying(cfg):
        ses = gen_ses_complexes(cfg)
        fields.append(ses.ctx.field)
        return ses

    monkeypatch.setattr(cli, "gen_ses_complexes", spying)
    assert main(["--field", name, "selftest", "--seed", "7", "--count", "2"]) == 0
    assert fields == [field_from_name(name)] * 2
    assert "2/2 PASS" in capsys.readouterr().out


@pytest.mark.parametrize("failure", [
    InternalExactnessFailure, InternalCommutativityFailure, TruncationInsufficient,
    ZigzagFailure, ExtensionFailure, NoSolution,
], ids=lambda cls: cls.__name__)
def test_selftest_names_a_declared_construction_failure(monkeypatch, capsys, failure):
    import possheaf.cli as cli

    def failing(*args, **kwargs):
        raise failure("forced failure")

    monkeypatch.setattr(cli, "build_ce_triple", failing)
    assert main(["selftest", "--seed", "7", "--count", "2"]) == 1
    out = capsys.readouterr().out
    assert "seed 7-0 failed: forced failure" in out and "seed 7-1 failed: forced failure" in out
    assert "FAIL 0/2 PASS" in out


def test_selftest_engine_bug_stays_a_traceback(monkeypatch):
    import possheaf.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(cli, "build_ce_triple", broken)
    with pytest.raises(RuntimeError, match="engine bug"):
        main(["selftest", "--seed", "7", "--count", "2"])


def test_forge_roundtrip(tmp_path, capsys):
    assert main(["forge", "--seed", "3", "--kind", "ses"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert "instance generated" in captured.err
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    inst = Instance.load(str(path))
    assert "S" in inst.sequences


def test_output_determinism(capsys):
    main(["--format", "report", "gss", PSEUDOCIRCLE, "--sheaf", "k"])
    first = capsys.readouterr().out
    main(["--format", "report", "gss", PSEUDOCIRCLE, "--sheaf", "k"])
    second = capsys.readouterr().out
    assert first == second


def test_unknown_name_exits_nonzero(capsys):
    assert main(["cohomology", PSEUDOCIRCLE, "--sheaf", "nope"]) == 1


@pytest.mark.parametrize("field", ["fp:4", "fp:x", "r"])
def test_bad_field_is_a_usage_error(field, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--field", field, "validate", PSEUDOCIRCLE])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid field %r" % field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_document_field_is_the_default_field(tmp_path, capsys, seed):
    assert main(["--field", "fp:3", "forge", "--kind", "ses", "--seed", str(seed)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"] == "fp:3"
    path = tmp_path / "fp3.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    assert "instance file valid" in capsys.readouterr().out
    # an explicit --field overrides the document's: these matrices are not
    # exact sequences over the rationals
    assert main(["--field", "q", "validate", str(path)]) == 1


def test_forge_writes_q_by_default(capsys):
    assert main(["forge", "--kind", "sheaf", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["field"] == "q"


@pytest.mark.parametrize("command", [["validate"], ["cohomology", "--sheaf", "k"]])
@pytest.mark.parametrize("field", ["x", True, 1.5, None, "fp:4"])
def test_bad_document_field_is_an_input_error(tmp_path, capsys, command, field):
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    doc["field"] = field
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    assert main(command[:1] + [str(path)] + command[1:]) == 1
    out = capsys.readouterr().out
    assert "field %r: " % (field,) in out
    if command[0] != "validate":
        assert out.startswith("input error")


def test_cover_of_unknown_element_is_an_input_error(tmp_path, capsys):
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    doc["posets"]["X"]["covers"].append(["a", "zz"])
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "poset 'X': cover ('a', 'zz') uses unknown element" in out
    assert "instance file valid" in out and "FAIL" in out


@pytest.mark.parametrize("rows", [1, [1], ["1"], {"0": ["1"]}, [{"0": "1"}]])
def test_restriction_not_a_list_of_lists_is_an_input_error(tmp_path, capsys, rows):
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    doc["sheaves"]["k"]["restrictions"]["a<c"] = rows
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "sheaf 'k' a<c: expected a 1x1 matrix" in out


@pytest.mark.parametrize("command", [["validate"], ["cohomology", "--sheaf", "k"]])
def test_non_commuting_restrictions_are_an_input_error(tmp_path, capsys, command):
    # a square a < b, c < d whose two paths from a to d differ by a factor 2
    doc = {"posets": {"S": {"elements": ["a", "b", "c", "d"],
                            "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}},
           "sheaves": {"k": {"poset": "S", "stalks": {"a": 1, "b": 1, "c": 1, "d": 1},
                             "restrictions": {"a<b": [["1"]], "a<c": [["1"]],
                                              "b<d": [["1"]], "c<d": [["2"]]}}}}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    assert main(command[:1] + [str(path)] + command[1:]) == 1
    out = capsys.readouterr().out
    assert "sheaf 'k': restriction maps are path dependent from a to d" in out
    if command[0] == "validate":
        assert "instance file valid" in out and "FAIL" in out
    else:
        assert out.startswith("input error")


def _add_component(doc):
    doc["morphisms"]["embed"]["components"]["zz"] = [["1"]]


def _rename_component(doc):
    comps = doc["morphisms"]["quot"]["components"]
    comps["A"] = comps.pop("a")


@pytest.mark.parametrize("change,message", [
    (_add_component, "morphism 'embed': component at unknown element 'zz'"),
    (_rename_component, "morphism 'quot': component at unknown element 'A'"),
])
def test_component_at_unknown_element_is_an_input_error(tmp_path, capsys, change, message):
    # the first validated PASS, the second made quot zero at a and failed as
    # "not a short exact sequence"
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    change(doc)
    path = tmp_path / "components.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().out
    assert main(["verify-main", str(path), "--map", "collapse", "--sequence", "S"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("input error") and message in out


def _complex_sequence_doc():
    """A small complexes-kind sequence document: constant sheaf SES on a chain.

    It also has a one-element poset `pt`, a sheaf `Z` and a complex `Z` on
    it, and a map `collapse` onto it, which the sequence does not use.
    """
    from fixtures import chain
    from possheaf.exactla import QQ
    from possheaf.instancefile import morphism_to_dict, poset_to_dict, sheaf_to_dict
    from possheaf.sheafcat import SheafContext

    p = chain(2)
    ctx = SheafContext(p, QQ)
    k = ctx.constant_sheaf()
    I, m = ctx.injective_embed(k)
    C, e = ctx.cokernel(m)
    doc = {
        "posets": {"P": poset_to_dict(p)},
        "sheaves": {"A0": sheaf_to_dict(k, "P"), "B0": sheaf_to_dict(I, "P"),
                    "C0": sheaf_to_dict(C, "P")},
        "morphisms": {"m0": morphism_to_dict(m, "A0", "B0"),
                      "e0": morphism_to_dict(e, "B0", "C0")},
        "complexes": {"A": {"poset": "P", "terms": [{"degree": 0, "object": "A0"}]},
                      "B": {"poset": "P", "terms": [{"degree": 0, "object": "B0"}]},
                      "C": {"poset": "P", "terms": [{"degree": 0, "object": "C0"}]}},
        "sequences": {"S": {"kind": "complexes", "A": "A", "B": "B", "C": "C",
                            "iota": {"0": "m0"}, "pi": {"0": "e0"}}},
    }
    doc["posets"]["pt"] = {"elements": ["*"], "covers": []}
    doc["sheaves"]["Z"] = {"poset": "pt", "stalks": {"*": 1}}
    doc["complexes"]["Z"] = {"poset": "pt", "terms": [{"degree": 0, "object": "Z"}]}
    doc["maps"] = {"collapse": {"source": "P", "target": "pt", "values": {x: "*" for x in p.elements}}}
    return doc


def test_ce_command_on_complex_sequence(tmp_path, capsys):
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(_complex_sequence_doc()))
    assert main(["ce", str(path), "--sequence", "S"]) == 0
    out = capsys.readouterr().out
    assert "nineteen derived sequences exact" in out


def test_validate_names_each_item_by_its_section_in_the_singular(tmp_path):
    path = tmp_path / "all.json"
    path.write_text(json.dumps(_complex_sequence_doc()))
    ok, messages = validate_instance(str(path))
    assert ok
    assert {m.split()[0] for m in messages} == {"poset", "sheaf", "morphism", "map", "complex", "sequence"}
    assert "sheaf A0: valid" in messages and "complex A: valid" in messages


@pytest.mark.parametrize("constructor", ["SheafMorphism", "MonotoneMap", "CochainComplex",
                                         "ChainMap", "SESOfComplexes"])
def test_engine_bug_in_a_loaded_constructor_is_not_an_input_error(tmp_path, monkeypatch, constructor):
    # the loader turns only the errors a constructor declares into an input error
    import possheaf.instancefile as instancefile

    def broken(*args, **kwargs):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(instancefile, constructor, broken)
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(_complex_sequence_doc()))
    with pytest.raises(RuntimeError, match="engine bug"):
        main(["validate", str(path)])


def _set(path, value):
    """A change to a document: the item at `path` (a tuple of keys) set to value."""
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return change


@pytest.mark.parametrize("change,message", [
    (_set(("maps", "collapse", "values"), ["0", "1"]),
     "map 'collapse': values must map element names to element names"),
    (_set(("maps", "collapse", "values", "0"), ["*"]),
     "map 'collapse': values must map element names to element names"),
    (_set(("complexes", "A", "terms"), [{"degree": 0, "object": "A0"}, {"degree": 2, "object": "Z"}]),
     "complex 'A': term at degree 2 is not on poset 'P'"),
    (_set(("complexes", "A", "poset"), "pt"),
     "complex 'A': term at degree 0 is not on poset 'pt'"),
    (_set(("sequences", "S", "C"), "Z"),
     "sequence 'S': A, B and C are not on one poset"),
])
def test_objects_on_the_wrong_poset_are_an_input_error(tmp_path, capsys, change, message):
    doc = _complex_sequence_doc()
    change(doc)
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(doc))
    assert main(["ce", str(path), "--sequence", "S"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("input error") and message in out


@pytest.mark.parametrize("change,message", [
    (_set(("sequences", "S", "iota"), {"x": "m0"}),
     "sequence 'S': iota: degree 'x' is not an integer"),
    (_set(("sequences", "S", "pi"), ["e0"]), "sequences.S.pi: expected an object, got an array"),
    # int() reads each of these keys, but a degree key is str(q) of its integer q
    (_set(("sequences", "S", "iota"), {"0": "m0", "00": "m0"}),
     "sequence 'S': iota: degree '00' is not written as '0'"),
    (_set(("sequences", "S", "iota"), {"+0": "m0"}),
     "sequence 'S': iota: degree '+0' is not written as '0'"),
    (_set(("sequences", "S", "iota"), {" 0 ": "m0"}),
     "sequence 'S': iota: degree ' 0 ' is not written as '0'"),
    (_set(("sequences", "S", "iota"), {"0_0": "m0"}),
     "sequence 'S': iota: degree '0_0' is not written as '0'"),
    (_set(("sequences", "S", "pi"), {"\u0660": "e0"}),
     "sequence 'S': pi: degree '\u0660' is not written as '0'"),
    (_set(("sequences", "S", "iota"), {"1_0": "m0"}),
     "sequence 'S': iota: degree '1_0' is not written as '10'"),
])
def test_bad_chain_map_of_a_sequence_is_an_input_error(tmp_path, capsys, change, message):
    # the first ended in a ValueError, the second in an AttributeError, and
    # each of the rest loaded as a degree (the later of two keys for one won)
    doc = _complex_sequence_doc()
    change(doc)
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(doc))
    assert main(["ce", str(path), "--sequence", "S"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("input error") and message in out


_DEGREE = ("complexes", "A", "terms", 0, "degree")


@pytest.mark.parametrize("command", ["validate", "ce"])
@pytest.mark.parametrize("change,message", [
    (_set(_DEGREE, "x"), "complex 'A': term 0: degree must be an integer, got 'x'"),
    (_set(_DEGREE, None), "complex 'A': term 0: degree must be an integer, got None"),
    (_set(_DEGREE, 1.5), "complex 'A': term 0: degree must be an integer, got 1.5"),
    (_set(_DEGREE, True), "complex 'A': term 0: degree must be an integer, got True"),
    (lambda doc: doc["complexes"]["A"]["terms"][0].pop("degree"),
     "complex 'A': term 0 has no degree"),
])
def test_bad_complex_degree_is_an_input_error(tmp_path, capsys, command, change, message):
    doc = _complex_sequence_doc()
    change(doc)
    path = tmp_path / "degree.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--sequence", "S"] if command == "ce" else [])
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert message in out
    if command != "validate":
        assert out.startswith("input error")


@pytest.mark.parametrize("field", ["q", "fp:7"])
@pytest.mark.parametrize("entry", ["0.5", "1e3"])
def test_decimal_entry_is_a_bad_matrix_entry(tmp_path, capsys, field, entry):
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    doc["sheaves"]["k"]["restrictions"]["a<c"] = [[entry]]
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(doc))
    assert main(["--field", field, "cohomology", str(path), "--sheaf", "k"]) == 1
    out = capsys.readouterr().out
    assert "bad matrix entry" in out and repr(entry) in out
    assert "does not commute" not in out


@pytest.mark.parametrize("command", [["validate"], ["cohomology", "--sheaf", "k"]])
@pytest.mark.parametrize("stalk", [-1, 1.7, True, "2"])
def test_bad_stalk_dimension_is_an_input_error(tmp_path, capsys, command, stalk):
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    doc["sheaves"]["k"]["stalks"]["a"] = stalk
    path = tmp_path / "stalk.json"
    path.write_text(json.dumps(doc))
    assert main(command[:1] + [str(path)] + command[1:]) == 1
    out = capsys.readouterr().out
    assert "sheaf 'k': stalk at 'a' must be an integer >= 0, got %r" % (stalk,) in out
    if command[0] != "validate":
        assert out.startswith("input error")


def test_negative_max_degree_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resolve", PSEUDOCIRCLE, "--sheaf", "k", "--max-degree", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid degree '-5'" in captured.err
    assert captured.out == ""


def test_max_degree_is_a_usage_error_where_no_command_reads_it(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["leray", TORUS, "--map", "pr1", "--sheaf", "k", "--max-degree", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --max-degree 0" in captured.err
    assert captured.out == ""


def test_max_degree_is_not_a_global_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--max-degree", "0", "resolve", PSEUDOCIRCLE, "--sheaf", "k"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_max_degree_reaches_the_commands_that_read_it(capsys):
    assert main(["resolve", PSEUDOCIRCLE, "--sheaf", "k", "--max-degree", "0"]) == 0
    assert "resolution exact" in capsys.readouterr().out


def _collapsed_forge(tmp_path, capsys):
    """Forge seed 2 plus a map collapsing its poset to a point, as a file."""
    assert main(["forge", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["posets"]["pt"] = {"elements": ["*"], "covers": []}
    doc["maps"] = {"collapse": {"source": "P", "target": "pt",
                                "values": {x: "*" for x in doc["posets"]["P"]["elements"]}}}
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_failed_precondition_is_a_named_fail(tmp_path, capsys):
    # a forged sequence pushed to a point: its middle sheaf is not acyclic on
    # every open, so verify-cz stops at its precondition
    path = _collapsed_forge(tmp_path, capsys)
    assert main(["verify-cz", path, "--map", "collapse", "--sequence", "S"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("precondition failed") and "FAIL middle sheaf is not acyclic" in out


def test_verify_cz_checks_its_precondition_first(tmp_path, capsys, monkeypatch):
    # the coboundary family is built only after the middle sheaf passes
    import possheaf.cli as cli
    import possheaf.gross as gross

    def unwanted(*args, **kwargs):
        raise AssertionError("delta_morphism ran before the precondition check")

    path = _collapsed_forge(tmp_path, capsys)
    monkeypatch.setattr(cli, "delta_morphism", unwanted)
    monkeypatch.setattr(gross, "delta_morphism", unwanted)
    assert main(["verify-cz", path, "--map", "collapse", "--sequence", "S"]) == 1
    assert capsys.readouterr().out.startswith("precondition failed")


def test_engine_bug_stays_a_traceback(monkeypatch):
    import possheaf.cli as cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("engine bug")

    monkeypatch.setattr(cli, "cohomology_on_opens", broken)
    with pytest.raises(ZeroDivisionError):
        main(["cohomology", PSEUDOCIRCLE, "--sheaf", "k"])


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["cohomology", "--sheaf", "k"],
    ["verify-main", "--map", "collapse", "--sequence", "S"],
])
def test_missing_instance_file_is_a_named_fail(tmp_path, capsys, argv):
    missing = str(tmp_path / "absent.json")
    assert main(argv[:1] + [missing] + argv[1:]) == 1
    out = capsys.readouterr().out
    assert "%s: cannot read: No such file or directory" % missing in out
    # validate reports a file it cannot load on its own FAIL line
    if argv[0] != "validate":
        assert out.startswith("input error")


@pytest.mark.parametrize("subset,message", [
    ("c,zz", "unknown element 'zz'"),
    ("d,yy,c,zz,xx", "unknown element 'yy'"),
    ("c,a,c", "['a', 'c'] is not an up-set"),
    ("a", "['a'] is not an up-set"),
])
def test_bad_open_set_is_an_input_error(capsys, subset, message):
    assert main(["cohomology", PSEUDOCIRCLE, "--sheaf", "k", "--open", subset]) == 1
    out = capsys.readouterr().out
    assert out.startswith("input error") and message in out


@pytest.mark.parametrize("argv,message", [
    (["forge", "--max-elements", "0"], "invalid element bound '0'"),
    (["forge", "--max-elements", "1"], "invalid element bound '1'"),
    (["forge", "--kind", "banana"], "invalid choice: 'banana'"),
    (["selftest", "--count", "-2"], "invalid count '-2'"),
    (["selftest", "--count", "0"], "invalid count '0'"),
])
def test_bad_generator_argument_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def _pseudocircle_with_pt_objects(tmp_path):
    """The pseudocircle with a map idpt: pt -> pt and a sheaf P on pt."""
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    doc["maps"]["idpt"] = {"source": "pt", "target": "pt", "values": {"pt": "pt"}}
    doc["sheaves"]["P"] = {"poset": "pt", "stalks": {"pt": 1}}
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv,message", [
    (["leray", "--map", "idpt", "--sheaf", "k"], "sheaf 'k' is not on the source poset of map 'idpt'"),
    (["gss", "--map", "idpt", "--sheaf", "k"], "sheaf 'k' is not on the source poset of map 'idpt'"),
    (["delta", "--map", "idpt", "--sequence", "S"],
     "sequence 'S' is not on the source poset of map 'idpt'"),
    (["verify-main", "--map", "idpt", "--sequence", "S"],
     "sequence 'S' is not on the source poset of map 'idpt'"),
    (["verify-cz", "--map", "idpt", "--sequence", "S"],
     "sequence 'S' is not on the source poset of map 'idpt'"),
    (["leray", "--map", "collapse", "--sheaf", "P"],
     "sheaf 'P' is not on the source poset of map 'collapse'"),
    (["gss", "--map", "collapse", "--sheaf", "P"],
     "sheaf 'P' is not on the source poset of map 'collapse'"),
])
def test_map_from_another_poset_is_an_input_error(tmp_path, capsys, argv, message):
    # before, the idpt cases printed the circle's cohomology as a point's and
    # passed, and the collapse cases ended in an IndexError
    assert main(argv[:1] + [_pseudocircle_with_pt_objects(tmp_path)] + argv[1:]) == 1
    out = capsys.readouterr().out
    assert out.startswith("input error") and message in out


@pytest.mark.parametrize("change,message", [
    (None, "document: expected an object, got an array"),
    (_set(("posets",), [1]), "posets: expected an object, got an array"),
    (_set(("sheaves",), "x"), "sheaves: expected an object, got a string"),
    (_set(("maps",), 0), "maps: expected an object, got a number"),   # it read as no maps
    (_set(("sheaves", "k", "stalks"), [1]), "sheaves.k.stalks: expected an object, got an array"),
    (_set(("sheaves", "k", "restrictions"), [1]),
     "sheaves.k.restrictions: expected an object, got an array"),
    (_set(("posets", "X", "elements"), 5), "posets.X.elements: expected an array, got a number"),
    (_set(("posets", "X", "elements"), [["a"]]),
     "posets.X.elements[0]: expected a string, got an array"),
    (_set(("morphisms", "embed"), 3), "morphisms.embed: expected an object, got a number"),
])
@pytest.mark.parametrize("command", [["validate"], ["cohomology", "--sheaf", "k"]])
def test_document_of_the_wrong_shape_is_an_input_error(tmp_path, capsys, change, message, command):
    # each of these ended in an AttributeError or TypeError before
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    if change is None:
        doc = []
    else:
        change(doc)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert main(command[:1] + [str(path)] + command[1:]) == 1
    out = capsys.readouterr().out
    assert message in out
    if command[0] != "validate":
        assert out.startswith("input error")


def _value_paths(doc, path=()):
    """The key path of every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


_JUNK = st.sampled_from([None, True, 0, -1, 2, 1.5, "", "x", "1/0", [], [1], ["a"], [[1]], {},
                         {"a": 1}])


@pytest.fixture(scope="module")
def mutation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "m.json"


def _rename_in_text(doc, path, new):
    """json.dumps(doc) with the key at `path` renamed to new in the text, so
    that new may repeat a sibling's key, which json.dumps cannot write.  The
    text names its keys in the order `_value_paths` walks them."""
    keyed = [p for p in _value_paths(doc) if isinstance(p[-1], str)]
    text = json.dumps(doc)
    at = list(re.finditer(r'"([^"\\]*)": ', text))[keyed.index(path)]
    assert at.group(1) == path[-1]
    return text[:at.start(1)] + new + text[at.end(1):]


def _matrices(doc):
    """(path, matrix) of every nonempty restriction or component matrix in doc."""
    for path in _value_paths(doc):
        m = doc
        for key in path:
            m = m[key]
        if len(path) > 1 and path[-2] in ("restrictions", "components") and m and m[0]:
            yield path, m


def _changed_matrix(doc, data):
    """(text, how, path): doc as JSON text changed at path so that it still
    loads: one matrix with one entry replaced by another scalar ("entry") or
    two unequal rows swapped ("rows"), or one morphism with every component
    multiplied by one rational other than 0 and 1 ("scale"), which keeps it
    a morphism and keeps every sequence through it exact."""
    found = list(_matrices(doc))
    swappable = [(path, m) for path, m in found if any(row != m[0] for row in m)]
    how = data.draw(st.sampled_from(["rows"] * bool(swappable) + ["scale", "entry"]))
    if how == "scale":
        path = ("morphisms", data.draw(st.sampled_from(sorted(doc["morphisms"]))))
        c = data.draw(st.fractions(-9, 9, max_denominator=9).filter(lambda c: c not in (0, 1)))
        for m in doc["morphisms"][path[1]]["components"].values():
            m[:] = [[str(Fraction(x) * c) for x in row] for row in m]
        return json.dumps(doc), how, path
    path, m = data.draw(st.sampled_from(swappable if how == "rows" else found))
    if how == "entry":
        i = data.draw(st.integers(0, len(m) - 1))
        j = data.draw(st.integers(0, len(m[i]) - 1))
        m[i][j] = data.draw(st.sampled_from([x for x in ["0", "1", "-1", "2", "1/2"] if x != m[i][j]]))
    else:
        i, j = data.draw(st.sampled_from([(i, j) for i in range(len(m)) for j in range(i)
                                          if m[i] != m[j]]))
        m[i], m[j] = m[j], m[i]
    return json.dumps(doc), how, path


def _mutated(doc, data):
    """(text, how, path): doc as JSON text changed at path.

    One draw in four changes a matrix or morphism so that the document
    still loads (`_changed_matrix`).  The others replace the value at path
    by junk, delete its key, or rename its key, to another key of the
    document (perhaps a sibling's) or with an "s" added."""
    if data.draw(st.integers(0, 3)) == 0:
        return _changed_matrix(doc, data)
    path = data.draw(st.sampled_from(list(_value_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    how = data.draw(st.sampled_from(["junk", "delete", "rename"])) if isinstance(parent, dict) else "junk"
    if how == "rename":
        names = sorted({p[-1] for p in _value_paths(doc) if isinstance(p[-1], str)} - {path[-1]})
        text = _rename_in_text(doc, path, data.draw(st.sampled_from(names + [path[-1] + "s"])))
    else:
        if how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JUNK)
        text = json.dumps(doc)
    return text, how, path


_SEQUENCE_ARGS = ["--map", "collapse", "--sequence", "S"]
_SHEAF_OR_SEQUENCE = [("gss", ["--sheaf", "k"]), ("resolve", ["--sheaf", "k"]),
                      ("delta", _SEQUENCE_ARGS), ("verify-main", _SEQUENCE_ARGS),
                      ("verify-cz", _SEQUENCE_ARGS)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_mutated_document_never_ends_in_a_traceback(mutation_file, data):
    # one mutation of the pseudocircle; a document that validates is also run
    # through cohomology, leray and one of gss, resolve, delta, verify-main
    # and verify-cz, and a renamed key that does not validate is an input
    # error to every command
    with open(PSEUDOCIRCLE) as fh:
        doc = json.load(fh)
    text, how, path = _mutated(doc, data)
    mutation_file.write_text(text)
    if main(["validate", str(mutation_file)]) == 0:
        # an object's own name may change and still load, when nothing refers to it
        assert how != "rename" or len(path) == 2
        assert main(["cohomology", str(mutation_file), "--sheaf", "k"]) in (0, 1)
        assert main(["leray", str(mutation_file), "--map", "collapse", "--sheaf", "k"]) in (0, 1)
        command, args = data.draw(st.sampled_from(_SHEAF_OR_SEQUENCE))
        assert main([command, str(mutation_file)] + args) in (0, 1)
    elif how == "rename":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["cohomology", str(mutation_file), "--sheaf", "k"]) == 1
        assert out.getvalue().startswith("input error")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mutated_complex_sequence_never_ends_in_a_traceback(mutation_file, data):
    # one mutation of the complexes-kind sequence document; one that validates
    # is also run through ce
    text, _, _ = _mutated(_complex_sequence_doc(), data)
    mutation_file.write_text(text)
    if main(["validate", str(mutation_file)]) == 0:
        assert main(["ce", str(mutation_file), "--sequence", "S"]) in (0, 1)


def _repeat_before(text, anchor, repeated):
    """text with `repeated` (a key and its value, then a comma) written just
    before the first `anchor`; json.dumps cannot write a repeated key."""
    at = text.index(anchor)
    return text[:at] + repeated + text[at:]


@pytest.mark.parametrize("command", [["validate"], ["cohomology", "--sheaf", "k"]])
@pytest.mark.parametrize("anchor,repeated,key", [
    ('"field"', '"field": "fp:2", ', "field"),
    ('"a<c"', '"a<c": [["2"]], ', "sheaves.k.restrictions.a<c"),
    ('"elements"', '"elements": ["a"], ', "posets.X.elements"),
])
def test_a_repeated_key_is_an_input_error(tmp_path, capsys, command, anchor, repeated, key):
    # json keeps the last of two equal keys: before, `"field": "q", "field":
    # "fp:2"` loaded silently and the run went on over GF(2)
    with open(PSEUDOCIRCLE) as fh:
        text = _repeat_before(fh.read().replace("\n", " "), anchor, repeated)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main(command + [str(path)]) == 1
    out = capsys.readouterr().out
    assert "%s: duplicate key %s" % (path, key) in out
    if command != ["validate"]:
        assert out.startswith("input error")


def test_a_repeated_key_in_an_array_item_is_named_by_its_index(tmp_path, capsys):
    text = json.dumps(_complex_sequence_doc())
    path = tmp_path / "repeated.json"
    path.write_text(_repeat_before(text, '"object": "A0"', '"object": "B0", '))
    assert main(["ce", str(path), "--sequence", "S"]) == 1
    assert "duplicate key complexes.A.terms[0].object" in capsys.readouterr().out


def _rename(path, new):
    """A change to a document: the key at `path` (a tuple of keys) renamed to new."""
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[new] = doc.pop(path[-1])
    return change


@pytest.mark.parametrize("source,change,key,command", [
    ("pseudocircle", _set(("fields",), "fp:2"), "fields", ["cohomology", "--sheaf", "k"]),
    ("pseudocircle", _set(("sheaves", "k", "restriction"), {}), "sheaves.k.restriction",
     ["cohomology", "--sheaf", "k"]),
    ("pseudocircle", _set(("sequences", "S", "extra"), 1), "sequences.S.extra",
     ["delta", "--sequence", "S", "--map", "collapse"]),
    ("pseudocircle", _set(("sequences", "S", "A"), "k"), "sequences.S.A",
     ["delta", "--sequence", "S", "--map", "collapse"]),
    ("pseudocircle", _rename(("maps", "collapse", "values"), "valuez"), "maps.collapse.valuez",
     ["leray", "--map", "collapse", "--sheaf", "k"]),
    ("complexes", _set(("complexes", "A", "terms", 0, "diff"), "m0"), "complexes.A.terms[0].diff",
     ["ce", "--sequence", "S"]),
])
def test_an_unknown_key_is_an_input_error(tmp_path, capsys, source, change, key, command):
    # each of these loaded before: the unknown key was ignored, so a misspelt
    # optional key fell back to its default, and `valuez` read as no values
    if source == "pseudocircle":
        with open(PSEUDOCIRCLE) as fh:
            doc = json.load(fh)
    else:
        doc = _complex_sequence_doc()
    change(doc)
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], command[:1] + [str(path)] + command[1:]):
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "unknown key %s" % key in out and "total" not in out
    assert out.startswith("input error")


def test_documents_the_writers_emit_still_load(tmp_path, capsys):
    # equal keys in different objects are no repeat: each forged document
    # names "poset" in every sheaf, "source" in every morphism
    path = tmp_path / "doc.json"
    for seed in range(4):
        assert main(["forge", "--seed", str(seed), "--kind", "ses"]) == 0
        path.write_text(capsys.readouterr().out)
        Instance.load(str(path))
    with open(os.path.join(HERE, "..", "perfbench", "reference", "forged-ce-q.json")) as fh:
        pool = json.load(fh)["pool"]
    assert len(pool) == 200
    for entry in pool:
        path.write_text(json.dumps(entry["doc"], indent=1))
        Instance.load(str(path))
