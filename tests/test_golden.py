"""Byte-for-byte comparison of CLI output against recorded golden files.

The goldens in tests/golden/ pin every PASS/FAIL line, table, recorded
sign and --format report document of the pseudocircle and torus commands
below, so a refactor that changes any of them fails here.  The torus runs
are the ones whose filtration pieces span more than two columns.  The
`selftest` case pins the forged Cartan-Eilenberg triples' checks as the CLI
reports them, and the `ce` cases the Cartan-Eilenberg triple of a
sequence of complexes and of a zero one, which has no rows, both read from
the frozen document `ce-sequences.input.json`, the one input file here.
Every other file is the stdout of `possheaf <argv>`; no output names the
instance file's path.  The `forge` cases pin the generators' sheaves and
morphisms; `forge` writes the same document in either format, so they are
recorded once, as text.
"""

import contextlib
import io
import os

import pytest

from possheaf.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
PSEUDOCIRCLE = os.path.join(HERE, "..", "instances", "pseudocircle.json")
TORUS = os.path.join(HERE, "..", "instances", "torus.json")
CE_SEQUENCES = os.path.join(GOLDEN, "ce-sequences.input.json")

COMMANDS = {
    "cohomology": ["cohomology", PSEUDOCIRCLE, "--sheaf", "k"],
    "cohomology-open": ["cohomology", PSEUDOCIRCLE, "--sheaf", "k", "--open", "c,d"],
    "torus-cohomology": ["cohomology", TORUS, "--sheaf", "k"],
    "resolve": ["resolve", PSEUDOCIRCLE, "--sheaf", "k"],
    "gss": ["gss", PSEUDOCIRCLE, "--sheaf", "k"],
    "leray": ["leray", PSEUDOCIRCLE, "--map", "collapse", "--sheaf", "k"],
    "delta": ["delta", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"],
    "verify-main": ["verify-main", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"],
    "verify-main-fp": ["--field", "fp:32003", "verify-main", PSEUDOCIRCLE,
                       "--map", "collapse", "--sequence", "S"],
    "verify-cz": ["verify-cz", PSEUDOCIRCLE, "--map", "collapse", "--sequence", "S"],
    "torus-leray": ["leray", TORUS, "--map", "pr1", "--sheaf", "k"],
    "torus-gss": ["gss", TORUS, "--map", "pr1", "--sheaf", "k"],
    "torus-verify-main-fp": ["--field", "fp:32003", "verify-main", TORUS,
                             "--map", "pr1", "--sequence", "S"],
    "selftest": ["selftest", "--seed", "3", "--count", "10"],
    "ce": ["ce", CE_SEQUENCES, "--sequence", "S"],
    "ce-zero": ["ce", CE_SEQUENCES, "--sequence", "O"],
}
FORGE = {
    "forge-ses": ["forge", "--seed", "3", "--kind", "ses"],
    "forge-sheaf": ["forge", "--seed", "5", "--kind", "sheaf"],
    "forge-ses-fp": ["--field", "fp:32003", "forge", "--seed", "4", "--kind", "ses"],
}
FORMATS = {"text": [], "report": ["--format", "report"]}
CASES = [(name, fmt) for name in COMMANDS for fmt in FORMATS] + [(name, "text") for name in FORGE]


def golden_path(name, fmt):
    return os.path.join(GOLDEN, "%s.%s" % (name, "json" if fmt == "report" else "txt"))


def run_cli(name, fmt):
    """(exit code, stdout) of one golden command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(FORMATS[fmt] + (COMMANDS.get(name) or FORGE[name]))
    return rc, buf.getvalue()


@pytest.mark.parametrize("name,fmt", CASES, ids=["%s-%s" % c for c in CASES])
def test_output_matches_golden(name, fmt):
    rc, out = run_cli(name, fmt)
    with open(golden_path(name, fmt)) as fh:
        expected = fh.read()
    assert rc == 0
    assert out == expected
