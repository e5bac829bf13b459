"""The CI workflow runs the Tier-1 command of ROADMAP.md, word for word, under a time
limit, on the oldest Python that pyproject.toml allows and on 3.11."""

import os
import re

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _workflow():
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        return yaml.safe_load(fh)


def test_workflow_runs_the_tier1_command():
    with open(os.path.join(ROOT, "ROADMAP.md")) as fh:
        command = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", fh.read(), re.M).group(1)
    doc = _workflow()
    triggers = doc.get("on", doc.get(True))   # YAML 1.1 reads a bare `on` as true
    assert set(triggers) == {"push", "pull_request"}
    steps = doc["jobs"]["tier1"]["steps"]
    setup = [s for s in steps if s.get("uses", "").startswith("actions/setup-python")]
    assert setup and setup[0]["with"]["python-version"] == "${{ matrix.python-version }}"
    runs = [s["run"] for s in steps if "run" in s]
    assert runs == ["pip install pytest hypothesis sympy pyyaml", command]


def test_tier1_runs_the_oldest_allowed_python_and_3_11():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        oldest = re.search(r'^requires-python = ">=([0-9.]+)"', fh.read(), re.M).group(1)
    versions = _workflow()["jobs"]["tier1"]["strategy"]["matrix"]["python-version"]
    assert versions == [oldest, "3.11"]


def test_tier1_job_has_a_positive_time_limit():
    limit = _workflow()["jobs"]["tier1"].get("timeout-minutes")
    assert type(limit) is int and limit > 0
