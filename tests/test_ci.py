"""The CI workflow installs the `test` extra of pyproject.toml, package for package,
and runs the Tier-1 command of ROADMAP.md, word for word, under a time limit, on the
oldest Python that pyproject.toml allows and on 3.11, and then
`selftest --seed 7 --count 25`, which exits 1 unless every generated instance passes,
over the rationals and again over fp:32003.
A second job runs one short traced benchmark run per workload of BENCHMARK.json, and
of forged-ce-q, and fails unless the run's result line says it is correct.  forged-ce-q is not gated
by BENCHMARK.json, but it is the only workload that runs many ops in one worker, so
state kept across ops is shared there, and its outputs are checked against recorded
hashes.

pyproject.toml turns every warning into an error under pytest, so a warning
fails Tier-1 instead of scrolling past."""

import json
import os
import re
import subprocess
import sys

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _workflow():
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        return yaml.safe_load(fh)


def _test_extra():
    """The packages of pyproject.toml's `test` extra, in order.  A TOML array of
    plain strings reads as JSON, and tomllib needs Python 3.11."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        return json.loads(re.search(r"^test = (\[.*\])$", fh.read(), re.M).group(1))


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
    cli = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m possheaf.cli "
    selftests = [cli + "selftest --seed 7 --count 25",
                 cli + "--field fp:32003 selftest --seed 7 --count 25"]
    assert runs == ["pip install " + " ".join(_test_extra()), command] + selftests


def test_tier1_runs_the_oldest_allowed_python_and_3_11():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        oldest = re.search(r'^requires-python = ">=([0-9.]+)"', fh.read(), re.M).group(1)
    versions = _workflow()["jobs"]["tier1"]["strategy"]["matrix"]["python-version"]
    assert versions == [oldest, "3.11"]


def test_tier1_job_has_a_positive_time_limit():
    limit = _workflow()["jobs"]["tier1"].get("timeout-minutes")
    assert type(limit) is int and limit > 0


def _benchmark_job():
    return _workflow()["jobs"]["benchmark-correctness"]


def test_benchmark_job_runs_each_workload_traced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]] + ["forged-ce-q"]
    job = _benchmark_job()
    assert job["strategy"]["matrix"]["workload"] == workloads
    limit = job.get("timeout-minutes")
    assert type(limit) is int and limit > 0
    runs = [s["run"] for s in job["steps"] if "run" in s]
    assert runs[0] == ("python3 perfbench/run.py --workload ${{ matrix.workload }} "
                       "--seconds 3 --trace 1 | tee run.log")
    # a pipe fails the step only under pipefail, which `shell: bash` sets
    assert all(s.get("shell") == "bash" for s in job["steps"] if "run" in s)


@pytest.mark.parametrize("last,fails", [
    ({"correct": True, "attempted": 4, "failed": 0}, False),
    ({"correct": False, "attempted": 4, "failed": 1}, True),
    ({"attempted": 0}, True),
])
def test_benchmark_job_fails_unless_the_result_is_correct(tmp_path, last, fails):
    check = [s["run"] for s in _benchmark_job()["steps"] if "run" in s][1]
    (tmp_path / "run.log").write_text("header {}\n" + json.dumps(last) + "\n")
    done = subprocess.run(["bash", "-eo", "pipefail", "-c", check.replace("python3 ", '"%s" ' % sys.executable)],
                          cwd=tmp_path)
    assert (done.returncode != 0) == fails


def test_pytest_turns_warnings_into_errors(pytestconfig):
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        found = re.search(r"^\[tool\.pytest\.ini_options\]\nfilterwarnings = (\[.*\])$",
                          fh.read(), re.M)
    assert found and json.loads(found.group(1)) == ["error"]
    assert pytestconfig.getini("filterwarnings") == ["error"]
