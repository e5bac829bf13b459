"""possheaf benchmark: one workload, closed loop, fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One client runs one CLI call ("op") at a time: each pass starts a
fresh worker process (`worker.py`) that imports `possheaf.cli` and calls
`possheaf.cli.main(argv)` once per op of the workload.  Passes repeat until
the next one would end after S seconds.  Every op's report is checked; the
last stdout line is the JSON result.  With `--trace 1` the passes alternate
untraced and traced workers, the tracer's call counts are first checked
against cProfile, and the per-layer figures are printed instead.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")
DEADLINE_S = 170            # the whole run must end within 180 s
SETUP_SAMPLES = 5           # setup-only workers per run, besides one per pass
FORGED_OPS = 40             # forged-ce-q ops per pass, one per stratum
# The result line carries these, the end-to-end metrics of BENCHMARK.json.
# The others are printed only: op_p50_s equals wall_s on the one-op torus
# passes, op_p90_s is undefined there, and fail_frac is 0 when all is well
# (the result counts failures).
GATED_E2E = ("wall_s", "setup_s", "peak_rss_mb")

TORUS_OPS = {
    "torus-leray-q": ["--format", "report", "leray", "instances/torus.json",
                      "--map", "pr1", "--sheaf", "k"],
    "torus-delta-fp": ["--field", "fp:32003", "--format", "report", "verify-main",
                       "instances/torus.json", "--map", "pr1", "--sequence", "S"],
}
WORKLOADS = list(TORUS_OPS) + ["forged-ce-q"]

# Short ops whose traced call counts must equal cProfile's, covering the
# ce, gss, leray and verify-main paths; a forged file is appended.
COMPLETENESS_OPS = [
    ["--format", "report", "gss", "instances/pseudocircle.json", "--sheaf", "k"],
    ["--format", "report", "leray", "instances/pseudocircle.json", "--map", "collapse",
     "--sheaf", "k"],
    ["--format", "report", "verify-main", "instances/pseudocircle.json", "--map", "collapse",
     "--sequence", "S"],
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(name):
    with open(os.path.join(REFERENCE, name)) as fh:
        return fh.read()


def forged_reference():
    return json.loads(load_reference("forged-ce-q.json"))


def forged_path(k):
    return os.path.relpath(os.path.join(WORK, "forged-%d.json" % k), ROOT)


def forged_op(k):
    return ["--format", "report", "ce", forged_path(k), "--sequence", "S"]


def import_src():
    """Let this process import possheaf from the checkout's `src/`."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def write_forged(pool, keys):
    """Write the frozen pool entries `keys` as instance files under .work."""
    os.makedirs(WORK, exist_ok=True)
    for k in keys:
        with open(os.path.join(ROOT, forged_path(k)), "w") as fh:
            json.dump(pool[k]["doc"], fh, indent=1)
            fh.write("\n")


def forged_batch(seed, strata):
    """One pool entry from each cost stratum, in a seeded order."""
    rng = random.Random("forged-ce-q:%d" % seed)
    batch = [rng.choice(stratum) for stratum in strata]
    rng.shuffle(batch)
    return batch


# -- workers -------------------------------------------------------------------

class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        left = self.end - time.perf_counter()
        if left <= 0:
            raise TimeoutError("out of time for this run")
        return left


class WorkerFailed(Exception):
    """A worker crashed, overran the run's deadline, or printed no result."""


def run_worker(ops, mode, deadline):
    """Run ops in a fresh worker; returns its result with `setup_s` added."""
    job = json.dumps({"src": SRC, "ops": ops, "mode": mode})
    env = dict(os.environ, PYTHONPATH=SRC)
    t_start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=deadline.left(), check=False)
    except (TimeoutError, subprocess.TimeoutExpired) as exc:
        raise WorkerFailed("out of time: %s" % exc) from exc
    if proc.returncode != 0:
        raise WorkerFailed("worker exited with code %d" % proc.returncode)
    try:
        result = json.loads(proc.stdout)
    except ValueError as exc:
        raise WorkerFailed("worker printed no result") from exc
    result["setup_s"] = result["t_ready"] - t_start
    if result["ops"]:
        result["wall_s"] = result["ops"][-1]["t1"] - result["ops"][0]["t0"]
    return result


def op_failure(op, expected_digest):
    """Why an op failed, or None.  `expected_digest` is the reference report's."""
    if op["err"]:
        return "raised: " + op["err"].strip().splitlines()[-1]
    if op["rc"] != 0:
        return "exit code %r" % op["rc"]
    try:
        doc = json.loads(op["out"])
    except ValueError:
        return "report is not valid JSON"
    bad = [c["name"] for c in doc.get("checks", []) if not c.get("ok")]
    if not doc.get("ok") or bad:
        return "FAIL: %s" % (bad[0] if bad else "report not ok")
    if sha256(op["out"]) != expected_digest:
        return "report differs from the reference"
    return None


# -- measurement ---------------------------------------------------------------

def speed_probe():
    """Seconds for a fixed pure-Python Fraction loop (machine speed, not gated)."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, 30001):
        x = Fraction(k, k + 1) * Fraction(k + 3, 2 * k + 1) - Fraction(1, k)
        acc += x.numerator % 7
    return time.perf_counter() - t0


def header(workload, seed, seconds, trace):
    import_src()
    from possheaf import exactla

    commit = "unknown"
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10,
                                   check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    pkg = os.path.join(SRC, "possheaf")
    lines, digest = 0, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    backend = exactla._mpq
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": sys.version.split()[0],
            "rational_backend": "%s.%s" % (backend.__module__, backend.__name__),
            "nproc": os.cpu_count()}


def build_ops(workload, seed):
    """(ops, expected report digests) of one pass of the workload."""
    if workload in TORUS_OPS:
        return [TORUS_OPS[workload]], [sha256(load_reference(workload + ".json"))]
    ref = forged_reference()
    batch = forged_batch(seed, ref["strata"])
    write_forged(ref["pool"], batch)
    return [forged_op(k) for k in batch], [ref["pool"][k]["report"] for k in batch]


def attempt(out, ops, mode, deadline):
    """run_worker; a failed worker counts as a failure of each of its ops
    (or of one op, for a set-up worker) and gives None."""
    try:
        return run_worker(ops, mode, deadline)
    except WorkerFailed as exc:
        lines = ["%s: %s" % (" ".join(argv), exc) for argv in ops] or ["set-up: %s" % exc]
        out["failures"] += lines
        out["attempted"] += len(lines)
        return None


def completeness_check(out, deadline):
    """Traced call counts must equal cProfile's; returns mismatch lines and
    the number of call counts compared."""
    ref = forged_reference()
    k = ref["strata"][len(ref["strata"]) // 2][0]
    write_forged(ref["pool"], [k])
    ops = COMPLETENESS_OPS + [forged_op(k)]
    traced = attempt(out, ops, "trace", deadline)
    profiled = traced and attempt(out, ops, "profile", deadline)
    if not profiled:
        return [], 0
    bad = ["missing target " + m for m in traced["missing"]]
    for prefix, ncalls in profiled["calls"].items():
        calls = traced["layers"][prefix + ".calls"]
        if calls != ncalls:
            bad.append("%s: traced %d calls, cProfile %d" % (prefix, calls, ncalls))
    for op in traced["ops"] + profiled["ops"]:
        if op["err"] or op["rc"] != 0:
            bad.append("completeness op failed: %s" % (op["err"] or op["rc"]))
    return bad, len(profiled["calls"])


def measure(workload, seed, seconds, trace):
    """Run one workload; returns raw samples and failures."""
    deadline = Deadline(DEADLINE_S)
    if not os.path.isfile(os.path.join(SRC, "possheaf", "cli.py")):
        raise SystemExit("no possheaf sources under %s" % SRC)
    out = {"header": header(workload, seed, seconds, trace), "probe_s": [speed_probe()],
           "passes": [], "traced": [], "setup_s": [], "failures": [], "attempted": 0,
           "incomplete": [], "profile_calls": 0}
    ops, expected = build_ops(workload, seed)
    if trace:
        out["incomplete"], out["profile_calls"] = completeness_check(out, deadline)
    attempt(out, [], "plain", deadline)                # compiles bytecode; not timed
    for _ in range(SETUP_SAMPLES):
        res = attempt(out, [], "plain", deadline)
        if res:
            out["setup_s"].append(res["setup_s"])
    modes = [("plain", out["passes"])] + ([("trace", out["traced"])] if trace else [])
    t_begin = time.perf_counter()
    crashed = False
    while not crashed:
        for mode, kept in modes:
            res = attempt(out, ops, mode, deadline)
            crashed = res is None
            if crashed:
                break
            kept.append(res)
            out["setup_s"].append(res["setup_s"])
            out["attempted"] += len(ops)
            for argv, op, digest in zip(ops, res["ops"], expected):
                why = op_failure(op, digest)
                if why:
                    out["failures"].append("%s: %s" % (" ".join(argv), why))
        spent = time.perf_counter() - t_begin
        if spent * (1 + 1 / max(1, len(out["passes"]))) > seconds:
            break
    out["probe_s"].append(speed_probe())
    return out


def op_p90(lats):
    """90th-percentile latency, or None with fewer than ten samples beyond it."""
    if len(lats) < 100:
        return None
    return statistics.quantiles(lats, n=10)[-1]


def e2e_metrics(out):
    """End-to-end figures as (value, unit, samples); GATED_E2E are in the result."""
    walls = [p["wall_s"] for p in out["passes"]]
    lats = [op["t1"] - op["t0"] for p in out["passes"] for op in p["ops"]]
    rss = [p["rss_kb"] / 1024 for p in out["passes"]]
    return {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "op_p50_s": (statistics.median(lats), "s", len(lats)),
        "op_p90_s": (op_p90(lats), "s", len(lats)),
        "setup_s": (statistics.median(out["setup_s"]), "s", len(out["setup_s"])),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
        "fail_frac": (len(out["failures"]) / out["attempted"], "ratio", out["attempted"]),
    }


def layer_metrics(out):
    traced = [t["layers"] for t in out["traced"]]
    metrics = {}
    for name in traced[0]:
        unit = ("s" if name.endswith("_s") else "count" if name.endswith((".calls", "cells"))
                else "ratio")
        metrics[name] = (statistics.median(t[name] for t in traced), unit, len(traced))
    walls_plain = statistics.median(p["wall_s"] for p in out["passes"])
    walls_traced = statistics.median(t["wall_s"] for t in out["traced"])
    metrics["trace.overhead_frac"] = (walls_traced / walls_plain - 1, "ratio", len(traced))
    return metrics


def print_metrics(metrics):
    for name, (value, unit, n) in metrics.items():
        if value is None:
            print("%-34s undefined: fewer than ten of n=%d samples beyond it" % (name, n))
        else:
            print("%-34s %14.6g %-6s n=%d" % (name, value, unit, n))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    hdr = dict(out["header"], probe_start_s=out["probe_s"][0], probe_end_s=out["probe_s"][1])
    print("header " + json.dumps(hdr, sort_keys=True))
    for line in out["failures"] + out["incomplete"]:
        print("FAIL " + line)
    if args.trace:
        print("tracer completeness: %d call counts compared with cProfile, %d mismatched"
              % (out["profile_calls"], len(out["incomplete"])))
    metrics = {}            # no figures when a worker failed before the first pass
    if out["passes"] and (out["traced"] or not args.trace):
        metrics = layer_metrics(out) if args.trace else e2e_metrics(out)
        print_metrics(metrics)
    if not args.trace:
        metrics = {name: metrics[name] for name in GATED_E2E if name in metrics}
    result = {"correct": not out["failures"] and not out["incomplete"],
              "attempted": out["attempted"], "failed": len(out["failures"]),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
