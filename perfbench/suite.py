"""Every workload in one command: interleaved rounds, pooled samples, one table.

    python3 perfbench/suite.py [--rounds 3] [--seed 0] [--out FILE]

Each run measures for the `run_seconds` of BENCHMARK.json.  Round r runs
each workload once untraced with seed+r, rotating which goes first so that
drift in machine speed spreads over all workloads.  Then each workload runs
once traced.  Prints, per workload, the end-to-end metrics of the pooled
untraced samples with units and sample counts, the run-to-run spread of
each gated metric, then the per-layer figures of the traced run.  `--out`
writes the same as JSON, with every run's figures.
"""

import argparse
import json
import os
import shutil
import statistics

import run


def pooled(outs):
    """The untraced runs of one workload merged into one, for e2e_metrics."""
    merged = {"passes": [], "setup_s": [], "failures": [], "attempted": 0}
    for out in outs:
        for key in ("passes", "setup_s", "failures"):
            merged[key] += out[key]
        merged["attempted"] += out["attempted"]
    return run.e2e_metrics(merged)


def spread(values):
    """Interquartile range over median: how the gate reads run-to-run spread."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    names = run.WORKLOADS
    untraced = {w: [] for w in names}
    traced = {}
    try:
        for r in range(args.rounds):
            for w in names[r % len(names):] + names[:r % len(names)]:
                untraced[w].append(run.measure(w, args.seed + r, seconds, 0))
        for w in names:
            traced[w] = run.measure(w, args.seed, seconds, 1)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    doc = {"header": {k: v for k, v in untraced[names[0]][0]["header"].items()
                      if k not in ("workload", "seed", "trace")},
           "rounds": args.rounds, "workloads": {}}
    for w in names:
        failures = [f for out in untraced[w] + [traced[w]]
                    for f in out["failures"] + out["incomplete"]]
        if not all(out["passes"] for out in untraced[w]) or not traced[w]["traced"]:
            print("== %s: a worker failed before its first pass" % w)
            print("\n".join("FAIL " + line for line in failures))
            return 1
        e2e = pooled(untraced[w])
        layers = run.layer_metrics(traced[w])
        probes = [p for out in untraced[w] for p in out["probe_s"]]
        print("== %s  (%d untraced runs, seeds %d..%d)"
              % (w, args.rounds, args.seed, args.seed + args.rounds - 1))
        print("speed probe %.4f..%.4f s" % (min(probes), max(probes)))
        for line in failures:
            print("FAIL " + line)
        run.print_metrics(e2e)
        runs = [dict({k: run.e2e_metrics(out)[k][0] for k in run.GATED_E2E},
                     seed=out["header"]["seed"], probe_s=out["probe_s"]) for out in untraced[w]]
        if len(runs) >= 2:
            print("-- run-to-run spread (IQR / median over %d runs)" % len(runs))
            for k in run.GATED_E2E:
                print("%-34s %14.4f" % (k, spread([r[k] for r in runs])))
        print("-- traced run, seed %d" % args.seed)
        run.print_metrics(layers)
        doc["workloads"][w] = {
            "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
            "per_layer": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in layers.items()},
            "runs": runs, "probe_s": probes, "failures": failures}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
