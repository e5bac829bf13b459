"""Record the reference outputs that every benchmark run compares against.

    python3 perfbench/record.py

Writes `reference/<workload>.json`, the exact report of each torus op, and
`reference/forged-ce-q.json`: the forged pool frozen as instance documents,
each with the digest of its `ce` report, and the cost strata from which
`run.py` draws one entry each per seed.  Strata are by op latency measured
while recording, so that every seed's batch does about the same work.  Run
it only at a commit whose outputs are the reference.
"""

import json
import os
import shutil
import sys

import run

POOL = 200
STRATUM = POOL // run.FORGED_OPS


def checked(res, argvs):
    for argv, op in zip(argvs, res["ops"]):
        why = run.op_failure(op, run.sha256(op["out"]))
        if why:
            sys.exit("%s: %s" % (" ".join(argv), why))
    return res["ops"]


def write_forged_reference(ref):
    """Write `ref` ({"strata", "pool"}) with one pool entry per line."""
    with open(os.path.join(run.REFERENCE, "forged-ce-q.json"), "w") as fh:
        fh.write('{"strata": %s,\n "pool": [\n' % json.dumps(ref["strata"]))
        fh.write(",\n".join(json.dumps(entry) for entry in ref["pool"]))
        fh.write("\n]}\n")


def main():
    run.import_src()
    import forged

    deadline = run.Deadline(3600)
    os.makedirs(run.REFERENCE, exist_ok=True)
    for workload, argv in run.TORUS_OPS.items():
        op, = checked(run.run_worker([argv], "plain", deadline), [argv])
        with open(os.path.join(run.REFERENCE, workload + ".json"), "w") as fh:
            fh.write(op["out"])
    docs = [forged.pool_doc(k) for k in range(POOL)]
    try:
        run.write_forged([{"doc": doc} for doc in docs], range(POOL))
        argvs = [run.forged_op(k) for k in range(POOL)]
        first = checked(run.run_worker(argvs, "plain", deadline), argvs)
        again = checked(run.run_worker(argvs, "plain", deadline), argvs)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    for a, b in zip(first, again):
        if a["out"] != b["out"]:
            sys.exit("ce reports differ between two runs")
    pool = [{"report": run.sha256(op["out"]), "doc": doc} for doc, op in zip(docs, first)]
    cost = [min(a["t1"] - a["t0"], b["t1"] - b["t0"]) for a, b in zip(first, again)]
    order = sorted(range(POOL), key=cost.__getitem__)
    strata = [sorted(order[i:i + STRATUM]) for i in range(0, POOL, STRATUM)]
    write_forged_reference({"strata": strata, "pool": pool})


if __name__ == "__main__":
    main()
