"""One benchmark worker: imports possheaf.cli, then runs CLI calls in-process.

    python3 perfbench/worker.py JOB

JOB is a JSON object: {"src": dir, "ops": [argv, ...], "mode": "plain" |
"trace" | "profile"}.  Each op is one `possheaf.cli.main(argv)` call, as a
user's CLI call would make it, with its stdout captured.  The result goes to
stdout as one JSON object.  `run.py` starts the worker with `src` on
PYTHONPATH, and takes `setup_s` as the time from its own start of the
process to `t_ready` (both CLOCK_MONOTONIC).
"""

import time

import possheaf.cli

T_READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_op(argv):
    buf = io.StringIO()
    err = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = possheaf.cli.main(argv)
    except SystemExit as exc:          # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                  # the op failed; the run goes on
        rc, err = None, traceback.format_exc()
    t1 = time.perf_counter()
    return {"t0": t0, "t1": t1, "rc": rc, "out": buf.getvalue(), "err": err}


def profiled_calls(prof):
    """cProfile call counts of every tracer target, by metric prefix."""
    import pstats

    from tracer import TARGETS, code_key, resolve

    stats = pstats.Stats(prof).stats
    out = {}
    for prefix, modname, paths, stat in TARGETS:
        if stat == "total":
            continue
        out[prefix] = 0
        for path in paths:
            raw = resolve(modname, path)
            if raw is not None:
                entry = stats.get(code_key(raw))
                out[prefix] += entry[1] if entry else 0
    return out


def main():
    job = json.loads(sys.argv[1])
    here = os.path.realpath(possheaf.cli.__file__)
    if not here.startswith(os.path.realpath(job["src"]) + os.sep):
        sys.exit("possheaf was imported from %s, not from %s" % (here, job["src"]))
    result = {"t_ready": T_READY, "ops": []}
    mode = job["mode"]
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["missing"] = tracer.missing
    elif mode == "profile":
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
    for argv in job["ops"]:
        result["ops"].append(run_op(argv))
        if mode == "trace":
            tracer.end_op()
    if mode == "trace":
        result["layers"] = tracer.summary()
    elif mode == "profile":
        prof.disable()
        result["calls"] = profiled_calls(prof)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
