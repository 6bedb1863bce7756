"""One workload process: imports residuo, builds the long-lived oracles,
prints "ready", then runs the ops of one JSON job read from stdin in a
closed loop and prints one JSON result line.

    python3 perfbench/worker.py WORKLOAD|probe
    python3 perfbench/worker.py cli SPANFILE ARG...

`probe` exits right after "ready"; run.py times these spawns as set-up.
The `cli` form runs one traced `residuo.cli` command for the cli-cold
workload.  run.py starts both forms with PYTHONPATH pointing at src/.
"""

import json
import os
import resource
import sys
import time
from array import array

import hostspeed


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _sweep_op(oracles):
    fac, dfn, zol = oracles

    def op(item):
        m, n, k = item
        return fac.crs_query(m, n, k), dfn.crs_query(m, n, k), zol.crs_query(m, n, k)

    return op


def _reduction_op(oracles):
    from residuo import oracle, reductions

    fresh = [None]

    def op(item):
        n, a, kind = item
        if kind == "val":
            # Each N gets its own factor oracle, as each CLI command does.
            fresh[0] = oracle.make_factor_oracle()
            r = reductions.semiprime_valuations(n, fresh[0])
            return r.v_small, r.v_large, r.p_bits, r.q_bits
        if kind == "t4":
            return reductions.qrp_decide(n, a, fresh[0]).is_residue
        if kind == "c2":
            return reductions.qrp_decide_c2(n, a, fresh[0]).is_residue
        return reductions.two_squares_oracle(n, fresh[0]).solvable

    return op


OPS = {
    "desk-sweep": _sweep_op,
    "fresh-moduli": _sweep_op,
    "semiprime-reductions": _reduction_op,
}


def run_job(op, job, tracer):
    """Run ops over job["items"], cycling, until job["max_ops"] ops are done
    or job["seconds"] of op time have passed (either may be null).  With
    job["meter"] set, the host's speed is read between ops (hostspeed.py)."""
    items, max_ops, seconds = job["items"], job["max_ops"], job["seconds"]
    lat, answers, seen = array("q"), [], {}
    clock = time.perf_counter_ns
    meter = hostspeed.Meter() if job["meter"] else None
    rss_start = _rss_kb()
    begin = clock()
    deadline = None if seconds is None else begin + int(seconds * 1e9)
    i = 0
    while max_ops is None or i < max_ops:
        if tracer:
            tracer.op = i
        t0 = clock()
        try:
            answer = op(items[i % len(items)])
        except Exception as exc:  # a raised op is a failed op, not a dead run
            answer = ("error", f"{type(exc).__name__}: {exc}")
        t1 = clock()
        lat.append(t1 - t0)
        answers.append(seen.setdefault(answer, answer))
        i += 1
        if meter:
            meter.tick(i, t1)
        if deadline is not None and t1 - (meter.spent_ns if meter else 0) >= deadline:
            break
    if meter:
        meter.read(i)
    return {
        "answers": answers,
        "lat_ns": lat.tolist(),
        "elapsed_ns": clock() - begin - (meter.spent_ns if meter else 0),
        "marks": meter.marks if meter else None,
        "refs": meter.refs if meter else None,
        "rss_start_kb": rss_start,
        "rss_peak_kb": _rss_kb(),
    }


def _cli(span_file, argv):
    import spans

    t0 = time.perf_counter_ns()
    import residuo.cli

    t1 = time.perf_counter_ns()
    tracer = spans.Tracer()
    tracer.install()
    t2 = time.perf_counter_ns()
    code = residuo.cli.main(argv)
    t3 = time.perf_counter_ns()
    tracer.dump(span_file, {"import_ns": t1 - t0, "command_ns": t3 - t2})
    return code


def main(argv):
    if argv[0] == "cli":
        return _cli(argv[1], argv[2:])
    workload = argv[0]
    from residuo import oracle

    oracles = (oracle.make_factor_oracle(), oracle.make_definition_oracle(),
               oracle.make_zolotarev_oracle())
    print("ready", flush=True)
    if workload == "probe":
        return 0
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job["span_file"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    result = run_job(OPS[workload](oracles), job, tracer)
    if tracer:
        tracer.dump(job["span_file"], {})
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip freeing the caches one object at a time: on fresh-moduli that
    # teardown takes longer than the set-up.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
