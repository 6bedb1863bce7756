"""The residuo benchmark: runs residuo's public API and CLI from outside,
checks every answer, and prints each metric by name with its unit.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 a fixed number of ops
runs once untraced and once traced, and the metrics are the per-layer ones.
End-to-end times are scaled by the host's speed, read between ops from a
fixed loop (hostspeed.py); the unscaled values are printed beside them.
Load comes from one client in a closed loop, and at most two processes
(this one and one child) are alive at a time.  Results, and the spans of
traced runs, are also written under perfbench/out/.  See README.md here.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import spans
from workloads import WORKLOADS, matches

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SPAWNS = 10
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def child_env():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("RESIDUO_SEED", None)
    return env


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "git_sha": sha}


class Child:
    """A started process with a kill timer, so no wait can hang the run."""

    def __init__(self, argv, stdin=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
        self.started = time.perf_counter_ns()
        self.proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE,
                                     stderr=stderr, cwd=ROOT, env=child_env())
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()

    def finish(self):
        """Read stdout to its end and reap the child: (stdout, exit code,
        peak RSS in KB, wall ns since the spawn)."""
        try:
            out = self.proc.stdout.read()
            self.proc.stdout.close()
            if self.proc.stdin:
                self.proc.stdin.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self.timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return out, self.proc.returncode, usage.ru_maxrss, time.perf_counter_ns() - self.started


def spawn_worker(workload):
    """Start a worker and wait for "ready": (child, set-up seconds, and the
    same scaled by the host's speed read before and after)."""
    before = hostspeed.reference_ns()
    child = Child([sys.executable, WORKER, workload], stdin=subprocess.PIPE)
    line = child.proc.stdout.readline()
    setup = (time.perf_counter_ns() - child.started) / 1e9
    if line != b"ready\n":
        _, code, _, _ = child.finish()
        raise RuntimeError(f"worker for {workload} failed to start (exit {code})")
    scale = hostspeed.factors([0, 1], [before, hostspeed.reference_ns()], 1)[0]
    return child, (setup, setup * scale)


def probe_setups(count):
    setups = []
    for _ in range(count):
        child, setup = spawn_worker("probe")
        child.finish()
        setups.append(setup)
    return setups


class Pass:
    """What one pass over a workload observed."""

    def __init__(self):
        self.answers, self.expected, self.lat_ns = [], [], []
        self.scale = []  # per op: REFERENCE_NS over the host's reading around it
        self.elapsed_ns, self.rss_kb, self.setups, self.span_files = 0, [], [], []
        self.cli = []  # (wall ns, record elapsed_ms) per answered command
        self.growth_kb = []  # RSS growth per op of each worker


def run_in_process(workload, inputs, seconds=None, max_ops=None, span_dir=None):
    p = Pass()
    b = 0
    while (seconds is None or p.elapsed_ns < seconds * 1e9) and (
            max_ops is None or len(p.answers) < max_ops):
        items = inputs.batches[b % len(inputs.batches)]
        expected = inputs.expected[b % len(inputs.batches)]
        limit = None if inputs.cycle else len(items)
        if max_ops is not None:
            left = max_ops - len(p.answers)
            limit = left if limit is None else min(limit, left)
        span_file = None
        if span_dir:
            span_file = os.path.join(span_dir, f"proc-{b}.jsonl")
            p.span_files.append(span_file)
        child, setup = spawn_worker(workload.name)
        job = {"items": items, "max_ops": limit, "span_file": span_file,
               "seconds": None if seconds is None else seconds - p.elapsed_ns / 1e9,
               "meter": seconds is not None}
        child.proc.stdin.write((json.dumps(job) + "\n").encode())
        child.proc.stdin.flush()
        out, code, _, _ = child.finish()
        if code != 0:
            raise RuntimeError(f"worker for {workload.name} exited with {code}")
        r = json.loads(out)
        p.setups.append(setup)
        p.answers += r["answers"]
        p.expected += [expected[i % len(expected)] for i in range(len(r["answers"]))]
        p.lat_ns += r["lat_ns"]
        if job["meter"]:
            p.scale += hostspeed.factors(r["marks"], r["refs"], len(r["answers"]))
        p.elapsed_ns += r["elapsed_ns"]
        p.rss_kb.append(r["rss_peak_kb"])
        p.growth_kb.append((r["rss_peak_kb"] - r["rss_start_kb"]) / len(r["answers"]))
        b += 1
    return p


def run_cli(inputs, seconds=None, max_ops=None, span_dir=None):
    p = Pass()
    commands, expected = inputs.batches[0], inputs.expected[0]
    with open(os.path.join(OUT, "cli-stderr.txt"), "wb") as err:
        meter = hostspeed.Meter() if seconds is not None else None
        begin = time.perf_counter_ns()
        i = 0
        while (seconds is None
               or time.perf_counter_ns() - begin - meter.spent_ns < seconds * 1e9) and (
                max_ops is None or i < max_ops):
            argv = commands[i % len(commands)]
            if span_dir:
                span_file = os.path.join(span_dir, f"proc-{i}.jsonl")
                cmd = [sys.executable, WORKER, "cli", span_file, *argv]
            else:
                span_file = None
                cmd = [sys.executable, "-m", "residuo.cli", *argv]
            out, code, rss, wall = Child(cmd, stderr=err).finish()
            try:
                record = json.loads(out) if code == 0 else None
            except ValueError:
                record = None
            p.answers.append(record["result"] if record else ["error", f"exit {code}"])
            p.expected.append(expected[i % len(expected)])
            p.lat_ns.append(wall)
            p.rss_kb.append(rss)
            if record:
                p.cli.append((wall, record["elapsed_ms"]))
                if span_file:
                    p.span_files.append(span_file)
            i += 1
            if meter:
                meter.tick(i, time.perf_counter_ns())
        p.elapsed_ns = time.perf_counter_ns() - begin
        if meter:
            p.elapsed_ns -= meter.spent_ns
            meter.read(i)
            p.scale = hostspeed.factors(meter.marks, meter.refs, i)
    return p


def run_pass(workload, inputs, **kw):
    os.makedirs(OUT, exist_ok=True)
    if workload.in_process:
        return run_in_process(workload, inputs, **kw)
    return run_cli(inputs, **kw)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def check(p):
    """Indices of ops whose answer is wrong or raised."""
    return [i for i, (a, e) in enumerate(zip(p.answers, p.expected)) if not matches(a, e)]


def end_to_end(workload, p, setups):
    failed = set(check(p))
    scale = p.scale or [1.0] * len(p.lat_ns)
    # A failed op misses every latency limit.
    lat = sorted(math.inf if i in failed else ns * f / 1e6
                 for i, (ns, f) in enumerate(zip(p.lat_ns, scale)))
    raw = sorted(p.lat_ns)
    ok = len(lat) - len(failed)
    op_s = sum(ns * f for ns, f in zip(p.lat_ns, scale)) / 1e9
    metrics = {
        "ops_per_s": ok / op_s,
        "latency_p50_ms": percentile(lat, 50),
        "latency_tail_ms": percentile(lat, workload.tail),
        "peak_rss_mb": max(p.rss_kb) / 1024,
        "setup_s": statistics.median(s for _, s in setups),
    }
    beyond = len(lat) - math.ceil(workload.tail / 100 * len(lat))
    notes = {
        "ops_per_s": f"{ok} ops over their summed latency; unscaled "
                     f"{ok / (sum(p.lat_ns) / 1e9):.4f}",
        "latency_tail_ms": f"p{workload.tail}, {len(lat)} samples, {beyond} beyond it; unscaled "
                           f"{percentile(raw, workload.tail) / 1e6:.6f}",
        "latency_p50_ms": f"{len(lat)} samples; unscaled {percentile(raw, 50) / 1e6:.6f}",
        "setup_s": f"median of {len(setups)} spawns; unscaled "
                   f"{statistics.median(s for s, _ in setups):.6f}",
        "peak_rss_mb": f"max over {len(p.rss_kb)} processes",
    }
    if p.growth_kb:
        notes["peak_rss_mb"] += (f", growing {statistics.median(p.growth_kb) / 1024:.3f} MB"
                                 " per op in a worker")
    if p.scale:
        notes["host_speed"] = (f"{len(p.scale)} ops scaled by REFERENCE_NS over the reference "
                               f"loop's time: median factor {statistics.median(p.scale):.4f}, "
                               f"range {min(p.scale):.4f}-{max(p.scale):.4f}")
    return metrics, notes, len(failed)


def per_layer(plain, traced):
    """Metrics of the traced pass, and its overhead over the untraced passes."""
    processes = [spans.load(f) for f in traced.span_files]
    metrics = spans.layer_metrics(processes, len(traced.answers))
    # On cli-cold, span files and recorded commands line up one to one.
    cli = [(wall / 1e6, ms, meta) for (wall, ms), (meta, _) in zip(traced.cli, processes)]

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics["cli.import_ms"] = median([m["import_ns"] / 1e6 for _, _, m in cli])
    metrics["cli.startup_ms"] = median([wall - ms for wall, ms, _ in cli])
    metrics["cli.command_ms"] = median([m["command_ns"] / 1e6 for _, _, m in cli])
    untraced_ns = statistics.mean(sum(p.lat_ns) for p in plain)
    metrics["trace.overhead_pct"] = (sum(traced.lat_ns) / untraced_ns - 1) * 100
    notes = {"trace.overhead_pct": f"traced vs mean of the untraced passes, {len(traced.answers)} ops each",
             "oracle.queries_per_op": f"over {len(traced.answers)} ops"}
    return metrics, notes


def measure(workload, seed, seconds, trace):
    inputs = workload.generate(seed)
    if not trace:
        # One vCPU for this process and every child, so the host's speed is
        # read on the core the ops run on; vCPUs slow down independently.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            # Half the probes before the ops and half after, so set-up is
            # timed across the run rather than in one moment of the host's load.
            setups = probe_setups(SETUP_SPAWNS // 2)
            p = run_pass(workload, inputs, seconds=seconds)
            setups += probe_setups(SETUP_SPAWNS - SETUP_SPAWNS // 2)
        finally:
            os.sched_setaffinity(0, cpus)
        metrics, notes, failed = end_to_end(workload, p, setups + p.setups)
        return metrics, notes, len(p.answers), failed
    span_dir = os.path.join(OUT, f"spans-{workload.name}-seed{seed}")
    shutil.rmtree(span_dir, ignore_errors=True)
    os.makedirs(span_dir)
    # Untraced passes before and after the traced one, so that a drift in
    # the host's speed does not read as tracing overhead.
    passes = [run_pass(workload, inputs, max_ops=workload.trace_ops, span_dir=d)
              for d in (None, span_dir, None)]
    metrics, notes = per_layer(passes[0::2], passes[1])
    failed = sum(len(check(p)) for p in passes)
    return metrics, notes, sum(len(p.answers) for p in passes), failed


def report(name, seed, seconds, trace, facts):
    metrics, notes, attempted, failed = measure(WORKLOADS[name], seed, seconds, trace)
    unit = {n: u for n, u, _ in spans.PER_LAYER} if trace else dict(END_TO_END)
    print(f"# {name} seed={seed} trace={trace}: {attempted} ops attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.6f} (base {attempted} ops)")
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:42s} {value:14.6f} {unit[key]}{note}")
    if "host_speed" in notes:
        print(f"# host speed: {notes['host_speed']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump({"machine": facts, "workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "notes": notes, "result": result}, f, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25,
                        help="op time per workload with --trace 0; a traced run "
                        "runs a fixed number of ops instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "residuo")):
        parser.exit(2, f"error: no residuo sources under {ROOT}/src\n")
    facts = machine()
    print("# machine " + json.dumps(facts))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: report(n, args.seed, args.seconds, args.trace, facts) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
