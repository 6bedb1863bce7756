"""In-memory spans around residuo's layer boundaries, and the per-layer
metrics derived from them.

`Tracer.install()` rebinds each traced function wherever a residuo module
holds it, so a caller that looks the name up at call time reaches the
wrapper: `residuo.oracle.factorize`, `residuo.zolotarev.residue_set`, and
`residuo.symbols.symbol_prime_checked`, whose recursion then records one
span per level.  Nothing under `src/` changes, and an untraced process
never imports this module.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of
the enclosing span in the same process (-1 at top level) and `op` the
benchmark op that caused it.  `dump` writes one JSON array per line, after
a first line holding the process's counters.
"""

import functools
import json
import sys
import time
from array import array
from collections import Counter

# Public functions traced, by the module that defines them.
LAYERS = {
    "arithmetic": ("factorize", "is_prime", "jacobi"),
    "symbols": ("residue_set", "symbol_prime_checked", "symbol_composite",
                "symbol_prime_definition"),
    "zolotarev": ("zolotarev_prime", "zolotarev_semiprime"),
    "reductions": ("semiprime_valuations", "qrp_decide", "qrp_decide_c2",
                   "qrp_decide_permutation", "two_squares_oracle"),
}
ROUTES = ("factor", "definition", "zolotarev")

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    [("zolotarev.zolotarev_prime.self_s", "s", "lower"),
     ("zolotarev.zolotarev_semiprime.self_s", "s", "lower"),
     ("zolotarev.members_per_query", "count", "lower"),
     ("symbols.residue_set.calls", "count", "lower"),
     ("symbols.residue_set.busy_s", "s", "lower"),
     ("symbols.power_image.hit_ratio", "ratio", "higher"),
     ("symbols.power_image.entries", "count", "lower"),
     ("symbols.symbol_prime_checked.calls", "count", "lower"),
     ("symbols.symbol_composite.self_s", "s", "lower"),
     ("symbols.symbol_prime_definition.busy_s", "s", "lower"),
     ("arithmetic.factorize.calls", "count", "lower"),
     ("arithmetic.factorize.busy_s", "s", "lower"),
     ("arithmetic.is_prime.busy_s", "s", "lower"),
     ("arithmetic.jacobi.busy_s", "s", "lower")]
    + [(f"oracle.{r}.{m}", u, "lower") for r in ROUTES
       for m, u in (("queries", "count"), ("self_s", "s"))]
    + [("oracle.factorize_per_query", "ratio", "lower"),
       ("oracle.queries_per_op", "ratio", "lower")]
    + [(f"reductions.{f}.{m}", u, "lower") for f in LAYERS["reductions"]
       for m, u in (("calls", "count"), ("busy_s", "s"), ("queries_per_call", "ratio"))]
    + [("cli.import_ms", "ms", "lower"),
       ("cli.startup_ms", "ms", "lower"),
       ("cli.command_ms", "ms", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.stack = []
        self.op = -1
        # Residue-set members walked by the Zolotarev permutation sign.
        self.members = 0

    def wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self):
        residuo_modules = [m for k, m in list(sys.modules.items())
                           if k == "residuo" or k.startswith("residuo.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"residuo.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for module in residuo_modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
        self._install_oracles()
        self._count_members()

    def _install_oracles(self):
        oracle = sys.modules["residuo.oracle"]
        for route in ROUTES:
            cls = type(getattr(oracle, f"make_{route}_oracle")())
            cls.crs_query = self.wrap(f"oracle.{route}", cls.crs_query)

    def _count_members(self):
        # A counter, not a span: the walk is the Zolotarev layer's own work
        # and must stay inside its self time.
        zolotarev = sys.modules["residuo.zolotarev"]
        walk = getattr(zolotarev, "_restricted_sign", None)
        if walk is None:
            return
        names, stack = self.names, self.stack

        def counted(a, n, members, pos):
            if stack and names[stack[-1]].startswith("zolotarev.zolotarev_"):
                self.members += len(members)
            return walk(a, n, members, pos)

        for module in (sys.modules["residuo.zolotarev"], sys.modules["residuo.reductions"]):
            if getattr(module, "_restricted_sign", None) is walk:
                module._restricted_sign = counted

    def dump(self, path, meta):
        symbols = sys.modules["residuo.symbols"]
        cache = getattr(symbols, "_power_image", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        meta = dict(meta, members=self.members,
                    power_image=None if info is None else
                    {"hits": info.hits, "misses": info.misses, "entries": info.currsize})
        with open(path, "w") as out:
            out.write(json.dumps(meta) + "\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                out.write(json.dumps(row) + "\n")


def load(path):
    """(meta, spans) from a file written by `Tracer.dump`."""
    with open(path) as f:
        meta = json.loads(f.readline())
        return meta, [json.loads(line) for line in f]


def layer_totals(processes):
    """Calls, busy and self nanoseconds per span name, and how many spans
    of each name sit directly under each other name.

    Self time is a span's duration minus that of its direct children.  A
    span whose parent has the same name is a recursive call: it counts as
    a call but not again as busy time.
    """
    calls, busy, self_ns, under = Counter(), Counter(), Counter(), Counter()
    for _, spans in processes:
        child = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child[i]
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent_name != name:
                busy[name] += end - start
            under[parent_name, name] += 1
    return calls, busy, self_ns, under


def layer_metrics(processes, ops):
    """Every per-layer metric except the cli.* and trace.* ones, from the
    spans of all processes of one traced pass that ran `ops` ops."""
    calls, busy, self_ns, under = layer_totals(processes)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    zol = ("zolotarev.zolotarev_prime", "zolotarev.zolotarev_semiprime")
    for name in zol:
        m[f"{name}.self_s"] = self_ns[name] / 1e9
    m["zolotarev.members_per_query"] = ratio(
        sum(meta["members"] for meta, _ in processes), sum(calls[n] for n in zol))
    m["symbols.residue_set.calls"] = calls["symbols.residue_set"]
    m["symbols.residue_set.busy_s"] = busy["symbols.residue_set"] / 1e9
    caches = [meta["power_image"] for meta, _ in processes if meta["power_image"]]
    hits = sum(c["hits"] for c in caches)
    m["symbols.power_image.hit_ratio"] = ratio(hits, hits + sum(c["misses"] for c in caches))
    m["symbols.power_image.entries"] = max((c["entries"] for c in caches), default=0)
    m["symbols.symbol_prime_checked.calls"] = calls["symbols.symbol_prime_checked"]
    m["symbols.symbol_composite.self_s"] = self_ns["symbols.symbol_composite"] / 1e9
    m["symbols.symbol_prime_definition.busy_s"] = busy["symbols.symbol_prime_definition"] / 1e9
    m["arithmetic.factorize.calls"] = calls["arithmetic.factorize"]
    for fn in ("factorize", "is_prime", "jacobi"):
        m[f"arithmetic.{fn}.busy_s"] = busy[f"arithmetic.{fn}"] / 1e9
    routes = [f"oracle.{r}" for r in ROUTES]
    queries = sum(calls[r] for r in routes)
    for r in routes:
        m[f"{r}.queries"] = calls[r]
        m[f"{r}.self_s"] = self_ns[r] / 1e9
    m["oracle.factorize_per_query"] = ratio(
        sum(under[r, "arithmetic.factorize"] for r in routes), queries)
    m["oracle.queries_per_op"] = ratio(queries, ops)
    for fn in LAYERS["reductions"]:
        name = f"reductions.{fn}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name] / 1e9
        m[f"{name}.queries_per_call"] = ratio(sum(under[name, r] for r in routes), calls[name])
    return m
