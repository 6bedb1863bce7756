"""The host's speed, read from a fixed pure-Python loop.

The benchmark's host is a share of a machine whose other tenants make a
core up to twice as slow, in spells of a second to over a minute.  A run
reads this loop's time between its ops, and run.py scales each op's time
by REFERENCE_NS over the readings taken around it, so the reported times
are those of a core running the loop in REFERENCE_NS.  The loop shares no code
with residuo, so a change to residuo moves the scaled times as it moves the
raw ones.
"""

import time

# The loop's time on an uncontended core of the 2-vCPU Xeon the bounds in
# BENCHMARK.json were set on.
REFERENCE_NS = 1_300_000
# A reading is taken after the first op that ends this long after the last one.
EVERY_NS = 200_000_000


def reference_loop():
    # Integer arithmetic and a small dict, as residuo's hot loops do.  The
    # dict is made once, so the garbage collector never runs in the loop.
    table, s = {}, 0
    for j in range(12000):
        table[j & 255] = s
        s = (s + j * j) % 65521
    return s


def reference_ns():
    t0 = time.perf_counter_ns()
    reference_loop()
    return time.perf_counter_ns() - t0


class Meter:
    """Readings taken between ops: refs[i] was read when marks[i] ops were done."""

    def __init__(self):
        self.marks, self.refs, self.spent_ns = [0], [reference_ns()], 0
        self.due = time.perf_counter_ns() + EVERY_NS

    def tick(self, ops_done, now):
        if now >= self.due:
            self.read(ops_done)

    def read(self, ops_done):
        t0 = time.perf_counter_ns()
        self.marks.append(ops_done)
        self.refs.append(reference_ns())
        self.due = time.perf_counter_ns()
        self.spent_ns += self.due - t0
        self.due += EVERY_NS


def factors(marks, refs, ops):
    """REFERENCE_NS over the mean of the two readings around each of `ops` ops."""
    out = []
    for s in range(len(marks)):
        end = marks[s + 1] if s + 1 < len(marks) else ops
        around = (refs[s] + refs[min(s + 1, len(refs) - 1)]) / 2
        out += [REFERENCE_NS / around] * (end - marks[s])
    return out
