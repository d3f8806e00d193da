"""One pass over a workload's instances in a fresh interpreter.

Reads a job as JSON on stdin and writes the outcome as JSON on stdout.  As
each pass has its own interpreter, the program's caches start empty, as
they do for a command-line user; the benchmark never reads or clears them.

Untraced passes time each instance as a whole.  Traced passes call the
public function of each layer in the order the program reaches them and
record one span per call; the spans stay in memory until the pass ends.
Answers are checked after each instance, outside the timed region.
"""

# The import of treeburn comes first, so it is timed in a fresh interpreter
# that has loaded nothing the program would load itself.
import time

_start = time.perf_counter()
import treeburn  # noqa: E402

SETUP_S = time.perf_counter() - _start

import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

from checker import check_schedule  # noqa: E402

SRC = os.sep + os.path.join("src", "treeburn") + os.sep


class TimeLimit(Exception):
    """Raised by the alarm when an instance runs over its time limit."""


class Failure(Exception):
    """An answer that differs from the known answer, or a rejected witness."""


_armed = False


def _alarm(signum, frame):
    if _armed:
        raise TimeLimit()


def origin(exc: BaseException) -> str:
    """'module.function' where the traceback last entered the treeburn module
    it ends in, e.g. 'tree.canonical_key'; 'bench' if it never enters one."""
    module, entry = "bench", ""
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if SRC in code.co_filename:
            name = os.path.splitext(os.path.basename(code.co_filename))[0]
            if name != module:
                module, entry = name, code.co_name
        tb = tb.tb_next
    return f"{module}.{entry}" if entry else module


class Tracer:
    """Spans as [name, start, end, parent, instance], kept in memory.

    Each instance has a root span; every call into a layer is a child of it.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.root = -1

    def begin(self, instance: int) -> None:
        self.root = len(self.spans)
        self.spans.append(["instance", time.perf_counter(), None, None, instance])

    def end(self) -> None:
        self.spans[self.root][2] = time.perf_counter()

    def call(self, name: str, fn: Callable, *args):
        span = [name, time.perf_counter(), None, self.root, self.spans[self.root][4]]
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()

    def last(self) -> str:
        """Name of the instance's latest layer span: where it stopped."""
        return self.spans[-1][0] if len(self.spans) - 1 > self.root else "bench"


def peak_rss_mb() -> float:
    """This interpreter's peak resident set size, from Linux's VmHWM, which
    starts afresh at exec; ru_maxrss would also count the parent's size at
    the fork."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Failure(what)


def check_witness(t, sources, length: int) -> None:
    expect(len(sources) == length, f"witness length {len(sources)} != {length}")
    problems = check_schedule(t.edges, sources, t.vertices)
    expect(not problems, "witness rejected: " + "; ".join(problems))


def add(counts: Dict[str, float], name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


class TreeWorkload:
    """Build a tree, then ask for its burning number.

    `prepare` turns an instance into (instance, build input) and `check`
    compares the outcome with the known answer; both run untimed.
    """

    build_span = "tree.build"

    def __init__(self, tb):
        self.tb = tb

    def prepare(self, inst: Dict):
        return inst, inst

    def build(self, arg):
        raise NotImplementedError

    def solve(self, prepared):
        t = self.build(prepared[1])
        b, w = self.tb.burning_number(t)
        return t, b, w.sources

    def traced(self, prepared, tr: Tracer, counts):
        tb = self.tb
        known = prepared[0]["b"]
        t = tr.call(self.build_span, self.build, prepared[1])
        tr.call("tree.canonical_key", tb.canonical_key, t)
        dist = tr.call("tree.dist", lambda: t.dist)
        add(counts, "tree.dist_entries", sum(len(row) for row in dist.values()))
        for k in range(1, known + 1):
            ok = tr.call("burning.decide", tb.is_m_burnable, t, k)
            tr.spans[-1][0] = "burning.decide_yes" if ok else "burning.decide_no"
            add(counts, "burning.decisions", 1)
            expect(ok == (k == known), f"is_m_burnable(t, {k}) = {ok}, known b = {known}")
        b, w = tr.call("burning.number", tb.burning_number, t)
        flags = tr.call("burning.verify", tb.verify_schedule, t, w)
        expect(flags.is_burning_sequence, "verify_schedule rejects the witness")
        return t, b, w.sources

    def check(self, prepared, out):
        inst = prepared[0]
        t, b, sources = out[:3]
        expect(t.order == inst["order"], f"order {t.order} != {inst['order']}")
        expect(b == inst["b"], f"b = {b}, known b = {inst['b']}")
        check_witness(t, sources, b)


class ChainSweep(TreeWorkload):
    build_span = "topology.expand"

    def __init__(self, tb):
        super().__init__(tb)
        self.chain, _ = tb.make_chain_topology(3, 3, 3, 3)
        self.arms = self.chain.arms()
        self.internals = self.chain.internal_edges()

    def prepare(self, inst):
        v = inst["lengths"]
        return inst, self.tb.LengthAssignment(
            arm_lengths=dict(zip(self.arms, v[:6])),
            internal_lengths=dict(zip(self.internals, v[6:])),
        )

    def build(self, lengths):
        return self.tb.expand(self.chain, lengths)


class SpiderTight(TreeWorkload):
    """Extremal instances also get the spider module's head-first witness."""

    def build(self, inst):
        return self.tb.make_spider(inst["legs"])

    def witness(self, inst, call):
        if not inst["extremal"]:
            return None
        profile = self.tb.SpiderProfile(tuple(inst["legs"]))
        return call(self.tb.spider.witness_schedule, profile, inst["m"]).sources

    def solve(self, prepared):
        return super().solve(prepared) + (self.witness(prepared[0], lambda f, *a: f(*a)),)

    def traced(self, prepared, tr, counts):
        out = super().traced(prepared, tr, counts)
        return out + (self.witness(prepared[0], lambda f, *a: tr.call("spider.witness", f, *a)),)

    def check(self, prepared, out):
        super().check(prepared, out)
        if out[3] is not None:
            check_witness(out[0], out[3], prepared[0]["m"])


class PathScale(TreeWorkload):
    def build(self, inst):
        return self.tb.make_path(inst["n"])


class AdmSearch:
    """find_extremal, then the admissible witness for the winning sequence."""

    def __init__(self, tb):
        self.tb = tb

    def prepare(self, inst):
        return inst, self.tb.Topology(self.tb.Tree([tuple(e) for e in inst["edges"]]))

    def solve(self, prepared):
        inst, topo = prepared
        res = self.tb.find_extremal(topo, inst["m"])
        spec = self.tb.InducedSpec(topology=topo, sequence=res.sequence, m=inst["m"])
        return res, self.tb.witness_schedule(spec).sources

    def traced(self, prepared, tr, counts):
        inst, topo = prepared
        tb = self.tb
        k = inst["branch"]
        seqs = tr.call("admissible.enumerate", tb.enumerate_admissible, topo, k)
        canon = tr.call("admissible.canonical", tb.enumerate_canonical, topo, k)
        cset = tr.call("extremal.prune", tb.prune, topo, canon)
        add(counts, "admissible.sequences", len(seqs))
        add(counts, "admissible.canonical", len(canon))
        add(counts, "extremal.candidates", len(cset.candidates))
        add(counts, "extremal.pruned", len(cset.pruned))
        res = tr.call("extremal.find", tb.find_extremal, topo, inst["m"])
        spec = tb.InducedSpec(topology=topo, sequence=res.sequence, m=inst["m"])
        w = tr.call("admissible.witness", tb.witness_schedule, spec)
        return res, w.sources

    def check(self, prepared, out):
        inst, topo = prepared
        res, sources = out
        t = res.tree
        expect(t.order == res.order, f"induced tree order {t.order} != reported {res.order}")
        if inst["order"] is not None:
            expect(res.order == inst["order"], f"order {res.order} != table winner {inst['order']}")
        want = sorted(topo.tree.degree(v) for v in topo.tree.vertices if topo.tree.degree(v) >= 3)
        got = sorted(t.degree(v) for v in t.vertices if t.degree(v) >= 3)
        expect(got == want, f"branch degrees {got} != topology's {want}")
        check_witness(t, sources, inst["m"])


WORKLOADS = {
    "chain-sweep": ChainSweep,
    "spider-tight": SpiderTight,
    "path-scale": PathScale,
    "adm-search": AdmSearch,
}


def run_pass(job: Dict, tb) -> Dict:
    """Run every instance once; failures rank at the time limit.

    A failure is named by its layer: the span it stopped in when traced, the
    call into the deepest treeburn module on the traceback when not (both
    read like 'tree.canonical_key'), `check` when the benchmark's own check
    rejected the answer.  `wrong` marks an answer that differs from the known
    one or a witness the checker rejects.
    """
    global _armed
    wl = WORKLOADS[job["workload"]](tb)
    limit = job["limit_s"]
    deadline = time.perf_counter() + job["deadline_s"]
    tracer = Tracer() if job["trace"] else None
    counts: Dict[str, float] = {}
    results = []
    signal.signal(signal.SIGALRM, _alarm)
    for idx, inst in enumerate(job["instances"]):
        if time.perf_counter() > deadline:
            results.append({"s": limit, "run_s": 0.0, "fail": "bench: run budget spent", "wrong": False})
            continue
        prepared = wl.prepare(inst)
        out = fail = None
        wrong = False
        if tracer is not None:
            tracer.begin(idx)
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            out = wl.solve(prepared) if tracer is None else wl.traced(prepared, tracer, counts)
        except Failure as exc:  # raised by the traced calls' own checks
            fail, wrong = f"{tracer.last() if tracer else 'check'}: {exc}", True
        except Exception as exc:  # whatever the program raises fails this instance
            what = "over the time limit" if isinstance(exc, TimeLimit) else type(exc).__name__
            fail = f"{origin(exc) if tracer is None else tracer.last()}: {what}"
        finally:
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        if fail is None:
            try:
                wl.check(prepared, out)
            except Failure as exc:
                fail, wrong = f"check: {exc}", True
        elif fail.startswith("tree.canonical_key:"):
            add(counts, "tree.canonical_key_failed", 1)
        results.append({"s": limit if fail else elapsed, "run_s": elapsed, "fail": fail, "wrong": wrong})
        out = prepared = None
    report = {
        "results": results,
        "peak_rss_mb": peak_rss_mb(),
        "counts": counts,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    return report


def main() -> None:
    job = json.load(sys.stdin)
    report = {"setup_s": SETUP_S}
    if job.get("instances") is not None:
        report.update(run_pass(job, treeburn))
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
