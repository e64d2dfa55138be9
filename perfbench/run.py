"""The tokenslide benchmark.

    python3 perfbench/run.py --workload tree_pile --seed 1 --seconds 18 --trace 0

One run of one workload:

1. Set-up, three times, each in a fresh interpreter (``workloads.py``):
   import the program, generate the workload's instances from the seed and
   write them as text.  ``setup_s`` is the median wall time.  The three
   copies must be byte-identical; their hashes are printed.
2. Expected answers, computed by the benchmark: the edge-flow bound for
   trees, the ``min_cost_matching`` cost for intervals, the BFS oracle
   distance of every lone repair gadget.
3. A closed loop, one client and no extra threads: each request is the work
   of one CLI command run in-process through the package's public
   functions (``solve``; on ``verify_replay`` ``solve`` then ``verify``),
   over whole passes of the instances until ``--seconds`` have passed.
   Every request is checked; a failed request is an exception, a wrong
   length or a failed check.  A fixed reference task runs right before and
   after every request, and the gated latencies (``*_rel``) are ratios to
   its time: see ``reference_task``.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the loop runs for half the time untraced and half traced,
with spans around every call listed in ``tracing.patch_points``; the last
line holds the per-layer metrics and the spans are written to
``.bench_out/``.  Lines starting with ``#`` before it give the
environment, the input hashes and metrics outside the contract
(wall-clock latencies, ``error_rate``, tail percentiles and sample counts).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
from common import ROOT, import_program
from tracing import Tracer, patch_points
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUPS = 3
TAIL_BEYOND = 10
REFERENCE_N = 4000
# timing repeats per captured gadget state; the calls take well under 1 ms
STATE_REPEATS = 50

GENERATORS = (
    "generators.heavy_path_instance",
    "generators.random_tree",
    "generators.greedy_dominating_tree",
    "generators.gen_bench_interval_instance",
    "generators.gadget_search",
    "instances.emit_instance",
)
# per-layer metric -> (span name, "total" | "self" | "calls"), mean per traced request
SPAN_METRICS = {
    "instances.parse_instance_ms": ("instances.parse_instance", "total"),
    "instances.emit_moves_ms": ("instances.emit_moves", "total"),
    "instances.parse_moves_ms": ("instances.parse_moves", "total"),
    "graphs.rooted_tree_ms": ("graphs.rooted_tree", "total"),
    "graphs.closed_neighborhood_system_ms": ("graphs.closed_neighborhood_system", "total"),
    "graphs.ensure_subtrees_ms": ("graphs.ensure_subtrees", "total"),
    "graphs.is_hitting_ms": ("graphs.is_hitting", "total"),
    "graphs.is_dominating_ms": ("graphs.is_dominating", "total"),
    "graphs.distances_from_ms": ("graphs.distances_from", "total"),
    "graphs.distances_from_rows": ("graphs.distances_from", "calls"),
    "intervals.intersection_graph_ms": ("intervals.intersection_graph", "total"),
    "matching.min_cost_matching_ms": ("matching.min_cost_matching", "total"),
    "matching.normalize_matching_ms": ("matching.normalize_matching", "total"),
    "tree_reconfig.reconf_tree_dominating_ms": ("tree_reconfig.reconf_tree_dominating", "total"),
    "tree_reconfig.sweep_self_ms": ("tree_reconfig.reconf_tree_dominating", "self"),
    "interval_reconfig.reconf_interval_ms": ("interval_reconfig.reconf_interval", "total"),
    "interval_reconfig.loop_self_ms": ("interval_reconfig.reconf_interval", "self"),
    "oracle.dominating_predicate_ms": ("oracle.dominating_predicate", "total"),
    "oracle.verify_sequence_ms": ("oracle.verify_sequence", "total"),
}
# per-layer metrics measured on the lone repair gadgets, outside the loop
GADGET_METRICS = (
    "oracle.reconfig_distance_bfs_ms",
    "interval_reconfig.fix_matching_ms",
    "interval_reconfig.find_greedy_move_ms",
)
# per-layer metric -> count recorded by every request, mean per traced request
COUNT_METRICS = (
    "instances.input_bytes",
    "intervals.edges",
    "matching.tokens",
    "matching.cost",
    "tree_reconfig.unit_moves",
    "tree_reconfig.triples",
    "interval_reconfig.repairs",
    "interval_reconfig.moves",
    "oracle.unit_moves_replayed",
)


@dataclass
class Case:
    """One instance and the answers the benchmark expects for it."""

    name: str
    text: str
    n: int
    unit_moves: int
    gadgets: int = 0
    target: dict | None = None  # final token counts, checked after verify


@dataclass
class Loop:
    """What one closed-loop phase recorded, one list entry per request."""

    ref_ms: list = field(default_factory=list)
    solve_ms: list = field(default_factory=list)
    verify_ms: list = field(default_factory=list)
    request_ms: list = field(default_factory=list)
    solve_rel: list = field(default_factory=list)  # solve time / reference time
    request_rel: list = field(default_factory=list)
    counts: list = field(default_factory=list)  # per-layer counts
    vertices: int = 0
    replayed: int = 0
    attempted: int = 0
    failed: int = 0


def run_setups(workload: str, seed: int, work: Path) -> tuple[list[float], list[Path]]:
    """Run the set-up in SETUPS fresh interpreters; (wall seconds, output dirs)."""
    times, dirs = [], []
    for i in range(SETUPS):
        out = work / f"setup-{i}"
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up {i} of {workload} failed with exit code {done.returncode}")
        dirs.append(out)
    return times, dirs


def fingerprints(out: Path, manifest: dict) -> dict[str, str]:
    files = [e["file"] for e in manifest["instances"] + manifest["gadgets"]]
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def expected_answers(ts, workload: str, setup: Path, manifest: dict, problems: list) -> tuple[list, dict]:
    """Cases with their expected answers, plus per-layer figures measured on
    the lone repair gadgets (empty for other workloads)."""
    cases = []
    gadget_moves = []
    extra = dict.fromkeys(GADGET_METRICS, 0.0)
    if workload == "interval_repair":
        gadget_moves, extra = check_gadgets(ts, setup, manifest, problems)
    for entry in manifest["instances"]:
        text = (setup / entry["file"]).read_text(encoding="utf-8")
        case = Case(entry["file"], text, entry["n"], 0)
        if workload in ("tree_pile", "verify_replay"):
            n, edges, start, target = checks.read_tree(text)
            case.unit_moves = checks.edge_flow_bound(n, edges, start, target)
            case.target = dict(target)
        elif workload == "interval_sparse":
            inst = ts.parse_instance(text)
            _, case.unit_moves = ts.min_cost_matching(inst.graph, inst.d_s, inst.d_t)
        else:
            case.unit_moves = sum(gadget_moves[i] for i in entry["gadgets"])
            case.gadgets = len(entry["gadgets"])
        cases.append(case)
    return cases, extra


def mean_ms(fn, *args) -> tuple[float, object]:
    """Mean milliseconds per call over STATE_REPEATS calls, and the last result."""
    start = time.perf_counter()
    for _ in range(STATE_REPEATS):
        result = fn(*args)
    return (time.perf_counter() - start) * 1000.0 / STATE_REPEATS, result


def check_gadgets(ts, setup: Path, manifest: dict, problems: list) -> tuple[list[int], dict]:
    """BFS distance of each lone gadget, checked against the solver, which
    must fire a repair there; times the repair and the greedy scan on the
    captured stuck state."""
    ir = ts.interval_reconfig
    distances = []
    bfs_ms, fix_ms, scan_ms = [], [], []
    for entry in manifest["gadgets"]:
        inst = ts.parse_instance((setup / entry["file"]).read_text(encoding="utf-8"))
        pred = ts.dominating_predicate(inst.graph)
        start = time.perf_counter()
        dist = ts.reconfig_distance_bfs(inst.graph, pred, inst.d_s, inst.d_t)
        bfs_ms.append((time.perf_counter() - start) * 1000.0)
        distances.append(dist)

        stuck = []
        real_fix = ir.fix_matching

        def recording(rep, g, d_s, d_t, m, _dist=None):
            stuck.append((rep, g, d_s, d_t, m))
            return real_fix(rep, g, d_s, d_t, m, _dist=_dist)

        ir.fix_matching = recording
        try:
            seq = ir.reconf_interval(inst.rep, inst.d_s, inst.d_t)
        finally:
            ir.fix_matching = real_fix
        if seq is None or seq.total_length != dist:
            problems.append(f"gadget {entry['file']}: solver length differs from BFS distance {dist}")
        if not stuck:
            problems.append(f"gadget {entry['file']}: the solver fired no repair")
            continue
        rep, g, d_s, d_t, m = stuck[0]
        ms, move = mean_ms(ts.find_greedy_move, g, d_s, d_t, m)
        scan_ms.append(ms)
        ms, repaired = mean_ms(ts.fix_matching, rep, g, d_s, d_t, m)
        fix_ms.append(ms)
        if move is not None or ts.find_greedy_move(g, d_s, d_t, repaired) is None:
            problems.append(f"gadget {entry['file']}: repair did not turn a stuck state into a movable one")
        if ts.matching_cost(g, repaired) != ts.matching_cost(g, m):
            problems.append(f"gadget {entry['file']}: repair changed the matching cost")
    figures = (bfs_ms, fix_ms, scan_ms)
    return distances, {m: statistics.fmean(f) if f else 0.0 for m, f in zip(GADGET_METRICS, figures)}


def solve(ts, case: Case):
    """The work of ``tokenslide solve``: parse, build, solve, emit the moves text."""
    fired = []
    inst = ts.instances.parse_instance(case.text)
    if inst.kind == "tree":
        tree = ts.graphs.RootedTree(inst.graph, 0)
        seq = ts.tree_reconfig.reconf_tree_dominating(tree, inst.d_s, inst.d_t)
    else:
        seq = ts.interval_reconfig.reconf_interval(
            inst.rep, inst.d_s, inst.d_t, on_fix=lambda *state: fired.append(1)
        )
    if seq is None:
        raise RuntimeError("solver reported the target as unreachable")
    text = ts.instances.emit_moves(list(seq.moves), seq.total_length)
    return inst, seq, text, len(fired)


def verify(ts, case: Case, moves_text: str):
    """The work of ``tokenslide verify``: parse both files and replay the moves."""
    inst = ts.instances.parse_instance(case.text)
    _, triples = ts.instances.parse_moves(moves_text)
    seq = ts.MoveSequence(triples)
    pred = ts.oracle.dominating_predicate(inst.graph)
    return ts.oracle.verify_sequence(inst.graph, pred, inst.d_s, seq), seq.total_length


def reference_task():
    """A fixed task in the benchmark's own code, timed around every request.

    This machine's speed drifted by a third over minutes, and the drift moves
    every timing alike, so the gated latencies are ratios to this task, which
    does the same kind of work as a request: it parses a tree of
    REFERENCE_N vertices from text and computes its edge-flow bound.
    """
    rng = random.Random(0)
    edges = "".join(f"{v} {rng.randrange(v)}\n" for v in range(1, REFERENCE_N))
    text = f"tree {REFERENCE_N}\n{edges}tokens 1: 0\ntokens 1: {REFERENCE_N - 1}\n"

    def task() -> int:
        # a collection that the request's allocations made due would
        # otherwise land here; it runs in the gc.collect() between requests
        gc.disable()
        try:
            return checks.edge_flow_bound(*checks.read_tree(text))
        finally:
            gc.enable()

    return task


def timed(fn, *args):
    """(seconds, result) of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def request(ts, case: Case, with_verify: bool, loop: Loop, reference) -> None:
    """Send one request, check its output and record it in ``loop``.

    The reference task runs right before and right after the request; its
    mean time is the request's unit.  Raises on a failed check.
    """
    ref_before, _ = timed(reference)
    solve_s, (inst, seq, moves_text, repairs) = timed(solve, ts, case)
    verify_s, (result, replayed) = timed(verify, ts, case, moves_text) if with_verify else (0.0, (None, 0))
    ref_after, _ = timed(reference)
    ref_s = (ref_before + ref_after) / 2

    problems = []
    header = checks.moves_header(moves_text)
    if header != f"moves {case.unit_moves}":
        problems.append(f"{header!r}, expected {case.unit_moves} moves")
    if inst.kind == "tree" and len(seq.moves) > case.n - 1:
        problems.append(f"{len(seq.moves)} triples on a tree of {case.n} vertices")
    if repairs < case.gadgets:
        problems.append(f"{repairs} repairs for {case.gadgets} gadgets")
    if with_verify:
        if not result.ok:
            problems.append(f"verify failed: {result.failure}")
        elif dict(result.final.items()) != case.target:
            problems.append("verify ended away from the target configuration")
    if problems:
        raise AssertionError(f"{case.name}: " + "; ".join(problems))
    if with_verify:
        loop.verify_ms.append(verify_s * 1000.0)
    loop.ref_ms.append(ref_s * 1000.0)
    loop.solve_ms.append(solve_s * 1000.0)
    loop.request_ms.append((solve_s + verify_s) * 1000.0)
    loop.solve_rel.append(solve_s / ref_s)
    loop.request_rel.append((solve_s + verify_s) / ref_s)
    loop.vertices += case.n
    loop.replayed += replayed
    intervals = inst.kind == "intervals"
    loop.counts.append({
        "instances.input_bytes": len(case.text),
        "intervals.edges": inst.graph.edge_count if intervals else 0,
        "matching.tokens": inst.d_s.total if intervals else 0,
        "matching.cost": seq.total_length if intervals else 0,
        "tree_reconfig.unit_moves": 0 if intervals else seq.total_length,
        "tree_reconfig.triples": 0 if intervals else len(seq.moves),
        "interval_reconfig.repairs": repairs,
        "interval_reconfig.moves": seq.total_length if intervals else 0,
        "oracle.unit_moves_replayed": replayed,
    })


def closed_loop(ts, cases: list, with_verify: bool, seconds: float, reference, tracer: Tracer | None = None) -> Loop:
    """Requests one after another, in whole passes over the cases, until
    ``seconds`` have passed.  Garbage from one request is collected before
    the next starts, outside the timed calls."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        for case in cases:
            gc.collect()
            loop.attempted += 1
            try:
                if tracer is None:
                    request(ts, case, with_verify, loop, reference)
                else:
                    tracer.request += 1
                    with tracer.span("request"):
                        request(ts, case, with_verify, loop, reference)
            except Exception:  # a failed request is counted, and the loop goes on
                loop.failed += 1
                if loop.failed == 1:
                    traceback.print_exc()
        if time.perf_counter() - start >= seconds:
            return loop


def layer_metrics(ts, tracer: Tracer, traced: Loop, untraced: Loop, cases: list, extra: dict,
                  manifests: list) -> dict[str, float]:
    """Per-layer metrics: means per traced request, plus figures measured
    outside the loop and the set-up's generator times."""
    per_request = list(tracer.per_request().values())
    requests = max(len(per_request), 1)
    metrics = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        column = {"total": 0, "self": 1, "calls": 2}[kind]
        total = sum(spans[span][column] for spans in per_request if span in spans)
        metrics[metric] = total / requests / (1 if kind == "calls" else 1e6)
    for metric in COUNT_METRICS:
        metrics[metric] = statistics.fmean(c[metric] for c in traced.counts) if traced.counts else 0.0
    for name in GENERATORS:
        metrics[name + "_ms"] = statistics.median(m["timings_ms"].get(name, 0.0) for m in manifests)
    metrics.update(extra)
    metrics.update(fast_matcher(ts, cases))
    # compared in reference units, so that a drift in machine speed between
    # the two halves does not show as overhead
    extra_rel = statistics.fmean(traced.request_rel) - statistics.fmean(untraced.request_rel)
    metrics["tracing.overhead_ms"] = extra_rel * statistics.median(untraced.ref_ms + traced.ref_ms)
    return metrics


def fast_matcher(ts, cases: list) -> dict[str, float]:
    """The greedy interval matcher, which the solver does not call today, on
    every interval instance: mean time and the share of instances where its
    cost equals the expected minimum."""
    times, agree = [], 0
    for case in cases:
        inst = ts.parse_instance(case.text)
        if inst.rep is None:
            continue
        start = time.perf_counter()
        _, cost = ts.fast_match_intervals(inst.rep, inst.d_s, inst.d_t)
        times.append((time.perf_counter() - start) * 1000.0)
        agree += cost == case.unit_moves
    print(f"# matching.fast_cost_agrees base: {agree} of {len(times)} instances")
    return {
        "matching.fast_match_intervals_ms": statistics.fmean(times) if times else 0.0,
        "matching.fast_cost_agrees": agree / len(times) if times else 0.0,
    }


def latency(name: str, samples: list[float], out: dict) -> None:
    """Add ``name.p50`` and ``name.tail`` to ``out`` and say which percentile the tail is."""
    value, pct = tail(samples)
    out[f"{name}.p50"] = statistics.median(samples)
    out[f"{name}.tail"] = value
    print(f"# {name}.tail is p{pct:.1f} of {len(samples)} requests")


def end_to_end(loop: Loop, setup_times: list[float]) -> dict[str, float]:
    """The gated end-to-end metrics; prints the wall-clock figures as # lines."""
    wall: dict[str, float] = {}
    latency("solve_ms", loop.solve_ms, wall)
    latency("request_ms", loop.request_ms, wall)
    wall["solve_vertices_per_s"] = loop.vertices / (sum(loop.solve_ms) / 1000.0)
    if loop.verify_ms:
        latency("verify_ms", loop.verify_ms, wall)
        wall["verify_unit_moves_per_s"] = loop.replayed / (sum(loop.verify_ms) / 1000.0)
    wall["reference_ms.p50"] = statistics.median(loop.ref_ms)
    wall["error_rate"] = loop.failed / loop.attempted
    for name, value in wall.items():
        print(f"# {name} {value} {unit(name)}")
    gated = {"setup_s": statistics.median(setup_times)}
    latency("solve_rel", loop.solve_rel, gated)
    latency("request_rel", loop.request_rel, gated)
    gated["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return gated


UNITS = {
    "setup_s": "s",
    "solve_vertices_per_s": "vertices/s",
    "verify_unit_moves_per_s": "1/s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
    "graphs.distances_from_rows": "count",
    "instances.input_bytes": "bytes",
    "matching.fast_cost_agrees": "ratio",
}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if "_rel." in metric:
        return "ref"  # multiples of the reference task's time
    return "ms" if metric.endswith("_ms") or "_ms." in metric else "count"


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one workload of the tokenslide benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ts = import_program()
    import numpy
    import scipy

    print(f"# env python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} nproc {os.cpu_count()} usable {len(os.sched_getaffinity(0))}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_times, dirs = run_setups(args.workload, args.seed, work)
        manifests = [json.loads((d / "manifest.json").read_text(encoding="utf-8")) for d in dirs]
        problems = []
        prints = [fingerprints(d, m) for d, m in zip(dirs, manifests)]
        if any(p != prints[0] for p in prints):
            problems.append("set-ups with the same seed wrote different instance files")
        digest = hashlib.sha256("".join(f"{f} {h}\n" for f, h in prints[0].items()).encode()).hexdigest()
        print(f"# inputs {args.workload} seed {args.seed}: {len(prints[0])} files, sha256 {digest}")
        for f, h in prints[0].items():
            print(f"#   {f} {h}")
        cases, extra = expected_answers(ts, args.workload, dirs[0], manifests[0], problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with_verify = args.workload == "verify_replay"
    reference = reference_task()
    warmup = closed_loop(ts, cases[:1], with_verify, 0.0, reference)
    if args.trace:
        untraced = closed_loop(ts, cases, with_verify, args.seconds / 2, reference)
        tracer = Tracer()
        with tracer.installed(patch_points(ts)):
            traced = closed_loop(ts, cases, with_verify, args.seconds / 2, reference, tracer)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        print(f"# {len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
        loops = (warmup, untraced, traced)
    else:
        loops = (warmup, closed_loop(ts, cases, with_verify, args.seconds, reference))
    if not all(lp.request_ms for lp in loops[1:]):
        sys.exit("perfbench: every measured request failed")
    if args.trace:
        metrics = layer_metrics(ts, tracer, traced, untraced, cases, extra, manifests)
    else:
        metrics = end_to_end(loops[1], setup_times)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit(name) for name in metrics}:
        sys.exit("perfbench: the metrics measured differ from those BENCHMARK.json declares")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"# {name} {value} {unit(name)}")
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
