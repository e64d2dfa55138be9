"""Seeded inputs for the benchmark workloads, written as instance text.

Run as a script it is one set-up of a workload::

    python3 perfbench/workloads.py --workload tree_pile --seed 1 --out DIR

It imports the program, generates every instance of the workload from the
seed, writes each as an instance file in DIR and writes ``DIR/manifest.json``
listing the files and the time spent in each generator.  The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import time
from collections import defaultdict
from pathlib import Path

from common import import_program

WORKLOADS = ("tree_pile", "interval_sparse", "interval_repair", "verify_replay")

# Each workload's instances fall into an odd number of groups of similar
# cost (tree shapes, sizes, gadget counts), so the median request sits inside
# one group rather than in the gap between two, where it would jump from run
# to run.  Several instances per group average out how the seed varies them.

# tree_pile: TREE_PILE_PER_SHAPE trees of each shape, each with a pile of
# n // 10 to n // 3 tokens.  n stays well below 10^5 so that one run holds
# enough requests for a tail latency.
TREE_SHAPES = ("path", "random", "caterpillar")
TREE_PILE_N = 20_000
TREE_PILE_PER_SHAPE = 2

# verify_replay: small trees whose pile makes about this many unit moves;
# today's verifier replays about 40 000 unit moves per second at n = 300.
VERIFY_N = 300
VERIFY_PER_SHAPE = 3
VERIFY_UNIT_MOVES = 10_000

# interval_sparse: size -> instances of that size.  The middle size has the
# most, so the median averages over many instances and requests; the largest
# has enough for ten requests beyond the tail in a run.
INTERVAL_SIZES = {400: 3, 600: 9, 800: 3}

# interval_repair: distinct stuck gadgets of 8 or 9 intervals, and gadget
# count -> chains of that many gadgets, weighted like INTERVAL_SIZES.  The
# largest chains (128 gadgets) have at least 1 024 vertices.
GADGET_KINDS = 32
GADGET_SIZES = (8, 9)
GADGET_CHAINS = {8: 3, 32: 9, 128: 3}
RELABEL_TRIES = 16
# about 15 candidates yield one gadget; stop well after that
CANDIDATES_PER_GADGET = 100


class Timings:
    """Milliseconds spent per generator name, summed over the set-up."""

    def __init__(self):
        self.ms: dict[str, float] = defaultdict(float)

    def call(self, name, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ms[name] += (time.perf_counter() - t0) * 1000.0


def far_apart_ends(ts, graph) -> tuple[int, int, int]:
    """Two ends of a longest path (double BFS sweep) and their distance."""
    first = ts.distances_from(graph, 0)
    a = max(range(graph.n), key=first.__getitem__)
    from_a = ts.distances_from(graph, a)
    b = max(range(graph.n), key=from_a.__getitem__)
    return a, b, from_a[b]


def caterpillar(ts, n: int, rng: random.Random):
    """A spine of n // 2 vertices; every other vertex hangs off a random spine vertex."""
    spine = n // 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(v, rng.randrange(spine)) for v in range(spine, n)]
    return ts.Graph(n, edges)


def tree_pile(ts, timings: Timings, shape: str, n: int, rng: random.Random, pile=None, unit_moves=None):
    """A tree whose two configurations share a dominating base and differ by
    one pile of tokens at far-apart ends: pile * distance unit moves, at most
    n - 1 triples.  Give either the pile or the wanted number of unit moves."""
    from tokenslide.generators import greedy_dominating_tree, heavy_path_instance, random_tree

    if shape == "path":
        pile = pile or math.ceil(unit_moves / (n - 1))
        graph, d_s, d_t = timings.call("generators.heavy_path_instance", heavy_path_instance, n, pile)
    else:
        if shape == "random":
            graph = timings.call("generators.random_tree", random_tree, n, rng)
        else:
            graph = caterpillar(ts, n, rng)
        base = timings.call(
            "generators.greedy_dominating_tree", greedy_dominating_tree, ts.RootedTree(graph, 0)
        )
        a, b, dist = far_apart_ends(ts, graph)
        pile = pile or math.ceil(unit_moves / dist)
        d_s = ts.TokenMultiset(sorted(base) + [a] * pile)
        d_t = ts.TokenMultiset(sorted(base) + [b] * pile)
    return ts.Instance(kind="tree", graph=graph, rep=None, d_s=d_s, d_t=d_t)


def relabel(ts, rep, d_s, d_t, rng: random.Random):
    """The same gadget with its vertex ids permuted at random."""
    perm = list(range(rep.n))
    rng.shuffle(perm)
    intervals = [None] * rep.n
    for v, iv in enumerate(rep.intervals):
        intervals[perm[v]] = iv

    def move(tokens):
        return ts.TokenMultiset({perm[v]: c for v, c in tokens.items()})

    return ts.IntervalRepresentation(intervals), move(d_s), move(d_t)


def stuck_candidate(ts, rng: random.Random):
    """A small connected interval graph with two disjoint dominating pairs
    that have a minimum-cost matching under which no token can move, or None.

    Two-token matchings are the only two bijections, so a tie in their cost
    is checked directly instead of enumerating matchings.
    """
    from tokenslide.generators import random_interval_representation

    n = rng.choice(GADGET_SIZES)
    rep = random_interval_representation(n, rng, connected=True)
    g = ts.intersection_graph(rep)
    pred = ts.dominating_predicate(g)
    dist = [ts.distances_from(g, v) for v in range(n)]
    doms = [p for p in itertools.combinations(range(n), 2) if pred((1 << p[0]) | (1 << p[1]))]
    rng.shuffle(doms)
    for (a1, a2), (b1, b2) in itertools.permutations(doms, 2):
        if {a1, a2} & {b1, b2}:
            continue
        if dist[a1][b1] + dist[a2][b2] != dist[a1][b2] + dist[a2][b1]:
            continue
        d_s, d_t = ts.TokenMultiset((a1, a2)), ts.TokenMultiset((b1, b2))
        for pairs in (((a1, b1), (a2, b2)), ((a1, b2), (a2, b1))):
            m = ts.Matching(dict.fromkeys(pairs, 1))
            if ts.find_greedy_move(g, d_s, d_t, m, dist) is None:
                return rep, d_s, d_t
    return None


def solver_repairs(ts, rep, d_s, d_t) -> int:
    """How many matching repairs the interval solver fires on this instance."""
    fired = []
    ts.reconf_interval(rep, d_s, d_t, on_fix=lambda *state: fired.append(1))
    return len(fired)


def find_gadgets(ts, rng: random.Random) -> list:
    """GADGET_KINDS lone gadgets on which the solver's own matching gets stuck.

    A stuck state only shows when the assignment solver happens to pick the
    stuck matching among equal-cost ones, which depends on vertex ids, so each
    candidate is relabelled until the solver fires a repair.
    """
    gadgets = []
    for _ in range(CANDIDATES_PER_GADGET * GADGET_KINDS):
        found = stuck_candidate(ts, rng)
        if found is None:
            continue
        for _ in range(RELABEL_TRIES):
            state = relabel(ts, *found, rng)
            if solver_repairs(ts, *state):
                gadgets.append(state)
                break
        if len(gadgets) == GADGET_KINDS:
            return gadgets
    raise RuntimeError(f"gadget search found {len(gadgets)} of {GADGET_KINDS} gadgets on which the solver repairs")


def chain(ts, gadgets: list):
    """Disjoint union of the gadgets, laid side by side on the line."""
    intervals, d_s, d_t = [], {}, {}
    offset = shift = 0
    for rep, a, b in gadgets:
        intervals += [(lo + shift, hi + shift) for lo, hi in rep.intervals]
        d_s.update((v + offset, c) for v, c in a.items())
        d_t.update((v + offset, c) for v, c in b.items())
        offset += rep.n
        shift = max(hi for _, hi in intervals) + 1
    return interval_instance(ts, ts.IntervalRepresentation(intervals), ts.TokenMultiset(d_s), ts.TokenMultiset(d_t))


def interval_instance(ts, rep, d_s, d_t):
    return ts.Instance(kind="intervals", graph=ts.intersection_graph(rep), rep=rep, d_s=d_s, d_t=d_t)


def generate(ts, workload: str, seed: int, timings: Timings) -> tuple[list, list]:
    """(instances, lone gadgets) of one workload; each instance is a pair
    (Instance, manifest entry)."""
    from tokenslide.generators import gen_bench_interval_instance

    rng = random.Random(seed)
    instances, gadgets = [], []
    if workload == "tree_pile":
        for shape in TREE_SHAPES * TREE_PILE_PER_SHAPE:
            pile = rng.randint(TREE_PILE_N // 10, TREE_PILE_N // 3)
            inst = tree_pile(ts, timings, shape, TREE_PILE_N, rng, pile=pile)
            instances.append((inst, {"shape": shape, "pile": pile}))
    elif workload == "verify_replay":
        for shape in TREE_SHAPES * VERIFY_PER_SHAPE:
            inst = tree_pile(ts, timings, shape, VERIFY_N, rng, unit_moves=VERIFY_UNIT_MOVES)
            instances.append((inst, {"shape": shape}))
    elif workload == "interval_sparse":
        for n, count in INTERVAL_SIZES.items():
            for _ in range(count):
                inst = timings.call(
                    "generators.gen_bench_interval_instance",
                    gen_bench_interval_instance,
                    n,
                    rng.randrange(1 << 30),
                )
                instances.append((inst, {}))
    elif workload == "interval_repair":
        gadgets = timings.call("generators.gadget_search", find_gadgets, ts, rng)
        for count, chains in GADGET_CHAINS.items():
            for _ in range(chains):
                picks = [rng.randrange(len(gadgets)) for _ in range(count)]
                inst = chain(ts, [gadgets[i] for i in picks])
                instances.append((inst, {"gadgets": picks}))
        gadgets = [interval_instance(ts, *g) for g in gadgets]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return instances, gadgets


def main() -> None:
    parser = argparse.ArgumentParser(description="Write one set-up of a benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    ts = import_program()
    timings = Timings()
    instances, gadgets = generate(ts, args.workload, args.seed, timings)
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = {"instances": [], "gadgets": []}
    for group, items in (("instances", instances), ("gadgets", [(g, {}) for g in gadgets])):
        for i, (inst, entry) in enumerate(items):
            text = timings.call("instances.emit_instance", ts.emit_instance, inst)
            name = f"{group[0]}{i:03d}.txt"
            (args.out / name).write_text(text, encoding="utf-8")
            manifest[group].append({"file": name, "n": inst.n, **entry})
    manifest["timings_ms"] = timings.ms
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


if __name__ == "__main__":
    main()
