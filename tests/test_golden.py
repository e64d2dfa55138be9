"""Golden-bytes regression: seeded generator and solver output must not drift.

The hashes pin the exact text of ``tokenslide gen`` and ``tokenslide solve``
for a few seeded instances, the exact hitting-set instances and tree
solutions for a few seeds, the interval solver's matching-repair path on two
small instances and on a chain of stuck gadgets, its output on three
seeded benchmark instances, the sweep matcher's pairs and costs on 200
seeded representations, and the result or error of ``fix_matching`` on
1 337 seeded states.  A change that alters any random draw, any scan
order or any tie-break shows up here as a hash mismatch.
"""

import hashlib
import random
from collections import Counter

import pytest

import tokenslide as ts
from tokenslide import interval_reconfig
from tokenslide.cli import main
from tokenslide.generators import (
    gen_bench_interval_instance,
    gen_hitting_instance,
    gen_instance,
    random_interval_representation,
)
from tokenslide.instances import emit_moves

from helpers import harvest_interval_stalls


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# (kind, n, k, seed) -> (sha256 of the gen output, sha256 of the solve output)
GEN_SOLVE = {
    ("tree", 12, 4, 7): (
        "9e2d7761f05f988ff2e0a9c368a4d7dfd37d9b6473ac3850285ec68004d3af07",
        "3e2183479ab73554a4cea912561bee8203bc3647e5851e933a1ff74db51ff1f3",
    ),
    ("tree", 60, 25, 3): (
        "c9acd53077dbd5297a9ed3d6cad0ae45869b9c0f61e3eeea01399b7ab97df5b2",
        "4854eaa285b3681de9445b7ac8e94c963d0a5b1e62e8c24301ce3e152dba3fca",
    ),
    ("tree", 300, 110, 11): (
        "8a4ab0ca2a696e4332c768445301eb9267d4b4afd5e8ada4242ba0481602ed5b",
        "2b9adda1d16447c141d16bf3329f12738e9ab42adc4140dc03af6aa1ac9948f5",
    ),
    ("interval", 12, 4, 7): (
        "d92d15f5f22c4b7f59155362d3d3ef23ce0f64959327de810133a94c9dcf0dc8",
        "5a63d61911903a0a892f9eeff9bf92b4f33028d8d21eb6eb01b01b86731bb50b",
    ),
    ("interval", 40, 14, 5): (
        "a41613bfc330306813050063994e40e5bf1cfba8c10424d28516a2eaa8829390",
        "2e0772fcb7bd171fb823d4a731c617e22a2846388ff81496cd56fc5b70ffee6a",
    ),
    ("interval", 120, 40, 9): (
        "edba04ef42f40b3981d17ab71c849c7de19e11638fe4dadbffd7e45aaec2bda0",
        "6ac94e7bb99b3e4413b877f08fb63394d28ce897aac87ed40128aeea45edf40d",
    ),
}

# (n, seed) -> sha256 of the instance and its reconf_tree solution
HITTING = {
    (10, 0): "fb0b79756fabd27919a06b4e5a68dd9031026f1bd4dc3a71c8e193e14275226e",
    (40, 1): "d88ef75b6542939c65c57b27b40fefdf854b8dc3af4a08913190a56a885a00fc",
    (200, 4): "d7d883d77b11c225f0c700561a257cf04fe5dc1923acc53d29164da63da0d9c7",
}


@pytest.mark.parametrize("kind,n,k,seed", sorted(GEN_SOLVE))
def test_gen_and_solve_bytes(kind, n, k, seed, tmp_path, capsys):
    argv = ["gen", "--kind", kind, "--n", str(n), "--k", str(k), "--seed", str(seed)]
    assert main(argv) == 0
    instance = capsys.readouterr().out
    path = tmp_path / "instance.txt"
    path.write_text(instance)
    assert main(["solve", str(path)]) == 0
    moves = capsys.readouterr().out
    assert (_sha(instance), _sha(moves)) == GEN_SOLVE[kind, n, k, seed]


@pytest.mark.parametrize("n,seed", sorted(HITTING))
def test_hitting_instance_and_solution_bytes(n, seed):
    tree, system, h_s, h_t = gen_hitting_instance(n, seed)
    seq = ts.reconf_tree(tree, system, h_s, h_t)
    text = repr((tree.graph.edges(), system.sets, h_s.items(), h_t.items(), seq.moves))
    assert _sha(text) == HITTING[n, seed]


# Each instance fires exactly one matching repair, on its start state:
# (instance text, sha256 of the solve output, stuck matching, repaired matching)
REPAIR = [
    (
        "intervals 9\n0 6 15\n1 12 17\n2 3 10\n3 2 5\n4 11 16\n5 13 14\n6 4 8\n7 1 7\n8 9 18\n"
        "tokens 2: 6 8\ntokens 2: 0 2\n",
        "f92ae0c3b1dcd53d93e33542500238c61caa90271954832f9b8d7ffe65e12629",
        {(6, 0): 1, (8, 2): 1},
        {(6, 2): 1, (8, 0): 1},
    ),
    (
        "intervals 9\n0 1 11\n1 9 17\n2 5 16\n3 2 4\n4 12 15\n5 8 10\n6 3 6\n7 14 18\n8 7 13\n"
        "tokens 2: 1 6\ntokens 2: 0 2\n",
        "216197e54cf6ecdd47e210d06aaea5721be4cecf832bfbb709e980554f183b56",
        {(1, 0): 1, (6, 2): 1},
        {(1, 2): 1, (6, 0): 1},
    ),
]

# seed -> sha256 of the emitted reconf_interval solution of gen_bench_interval_instance(200, seed)
BENCH_INTERVAL = {
    81: "b068cd00e62a2aeadeca65aed6dfe52f20484c6a181206f60a20da4b810111cf",
    82: "0c2b277dae827a4a6a631f8a96581437522d27c9bd6997fd339a684e8102ac13",
    83: "ea8f18753d817bc8d4b621dbdaf2da802580128428faf31ea982f8e8a7c2aef1",
}


@pytest.mark.parametrize("text,moves_sha,stuck,repaired", REPAIR)
def test_repair_path_bytes(text, moves_sha, stuck, repaired, tmp_path, capsys, monkeypatch):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    real_fix = interval_reconfig.fix_matching
    handed = []

    def recording(rep, g, d_s, d_t, m, _dist=None):
        handed.append((d_s, d_t, m))
        return real_fix(rep, g, d_s, d_t, m, _dist=_dist)

    monkeypatch.setattr(interval_reconfig, "fix_matching", recording)
    assert main(["solve", str(path)]) == 0
    assert _sha(capsys.readouterr().out) == moves_sha
    inst = ts.parse_instance(text)
    assert handed == [(inst.d_s, inst.d_t, ts.Matching(stuck))]
    direct = real_fix(inst.rep, inst.graph, inst.d_s, inst.d_t, ts.Matching(stuck))
    assert direct == ts.Matching(repaired)


@pytest.mark.parametrize("seed", sorted(BENCH_INTERVAL))
def test_bench_interval_solution_bytes(seed):
    inst = gen_bench_interval_instance(200, seed)
    seq = ts.reconf_interval(inst.rep, inst.d_s, inst.d_t)
    assert _sha(emit_moves(list(seq.moves), seq.total_length)) == BENCH_INTERVAL[seed]


# Three stuck gadgets from perfbench's gadget search (workload interval_repair,
# seed 7), laid side by side with its ``chain``.  The solver repairs once per
# gadget; the first repair has source surplus at the first-ending vertex of
# the symmetric difference, the other two target surplus, so both
# orientations of ``fix_matching`` run, the later ones with self pairs.
GADGET_CHAIN = (
    "intervals 26\n0 6 15\n1 12 17\n2 3 10\n3 2 5\n4 11 16\n5 13 14\n6 4 8\n7 1 7\n8 9 18\n"
    "9 23 27\n10 25 30\n11 31 37\n12 22 33\n13 28 34\n14 32 36\n15 26 35\n16 21 29\n17 20 24\n"
    "18 39 43\n19 44 47\n20 42 49\n21 46 52\n22 50 53\n23 45 54\n24 40 51\n25 41 48\n"
    "tokens 6: 6 8 15 16 20 21\ntokens 6: 0 2 9 13 23 25\n"
)
# (sha256 of the solve output, sha256 of the on_fix sequence)
GADGET_CHAIN_SHA = (
    "0118679939dcb5a6131e6b3e7958b6149daa604be5ddb35719f57ce90a3fb11a",
    "20f091f215dfb6590de5478cf37432b1030e007f3957bd5606eff1c841a8e0e0",
)


def test_gadget_chain_repairs_bytes(tmp_path, capsys):
    path = tmp_path / "instance.txt"
    path.write_text(GADGET_CHAIN)
    assert main(["solve", str(path)]) == 0
    moves = capsys.readouterr().out
    inst = ts.parse_instance(GADGET_CHAIN)
    fixes, surplus_sides = [], []

    def on_fix(d_s, d_t, m):
        fixes.append((d_s.items(), d_t.items(), m.items()))
        v = min(d_s.symmetric_difference(d_t).support, key=inst.rep.right)
        surplus_sides.append("target" if d_t.count(v) > d_s.count(v) else "source")

    ts.reconf_interval(inst.rep, inst.d_s, inst.d_t, on_fix=on_fix)
    assert set(surplus_sides) == {"source", "target"}
    assert (_sha(moves), _sha(repr(fixes))) == GADGET_CHAIN_SHA


def _fast_match_case(seed):
    """A seeded representation and two token lists for the sweep matcher.

    One seed in three lays two or three connected blocks side by side.  On
    odd such seeds each token of b lands in the block of its partner in a,
    so the cost is finite; on even ones tokens are mostly stranded.
    """
    rng = random.Random(seed)
    spread = (None, 0.5, 2.0, 8.0)[seed % 4]
    if seed % 3:
        n = rng.randrange(2, 60)
        rep = random_interval_representation(n, rng, connected=seed % 3 == 1, spread=spread)
        k = rng.randrange(1, n + 1)
        a = [rng.randrange(n) for _ in range(k)]
        return rep, a, [rng.randrange(n) for _ in range(k)]
    intervals, blocks = [], []
    for _ in range(rng.randrange(2, 4)):
        block = random_interval_representation(rng.randrange(1, 20), rng, spread=spread)
        shift = 2 * len(intervals)
        blocks.append(range(len(intervals), len(intervals) + block.n))
        intervals += [(lo + shift, hi + shift) for lo, hi in block.intervals]
    ids = list(range(len(intervals)))
    rng.shuffle(ids)
    rep = ts.IntervalRepresentation(intervals[i] for i in ids)
    new_id = {old: new for new, old in enumerate(ids)}
    k = rng.randrange(1, len(intervals) + 1)
    a = [rng.randrange(len(intervals)) for _ in range(k)]
    if seed % 2:
        b = [rng.choice(next(bl for bl in blocks if x in bl)) for x in a]
    else:
        b = [rng.randrange(len(intervals)) for _ in range(k)]
    return rep, [new_id[x] for x in a], [new_id[x] for x in b]


# sha256 of the (sorted pairs or None, cost) list over seeds 0..199; 33 of
# the 200 cases are unreachable
FAST_MATCH_SHA = "958b87d024872540ec5d380331f78476696cd15a8062aa417da64c543292fd00"


def test_fast_match_intervals_bytes():
    out = []
    for seed in range(200):
        rep, a, b = _fast_match_case(seed)
        m, cost = ts.fast_match_intervals(rep, ts.TokenMultiset(a), ts.TokenMultiset(b))
        out.append((None if m is None else m.items(), cost))
    assert sum(cost is None for _, cost in out) == 33
    assert _sha(repr(out)) == FAST_MATCH_SHA


def _tokens(multiset):
    return [v for v, c in multiset.items() for _ in range(c)]


def _stacked(rep, g, d_s, d_t, m):
    """The state with one more token on each side on the first-ending vertex
    whose counts differ, so that the repair's v carries a self pair."""
    v = min(d_s.symmetric_difference(d_t).support, key=rep.right)
    one = ts.TokenMultiset([v])
    pairs = Counter(m.pairs) + Counter({(v, v): 1})
    return rep, g, d_s.union(one), d_t.union(one), ts.Matching(pairs)


def _fix_matching_states():
    """Seeded inputs for ``fix_matching``: the harvested stuck states and
    their transposes, then small random interval instances, each with a
    minimum, an arbitrary and a wrong-marginal matching, and with a random,
    often non-dominating, configuration on either side.  Every state with
    a minimum matching and unequal sides also comes with a token stacked on
    the repair's v."""
    states = []
    for rep, g, d_s, d_t, m in harvest_interval_stalls(max_states=6):
        for state in ((rep, g, d_s, d_t, m), (rep, g, d_t, d_s, m.inverse())):
            states += [state, _stacked(*state)]
    rng = random.Random(8)
    for seed in range(200):
        n = rng.randrange(3, 13)
        try:
            inst = gen_instance("interval", n, rng.randrange(1, min(n - 1, 5) + 1), seed)
        except ts.InputError:
            continue
        rep, g, d_s, d_t = inst.rep, inst.graph, inst.d_s, inst.d_t
        left, right = _tokens(d_s), _tokens(d_t)
        rng.shuffle(right)
        shuffled = Counter(zip(left, right))
        wrong = shuffled.copy()
        wrong[left[0], right[0]] -= 1
        if seed % 2:
            wrong[(left[0] + 1) % n, right[0]] += 1
        else:
            wrong[left[0], (right[0] + 1) % n] += 1
        other = ts.TokenMultiset(rng.randrange(n) for _ in left)
        to_other = ts.Matching(Counter(zip(_tokens(other), right)))
        minimum = (rep, g, d_s, d_t, ts.min_cost_matching(g, d_s, d_t)[0])
        arbitrary = (rep, g, d_s, d_t, ts.Matching(shuffled))
        if d_s != d_t:
            states += [_stacked(*minimum), _stacked(*arbitrary)]
        states += [
            minimum,
            arbitrary,
            (rep, g, d_s, d_t, ts.Matching(+wrong)),
            (rep, g, other, d_t, to_other),
            (rep, g, d_t, other, to_other.inverse()),
        ]
    # v's self pair is no partner: trying it would take another exchange here
    rep = ts.IntervalRepresentation([(1, 6), (2, 5), (3, 8), (4, 7)])
    left, right = [2, 3, 2, 3, 1], [1, 1, 0, 0, 1]
    d_s, d_t = ts.TokenMultiset(left), ts.TokenMultiset(right)
    states.append((rep, ts.intersection_graph(rep), d_s, d_t, ts.Matching(Counter(zip(left, right)))))
    return states


def _outcome(state):
    """The repaired pairs, or the error class and text, of one repair."""
    try:
        return interval_reconfig.fix_matching(*state).items()
    except Exception as exc:  # the error is part of the pinned behaviour
        return f"{type(exc).__name__}: {exc}"


# outcome -> how many of the states end in it, and the sha256 of every outcome
FIX_MATCHING_KINDS = {
    "repaired": 815,
    "InputError": 166,
    "MatchingError": 156,
    "InvariantError": 118,
    "FeasibilityError": 82,
}
FIX_MATCHING_SHA = "d758833af4689eab7b72bd5ea5c9e46cda08084621a1aa3d877b30fa14a919e3"


def test_fix_matching_bytes():
    out = [_outcome(state) for state in _fix_matching_states()]
    kinds = Counter(o.split(":")[0] if isinstance(o, str) else "repaired" for o in out)
    assert kinds == FIX_MATCHING_KINDS
    assert _sha(repr(out)) == FIX_MATCHING_SHA
