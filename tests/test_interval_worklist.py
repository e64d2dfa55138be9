"""The interval solver's worklist against a full greedy scan.

``interval_reconfig._Worklist.first`` must return what ``_full_scan``, a
test-local rescan of every pair, returns on the same pairs and trackers at
every step of the greedy loop, stuck steps included; these tests run the
loop with both and compare.  ``find_greedy_move`` is the worklist built
fresh, so it is held against the same reference.  A counting test checks
that the shortest-path step lookups grow about linearly with the number of
stuck gadgets, where a rescan after every move and repair grows
quadratically, and a guard checks that one repair reads the N[.] table only
near the vertex it repairs at.  A property test holds the loop's output to
the run-length encoding of the slides it applies.  Two more check what a
repair is handed: the loop's configurations and matching, as copies that
later slides leave alone, built with no pass over the dense count lists,
and a repair reads the pairs' ends once.
"""

import random
from collections import Counter
from functools import partial

import pytest

import tokenslide as ts
from tokenslide import interval_reconfig, matching
from tokenslide.generators import (
    gen_bench_interval_instance,
    gen_instance,
    heavy_path_instance,
    random_interval_representation,
    random_token_multiset,
)
from tokenslide.graphs import (
    Coverage,
    Distances,
    closed_neighborhoods,
    distances_from,
    steps_toward,
)
from tokenslide.interval_reconfig import find_greedy_move

from helpers import (
    harvest_interval_stalls,
    harvest_repair_gadgets,
    has_maximal_runs,
    iter_interval_instances,
    run_length,
    side_by_side,
)
from test_golden import GADGET_CHAIN, REPAIR


def _full_scan(g, dist, pairs, cover_s, cover_t):
    """First feasibility-preserving slide along the matching, source side
    first: every pair in sorted order, rescanned from the start."""
    ordered = sorted(pairs)
    for u, v in ordered:
        if u != v:
            for u2 in steps_toward(g, u, dist[v]):
                if cover_s.can_slide(u, u2):
                    return ("s", u, u2, v)
    for u, v in ordered:
        if u != v:
            for v2 in steps_toward(g, v, dist[u]):
                if cover_t.can_slide(v, v2):
                    return ("t", v, v2, u)
    return None


@pytest.fixture
def steps(monkeypatch):
    """Make every ``first()`` call also run ``_full_scan`` and assert that both
    agree; counts the moving and the stuck steps."""
    real = interval_reconfig._Worklist.first
    seen = Counter()

    def checked(self):
        found = real(self)
        assert found == _full_scan(self.g, self.dist, self.pairs, *self.covers)
        seen["stuck" if found is None else "moved"] += 1
        return found

    monkeypatch.setattr(interval_reconfig._Worklist, "first", checked)
    return seen


def _solve_checked(rep, d_s, d_t):
    seq = ts.reconf_interval(rep, d_s, d_t)
    g = ts.intersection_graph(rep)
    assert seq.total_length == ts.min_cost_matching(g, d_s, d_t)[1]
    assert ts.verify_sequence(g, ts.dominating_predicate(g), d_s, seq) == (True, d_t, None)


@pytest.mark.parametrize(
    "text",
    [pytest.param(GADGET_CHAIN, id="gadget-chain")]
    + [pytest.param(case[0], id=f"repair-{i}") for i, case in enumerate(REPAIR)],
)
def test_first_is_the_scan_on_the_repair_fixtures(text, steps):
    inst = ts.parse_instance(text)
    _solve_checked(inst.rep, inst.d_s, inst.d_t)
    assert steps["stuck"] >= 1 and steps["moved"] >= 1


@pytest.mark.parametrize("seed", [81, 82, 83])
def test_first_is_the_scan_on_bench_instances(seed, steps):
    inst = gen_bench_interval_instance(200, seed)
    _solve_checked(inst.rep, inst.d_s, inst.d_t)
    assert steps["moved"] >= 1


def test_first_is_the_scan_on_random_instances(steps):
    for inst in iter_interval_instances(200, 9001, max_n=14, max_k=5):
        _solve_checked(inst.rep, inst.d_s, inst.d_t)
    assert steps["moved"] >= 200


def test_first_is_the_scan_from_harvested_stalls(steps):
    """The loop started on a stuck minimum matching, in both orientations:
    it repairs first and still emits exactly the matching cost."""
    for rep, g, d_s, d_t, m in harvest_interval_stalls(max_states=6):
        for a, b, start in ((d_s, d_t, m), (d_t, d_s, m.inverse())):
            hits = closed_neighborhoods(g)
            cost = ts.matching_cost(g, start)
            seq = interval_reconfig._greedy_moves(
                rep, g, Distances(g), (a, b), (Coverage(hits, g.n, a), Coverage(hits, g.n, b)),
                start.pairs, cost, None,
            )
            assert seq.total_length == cost
            assert ts.verify_sequence(g, ts.dominating_predicate(g), a, seq) == (True, b, None)
    assert steps["stuck"] >= 12


def _path_pile(n):
    """``heavy_path_instance(n, n // 10)`` with vertex v drawn as [2v, 2v + 3)."""
    _, d_s, d_t = heavy_path_instance(n, n // 10)
    return ts.IntervalRepresentation([(2 * v, 2 * v + 3) for v in range(n)]), d_s, d_t


def _run_cases():
    """(rep, d_s, d_t, solve) for the run-length property test: seeded random
    instances, many with stacked tokens, path piles drawn as intervals,
    benchmark instances and the gadget chain through ``reconf_interval``,
    then the harvested stuck states in both orientations through
    ``_greedy_moves``."""
    chain_inst = ts.parse_instance(GADGET_CHAIN)
    instances = [
        *((i.rep, i.d_s, i.d_t) for i in iter_interval_instances(1900, 3201, max_n=12, max_k=6)),
        *(_path_pile(n) for n in range(6, 121)),
        *((i.rep, i.d_s, i.d_t) for i in map(gen_bench_interval_instance, [200] * 4, range(81, 85))),
        (chain_inst.rep, chain_inst.d_s, chain_inst.d_t),
    ]
    for rep, d_s, d_t in instances:
        yield rep, d_s, d_t, partial(ts.reconf_interval, rep, d_s, d_t)
    for rep, g, d_s, d_t, m in harvest_interval_stalls(max_states=6):
        hits = closed_neighborhoods(g)
        for a, b, start in ((d_s, d_t, m), (d_t, d_s, m.inverse())):
            covers = Coverage(hits, g.n, a), Coverage(hits, g.n, b)
            cost = ts.matching_cost(g, start)
            yield rep, a, b, partial(
                interval_reconfig._greedy_moves, rep, g, Distances(g), (a, b), covers, start.pairs, cost, None
            )


def test_moves_are_the_slides_run_length_encoded(monkeypatch):
    """The loop's runs are the run-length encoding of its slides: the source
    slides (a, a2) in order, then the target slides as (a2, a) in reverse
    order.  The length is the matching cost and no two consecutive triples
    share (u, v)."""
    real = interval_reconfig._Worklist.slide
    slides = []

    def recording(self, side, a, a2, goal):
        slides.append((side, a, a2))
        real(self, side, a, a2, goal)

    monkeypatch.setattr(interval_reconfig._Worklist, "slide", recording)
    cases = stacked = merged = 0
    for rep, d_s, d_t, solve in _run_cases():
        slides.clear()
        seq = solve()
        front = [(a, a2) for side, a, a2 in slides if side == "s"]
        back = [(a2, a) for side, a, a2 in slides if side == "t"]
        assert seq.moves == run_length(front + back[::-1])
        g = ts.intersection_graph(rep)
        assert seq.total_length == ts.min_cost_matching(g, d_s, d_t)[1] == len(slides)
        assert has_maximal_runs(seq.moves)
        cases += 1
        stacked += max(d_s.count(v) for v in d_s.support) > 1
        merged += len(seq.moves) < len(slides)
    assert cases >= 2000 and stacked >= 700 and merged >= 250


def _random_pairs(rng, cs, ct):
    """A random matching between two dense count lists."""
    right = [v for v, c in enumerate(ct) for _ in range(c)]
    rng.shuffle(right)
    return dict(Counter(zip((v for v, c in enumerate(cs) for _ in range(c)), right)))


def _random_covers(seed):
    """A seeded random interval graph, the trackers of two random dominating
    multisets of one size, often with stacked tokens, and the generator
    that drew them; None when 60 draws hold no two dominating ones."""
    rng = random.Random(seed)
    n = rng.randrange(4, 18)
    rep = random_interval_representation(
        n, rng, connected=rng.random() < 0.8, spread=rng.choice((None, 1.5, 3.0))
    )
    g = ts.intersection_graph(rep)
    hits = closed_neighborhoods(g)
    k = rng.randrange(1, n + 1)
    covers = [Coverage(hits, n, random_token_multiset(n, k, rng)) for _ in range(60)]
    covers = [cover for cover in covers if cover.feasible][:2]
    return (rng, g, covers) if len(covers) == 2 else None


def test_first_is_the_scan_under_random_matchings():
    """Slides and hand-overs of arbitrary matchings, not only minimum ones,
    on stacked tokens: this reaches blocked pairs on both sides, which the
    solver's own runs rarely do."""
    stuck = 0
    for seed in range(400):
        drawn = _random_covers(seed)
        if drawn is None:
            continue
        rng, g, covers = drawn
        cs, ct = covers[0].counts, covers[1].counts
        work = interval_reconfig._Worklist(g, Distances(g), _random_pairs(rng, cs, ct), *covers)
        for _ in range(80):
            found = work.first()
            assert found == _full_scan(g, work.dist, work.pairs, *covers)
            if found is None or rng.random() < 0.05:
                stuck += found is None
                work.rematch(_random_pairs(rng, cs, ct))
            else:
                work.slide(*found)
    assert stuck >= 100


def _greedy_states():
    """Harvested stuck states in both orientations, then the states of short
    greedy walks from seeded random matchings, not only minimum ones,
    between dominating multisets."""
    for _, g, d_s, d_t, m in harvest_interval_stalls(max_states=6):
        yield g, d_s, d_t, m
        yield g, d_t, d_s, m.inverse()
    for seed in range(100):
        drawn = _random_covers(seed)
        if drawn is None:
            continue
        rng, g, covers = drawn
        cs, ct = covers[0].counts, covers[1].counts
        work = interval_reconfig._Worklist(g, Distances(g), _random_pairs(rng, cs, ct), *covers)
        for _ in range(8):
            d_s, d_t = ts.TokenMultiset.from_counts_list(cs), ts.TokenMultiset.from_counts_list(ct)
            yield g, d_s, d_t, ts.Matching(work.pairs)
            found = work.first()
            if found is None:
                work.rematch(_random_pairs(rng, cs, ct))
            else:
                work.slide(*found)


def test_find_greedy_move_is_the_scan():
    """The reference scan's answer for every form of ``dist``: None, a
    ``Distances`` and the list of BFS rows the gadget search passes; the
    matching and both multisets are left as they were."""
    found = Counter()
    for g, d_s, d_t, m in _greedy_states():
        hits = closed_neighborhoods(g)
        expected = _full_scan(
            g, Distances(g), m.pairs, Coverage(hits, g.n, d_s), Coverage(hits, g.n, d_t)
        )
        before = (m.items(), d_s.key(), d_t.key())
        rows = [distances_from(g, v) for v in range(g.n)]
        for dist in (None, Distances(g), rows):
            assert find_greedy_move(g, d_s, d_t, m, dist) == expected
            assert (m.items(), d_s.key(), d_t.key()) == before
        found["stuck" if expected is None else expected[0]] += 1
    assert found["stuck"] >= 100 and found["s"] >= 300 and found["t"] >= 5


PATH4 = ts.IntervalRepresentation([(1, 4), (3, 6), (5, 8), (7, 10)])


@pytest.mark.parametrize(
    "pairs, error, message",
    [
        ({(1, 3): 5}, ts.MatchingError, "^source marginals"),
        ({(3, 0): 1, (1, 2): 1}, ts.MatchingError, "^source marginals"),
        ({(0, 1): 1, (2, 2): 1}, ts.MatchingError, "^target marginals"),
        ({(0, 1): 1, (2, 4): 1}, ts.InputError, r"^pair \(2, 4\) has a vertex outside the graph$"),
        ({(-4, 1): 1, (2, 3): 1}, ts.InputError, r"^pair \(-4, 1\) has a vertex outside the graph$"),
        ({(0, -1): 1, (2, 1): 1}, ts.InputError, r"^pair \(0, -1\) has a vertex outside the graph$"),
    ],
    ids=["overfull", "swapped", "target", "past-n", "negative-source", "negative-target"],
)
def test_find_greedy_move_rejects_a_matching_between_other_multisets(pairs, error, message):
    """A negative vertex would index from the end of a count list and
    balance it; it is refused before it can, as invalid input with
    ``matching_cost``'s text, while wrong marginals are a MatchingError."""
    g = ts.intersection_graph(PATH4)
    d_s, d_t = ts.TokenMultiset([0, 2]), ts.TokenMultiset([1, 3])
    assert find_greedy_move(g, d_s, d_t, ts.Matching({(0, 1): 1, (2, 3): 1})) == ("s", 0, 1, 1)
    with pytest.raises(error, match=message) as raised:
        find_greedy_move(g, d_s, d_t, ts.Matching(pairs))
    assert type(raised.value) is error
    if error is ts.InputError:
        with pytest.raises(ts.InputError, match=message):
            ts.matching_cost(g, ts.Matching(pairs))


def test_find_greedy_move_rejects_multisets_of_different_sizes():
    """Checked before the marginals, so the CLI reports invalid input, not
    an internal MatchingError."""
    g = ts.intersection_graph(PATH4)
    m = ts.Matching({(0, 1): 1, (2, 3): 1})
    with pytest.raises(ts.SizeMismatchError, match="^token multisets differ in size: 2 vs 3$"):
        find_greedy_move(g, ts.TokenMultiset([0, 2]), ts.TokenMultiset([1, 3, 3]), m)


def _gadget_copies(copies):
    """``copies`` copies of GADGET_CHAIN's three gadgets side by side."""
    base = ts.parse_instance(GADGET_CHAIN)
    return side_by_side([(base.rep, base.d_s, base.d_t)] * copies)


def test_step_lookups_grow_linearly_with_the_gadget_count(monkeypatch):
    real = interval_reconfig.steps_toward
    calls = Counter()

    def counting(g, u, row):
        calls[g.n] += 1
        return real(g, u, row)

    monkeypatch.setattr(interval_reconfig, "steps_toward", counting)
    lookups, repairs = {}, {}
    for copies in (8, 32):
        rep, d_s, d_t = _gadget_copies(copies)
        fixes = []
        seq = ts.reconf_interval(rep, d_s, d_t, on_fix=lambda *state: fixes.append(1))
        assert seq.total_length == 6 * copies
        lookups[copies], repairs[copies] = calls[rep.n], len(fixes)
    assert repairs == {8: 24, 32: 96}
    # 4x the gadgets: a rescan of every pair after every move and repair
    # makes about 16x the lookups
    assert lookups[32] <= 5 * lookups[8]


def test_a_repair_reads_only_around_v(monkeypatch):
    """A repair builds no tracker of the whole configuration, and on a fresh
    graph it builds N[.] only for the source side's support and for the
    vertices within distance 2 of v, in both orientations."""
    rep, d_s, d_t = _gadget_copies(8)
    real = interval_reconfig.fix_matching
    stuck = []

    def recording(rep, g, d_s, d_t, m, _dist=None):
        stuck.append((d_s, d_t, m.pairs))
        return real(rep, g, d_s, d_t, m, _dist=_dist)

    monkeypatch.setattr(interval_reconfig, "fix_matching", recording)
    ts.reconf_interval(rep, d_s, d_t)
    assert len(stuck) == 24
    trackers = []
    real_init = Coverage.__init__

    def counting(self, *args):
        trackers.append(args)
        real_init(self, *args)

    monkeypatch.setattr(Coverage, "__init__", counting)
    sides = set()
    for s, t, pairs in stuck:
        fresh = ts.IntervalRepresentation(rep.intervals)
        g = ts.intersection_graph(fresh)
        m = ts.Matching(pairs)
        repaired = real(fresh, g, s, t, m)
        assert ts.matching_cost(g, repaired) == ts.matching_cost(g, m)
        v = min(s.symmetric_difference(t).support, key=rep.right)
        source = t if t.count(v) > s.count(v) else s
        sides.add(source is t)
        row = distances_from(g, v)
        near = {x for x in range(g.n) if 0 <= row[x] <= 2}
        built = closed_neighborhoods(g).keys()
        assert built <= source.support | near
        assert len(built) < g.n / 2
    assert sides == {False, True}
    assert trackers == []


def test_a_repair_makes_no_pass_over_the_graph(monkeypatch):
    """A 32-gadget solve (n = 768, 96 repairs) builds no multiset from a
    dense count list, and each repair reads the pairs' ends once: the
    marginal check, the normalisation and the search for v share them."""
    rep, d_s, d_t = _gadget_copies(32)
    calls = Counter()
    real_dense = ts.TokenMultiset.from_counts_list.__func__

    def dense(cls, counts):
        calls["from_counts_list"] += 1
        return real_dense(cls, counts)

    monkeypatch.setattr(ts.TokenMultiset, "from_counts_list", classmethod(dense))
    real_ends = matching._pair_ends

    def ends(pairs):
        calls["_pair_ends"] += 1
        return real_ends(pairs)

    monkeypatch.setattr(matching, "_pair_ends", ends)
    real_fix = interval_reconfig.fix_matching
    per_repair = []

    def counting(rep, g, d_s, d_t, m, _dist=None):
        before = calls["_pair_ends"]
        repaired = real_fix(rep, g, d_s, d_t, m, _dist=_dist)
        per_repair.append(calls["_pair_ends"] - before)
        return repaired

    monkeypatch.setattr(interval_reconfig, "fix_matching", counting)
    seq = ts.reconf_interval(rep, d_s, d_t)
    assert seq.total_length == 6 * 32
    assert len(per_repair) == 96 and max(per_repair) == 1
    assert calls["from_counts_list"] == 0


# its first slide is on the target side, before its one repair
TARGET_FIRST = (
    ts.IntervalRepresentation(
        [(1, 4), (2, 6), (3, 7), (5, 10), (8, 14), (9, 12), (11, 16), (13, 20), (15, 19), (17, 18)]
    ),
    ts.TokenMultiset([1, 6, 7]),
    ts.TokenMultiset([1, 3, 8]),
)


def _bookkeeping_cases():
    """(rep, d_s, d_t): seeded ``gen --kind interval`` instances with n =
    6-80, chains of 1-16 gadgets (the harvested ones and TARGET_FIRST) and
    path piles drawn as intervals."""
    rng = random.Random(3701)
    for seed in range(1500):
        n = rng.randrange(6, 81)
        try:
            inst = gen_instance("interval", n, rng.randrange(max(1, n // 4), n // 2 + 1), seed)
        except ts.InputError:  # no dominating set of that size
            continue
        yield inst.rep, inst.d_s, inst.d_t
    gadgets = (*harvest_repair_gadgets(), TARGET_FIRST)
    for _ in range(500):
        yield side_by_side(rng.choice(gadgets) for _ in range(rng.randrange(1, 17)))
    for n in range(6, 126):
        yield _path_pile(n)


def test_a_repair_is_handed_the_loop_state_as_copies(monkeypatch):
    """At every repair, the multisets handed to ``fix_matching`` and to
    ``on_fix`` are the trackers' configurations and the matching handed
    over is one between them; once the solve is over, each of these
    objects and the repaired matching still equals what it was then, so
    none of them is a view of the loop's state."""
    works = []
    real_init = interval_reconfig._Worklist.__init__

    def init(self, *args):
        real_init(self, *args)
        works.append(self)

    monkeypatch.setattr(interval_reconfig._Worklist, "__init__", init)
    real_fix = interval_reconfig.fix_matching
    handed = []

    def trackers():
        counts_s, counts_t = (cover.counts for cover in works[-1].covers)
        return ts.TokenMultiset.from_counts_list(counts_s), ts.TokenMultiset.from_counts_list(counts_t)

    def recording(rep, g, d_s, d_t, m, _dist=None):
        assert (d_s, d_t) == trackers()
        m.validate_between(d_s, d_t)
        copies = ts.TokenMultiset(dict(d_s.items())), ts.TokenMultiset(dict(d_t.items())), ts.Matching(m.pairs)
        handed.append((d_s, d_t, m, *copies))
        return real_fix(rep, g, d_s, d_t, m, _dist=_dist)

    monkeypatch.setattr(interval_reconfig, "fix_matching", recording)
    cases = repaired = 0
    for rep, d_s, d_t in _bookkeeping_cases():
        handed.clear()
        fixed = []

        def on_fix(a, b, m):
            assert (a, b) == trackers() == handed[-1][:2]
            fixed.append((m, ts.Matching(m.pairs)))

        seq = ts.reconf_interval(rep, d_s, d_t, on_fix=on_fix)
        assert len(fixed) == len(handed)
        for a, b, m, a_then, b_then, m_then in handed:
            assert (a, b, m) == (a_then, b_then, m_then)
            assert (a.total, b.total, m.total) == (a_then.total, b_then.total, m_then.total)
        for m, m_then in fixed:
            assert m == m_then and m.total == m_then.total
        g = ts.intersection_graph(rep)
        assert seq.total_length == ts.min_cost_matching(g, d_s, d_t)[1]
        cases += 1
        repaired += bool(handed)
    assert cases >= 2000 and repaired >= 400
