"""Exact pc search: existence queries, optimal values, sampling refuter."""

import itertools
import random

import pytest

from properconn import (
    EdgeColoring,
    PreconditionError,
    SearchBudgetExceeded,
    build_counterexample,
    corpus,
    exists_pc_coloring,
    has_strong_property,
    is_proper_connected,
    pc_exact,
    sample_refute,
)
from properconn import coloring, solver
from properconn.graph import connectivity

import oracles


class TestExistsPcColoring:
    def test_k4_one_color(self):
        g = corpus.complete(4)
        c = exists_pc_coloring(g, 1)
        assert c is not None and c.colors_used() == 1
        assert is_proper_connected(g, c) == (True, None)

    def test_p3_needs_two(self):
        g = corpus.path_graph(3)
        assert exists_pc_coloring(g, 1) is None
        c = exists_pc_coloring(g, 2)
        assert c is not None
        assert is_proper_connected(g, c) == (True, None)

    def test_c7_two_colors(self):
        g = corpus.cycle(7)
        c = exists_pc_coloring(g, 2)
        assert c is not None
        assert is_proper_connected(g, c) == (True, None)

    def test_strong_variant(self):
        c = exists_pc_coloring(corpus.cycle(4), 2, require_strong=True)
        assert c is not None
        chk = has_strong_property(corpus.cycle(4), c)
        assert chk.ok
        # trees have one path per pair, so no palette can be strong
        assert exists_pc_coloring(corpus.path_graph(3), 2, require_strong=True) is None

    def test_budget_is_inconclusive_not_absent(self):
        g = corpus.petersen()
        with pytest.raises(SearchBudgetExceeded) as ei:
            exists_pc_coloring(g, 2, budget_nodes=5)
        assert ei.value.k == 2 and ei.value.nodes >= 5

    def test_matches_brute_force_two_colors(self):
        # Symmetry reduction must not change the verdict: sweep every
        # connected graph on <= 5 vertices against the unreduced oracle.
        for n in range(2, 6):
            for g in corpus.connected_graphs(n):
                got = exists_pc_coloring(g, 2)
                want = oracles.brute_exists_pc_2coloring(g)
                assert (got is not None) == want
                if got is not None:
                    assert is_proper_connected(g, got) == (True, None)

    def test_monotone_in_palette_size(self):
        rng = random.Random(19)
        for _ in range(25):
            n = rng.randint(3, 7)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n - 1, min(m_hi, n + 3)), rng)
            for k in (1, 2, 3):
                if exists_pc_coloring(g, k) is not None:
                    assert exists_pc_coloring(g, k + 1) is not None


class TestPcExact:
    def test_stars(self):
        for m in range(2, 6):
            res = pc_exact(corpus.star(m))
            assert res.value == m
            assert res.evidence == "exhaustive"
            assert is_proper_connected(corpus.star(m), res.coloring) == (True, None)

    def test_trees_need_max_degree(self):
        for n in range(2, 7):
            for t in corpus.trees(n):
                delta = max(t.degree(v) for v in range(t.n))
                assert pc_exact(t).value == delta

    def test_cycles(self):
        for n in range(4, 9):
            assert pc_exact(corpus.cycle(n)).value == 2

    def test_complete_graphs(self):
        for n in range(3, 7):
            assert pc_exact(corpus.complete(n)).value == 1

    def test_petersen(self):
        res = pc_exact(corpus.petersen())
        assert res.value == 2
        assert is_proper_connected(corpus.petersen(), res.coloring) == (True, None)

    def test_matches_brute_force(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 5)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n - 1, m_hi), rng)
            assert pc_exact(g).value == oracles.brute_pc_exact(g, 4)

    def test_stats_accumulate(self):
        res = pc_exact(corpus.cycle(5))
        assert res.stats["nodes"] > 0
        assert set(res.stats["per_k"]) == {1, 2}

    def test_budget_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            pc_exact(corpus.petersen(), budget_nodes=3)

    def test_budget_counts_every_palette_size(self, mini):
        # k=1 spends 7 nodes; k=2 stops one node past the 4,993 left
        with pytest.raises(SearchBudgetExceeded) as ei:
            pc_exact(mini, budget_nodes=5000)
        assert (ei.value.k, ei.value.lower, ei.value.nodes) == (2, 2, 5001)

    def test_disconnected_rejected(self):
        from properconn import Graph

        with pytest.raises(PreconditionError, match="connected"):
            pc_exact(Graph(3, [(0, 1)]))

    def test_kmax_exhausted_raises(self):
        with pytest.raises(PreconditionError, match="at most 1"):
            pc_exact(corpus.star(3), k_max=1)


class TestSampleRefute:
    def test_complete_graph_never_fails(self):
        out = sample_refute(corpus.complete(4), 1, trials=5, seed=0)
        assert out.failures == []
        assert len(out.successes) == 5

    def test_p3_always_fails_on_endpoints(self):
        out = sample_refute(corpus.path_graph(3), 1, trials=10, seed=0)
        assert len(out.failures) == 10 and out.successes == []
        assert all(f.pair == (0, 2) for f in out.failures)

    def test_counterexample_family_resists_sampling(self, mini):
        out = sample_refute(mini, 2, trials=200, seed=42)
        assert out.successes == []
        assert len(out.failures) == 200
        assert [f.trial for f in out.failures] == list(range(200))

    def test_deterministic_across_schedules(self, mini):
        a = sample_refute(mini, 2, trials=20, seed=7)
        b = sample_refute(mini, 2, trials=20, seed=7, jobs=2)
        assert [f.pair for f in a.failures] == [f.pair for f in b.failures]
        assert [f.coloring.as_vector(mini) for f in a.failures] == [
            f.coloring.as_vector(mini) for f in b.failures
        ]

    def test_seed_changes_samples(self, mini):
        a = sample_refute(mini, 2, trials=5, seed=1)
        b = sample_refute(mini, 2, trials=5, seed=2)
        assert [f.coloring.as_vector(mini) for f in a.failures] != [
            f.coloring.as_vector(mini) for f in b.failures
        ]

    def test_bad_palette_rejected(self):
        with pytest.raises(PreconditionError):
            sample_refute(corpus.path_graph(3), 0, trials=1, seed=0)


class TestBounds:
    def test_spanning_subgraph_bound(self):
        # Removing edges cannot decrease pc: pc(G) <= pc(H) for spanning
        # connected H.
        rng = random.Random(29)
        done = 0
        while done < 15:
            n = rng.randint(4, 7)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n, min(m_hi, n + 4)), rng)
            edges = list(g.edges)
            rng.shuffle(edges)
            from properconn import Graph
            from properconn.graph import connected_components

            drop = edges[: rng.randint(1, max(1, g.m - n + 1))]
            h = Graph(g.n, [e for e in g.edges if e not in set(drop)])
            if len(connected_components(h)) != 1:
                continue
            done += 1
            assert pc_exact(g).value <= pc_exact(h).value

    def test_two_connected_at_most_three(self):
        for n in range(3, 8):
            for g in corpus.connected_graphs(n):
                if connectivity(g) >= 2:
                    assert pc_exact(g, k_max=3).value <= 3

    def test_two_connected_at_most_three_random_n8(self):
        rng = random.Random(31)
        done = 0
        while done < 12:
            g = corpus.random_connected(8, rng.randint(9, 16), rng)
            if connectivity(g) < 2:
                continue
            done += 1
            assert pc_exact(g, k_max=3).value <= 3


class _Wild:
    """A partial coloring as ``oracles.brute_walk_reach`` reads it: an
    uncolored edge gets a fresh color at each look, so it differs from every
    edge, itself included, as color 0 does in the walk BFS."""

    def __init__(self, g, colors):
        self.col = dict(zip(g.edges, colors))

    def color(self, u, v):
        return self.col[(min(u, v), max(u, v))] or object()


def _levelwise_arrivals(inc, colors, source, target=-1):
    """The walk BFS as it was written before it read one queue: one frontier
    list per level."""
    arr = [0] * len(inc)
    arr[source] = 1
    frontier = [(source, 0)]
    while frontier:
        nxt = []
        for v, last in frontier:
            for w, i in inc[v]:
                col = colors[i]
                if col and col == last:
                    continue
                bit = 1 << col
                if not arr[w] & bit:
                    arr[w] |= bit
                    if w == target:
                        return arr
                    nxt.append((w, col))
        frontier = nxt
    return arr


def _random_partial(rng):
    n = rng.randint(4, 12)
    g = corpus.random_connected(n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)), rng)
    k = rng.randint(1, 3)
    colors = [rng.randint(1, k) if rng.random() < 0.7 else 0 for _ in range(g.m)]
    return g, colors


class TestPrunePieces:
    """The exact search's prune: the walk BFS with start states, the endpoint
    sweep's shared closure, and the pruned sibling's check across one edge."""

    def test_single_queue_bfs_matches_levelwise(self):
        rng = random.Random(41)
        for _ in range(300):
            g, colors = _random_partial(rng)
            inc = coloring._incidence(g)
            for s in range(g.n):
                for t in (-1, rng.randrange(g.n)):
                    got = coloring._walk_arrivals(inc, colors, s, t)
                    assert got == _levelwise_arrivals(inc, colors, s, t)

    def test_shared_sweep_closure_gives_each_ends_reach(self):
        # reach(a) = closure of {(a, col), (b, col)} plus a's other col-edges'
        # far states; the same closure, extended by b's, gives reach(b).
        rng = random.Random(43)
        extended = 0
        for _ in range(400):
            g, colors = _random_partial(rng)
            inc = coloring._incidence(g)
            i = rng.randrange(g.m)
            a, b = g.edges[i]
            colors[i] = col = rng.randint(1, 3)
            base = coloring._walk_arrivals(inc, colors, [(a, col), (b, col)])
            for x in (a, b):
                reach = solver._end_reach(inc, colors, base, x, i)
                extended += reach is not base
                got = {w for w, bits in enumerate(reach) if bits}
                assert got == {
                    w for w, bits in enumerate(coloring._walk_arrivals(inc, colors, x)) if bits
                }
                assert got == oracles.brute_walk_reach(g, _Wild(g, colors), x)
            assert base == coloring._walk_arrivals(inc, colors, [(a, col), (b, col)])
        assert extended > 50

    def test_prune_matches_the_two_bfs_sweep_at_every_node(self, monkeypatch):
        # Every decision and conflict of the prune equals the replay-then-two-
        # BFS rule it replaces. A pruned node's next sibling is settled
        # without a BFS only when its closed set holds across e; the check
        # must fail (and the BFS decide) when the conflict comes alive again.
        calls = [0]
        real_bfs = solver._walk_arrivals

        def counting_bfs(*args, **kwargs):
            calls[0] += 1
            return real_bfs(*args, **kwargs)

        def old_rule(s, depth):
            cf = s.conflict
            if cf is not None and not real_bfs(s.inc, s.ecolor, *cf)[cf[1]]:
                return True, cf
            for x in s.order[depth]:
                need = [y for y in s.touched_stack if s.dist[x][y] >= 2]
                if need:
                    reach = real_bfs(s.inc, s.ecolor, x)
                    for y in need:
                        if not reach[y]:
                            return True, (min(x, y), max(x, y))
            return False, cf

        seen = {"settled_by_check": 0, "check_failed_pruned": 0, "check_failed_alive": 0}
        real_prune = solver._Search._prune

        def checked_prune(self, depth, col, needs):
            want = old_rule(self, depth)
            sibling = self.dead is not None and self.dead_depth == depth
            before = calls[0]
            got = real_prune(self, depth, col, needs)
            assert (got, self.conflict) == want
            if sibling:
                if calls[0] == before:
                    seen["settled_by_check"] += 1
                else:
                    seen["check_failed_pruned" if got else "check_failed_alive"] += 1
            return got

        monkeypatch.setattr(solver, "_walk_arrivals", counting_bfs)
        monkeypatch.setattr(solver._Search, "_prune", checked_prune)
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(6, 9)
            g = corpus.random_connected(n, rng.randint(n - 1, n + 3), rng)
            pc_exact(g)
        pc_exact(corpus.petersen())
        assert all(seen.values()), seen

    def test_sibling_check_fails_when_the_new_color_opens_the_pair(self):
        # Path 0-1-2-3 with (0, 1) colored 1: coloring (1, 2) with 1 kills the
        # pair (0, 2), and the sibling that colors it 2 reopens it.
        g = corpus.path_graph(4)
        s = solver._Search(g, 2, False, None, 1)
        assert s.order == [(0, 1), (1, 2), (2, 3)]
        s.ecolor[0] = 1
        s.touched_stack = [0, 1, 2]
        needs = [(2, [0])]  # the touched vertices two or more steps from an end
        s.ecolor[1] = 1
        assert s._prune(1, 1, needs) and s.conflict == (0, 2)
        assert s.dead is not None and s.dead_depth == 1
        s.ecolor[1] = 2
        assert not s._prune(1, 2, needs)
        assert s.dead is None


# Node and leaf counts per palette size k = 1, 2, ... up to pc, and the witness
# as a vector in g.edges order, recorded from the search before its prune
# shared one BFS between an edge's ends. Any change to the search tree shows
# here in seconds.
_TREE_PINS = [
    ([(4, 0), (93, 0), (916, 41), (2828, 139)], (1, 2, 3, 4, 2, 1, 1, 3, 1)),
    ([(2, 0), (29, 0), (348, 19), (421, 2)], (1, 2, 1, 1, 2, 2, 4, 3)),
    ([(2, 0), (109, 1), (2022, 56), (3995, 76)], (1, 2, 1, 1, 1, 2, 3, 4, 3, 1)),
    ([(4, 0), (25, 1), (214, 7), (608, 9)], (1, 2, 2, 1, 1, 3, 2, 4)),
    ([(4, 0), (31, 1), (268, 6), (768, 13)], (1, 1, 3, 2, 3, 2, 3, 4)),
    ([(4, 0), (193, 22), (451, 71)], (1, 1, 2, 2, 1, 3, 2, 1, 1)),
    ([(3, 0), (109, 4), (60, 5)], (1, 1, 2, 1, 2, 2, 3, 1, 2)),
    ([(3, 0), (27, 1)], (1, 1, 1, 2, 1, 1, 1, 2, 2, 1)),
    ([(7, 0), (86, 4)], (1, 1, 1, 1, 2, 1, 1, 1, 1, 2)),
    ([(3, 0), (141, 10), (54, 4)], (1, 1, 2, 3, 2, 1, 1, 1, 3)),
]


def _pinned_graphs():
    rng = random.Random(11)
    graphs = []
    for _ in range(5):
        n = rng.randint(9, 11)
        graphs.append(corpus.random_connected(n, n - 1, rng))
    for _ in range(5):
        n = rng.randint(8, 9)
        graphs.append(corpus.random_connected(n, rng.randint(n, n + 2), rng))
    return graphs


class TestSearchTreePins:
    @pytest.mark.parametrize("i", range(len(_TREE_PINS)))
    def test_node_and_leaf_counts(self, i):
        g = _pinned_graphs()[i]
        want, vec = _TREE_PINS[i]
        got = []
        for k in range(1, len(want) + 1):
            stats = {}
            found = exists_pc_coloring(g, k, stats_out=stats)
            got.append((stats["nodes"], stats["leaves"]))
            assert (found is not None) == (k == len(want))
        assert got == want
        assert found.as_vector(g) == vec
        res = pc_exact(g)
        assert res.value == len(want)
        assert res.stats["per_k"] == {k: nodes for k, (nodes, _) in enumerate(want, 1)}
        assert res.coloring == found

    def test_mini_strong_budget(self, mini):
        stats = {}
        with pytest.raises(SearchBudgetExceeded) as ei:
            exists_pc_coloring(mini, 2, require_strong=True, budget_nodes=49382, stats_out=stats)
        assert ei.value.nodes == 49383
        assert stats["leaves"] == 1396
