"""Exact pc search: existence queries, optimal values, sampling refuter."""

import itertools
import random
import time

import pytest

from properconn import (
    EdgeColoring,
    Graph,
    InternalError,
    PreconditionError,
    SearchBudgetExceeded,
    corpus,
    exists_pc_coloring,
    has_strong_property,
    is_proper_connected,
    pc_exact,
    sample_refute,
)
from properconn import coloring, solver
from properconn.graph import all_pairs_distances, bfs_distances, bridges, connectivity

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
            assert res.evidence == "constructive-upper"
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
        assert res.stats["strong_pruned"] == 0
        strong = pc_exact(corpus.cycle(5), require_strong=True)
        per_k = []
        for k in (1, 2, 3):
            stats = {}
            exists_pc_coloring(corpus.cycle(5), k, require_strong=True, stats_out=stats)
            per_k.append(stats["strong_pruned"])
        assert strong.value == 3
        assert strong.stats["strong_pruned"] == sum(per_k) > 0

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


def _two_k4s_and_a_bridge():
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return Graph(8, k4 + [(a + 4, b + 4) for a, b in k4] + [(0, 4)])


class TestBridgeBound:
    """The bridges at one vertex need distinct colors, so ``pc_exact`` starts
    its sweep at their largest number, and a bridge rules out every strong
    coloring."""

    def test_bound_is_at_most_pc(self):
        for n in range(2, 6):
            for g in corpus.connected_graphs(n):
                res = pc_exact(g)
                lower, v = res.stats["lower_bound"], res.stats["bound_vertex"]
                assert lower <= oracles.brute_pc_exact(g) == res.value
                assert min(res.stats["per_k"]) == lower
                # v has ``lower`` bridges; a bridgeless graph has no such v
                assert (v is None) == (not bridges(g))
                if v is not None:
                    assert sum(v in e for e in bridges(g)) == lower

    def test_trees_start_at_max_degree(self):
        for n in range(2, 9):
            for t in corpus.trees(n):
                res = pc_exact(t)
                v = res.stats["bound_vertex"]
                assert res.stats["lower_bound"] == res.value == t.max_degree() == t.degree(v)
                assert set(res.stats["per_k"]) == {res.value}

    def test_same_answer_as_the_sweep_from_one(self):
        rng = random.Random(79)
        bounded = 0
        for _ in range(60):
            n = rng.randint(7, 10)
            g = corpus.random_connected(n, rng.randint(n - 1, 3 * n // 2), rng)
            k = 1
            while (want := exists_pc_coloring(g, k)) is None:
                k += 1
            res = pc_exact(g)
            assert (res.value, res.coloring) == (k, want)
            bounded += res.stats["lower_bound"] > 1
        assert bounded > 20

    def test_strong_mode_rejects_a_bridge_at_once(self):
        # a budget of 0 nodes fails any search, so this proves none ran; the
        # searches over k <= 4 did not finish in 200 s
        g = _two_k4s_and_a_bridge()
        t0 = time.process_time()
        with pytest.raises(PreconditionError) as ei:
            pc_exact(g, k_max=4, budget_nodes=0, require_strong=True)
        assert time.process_time() - t0 < 1.0
        assert str(ei.value) == (
            "no strong coloring: bridge (0, 4) is the only path between its ends"
        )
        assert pc_exact(g).value == 2

    def test_bridged_graphs_have_no_strong_coloring(self):
        # the lemma strong mode relies on, against the search itself
        for n in range(2, 5):
            for g in corpus.connected_graphs(n):
                if bridges(g):
                    assert exists_pc_coloring(g, 3, require_strong=True) is None
                    with pytest.raises(PreconditionError, match="bridge"):
                        pc_exact(g, require_strong=True)

    def test_kmax_below_the_bound_builds_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a palette below the bound was searched")

        monkeypatch.setattr(solver, "_Search", no_search)
        with pytest.raises(PreconditionError, match="at most 2 colors"):
            pc_exact(corpus.star(6), k_max=2)


def _trees_for_the_route():
    """Every tree on 2 to 10 vertices, then 40 seeded trees on 9 to 12."""
    trees = [t for n in range(2, 11) for t in corpus.trees(n)]
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(9, 12)
        trees.append(corpus.random_connected(n, n - 1, rng))
    return trees


class TestTreeRoute:
    """``pc_exact`` answers a tree with the greedy coloring in the search's
    edge order, which is the search's first leaf at k = Δ, and certifies it
    with the leaf's check instead of searching."""

    def test_first_leaf_without_a_search(self):
        for t in _trees_for_the_route():
            delta = t.max_degree()
            res = pc_exact(t)
            assert (res.value, res.evidence) == (delta, "constructive-upper")
            assert res.coloring == exists_pc_coloring(t, delta), t.edges
            assert res.stats["nodes"] == 0
            assert res.stats["per_k"] == {delta: 0}

    def test_builds_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a tree was searched")

        monkeypatch.setattr(solver, "_Search", no_search)
        for n in range(2, 8):
            for t in corpus.trees(n):
                assert pc_exact(t).value == t.max_degree()

    def test_no_budget_can_run_out(self):
        for n in range(2, 8):
            for t in corpus.trees(n):
                assert pc_exact(t, budget_nodes=0).value == t.max_degree()
        assert pc_exact(corpus.star(4), k_max=4, budget_nodes=0).value == 4

    def test_one_check_per_call(self, monkeypatch):
        calls = [0]
        real = solver._first_unconnected_pair

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "_first_unconnected_pair", counting)
        for t in _trees_for_the_route():
            calls[0] = 0
            pc_exact(t)
            assert calls[0] == 1, t.edges

    def test_failed_check_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "_first_unconnected_pair", lambda *a, **k: (0, 1))
        for t in (corpus.path_graph(2), corpus.star(3), corpus.trees(6)[0]):
            with pytest.raises(InternalError, match=r"pair \(0, 1\)"):
                pc_exact(t)


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


@pytest.fixture
def bfs_calls(monkeypatch):
    """A one-element list counting the solver's walk BFS runs."""
    calls = [0]
    real_bfs = solver._walk_arrivals

    def counting_bfs(*args, **kwargs):
        calls[0] += 1
        return real_bfs(*args, **kwargs)

    monkeypatch.setattr(solver, "_walk_arrivals", counting_bfs)
    return calls


def _plain_rule(g, dist, order, ecolor, conflict, depth):
    """The prune as one rule with no shortcut: ``(pruned, conflict)`` at the
    node that has just colored ``order[depth]``. It replays the last dead pair
    with one walk BFS, then runs one BFS from each end of the edge just
    colored and checks the ends of the colored edges two or more steps away,
    in first-appearance order."""
    inc, bfs = coloring._incidence(g), coloring._walk_arrivals
    if conflict is not None and not bfs(inc, ecolor, *conflict)[conflict[1]]:
        return True, conflict
    eidx = g.edge_index()
    touched = []
    for e in order:
        if ecolor[eidx[e]]:
            touched += [v for v in e if v not in touched]
    for x in order[depth]:
        need = [y for y in touched if dist[x][y] >= 2]
        if need:
            reach = bfs(inc, ecolor, x)
            for y in need:
                if not reach[y]:
                    return True, (min(x, y), max(x, y))
    return False, conflict


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

    def test_prune_matches_the_two_bfs_sweep_at_every_node(self, monkeypatch, bfs_calls):
        # Every decision and conflict of the prune equals the replay-then-two-
        # BFS rule it replaces. A pruned node's next sibling is settled
        # without a BFS only when its closed set holds across e; the check
        # must fail (and the BFS decide) when the conflict comes alive again.
        # Nodes the fresh-sibling memo answers never reach _prune; the
        # TestPlainSearch searches cover them.
        dists = {}

        def old_rule(s, depth):
            if id(s.g) not in dists:
                dists[id(s.g)] = (s.g, all_pairs_distances(s.g))
            dist = dists[id(s.g)][1]
            return _plain_rule(s.g, dist, s.order, s.ecolor, s.conflict, depth)

        seen = {"settled_by_check": 0, "check_failed_pruned": 0, "check_failed_alive": 0}
        real_prune = solver._Search._prune

        def checked_prune(self, depth, col, needs):
            want = old_rule(self, depth)
            sibling = self.dead is not None and self.dead_depth == depth
            before = bfs_calls[0]
            got = real_prune(self, depth, col, needs)
            assert (got, self.conflict) == want
            if sibling:
                if bfs_calls[0] == before:
                    seen["settled_by_check"] += 1
                else:
                    seen["check_failed_pruned" if got else "check_failed_alive"] += 1
            return got

        monkeypatch.setattr(solver._Search, "_prune", checked_prune)
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(6, 9)
            g = corpus.random_connected(n, rng.randint(n - 1, n + 3), rng)
            pc_exact(g)
        pc_exact(corpus.petersen())
        assert all(seen.values()), seen

    def test_fresh_color_reach_is_the_largest(self):
        # Recolor edge i = (a, b). A color no other edge at a or b has (fresh)
        # gives the same vertex reach from every source as k + 1, a color no
        # edge has, and every color's reach lies inside that one.
        rng = random.Random(59)
        fresh_seen = 0
        for _ in range(300):
            g, colors = _random_partial(rng)
            inc = coloring._incidence(g)
            k = max(colors)
            i = rng.randrange(g.m)
            a, b = g.edges[i]
            taken = {colors[j] for x in (a, b) for _, j in inc[x] if j != i}

            def reach(col):
                colors[i] = col
                return [
                    {w for w, bits in enumerate(coloring._walk_arrivals(inc, colors, s)) if bits}
                    for s in range(g.n)
                ]

            top = reach(k + 1)
            assert top == [
                oracles.brute_walk_reach(g, _Wild(g, colors), s) for s in range(g.n)
            ]
            for col in range(1, k + 1):
                got = reach(col)
                assert got == [
                    oracles.brute_walk_reach(g, _Wild(g, colors), s) for s in range(g.n)
                ]
                assert all(r <= t for r, t in zip(got, top))
                if col not in taken:
                    fresh_seen += 1
                    assert got == top
        assert fresh_seen > 100

    def test_sibling_check_fails_when_the_new_color_opens_the_pair(self):
        # Path 0-1-2-3 with (0, 1) colored 1: coloring (1, 2) with 1 kills the
        # pair (0, 2), and the sibling that colors it 2 reopens it.
        g = corpus.path_graph(4)
        s = solver._Search(g, 2, False, None)
        assert s.order == [(0, 1), (1, 2), (2, 3)]
        s.ecolor[0] = 1
        needs = [(2, [0])]  # the colored edges' ends two or more steps from an end
        assert s.needs[1] == needs
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


def _from_bound(per_k, res):
    """``per_k`` restricted to the palettes ``pc_exact`` searched: those from
    its bridge bound up."""
    return {k: n for k, n in per_k.items() if k >= res.stats["lower_bound"]}


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
        if g.m == g.n - 1:
            # a tree is answered without a search (TestTreeRoute)
            assert res.stats["per_k"] == {res.value: 0}
        else:
            per_k = {k: nodes for k, (nodes, _) in enumerate(want, 1)}
            assert res.stats["per_k"] == _from_bound(per_k, res)
        assert res.coloring == found

    @pytest.mark.parametrize("i, settled, bfs", [(0, 1456, 3889), (2, 2635, 5278)])
    def test_fresh_sibling_memo_counts(self, bfs_calls, i, settled, bfs):
        # nodes the memo answers, and walk BFS runs, over the searches at
        # k = 1 ... pc; without the memo the BFS runs are 5,326 and 7,889
        g = _pinned_graphs()[i]
        res = pc_exact(g)
        bfs_calls[0] = 0
        per_k = {}
        for k in range(1, res.value + 1):
            stats = {}
            exists_pc_coloring(g, k, stats_out=stats)
            per_k[k] = stats["sibling_settled"]
        assert (sum(per_k.values()), bfs_calls[0]) == (settled, bfs)
        assert 0 < per_k[res.value] < settled
        # both graphs are trees, which pc_exact answers without a search
        assert res.stats["sibling_settled"] == 0

    def test_mini_strong_budget(self, mini):
        # the one-color rule proves that no strong 2-coloring exists; without
        # it the search ran out of color_2connected_3's 49,382-node budget
        # after 1,396 leaves
        stats = {}
        assert exists_pc_coloring(mini, 2, require_strong=True, stats_out=stats) is None
        assert (stats["nodes"], stats["leaves"], stats["strong_pruned"]) == (1891, 26, 912)
        with pytest.raises(SearchBudgetExceeded) as ei:
            exists_pc_coloring(mini, 2, require_strong=True, budget_nodes=1000)
        assert ei.value.nodes == 1001


class _PlainSearch:
    """The exact search with ``_plain_rule`` at every node: the same edge
    order, canonical colors and leaf checks, but no plan, no sibling check and
    no fresh-sibling memo. In strong mode it also cuts a node whose new edge
    leaves an end with every edge in one color, unless ``one_color_cut`` is
    False."""

    def __init__(self, g, k, require_strong=False, one_color_cut=True):
        self.g, self.k, self.require_strong = g, k, require_strong
        self.one_color_cut = require_strong and one_color_cut
        self.order = solver._bfs_edge_order(g)
        self.dist = all_pairs_distances(g)
        self.ecolor = [0] * g.m
        self.nodes = self.leaves = 0
        self.conflict = None

    def descend(self, depth=0, maxused=0):
        g = self.g
        if depth == g.m:
            self.leaves += 1
            c = EdgeColoring.from_vector(g, self.k, self.ecolor)
            ok, pair = is_proper_connected(g, c)
            if ok and self.require_strong:
                chk = has_strong_property(g, c)
                ok, pair = chk.ok, chk.failing_pair
            if ok:
                return c
            self.conflict = pair
            return None
        i = g.edge_index()[self.order[depth]]
        for col in range(1, min(self.k, maxused + 1) + 1):
            self.nodes += 1
            self.ecolor[i] = col
            if self.one_color_cut and any(
                all(self.ecolor[g.edge_index()[min(x, w), max(x, w)]] == col for w in g.adj[x])
                for x in self.order[depth]
            ):
                continue
            pruned, self.conflict = _plain_rule(
                g, self.dist, self.order, self.ecolor, self.conflict, depth
            )
            if not pruned:
                got = self.descend(depth + 1, max(maxused, col))
                if got is not None:
                    return got
        self.ecolor[i] = 0
        return None


def _assert_plain_tree(g, ks, require_strong=False):
    """``exists_pc_coloring`` at each k in ``ks`` searches the plain tree:
    same nodes, leaves and witness. Returns the plain searches' node counts."""
    per_k = {}
    for k in ks:
        plain = _PlainSearch(g, k, require_strong)
        want = plain.descend()
        stats = {}
        got = exists_pc_coloring(g, k, require_strong, stats_out=stats)
        assert (stats["nodes"], stats["leaves"]) == (plain.nodes, plain.leaves), (g, k)
        assert got == want, (g, k)
        if require_strong:
            # the cut is sound, so the search without it finds the same
            # first strong leaf, or none
            assert _PlainSearch(g, k, True, one_color_cut=False).descend() == want, (g, k)
        per_k[k] = plain.nodes
        if want is not None:
            break
    return per_k


class TestPlainSearch:
    """The fresh-sibling memo answers nodes that never reach ``_prune``, so
    these compare whole searches with the plain rule applied at every node."""

    def test_trees(self):
        rng = random.Random(61)
        done = 0
        while done < 40:
            n = rng.randint(9, 11)
            g = corpus.random_connected(n, n - 1, rng)
            delta = g.max_degree()
            if not 4 <= delta <= 5:
                continue
            done += 1
            per_k = _assert_plain_tree(g, range(1, delta + 1))
            res = pc_exact(g)
            assert res.value == delta
            assert res.stats["per_k"] == {delta: 0}
            assert res.coloring == exists_pc_coloring(g, delta)

    def test_small_graphs(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randint(5, 8)
            g = corpus.random_connected(n, rng.randint(n - 1, 3 * n // 2), rng)
            per_k = _assert_plain_tree(g, range(1, g.m + 1))
            res = pc_exact(g)
            if g.m == n - 1:
                # a tree is answered without a search (TestTreeRoute)
                assert res.stats["per_k"] == {res.value: 0}
            else:
                assert res.stats["per_k"] == _from_bound(per_k, res)
            assert res.value == max(per_k)

    def test_strong_tries(self):
        rng = random.Random(71)
        for _ in range(12):
            n = rng.randint(5, 7)
            g = corpus.random_connected(n, rng.randint(n, n + 3), rng)
            for k in (2, 3):
                _assert_plain_tree(g, [k], require_strong=True)


class TestOneColorRule:
    """The strong search cuts a node once an end of the new edge has all its
    edges in one color: the strong property needs two colors at every
    vertex."""

    def test_strong_colorings_have_two_colors_at_every_vertex(self):
        accepted = 0
        for n_max, k in ((5, 2), (4, 3)):
            for n in range(2, n_max + 1):
                for g in corpus.connected_graphs(n):
                    for vec in itertools.product(range(1, k + 1), repeat=g.m):
                        c = EdgeColoring.from_vector(g, k, list(vec))
                        if has_strong_property(g, c).ok:
                            accepted += 1
                            for v in range(g.n):
                                assert len({c.color(v, w) for w in g.adj[v]}) >= 2
        assert accepted == 1224

    def test_two_connected_answers_match_the_search_without_the_cut(self):
        rng = random.Random(73)
        done, seen = 0, set()
        while done < 20:
            n = rng.randint(5, 8)
            g = corpus.random_connected(n, rng.randint(n, n + 2), rng)
            if connectivity(g) < 2:
                continue
            done += 1
            for k in (2, 3):
                want = _PlainSearch(g, k, True, one_color_cut=False).descend()
                got = exists_pc_coloring(g, k, require_strong=True)
                assert got == want, (g, k)
                seen.add(got is None)
        assert seen == {True, False}


class TestSearchPlan:
    """The plan the exact search reads at each depth, built once per graph."""

    @staticmethod
    def _want_needs(g, order):
        # each end x of order[d] with the vertices of order[:d+1] two or more
        # steps from x, in first-appearance order; ends with none left out
        touched, want = [], []
        for e in order:
            touched += [v for v in e if v not in touched]
            at_depth = []
            for x in e:
                dx = bfs_distances(g, x)
                need = [y for y in touched if dx[y] >= 2]
                if need:
                    at_depth.append((x, need))
            want.append(at_depth)
        return want

    def test_needs_match_the_rule_at_every_depth(self, mini):
        for g in _pinned_graphs() + [corpus.petersen(), mini]:
            order, idx, needs, near = solver._plan(g)
            assert order == solver._bfs_edge_order(g)
            assert [g.edges[i] for i in idx] == order
            assert needs == self._want_needs(g, order)
            # the edges colored before depth d that share an end with order[d]
            assert [sorted(js) for js in near] == [
                sorted(idx[j] for j in range(d) if set(order[j]) & set(e))
                for d, e in enumerate(order)
            ]
            assert solver._plan(g) is solver._plan(g)

    def test_pc_exact_builds_the_plan_once(self, monkeypatch):
        calls = [0]
        real = solver.all_pairs_distances

        def counting(g):
            calls[0] += 1
            return real(g)

        monkeypatch.setattr(solver, "all_pairs_distances", counting)
        # a graph with a cycle, so pc_exact searches k = 1, 2 and 3
        g = _pinned_graphs()[6]
        assert g.m > g.n - 1 and len(_TREE_PINS[6][0]) == 3
        res = pc_exact(g)
        assert res.value == 3 and set(res.stats["per_k"]) == {1, 2, 3}
        assert calls[0] == 1
