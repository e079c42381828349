"""Graph container and the classical primitives."""

import hashlib
import json
import random

import pytest

from properconn import construct, corpus, graph
from properconn.graph import (
    Graph,
    GraphError,
    PreconditionError,
    bipartition,
    bridges,
    chain_decomposition,
    connectivity,
    cut_labels,
    diameter,
    edge_connectivity,
    is_connected,
    max_cut_bipartite_subgraph,
    maximal_2ec_bipartite_subgraph,
    maximum_matching,
    odd_cycle,
    two_fan,
)

import oracles


class TestGraphContainer:
    def test_rejects_self_loops(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_adjacency_is_consistent_with_edge_set(self):
        g = corpus.petersen()
        for u in range(g.n):
            for w in g.adj[u]:
                assert g.has_edge(u, w)
        assert sum(len(g.adj[u]) for u in range(g.n)) == 2 * g.m

    def test_vertex_ids_dense(self):
        g = Graph(4, [(1, 3)])
        assert g.n == 4 and g.degree(0) == 0


class TestConnectivity:
    def test_cycle_is_exactly_2_connected(self):
        assert connectivity(corpus.cycle(4)) == 2

    def test_complete_graph(self):
        assert connectivity(corpus.complete(4)) == 3

    def test_path_has_cut_vertex(self):
        assert connectivity(corpus.path_graph(4)) == 1

    def test_matches_networkx_on_random_graphs(self):
        import networkx as nx

        rng = random.Random(4)
        for _ in range(120):
            n = rng.randint(4, 10)
            p = rng.uniform(0.2, 0.9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            g = Graph(n, edges)
            assert connectivity(g) == nx.node_connectivity(oracles.nxg(g))


class TestEdgeConnectivity:
    def test_petersen(self):
        assert edge_connectivity(corpus.petersen()) == 3

    def test_cycle(self):
        assert edge_connectivity(corpus.cycle(5)) == 2

    def test_tree(self):
        for t in corpus.trees(6):
            assert edge_connectivity(t) == 1

    def test_matches_networkx_on_random_graphs(self):
        import networkx as nx

        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(4, 10)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.uniform(0.2, 0.9)
            ]
            g = Graph(n, edges)
            assert edge_connectivity(g) == nx.edge_connectivity(oracles.nxg(g))

    def test_kappa_chain_on_corpus(self):
        # kappa <= kappa' <= min degree on every connected corpus graph
        named = [
            corpus.petersen(),
            corpus.hypercube(3),
            corpus.prism(4),
            corpus.wheel(6),
            corpus.antiprism(4),
            corpus.moebius_ladder(4),
            corpus.complete_bipartite(3, 4),
        ]
        for g in named + corpus.connected_graphs(6):
            if g.n < 2:
                continue
            k, kp = connectivity(g), edge_connectivity(g)
            assert k <= kp <= g.min_degree()


class TestBridgesAndCutVertices:
    def test_path_p3(self):
        assert bridges(corpus.path_graph(3)) == ((0, 1), (1, 2))

    def test_cycle_has_none(self):
        assert bridges(corpus.cycle(4)) == ()

    def test_bowtie(self):
        # two triangles sharing a vertex: no bridges
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert bridges(g) == ()

    def test_agrees_with_removal_enumeration_exhaustively(self):
        assert bridges(Graph(0)) == ()
        for n in range(1, 7):
            for g in corpus.all_graphs(n):
                assert bridges(g) == oracles.brute_bridges(g)

    def test_agrees_with_removal_enumeration_random_n8(self):
        rng = random.Random(8)
        for _ in range(300):
            edges = [
                (u, v)
                for u in range(8)
                for v in range(u + 1, 8)
                if rng.random() < rng.uniform(0.15, 0.7)
            ]
            g = Graph(8, edges)
            assert bridges(g) == oracles.brute_bridges(g)


class TestCutLabels:
    def test_cuts_match_removal_enumeration(self):
        # one edge is a cut iff its label is 0, two edges are a cut iff
        # their labels are equal or one is 0, and the lambda >= 3 test is
        # edge connectivity's
        rng = random.Random(19)
        graphs = [g for n in range(1, 7) for g in corpus.connected_graphs(n)]
        for _ in range(200):
            n = rng.randint(4, 14)
            graphs.append(corpus.random_connected(n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)), rng))
        seen = {"bridge": 0, "pair": 0, "3ec": 0}
        for g in graphs:
            label = cut_labels(g)
            assert len(label) == g.m
            for i, e in enumerate(g.edges):
                cut = oracles.ncomp(g.without_edges([e])) > 1
                assert (label[i] == 0) == cut
                seen["bridge"] += cut
                for j in range(i + 1, g.m):
                    cut = oracles.ncomp(g.without_edges([e, g.edges[j]])) > 1
                    assert (label[i] == label[j] or 0 in (label[i], label[j])) == cut
                    seen["pair"] += cut and label[i] == label[j] != 0
            three = construct._three_edge_connected(g)
            assert three == (edge_connectivity(g) >= 3)
            seen["3ec"] += three
        assert min(seen.values()) >= 30


class TestChainDecomposition:
    def test_k4(self):
        # DFS path 0-1-2-3; the back edges from 0 run to 2 and 3, then 1-3
        assert chain_decomposition(corpus.complete(4)) == [(0, 2, 1, 0), (0, 3, 2), (1, 3)]

    def test_chains_on_every_small_connected_graph(self):
        # the chains cover the edges that are not bridges, each once; the
        # first is a cycle and every later chain's interior is new; with no
        # bridge, every later chain also starts and ends on earlier chains
        for n in range(1, 8):
            for g in corpus.connected_graphs(n):
                chains = chain_decomposition(g)
                want_bridges = oracles.brute_bridges(g)
                covered = [tuple(sorted(e)) for ch in chains for e in zip(ch, ch[1:])]
                assert sorted(covered) == sorted(set(g.edges) - set(want_bridges))
                if not chains:
                    continue
                first = chains[0]
                assert first[0] == first[-1] and len(set(first)) == len(first) - 1 >= 3
                held = set(first)
                for ch in chains[1:]:
                    inner = ch[1:-1]
                    assert len(set(inner)) == len(inner) and not held & set(inner)
                    assert ch[-1] in held | {ch[0]}
                    if not want_bridges:
                        assert ch[0] in held and ch[-1] in held
                    held |= set(ch)


class TestBipartition:
    def test_even_cycle(self):
        b = bipartition(corpus.cycle(6))
        assert b is not None
        assert sorted(map(len, (b.side_u, b.side_v))) == [3, 3]

    def test_odd_cycle_absent(self):
        assert bipartition(corpus.cycle(5)) is None

    def test_cube(self):
        b = bipartition(corpus.hypercube(3))
        assert b is not None
        assert sorted(map(len, (b.side_u, b.side_v))) == [4, 4]

    def test_no_monochromatic_edge(self):
        for g in corpus.connected_graphs(6):
            b = bipartition(g)
            if b is None:
                continue
            for u, v in g.edges:
                assert b.side_of(u) != b.side_of(v)

    def test_odd_cycle_exactly_when_not_bipartite(self):
        found = []
        for n in range(1, 7):
            for g in corpus.connected_graphs(n):
                cyc = odd_cycle(g)
                found.append(cyc)
                assert (cyc is None) == (bipartition(g) is not None)
                if cyc is None:
                    continue
                assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc) >= 3
                assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        # pinned: the BFS clash order decides which cycle each graph reports
        digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
        assert digest == "725331ffa30e6407a5b662abff4b55ab17c4d12e3fc33086dade06040cdc079a"


class TestDiameter:
    def test_complete(self):
        assert diameter(corpus.complete(4)) == 1

    def test_c7(self):
        assert diameter(corpus.cycle(7)) == 3

    def test_petersen(self):
        assert diameter(corpus.petersen()) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            diameter(Graph(3, [(0, 1)]))


class TestTwoFan:
    def test_c4(self):
        # v=0, target {1,3}: the two incident edges
        g = corpus.cycle(4)
        p1, p2 = two_fan(g, 0, {1, 3})
        assert {p1[-1], p2[-1]} == {1, 3}
        assert p1[0] == p2[0] == 0

    def test_k4_single_edges(self):
        g = corpus.complete(4)
        p1, p2 = two_fan(g, 0, {1, 2})
        assert sorted((len(p1), len(p2))) == [2, 2]

    def test_theta_middle_vertex(self):
        # branch vertices of a theta graph are 0 and 1; pick an interior
        # vertex of the middle path
        g = corpus.theta(2, 3, 4)
        v = next(
            x for x in range(2, g.n) if all(d == 2 for d in [g.degree(x)])
        )
        p1, p2 = two_fan(g, v, {0, 1})
        assert {p1[-1], p2[-1]} == {0, 1}
        assert set(p1[1:]) & set(p2[1:]) == set()

    def test_internally_disjoint_on_random_2_connected(self):
        rng = random.Random(77)
        graphs = corpus.random_graphs_with(
            lambda g: connectivity(g) >= 2, count=40, n_range=(5, 9), seed=21
        )
        for g in graphs:
            v = rng.randrange(g.n)
            target = set(rng.sample([u for u in range(g.n) if u != v], 3))
            p1, p2 = two_fan(g, v, target)
            assert p1[0] == p2[0] == v
            assert p1[-1] in target and p2[-1] in target and p1[-1] != p2[-1]
            assert set(p1[1:]) & set(p2[1:]) == set()
            assert all(x not in target for x in p1[1:-1] + p2[1:-1])

    def test_precondition_violation_distinct(self):
        with pytest.raises(PreconditionError):
            two_fan(corpus.path_graph(4), 0, {2, 3})  # not 2-connected


class TestMaxCutBipartiteSubgraph:
    def test_bipartite_input_identity(self):
        g = corpus.cycle(6)
        h = max_cut_bipartite_subgraph(g)
        assert h.edges == g.edges

    def test_k4_gives_c4(self):
        h = max_cut_bipartite_subgraph(corpus.complete(4))
        assert h.n == 4 and h.m == 4
        assert all(h.degree(v) == 2 for v in range(4))
        assert bipartition(h) is not None and is_connected(h)

    def test_petersen(self):
        h = max_cut_bipartite_subgraph(corpus.petersen())
        assert h.n == 10
        assert h.m >= 12
        assert bipartition(h) is not None
        assert edge_connectivity(h) >= 2

    def test_degree_retention(self):
        for g in corpus.connected_graphs(6) + [corpus.petersen()]:
            h = max_cut_bipartite_subgraph(g)
            assert h.n == g.n
            assert set(h.edges) <= set(g.edges)
            assert bipartition(h) is not None
            for v in range(g.n):
                assert h.degree(v) >= (g.degree(v) + 1) // 2


    def test_bridge_move_on_two_blocks(self):
        # Two K_{6,6} joined by three edges: the vertex flips stop with the
        # join (0, 12) as the cut subgraph's only bridge; flipping the block
        # without vertex 0 cuts the other two joining edges instead.
        edges = []
        for base in (0, 12):
            edges += [(base + i, base + 6 + j) for i in range(6) for j in range(6)]
        g = Graph(24, edges + [(0, 12), (1, 18), (2, 19)])
        h = max_cut_bipartite_subgraph(g)
        assert h.m == g.m - 1  # g has an odd cycle
        assert bipartition(h) is not None and edge_connectivity(h) == 2

    def test_no_flip_or_cut_move_grows_the_result(self):
        rng = random.Random(29)
        three_ec = 0
        for _ in range(150):
            n = rng.randint(2, 14)
            g = corpus.random_connected(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            h = max_cut_bipartite_subgraph(g)
            cut = set(h.edges)

            def gain(flip):
                return sum(
                    -1 if (u, v) in cut else 1
                    for u, v in g.edges
                    if flip[u] != flip[v]
                )

            for v in range(g.n):
                assert gain([w == v for w in range(g.n)]) <= 0
            for flip in graph._cut_moves(h):
                assert gain(flip) <= 0
            if edge_connectivity(g) >= 3:
                three_ec += 1
                assert edge_connectivity(h) >= 2
        assert three_ec >= 10


class TestMaximal2ECBipartiteSubgraph:
    def test_c4_identity(self):
        sub = maximal_2ec_bipartite_subgraph(corpus.cycle(4))
        assert sorted(sub.vertices) == [0, 1, 2, 3]
        assert sorted(sub.edges) == sorted(corpus.cycle(4).edges)

    def test_pendant_not_absorbed(self):
        g = corpus.cycle(4).with_vertex_added([0])
        sub = maximal_2ec_bipartite_subgraph(g)
        assert sorted(sub.vertices) == [0, 1, 2, 3]

    def test_two_squares_sharing_an_edge(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)])
        sub = maximal_2ec_bipartite_subgraph(g)
        assert sorted(sub.vertices) == [0, 1, 2, 3, 4, 5]
        h, _ = sub.as_graph()
        assert edge_connectivity(h) >= 2 and bipartition(h) is not None

    def test_no_even_cycle_rejected(self):
        with pytest.raises(PreconditionError, match="even cycle"):
            maximal_2ec_bipartite_subgraph(corpus.complete(3))

    def test_output_invariants_and_unextendable(self):
        graphs = corpus.random_graphs_with(
            lambda g: any(oracles.ear_starts(g, {x: 0}) for x in range(g.n)),
            count=60,
            n_range=(5, 12),
            seed=33,
        )
        for g in graphs:
            sub = maximal_2ec_bipartite_subgraph(g)
            h, vmap = sub.as_graph()
            bip = bipartition(h)
            assert bip is not None
            assert edge_connectivity(h) >= 2
            side = {vmap[i]: bip.side_of(i) for i in range(h.n)}
            core_edges = set(sub.edges)
            for u, v in g.edges:
                if u in side and v in side and side[u] != side[v]:
                    assert (u, v) in core_edges, (g.edges, u, v)
            assert oracles.ear_starts(g, side) == [], g.edges
            for v in range(g.n):
                if v in side:
                    continue
                paths = oracles.vH_paths(g, v, set(side))
                # no two internally disjoint (v,H)-paths of equal parity, even
                # two that end at one core vertex: together they form an ear,
                # which would extend H, contradicting maximality
                for i, p in enumerate(paths):
                    for q in paths[i + 1 :]:
                        if set(p[1:-1]) & set(q[1:-1]):
                            continue
                        par_p = (len(p) + side[p[-1]]) % 2
                        par_q = (len(q) + side[q[-1]]) % 2
                        assert par_p != par_q, (g.edges, v, p, q)

    def test_an_even_cycle_through_one_core_vertex_is_an_ear(self):
        # two squares sharing vertex 0, and a chord (2, 5) that closes only
        # odd cycles: whichever square seeds the core, the other one is its
        # only ear
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6), (2, 5)])
        sub = maximal_2ec_bipartite_subgraph(g)
        assert sub.vertices == tuple(range(7))
        assert (2, 5) not in sub.edges

    def test_ear_search_matches_brute_force(self):
        # random partial cores, about half of them one vertex (the seed search);
        # the side map need not be a 2-edge-connected bipartite subgraph
        rng = random.Random(41)
        kinds = set()
        for _ in range(400):
            n = rng.randint(4, 9)
            g = corpus.random_connected(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
            core = rng.sample(range(n), rng.choice([1, rng.randint(1, n - 1)]))
            side = {v: rng.randint(0, 1) for v in core}
            ear = graph._ear(g, side)
            starts = oracles.ear_starts(g, side)
            if ear is None:
                assert starts == [], (g.edges, side)
                kinds.add("none")
                continue
            assert oracles.is_ear(g, side, tuple(ear)), (g.edges, side, ear)
            assert tuple(ear[:2]) == starts[0], (g.edges, side, ear)
            x, y = ear[0], ear[-1]
            kinds.add("cycle" if x == y else ("even" if side[x] == side[y] else "odd"))
        assert kinds == {"none", "cycle", "even", "odd"}


class TestMaximumMatching:
    def test_empty_cross(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert maximum_matching({0, 1}, {2, 3}, g) == ()

    def test_perfect_cross(self):
        g = corpus.complete_bipartite(3, 3)
        m = maximum_matching({0, 1, 2}, {3, 4, 5}, g)
        assert len(m) == 3

    def test_c6_alternating_sides(self):
        g = corpus.cycle(6)
        m = maximum_matching({0, 2, 4}, {1, 3, 5}, g)
        assert len(m) == 3

    def test_matches_brute_force(self):
        import itertools

        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(4, 7)
            m = rng.randint(n - 1, min(n + 3, n * (n - 1) // 2))
            g = corpus.random_connected(n, m, rng)
            xs = set(rng.sample(range(n), n // 2))
            ys = set(range(n)) - xs
            cross = [
                e for e in g.edges if (e[0] in xs) != (e[1] in xs)
            ]
            best = 0
            for r in range(len(cross), 0, -1):
                for combo in itertools.combinations(cross, r):
                    seen = set()
                    if all(
                        u not in seen and v not in seen
                        and not seen.update((u, v))
                        for u, v in combo
                    ):
                        best = r
                        break
                if best:
                    break
            got = maximum_matching(xs, ys, g)
            used = [v for e in got for v in e]
            assert len(used) == len(set(used))
            assert all((e[0] in xs) != (e[1] in xs) for e in got)
            assert len(got) == best
