"""Constructive 2- and 3-colorings: bipartite, 3-edge-connected, diameter 3."""

import functools
import hashlib
import itertools
import json
import random
import time

import pytest

from properconn import (
    BridgeError,
    EdgeColoring,
    ExtensionError,
    Graph,
    InternalError,
    OddCycleError,
    PreconditionError,
    build_counterexample,
    classify_diam3,
    color_2connected_3,
    color_3ec,
    color_diam3,
    coloring,
    construct,
    corpus,
    exists_pc_coloring,
    extend_vertex_addition,
    format_coloring,
    grow_by_degree2_additions,
    has_strong_property,
    is_proper_connected,
    lift_spanning_coloring,
    pc_exact,
    strong_2_coloring_bipartite,
)
from properconn.construct import (
    CASE1_SUB11,
    CASE1_SUB12,
    CASE2_BIPARTITE,
    CASE2_ODD_CYCLE,
    CASE_THREE_EC,
)
from properconn.graph import (
    bipartition,
    chain_decomposition,
    connected_components,
    connectivity,
    cut_labels,
    diameter,
    edge_connectivity,
)

import oracles


def _two_c4_bridge():
    # Two 4-cycles tied by the 2-edge cut {(0,4), (1,5)}; hubs 0/1 and 4/5
    # each share their whole side as common neighborhood.
    return Graph(
        8,
        [(0, 2), (2, 1), (1, 3), (3, 0), (4, 6), (6, 5), (5, 7), (7, 4), (0, 4), (1, 5)],
    )


def _two_k4_matching():
    edges = [(u, v) for u, v in itertools.combinations(range(4), 2)]
    edges += [(u + 4, v + 4) for u, v in itertools.combinations(range(4), 2)]
    edges += [(0, 4), (1, 5)]
    return Graph(8, edges)


def _k33_with_pair():
    # K33 plus a 2-vertex component hanging off one partite side: every
    # 2-edge cut strands at most the pair, so the narrow-cut case applies.
    g = corpus.complete_bipartite(3, 3)
    edges = list(g.edges) + [(6, 7), (0, 6), (1, 7)]
    return Graph(8, edges)


class TestStrong2ColoringBipartite:
    def test_c4_alternates(self):
        g = corpus.cycle(4)
        c = strong_2_coloring_bipartite(g)
        assert has_strong_property(g, c).ok
        ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
        cols = [c.color(*e) for e in ring]
        assert all(x != y for x, y in zip(cols, cols[1:] + cols[:1]))

    def test_c6(self):
        g = corpus.cycle(6)
        c = strong_2_coloring_bipartite(g)
        assert c.colors_used() <= 2
        assert has_strong_property(g, c).ok

    def test_k33(self):
        g = corpus.complete_bipartite(3, 3)
        c = strong_2_coloring_bipartite(g)
        assert has_strong_property(g, c).ok

    def test_bridge_rejected_with_edge(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        with pytest.raises(BridgeError) as ei:
            strong_2_coloring_bipartite(g)
        assert ei.value.edge == (0, 4)

    def test_k2_rejected(self):
        with pytest.raises(BridgeError):
            strong_2_coloring_bipartite(corpus.path_graph(2))

    def test_odd_cycle_rejected_with_cycle(self):
        with pytest.raises(OddCycleError) as ei:
            strong_2_coloring_bipartite(corpus.cycle(5))
        assert len(ei.value.cycle) % 2 == 1

    def test_small_exhaustive(self):
        for n in range(4, 7):
            for g in corpus.connected_graphs(n):
                if oracles.brute_bridges(g):
                    continue
                if corpus_bipartition(g) is None:
                    continue
                c = strong_2_coloring_bipartite(g)
                assert c.colors_used() <= 2
                assert has_strong_property(g, c).ok


def corpus_bipartition(g):
    from properconn.graph import bipartition

    return bipartition(g)


class TestLiftSpanningColoring:
    def test_identity(self):
        g = corpus.cycle(4)
        c = EdgeColoring.from_vector(g, 2, (1, 2, 2, 1))
        assert lift_spanning_coloring(g, g, c).assignment == c.assignment

    def test_chord_takes_color_one(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        h = corpus.cycle(4)
        c_h = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 0): 2})
        lifted = lift_spanning_coloring(g, h, c_h)
        assert lifted.color(0, 2) == 1
        assert is_proper_connected(g, lifted) == (True, None)
        for e in h.edges:
            assert lifted.color(*e) == c_h.color(*e)

    def test_spanning_star_shows_loose_bound(self):
        g = corpus.complete(5)
        h = corpus.star(4)
        c_h = EdgeColoring(4, {(0, i): i for i in range(1, 5)})
        lifted = lift_spanning_coloring(g, h, c_h)
        assert is_proper_connected(g, lifted) == (True, None)
        assert lifted.colors_used() == 4
        assert pc_exact(g).value == 1  # the spanning bound is far from tight

    def test_non_spanning_rejected(self):
        g = corpus.complete(4)
        h = corpus.complete(3)
        c_h = EdgeColoring(1, {e: 1 for e in h.edges})
        with pytest.raises(PreconditionError, match="span"):
            lift_spanning_coloring(g, h, c_h)

    def test_disconnected_subgraph_rejected(self):
        g = corpus.cycle(4)
        h = Graph(4, [(0, 1), (2, 3)])
        c_h = EdgeColoring(1, {(0, 1): 1, (2, 3): 1})
        with pytest.raises(PreconditionError, match="connected"):
            lift_spanning_coloring(g, h, c_h)

    def test_unconnecting_base_rejected(self):
        g = corpus.star(3)
        c_h = EdgeColoring(2, {(0, 1): 1, (0, 2): 1, (0, 3): 1})
        with pytest.raises(PreconditionError, match="not proper-connecting"):
            lift_spanning_coloring(g, g, c_h)


class TestExtendVertexAddition:
    def test_c4_adjacent_pair(self):
        g = corpus.cycle(4)
        c = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 0): 2})
        gp, cp = extend_vertex_addition(g, c, 4, (0, 1))
        assert gp.n == 5 and gp.has_edge(4, 0) and gp.has_edge(4, 1)
        assert is_proper_connected(gp, cp) == (True, None)
        for e in g.edges:
            assert cp.color(*e) == c.color(*e)

    def test_k4_single_class(self):
        g = corpus.complete(4)
        c = EdgeColoring(2, {e: 1 for e in g.edges})
        gp, cp = extend_vertex_addition(g, c, 4, (1, 3))
        assert is_proper_connected(gp, cp) == (True, None)

    def test_single_attachment_rejected(self):
        g = corpus.cycle(4)
        c = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 0): 2})
        with pytest.raises(PreconditionError, match="at least 2"):
            extend_vertex_addition(g, c, 4, (0,))

    def test_wrong_vertex_id_rejected(self):
        g = corpus.cycle(4)
        c = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 0): 2})
        with pytest.raises(PreconditionError, match="next free|next id"):
            extend_vertex_addition(g, c, 9, (0, 1))

    def test_unconnecting_base_rejected(self):
        # Each try checks only the new vertex's pairs, so the old pairs must
        # be connected already: C4 colored all 1 leaves (0, 2) unconnected.
        g = corpus.cycle(4)
        c = EdgeColoring(2, dict.fromkeys(g.edges, 1))
        with pytest.raises(PreconditionError, match=r"\(0, 2\) unconnected"):
            extend_vertex_addition(g, c, 4, (0, 2))

    def test_failure_is_genuine_and_pc_stays_two(self):
        # When the frozen base refuses every assignment of the new edges, a
        # brute sweep must agree, and the extended graph must still be pc-2.
        # At this seed every extension succeeds, so the failure branch is
        # not reached; the pin shows if that changes.
        rng = random.Random(37)
        fails = succeeded = 0
        for _ in range(80):
            n = rng.randint(4, 6)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n, m_hi), rng)
            c = exists_pc_coloring(g, 2)
            if c is None:
                continue
            targets = tuple(sorted(rng.sample(range(n), rng.randint(2, 3))))
            try:
                gp, cp = extend_vertex_addition(g, c, n, targets)
            except ExtensionError:
                fails += 1
                gp = g.with_vertex_added(list(targets))
                for combo in itertools.product((1, 2), repeat=len(targets)):
                    asg = dict(c.assignment)
                    for w, col in zip(targets, combo):
                        asg[(w, n)] = col
                    ok, _ = is_proper_connected(gp, EdgeColoring(2, asg))
                    assert not ok
                assert pc_exact(gp).value <= 2
            else:
                succeeded += 1
                assert is_proper_connected(gp, cp) == (True, None)
        assert (succeeded, fails) == (76, 0)

    def test_exhaustive_sweep(self, monkeypatch):
        # The quick tries pass on every input known, so they are made to
        # yield nothing for three new edges: the sweep must then find a
        # proper-connected coloring that keeps the old colors, or raise only
        # when a brute sweep finds none either. At this seed it always finds
        # one.
        real = construct._quick_tries

        def failing(count):
            return iter(()) if count == 3 else real(count)

        monkeypatch.setattr(construct, "_quick_tries", failing)
        rng = random.Random(43)
        swept = raised = 0
        for _ in range(40):
            n = rng.randint(4, 6)
            g = corpus.random_connected(n, rng.randint(n, n * (n - 1) // 2), rng)
            c = exists_pc_coloring(g, 2)
            if c is None:
                continue
            targets = tuple(sorted(rng.sample(range(n), 3)))
            try:
                gp, cp = extend_vertex_addition(g, c, n, targets)
            except ExtensionError:
                raised += 1
                gp = g.with_vertex_added(list(targets))
                for combo in itertools.product((1, 2), repeat=3):
                    asg = {**c.assignment, **{(w, n): col for w, col in zip(targets, combo)}}
                    assert not is_proper_connected(gp, EdgeColoring(2, asg))[0]
            else:
                swept += 1
                assert is_proper_connected(gp, cp) == (True, None)
                assert all(cp.color(*e) == c.color(*e) for e in g.edges)
        assert (swept, raised) == (39, 0)


class TestColor3ec:
    def test_petersen(self):
        g = corpus.petersen()
        c = color_3ec(g)
        assert c.colors_used() == 2
        assert has_strong_property(g, c).ok

    def test_k33_already_bipartite(self):
        g = corpus.complete_bipartite(3, 3)
        c = color_3ec(g)
        assert c.colors_used() == 2
        assert has_strong_property(g, c).ok

    def test_complete_rejected(self):
        with pytest.raises(PreconditionError, match="complete"):
            color_3ec(corpus.complete(5))

    def test_low_edge_connectivity_rejected(self):
        with pytest.raises(PreconditionError, match="kappa"):
            color_3ec(corpus.cycle(5))

    def test_named_instances_use_exactly_two_colors(self):
        graphs = [
            corpus.petersen(),
            corpus.complete_bipartite(3, 4),
            corpus.complete_bipartite(4, 4),
            corpus.hypercube(3),
            corpus.prism(5),
            corpus.moebius_ladder(5),
            corpus.wheel(7),
            corpus.circulant(8, (1, 2)),
            corpus.complete_multipartite(2, 2, 2),
            corpus.circulant(12, (1, 3)),
        ]
        for g in graphs:
            assert edge_connectivity(g) >= 3 and not g.is_complete()
            c = color_3ec(g)
            assert c.colors_used() == 2
            assert has_strong_property(g, c).ok

    def test_random_n40_finishes(self):
        # The first draw with edge connectivity >= 3; every strong-check pair
        # is settled, so the construction returns a verified coloring.
        rng = random.Random(40)
        g = corpus.random_connected(40, 120, rng)
        while edge_connectivity(g) < 3:
            g = corpus.random_connected(40, 120, rng)
        c = color_3ec(g)
        assert c.colors_used() == 2
        chk = has_strong_property(g, c)
        assert chk.ok and len(chk.witnesses) == 40 * 39 // 2
        for w in chk.witnesses.values():
            w.validate(g, c)

    def test_one_whole_graph_check_per_call(self, monkeypatch):
        # the strong check on g implies the lift's proper connectivity, so
        # each call runs it alone
        calls = {"strong": 0, "proper": 0}

        def spy(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        monkeypatch.setattr(construct, "has_strong_property", spy("strong", has_strong_property))
        monkeypatch.setattr(construct, "is_proper_connected", spy("proper", is_proper_connected))
        for g in (corpus.petersen(), corpus.hypercube(3), _two_complete_bipartite_blocks(4)):
            before = dict(calls)
            color_3ec(g)
            assert calls["strong"] - before["strong"] == 1
            assert calls["proper"] == before["proper"]

    def test_failed_construction_is_an_internal_error(self, monkeypatch):
        # an input that meets every precondition is not an input error, even
        # when a step of the construction fails
        def one_color(h):
            return EdgeColoring(2, {e: 1 for e in h.edges})

        monkeypatch.setattr(construct, "_orientation_coloring", one_color)
        with pytest.raises(InternalError, match="missed the strong property"):
            color_3ec(corpus.petersen())


    @pytest.mark.parametrize("s", [6, 10, 15])
    def test_two_complete_bipartite_blocks(self, s):
        # The BFS-parity cut leaves two joining edges uncut and no vertex flip
        # helps, so the cut subgraph has a bridge until a cut move flips the
        # second block.
        g = _two_complete_bipartite_blocks(s)
        assert edge_connectivity(g) == 3
        c = color_3ec(g)
        assert c.colors_used() == 2
        chk = has_strong_property(g, c)
        assert chk.ok and len(chk.witnesses) == g.n * (g.n - 1) // 2

    @pytest.mark.parametrize(
        "colorer, g",
        [(color_diam3, corpus.prism(5)), (color_2connected_3, corpus.petersen())],
        ids=["diam3", "2connected"],
    )
    def test_routes_compute_edge_connectivity_once(self, colorer, g, monkeypatch):
        # both routes settle lambda >= 3 with one cut-label pass, pick
        # color_3ec's construction by it, and run no max-flow
        passes = []

        def counting(h):
            passes.append(h)
            return cut_labels(h)

        def refuse(h):
            raise AssertionError("no max-flow on valid input")

        monkeypatch.setattr(construct, "cut_labels", counting)
        monkeypatch.setattr(construct, "edge_connectivity", refuse)
        assert has_strong_property(g, colorer(g)).ok
        assert passes == [g]

    def test_precondition_names_the_exact_edge_connectivity(self):
        bridged = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(PreconditionError, match="kappa'=1$"):
            color_3ec(bridged)
        with pytest.raises(PreconditionError, match="kappa'=2$"):
            color_3ec(corpus.cycle(5))


def _two_complete_bipartite_blocks(s):
    """Two K_{s,s} joined by three edges (n = 4s, edge connectivity 3)."""
    edges = []
    for base in (0, 2 * s):
        edges += [(base + i, base + s + j) for i in range(s) for j in range(s)]
    edges += [(0, 2 * s), (1, 3 * s), (2, 3 * s + 1)]
    return Graph(4 * s, edges)


class TestStrongCheckOnConstructions:
    @pytest.mark.parametrize("s", [6, 10, None], ids=["blocks6", "blocks10", "k33-ring"])
    def test_walk_trees_settle_every_pair(self, s, k33, monkeypatch):
        # the walk trees of a pair's two ends hold a witness for every pair
        # of these colorings, so no path search runs
        if s is None:
            g, c = k33, construct._ring_decoration(k33)
        else:
            g = _two_complete_bipartite_blocks(s)
            c = color_3ec(g)

        def refuse(*args, **kwargs):
            raise AssertionError("the walk trees should settle every pair")

        monkeypatch.setattr(coloring, "_dfs_path", refuse)
        monkeypatch.setattr(coloring, "_matching_path", refuse)
        chk = has_strong_property(g, c)
        assert chk.ok and len(chk.witnesses) == g.n * (g.n - 1) // 2
        for w in chk.witnesses.values():
            w.validate(g, c)


def _lambda2_input(n, s):
    """The first draw of ``random_connected(n, int(2.2 n))`` from
    ``Random(f"2c:{n}:{s}")`` that is 2-connected, not bipartite and has
    edge connectivity 2."""
    rng = random.Random(f"2c:{n}:{s}")
    while True:
        g = corpus.random_connected(n, int(2.2 * n), rng)
        if connectivity(g) >= 2 and bipartition(g) is None and edge_connectivity(g) == 2:
            return g


# Inputs on which the strong two-color search used to run out of its budget.
_STUCK_INPUTS = {
    "n14-m31-seed5": lambda: corpus.random_connected(14, 31, random.Random(5)),
    **{f"2c:{n}:{s}": functools.partial(_lambda2_input, n, s)
       for n, s in ((12, 0), (12, 1), (12, 2), (12, 3), (12, 4), (12, 5), (14, 0))},
}


class TestColor2Connected3:
    @pytest.mark.parametrize("name", list(_STUCK_INPUTS))
    def test_two_color_search_settles_lambda2_inputs(self, name):
        g = _STUCK_INPUTS[name]()
        assert connectivity(g) == edge_connectivity(g) == 2 and bipartition(g) is None
        found = exists_pc_coloring(
            g, 2, require_strong=True, budget_nodes=construct._two_color_budget(g)
        )
        assert found is not None
        c = color_2connected_3(g)
        assert c == found
        assert has_strong_property(g, c).ok

    def test_c5_needs_the_third_color(self):
        # No strong 2-coloring of C5 exists: between adjacent vertices the
        # only proper 4-edge path alternates, clashing with the direct edge
        # at one end. The plain connection number is still 2.
        g = corpus.cycle(5)
        assert exists_pc_coloring(g, 2, require_strong=True) is None
        assert pc_exact(g).value == 2
        c = color_2connected_3(g)
        assert c.colors_used() == 3
        assert has_strong_property(g, c).ok

    def test_k4(self):
        g = corpus.complete(4)
        c = color_2connected_3(g)
        assert c.colors_used() <= 3
        assert has_strong_property(g, c).ok

    def test_counterexample_needs_all_three(self, mini):
        c = color_2connected_3(mini)
        assert c.colors_used() == 3
        assert is_proper_connected(mini, c) == (True, None)

    def test_not_2connected_rejected(self):
        with pytest.raises(PreconditionError, match="2-connected"):
            color_2connected_3(corpus.path_graph(4))

    def test_k33_gadget_is_checked_once(self, monkeypatch):
        # the decoration's class colorings are not checked one by one; the
        # strong check runs once, on the answer
        g, _ = build_counterexample("k33", 1)
        checked = []

        def spy(h, c):
            checked.append(h)
            return has_strong_property(h, c)

        monkeypatch.setattr(construct, "has_strong_property", spy)
        color_2connected_3(g)
        assert checked == [g]

    @pytest.mark.parametrize(
        "scale, digest",
        [
            (1, "e7eb5dd2fc3bfc1a93b8f579380664f77c517b89c199f568316b10caace6862a"),
            (2, "569ff6e13f5238cae7aceebb571c1a001d7e8cdcc958b8c862fa3326084c6ab9"),
        ],
        ids=("scale1", "scale2"),
    )
    def test_k33_decoration_tests_each_class_once(self, scale, digest, monkeypatch):
        # each of the 18 multi-vertex classes is tested once for
        # connectivity, bridges and bipartiteness, and oriented without a
        # second test; the coloring is the one pinned (sha256 of
        # format_coloring, recorded before the class tests were shared)
        g, _ = build_counterexample("k33", scale)
        calls = dict.fromkeys(("is_connected", "bridges", "bipartition"), 0)
        for name in calls:

            def spy(h, real=getattr(construct, name), name=name):
                calls[name] += 1
                return real(h)

            monkeypatch.setattr(construct, name, spy)
        c = construct._ring_decoration(g)
        assert calls == dict.fromkeys(calls, 18)
        assert hashlib.sha256(format_coloring(c).encode()).hexdigest() == digest

    def test_small_two_connected_sweep(self):
        for n in range(3, 7):
            for g in corpus.connected_graphs(n):
                if connectivity(g) < 2:
                    continue
                c = color_2connected_3(g)
                assert c.colors_used() <= 3
                assert has_strong_property(g, c).ok

    def test_three_ec_classes_match_the_pairwise_oracle(self, mini):
        # one refinement per label class against one per cut of two edges
        graphs = [
            g
            for n in range(3, 8)
            for g in corpus.connected_graphs(n)
            if construct._two_connected(g, chain_decomposition(g))
        ]
        assert len(graphs) == 538
        graphs.append(mini)
        graphs += [build_counterexample("k33", scale)[0] for scale in (1, 2, 3)]
        graphs += [_lambda2_input(n, s) for n, s in ((14, 1), (16, 3), (40, 4), (30, 0))]
        for g in graphs:
            assert construct._three_ec_classes(g) == oracles.brute_three_ec_classes(g)

    def test_chain_test_is_2_connectivity(self):
        for n in range(1, 8):
            for g in corpus.all_graphs(n):
                chains = chain_decomposition(g)
                assert construct._two_connected(g, chains) == (connectivity(g) >= 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("n, s", [(14, 1), (16, 3), (40, 4), (30, 0)])
    def test_ears_color_what_the_two_color_search_leaves(self, n, s, monkeypatch):
        # the budgeted two-color search runs out and the ring decoration
        # fails its check on these; the ears answer, with no three-color search
        g = _lambda2_input(n, s)
        palettes = []
        search = construct.exists_pc_coloring

        def spy(h, k, **kwargs):
            palettes.append(k)
            return search(h, k, **kwargs)

        monkeypatch.setattr(construct, "exists_pc_coloring", spy)
        t0 = time.process_time()
        c = color_2connected_3(g)
        assert time.process_time() - t0 < 120
        assert palettes == [2]
        assert c.k == 3 and c.colors_used() <= 3
        assert has_strong_property(g, c).ok


class TestEarColoring:
    def test_every_small_two_connected_graph(self):
        graphs = [g for n in range(3, 8) for g in corpus.connected_graphs(n) if connectivity(g) >= 2]
        assert len(graphs) == 538
        for g in graphs:
            c = construct._ear_coloring(g, chain_decomposition(g))
            assert c.colors_used() <= 3
            assert has_strong_property(g, c).ok

    @pytest.mark.slow
    @pytest.mark.parametrize("variant, scale", [("mini", 1), ("k33", 1), ("k33", 2), ("k33", 3)])
    def test_gadgets(self, variant, scale):
        g, _ = build_counterexample(variant, scale)
        t0 = time.process_time()
        c = construct._ear_coloring(g, chain_decomposition(g))
        assert time.process_time() - t0 < 30
        assert has_strong_property(g, c).ok

    def test_an_ear_no_sequence_fits_is_named(self, monkeypatch):
        # K4's chains: the triangle 0-2-1-0, the ear 0-3-2 and the edge 1-3;
        # colors 1, 2 on the ear leave a pair at vertex 3 without a witness
        g = corpus.complete(4)
        chains = chain_decomposition(g)
        assert chains[1] == (0, 3, 2)
        monkeypatch.setattr(construct, "_EAR_ENDS", ((1, 2),))
        with pytest.raises(InternalError, match=r"ear \(0, 3, 2\)"):
            construct._ear_coloring(g, chains)


class TestClassifyDiam3:
    def test_c7_is_the_odd_cycle_case(self):
        dec = classify_diam3(corpus.cycle(7))
        assert dec.case_tag == CASE2_ODD_CYCLE
        assert len(dec.odd_cycle) == 7

    def test_two_k4s_wide_cut(self):
        dec = classify_diam3(_two_k4_matching())
        assert dec.case_tag in (CASE1_SUB11, CASE1_SUB12)
        assert dec.cut is not None and dec.hubs is not None
        assert len(dec.h1) >= 3 and len(dec.h2) >= 3

    def test_two_c4_bridge_is_sub11(self):
        g = _two_c4_bridge()
        dec = classify_diam3(g)
        assert dec.case_tag == CASE1_SUB11
        u1, v1, u2, v2 = dec.hubs
        q1 = set(dec.h1) - {u1, v1}
        assert set(dec.q["1,0"]) == set(g.adj[u1]) & set(g.adj[v1]) & q1
        assert dec.q["1,1"] == () and dec.q["1,2"] == ()

    def test_hypercube_is_three_edge_connected(self):
        dec = classify_diam3(corpus.hypercube(3))
        assert dec.case_tag == CASE_THREE_EC

    def test_k33_with_pair_is_narrow_cut(self):
        dec = classify_diam3(_k33_with_pair())
        assert dec.case_tag == CASE2_BIPARTITE
        assert dec.pair_components == ((6, 7, 0, 1),)
        assert dec.classes == (((0, 1), (0,)),)  # one class, one member pair

    def test_case2_searches_for_an_even_cycle_once(self, monkeypatch):
        # an odd cycle is told by its degrees; the core search finds its own
        # seed cycle, so classification searches no second time
        calls = 0
        core_search = construct.maximal_2ec_bipartite_subgraph

        def counting(g):
            nonlocal calls
            calls += 1
            return core_search(g)

        monkeypatch.setattr(construct, "maximal_2ec_bipartite_subgraph", counting)
        assert classify_diam3(_k33_with_pair()).case_tag == CASE2_BIPARTITE
        assert calls == 1
        assert classify_diam3(corpus.cycle(7)).case_tag == CASE2_ODD_CYCLE
        assert calls == 1

    def test_case2_without_an_even_cycle_must_be_a_cycle(self):
        # two triangles sharing a vertex: no even cycle, and not a cycle
        bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        with pytest.raises(InternalError, match="must be a cycle"):
            construct._classify_case2(bowtie)

    def test_wide_two_cut_matches_the_pairwise_definition(self):
        # Sparse graphs have bridges, so some removals leave three
        # components and both sides must raise alike; the last two graphs
        # are disconnected.
        def by_pairs(g):
            for i, e in enumerate(g.edges):
                for f in g.edges[i + 1 :]:
                    comps = connected_components(g.without_edges([e, f]))
                    if len(comps) == 1:
                        continue
                    if len(comps) != 2:
                        raise InternalError(f"{len(comps)} components")
                    if min(map(len, comps)) >= 3:
                        return e, f, comps
            return None

        def outcome(fn, g):
            try:
                return fn(g)
            except InternalError as exc:
                return "raises", str(exc).split()[-2]  # the component count

        rng = random.Random(41)
        graphs = [
            corpus.random_connected(n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)), rng)
            for n in rng.choices(range(4, 13), k=120)
        ]
        graphs += [
            _two_k4_matching(),
            _two_c4_bridge(),
            Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]),
            Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
        ]
        found = raised = 0
        for g in graphs:
            want = outcome(by_pairs, g)
            assert outcome(construct._wide_two_cut, g) == want
            found += want is not None and want[0] != "raises"
            raised += want is not None and want[0] == "raises"
        assert found >= 10 and raised >= 10

    def test_preconditions_named(self):
        with pytest.raises(PreconditionError, match="noncomplete"):
            classify_diam3(corpus.complete(4))
        with pytest.raises(PreconditionError, match="diameter is 2"):
            classify_diam3(corpus.cycle(4))
        with pytest.raises(PreconditionError, match="2-connected"):
            classify_diam3(corpus.path_graph(4))
        with pytest.raises(PreconditionError, match="connected"):
            classify_diam3(Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))


class TestGrowByDegree2Additions:
    def test_identity(self):
        g = corpus.cycle(4)
        c = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 0): 2})
        out = grow_by_degree2_additions(g, range(4), c)
        assert out.assignment == c.assignment

    def test_wheel_missing_spoke(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2)])
        c0 = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 0): 2})
        chain: list = []
        out = grow_by_degree2_additions(g, range(4), c0, chain_out=chain)
        assert is_proper_connected(g, out) == (True, None)
        assert chain[0] == (0, 1, 2, 3) and chain[-1] == (0, 1, 2, 3, 4)

    def test_seed_must_cover_induced_edges(self):
        g = corpus.complete(4)
        c0 = EdgeColoring(2, {(0, 1): 1})
        with pytest.raises(PreconditionError, match="induced"):
            grow_by_degree2_additions(g, (0, 1, 2), c0)

    def test_seed_must_connect(self):
        g = corpus.cycle(4)
        c0 = EdgeColoring(2, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1})
        with pytest.raises(PreconditionError, match="unconnected"):
            grow_by_degree2_additions(g, range(4), c0)
        # the pair is named by its ids in g, not in the induced subgraph
        c0 = EdgeColoring(2, {(1, 2): 1, (2, 3): 1, (3, 4): 1})
        with pytest.raises(PreconditionError, match=r"\(1, 3\) unconnected"):
            grow_by_degree2_additions(corpus.cycle(5), (1, 2, 3, 4), c0)

    def test_step_without_a_passing_try_names_the_vertex(self, monkeypatch):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2)])
        c0 = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 0): 2})
        monkeypatch.setattr(construct, "_quick_tries", lambda count: iter(()))
        with pytest.raises(InternalError, match="vertex 4 "):
            grow_by_degree2_additions(g, range(4), c0)


def _matched_far_book(pages):
    edges = [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (3, 5), (0, 6), (1, 7)]
    edges += [(h, 8 + i) for i in range(pages) for h in (6, 7)]
    return Graph(8 + pages, edges)


def _case1_input(n, rng):
    """A 2-connected diameter-3 graph tagged Case 1: hubs u1, v1 | u2, v2
    joined by the cut u1u2, v1v2; the far side holds 1 to n/3 - 2 common
    neighbors of u2 and v2, each near vertex is a common (15%), u1-only (40%)
    or v1-only (45%) neighbor, and u1-only/v1-only pairs are joined with
    probability p in [0.2, 0.6]. Vertex ids are shuffled."""
    while True:
        u1, v1, u2, v2 = range(4)
        far = rng.randint(1, n // 3 - 2)
        edges = [(u1, u2), (v1, v2)]
        edges += [(h, w) for w in range(4, 4 + far) for h in (u2, v2)]
        only: dict = {u1: [], v1: []}
        for w in range(4 + far, n):
            r = rng.random()
            hubs = (u1, v1) if r < 0.15 else (u1,) if r < 0.55 else (v1,)
            edges += [(h, w) for h in hubs]
            if len(hubs) == 1:
                only[hubs[0]].append(w)
        p = rng.uniform(0.2, 0.6)
        edges += [(x, y) for x in only[u1] for y in only[v1] if rng.random() < p]
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, [(perm[a], perm[b]) for a, b in edges])
        if diameter(g) == 3 and connectivity(g) >= 2:
            if classify_diam3(g).case_tag in (CASE1_SUB11, CASE1_SUB12):
                return g


# sha256 of test_seeded_case1_inputs' colorings and growth chains
CASE1_DIGEST = "ac8be61c06f4d547bdde3fe950924c6e113f2439e4e4548ae87f833e3e1a0a33"
# sha256 of test_colorings_are_pinned's colorings
DIAM3_DIGEST = "8c590842a01ae83a6ddc3ec93610b3ea59b5b9bbdaf2988cbd1de2cd9eff8e3d"


@pytest.fixture
def no_exact_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("color_diam3 reached the exact search")

    monkeypatch.setattr(construct, "exists_pc_coloring", refuse)


class TestColorDiam3:
    def test_c7_exact_pattern(self):
        g = corpus.cycle(7)
        c = color_diam3(g)
        ring = [(i, (i + 1) % 7) for i in range(7)]
        assert [c.color(*e) for e in ring] == [1, 2, 1, 2, 1, 2, 1]
        assert is_proper_connected(g, c) == (True, None)

    def test_two_c4_bridge(self):
        g = _two_c4_bridge()
        c = color_diam3(g)
        assert c.colors_used() <= 2
        assert is_proper_connected(g, c) == (True, None)

    def test_two_k4_matching(self):
        g = _two_k4_matching()
        c = color_diam3(g)
        assert c.colors_used() <= 2
        assert is_proper_connected(g, c) == (True, None)

    def test_hypercube(self):
        g = corpus.hypercube(3)
        c = color_diam3(g)
        assert c.colors_used() == 2
        assert has_strong_property(g, c).ok

    @pytest.mark.parametrize(
        "g, matching, q20",
        [
            # Hubs 0, 1 | 6, 7 with a two-edge matching (2,4), (3,5) and two
            # far common neighbors 8, 9: both books are strong-2-colored.
            pytest.param(
                _matched_far_book(2), ((2, 4), (3, 5)), (8, 9), id="two-books"
            ),
            # Without 9 the far book has one page: the ear u1,u2,w,v2,v1.
            pytest.param(_matched_far_book(1), ((2, 4), (3, 5)), (8,), id="one-far"),
            # One matching edge: the ear u2,u1,x,y,v1,v2 on the far book.
            pytest.param(
                Graph(9, [(0, 2), (2, 3), (3, 1), (0, 8), (1, 8), (4, 6), (4, 7),
                          (5, 6), (5, 7), (0, 4), (1, 5)]),
                ((2, 3),), (6, 7), id="one-match",
            ),
            # Both books have one page: the seed is the 7-cycle u1,x,y,v1,v2,w,u2.
            pytest.param(
                Graph(7, [(0, 1), (0, 5), (0, 6), (1, 4), (1, 6), (2, 3), (2, 5),
                          (3, 4)]),
                ((2, 3),), (6,), id="seven-cycle",
            ),
        ],
    )
    def test_matched_seed_colors_its_scaffold(self, g, matching, q20, no_exact_search):
        dec = classify_diam3(g)
        assert dec.case_tag == CASE1_SUB12
        assert dec.matching == matching and dec.q["2,0"] == q20
        c = color_diam3(g)
        assert c.colors_used() == 2
        assert is_proper_connected(g, c) == (True, None)

    def test_seeded_case1_inputs(self, no_exact_search, monkeypatch):
        # Case 1 at the sizes where a seed with a one-page book once went to
        # a budgeted exact search, which could give up (see the input below).
        # The digest pins the colorings and growth chains as the colorer gave
        # them when each growth step still checked every pair of the grown
        # subgraph; checking only the new vertex's row must not change them.
        decs = []
        classify = construct.classify_diam3
        monkeypatch.setattr(
            construct, "classify_diam3", lambda h: decs.append(classify(h)) or decs[-1]
        )
        digest = hashlib.sha256()
        rng = random.Random(0)
        shapes = set()
        for i in range(60):
            g = _case1_input(20 + i % 21, rng)
            dec = classify_diam3(g)
            shapes.add((len(dec.matching) >= 2, len(dec.q["2,0"]) >= 2))
            t0 = time.process_time()
            c = color_diam3(g)
            assert time.process_time() - t0 < 1
            assert c.colors_used() <= 2
            assert is_proper_connected(g, c) == (True, None)
            digest.update(format_coloring(c).encode())
            digest.update(json.dumps(decs[-1].chain).encode())
        # A near side of 14 or more vertices always has two disjoint u1-v1
        # pages here, so the one-match shapes show up only in the test above.
        assert shapes == {(True, True), (True, False)}
        assert digest.hexdigest() == CASE1_DIGEST

    def test_case1_regression_input(self, no_exact_search):
        # Far side u2-w-v2 and six matching edges: the exact search that once
        # colored this seed gave up after 2M nodes.
        g = Graph(22, [tuple(map(int, e.split("-"))) for e in (
            "0-2 0-3 0-5 0-6 0-8 0-9 0-11 0-12 0-13 0-14 0-16 0-19 1-3 1-4 1-6 "
            "1-7 1-9 1-10 1-11 1-15 1-17 1-18 1-20 2-7 2-17 2-18 4-5 4-8 4-13 "
            "4-16 5-7 5-10 7-8 7-13 7-14 7-16 8-10 8-15 10-12 13-15 14-15 14-17 "
            "14-18 19-21 20-21"
        ).split()])
        dec = classify_diam3(g)
        assert dec.case_tag == CASE1_SUB12 and dec.q["2,0"] == (21,)
        t0 = time.process_time()
        c = color_diam3(g)
        assert time.process_time() - t0 < 1
        assert is_proper_connected(g, c) == (True, None)

    def test_one_whole_graph_check_per_call(self, monkeypatch):
        # Seeds and pieces are built unchecked; each call runs one check,
        # on the coloring it returns: the strong check of the ThreeEC case,
        # else the proper-connection check.
        seen: list = []
        decs: list = []

        def spy(real):
            def counted(h, c):
                seen.append((h.n, h.edges, c.as_vector(h)))
                return real(h, c)

            return counted

        monkeypatch.setattr(construct, "is_proper_connected", spy(is_proper_connected))
        monkeypatch.setattr(construct, "has_strong_property", spy(has_strong_property))
        classify = construct.classify_diam3
        monkeypatch.setattr(
            construct, "classify_diam3", lambda h: decs.append(classify(h)) or decs[-1]
        )
        eligible = lambda h: connectivity(h) >= 2 and diameter(h) == 3
        tags = set()
        for g in corpus.random_graphs_with(eligible, 60, (8, 10), seed=5):
            seen.clear()
            c = color_diam3(g)
            if len(decs[-1].chain) > 1:  # a seed grew
                tags.add(decs[-1].case_tag)
            assert seen == [(g.n, g.edges, c.as_vector(g))]
        assert {CASE1_SUB11, CASE2_BIPARTITE} <= tags

    def test_failed_seed_is_an_internal_error(self, monkeypatch):
        # the one-match seed is one alternating walk; colored all 1, it is no
        # input error but a failed construction
        g = Graph(9, [(0, 2), (2, 3), (3, 1), (0, 8), (1, 8), (4, 6), (4, 7),
                      (5, 6), (5, 7), (0, 4), (1, 5)])
        assert classify_diam3(g).case_tag == CASE1_SUB12
        alternating = construct._alternating
        monkeypatch.setattr(
            construct, "_alternating", lambda walk: dict.fromkeys(alternating(walk), 1)
        )
        with pytest.raises(InternalError):
            color_diam3(g)

    def test_colorings_are_pinned(self):
        # test_exhaustive_small's 147 graphs, then test_narrow_cut_at_scale's
        # two inputs; the digest was taken before the seeds and pieces lost
        # their own checks
        graphs = [
            g
            for n in range(4, 8)
            for g in corpus.connected_graphs(n)
            if not g.is_complete() and connectivity(g) >= 2 and diameter(g) == 3
        ]
        assert len(graphs) == 147
        for n, s in ((20, 7), (30, 31)):
            rng = random.Random(f"d3:{n}:{s}")
            graphs.append(corpus.random_connected(n, int(n * rng.uniform(1.6, 3.0)), rng))
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(format_coloring(color_diam3(g)).encode())
        assert digest.hexdigest() == DIAM3_DIGEST

    @pytest.mark.parametrize("n, s, m", [(20, 7, 52), (30, 31, 87)])
    def test_narrow_cut_at_scale(self, n, s, m):
        # The core search once took 11 s and 30 s of CPU on these inputs.
        rng = random.Random(f"d3:{n}:{s}")
        g = corpus.random_connected(n, int(n * rng.uniform(1.6, 3.0)), rng)
        assert g.m == m and classify_diam3(g).case_tag == CASE2_BIPARTITE
        t0 = time.process_time()
        c = color_diam3(g)
        assert time.process_time() - t0 < 5
        assert c.colors_used() <= 2
        assert is_proper_connected(g, c) == (True, None)

    def test_narrow_cut_instance(self):
        g = _k33_with_pair()
        c = color_diam3(g)
        assert c.colors_used() <= 2
        assert is_proper_connected(g, c) == (True, None)

    def test_exhaustive_small(self, no_exact_search):
        # 3-edge-connectivity forces diameter < 3 below n = 8, so that tag
        # only shows up for larger hosts (see test_hypercube).
        hits: dict = {}
        for n in range(4, 8):
            for g in corpus.connected_graphs(n):
                if g.is_complete() or connectivity(g) < 2:
                    continue
                if diameter(g) != 3:
                    continue
                dec = classify_diam3(g)
                hits[dec.case_tag] = hits.get(dec.case_tag, 0) + 1
                c = color_diam3(g)
                assert c.colors_used() <= 2
                assert is_proper_connected(g, c) == (True, None)
        assert hits == {
            CASE1_SUB11: 14,
            CASE1_SUB12: 3,
            CASE2_ODD_CYCLE: 1,
            CASE2_BIPARTITE: 129,
        }
