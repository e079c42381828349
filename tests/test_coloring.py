"""Edge colorings, proper-path certificates, and the connectivity checkers."""

import hashlib
import itertools
import json
import random

import pytest

from properconn import (
    ColoringError,
    EdgeColoring,
    Graph,
    InternalError,
    PreconditionError,
    ProperPathCertificate,
    StrongWitness,
    certificate_from_path,
    corpus,
    has_strong_property,
    is_proper_connected,
    proper_path_exists,
    proper_walk_exists,
    proper_walk_reach,
)
from properconn import coloring

import oracles


def _cycle_coloring(n, pattern):
    g = corpus.cycle(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return g, EdgeColoring(max(pattern), dict(zip(edges, pattern)))


class TestEdgeColoring:
    def test_normalizes_edge_orientation(self):
        c = EdgeColoring(2, {(1, 0): 2})
        assert c.color(0, 1) == 2
        assert c.color(1, 0) == 2

    def test_missing_edge_rejected(self):
        g = corpus.path_graph(3)
        c = EdgeColoring(1, {(0, 1): 1})
        with pytest.raises(ColoringError, match="missing"):
            c.validate(g)

    def test_alien_edge_rejected(self):
        g = corpus.path_graph(3)
        c = EdgeColoring(1, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        with pytest.raises(ColoringError, match="alien"):
            c.validate(g)

    def test_color_out_of_palette_rejected(self):
        g = corpus.path_graph(2)
        with pytest.raises(ColoringError, match="outside"):
            EdgeColoring(1, {(0, 1): 2}).validate(g)
        with pytest.raises(ColoringError, match="outside"):
            EdgeColoring(2, {(0, 1): 0}).validate(g)

    def test_vector_roundtrip(self):
        g = corpus.cycle(5)
        vec = (1, 2, 1, 2, 1)
        c = EdgeColoring.from_vector(g, 2, vec)
        c.validate(g)
        assert c.as_vector(g) == vec
        with pytest.raises(ColoringError, match="length"):
            EdgeColoring.from_vector(g, 2, (1, 2))

    def test_colors_used(self):
        g = corpus.cycle(4)
        c = EdgeColoring.from_vector(g, 5, (1, 3, 1, 3))
        assert c.colors_used() == 2


class TestCertificates:
    def test_valid_certificate(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        cert = certificate_from_path(g, c, (0, 1, 2))
        assert cert.start_color == 1 and cert.end_color == 2
        cert.validate(g, c)

    def test_improper_path_rejected(self):
        g = corpus.path_graph(3)
        c = EdgeColoring(1, {(0, 1): 1, (1, 2): 1})
        with pytest.raises(InternalError, match="not proper"):
            certificate_from_path(g, c, (0, 1, 2))

    def test_revisit_rejected(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        with pytest.raises(InternalError, match="revisits"):
            ProperPathCertificate((0, 1, 0), (1, 2)).validate(g, c)

    def test_non_edge_rejected(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        with pytest.raises(InternalError, match="non-edge"):
            ProperPathCertificate((0, 2), (1,)).validate(g, c)

    def test_color_mismatch_rejected(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        with pytest.raises(InternalError, match="mismatch"):
            ProperPathCertificate((0, 1), (2,)).validate(g, c)

    def test_builder_rejects_what_validate_rejects(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 1))
        for path, why in (
            ((0,), "traverse an edge"),
            ((0, 1, 0), "revisits"),
            ((0, 2), "non-edge"),
            ((1, 0, 3, 2), "not proper"),
        ):
            with pytest.raises(InternalError, match=why):
                certificate_from_path(g, c, path)
        assert certificate_from_path(g, c, [2, 1, 0]).colors == (2, 1)

    def test_strong_witness_needs_distinct_ends(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        p1 = certificate_from_path(g, c, (0, 1))
        p3 = certificate_from_path(g, c, (0, 3, 2, 1))
        StrongWitness(p1, p3).validate(g, c)
        with pytest.raises(InternalError, match="start colors"):
            StrongWitness(p1, p1).validate(g, c)


class TestProperWalkExists:
    def test_single_edge(self):
        g = corpus.path_graph(2)
        c = EdgeColoring(3, {(0, 1): 2})
        assert proper_walk_exists(g, c, 0, 1)

    def test_repeated_color_blocks_walk(self):
        g = corpus.path_graph(3)
        c = EdgeColoring(1, {(0, 1): 1, (1, 2): 1})
        assert not proper_walk_exists(g, c, 0, 2)

    def test_alternating_cycle_reaches_opposite(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        assert proper_walk_exists(g, c, 0, 2)

    def test_walk_does_not_imply_path(self):
        # 0-1-2 is the only simple 0..2 path and repeats color 1, but the
        # walk 0,1,3,4,1,2 alternates; the filter is negative-only.
        g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 1)])
        c = EdgeColoring(
            2, {(0, 1): 1, (1, 2): 1, (1, 3): 2, (3, 4): 1, (4, 1): 2}
        )
        assert proper_walk_exists(g, c, 0, 2)
        assert proper_path_exists(g, c, 0, 2) is None

    def test_negative_filter_is_sound_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(3, 10)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n - 1, min(m_hi, 2 * n)), rng)
            k = rng.randint(1, 3)
            c = EdgeColoring.from_vector(
                g, k, [rng.randint(1, k) for _ in range(g.m)]
            )
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if not proper_walk_exists(g, c, u, v):
                        assert proper_path_exists(g, c, u, v) is None


class TestProperPathExists:
    def test_k3_single_color_direct_edges(self):
        g = corpus.complete(3)
        c = EdgeColoring(1, {e: 1 for e in g.edges})
        for u, v in itertools.combinations(range(3), 2):
            cert = proper_path_exists(g, c, u, v)
            assert cert is not None and cert.path == (u, v)

    def test_p4_endpoint_pair_absent(self):
        g = corpus.path_graph(4)
        c = EdgeColoring(2, {(0, 1): 1, (1, 2): 1, (2, 3): 2})
        assert proper_path_exists(g, c, 0, 3) is None
        assert proper_path_exists(g, c, 1, 3) is not None

    def test_same_endpoint_rejected(self):
        g = corpus.path_graph(2)
        c = EdgeColoring(1, {(0, 1): 1})
        with pytest.raises(PreconditionError):
            proper_path_exists(g, c, 1, 1)

    def test_certificates_validate(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(3, 8)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n - 1, min(m_hi, 2 * n)), rng)
            k = rng.randint(1, 3)
            c = EdgeColoring.from_vector(
                g, k, [rng.randint(1, k) for _ in range(g.m)]
            )
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    cert = proper_path_exists(g, c, u, v)
                    if cert is not None:
                        assert cert.path[0] == u and cert.path[-1] == v
                        cert.validate(g, c)

    def test_matches_enumeration_exhaustively(self):
        # Every 2-coloring of every connected graph on <= 5 vertices.
        for g in corpus.connected_graphs(4) + corpus.connected_graphs(5):
            for vec in itertools.product((1, 2), repeat=g.m):
                c = EdgeColoring.from_vector(g, 2, vec)
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        got = proper_path_exists(g, c, u, v) is not None
                        assert got == oracles.brute_has_proper_path(g, c, u, v)


class TestIsProperConnected:
    def test_complete_single_color(self):
        for n in (2, 3, 4, 5):
            g = corpus.complete(n)
            c = EdgeColoring(1, {e: 1 for e in g.edges})
            assert is_proper_connected(g, c) == (True, None)

    def test_star_needs_leaf_count_colors(self):
        g = corpus.star(3)
        c = EdgeColoring(2, {(0, 1): 1, (0, 2): 2, (0, 3): 1})
        ok, pair = is_proper_connected(g, c)
        assert not ok
        assert pair == (1, 3)  # both leaf edges carry color 1

    def test_c5_alternating_with_seam(self):
        g, c = _cycle_coloring(5, (1, 2, 1, 2, 1))
        assert is_proper_connected(g, c) == (True, None)

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        c = EdgeColoring(1, {(0, 1): 1, (2, 3): 1})
        with pytest.raises(PreconditionError, match="connected"):
            is_proper_connected(g, c)

    def test_failing_pair_is_lexicographically_first(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(3, 7)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n - 1, min(m_hi, 2 * n)), rng)
            c = EdgeColoring.from_vector(g, 2, [rng.randint(1, 2) for _ in range(g.m)])
            ok, pair = is_proper_connected(g, c)
            bad = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not oracles.brute_has_proper_path(g, c, u, v)
            ]
            assert ok == (not bad)
            assert pair == (min(bad) if bad else None)


class TestHasStrongProperty:
    def test_c4_alternating(self):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        chk = has_strong_property(g, c)
        assert chk.ok and chk.failing_pair is None
        assert set(chk.witnesses) == {
            (u, v) for u in range(4) for v in range(u + 1, 4)
        }
        for (u, v), w in chk.witnesses.items():
            w.validate(g, c)
            for cert in (w.p1, w.p2):
                assert (cert.path[0], cert.path[-1]) == (u, v)

    def test_trees_always_fail(self):
        rng = random.Random(5)
        for g in (corpus.path_graph(4), corpus.star(3), rng.choice(corpus.trees(7))):
            c = EdgeColoring.from_vector(
                g, g.m, list(range(1, g.m + 1))
            )  # even a rainbow coloring has one path per pair
            chk = has_strong_property(g, c)
            assert not chk.ok and chk.failing_pair is not None

    def test_k4_single_color_fails(self):
        g = corpus.complete(4)
        c = EdgeColoring(1, {e: 1 for e in g.edges})
        assert is_proper_connected(g, c) == (True, None)
        chk = has_strong_property(g, c)
        assert not chk.ok

    def test_disconnected_rejected(self):
        g = Graph(3, [(0, 1)])
        c = EdgeColoring(1, {(0, 1): 1})
        with pytest.raises(PreconditionError, match="connected"):
            has_strong_property(g, c)

    def test_matches_brute_force(self):
        _strong_matches_brute_force(random.Random(13))

    @pytest.mark.parametrize("end", (0, 1))
    def test_witness_sharing_an_end_color_is_an_internal_error(self, end, monkeypatch):
        # a rule that returns two paths with the same color at one end, when
        # the list has two, must not get past the check
        witness = coloring._witness

        def sharing(ends):
            for i, j in itertools.combinations(range(len(ends)), 2):
                if ends[i][end] == ends[j][end] and ends[i][1 - end] != ends[j][1 - end]:
                    return i, j
            return witness(ends)

        monkeypatch.setattr(coloring, "_witness", sharing)
        rng = random.Random(67)
        raised = 0
        for _ in range(20):
            g, c = _random_colored(rng, 6, 9, 3)
            try:
                has_strong_property(g, c)
            except InternalError as exc:
                assert "shares an end color" in str(exc)
                raised += 1
        assert raised


def _strong_record(check, rng):
    """Verdict, failing pair, witness keys and witness paths of ``check`` on
    seeded colorings (n 3-7, k 2-4), drawn until 40 pass and 40 fail."""
    seen = {True: 0, False: 0}
    out = []
    while min(seen.values()) < 40:
        n = rng.randint(3, 7)
        g = corpus.random_connected(n, rng.randint(n, min(n * (n - 1) // 2, 2 * n)), rng)
        k = rng.randint(2, 4)
        c = EdgeColoring.from_vector(g, k, [rng.randint(1, k) for _ in range(g.m)])
        chk = check(g, c)
        seen[chk.ok] += 1
        out.append(
            [chk.ok, chk.failing_pair, [[*key, w.p1.path, w.p2.path] for key, w in chk.witnesses.items()]]
        )
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


class TestStrongRows:
    """``_strong_rows``, the strong check restricted to the pairs at some
    rows, which the ear construction runs on each ear's new vertices."""

    def test_matches_brute_force_on_the_rows(self):
        rng = random.Random(71)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 40:
            n = rng.randint(3, 7)
            g, c = _random_colored(rng, n, rng.randint(n, min(n * (n - 1) // 2, 2 * n)), rng.randint(2, 3))
            rows = rng.sample(range(n), rng.randint(1, n))
            chk = coloring._strong_rows(g, c, rows)
            want = oracles.brute_strong(g, c, set(rows))
            assert (chk.ok, chk.failing_pair) == (want is None, want)
            seen[chk.ok] += 1
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if u in rows or v in rows]
            upto = pairs.index(chk.failing_pair) if not chk.ok else len(pairs)
            assert list(chk.witnesses) == pairs[:upto]
            for (u, v), w in chk.witnesses.items():
                w.validate(g, c)
                assert all((cert.path[0], cert.path[-1]) == (u, v) for cert in (w.p1, w.p2))

    def test_every_row_gives_the_full_check(self):
        # the digest of has_strong_property's records before the rows core
        # was split out of it
        want = "0462eb4cae02125f61f6cbfd4c76031868d885314ee40336908f8e349b07e48f"

        def every_row(g, c):
            return coloring._strong_rows(g, c, range(g.n))

        assert _strong_record(every_row, random.Random(73)) == want
        assert _strong_record(has_strong_property, random.Random(73)) == want


class TestProperRows:
    """``_first_unconnected_pair`` on the pairs at some rows, which each
    growth step of the constructions runs on its new vertices."""

    def test_matches_brute_force_on_the_rows(self):
        rng = random.Random(79)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 60:
            n = rng.randint(3, 7)
            g, c = _random_colored(rng, n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)), rng.randint(2, 3))
            rows = rng.sample(range(n), rng.randint(1, n))
            pair = coloring._first_unconnected_pair(coloring._ColorView(g, c.as_vector(g)), rows)
            ok = oracles.brute_is_pc(g, c, set(rows))
            assert (pair is None) == ok
            seen[ok] += 1
            # the first failing pair with an end in the rows
            want = next(
                (
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if (u in rows or v in rows) and not oracles.brute_has_proper_path(g, c, u, v)
                ),
                None,
            )
            assert pair == want

    def test_every_row_gives_the_full_check(self):
        rng = random.Random(83)
        failed = 0
        for _ in range(300):
            n = rng.randint(3, 7)
            g, c = _random_colored(rng, n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)), rng.randint(2, 3))
            view = coloring._ColorView(g, c.as_vector(g))
            pair = coloring._first_unconnected_pair(view, range(n))
            assert pair == coloring._first_unconnected_pair(view)
            assert (pair is None, pair) == is_proper_connected(g, c)
            assert pair == next(
                (
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if not oracles.brute_has_proper_path(g, c, u, v)
                ),
                None,
            )
            failed += pair is not None
        assert 50 < failed < 250


class TestTreeCertificates:
    """Witnesses read straight off the walk trees, each tree state's step
    checked against the coloring once."""

    @staticmethod
    def _corrupt(monkeypatch, state):
        # in source 0's tree, replace the first simple state at vertex 1
        real = coloring._source_tree

        def corrupted(view, s):
            tree = real(view, s)
            if s == 0:
                _, states, _, paths, _, _ = tree
                states[paths[1][0]] = state
            return tree

        monkeypatch.setattr(coloring, "_source_tree", corrupted)

    def test_wrong_state_color_rejected(self, monkeypatch):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        self._corrupt(monkeypatch, (1, 3))
        with pytest.raises(InternalError, match="mismatch"):
            has_strong_property(g, c)

    def test_non_edge_rejected(self, monkeypatch):
        g, c = _cycle_coloring(4, (1, 2, 1, 2))
        self._corrupt(monkeypatch, (2, 1))  # 0 and 2 are not adjacent
        with pytest.raises(InternalError, match="non-edge"):
            has_strong_property(g, c)

    def test_long_paths_match_the_path_builder(self, k33):
        # the ring decoration of the k33 gadget: every pair is settled by the
        # trees, through paths of up to about twenty edges
        from properconn import construct

        c = construct._ring_decoration(k33)
        chk = has_strong_property(k33, c)
        assert chk.ok and len(chk.witnesses) == k33.n * (k33.n - 1) // 2
        longest = 0
        for w in chk.witnesses.values():
            w.validate(k33, c)
            for cert in (w.p1, w.p2):
                assert cert == certificate_from_path(k33, c, cert.path)
                longest = max(longest, len(cert.colors))
        assert longest >= 15


class TestWitnessRule:
    """``_witness``, the one pairing rule of the strong check, and the query
    budget it gives ``_strong_pair``."""

    def test_matches_a_pair_scan_on_every_short_list(self):
        profiles = list(itertools.product((1, 2, 3), repeat=2))
        for size in range(6):
            for ends in itertools.product(profiles, repeat=size):
                pick = coloring._witness(ends)
                if pick is None:
                    assert not any(
                        p[0] != q[0] and p[1] != q[1]
                        for p, q in itertools.combinations(ends, 2)
                    )
                else:
                    p, q = ends[pick[0]], ends[pick[1]]
                    assert p[0] != q[0] and p[1] != q[1]

    @pytest.mark.parametrize("tree_paths", (True, False), ids=("trees", "no-trees"))
    def test_query_budget(self, tree_paths, monkeypatch):
        # at most two one-end queries per open pair when a tree gave a path,
        # three when none did; verdicts and failing pairs as the oracle's
        calls = 0
        one_path, strong_pair = coloring._one_path, coloring._strong_pair

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return one_path(*args, **kwargs)

        most = {True: 0, False: 0}  # did a tree give a path -> most queries

        def budgeted(*args):
            before = calls
            pair = strong_pair(*args)
            gave = bool(args[4])
            most[gave] = max(most[gave], calls - before)
            return pair

        monkeypatch.setattr(coloring, "_one_path", counting)
        monkeypatch.setattr(coloring, "_strong_pair", budgeted)
        if not tree_paths:
            _blank_tree_paths(monkeypatch)
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(3, 7)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
            g, c = _random_colored(rng, n, m, rng.randint(2, 4))
            chk = has_strong_property(g, c)
            want = oracles.brute_strong(g, c)
            assert (chk.ok, chk.failing_pair) == (want is None, want)
            _check_witnesses(g, c, chk)
        assert most[True] <= 2 and most[False] <= 3
        # the budget is reached, so the counts can see a query too many
        assert most[tree_paths] == (2 if tree_paths else 3)


def _blank_tree_paths(monkeypatch):
    """Make every walk tree mark no state as a path, so every pair is
    searched."""
    walk_tree = coloring._walk_tree

    def no_paths(inc, colors, source):
        arr, states, parent, paths, first = walk_tree(inc, colors, source)
        return arr, states, parent, [[] for _ in paths], [0] * len(first)

    monkeypatch.setattr(coloring, "_walk_tree", no_paths)


def _strong_matches_brute_force(rng):
    """Seeded colorings (k 2-4) against the brute-force strong oracle, drawn
    until both verdicts are well represented: a random coloring is rarely
    strong, and a positive verdict carries every witness."""
    seen = {True: 0, False: 0}
    while min(seen.values()) < 40:
        n = rng.randint(3, 7)
        m_hi = n * (n - 1) // 2
        g = corpus.random_connected(n, rng.randint(n, min(m_hi, 2 * n)), rng)
        k = rng.randint(2, 4)
        c = EdgeColoring.from_vector(g, k, [rng.randint(1, k) for _ in range(g.m)])
        chk = has_strong_property(g, c)
        want = oracles.brute_strong(g, c)
        assert (chk.ok, chk.failing_pair) == (want is None, want)
        seen[chk.ok] += 1
        _check_witnesses(g, c, chk)


def _check_witnesses(g, c, chk, sample=None):
    """The witnesses cover every pair before the failing one, or all pairs;
    each validates and runs u -> v. ``sample`` validates only that many."""
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
    upto = pairs.index(chk.failing_pair) if not chk.ok else len(pairs)
    assert list(chk.witnesses) == pairs[:upto]
    checked = list(chk.witnesses.items())
    if sample is not None and len(checked) > sample:
        checked = random.Random(len(checked)).sample(checked, sample)
    for (u, v), w in checked:
        w.validate(g, c)
        for cert in (w.p1, w.p2):
            assert (cert.path[0], cert.path[-1]) == (u, v)


def _random_colored(rng, n, m, k):
    g = corpus.random_connected(n, m, rng)
    return g, EdgeColoring.from_vector(g, k, [rng.randint(1, k) for _ in range(g.m)])


class TestSharedWalkSearch:
    """The one walk BFS behind walk reach, the path DFS prunes and the solver,
    against the directed-edge walk oracle and the path enumerations."""

    def test_walk_reach_matches_directed_edge_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(8, 16)
            g, c = _random_colored(rng, n, rng.randint(n - 1, 2 * n), rng.choice((2, 3)))
            for s in range(g.n):
                assert proper_walk_reach(g, c, s) == oracles.brute_walk_reach(g, c, s)

    def test_path_queries_match_brute_force_on_both_engine_kinds(self):
        # Sparse and dense random graphs and rings of K4s (3-edge-connected
        # blocks joined by 2-edge cuts); the path search prunes with walks
        # reversed from the target.
        rng = random.Random(31)
        graphs = []
        for _ in range(14):
            n = rng.randint(8, 10)
            graphs.append(_random_colored(rng, n, rng.randint(n, n + 4), rng.choice((2, 3))))
        for _ in range(8):
            graphs.append(_random_colored(rng, 8, rng.randint(14, 17), rng.choice((2, 3))))
        ring = Graph(
            8,
            [e for base in (0, 4) for e in itertools.combinations(range(base, base + 4), 2)]
            + [(0, 4), (3, 7)],
        )
        for _ in range(4):
            k = rng.choice((2, 3))
            graphs.append(
                (ring, EdgeColoring.from_vector(ring, k, [rng.randint(1, k) for _ in ring.edges]))
            )
        for g, c in graphs:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    got = proper_path_exists(g, c, u, v) is not None
                    assert got == oracles.brute_has_proper_path(g, c, u, v)
            assert has_strong_property(g, c).failing_pair == oracles.brute_strong(g, c)


def _first_pair_without_path(g, c):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not oracles.brute_has_proper_path(g, c, u, v):
                return u, v
    return None


def _checks_match_oracles(rng, trials):
    """Both checks against the brute-force oracles on seeded colorings (n
    2-14, k 1-4): verdict, failing pair, witness keys and validity. About
    a quarter of the graphs up to n=12 get one or two extra pendant
    vertices; single-color vertices come with k = 1 and with pendants."""
    single_color = pendant = passing = strong = 0
    for _ in range(trials):
        n = rng.randint(2, 14)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 3 if n > 9 else 2 * n))
        g = corpus.random_connected(n, m, rng)
        if 4 <= n <= 12 and rng.random() < 0.25:
            # hang pendants off random vertices
            extra = rng.randint(1, 2)
            g = Graph(n + extra, list(g.edges) + [(rng.randrange(n), n + i) for i in range(extra)])
        k = rng.randint(1, 4)
        c = EdgeColoring.from_vector(g, k, [rng.randint(1, k) for _ in range(g.m)])
        single_color += any(len({c.color(v, w) for w in g.adj[v]}) == 1 for v in range(g.n))
        pendant += any(len(g.adj[v]) == 1 for v in range(g.n))
        want = _first_pair_without_path(g, c)
        assert is_proper_connected(g, c) == (want is None, want)
        passing += want is None
        chk = has_strong_property(g, c)
        want = oracles.brute_strong(g, c)
        assert (chk.ok, chk.failing_pair) == (want is None, want)
        _check_witnesses(g, c, chk)
        strong += chk.ok
    assert single_color and pendant
    assert passing >= trials // 5 and strong >= trials // 40


class TestWalkTree:
    """The walk tree settles most pairs before any search; the pairs it
    leaves open go to the DFS and the matching as before."""

    def test_checks_match_oracles(self):
        _checks_match_oracles(random.Random(43), 1000)

    def test_checks_match_oracles_without_tree_paths(self, monkeypatch):
        # every tree walk reads as repeating a vertex, so every pair goes
        # through the DFS, the matching and the four strong queries
        _blank_tree_paths(monkeypatch)
        _checks_match_oracles(random.Random(47), 300)

    def test_far_end_tree_matches_brute_force(self, monkeypatch):
        # the candidates from v's tree settle pairs that u's tree leaves
        # open, with the oracle's verdict and valid witnesses
        settled = 0
        witness = coloring._witness

        def counting(ends):
            nonlocal settled
            pair = witness(ends)
            # a candidate from v's tree ends with its flag ``far``, True
            settled += pair is not None and any(ends[i][-1] is True for i in pair)
            return pair

        monkeypatch.setattr(coloring, "_witness", counting)
        _strong_matches_brute_force(random.Random(59))
        assert settled > 0

    @pytest.mark.parametrize("n", (4, 6, 8, 10))
    def test_alternating_even_cycle_needs_no_search(self, n, monkeypatch):
        # both ways around the cycle are tree walks, and they differ in color
        # at both ends
        def refuse(*args, **kwargs):
            raise AssertionError("the walk tree should settle every pair")

        monkeypatch.setattr(coloring, "_dfs_path", refuse)
        monkeypatch.setattr(coloring, "_matching_path", refuse)
        g, c = _cycle_coloring(n, [1 + i % 2 for i in range(n)])
        assert is_proper_connected(g, c) == (True, None)
        chk = has_strong_property(g, c)
        assert chk.ok
        _check_witnesses(g, c, chk)

    def test_tree_paths_are_the_simple_walks(self):
        # per vertex, the states whose parent chain repeats no vertex, and
        # each such chain is a proper path with the recorded first color
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(2, 12)
            g, c = _random_colored(rng, n, rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n)), 3)
            inc, colors = coloring._incidence(g), c.as_vector(g)
            for s in range(n):
                arr, states, parent, paths, first = coloring._walk_tree(inc, colors, s)
                assert arr == coloring._walk_arrivals(inc, colors, s)
                simple_states = [[] for _ in range(n)]  # in BFS order
                for j, (v, last) in enumerate(states):
                    walk = coloring._tree_path(states, parent, j)
                    assert walk[0] == v and walk[-1] == s
                    if len(set(walk)) == len(walk):
                        simple_states[v].append(j)
                        if j:
                            cert = certificate_from_path(g, c, walk[::-1])
                            assert (cert.start_color, cert.end_color) == (first[j], last)
                assert paths == simple_states


class TestMatchingFallback:
    """Path queries forced through the blossom-matching fallback, against the
    brute-force path oracles. Under DFS budget 0 every query that survives
    the walk filter goes to the matching; under budget 3 the DFS still
    answers the short ones, so one source's row of the all-pairs check mixes
    DFS answers with matching answers."""

    @pytest.fixture(autouse=True, params=(0, 3), ids=("budget0", "budget3"))
    def _matching_only(self, request, monkeypatch):
        # (route, target) of every answered query, in order
        monkeypatch.setattr(coloring, "_DFS_BUDGET", request.param)
        answers = []
        dfs_path, matching_path = coloring._dfs_path, coloring._matching_path

        def dfs(view, s, t, *args):
            path = dfs_path(view, s, t, *args)  # an overrun raises past this
            answers.append(("dfs", t))
            return path

        def matching(view, s, t, *args):
            answers.append(("matching", t))
            return matching_path(view, s, t, *args)

        monkeypatch.setattr(coloring, "_dfs_path", dfs)
        monkeypatch.setattr(coloring, "_matching_path", matching)
        return request.param, answers

    def test_matches_brute_force(self, _matching_only, monkeypatch):
        budget, answers = _matching_only
        rng = random.Random(29)
        single_color = pendant = passing = mixed = 0
        used = set()  # the routes that answered
        for _ in range(250):
            n = rng.randint(2, 7)
            m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
            g, c = _random_colored(rng, n, m, rng.randint(1, 4))
            single_color += sum(len({c.color(v, w) for w in g.adj[v]}) == 1 for v in range(n))
            pendant += sum(len(g.adj[v]) == 1 for v in range(n))
            first_dead = None
            for u in range(n):
                for v in range(u + 1, n):
                    cert = proper_path_exists(g, c, u, v)
                    assert (cert is not None) == oracles.brute_has_proper_path(g, c, u, v)
                    if cert is None:
                        first_dead = first_dead or (u, v)
                    else:
                        cert.validate(g, c)
                        assert (cert.path[0], cert.path[-1]) == (u, v)
            assert is_proper_connected(g, c) == (first_dead is None, first_dead)
            # again with every pair of a row searched: the all-pairs check
            # searches v -> u, so a row's target is u, and under budget 3 a
            # row goes on with the DFS after the matching answered a pair
            used.update(route for route, _ in answers)
            answers.clear()
            with monkeypatch.context() as mp:
                _blank_tree_paths(mp)
                assert is_proper_connected(g, c) == (first_dead is None, first_dead)
            overran = set()
            for route, u in answers:
                if route == "matching":
                    overran.add(u)
                mixed += route == "dfs" and u in overran
            used.update(route for route, _ in answers)
            answers.clear()
            passing += first_dead is None
        assert single_color and pendant and 25 <= passing <= 225
        assert "matching" in used
        if budget:
            assert "dfs" in used and mixed

    def test_strong_check_matches_brute_force(self, _matching_only):
        # every query that the walk filter leaves open, the ones with a
        # forbidden end color included, goes through the matching, or under
        # budget 3 through the DFS when it is short
        budget, answers = _matching_only
        _strong_matches_brute_force(random.Random(37))
        routes = {route for route, _ in answers}
        assert "matching" in routes and (not budget or "dfs" in routes)


class TestScale:
    @pytest.mark.parametrize("n", (100, 200))
    @pytest.mark.parametrize("k", (2, 3))
    def test_random_graphs_get_verdicts(self, n, k):
        rng = random.Random(n * 10 + k)
        g, c = _random_colored(rng, n, 3 * n, k)
        ok, pair = is_proper_connected(g, c)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if pair is not None:
            assert proper_path_exists(g, c, *pair) is None
            pairs = pairs[: pairs.index(pair)]
        for u, v in rng.sample(pairs, min(len(pairs), 40)):
            cert = proper_path_exists(g, c, u, v)
            assert cert is not None and (cert.path[0], cert.path[-1]) == (u, v)
            cert.validate(g, c)

    def test_path_deeper_than_the_recursion_limit(self):
        # the DFS keeps its own stack, so a path longer than Python's default
        # recursion limit (1,000) is found within the step budget
        n = 1500
        g = corpus.path_graph(n)
        c = EdgeColoring.from_vector(g, 2, [1 + i % 2 for i in range(g.m)])
        cert = proper_path_exists(g, c, 0, n - 1)
        assert cert is not None and cert.path == tuple(range(n))
        cert.validate(g, c)

    @pytest.mark.parametrize("n", (100, 200))
    @pytest.mark.parametrize("k", (2, 3))
    def test_strong_check_gets_verdicts(self, n, k, end_profiles):
        rng = random.Random(n * 10 + k)
        g, c = _random_colored(rng, n, 3 * n, k)
        chk = has_strong_property(g, c)
        _check_witnesses(g, c, chk, sample=40)
        if not chk.ok:
            # no two of the failing pair's profiles differ at both ends
            profs = end_profiles(g, c, *chk.failing_pair)
            assert not any(
                p[0] != q[0] and p[1] != q[1] for p, q in itertools.combinations(profs, 2)
            )


class TestRefinementMonotonicity:
    def test_splitting_a_color_class_preserves_certified_pairs(self):
        # Splitting one class into two keeps any certificate whose color
        # sequence stays proper; when all stored certificates survive, the
        # refined coloring is still proper connected.
        rng = random.Random(17)
        done = 0
        while done < 25:
            n = rng.randint(4, 7)
            m_hi = n * (n - 1) // 2
            g = corpus.random_connected(n, rng.randint(n, min(m_hi, 2 * n)), rng)
            c = EdgeColoring.from_vector(g, 2, [rng.randint(1, 2) for _ in range(g.m)])
            if not is_proper_connected(g, c)[0]:
                continue
            done += 1
            certs = {}
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    certs[(u, v)] = proper_path_exists(g, c, u, v)
                    assert certs[(u, v)] is not None
            cls = rng.choice((1, 2))
            members = [e for e in g.edges if c.color(*e) == cls]
            moved = set(rng.sample(members, (len(members) + 1) // 2))
            refined = EdgeColoring(
                3, {e: (3 if e in moved else c.color(*e)) for e in g.edges}
            )
            refined.validate(g)
            all_survive = True
            for cert in certs.values():
                new_colors = tuple(
                    refined.color(a, b) for a, b in zip(cert.path, cert.path[1:])
                )
                if all(x != y for x, y in zip(new_colors, new_colors[1:])):
                    ProperPathCertificate(cert.path, new_colors).validate(g, refined)
                else:
                    all_survive = False
            if all_survive:
                assert is_proper_connected(g, refined) == (True, None)
