"""Named families, exhaustive isomorph-free enumeration, seeded randomness."""

import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

import properconn
from properconn import PreconditionError, corpus
from properconn.graph import (
    bipartition,
    connectivity,
    diameter,
    edge_connectivity,
    is_connected,
)

import oracles


class TestNamedFamilies:
    def test_complete(self):
        g = corpus.complete(5)
        assert (g.n, g.m) == (5, 10)
        assert g.is_complete()

    def test_cycle_path_star(self):
        assert (corpus.cycle(6).n, corpus.cycle(6).m) == (6, 6)
        assert (corpus.path_graph(5).n, corpus.path_graph(5).m) == (5, 4)
        g = corpus.star(4)
        assert (g.n, g.m) == (5, 4) and g.degree(0) == 4

    def test_complete_bipartite(self):
        g = corpus.complete_bipartite(3, 4)
        assert (g.n, g.m) == (7, 12)
        sides = bipartition(g)
        assert sides is not None
        assert sorted((len(sides.side_u), len(sides.side_v))) == [3, 4]

    def test_complete_multipartite(self):
        g = corpus.complete_multipartite(2, 2, 2)  # the octahedron
        assert (g.n, g.m) == (6, 12)
        assert all(g.degree(v) == 4 for v in range(6))

    def test_petersen(self):
        g = corpus.petersen()
        assert (g.n, g.m) == (10, 15)
        assert all(g.degree(v) == 3 for v in range(10))
        assert diameter(g) == 2
        assert connectivity(g) == 3 and edge_connectivity(g) == 3

    def test_hypercube(self):
        g = corpus.hypercube(3)
        assert (g.n, g.m) == (8, 12)
        assert bipartition(g) is not None
        assert diameter(g) == 3

    def test_prism_and_moebius(self):
        p = corpus.prism(5)
        assert (p.n, p.m) == (10, 15) and all(p.degree(v) == 3 for v in range(10))
        ml = corpus.moebius_ladder(5)
        assert (ml.n, ml.m) == (10, 15)
        # rungs jump k steps around C_{2k}: bipartite iff k is odd
        assert bipartition(ml) is not None
        assert bipartition(corpus.moebius_ladder(4)) is None

    def test_wheel(self):
        g = corpus.wheel(6)
        assert (g.n, g.m) == (6, 10)
        assert g.degree(5) == 5

    def test_circulant(self):
        g = corpus.circulant(8, (1, 2))
        assert (g.n, g.m) == (8, 16)
        assert all(g.degree(v) == 4 for v in range(8))

    def test_theta(self):
        g = corpus.theta(2, 3, 4)
        assert (g.n, g.m) == (8, 9)
        assert sorted(g.degree(v) for v in range(g.n)).count(3) == 2

    def test_antiprism(self):
        g = corpus.antiprism(4)
        assert (g.n, g.m) == (8, 16)
        assert all(g.degree(v) == 4 for v in range(8))


class TestEnumeration:
    def test_counts_match_the_literature(self):
        # graphs / connected graphs / trees per vertex count
        assert [len(corpus.all_graphs(n)) for n in range(1, 8)] == [
            1, 2, 4, 11, 34, 156, 1044,
        ]
        assert [len(corpus.connected_graphs(n)) for n in range(1, 8)] == [
            1, 1, 2, 6, 21, 112, 853,
        ]
        assert [len(corpus.trees(n)) for n in range(1, 10)] == [
            1, 1, 1, 2, 3, 6, 11, 23, 47,
        ]

    def test_no_isomorphic_duplicates_small(self):
        import itertools

        import networkx as nx

        for n in range(2, 6):
            gs = corpus.all_graphs(n)
            for a, b in itertools.combinations(gs, 2):
                assert not nx.is_isomorphic(oracles.nxg(a), oracles.nxg(b))

    def test_masks_match_pinned_digests(self):
        # sha256 of each n's canonical masks, joined by commas: the same
        # graphs in the same order as the recorded enumeration
        pinned = {
            1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
            2: "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
            3: "e07a92fb5aaa979553ff4952bd4597b190f6f37b327b065caeb0272ef00c4a82",
            4: "ee8879922ff2981c1ef94a44feef8f72d7beb0c9cad9d539f0d678d3877a7d26",
            5: "0590bd47e8dd07dcaf48fca66c863cb1cb934329d93ef0563b96122174383eec",
            6: "2d01f5d8a4feb13139b83e7c225a2c04568935848b620cae2d28194fa2b246e8",
            7: "409cc39ac8b2a97b4cb375d79e3658bf2f447a0ea1f3fd5bc580ddb505f502ac",
        }
        for n, digest in pinned.items():
            text = ",".join(map(str, corpus._graph_masks(n)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, n

    # the hash only buckets the graphs; both sides use the installed version
    @pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
    def test_each_atlas_graph_matches_one_enumerated_graph(self):
        import networkx as nx

        buckets: dict[str, list] = {}
        for n in range(1, 8):
            for g in corpus.all_graphs(n):
                h = oracles.nxg(g)
                buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
        atlas = [a for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 7]
        assert len(atlas) == sum(map(len, buckets.values()))
        for a in atlas:
            bucket = buckets.get(nx.weisfeiler_lehman_graph_hash(a), [])
            assert sum(1 for h in bucket if nx.is_isomorphic(a, h)) == 1

    def test_import_leaves_numpy_out(self):
        src = pathlib.Path(properconn.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", "import sys, properconn; print('numpy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_enumeration_caps_at_seven(self):
        with pytest.raises(PreconditionError, match="n = 7"):
            corpus.all_graphs(8)

    def test_two_connected_counts(self):
        got = [
            sum(1 for g in corpus.connected_graphs(n) if connectivity(g) >= 2)
            for n in range(4, 8)
        ]
        assert got == [3, 10, 56, 468]


class TestRandomGenerators:
    def test_random_connected_is_connected_and_sized(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(2, 12)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = corpus.random_connected(n, m, rng)
            assert g.n == n and g.m == m and is_connected(g)

    def test_random_connected_bad_m(self):
        with pytest.raises(PreconditionError, match="<= m <="):
            corpus.random_connected(4, 7, random.Random(0))

    def test_random_connected_deterministic(self):
        a = corpus.random_connected(9, 14, random.Random(123))
        b = corpus.random_connected(9, 14, random.Random(123))
        assert a.edges == b.edges

    def test_random_graphs_with_predicate(self):
        batch = corpus.random_graphs_with(
            lambda g: connectivity(g) >= 2, count=12, n_range=(6, 9), seed=5
        )
        assert len(batch) == 12
        assert all(connectivity(g) >= 2 for g in batch)
        again = corpus.random_graphs_with(
            lambda g: connectivity(g) >= 2, count=12, n_range=(6, 9), seed=5
        )
        assert [g.edges for g in batch] == [g.edges for g in again]

    def test_random_graphs_with_impossible_predicate(self):
        with pytest.raises(PreconditionError, match="restrictive"):
            corpus.random_graphs_with(
                lambda g: False, count=1, n_range=(4, 5), seed=0, max_tries=500
            )
