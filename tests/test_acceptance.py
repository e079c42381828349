"""Release gate: one test per shipped guarantee, each printing a PASS line.

Every test re-derives its expectations from scratch (enumeration, brute-force
oracles, golden constants) rather than trusting the module under test, and
asserts the documented wall-clock budget where one exists.
"""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from properconn import (
    EdgeColoring,
    ExtensionError,
    Graph,
    bipartition,
    bridges,
    build_counterexample,
    classify_diam3,
    color_2connected_3,
    color_3ec,
    color_diam3,
    connectivity,
    corpus,
    diameter,
    edge_connectivity,
    exists_pc_coloring,
    extend_vertex_addition,
    format_coloring,
    has_strong_property,
    is_proper_connected,
    lift_spanning_coloring,
    pc_exact,
    proper_path_exists,
    proper_walk_reach,
    refute_2_coloring,
    strong_2_coloring_bipartite,
    verify_gadget_structure,
)
from properconn.construct import CASE_TAGS

import oracles

GOLDEN = Path(__file__).parent / "golden" / "mini_k2_verdict.json"
SEED = 20260815
# sha256 of criterion 6's vertex extensions
EXTENSION_DIGEST = "504a2714f06b4e79b098702acc5d1282840e2d9da50db8e1edb99e210a5ae09b"


def _noncomplete(g: Graph) -> bool:
    return g.m < g.n * (g.n - 1) // 2


def _passed(label: str, t0: float, detail: str) -> None:
    print(f"PASS {label} [{time.perf_counter() - t0:.1f}s] {detail}")


def test_criterion_1_solver_exactness():
    t0 = time.perf_counter()
    for n in range(3, 7):
        assert pc_exact(corpus.complete(n)).value == 1
    for m in range(2, 6):
        assert pc_exact(corpus.star(m)).value == m
    trees_checked = 0
    for n in range(2, 10):
        for t in corpus.trees(n):
            delta = max(len(t.adj[v]) for v in range(t.n))
            assert pc_exact(t).value == delta
            if n <= 7:
                assert oracles.brute_pc_exact(t) == delta
            trees_checked += 1
    for n in range(4, 9):
        assert pc_exact(corpus.cycle(n)).value == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _passed("criterion-1 solver exactness", t0, f"{trees_checked} trees + 13 named")


def test_criterion_2_three_edge_connected_strong_two_coloring():
    t0 = time.perf_counter()
    instances = [
        g
        for n in range(4, 8)
        for g in corpus.connected_graphs(n)
        if _noncomplete(g) and edge_connectivity(g) >= 3
    ]
    instances += [
        corpus.petersen(),
        corpus.hypercube(3),
        corpus.complete_bipartite(3, 5),
        corpus.complete_bipartite(3, 6),
        corpus.complete_bipartite(3, 7),
        corpus.complete_bipartite(4, 4),
        corpus.complete_bipartite(4, 5),
        corpus.complete_bipartite(4, 6),
        corpus.complete_bipartite(5, 5),
        corpus.prism(4),
        corpus.prism(5),
        corpus.moebius_ladder(4),
        corpus.moebius_ladder(5),
        corpus.antiprism(4),
        corpus.antiprism(5),
        corpus.wheel(8),
        corpus.wheel(9),
        corpus.wheel(10),
        corpus.circulant(8, (1, 2)),
        corpus.circulant(9, (1, 2)),
        corpus.circulant(10, (1, 2)),
    ]
    for g in instances:
        assert _noncomplete(g) and edge_connectivity(g) >= 3
        c = color_3ec(g)
        assert c.colors_used() <= 2
        ok, pair = is_proper_connected(g, c)
        assert ok, pair
        assert has_strong_property(g, c).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _passed("criterion-2 strong 2-colorings", t0, f"{len(instances)} graphs, 0 failures")


def test_criterion_3_diameter_three_two_coloring():
    t0 = time.perf_counter()
    def eligible(g: Graph) -> bool:
        return _noncomplete(g) and connectivity(g) >= 2 and diameter(g) == 3

    exhaustive = [
        g for n in range(4, 8) for g in corpus.connected_graphs(n) if eligible(g)
    ]
    assert len(exhaustive) == 147
    named = [corpus.cycle(7), corpus.hypercube(3)]
    mid = corpus.random_graphs_with(eligible, 100, (8, 10), seed=SEED)
    big = corpus.random_graphs_with(eligible, 500, (11, 14), seed=SEED)
    assert all(eligible(h) for h in named)
    tags: dict[str, int] = {}
    for g in exhaustive + named + mid + big:
        tags[classify_diam3(g).case_tag] = tags.get(classify_diam3(g).case_tag, 0) + 1
        c = color_diam3(g)
        assert c.colors_used() <= 2
        ok, pair = is_proper_connected(g, c)
        assert ok, pair
    assert set(tags) == set(CASE_TAGS)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    _passed("criterion-3 diameter-3 colorer", t0, f"tags={tags}")


def test_criterion_4_counterexample_upper_bound():
    t0 = time.perf_counter()
    for variant in ("mini", "k33"):
        g, _ = build_counterexample(variant, 1)
        c = color_2connected_3(g)
        assert c.colors_used() <= 3
        ok, pair = is_proper_connected(g, c)
        assert ok, pair
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _passed("criterion-4 three-color upper bound", t0, "both variants verified")


@pytest.mark.slow
def test_criterion_5_counterexample_lower_bound_evidence():
    t0 = time.perf_counter()
    mini_g, mini_spec = build_counterexample("mini", 1)
    k33_g, k33_spec = build_counterexample("k33", 1)

    # (a) seeded random 2-colorings all defeated, witnesses re-verified
    undefeated = 0
    for g, spec, trials in ((mini_g, mini_spec, 10_000), (k33_g, k33_spec, 1_000)):
        for trial in range(trials):
            rng = random.Random(f"{SEED}:{trial}")
            c = EdgeColoring(2, {e: rng.randint(1, 2) for e in g.edges})
            w = refute_2_coloring(g, spec, c)
            if w is None:
                undefeated += 1
                continue
            assert proper_path_exists(g, c, w.pair[0], w.pair[1]) is None
    assert undefeated == 0

    # (b) structural hypotheses hold on the full-size variant
    rep = verify_gadget_structure(k33_g, k33_spec)
    assert rep.ok
    for check in ("kappa_2", "min_degree_3", "two_cut_edges_per_half",
                  "opposite_parities"):
        assert rep.checks[check][0] is True, check

    # (c) exhaustive verdict on the small variant matches the golden record
    golden = json.loads(GOLDEN.read_text())
    assert (mini_g.n, mini_g.m) == (golden["instance"]["n"], golden["instance"]["m"])
    stats: dict = {}
    found = exists_pc_coloring(
        mini_g, golden["k"], budget_nodes=golden["budget_nodes"], stats_out=stats
    )
    assert stats["nodes"] <= golden["budget_nodes"]
    assert stats["nodes"] == golden["nodes"]
    assert (found is None) == (golden["verdict"] == "absent")
    # solver and refuter must tell the same story
    if found is not None:
        assert refute_2_coloring(mini_g, mini_spec, found) is None
    _passed("criterion-5 lower-bound evidence", t0,
            f"11000 refutations, verdict={golden['verdict']} @ {stats['nodes']} nodes")


def _random_spanning_subgraph(g: Graph, rng: random.Random) -> Graph:
    order = list(g.edges)
    rng.shuffle(order)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keep = []
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            keep.append((u, v))
    extras = [e for e in g.edges if e not in set(keep)]
    keep += [e for e in extras if rng.random() < 0.5]
    return Graph(g.n, sorted(keep))


def test_criterion_6_lemma_regressions():
    t0 = time.perf_counter()
    rng = random.Random(SEED)

    for _ in range(200):
        n = rng.randint(5, 9)
        m = rng.randint(n, min(n + 6, n * (n - 1) // 2))
        g = corpus.random_connected(n, m, rng)
        h = _random_spanning_subgraph(g, rng)
        base = None
        for k in (1, 2, 3):
            base = exists_pc_coloring(h, k)
            if base is not None:
                break
        if base is None:
            base = pc_exact(h).coloring
        lifted = lift_spanning_coloring(g, h, base)
        ok, pair = is_proper_connected(g, lifted)
        assert ok, pair

    # The digest pins the extensions as they were when every try checked
    # every pair of the grown graph; checking the new vertex's row alone
    # must give the same ones.
    digest = hashlib.sha256()
    extended = fallbacks = 0
    while extended + fallbacks < 200:
        n = rng.randint(5, 8)
        g = corpus.random_connected(n, rng.randint(n, min(n + 5, n * (n - 1) // 2)), rng)
        c = exists_pc_coloring(g, 2)
        if c is None:
            continue
        attach = tuple(sorted(rng.sample(range(n), rng.randint(2, min(4, n)))))
        try:
            gp, cp = extend_vertex_addition(g, c, g.n, attach)
        except ExtensionError:
            fallbacks += 1
            digest.update(b"fallback\n")
            continue
        ok, pair = is_proper_connected(gp, cp)
        assert ok, pair
        digest.update(json.dumps(gp.edges).encode())
        digest.update(format_coloring(cp).encode())
        extended += 1
    assert digest.hexdigest() == EXTENSION_DIGEST

    bip = [
        g
        for n in range(3, 8)
        for g in corpus.connected_graphs(n)
        if bipartition(g) is not None and not bridges(g)
    ]
    bip += [
        corpus.cycle(8),
        corpus.cycle(10),
        corpus.hypercube(3),
        corpus.prism(4),
        corpus.moebius_ladder(5),
        corpus.complete_bipartite(3, 7),
        corpus.complete_bipartite(4, 6),
        corpus.complete_bipartite(5, 5),
        corpus.theta(2, 2, 4),
    ]
    for g in bip:
        assert bipartition(g) is not None and not bridges(g)
        c = strong_2_coloring_bipartite(g)
        assert c.colors_used() <= 2
        assert has_strong_property(g, c).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _passed("criterion-6 lemma regressions", t0,
            f"200 lifts, {extended}+{fallbacks} extensions, {len(bip)} bipartite")


@pytest.mark.slow
def test_criterion_7_checker_soundness():
    t0 = time.perf_counter()
    graphs = [g for n in range(1, 8) for g in corpus.connected_graphs(n) if g.m <= 12]
    assert len(graphs) == 753
    colorings = walk_checks = 0
    for gi, g in enumerate(graphs):
        pats = oracles.path_patterns(g)
        pairs = sorted(pats)
        plists = [pats[p] for p in pairs]
        for mask in range(1 << g.m):
            c = EdgeColoring(2, {e: 1 + ((mask >> i) & 1) for i, e in enumerate(g.edges)})
            per_pair = []
            for plist in plists:
                hit = False
                for S, p0 in plist:
                    sub = mask & S
                    if sub == p0 or sub == S ^ p0:
                        hit = True
                        break
                per_pair.append(hit)
            engine_ok, _ = is_proper_connected(g, c)
            assert engine_ok == all(per_pair), (gi, mask)
            reach: dict[int, set[int]] = {}
            for (u, v), has_path in zip(pairs, per_pair):
                if has_path:
                    if u not in reach:
                        reach[u] = proper_walk_reach(g, c, u)
                    assert v in reach[u], (gi, mask, u, v)
                    walk_checks += 1
            colorings += 1
    assert colorings == 1_086_575
    _passed("criterion-7 checker soundness", t0,
            f"{colorings} colorings, {walk_checks} walk checks, 0 violations")
