"""The two-gadget-ring family: construction, structure checks, refutation."""

import hashlib
import json
import random

import pytest

from properconn import (
    EdgeColoring,
    Graph,
    OneWayVertex,
    PreconditionError,
    build_counterexample,
    color_2connected_3,
    find_one_way_vertex,
    is_proper_connected,
    proper_path_exists,
    refute_2_coloring,
    verify_gadget_structure,
)
from properconn.counterexample import GadgetSpec
from properconn.graph import connectivity, edge_connectivity, is_connected

import oracles


EXPECTED_SIZES = {
    ("mini", 1): (27, 30),
    ("mini", 2): (39, 42),
    ("mini", 3): (51, 54),
    ("k33", 1): (114, 189),
    ("k33", 2): (150, 315),
    ("k33", 3): (186, 477),
}


def _premise_coloring(g):
    """Even chain and both its attachments monochromatic; odd chain alternates."""
    asg = {e: 2 for e in g.edges}
    for e in ((0, 6), (6, 7), (7, 8), (1, 8)):
        asg[e] = 1
    for e, col in (((0, 9), 2), ((9, 10), 1), ((10, 11), 2), ((11, 12), 1), ((1, 12), 2)):
        asg[e] = col
    asg[(0, 5)] = 1
    asg[(1, 2)] = 1
    return EdgeColoring(2, asg)


class TestBuild:
    @pytest.mark.parametrize("variant,scale", sorted(EXPECTED_SIZES))
    def test_sizes(self, variant, scale):
        g, spec = build_counterexample(variant, scale)
        assert (g.n, g.m) == EXPECTED_SIZES[(variant, scale)]
        assert spec.variant == variant and spec.scale == scale

    def test_connector_layout(self, mini_pair):
        _, spec = mini_pair
        assert spec.connectors == {"a": 0, "a'": 1, "b": 2, "b'": 3, "c": 4, "c'": 5}
        assert spec.links == ((0, 5), (1, 2), (3, 4))
        assert spec.exits_of(0) == ((0, 5), (1, 2))

    def test_mini_gadget_is_two_disjoint_chains(self, mini_pair):
        g, spec = mini_pair
        for p in spec.pairs:
            lens = sorted(len(h.interior) + 1 for h in p.halves)
            assert lens == [4, 5]  # path lengths of the two chains
            seen = set()
            for h in p.halves:
                assert not (set(h.interior) & seen)
                seen |= set(h.interior)
                for v in h.interior:
                    assert g.degree(v) == 2

    def test_k33_halves_are_three_blocks(self, k33_pair):
        _, spec = k33_pair
        for p in spec.pairs:
            for h in p.halves:
                assert len(h.blocks) == 3
                assert all(len(b) == 6 for b in h.blocks)
                assert len(h.cut_edges) == 2

    @pytest.mark.parametrize("variant", ("mini", "k33"))
    def test_link_pair_is_minimum_cut(self, variant):
        g, spec = build_counterexample(variant, 1)
        assert connectivity(g) == 2
        assert edge_connectivity(g) == 2
        assert not is_connected(g.without_edges(spec.exits_of(0)))

    def test_bad_arguments(self):
        with pytest.raises(PreconditionError, match="unknown block kind"):
            build_counterexample("petersen", 1)
        with pytest.raises(PreconditionError, match="scale"):
            build_counterexample("mini", 0)
        with pytest.raises(PreconditionError, match="scale"):
            build_counterexample("k33", 4)

    def test_spec_json_roundtrip(self, k33_pair, mini_pair):
        _, spec = k33_pair
        again = GadgetSpec.from_json(spec.to_json())
        assert again == spec
        assert json.loads(spec.to_json())["variant"] == "k33"
        # sha256 of the text, recorded when each field was written by hand
        pins = {
            "mini": "d44ce9ac84e5d9dd4291a300a060d12a00ee3aab60a797463c9d9da83d4887c0",
            "k33": "5eae9653e7f0c94ed5e22323430297aa2c5a2ebf7425b03364628fb87182a83f",
        }
        for _, spec in (mini_pair, k33_pair):
            assert spec.scale == 1
            assert hashlib.sha256(spec.to_json().encode()).hexdigest() == pins[spec.variant]


class TestVerifyStructure:
    @pytest.mark.parametrize(
        "variant,scale", [(v, s) for v in ("mini", "k33") for s in (1, 2, 3)]
    )
    def test_clean_instances_pass(self, variant, scale):
        g, spec = build_counterexample(variant, scale)
        rep = verify_gadget_structure(g, spec)
        assert rep.ok, rep.failures()

    def test_mini_records_but_does_not_require_degree(self, mini_pair):
        g, spec = mini_pair
        rep = verify_gadget_structure(g, spec)
        assert rep.checks["min_degree_3"][0] is False  # chain interiors have degree 2
        assert "min_degree_3" not in rep.required
        assert rep.ok

    def test_bypass_edge_breaks_cut_count(self, k33_pair):
        # Adding an edge between consecutive blocks makes the declared cut
        # edge a non-bridge, so both bridge predicates must trip.
        g, spec = k33_pair
        h = spec.pairs[0].halves[0]
        cut = h.cut_edges[0]
        b0, b1 = set(h.blocks[0]), set(h.blocks[1])
        u = min(b0 - set(cut))
        v = min(b1 - set(cut))
        assert not g.has_edge(u, v)
        mutated = Graph(g.n, list(g.edges) + [(u, v)])
        rep = verify_gadget_structure(mutated, spec)
        assert not rep.ok
        assert rep.checks["declared_cut_edges_are_bridges"][0] is False
        assert rep.checks["two_cut_edges_per_half"][0] is False

    def test_same_side_chord_breaks_parity(self, k33_pair):
        g, spec = k33_pair
        block = spec.pairs[0].halves[0].blocks[0]
        u, v = block[0], block[1]  # one partite side of the block
        assert not g.has_edge(u, v)
        mutated = Graph(g.n, list(g.edges) + [(u, v)])
        rep = verify_gadget_structure(mutated, spec)
        assert not rep.ok
        assert rep.checks["half_parities"][0] is False

    def test_mini_parities_match_exhaustive_enumeration(self, mini_pair):
        g, spec = mini_pair
        for p in spec.pairs:
            got = set()
            for h in p.halves:
                region = set(h.interior) | {p.start, p.end}
                sub, vmap = g.induced(sorted(region))
                loc = {x: i for i, x in enumerate(vmap)}
                pars = {
                    (len(path) - 1) % 2  # edge count parity
                    for path in oracles.simple_paths(sub, loc[p.start], loc[p.end])
                    if len(path) > 1
                }
                assert pars == {h.parity}
                got.add(h.parity)
            assert got == {0, 1}


class TestOneWay:
    def test_premise_coloring_pins_the_entry(self, mini_pair):
        g, spec = mini_pair
        c = _premise_coloring(g)
        ow = find_one_way_vertex(g, spec, 0, c)
        assert ow == OneWayVertex(vertex=6, usable_exit=(1, 2), pair_index=0)
        assert not ow.stuck

    def test_premise_coloring_exit_sets_by_enumeration(self, mini_pair):
        # Independent path-level check for the declared one-way vertex a2 = 8:
        # within the gadget region every proper route to the end connector
        # ends in the link's color (blocked), while some route to the start
        # connector ends differently (open).
        g, spec = mini_pair
        c = _premise_coloring(g)
        region = spec.pairs[0].region()
        sub, vmap = g.induced(region)
        loc = {x: i for i, x in enumerate(vmap)}
        subc = EdgeColoring(
            2,
            {
                tuple(sorted((loc[u], loc[v]))): c.color(u, v)
                for u, v in g.edges
                if u in loc and v in loc
            },
        )
        to_end = oracles.proper_paths(sub, subc, loc[8], loc[1])
        assert to_end and all(
            oracles.path_colors(sub, subc, p)[-1] == c.color(1, 2) for p in to_end
        )
        to_start = oracles.proper_paths(sub, subc, loc[8], loc[0])
        assert any(
            oracles.path_colors(sub, subc, p)[-1] != c.color(0, 5) for p in to_start
        )

    def test_stuck_flag(self):
        assert OneWayVertex(6, None, 0).stuck
        assert not OneWayVertex(6, (0, 5), 0).stuck

    def test_monochromatic_region_pins_the_connector(self, mini_pair):
        # All-equal colors inside pair A silence every non-trivial escape,
        # so the scan stops at the start connector itself.
        g, spec = mini_pair
        asg = {e: 2 for e in g.edges}
        for e in g.edges:
            if set(e) <= set(spec.pairs[0].region()):
                asg[e] = 1
        asg[(0, 5)] = 1
        asg[(1, 2)] = 1
        c = EdgeColoring(2, asg)
        ow = find_one_way_vertex(g, spec, 0, c)
        assert ow is not None and ow.vertex == 0 and ow.usable_exit == (0, 5)

    def test_sampled_colorings_have_one_way_in_every_gadget(self, mini_pair):
        g, spec = mini_pair
        rng = random.Random(20260815)
        trials, hit = 10_000, 0
        for _ in range(trials):
            c = EdgeColoring.from_vector(
                g, 2, [rng.randint(1, 2) for _ in range(g.m)]
            )
            if all(
                find_one_way_vertex(g, spec, i, c) is not None for i in range(3)
            ):
                hit += 1
        assert hit >= 0.99 * trials


class TestRefute:
    def test_all_one_coloring(self, mini_pair):
        g, spec = mini_pair
        c = EdgeColoring(2, {e: 1 for e in g.edges})
        w = refute_2_coloring(g, spec, c)
        assert w is not None and w.verified
        assert w.strategy == "walk-filter"
        assert w.pair == (0, 1)
        assert proper_path_exists(g, c, *w.pair) is None

    def test_random_colorings_all_defeated(self, mini_pair):
        g, spec = mini_pair
        rng = random.Random(99)
        for _ in range(150):
            c = EdgeColoring.from_vector(
                g, 2, [rng.randint(1, 2) for _ in range(g.m)]
            )
            w = refute_2_coloring(g, spec, c)
            assert w is not None and w.verified
            assert proper_path_exists(g, c, *w.pair) is None

    def test_k33_colorings_all_defeated(self, k33_pair):
        g, spec = k33_pair
        rng = random.Random(7)
        for _ in range(25):
            c = EdgeColoring.from_vector(
                g, 2, [rng.randint(1, 2) for _ in range(g.m)]
            )
            w = refute_2_coloring(g, spec, c)
            assert w is not None and w.verified
            assert proper_path_exists(g, c, *w.pair) is None


class TestConjectureHypotheses:
    @pytest.mark.parametrize("scale", (1, 2, 3))
    def test_k33_instances_qualify(self, scale):
        g, _ = build_counterexample("k33", scale)
        assert connectivity(g) == 2
        assert g.min_degree() >= 3
        assert not g.is_complete()

    def test_upper_bound_certified(self, mini):
        c = color_2connected_3(mini)
        assert c.colors_used() == 3
        assert is_proper_connected(mini, c) == (True, None)
