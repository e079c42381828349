"""Generator and refutation workbench for a two-phase counterexample family.

The family shows that 2-connected graphs of minimum degree >= 3 can still need
three colors for proper connection. An instance is a ring of three *gadget
pairs* A, B, C. Each pair joins two connector vertices by two internally
disjoint chains ("halves") whose start-to-end path lengths have opposite
parities; consecutive pairs are coupled by single linking edges (a-c', a'-b,
b'-c), which makes the whole graph 2-connected with exactly those couplings as
minimum edge cuts.

Under any 2-coloring, each half forces long alternating behavior across its
chain of cut edges, and the parity mismatch between the two halves of a pair
strands some vertex: it can escape its pair through at most one of the two
linking edges (a *one-way* vertex, possibly fully stuck). Three one-way
vertices pointing around a 3-ring pigeonhole into two that point the same
way, and that pair of vertices has no properly colored path at all.

Two block kinds are provided:

* ``k33`` - halves are chains of three complete bipartite blocks joined by
  cut edges; minimum degree 3, 114 vertices at scale 1.
* ``mini`` - halves are bare paths (lengths 4 and 5 at scale 1); 27 vertices,
  small enough for the exact solver to settle the verdict by exhaustion.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

from .graph import (
    Edge,
    Graph,
    InternalError,
    PreconditionError,
    _norm,
    bipartition,
    bridges,
    connectivity,
    edge_connectivity,
    is_connected,
)
from .coloring import (
    EdgeColoring,
    _ColorView,
    _first_unconnected_pair,
    _one_path,
    _to_local,
    _walk_arrivals,
)

VARIANTS = ("k33", "mini")
PAIR_NAMES = ("A", "B", "C")


@dataclass(frozen=True)
class HalfSpec:
    """One chain of a gadget pair, start connector to end connector."""

    interior: tuple[int, ...]
    entry: int  # interior vertex attached to the start connector
    exit: int  # interior vertex attached to the end connector
    attach_edges: tuple[Edge, Edge]  # (start~entry, exit~end)
    cut_edges: tuple[Edge, ...]  # interior bridges, ordered from the entry side
    blocks: tuple[tuple[int, ...], ...]
    parity: int  # parity of every start->end path length through this half


@dataclass(frozen=True)
class PairSpec:
    name: str
    start: int
    end: int
    halves: tuple[HalfSpec, HalfSpec]

    def region(self) -> tuple[int, ...]:
        out = {self.start, self.end}
        for h in self.halves:
            out.update(h.interior)
        return tuple(sorted(out))


@dataclass(frozen=True)
class GadgetSpec:
    variant: str
    scale: int
    pairs: tuple[PairSpec, PairSpec, PairSpec]
    links: tuple[Edge, Edge, Edge]  # (a~c', a'~b, b'~c)

    @property
    def connectors(self) -> dict[str, int]:
        a, b, c = self.pairs
        return {
            "a": a.start,
            "a'": a.end,
            "b": b.start,
            "b'": b.end,
            "c": c.start,
            "c'": c.end,
        }

    def exits_of(self, pair_index: int) -> tuple[Edge, Edge]:
        """(link at the start connector, link at the end connector)."""
        p = self.pairs[pair_index]
        at_start = [e for e in self.links if p.start in e]
        at_end = [e for e in self.links if p.end in e]
        if len(at_start) != 1 or len(at_end) != 1:
            raise InternalError("each connector must carry exactly one link")
        return at_start[0], at_end[0]

    def to_json(self) -> str:
        def half(h: HalfSpec) -> dict:
            return {
                "interior": list(h.interior),
                "entry": h.entry,
                "exit": h.exit,
                "attach_edges": [list(e) for e in h.attach_edges],
                "cut_edges": [list(e) for e in h.cut_edges],
                "blocks": [list(b) for b in h.blocks],
                "parity": h.parity,
            }

        return json.dumps(
            {
                "variant": self.variant,
                "scale": self.scale,
                "links": [list(e) for e in self.links],
                "pairs": [
                    {
                        "name": p.name,
                        "start": p.start,
                        "end": p.end,
                        "halves": [half(h) for h in p.halves],
                    }
                    for p in self.pairs
                ],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "GadgetSpec":
        raw = json.loads(text)

        def half(d: dict) -> HalfSpec:
            return HalfSpec(
                interior=tuple(d["interior"]),
                entry=d["entry"],
                exit=d["exit"],
                attach_edges=tuple(_norm(*e) for e in d["attach_edges"]),
                cut_edges=tuple(_norm(*e) for e in d["cut_edges"]),
                blocks=tuple(tuple(b) for b in d["blocks"]),
                parity=d["parity"],
            )

        pairs = tuple(
            PairSpec(
                name=p["name"],
                start=p["start"],
                end=p["end"],
                halves=tuple(half(h) for h in p["halves"]),
            )
            for p in raw["pairs"]
        )
        links = tuple(_norm(*e) for e in raw["links"])
        return cls(raw["variant"], raw["scale"], pairs, links)


# -- construction --------------------------------------------------------------


class _Builder:
    def __init__(self, start: int):
        self.next_id = start
        self.edges: list[Edge] = []

    def take(self, count: int) -> list[int]:
        out = list(range(self.next_id, self.next_id + count))
        self.next_id += count
        return out

    def join(self, u: int, v: int) -> Edge:
        e = _norm(u, v)
        self.edges.append(e)
        return e


def _mini_half(b: _Builder, start: int, end: int, length: int) -> HalfSpec:
    """A bare path of ``length`` edges between the connectors."""
    inner = b.take(length - 1)
    att1 = b.join(start, inner[0])
    prev = inner[0]
    cuts = []
    for v in inner[1:]:
        cuts.append(b.join(prev, v))
        prev = v
    att2 = b.join(prev, end)
    return HalfSpec(
        interior=tuple(inner),
        entry=inner[0],
        exit=inner[-1],
        attach_edges=(att1, att2),
        cut_edges=tuple(cuts),
        blocks=tuple((v,) for v in inner),
        parity=length % 2,
    )


def _k33_half(b: _Builder, start: int, end: int, t: int, odd: bool) -> HalfSpec:
    """Three complete bipartite K_{t,t} blocks chained by single cut edges.

    Every block traversal between its two ports has fixed parity: even when
    both ports share a partite side, odd otherwise. The first block of an odd
    half takes opposite-side ports; everything else is even, so the half's
    start-to-end parity is (4 + [odd]) mod 2.
    """
    blocks: list[tuple[int, ...]] = []
    port_pairs: list[tuple[int, int]] = []
    for j in range(3):
        left = b.take(t)
        right = b.take(t)
        for u in left:
            for v in right:
                b.join(u, v)
        blocks.append(tuple(left + right))
        if j == 0 and odd:
            port_pairs.append((left[0], right[0]))
        else:
            port_pairs.append((left[0], left[1]))
    att1 = b.join(start, port_pairs[0][0])
    f = b.join(port_pairs[0][1], port_pairs[1][0])
    f2 = b.join(port_pairs[1][1], port_pairs[2][0])
    att2 = b.join(port_pairs[2][1], end)
    interior = tuple(v for blk in blocks for v in blk)
    return HalfSpec(
        interior=interior,
        entry=port_pairs[0][0],
        exit=port_pairs[2][1],
        attach_edges=(att1, att2),
        cut_edges=(f, f2),
        blocks=tuple(blocks),
        parity=(4 + (1 if odd else 0)) % 2,
    )


def build_counterexample(block_kind: str, scale: int = 1) -> tuple[Graph, GadgetSpec]:
    """An instance of the family plus its structural description.

    ``block_kind``: ``"k33"`` (complete bipartite blocks K_{s+2,s+2}, minimum
    degree s+2) or ``"mini"`` (path chains of lengths 2s+2 and 2s+3).
    """
    if block_kind not in VARIANTS:
        raise PreconditionError(f"unknown block kind {block_kind!r}; use {VARIANTS}")
    if not (1 <= scale <= 3):
        raise PreconditionError("scale must be in 1..3")
    # connectors first: a a' b b' c c'
    b = _Builder(6)
    conn = {name: i for i, name in enumerate(("a", "a'", "b", "b'", "c", "c'"))}
    pairs = []
    for i, name in enumerate(PAIR_NAMES):
        start = 2 * i
        end = 2 * i + 1
        if block_kind == "mini":
            even_half = _mini_half(b, start, end, 2 * scale + 2)
            odd_half = _mini_half(b, start, end, 2 * scale + 3)
        else:
            t = scale + 2
            even_half = _k33_half(b, start, end, t, odd=False)
            odd_half = _k33_half(b, start, end, t, odd=True)
        pairs.append(PairSpec(name, start, end, (even_half, odd_half)))
    links = (
        b.join(conn["a"], conn["c'"]),
        b.join(conn["a'"], conn["b"]),
        b.join(conn["b'"], conn["c"]),
    )
    g = Graph(b.next_id, b.edges)
    spec = GadgetSpec(block_kind, scale, tuple(pairs), links)
    return g, spec


# -- structural verification -----------------------------------------------------


@dataclass
class StructureReport:
    """Named predicate outcomes; ``ok`` requires every *required* one."""

    variant: str
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)

    REQUIRED_COMMON = (
        "regions_partition",
        "links_exact",
        "kappa_2",
        "link_pair_is_min_edge_cut",
        "attachments",
        "halves_connected",
        "declared_cut_edges_are_bridges",
        "half_parities",
        "opposite_parities",
        "noncomplete",
    )
    REQUIRED_K33 = ("min_degree_3", "two_cut_edges_per_half")

    def put(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = (ok, detail)

    @property
    def required(self) -> tuple[str, ...]:
        extra = self.REQUIRED_K33 if self.variant == "k33" else ()
        return self.REQUIRED_COMMON + extra

    @property
    def ok(self) -> bool:
        return all(self.checks.get(name, (False, ""))[0] for name in self.required)

    def failures(self) -> list[str]:
        return [
            f"{name}: {self.checks.get(name, (False, 'missing'))[1]}"
            for name in self.required
            if not self.checks.get(name, (False, ""))[0]
        ]


def _paths_between(g: Graph, allowed: set[int], a: int, b: int, cap: int) -> set[int]:
    """Parities of all simple a->b paths inside ``allowed``; a == b gives {0}."""
    if a == b:
        return {0}
    out: set[int] = set()
    steps = 0

    def dfs(v: int, depth: int, onpath: set[int]):
        nonlocal steps
        steps += 1
        if steps > cap:
            raise InternalError("block path enumeration exceeded cap")
        for w in g.adj[v]:
            if w == b:
                out.add((depth + 1) % 2)
            elif w in allowed and w not in onpath:
                onpath.add(w)
                dfs(w, depth + 1, onpath)
                onpath.discard(w)

    dfs(a, 0, {a})
    return out


def _half_path_parities(
    g: Graph, start: int, end: int, half: HalfSpec, cap: int = 200_000
) -> set[int]:
    """Parities of all start->end paths confined to this half.

    The declared cut edges are bridges, so every such path crosses the blocks
    in chain order through forced ports; enumerating each block separately is
    exhaustive over the half while staying small per block.
    """
    # port_in of the first block is the entry attachment; afterwards ports
    # come from the cut-edge endpoints in chain order
    blocks = [set(b) for b in half.blocks]
    port_in = half.entry
    parities = {(len(half.cut_edges) + 2) % 2}  # attach + cut edges are fixed
    remaining = list(half.cut_edges)
    for i, blk in enumerate(blocks):
        if i < len(blocks) - 1:
            cut = next(e for e in remaining if e[0] in blk or e[1] in blk)
            remaining.remove(cut)
            port_out = cut[0] if cut[0] in blk else cut[1]
            next_port = cut[1] if cut[0] in blk else cut[0]
        else:
            port_out = half.exit
            next_port = None
        inside = _paths_between(g, blk - {port_in, port_out}, port_in, port_out, cap)
        parities = {(p + q) % 2 for p in parities for q in inside}
        port_in = next_port
    return parities


def verify_gadget_structure(g: Graph, spec: GadgetSpec) -> StructureReport:
    """Check every structural property the refutation argument relies on.

    The two-cut-edges and minimum-degree predicates are required only for the
    k33 variant; they are still recorded for mini instances.
    """
    rep = StructureReport(spec.variant)
    regions = [set(p.region()) for p in spec.pairs]
    union = set().union(*regions)
    disjoint = sum(len(r) for r in regions) == len(union)
    rep.put(
        "regions_partition",
        disjoint and union == set(range(g.n)),
        f"sizes={[len(r) for r in regions]} n={g.n}",
    )

    link_set = {(_norm(*e)) for e in spec.links}
    cross = {
        e
        for e in g.edges
        if next(i for i, r in enumerate(regions) if e[0] in r)
        != next(i for i, r in enumerate(regions) if e[1] in r)
    }
    rep.put(
        "links_exact",
        cross == link_set and len(link_set) == 3,
        f"cross-region edges={sorted(cross)}",
    )

    deg = g.min_degree()
    rep.put("min_degree_3", deg >= 3, f"min degree={deg}")
    rep.put("noncomplete", not g.is_complete(), f"n={g.n} m={g.m}")

    kap = connectivity(g)
    rep.put("kappa_2", kap == 2, f"kappa={kap}")
    lam = edge_connectivity(g)
    pair0_links = spec.exits_of(0)
    split = not is_connected(g.without_edges(pair0_links))
    rep.put(
        "link_pair_is_min_edge_cut",
        lam == 2 and split,
        f"kappa'={lam}, removing {pair0_links} disconnects={split}",
    )

    att_ok, att_why = True, "ok"
    conn_ok = True
    cuts_ok, cuts_why = True, "ok"
    two_cuts = True
    par_ok, par_why = True, "ok"
    opp = True
    for p in spec.pairs:
        got_parities = []
        for h in p.halves:
            start_edges = {e for e in g.edges if p.start in e and (e[0] in h.interior or e[1] in h.interior)}
            end_edges = {e for e in g.edges if p.end in e and (e[0] in h.interior or e[1] in h.interior)}
            want_start = {_norm(p.start, h.entry)}
            want_end = {_norm(h.exit, p.end)}
            if start_edges != want_start or end_edges != want_end:
                att_ok, att_why = False, (
                    f"pair {p.name}: connector edges {sorted(start_edges)}/"
                    f"{sorted(end_edges)} != declared"
                )
            sub, vmap = g.induced(h.interior)
            if not is_connected(sub):
                conn_ok = False
            back = {i: v for i, v in enumerate(vmap)}
            sub_bridges = {
                _norm(back[x], back[y]) for x, y in bridges(sub)
            }
            if set(h.cut_edges) != sub_bridges:
                cuts_ok, cuts_why = False, (
                    f"pair {p.name}: declared {h.cut_edges} vs bridges "
                    f"{sorted(sub_bridges)}"
                )
            if len(sub_bridges) != 2:
                two_cuts = False
            # parity: the half plus its connectors must be bipartite with the
            # connectors on sides matching the declared parity; cross-checked
            # by exhaustive enumeration of start->end paths inside the half
            hsub, hmap = g.induced(set(h.interior) | {p.start, p.end})
            loc = {v: i for i, v in enumerate(hmap)}
            hsub2 = hsub.without_edges(
                [(loc[p.start], loc[p.end])] if g.has_edge(p.start, p.end) else []
            )
            bip = bipartition(hsub2)
            enum = _half_path_parities(g, p.start, p.end, h)
            declared_ok = (
                bip is not None
                and (bip.side_of(loc[p.start]) != bip.side_of(loc[p.end]))
                == (h.parity == 1)
                and enum == {h.parity}
            )
            if not declared_ok:
                par_ok, par_why = False, (
                    f"pair {p.name}: declared parity {h.parity}, "
                    f"enumerated {sorted(enum)}, bipartite={bip is not None}"
                )
            got_parities.append(h.parity)
        if got_parities[0] == got_parities[1]:
            opp = False
    rep.put("attachments", att_ok, att_why)
    rep.put("halves_connected", conn_ok, "")
    rep.put("declared_cut_edges_are_bridges", cuts_ok, cuts_why)
    rep.put(
        "two_cut_edges_per_half",
        two_cuts,
        "every half has exactly 2 interior cut edges"
        if two_cuts
        else "some half deviates from 2 interior cut edges",
    )
    rep.put("half_parities", par_ok, par_why)
    rep.put("opposite_parities", opp, "")
    return rep


# -- one-way analysis --------------------------------------------------------------


@dataclass(frozen=True)
class OneWayVertex:
    vertex: int
    usable_exit: Optional[Edge]  # None when fully stuck
    pair_index: int

    @property
    def stuck(self) -> bool:
        return self.usable_exit is None


def _region_graph(g: Graph, spec: GadgetSpec, pair_index: int):
    key = ("gadget-region", spec.variant, spec.scale, pair_index)
    try:
        return g._cache[key]
    except KeyError:
        sub, vmap = g.induced(spec.pairs[pair_index].region())
        loc = {v: i for i, v in enumerate(vmap)}
        g._cache[key] = (sub, vmap, loc)
        return g._cache[key]


def _escapes(view: _ColorView, v_loc: int, conn_loc: int, link_color: int) -> bool:
    """Can ``v`` leave the region through the link at this connector?

    Either v is the connector itself, or some proper path from v to the
    connector inside the region ends in a color other than the link's.
    """
    return v_loc == conn_loc or (
        _one_path(view, v_loc, conn_loc, view.arrivals(conn_loc), last_not=link_color)
        is not None
    )


def find_one_way_vertex(
    g: Graph, spec: GadgetSpec, pair_index: int, c: EdgeColoring
) -> Optional[OneWayVertex]:
    """First region vertex (ascending) that can escape through at most one
    linking edge under ``c``; None when every vertex escapes both ways.

    Escape routes may wander anywhere inside the pair's region but nowhere
    else — the region's only boundary edges are its two links, so the first
    step outside determines the exit.
    """
    p = spec.pairs[pair_index]
    exit_start, exit_end = spec.exits_of(pair_index)
    sub, vmap, loc = _region_graph(g, spec, pair_index)
    view = _ColorView(sub, EdgeColoring(c.k, _to_local(c.assignment, sub, vmap)))
    col_start = c.color(*exit_start)
    col_end = c.color(*exit_end)
    for v in p.region():
        esc_s = _escapes(view, loc[v], loc[p.start], col_start)
        esc_e = _escapes(view, loc[v], loc[p.end], col_end)
        if esc_s and esc_e:
            continue
        exit_edge = exit_start if esc_s else exit_end if esc_e else None
        return OneWayVertex(v, exit_edge, pair_index)
    return None


# -- refutation -----------------------------------------------------------------


@dataclass
class RefutationWitness:
    """A verified properly-unconnected pair under a specific coloring."""

    pair: tuple[int, int]
    strategy: str  # "walk-filter" | "one-way" | "exhaustive"
    one_way: dict[str, OneWayVertex] = field(default_factory=dict)
    verified: bool = False


def refute_2_coloring(
    g: Graph, spec: GadgetSpec, c: EdgeColoring
) -> Optional[RefutationWitness]:
    """A verified witness pair with no proper path under ``c``, or None.

    Strategy ladder: (i) all-pairs walk filter — a pair without even a proper
    *walk* settles immediately; (ii) per-pair one-way analysis — a stuck
    vertex, or two one-way vertices escaping in the same rotational direction,
    yields a candidate pair; (iii) full exact check. A None return means the
    coloring truly is properly connecting (confirmed exhaustively) — callers
    should treat that as a refutation of the family's design and report it
    loudly.
    """
    c.validate(g)
    # One view serves the walk sweep and every path query below.
    view = _ColorView(g, c)

    def dead(u: int, v: int) -> bool:
        return _one_path(view, u, v, view.arrivals(v)) is None

    # (i) walk filter sweep
    for u in range(g.n):
        reach = _walk_arrivals(view.einc, view.colors, u)
        for v in range(u + 1, g.n):
            if not reach[v]:
                if not dead(u, v):
                    raise InternalError(
                        f"walk filter claimed dead pair ({u},{v}) but a proper "
                        "path exists"
                    )
                return RefutationWitness((u, v), "walk-filter", verified=True)
    # (ii) one-way pigeonhole
    one_way: dict[str, OneWayVertex] = {}
    for i, p in enumerate(spec.pairs):
        ow = find_one_way_vertex(g, spec, i, c)
        if ow is not None:
            one_way[p.name] = ow
    for name, ow in sorted(one_way.items()):
        if ow.stuck:
            region = set(spec.pairs[ow.pair_index].region())
            partner = min(v for v in range(g.n) if v not in region)
            u, v = sorted((ow.vertex, partner))
            if dead(u, v):
                return RefutationWitness((u, v), "one-way", one_way, verified=True)
    for (na, wa), (nb, wb) in itertools.combinations(sorted(one_way.items()), 2):
        if wa.stuck or wb.stuck:
            continue
        da = _direction(spec, wa)
        db = _direction(spec, wb)
        if da != db:
            continue
        u, v = sorted((wa.vertex, wb.vertex))
        if dead(u, v):
            return RefutationWitness((u, v), "one-way", one_way, verified=True)
    # (iii) exhaustive
    pair = _first_unconnected_pair(view)
    if pair is not None:
        return RefutationWitness(pair, "exhaustive", one_way, verified=True)
    return None


def _direction(spec: GadgetSpec, ow: OneWayVertex) -> str:
    """'backward' = escapes via the start connector's link, 'forward' = end."""
    exit_start, exit_end = spec.exits_of(ow.pair_index)
    return "backward" if ow.usable_exit == exit_start else "forward"
