"""Constructive proper-connection colorings.

Each entry point realizes a structural guarantee as an explicit coloring and
verifies the result before returning it. The colorers build their pieces
(orientation colorings, books, seeds) unchecked and in host ids, then run one
whole-graph check on the answer; the lemma entry points below also check the
caller's input:

* ``strong_2_coloring_bipartite`` — bridgeless bipartite graphs get a strong
  2-coloring from a strongly connected orientation.
* ``lift_spanning_coloring`` / ``extend_vertex_addition`` — monotonicity:
  colorings survive adding edges, and a degree->=2 vertex is absorbed by
  coloring only its new edges: four quick tries on the two smallest, then
  (``extend_vertex_addition`` only) every assignment. Each try checks only
  the new vertex's pairs (``_absorb``, shared with the ear coloring).
* ``color_3ec`` — 3-edge-connected noncomplete graphs: spanning bipartite
  max-cut subgraph, strong 2-coloring, lift.
* ``color_2connected_3`` — any 2-connected graph in at most three colors with
  the strong property: two when a construction or a budgeted search finds
  them, else a decoration of the 3-edge-connected quotient, else ear by ear
  along Schmidt's chains.
* ``classify_diam3`` / ``color_diam3`` — the full case analysis showing
  2-connected noncomplete diameter-3 graphs need only two colors: a seed
  grown by degree-2 additions, certified by one final proper-connection
  check.

A verification failure after a construction step signals a falsified step of
the underlying argument and raises :class:`InternalError` loudly; nothing is
silently patched up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graph import (
    Bipartition,
    BipartiteSubgraph,
    Edge,
    Graph,
    GraphError,
    InternalError,
    PreconditionError,
    _norm,
    bipartition,
    bridges,
    chain_decomposition,
    connected_components,
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
from .coloring import (
    EdgeColoring,
    _ColorView,
    _first_unconnected_pair,
    _strong_rows,
    has_strong_property,
    is_proper_connected,
)
from .solver import SearchBudgetExceeded, exists_pc_coloring  # color_2connected_3 only


class BridgeError(PreconditionError):
    """A bridgeless graph was required; carries one offending bridge."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(f"graph has a bridge {edge}; a bridgeless input is required")


class OddCycleError(PreconditionError):
    """A bipartite graph was required; carries one offending odd cycle."""

    def __init__(self, cycle: Iterable[int]):
        self.cycle = tuple(cycle)
        super().__init__(
            f"graph has an odd cycle {self.cycle}; a bipartite input is required"
        )


class ExtensionError(GraphError):
    """No coloring of the new edges works while the base coloring stays fixed."""


# -- bridgeless bipartite: strong 2-coloring ------------------------------------


def strong_2_coloring_bipartite(h: Graph) -> EdgeColoring:
    """Strong proper-connecting 2-coloring of a connected bridgeless bipartite graph.

    Orient the graph strongly (DFS tree edges downward, every other edge toward
    the earlier endpoint) and give each edge the color of its tail's partite
    side. Every directed walk is then properly colored with start/end colors
    determined solely by the endpoint sides, so a directed u->v path and a
    reversed directed v->u path witness the strong property for each pair.
    """
    c = _orientation_coloring(h)
    check = has_strong_property(h, c)
    if not check.ok:
        raise InternalError(
            f"orientation coloring missed the strong property at pair "
            f"{check.failing_pair}"
        )
    return c


def _orientation_coloring(h: Graph) -> EdgeColoring:
    """The coloring of :func:`strong_2_coloring_bipartite`, unverified: a
    colorer that builds on it checks its answer once, on the whole graph."""
    if h.n < 2:
        raise PreconditionError("need at least two vertices")
    if not is_connected(h):
        raise PreconditionError("input must be connected")
    br = bridges(h)
    if br:
        raise BridgeError(br[0])
    bip = bipartition(h)
    if bip is None:
        cyc = odd_cycle(h)
        assert cyc is not None
        raise OddCycleError(cyc)
    return _orient(h, bip)


def _orient(h: Graph, bip: Bipartition) -> EdgeColoring:
    """:func:`_orientation_coloring` of a graph that the caller has found
    connected and bridgeless, with ``bip`` its bipartition."""
    tail: dict[Edge, int] = {}
    seen = [False] * h.n
    stack = [(0, iter(h.adj[0]))]
    seen[0] = True
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            e = _norm(u, w)
            if e in tail:
                continue
            if seen[w]:
                tail[e] = u  # points toward the earlier-discovered endpoint
            else:
                tail[e] = u
                seen[w] = True
                stack.append((w, iter(h.adj[w])))
                advanced = True
                break
        if not advanced:
            stack.pop()

    return EdgeColoring(2, {e: 1 + bip.side_of(t) for e, t in tail.items()})


# -- monotone extension lemmas ---------------------------------------------------


def lift_spanning_coloring(g: Graph, h: Graph, c_h: EdgeColoring) -> EdgeColoring:
    """Extend a proper-connecting coloring of a spanning subgraph to the host.

    Edges outside ``h`` take color 1; every certificate of ``c_h`` stays valid,
    so properness (and the strong property, when ``c_h`` has it) carries over.
    """
    if h.n != g.n:
        raise PreconditionError("subgraph must span the host vertex set")
    if not is_connected(h):
        raise PreconditionError("spanning subgraph must be connected")
    if not set(h.edges) <= set(g.edges):
        raise PreconditionError("subgraph has an edge missing from the host")
    c_h.validate(h)
    c = _lift(g, c_h)
    ok, pair = is_proper_connected(g, c)
    if not ok:
        raise PreconditionError(
            f"lifted coloring leaves {pair} unconnected; the base coloring was "
            "not proper-connecting"
        )
    return c


def _lift(g: Graph, c_h: EdgeColoring) -> EdgeColoring:
    """``c_h``, a coloring of a spanning subgraph, with every other edge of
    ``g`` colored 1; unchecked."""
    asg = dict(c_h.assignment)
    for e in g.edges:
        asg.setdefault(e, 1)
    return EdgeColoring(max(c_h.k, 1) if g.m else c_h.k, asg)


def _relabel(colors: dict[Edge, int], label: Sequence[int] | dict[int, int]) -> dict[Edge, int]:
    """``colors`` with each vertex ``x`` renamed ``label[x]``: by a subgraph's
    vertex map, its colors keyed by host ids, and by the inverse, back."""
    return {_norm(label[x], label[y]): col for (x, y), col in colors.items()}


def _absorb(
    asg: dict[Edge, int], grown: Iterable[int], new: list[int], edges: list[Edge],
    tries: Iterable[Sequence[int]], k: int, rows_ok: Callable[..., bool],
) -> Optional[dict[Edge, int]]:
    """The vertices ``new`` join the graph of ``asg``'s edges on ``grown``,
    whose colors stay frozen: ``asg`` plus the first of ``tries`` (colors of
    the new ``edges``) under which ``rows_ok(h, c, rows)`` passes, or None.
    Old pairs keep their paths, so only the new vertices' pairs are checked:
    ``h`` numbers them first, and ``rows`` is their ids.
    """
    loc = {v: i for i, v in enumerate([*new, *grown])}
    base = _relabel(asg, loc)
    local = [_norm(loc[x], loc[y]) for x, y in edges]
    h = Graph(len(loc), [*base, *local])
    rows = range(len(new))
    for cols in tries:
        if rows_ok(h, EdgeColoring(k, {**base, **dict(zip(local, cols))}), rows):
            return {**asg, **dict(zip(edges, cols))}
    return None


def _proper_rows(h: Graph, c: EdgeColoring, rows: range) -> bool:
    """Whether every pair of ``h`` at ``rows`` has a proper path under ``c``."""
    return _first_unconnected_pair(_ColorView(h, c.as_vector(h)), rows) is None


def _quick_tries(count: int) -> Iterator[tuple[int, ...]]:
    """The four colorings of the first two of ``count`` >= 2 edges, the rest 1."""
    rest = (1,) * (count - 2)
    return ((c1, c2, *rest) for c1, c2 in itertools.product((1, 2), repeat=2))


def extend_vertex_addition(
    g: Graph, c: EdgeColoring, v: int, attach: Iterable[int]
) -> tuple[Graph, EdgeColoring]:
    """Absorb a new degree->=2 vertex while keeping the old coloring frozen.

    ``attach`` lists the neighbors of the new vertex ``v`` (which must be the
    next free id, ``g.n``). ``c`` must be proper-connecting; it is checked
    once, so each try checks only the new vertex's pairs. Only the new edges
    are searched: the four quick tries first, then, with more than two new
    edges, every assignment. When none works, :class:`ExtensionError` is
    raised — pc stays 2 by the addition lemma, but only a global recoloring
    can realize it then.
    """
    if v != g.n:
        raise PreconditionError(f"new vertex must take the next id {g.n}, got {v}")
    if c.k != 2:
        raise PreconditionError("base coloring must use two colors")
    targets = sorted(set(attach))
    if len(targets) < 2:
        raise PreconditionError("new vertex needs at least 2 attachment edges")
    ok, pair = is_proper_connected(g, c)
    if not ok:
        raise PreconditionError(f"base coloring leaves {pair} unconnected")
    gp = g.with_vertex_added(targets)
    edges = [(w, v) for w in targets]
    tries = _quick_tries(len(edges))
    if len(edges) > 2:
        tries = itertools.chain(tries, itertools.product((1, 2), repeat=len(edges)))
    found = _absorb(c.assignment, range(g.n), [v], edges, tries, 2, _proper_rows)
    if found is None:
        raise ExtensionError("local extension failed")
    return gp, EdgeColoring(2, found)


# -- 3-edge-connected: strong 2-coloring via spanning bipartite subgraph ---------


def color_3ec(g: Graph) -> EdgeColoring:
    """Verified strong 2-coloring of a 3-edge-connected noncomplete graph.

    Pipeline: locally maximum cut -> spanning bipartite subgraph (2-edge-
    connected because no vertex flip or cut move of
    ``max_cut_bipartite_subgraph`` grows the cut) -> strong 2-coloring ->
    lift.
    """
    if g.is_complete():
        raise PreconditionError("complete graphs are a different regime (pc = 1)")
    if not _three_edge_connected(g):
        lam = edge_connectivity(g)
        raise PreconditionError(f"need 3-edge-connectivity, have kappa'={lam}")
    return _color_3ec(g)


def _three_edge_connected(g: Graph) -> bool:
    """Whether λ(g) >= 3, by :func:`cut_labels`: g is connected, has two or
    more vertices, and no edge is a bridge (label 0) or forms a cut with
    another (equal labels)."""
    if g.n < 2 or not is_connected(g):
        return False
    labels = cut_labels(g)
    return 0 not in labels and len(set(labels)) == len(labels)


def _color_3ec(g: Graph) -> EdgeColoring:
    """:func:`color_3ec` for a caller that has checked its preconditions."""
    h = max_cut_bipartite_subgraph(g)
    if not is_connected(h) or bridges(h):
        raise InternalError(
            "max-cut spanning subgraph is not 2-edge-connected; the local "
            "maximality argument failed"
        )
    # Lifting keeps every certificate of h's coloring, so one strong check on
    # g verifies both steps. It implies the proper connectivity that
    # lift_spanning_coloring checks, so the lift here runs no check of its own.
    c = _lift(g, _orientation_coloring(h))
    check = has_strong_property(g, c)
    if not check.ok:
        raise InternalError(
            f"lifted coloring missed the strong property at pair {check.failing_pair}"
        )
    return c


# -- 2-connected: three colors always suffice ------------------------------------


def _three_ec_classes(g: Graph) -> list[int]:
    """Class labels: two vertices share one iff no cut of at most two edges
    separates them (and they share a component).

    By :func:`cut_labels`, those cuts are the bridges (label 0), the pairs
    with a bridge, and the pairs of equal labels. A pair with a bridge
    separates what the bridge does, and removing every bridge at once
    separates what some bridge does. The edges of one nonzero label and the
    components of g minus them form a cycle: every two of them are a cut, so
    every cycle through one passes through all. So removing the whole class
    separates what its pairs do, and one refinement per label class, the
    zero class included, gives the classes.
    """
    label = [0] * g.n
    comps = connected_components(g)
    for i, comp in enumerate(comps):
        for v in comp:
            label[v] = i

    def refine(cut: tuple[Edge, ...]) -> None:
        h = g.without_edges(cut)
        sub = connected_components(h)
        piece = [0] * g.n
        for j, comp in enumerate(sub):
            for v in comp:
                piece[v] = j
        remap: dict[tuple[int, int], int] = {}
        for v in range(g.n):
            key = (label[v], piece[v])
            label[v] = remap.setdefault(key, len(remap))

    by_label: dict[int, list[Edge]] = {}
    for e, lab in zip(g.edges, cut_labels(g)):
        by_label.setdefault(lab, []).append(e)
    for lab, cut in by_label.items():
        if lab == 0 or len(cut) > 1:
            refine(tuple(cut))
    # canonical labels: ascending by least vertex
    remap2: dict[int, int] = {}
    for v in range(g.n):
        label[v] = remap2.setdefault(label[v], len(remap2))
    return label


def _ring_decoration(g: Graph) -> Optional[EdgeColoring]:
    """Spine colors over the 3-edge-connected quotient, third color at hubs.

    The classes of the decomposition form a quotient multigraph. Chains of
    quotient-degree-2 classes carry spine colors 1/2 oriented away from the
    chain end whose attachment vertex is smaller; direct hub-to-hub edges and
    edges inside branch classes take color 3. A multi-vertex chain class must
    induce a connected bridgeless bipartite subgraph; its strong 2-coloring
    forces the color a traversal ends with (the side of the exit port decides),
    so the spine flips its color across a class only when entry and exit ports
    share a side, and each class coloring is relabeled so traversals mesh with
    the incoming spine color. A branchless quotient is a single cycle, handled
    the same way with a color-3 seam if the parity does not close. Returns
    None when the shape does not apply. No piece is checked; callers must
    verify the result.
    """
    label = _three_ec_classes(g)
    nclasses = max(label) + 1 if label else 0
    qedges = [e for e in g.edges if label[e[0]] != label[e[1]]]
    if not qedges:
        return None
    qinc: list[list[int]] = [[] for _ in range(nclasses)]
    for i, (u, v) in enumerate(qedges):
        qinc[label[u]].append(i)
        qinc[label[v]].append(i)

    members: list[list[int]] = [[] for _ in range(nclasses)]
    for v, lab in enumerate(label):
        members[lab].append(v)

    class_data: dict[int, tuple] = {}

    def class_coloring(ci: int):
        """(host->local map, side lookup, coloring keyed by host ids) of a
        multi-vertex class: its orientation coloring when it induces a
        connected bridgeless bipartite subgraph, else color 3 on its edges
        and no side lookup. Each class is tested once."""
        if ci not in class_data:
            sub, vmap = g.induced(members[ci])
            local = {h: l for l, h in enumerate(vmap)}
            if (
                not sub.m
                or not is_connected(sub)
                or bridges(sub)
                or (bip := bipartition(sub)) is None
            ):
                class_data[ci] = (local, None, _relabel(dict.fromkeys(sub.edges, 3), vmap))
            else:
                base = _orient(sub, bip).assignment
                class_data[ci] = (local, bip.side_of, _relabel(base, vmap))
        return class_data[ci]

    asg: dict[Edge, int] = {}
    branch_set = {ci for ci in range(nclasses) if len(qinc[ci]) != 2}
    for ci in branch_set:
        if len(members[ci]) > 1:
            asg.update(class_coloring(ci)[2])

    def endpoint_in(eid: int, ci: int) -> int:
        u, v = qedges[eid]
        return u if label[u] == ci else v

    def other_end(eid: int, prev_class: int) -> tuple[int, int]:
        u, v = qedges[eid]
        return (v, label[v]) if label[u] == prev_class else (u, label[u])

    def paint(chain: list[int], mids: list[int], closed: bool) -> bool:
        """Color a chain's spine edges and its interior classes; the spine
        color bit flips across a class unless its ports sit on opposite
        sides. False when some interior class does not fit the shape."""
        bits = [0]
        sigmas = []
        for i, mid in enumerate(mids):
            p_in = endpoint_in(chain[i], mid)
            p_out = endpoint_in(chain[(i + 1) % len(chain)], mid)
            if len(members[mid]) == 1:
                bits.append(bits[-1] ^ 1)
                sigmas.append(None)
                continue
            local, side_of, _ = class_coloring(mid)
            if side_of is None:
                return False
            s_in, s_out = side_of(local[p_in]), side_of(local[p_out])
            sigmas.append(s_in ^ 1 ^ bits[-1])
            bits.append(bits[-1] ^ s_in ^ s_out ^ 1)
        for i, eid in enumerate(chain):
            if closed and i == len(chain) - 1 and bits[-1] != bits[0]:
                asg[qedges[eid]] = 3  # parity seam
            else:
                asg[qedges[eid]] = 1 + bits[i]
        for i, mid in enumerate(mids):
            if sigmas[i] is None:
                continue
            _, _, base = class_coloring(mid)
            for e, col in base.items():
                asg[e] = col if sigmas[i] == 0 else 3 - col
        return True

    if not branch_set:
        # quotient is one cycle; follow it edge by edge
        chain = [0]
        mids = []
        prev = label[qedges[0][0]]
        while len(chain) < len(qedges):
            _, cur = other_end(chain[-1], prev)
            mids.append(cur)
            chain.append(next(j for j in qinc[cur] if j != chain[-1]))
            prev = cur
        mids.append(other_end(chain[-1], prev)[1])
        if not paint(chain, mids, closed=True):
            return None
        return EdgeColoring(3, asg) if len(asg) == g.m else None

    seen = [False] * len(qedges)
    for b in sorted(branch_set):
        for e0 in qinc[b]:
            if seen[e0]:
                continue
            start_v = endpoint_in(e0, b)
            chain = [e0]
            mids: list[int] = []
            prev = b
            while True:
                end_v, cur = other_end(chain[-1], prev)
                if cur in branch_set:
                    break
                mids.append(cur)
                chain.append(next(j for j in qinc[cur] if j != chain[-1]))
                prev = cur
            for eid in chain:
                seen[eid] = True
            if len(chain) == 1:
                asg[qedges[e0]] = 3  # direct hub-to-hub edge: a link
                continue
            if start_v == end_v:
                return None  # chain loops back through one vertex
            if start_v > end_v:
                chain.reverse()
                mids.reverse()
            if not paint(chain, mids, closed=False):
                return None
    if len(asg) != g.m:
        return None
    return EdgeColoring(3, asg)


def _two_color_budget(g: Graph) -> int:
    """Node budget of ``color_2connected_3``'s strong two-color search."""
    return max(2_000, min(150_000, 40_000_000 // max(1, g.n * g.m)))


# End colors (first edge, last edge) of the sequences an ear is tried with,
# in order.
_EAR_ENDS = ((1, 2), (2, 1), (1, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (3, 3))


def _ear_colors(length: int, first: int, last: int) -> Optional[list[int]]:
    """The proper sequence of ``length`` >= 2 colors from 1..3 that starts
    with ``first``, ends with ``last`` and takes the smallest fitting color
    at each step between; None when none exists (two equal colors)."""
    if length == 2 and first == last:
        return None
    cols = [first]
    for i in range(1, length - 1):
        avoid = {cols[-1], last} if i == length - 2 else {cols[-1]}
        cols.append(min({1, 2, 3} - avoid))
    return cols + [last]


def _two_connected(g: Graph, chains: list[tuple[int, ...]]) -> bool:
    """Schmidt's test on ``chain_decomposition(g)``: at least 3 vertices, no
    vertex of degree below 2, chains that cover every edge (so no bridge and
    one component) and no cycle among them but the first (no cut vertex)."""
    return (
        g.n >= 3
        and g.min_degree() >= 2
        and sum(len(ch) - 1 for ch in chains) == g.m
        and all(ch[0] != ch[-1] for ch in chains[1:])
    )


def _ear_coloring(g: Graph, chains: list[tuple[int, ...]]) -> EdgeColoring:
    """Strong 3-coloring of a 2-connected graph, ear by ear, after Borozan
    et al. (Discrete Math. 312 (2012) 2550-2560).

    ``chains`` is ``chain_decomposition(g)``. The first chain, a cycle, is
    colored 1, 2, 1, ... with a 3 closing an odd length; a properly colored
    cycle is strong, since the two arcs between a pair leave each end by its
    two edges. Each later chain with an interior is an ear on the graph
    grown so far, and it takes the first sequence of :data:`_EAR_ENDS`
    under which every pair at one of its new vertices has a witness in the
    grown graph; no other pair needs a check, as it keeps its witnesses. An
    ear that no sequence fits raises :class:`InternalError`. Chains of one
    edge add no vertex and take color 1 at the end: witnesses survive added
    edges. So every pair was verified once, in the graph where it appeared.
    """
    cycle, *ears = chains
    asg = _alternating(list(cycle))
    if len(cycle) % 2 == 0:  # odd cycle: the edge back to the start clashes
        asg[_norm(cycle[-2], cycle[-1])] = 3
    grown = list(cycle[:-1])  # vertices in the order they were added
    for ear in ears:
        if len(ear) == 2:
            continue
        new = list(ear[1:-1])
        edges = [_norm(x, y) for x, y in zip(ear, ear[1:])]
        seqs = (_ear_colors(len(edges), first, last) for first, last in _EAR_ENDS)
        asg = _absorb(asg, grown, new, edges, (s for s in seqs if s), 3,
                      lambda h, c, rows: _strong_rows(h, c, rows).ok)
        if asg is None:
            raise InternalError(
                f"no color sequence on the ear {ear} keeps its new vertices' pairs "
                "witnessed — falsifies the ear step"
            )
        grown += new
    for e in g.edges:
        asg.setdefault(e, 1)
    return EdgeColoring(3, asg)


def color_2connected_3(g: Graph) -> EdgeColoring:
    """Verified strong coloring of a 2-connected graph with at most 3 colors.

    Prefers two colors whenever a constructive route or a budgeted exact
    search certifies one; otherwise decorates the 3-edge-connected quotient,
    and when that fails, colors the graph ear by ear (:func:`_ear_coloring`).
    """
    chains = chain_decomposition(g)
    if not _two_connected(g, chains):
        raise PreconditionError("input must be 2-connected")
    if bipartition(g) is not None:
        return strong_2_coloring_bipartite(g)  # 2-connected => bridgeless
    if _three_edge_connected(g) and not g.is_complete():
        return _color_3ec(g)
    try:
        found = exists_pc_coloring(
            g, 2, require_strong=True, budget_nodes=_two_color_budget(g)
        )
        if found is not None:
            return found
    except SearchBudgetExceeded:
        pass  # inconclusive at 2; settle for 3
    deco = _ring_decoration(g)
    if deco is not None and has_strong_property(g, deco).ok:
        return deco
    return _ear_coloring(g, chains)


# -- diameter-3 decomposition ------------------------------------------------------


CASE_THREE_EC = "ThreeEC"
CASE1_SUB11 = "Case1_Sub11"
CASE1_SUB12 = "Case1_Sub12"
CASE2_ODD_CYCLE = "Case2_OddCycle"
CASE2_BIPARTITE = "Case2_Bipartite"

CASE_TAGS = (
    CASE_THREE_EC,
    CASE1_SUB11,
    CASE1_SUB12,
    CASE2_ODD_CYCLE,
    CASE2_BIPARTITE,
)


@dataclass
class Diam3Decomposition:
    """Structural witness behind the two-color construction for diameter 3.

    For the wide-cut case: ``cut`` = (u1u2, v1v2), ``hubs`` = (u1, v1, u2, v2)
    with side ``i`` splitting into common neighbors ("i,0"), u-only
    neighbors ("i,1") and v-only neighbors ("i,2") of its hub pair. For the
    narrow-cut case: ``core`` is the maximal 2-edge-connected bipartite
    subgraph, leftover components being ``singletons`` (one vertex, degree 2)
    and ``pair_components`` (records (x, y, ax, ay): the path ax-x-y-ay with
    both attachments on one side of the core), grouped into ``classes`` by
    attachment pair. ``chain`` records the vertex sets of the growth sequence
    once a colorer has run.
    """

    case_tag: str
    cut: Optional[tuple[Edge, Edge]] = None
    hubs: Optional[tuple[int, int, int, int]] = None
    h1: tuple[int, ...] = ()
    h2: tuple[int, ...] = ()
    q: dict[str, tuple[int, ...]] = field(default_factory=dict)
    matching: tuple[Edge, ...] = ()
    chain: tuple[tuple[int, ...], ...] = ()
    core: Optional[BipartiteSubgraph] = None
    singletons: tuple[int, ...] = ()
    pair_components: tuple[tuple[int, int, int, int], ...] = ()
    classes: tuple[tuple[tuple[int, int], tuple[int, ...]], ...] = ()
    odd_cycle: tuple[int, ...] = ()


def _wide_two_cut(g: Graph) -> Optional[tuple[Edge, Edge, list[list[int]]]]:
    """Lexicographically first 2-edge-cut whose removal leaves two sides >= 3.

    An edge set is a cut exactly when it meets every cycle an even number of
    times, so by the lemma of :func:`cut_labels`, removing {e, f} disconnects
    a connected ``g`` exactly when their labels are equal or one of them is
    0. Each e scans the later f in order and skips the others. On a
    disconnected ``g`` every pair disconnects it, and each e scans every f.
    """
    labels = cut_labels(g) if is_connected(g) else None
    for i, e in enumerate(g.edges):
        for j in range(i + 1, g.m):
            if labels is not None and labels[i] and labels[j] not in (0, labels[i]):
                continue
            f = g.edges[j]
            rest = g.without_edges([e, f])
            comps = connected_components(rest)
            if len(comps) == 1:
                continue
            if len(comps) != 2:
                raise InternalError(
                    "removing two edges from a 2-edge-connected graph left "
                    f"{len(comps)} components"
                )
            if min(len(side) for side in comps) >= 3:
                return e, f, comps
    return None


def _classify_case1(
    g: Graph, e: Edge, f: Edge, comps: list[list[int]]
) -> Diam3Decomposition:
    sub11 = None
    sub12 = None
    for h1_idx, u_edge in ((0, e), (0, f), (1, e), (1, f)):
        h1 = set(comps[h1_idx])
        h2 = set(comps[1 - h1_idx])
        v_edge = f if u_edge == e else e
        u1 = u_edge[0] if u_edge[0] in h1 else u_edge[1]
        u2 = u_edge[0] if u_edge[0] in h2 else u_edge[1]
        v1 = v_edge[0] if v_edge[0] in h1 else v_edge[1]
        v2 = v_edge[0] if v_edge[0] in h2 else v_edge[1]
        qsets: dict[str, tuple[int, ...]] = {}
        for i, (side, ui, vi) in enumerate(((h1, u1, v1), (h2, u2, v2)), start=1):
            qi = side - {ui, vi}
            nu = set(g.adj[ui]) & qi
            nv = set(g.adj[vi]) & qi
            q0 = nu & nv
            qsets[f"{i},0"] = tuple(sorted(q0))
            qsets[f"{i},1"] = tuple(sorted(nu - q0))
            qsets[f"{i},2"] = tuple(sorted(nv - q0))
            if qi - (nu | nv):
                raise InternalError(
                    f"vertex {min(qi - (nu | nv))} sits beside neither hub of "
                    "its side — contradicts diameter 3"
                )
        if qsets["2,2"]:
            continue
        dec = Diam3Decomposition(
            case_tag="",
            cut=(_norm(u1, u2), _norm(v1, v2)),
            hubs=(u1, v1, u2, v2),
            h1=tuple(sorted(h1)),
            h2=tuple(sorted(h2)),
            q=qsets,
        )
        if not qsets["1,2"] and sub11 is None:
            dec.case_tag = CASE1_SUB11
            sub11 = dec
        elif not qsets["2,1"] and sub12 is None:
            dec.case_tag = CASE1_SUB12
            dec.matching = maximum_matching(qsets["1,1"], qsets["1,2"], g)
            sub12 = dec
    if sub11 is not None:
        return sub11
    if sub12 is not None:
        return sub12
    raise InternalError(
        "no hub labeling empties the far corner sets — contradicts the "
        "diameter-3 case analysis"
    )


def _classify_case2(g: Graph) -> Diam3Decomposition:
    # classify_diam3 has taken the odd cycles, the only 2-connected graphs
    # without an even cycle. The core search looks for the seed even cycle
    # itself.
    try:
        core = maximal_2ec_bipartite_subgraph(g)
    except PreconditionError:  # no even cycle
        raise InternalError(
            "2-connected graph without even cycles must be a cycle"
        ) from None
    vcore = set(core.vertices)
    core_edges = set(core.edges)
    for v in range(g.n):
        if v not in vcore and g.degree(v) >= 3:
            raise InternalError(
                f"degree-{g.degree(v)} vertex {v} escaped the bipartite core — "
                "contradicts its maximality"
            )
    for u, v in g.edges:
        if u in vcore and v in vcore and (u, v) not in core_edges:
            same_side = (u in core.side_u) == (v in core.side_u)
            if not same_side:
                raise InternalError(
                    f"cross-side edge {(u, v)} outside the core — contradicts "
                    "its maximality"
                )

    singles: list[int] = []
    pairs: list[tuple[int, int, int, int]] = []
    outside = [v for v in range(g.n) if v not in vcore]
    if outside:
        sub, vmap = g.induced(outside)
        for comp in connected_components(sub):
            verts = sorted(vmap[i] for i in comp)
            if len(verts) == 1:
                v = verts[0]
                if g.degree(v) != 2:
                    raise InternalError(f"stray vertex {v} must have degree 2")
                singles.append(v)
            elif len(verts) == 2:
                x, y = verts
                if g.degree(x) != 2 or g.degree(y) != 2:
                    raise InternalError(f"stray pair {(x, y)} must have degree 2")
                ax = next(w for w in g.adj[x] if w != y)
                ay = next(w for w in g.adj[y] if w != x)
                if ax == ay:
                    raise InternalError(
                        f"stray pair {(x, y)} hangs on one vertex — contradicts "
                        "2-connectivity"
                    )
                if (ax in core.side_u) != (ay in core.side_u):
                    raise InternalError(
                        f"stray pair {(x, y)} attaches across sides — its path "
                        "would extend the core"
                    )
                pairs.append((x, y, ax, ay))
            else:
                raise InternalError(
                    f"leftover component {verts} has more than two vertices — "
                    "a wide cut was missed"
                )
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, (x, y, ax, ay) in enumerate(pairs):
        groups.setdefault(_norm(ax, ay), []).append(idx)
    return Diam3Decomposition(
        case_tag=CASE2_BIPARTITE,
        core=core,
        singletons=tuple(singles),
        pair_components=tuple(pairs),
        classes=tuple((key, tuple(idx)) for key, idx in sorted(groups.items())),
    )


def classify_diam3(g: Graph) -> Diam3Decomposition:
    """Case analysis of a 2-connected noncomplete diameter-3 graph.

    Precedence: 3-edge-connected; else the even-cycle-free regime (an odd
    cycle); else a 2-edge-cut with both sides >= 3 (hub labeling normalized
    so the far corner sets vanish, preferring the sub-case with empty "1,2");
    else the narrow-cut regime (bipartite core with stray singletons/pairs).
    """
    if not is_connected(g):
        raise PreconditionError("input must be connected")
    if g.is_complete():
        raise PreconditionError("input must be noncomplete")
    if not _two_connected(g, chain_decomposition(g)):
        raise PreconditionError("input must be 2-connected")
    d = diameter(g)
    if d != 3:
        raise PreconditionError(f"diameter is {d}, need exactly 3")
    if _three_edge_connected(g):
        return Diam3Decomposition(case_tag=CASE_THREE_EC)
    if g.n % 2 and all(g.degree(v) == 2 for v in range(g.n)):
        # g is 2-connected, so it has no even cycle exactly when it is an odd
        # cycle: a 2-connected graph that is not a cycle contains a theta, and
        # two of a theta's three paths have the same parity and close an even
        # cycle.
        order = [0, g.adj[0][0]]
        while len(order) < g.n:
            u, p = order[-1], order[-2]
            order.append(next(w for w in g.adj[u] if w != p))
        return Diam3Decomposition(case_tag=CASE2_ODD_CYCLE, odd_cycle=tuple(order))
    wide = _wide_two_cut(g)
    if wide is not None:
        return _classify_case1(g, *wide)
    return _classify_case2(g)


# -- growth along degree->=2 additions ---------------------------------------------


def _stall_error(g: Graph, cur: set[int]) -> InternalError:
    v = min(set(range(g.n)) - cur)
    notes = []
    try:
        for path in two_fan(g, v, cur):
            w = next(x for x in reversed(path) if x not in cur)
            deg_in = sum(1 for z in g.adj[w] if z in cur)
            notes.append(f"fan path {path} lands on {w} with {deg_in} edges inside")
    except GraphError as exc:  # fan unavailable; report the raw stall
        notes.append(f"no 2-fan from {v}: {exc}")
    return InternalError(
        "growth stalled: no outside vertex has 2 edges into the current "
        f"{len(cur)}-vertex subgraph ({'; '.join(notes)})"
    )


def grow_by_degree2_additions(
    g: Graph,
    g0: Iterable[int],
    c0: EdgeColoring,
    chain_out: Optional[list[tuple[int, ...]]] = None,
) -> EdgeColoring:
    """Extend a verified 2-coloring of an induced subgraph to all of ``g``.

    Repeatedly absorbs the smallest outside vertex with >= 2 edges into the
    current set, keeping previous colors frozen and coloring the new edges by
    the four quick tries. A step that no try passes raises
    :class:`InternalError` naming the vertex. ``c0`` is keyed by original
    vertex ids and must cover exactly the induced edges of ``g0``.
    """
    current = sorted(set(g0))
    if len(current) < 2:
        raise PreconditionError("seed needs at least two vertices")
    sub, vmap = g.induced(current)
    if c0.assignment.keys() != _relabel(dict.fromkeys(sub.edges), vmap).keys():
        raise PreconditionError("seed coloring must cover exactly the induced edges")
    local = _relabel(c0.assignment, {v: i for i, v in enumerate(vmap)})
    ok, pair = is_proper_connected(sub, EdgeColoring(2, local))
    if not ok:
        raise PreconditionError(f"seed coloring leaves {tuple(vmap[t] for t in pair)} unconnected")
    c, chain = _grow(g, current, c0.assignment)
    if chain_out is not None:
        chain_out.extend(chain)
    return c


def _grow(
    g: Graph, g0: Iterable[int], asg: dict[Edge, int]
) -> tuple[EdgeColoring, tuple[tuple[int, ...], ...]]:
    """:func:`grow_by_degree2_additions` without its seed check; also returns
    the chain of vertex sets. ``asg`` colors the edges ``g`` induces on
    ``g0``. Each step checks only its new vertex's pairs, which is sound only
    when ``asg`` is proper-connecting, so that old pairs keep their paths.
    :func:`color_diam3` passes seeds nobody checked, and its final check on
    all of ``g`` is what certifies the result."""
    cur = set(g0)
    chain = [tuple(sorted(cur))]
    while len(cur) < g.n:
        add = next(
            (
                v
                for v in range(g.n)
                if v not in cur and sum(1 for w in g.adj[v] if w in cur) >= 2
            ),
            None,
        )
        if add is None:
            raise _stall_error(g, cur)
        edges = sorted(_norm(add, w) for w in g.adj[add] if w in cur)
        asg = _absorb(asg, cur, [add], edges, _quick_tries(len(edges)), 2, _proper_rows)
        if asg is None:
            raise InternalError(
                f"no quick try absorbs vertex {add} into the frozen coloring of "
                f"{len(cur)} vertices — falsifies the growth step"
            )
        cur.add(add)
        chain.append(tuple(sorted(cur)))
    return EdgeColoring(2, asg), tuple(chain)


# -- diameter-3 colorers -------------------------------------------------------------


def _alternating(walk: list[int]) -> dict[Edge, int]:
    """Colors 1, 2, 1, ... along a walk's edges, keyed by host ids."""
    return {_norm(x, y): 1 + (i & 1) for i, (x, y) in enumerate(zip(walk, walk[1:]))}


def _bipartite_coloring(labels: Sequence[int], edges: Iterable[Edge]) -> dict[Edge, int]:
    """:func:`_orientation_coloring` of the graph on the host ``edges``, its
    vertices numbered in the order of ``labels`` (the orientation depends on
    it), keyed by host ids; unchecked."""
    loc = {v: i for i, v in enumerate(labels)}
    h = Graph(len(labels), [(loc[x], loc[y]) for x, y in edges])
    return _relabel(_orientation_coloring(h).assignment, labels)


def _strong_book(pages: list[tuple[int, ...]]) -> dict[Edge, int]:
    """Strong 2-coloring of a book, keyed by host ids: two or more paths
    ("pages") of one parity between the two ends of the first page, with
    disjoint interiors, so a bridgeless bipartite graph."""
    labels = [pages[0][0], pages[0][-1], *(v for p in pages for v in p[1:-1])]
    return _bipartite_coloring(labels, [e for p in pages for e in zip(p, p[1:])])


def _seed_book(dec: Diam3Decomposition) -> tuple[list[int], dict[Edge, int]]:
    """Seed for the empty-"1,2" sub-case: hub stars plus the cut edges.

    The scaffold (u1 and v1 starred onto the common neighbors, same on the
    other side, joined by the cut) is a bipartite generalized theta, hence
    bridgeless, and spans the seed's vertex set.
    """
    u1, v1, u2, v2 = dec.hubs
    q10, q20 = dec.q["1,0"], dec.q["2,0"]
    if not q10 or not q20:
        raise InternalError(
            "hub pair shares no neighbor on one side — that hub would be a "
            "cut vertex"
        )
    verts = sorted({u1, v1, u2, v2, *q10, *q20})
    scaffold = (
        [(h, w) for h in (u1, v1) for w in q10]
        + [(h, w) for h in (u2, v2) for w in q20]
        + [(u1, u2), (v1, v2)]
    )
    return verts, _bipartite_coloring(verts, scaffold)


def _seed_matched(dec: Diam3Decomposition) -> tuple[list[int], dict[Edge, int]]:
    """Seed for the matched sub-case: two hub books joined by the cut.

    The far book has a page u2-w-v2 per common neighbor w, the near book a
    page u1-x-y-v1 per matching edge xy. Each book with at least two pages is
    strong-2-colored; when both are, the cut edges take colors 1 and 2, which
    is safe because strong colorings offer either end color at the junctions.
    Everything left over — the page of a one-page book plus both cut edges —
    is one walk colored 1, 2, 1, ...: u2,u1,x,y,v1,v2 when the matching has
    one edge, u1,u2,w,v2,v1 when "2,0" is (w,), and the closed walk
    u1,x,y,v1,v2,w,u2,u1 when both hold. A properly colored ear on a strongly
    colored graph keeps every pair connected: an interior vertex walks to the
    end a and arrives by some color c; of a's two paths to t with distinct
    first colors, one avoids c.
    """
    u1, v1, u2, v2 = dec.hubs
    q20 = dec.q["2,0"]
    if not q20:
        raise InternalError("far side lost its common neighbors")
    q11 = set(dec.q["1,1"])
    near = [(u1, x, y, v1) if x in q11 else (u1, y, x, v1) for x, y in dec.matching]
    far = [(u2, w, v2) for w in q20]
    verts = sorted({u1, v1, u2, v2, *q20, *(v for e in dec.matching for v in e)})
    asg: dict[Edge, int] = {}
    for book in (far, near):
        if len(book) >= 2:
            asg.update(_strong_book(book))
    if len(near) == 1 and len(far) == 1:
        asg.update(_alternating([*near[0], *far[0][::-1], u1]))
    elif len(near) == 1:
        asg.update(_alternating([u2, *near[0], v2]))
    elif len(far) == 1:
        asg.update(_alternating([u1, *far[0], v1]))
    else:
        asg[_norm(u1, u2)] = 1
        asg[_norm(v1, v2)] = 2
    return verts, asg


def _color_case1(g: Graph, dec: Diam3Decomposition) -> EdgeColoring:
    if dec.case_tag == CASE1_SUB11 or not dec.matching:
        verts, asg = _seed_book(dec)
    else:
        verts, asg = _seed_matched(dec)
    seed = set(verts)
    for u, v in g.edges:
        if u in seed and v in seed:
            asg.setdefault((u, v), 1)  # chords: witnesses survive added edges
    c, dec.chain = _grow(g, verts, asg)
    return c


def _color_case2_bipartite(g: Graph, dec: Diam3Decomposition) -> EdgeColoring:
    core = dec.core
    assert core is not None
    asg = _bipartite_coloring(sorted(core.vertices), core.edges)
    vcore = set(core.vertices)
    covered_now = set(asg)
    for u, v in g.edges:
        if u in vcore and v in vcore and (u, v) not in covered_now:
            asg[(u, v)] = 2  # same-side chords
    for (_, _), idxs in dec.classes:
        comps = [dec.pair_components[i] for i in idxs]
        if len(comps) >= 2:
            asg.update(_strong_book([(ax, x, y, ay) for x, y, ax, ay in comps]))
        else:
            x, y, ax, ay = comps[0]
            asg[_norm(ax, x)] = 1
            asg[(x, y)] = 2
            asg[_norm(y, ay)] = 1
    if not dec.singletons:
        return EdgeColoring(2, asg)
    body = sorted(set(range(g.n)) - set(dec.singletons))
    full, dec.chain = _grow(g, body, asg)
    return full


def color_diam3(g: Graph) -> EdgeColoring:
    """Verified 2-coloring of a 2-connected noncomplete diameter-3 graph.

    Dispatches on :func:`classify_diam3`. Every piece is built unchecked,
    and the returned coloring gets one whole-graph check: the strong check of
    :func:`_color_3ec`, or else the proper-connection check here. A failed
    construction raises :class:`InternalError` (a falsified proof step).
    """
    dec = classify_diam3(g)
    if dec.case_tag == CASE_THREE_EC:
        return _color_3ec(g)  # classify_diam3 checked noncomplete and lambda >= 3
    if dec.case_tag in (CASE1_SUB11, CASE1_SUB12):
        c = _color_case1(g, dec)
    elif dec.case_tag == CASE2_ODD_CYCLE:
        c = EdgeColoring(2, _alternating([*dec.odd_cycle, dec.odd_cycle[0]]))
    else:
        c = _color_case2_bipartite(g, dec)
    # the certificate: no seed was checked before it grew (see _grow)
    ok, pair = is_proper_connected(g, c)
    if not ok:
        raise InternalError(
            f"constructed coloring leaves pair {pair} unconnected "
            f"(case {dec.case_tag})"
        )
    return c
