"""Edge colorings and properly colored connectivity.

A coloring assigns each edge a color in ``1..k``. A path is *proper* when no
two consecutive edges share a color. The checks here answer, for a fixed
coloring: does a proper walk exist, does a proper path exist (with a
certificate), is the whole graph properly connected, and does it satisfy the
strong variant (two proper paths per pair whose first edges differ in color
and whose last edges differ in color).

Every search reads a coloring in one form, the view: the color vector indexed
like ``g.edges`` plus the graph's one cached incidence
``v -> ((neighbor, edge index), ...)``. A public check turns its
``EdgeColoring`` into that vector once; the exact solver colors edges by the
same index, so its leaves are views with no conversion. Every proper-walk
question runs through one BFS, ``_walk_arrivals``, over (vertex, last color)
states kept as one bitmask per vertex; color 0 marks an uncolored edge that
any color may follow, which is how the exact solver screens partial colorings
with the same loop.

The walk tree settles pairs first. The all-pairs and strong checks run, per
source, the same BFS with each state's parent kept, ``_walk_tree``, which
also marks, as it adds each state, whether the walk to it repeats a vertex;
a walk that repeats none is a proper path, and so is each of its prefixes. A
pair with such a path is settled. The strong check needs two whose colors
differ at both ends, and it reads them from the trees of both ends of a
pair, since a path reversed is a path; one linear rule, ``_witness``, picks
them from any list of paths. Only the pairs the trees leave open are
searched, in both checks by the one query below.

Every path search is one query, ``_one_path``: a proper s-t path whose
first color avoids one given color and whose last color avoids another (or
neither). A depth-first search over simple paths, ``_dfs_path``, tries it
first. It prunes with walk reachability toward the target: a proper walk
reversed is a proper walk, so one BFS *from* the target gives, per vertex, the
colors a walk can arrive by, and a step into ``w`` by color ``col`` can still
finish exactly when some arrival color at ``w`` differs from ``col``. The
all-pairs checks search each pair from its larger end, so the sweep's BFS from
the smaller end is that prune. The DFS runs under a small step budget, and a
polynomial fallback settles whatever it leaves open: Edmonds' blossom search
(``graph._blossom_search``, shared with the diameter-3 core's ear search) on
Szeider's gadget graph, where a proper s-t path is an augmenting path and an
end color is forbidden by where the end's pendant hangs. So every query
settles. The strong check needs at most three queries for a pair the trees
leave open, two when a tree gave one path, each with at most one end color
forbidden; the gadget analysis needs one per escape route. Certificates are
always validated against the coloring before being returned: a searched path
edge by edge, and a path read off a walk tree step by step, where each tree
state's step (its edge, its color and the change of color from its parent
state) is checked once, the first time a certificate uses it, since every
later walk through that state takes the same step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import (
    Edge,
    Graph,
    InternalError,
    PreconditionError,
    _blossom_search,
    _norm,
    connected_components,
)


class ColoringError(ValueError):
    """Malformed edge coloring (bad palette, missing or alien edges)."""


@dataclass(frozen=True)
class EdgeColoring:
    """Palette size plus a total assignment edge -> color (1-based)."""

    k: int
    assignment: dict[Edge, int]

    def __post_init__(self):
        norm = {}
        for e, col in self.assignment.items():
            u, v = e
            norm[_norm(u, v)] = col
        object.__setattr__(self, "assignment", norm)

    def color(self, u: int, v: int) -> int:
        return self.assignment[_norm(u, v)]

    def validate(self, g: Graph) -> None:
        k = self.k
        if type(k) is not int:
            raise ColoringError(f"palette size must be an integer, got {k!r}")
        if k < 0:
            raise ColoringError("palette size must be nonnegative")
        if self.assignment.keys() != g.edge_index().keys():
            missing = set(g.edges) - set(self.assignment)
            alien = set(self.assignment) - set(g.edges)
            raise ColoringError(
                f"assignment mismatch: missing={sorted(missing)[:4]} "
                f"alien={sorted(alien)[:4]}"
            )
        cols = self.assignment.values()
        # One pass in C for the common case; the loop names an offender.
        if not cols or (set(map(type, cols)) == {int} and 1 <= min(cols) and max(cols) <= k):
            return
        for e, col in self.assignment.items():
            if type(col) is not int:  # bools and floats too
                raise ColoringError(f"edge {e} has non-integer color {col!r}")
            if not (1 <= col <= k):
                raise ColoringError(f"edge {e} has color {col} outside 1..{k}")

    def colors_used(self) -> int:
        return len(set(self.assignment.values()))

    def as_vector(self, g: Graph) -> tuple[int, ...]:
        return tuple(map(self.assignment.__getitem__, g.edges))

    @classmethod
    def from_vector(cls, g: Graph, k: int, vec: Sequence[int]) -> "EdgeColoring":
        if len(vec) != g.m:
            raise ColoringError(f"vector length {len(vec)} != m={g.m}")
        # The keys are g.edges, already normalized: skip __post_init__.
        c = object.__new__(cls)
        object.__setattr__(c, "k", k)
        object.__setattr__(c, "assignment", dict(zip(g.edges, vec)))
        return c


@dataclass(frozen=True)
class ProperPathCertificate:
    """A vertex path together with its edge colors."""

    path: tuple[int, ...]
    colors: tuple[int, ...]

    @property
    def start_color(self) -> int:
        return self.colors[0]

    @property
    def end_color(self) -> int:
        return self.colors[-1]

    def validate(self, g: Graph, c: EdgeColoring) -> None:
        p = self.path
        if len(p) < 2:
            raise InternalError("certificate path must traverse an edge")
        if len(set(p)) != len(p):
            raise InternalError(f"certificate path revisits a vertex: {p}")
        if len(self.colors) != len(p) - 1:
            raise InternalError("certificate color count mismatch")
        for i, (a, b) in enumerate(zip(p, p[1:])):
            if not g.has_edge(a, b):
                raise InternalError(f"certificate uses non-edge ({a},{b})")
            if c.color(a, b) != self.colors[i]:
                raise InternalError(f"certificate color mismatch at ({a},{b})")
        for x, y in zip(self.colors, self.colors[1:]):
            if x == y:
                raise InternalError(f"certificate path is not proper: {self.colors}")


@dataclass(frozen=True)
class StrongWitness:
    """Two proper paths with distinct start colors and distinct end colors."""

    p1: ProperPathCertificate
    p2: ProperPathCertificate

    def validate(self, g: Graph, c: EdgeColoring) -> None:
        self.p1.validate(g, c)
        self.p2.validate(g, c)
        if self.p1.start_color == self.p2.start_color:
            raise InternalError("strong witness start colors coincide")
        if self.p1.end_color == self.p2.end_color:
            raise InternalError("strong witness end colors coincide")


def certificate_from_path(
    g: Graph, c: EdgeColoring, path: Sequence[int]
) -> ProperPathCertificate:
    """A validated certificate for ``path`` under ``c``, a coloring of ``g``.

    Builds and checks in one pass, reading each edge's color once: a path
    shorter than one edge, one that revisits a vertex, one through a pair
    ``c`` does not color (a non-edge of ``g``) and one that is not proper are
    rejected as :meth:`ProperPathCertificate.validate` rejects them.
    """
    path = tuple(path)
    if len(path) < 2:
        raise InternalError("certificate path must traverse an edge")
    if len(set(path)) != len(path):
        raise InternalError(f"certificate path revisits a vertex: {path}")
    get = c.assignment.get
    cols = []
    last = None
    for a, b in zip(path, path[1:]):
        col = get((a, b) if a < b else (b, a))
        if col is None:
            raise InternalError(f"certificate uses non-edge ({a},{b})")
        if col == last:
            raise InternalError(f"certificate path is not proper: {tuple(cols) + (col,)}")
        cols.append(col)
        last = col
    return ProperPathCertificate(path, tuple(cols))


# -- one colored view per check ------------------------------------------------


Incidence = Sequence[Sequence[tuple[int, int]]]


def _incidence(g: Graph) -> Incidence:
    """``inc[v]`` = ((neighbor, index in g.edges), ...) in ascending neighbor
    order; cached on the graph."""
    try:
        return g._cache["incidence"]
    except KeyError:
        eidx = g.edge_index()
        inc = tuple(
            tuple((w, eidx[_norm(v, w)]) for w in g.adj[v]) for v in range(g.n)
        )
        g._cache["incidence"] = inc
        return inc


class _ColorView:
    """One coloring of ``g`` as the searches read it: ``colors[i]`` colors
    ``g.edges[i]``, and ``inc`` is the graph's one cached incidence, so a
    step from ``v`` to ``w`` by edge ``i`` has color ``colors[i]``."""

    __slots__ = ("g", "colors", "inc", "_arrivals", "_gadget")

    def __init__(self, g: Graph, colors: Sequence[int]):
        self.g = g
        self.colors = colors
        self.inc = _incidence(g)
        self._arrivals: dict[int, list[int]] = {}
        self._gadget: Optional[_Gadget] = None

    def arrivals(self, t: int) -> list[int]:
        """``_walk_arrivals`` from ``t`` over the whole graph, cached: the
        prune of every path search that ends at ``t``."""
        try:
            return self._arrivals[t]
        except KeyError:
            arr = self._arrivals[t] = _walk_arrivals(self.inc, self.colors, t)
            return arr

    def gadget(self) -> "_Gadget":
        """Szeider's gadget graph of this view, built on first use."""
        if self._gadget is None:
            self._gadget = _Gadget(self)
        return self._gadget


# -- proper walks -------------------------------------------------------------


def _walk_arrivals(
    inc: Incidence,
    colors: Sequence[int],
    source: int | Sequence[tuple[int, int]],
    target: int = -1,
    arr: Optional[list[int]] = None,
) -> list[int]:
    """BFS over (vertex, last color) states of proper walks from ``source``.

    ``inc[v]`` lists (neighbor, edge index) and ``colors[i]`` is edge i's
    color; color 0 is an uncolored edge, which any color may follow and
    precede. Returns ``arr`` with bit ``col`` of ``arr[w]`` set when some
    proper walk from the source arrives at ``w`` by an edge of color ``col``;
    the source starts with bit 0 (nothing to differ from yet), so
    ``arr[w] != 0`` exactly when ``w`` is reachable. ``source`` may instead
    list start states (vertex, last color), and ``arr``, a closed result of
    an earlier call, is extended in place by the states these reach. Given a
    ``target``, the search stops as soon as a walk arrives there (a start
    state does not count). One FIFO list, read while it grows, holds the
    states in breadth-first order, so an early stop leaves the same array as
    a search that keeps one frontier list per level.
    """
    if arr is None:
        arr = [0] * len(inc)
    if type(source) is int:
        arr[source] |= 1
        queue = [(source, 0)]
    else:
        queue = []
        for v, last in source:
            bit = 1 << last
            if not arr[v] & bit:
                arr[v] |= bit
                queue.append((v, last))
    for v, last in queue:
        for w, i in inc[v]:
            col = colors[i]
            if col and col == last:
                continue
            bit = 1 << col
            if not arr[w] & bit:
                arr[w] |= bit
                if w == target:
                    return arr
                queue.append((w, col))
    return arr


def _walk_tree(
    inc: Incidence, colors: Sequence[int], source: int
) -> tuple[list[int], list[tuple[int, int]], list[int], list[list[int]], list[int]]:
    """The BFS of :func:`_walk_arrivals` from ``source`` that also keeps each
    state's parent, so that a proper walk to any state can be read back, and
    marks the walks that are paths.

    Returns ``(arr, states, parent, paths, first)``: ``arr`` as
    :func:`_walk_arrivals` returns it, ``states`` the (vertex, last color)
    states in BFS order with the source's ``(source, 0)`` first,
    ``parent[j]`` the index of the state that state ``j`` was reached from
    (-1 for the source), ``paths[v]`` the states at ``v``, in BFS order, whose
    tree walk repeats no vertex, and ``first[j]`` the color by which the walk
    to state ``j`` leaves the source. The parents from a state back to the
    source spell a proper walk, reversed; when it repeats no vertex it is a
    proper path. A new state's walk is a path when its parent's walk is one
    and does not pass through the new vertex; a state that reaches its vertex
    first (``arr`` had no bit there) passes that second test for free, since
    every state on its parent's walk comes earlier. Only the path checks
    build this tree: the solver's prune keeps the leaner
    :func:`_walk_arrivals`, which a parent list would slow by about 8%. The
    all-pairs check drops each tree after its source's row; the strong check
    also reads a pair's far end's tree, so it keeps the trees of later
    sources until their own rows.
    """
    arr = [0] * len(inc)
    arr[source] = 1
    states = [(source, 0)]
    parent = [-1]
    first = [0]
    simple = [True]
    paths: list[list[int]] = [[] for _ in inc]
    paths[source].append(0)
    for j, (v, last) in enumerate(states):
        fj, sj = first[j], simple[j]
        for w, i in inc[v]:
            col = colors[i]
            if col and col == last:
                continue
            bit = 1 << col
            had = arr[w]
            if not had & bit:
                arr[w] = had | bit
                ok = sj
                if ok and had:
                    q = j
                    while q >= 0 and states[q][0] != w:
                        q = parent[q]
                    ok = q < 0
                if ok:
                    paths[w].append(len(states))
                states.append((w, col))
                parent.append(j)
                first.append(fj or col)
                simple.append(ok)
    return arr, states, parent, paths, first


def _tree_path(
    states: Sequence[tuple[int, int]], parent: Sequence[int], j: int
) -> tuple[int, ...]:
    """The vertices of the tree walk to state ``j``, from its vertex back to
    the source."""
    walk = []
    while j >= 0:
        walk.append(states[j][0])
        j = parent[j]
    return tuple(walk)


def proper_walk_reach(g: Graph, c: EdgeColoring, source: int) -> set[int]:
    """Vertices reachable from ``source`` along a properly colored walk.

    Walks may repeat vertices and edges. The source is always included.
    """
    arr = _walk_arrivals(_incidence(g), c.as_vector(g), source)
    return {w for w, bits in enumerate(arr) if bits}


def proper_walk_exists(g: Graph, c: EdgeColoring, u: int, v: int) -> bool:
    """True when a properly colored walk joins ``u`` and ``v``.

    Sound as a *negative* filter for paths: a missing walk implies a missing
    path. A present walk does not imply a path (vertex repetition may be
    essential to the walk), so positives must still be confirmed.
    """
    if u == v:
        return True
    return _walk_arrivals(_incidence(g), c.as_vector(g), u, v)[v] != 0


# -- proper paths -------------------------------------------------------------


# The DFS settles nearly every query within this many steps; a query that
# needs more goes to the matching below, which is polynomial.
_DFS_BUDGET = 2_000


class _Overrun(Exception):
    """The DFS spent ``_DFS_BUDGET`` steps without settling its query."""


def _dfs_path(
    view: _ColorView,
    s: int,
    t: int,
    arr: Sequence[int],
    first_not: int = 0,
    last_not: int = 0,
) -> Optional[tuple[int, ...]]:
    """One proper s->t path whose first color is not ``first_not`` and whose
    last color is not ``last_not`` (0 forbids nothing), or None.

    A depth-first search over simple paths from ``s``. ``arr`` is
    ``_walk_arrivals`` run from ``t``: a proper walk reversed is a proper walk,
    so a step into ``w`` by color ``col`` can still finish exactly when some
    walk from ``t`` arrives at ``w`` by another color, ``arr[w] & ~(1 << col)``;
    every other step is pruned. Raises :class:`_Overrun` once it has entered
    more than ``_DFS_BUDGET`` vertices.
    """
    if not arr[s]:
        return None
    budget = _DFS_BUDGET
    inc, colors = view.inc, view.colors
    onpath = [False] * len(inc)
    onpath[s] = True
    path = [s]
    # one (neighbor iterator, color of the edge in) frame per path vertex; the
    # source's "edge in" is the color its first edge must avoid
    stack = [(iter(inc[s]), first_not)]
    steps = 1  # vertices entered, the source included
    if steps > budget:
        raise _Overrun
    while stack:
        it, last = stack[-1]
        for w, i in it:
            col = colors[i]
            if col == last:
                continue
            if w == t:
                if col != last_not:
                    return (*path, t)
            elif not onpath[w] and arr[w] & ~(1 << col):
                break
        else:
            stack.pop()
            onpath[path.pop()] = False
            continue
        steps += 1
        if steps > budget:
            raise _Overrun
        onpath[w] = True
        path.append(w)
        stack.append((iter(inc[w]), col))
    return None


def _one_path(
    view: _ColorView,
    s: int,
    t: int,
    arr: Sequence[int],
    first_not: int = 0,
    last_not: int = 0,
) -> Optional[tuple[int, ...]]:
    """One proper s->t path, or None; arguments as in :func:`_dfs_path`.

    The DFS runs under ``_DFS_BUDGET`` steps; past that the matching decides.
    """
    try:
        return _dfs_path(view, s, t, arr, first_not, last_not)
    except _Overrun:
        return _matching_path(view, s, t, first_not, last_not)


# -- the matching fallback -----------------------------------------------------
#
# Szeider's reduction of properly colored paths to perfect matching ("Finding
# paths in graphs avoiding forbidden transitions", Discrete Appl. Math. 126,
# 2003). Vertex x with c distinct incident colors becomes a gadget: one node
# x_i per color i, c-2 nodes y and two nodes z, z' joined by an edge, every y,
# z and z' adjacent to every x_i (c=1: just x_1-z). An edge uv of color i
# becomes u_i-v_i. A perfect matching of a gadget either keeps all its x_i
# inside or matches z-z' and leaves exactly two x_i of distinct colors to
# graph edges, which is a proper pass through x. With one exposed pendant r_s
# on s's z/z' and one r_t on t's, the matched graph edges of a perfect
# matching form a proper s-t path (plus proper cycles), and back. So a proper
# s-t path exists iff Edmonds' search from r_s, against the gadgets' internal
# perfect matching, reaches z_t or z'_t as an outer vertex; with r_t present
# the search augments, and the new matching spells out the path. A pendant hung on x_a alone instead takes
# x_a out of the path: z-z' must then match, and the one x_i left for a
# graph edge has i != a, so the path's color at that end is not a.


class _Gadget:
    """Szeider's gadget graph of a colored view with its base matching."""

    __slots__ = ("adj", "mate", "owner", "xs", "ends")

    def __init__(self, view: _ColorView):
        adj: list[list[int]] = []
        owner: list[int] = []  # graph vertex of each node
        self.xs: list[dict[int, int]] = []  # xs[v][color] = node x_color of v
        self.ends: list[tuple[int, ...]] = []  # (z, z') of v; (z,) when c=1

        def nodes(v: int, count: int) -> list[int]:
            first = len(adj)
            adj.extend([] for _ in range(count))
            owner.extend([v] * count)
            return list(range(first, first + count))

        colors = view.colors
        mate: list[int] = []
        for v, row in enumerate(view.inc):
            cols = sorted({colors[i] for _, i in row})
            xs = nodes(v, len(cols))
            others = nodes(v, len(cols))  # the y's, then z and z'
            mate.extend(others)
            mate.extend(xs)
            for x in xs:
                adj[x].extend(others)
                for o in others:
                    adj[o].append(x)
            if len(others) >= 2:
                adj[others[-2]].append(others[-1])
                adj[others[-1]].append(others[-2])
            self.xs.append(dict(zip(cols, xs)))
            self.ends.append(tuple(others[-2:]))
        for (u, v), col in zip(view.g.edges, colors):
            a, b = self.xs[u][col], self.xs[v][col]
            adj[a].append(b)
            adj[b].append(a)
        self.adj = tuple(map(tuple, adj))
        self.mate = mate
        self.owner = owner

    def with_pendants(
        self, *ends: tuple[int, int]
    ) -> tuple[list[tuple[int, ...]], list[int]]:
        """Adjacency and base matching plus one exposed pendant per (vertex,
        color) in ``ends``; pendant i is node ``len(adj) + i``. It hangs on
        the vertex's x_color, so that the path avoids that color there, or on
        its z and z' when the vertex has no edge of that color (color 0)."""
        adj = list(self.adj)
        for v, col in ends:
            r = len(adj)
            hooks = (self.xs[v][col],) if col in self.xs[v] else self.ends[v]
            adj.append(hooks)
            for z in hooks:
                adj[z] += (r,)
        return adj, self.mate + [-1] * len(ends)


def _matching_path(
    view: _ColorView, s: int, t: int, first_not: int, last_not: int
) -> Optional[tuple[int, ...]]:
    """One proper s->t path read off an augmented matching, or None; the
    colors at its ends avoid ``first_not`` and ``last_not``."""
    gad = view.gadget()
    adj, mate = gad.with_pendants((s, first_not), (t, last_not))
    _, parent, end = _blossom_search(adj, mate, len(adj) - 2)
    if end == -1:
        return None
    while end != -1:  # augment
        p = parent[end]
        nxt = mate[p]
        mate[end], mate[p] = p, end
        end = nxt
    # follow the matched graph edges: s has one, each inner vertex two; the
    # pendants count as their ends' own nodes, so the walk skips them
    owner = gad.owner + [s, t]
    path = [s]
    entry = -1
    while path[-1] != t:
        v = path[-1]
        x = next(x for x in gad.xs[v].values() if x != entry and owner[mate[x]] != v)
        entry = mate[x]
        path.append(owner[entry])
    return tuple(path)


# -- public checks -------------------------------------------------------------


def proper_path_exists(
    g: Graph, c: EdgeColoring, u: int, v: int
) -> Optional[ProperPathCertificate]:
    """A validated certificate for a proper u-v path, or None."""
    if u == v:
        raise PreconditionError("path query needs distinct endpoints")
    c.validate(g)
    view = _ColorView(g, c.as_vector(g))
    path = _one_path(view, u, v, view.arrivals(v))
    if path is None:
        return None
    return certificate_from_path(g, c, path)


def is_proper_connected(
    g: Graph, c: EdgeColoring
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether every vertex pair has a proper path; on failure also the first
    failing pair in lexicographic order.

    A pair is settled by a path in its walk tree where there is one, else
    by an exact path search, which the same walks prune (a missing walk
    settles the pair negatively).
    """
    c.validate(g)
    if g.n <= 1:
        return True, None
    if len(connected_components(g)) != 1:
        raise PreconditionError("proper connectivity is defined on connected graphs")
    pair = _first_unconnected_pair(_ColorView(g, c.as_vector(g)))
    return pair is None, pair


def _first_unconnected_pair(
    view: _ColorView, rows: Optional[Iterable[int]] = None
) -> Optional[tuple[int, int]]:
    """The lexicographically first pair without a proper path, or None;
    with ``rows``, only the pairs with an end in ``rows`` count, and a
    source outside ``rows`` keeps only its pairs with later rows, as in
    :func:`_strong_rows`.

    One walk tree per source ``u`` settles every ``v`` with a tree walk that
    is a path; each pair it leaves open is one :func:`_one_path` query.
    """
    n = view.g.n
    row_set = range(n) if rows is None else set(rows)
    later = () if rows is None else sorted(row_set)
    for u in range(n):
        vs = range(u + 1, n) if u in row_set else [v for v in later if v > u]
        if not vs:
            continue
        arr, _, _, paths, _ = _walk_tree(view.inc, view.colors, u)
        for v in vs:
            # A reversed proper path is a proper path: search v -> u, which
            # prunes with this one walk sweep from u.
            if not paths[v] and _one_path(view, v, u, arr) is None:
                return u, v
    return None


@dataclass
class StrongCheck:
    ok: bool
    witnesses: dict[tuple[int, int], StrongWitness]
    failing_pair: Optional[tuple[int, int]] = None


def has_strong_property(g: Graph, c: EdgeColoring) -> StrongCheck:
    """Strong proper connectivity: every pair carries two proper paths with
    distinct start colors and distinct end colors. Witnesses are validated:
    each path is checked, and the two are checked to differ at both ends.

    A pair (u, v), u < v, is settled from the walk trees of both ends: the
    simple states at v in u's tree and at u in v's tree are proper paths, and
    :func:`_witness` picks two of them whose colors differ at both ends. u's
    states are tried first; v's tree is built, and its states added, only
    when they do not settle the pair. v's tree is kept for v's own row; u's
    tree is dropped after u's row. Only a pair that neither tree settles is
    searched, by :func:`_strong_pair`, under the same rule.
    """
    return _strong_rows(g, c, range(g.n))


def _strong_rows(g: Graph, c: EdgeColoring, rows: Iterable[int]) -> StrongCheck:
    """:func:`has_strong_property` on the pairs with an end in ``rows``.

    The same loop, witness rule and validation over fewer pairs: a source
    outside ``rows`` keeps only its pairs with later rows. A graph that grows
    by an ear keeps every old pair's witnesses, so checking the rows of the
    ear's new vertices checks the grown graph; number them first, and only
    their own walk trees are built up front.

    A witness that the trees settle is read straight off them by
    :func:`_tree_certificate`, which checks each tree state's step against
    ``c`` once, the first time a certificate uses it, and each path's length
    and distinct vertices every time. Paths that :func:`_strong_pair` finds
    by search go through :func:`certificate_from_path`. Either way every
    edge, color and alternation of a witness is checked against ``c`` before
    the witness is kept.
    """
    c.validate(g)
    if g.n >= 2 and len(connected_components(g)) != 1:
        raise PreconditionError("the strong property is defined on connected graphs")
    view = _ColorView(g, c.as_vector(g))
    row_set = set(rows)
    rows = sorted(row_set)
    witnesses: dict[tuple[int, int], StrongWitness] = {}
    trees: dict[int, _SourceTree] = {}  # trees of later sources
    for u in range(g.n):
        tree = trees.pop(u, None)
        vs = range(u + 1, g.n) if u in row_set else [v for v in rows if v > u]
        if not vs:
            continue
        tree = tree or _source_tree(view, u)
        for v in vs:
            # candidate paths run v -> u, as _strong_pair searches them;
            # the certificates run u -> v
            cands = _tree_ends(tree, v, False)
            pick = _witness(cands)
            if pick is None:
                trees[v] = trees.get(v) or _source_tree(view, v)
                cands += _tree_ends(trees[v], u, True)
                pick = _witness(cands)
            if pick is None:
                pair = _strong_pair(view, v, u, tree[0], cands)
                if pair is None:
                    return StrongCheck(False, witnesses, (u, v))
                p1 = certificate_from_path(g, c, pair[0][::-1])
                p2 = certificate_from_path(g, c, pair[1][::-1])
            else:
                p1 = _tree_certificate(cands[pick[0]], c)
                p2 = _tree_certificate(cands[pick[1]], c)
            if p1.colors[0] == p2.colors[0] or p1.colors[-1] == p2.colors[-1]:
                raise InternalError(f"strong witness for {(u, v)} shares an end color")
            witnesses[(u, v)] = StrongWitness(p1, p2)
    return StrongCheck(True, witnesses)


# ``(arr, states, parent, paths, first, checked)``: a source's walk tree in
# the strong check, which of its walks are paths, and which states' steps a
# certificate has checked against the coloring
_SourceTree = tuple[
    list[int], list[tuple[int, int]], list[int], list[list[int]], list[int], bytearray
]

# ``(color at v, color at u, tree, j, far)``: the path to state ``j`` of
# ``tree`` as a proper v -> u path of a pair (u, v), u < v, with its end
# colors; ``far`` when it comes from v's tree, where it runs u -> v
_End = tuple[int, int, _SourceTree, int, bool]


def _source_tree(view: _ColorView, s: int) -> _SourceTree:
    """The walk tree from ``s`` with its simple states and no state checked
    yet."""
    tree = _walk_tree(view.inc, view.colors, s)
    return (*tree, bytearray(len(tree[1])))


def _tree_ends(tree: _SourceTree, t: int, far: bool) -> list[_End]:
    """The simple states at ``t`` in ``tree`` as candidates. In u's tree
    (``far`` false, ``t`` = v) a state's last color is the color at v; in v's
    tree (``far``, ``t`` = u) its first color is."""
    _, states, _, paths, first, _ = tree
    if far:
        return [(first[j], states[j][1], tree, j, True) for j in paths[t]]
    return [(states[j][1], first[j], tree, j, False) for j in paths[t]]


def _end_path(end: _End) -> tuple[int, ...]:
    """The v -> u path of a candidate."""
    _, _, tree, j, far = end
    path = _tree_path(tree[1], tree[2], j)
    return path[::-1] if far else path


def _tree_certificate(end: _End, c: EdgeColoring) -> ProperPathCertificate:
    """The u -> v certificate of a candidate under ``c``, read off one
    parent walk.

    The walk to a state is its parent's walk plus one step, so each state's
    step is checked once per tree, the first time a certificate uses it:
    the edge from the parent state's vertex exists, ``c`` gives it the
    state's color, and that color differs from the parent state's. A path
    shorter than one edge and one that revisits a vertex are rejected per
    path, as :func:`certificate_from_path` rejects them.
    """
    _, _, (_, states, parent, _, _, checked), j, far = end
    get = c.assignment.get
    path, cols = [], []
    while j > 0:
        w, col = states[j]
        p = parent[j]
        if not checked[j]:
            x, last = states[p]
            got = get((x, w) if x < w else (w, x))
            if got is None:
                raise InternalError(f"certificate uses non-edge ({x},{w})")
            if got != col:
                raise InternalError(f"certificate color mismatch at ({x},{w})")
            if col == last:
                raise InternalError(f"certificate path is not proper at ({x},{w})")
            checked[j] = 1
        path.append(w)
        cols.append(col)
        j = p
    path.append(states[0][0])
    if not far:  # u's tree: the walk back from v runs v -> u
        path.reverse()
        cols.reverse()
    if len(path) < 2:
        raise InternalError("certificate path must traverse an edge")
    if len(set(path)) != len(path):
        raise InternalError(f"certificate path revisits a vertex: {tuple(path)}")
    return ProperPathCertificate(tuple(path), tuple(cols))


def _witness(ends: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
    """Indices of two entries whose colors differ at both ends, or None when
    no two do; ``ends[i][0]`` and ``ends[i][1]`` are the first and last
    colors of path i.

    One pass decides it, by this lemma. Let (a, b) be the first entry. Two
    entries differ at both ends exactly when one of them differs from (a, b)
    at both ends, or one does not start with a and another does not end
    with b. Proof: take two entries that differ at both ends, neither of
    which differs from (a, b) at both ends. They do not both start with a;
    the one that does not must end with b, so the other does not end with b.
    Conversely, the first entry pairs with any entry that differs from it
    at both ends; and an entry (x, .) with x != a and an entry (., y) with
    y != b are, unless one of them differs from (a, b) at both ends, (x, b)
    and (a, y), which differ at both ends.
    """
    a, b = ends[0][:2] if ends else (0, 0)
    i = j = -1  # an entry that does not start with a; one that does not end with b
    for k, e in enumerate(ends[1:], 1):
        if e[0] != a and e[1] != b:
            return 0, k
        if e[0] != a:
            i = k
        elif e[1] != b:
            j = k
        if i >= 0 and j >= 0:
            return i, j
    return None


def _strong_pair(
    view: _ColorView,
    s: int,
    t: int,
    arr: Sequence[int],
    known: Sequence[_End],
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two proper s->t paths whose first colors differ and whose last colors
    differ, or None; ``arr`` as in :func:`_dfs_path`. ``known`` lists the
    walk trees' s->t paths, no two of which differ at both ends.

    Let P1, with first color a and last color b, be the first known path,
    or a queried one when none is known. By :func:`_witness`'s lemma the
    pair is strong exactly when some path does not start with a and some
    path does not end with b. Each is a known path when one qualifies, else
    a query that forbids that one end color, and the search stops once the
    paths in hand hold a witness. So there are at most three queries, and
    two when a tree gave a path, since by the lemma ``known`` does not
    supply both.
    """
    colors, eidx = view.colors, view.g.edge_index()
    found: list[tuple[int, int, tuple[int, ...]]] = []  # (first color, last color, path)
    # P1; then a path not starting with P1's first color; then one not
    # ending with its last color
    for avoid_a, avoid_b in ((0, 0), (1, 0), (0, 1)):
        first_not, last_not = avoid_a and found[0][0], avoid_b and found[0][1]
        e = next((e for e in known if e[0] != first_not and e[1] != last_not), None)
        p = _end_path(e) if e else _one_path(view, s, t, arr, first_not, last_not)
        if p is None:
            return None
        found.append((colors[eidx[_norm(p[0], p[1])]], colors[eidx[_norm(p[-2], p[-1])]], p))
        pick = _witness(found)
        if pick is not None:
            return found[pick[0]][2], found[pick[1]][2]
    raise InternalError(f"the strong lemma left {s}-{t} without a witness")
