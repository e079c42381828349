"""Edge colorings and properly colored connectivity.

A coloring assigns each edge a color in ``1..k``. A path is *proper* when no
two consecutive edges share a color. The checks here answer, for a fixed
coloring: does a proper walk exist, does a proper path exist (with a
certificate), is the whole graph properly connected, and does it satisfy the
strong variant (two proper paths per pair whose first edges differ in color
and whose last edges differ in color).

Each check builds one colored view of the graph: an edge-indexed color
vector plus the per-graph incidence ``v -> ((neighbor, edge index), ...)``.
Every proper-walk question runs through one BFS, ``_walk_arrivals``, over
(vertex, last color) states kept as one bitmask per vertex; color 0 marks an
uncolored edge that any color may follow, which is how the exact solver
screens partial colorings with the same loop.

Every path question is one query, ``_one_path``: a proper s-t path whose
first color avoids one given color and whose last color avoids another (or
neither). A depth-first search over simple paths, ``_dfs_path``, tries it
first. It prunes with walk reachability toward the target: a proper walk
reversed is a proper walk, so one BFS *from* the target gives, per vertex, the
colors a walk can arrive by, and a step into ``w`` by color ``col`` can still
finish exactly when some arrival color at ``w`` differs from ``col``. The
all-pairs checks search each pair from its larger end, so the sweep's BFS from
the smaller end is that prune. The DFS runs under a small step budget, and a
polynomial fallback settles whatever it leaves open: Edmonds' blossom search
on Szeider's gadget graph, where a proper s-t path is an augmenting path and
an end color is forbidden by where the end's pendant hangs. So every query
settles. The strong check needs at most four queries per pair, and the gadget
analysis one per escape route. Certificates are always re-validated before
being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import (
    Edge,
    Graph,
    InternalError,
    PreconditionError,
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

    def relabel(self, perm: dict[int, int]) -> "EdgeColoring":
        return EdgeColoring(self.k, {e: perm[c] for e, c in self.assignment.items()})


def _to_host(colors: dict[Edge, int], vmap: Sequence[int]) -> dict[Edge, int]:
    """A subgraph's edge colors keyed by host ids; ``vmap[i]`` is the host id
    of local vertex ``i``."""
    return {_norm(vmap[x], vmap[y]): col for (x, y), col in colors.items()}


def _to_local(
    colors: dict[Edge, int], sub: Graph, vmap: Sequence[int]
) -> dict[Edge, int]:
    """The colors of ``sub``'s edges, in ``sub.edges`` order, read from a
    host-keyed ``colors``; ``sub``'s edges that ``colors`` lacks are left out."""
    out = {}
    for x, y in sub.edges:
        key = _norm(vmap[x], vmap[y])
        if key in colors:
            out[(x, y)] = colors[key]
    return out


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
    cert = ProperPathCertificate(
        tuple(path), tuple(c.color(a, b) for a, b in zip(path, path[1:]))
    )
    cert.validate(g, c)
    return cert


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
    """One (graph, coloring) pair as the searches read it."""

    __slots__ = ("g", "c", "colors", "einc", "inc", "_arrivals", "_gadget")

    def __init__(self, g: Graph, c: EdgeColoring):
        self.g = g
        self.c = c
        self.colors = colors = c.as_vector(g)  # colors[i] colors g.edges[i]
        self.einc = einc = _incidence(g)
        # inc[v] = (neighbor, color) pairs in ascending neighbor order
        self.inc = [[(w, colors[i]) for w, i in row] for row in einc]
        self._arrivals: dict[int, list[int]] = {}
        self._gadget: Optional[_Gadget] = None

    def arrivals(self, t: int) -> list[int]:
        """``_walk_arrivals`` from ``t`` over the whole graph, cached: the
        prune of every path search that ends at ``t``."""
        try:
            return self._arrivals[t]
        except KeyError:
            arr = self._arrivals[t] = _walk_arrivals(self.einc, self.colors, t)
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
    inc = view.inc
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
        for w, col in it:
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
# perfect matching, reaches z_t or z'_t as an outer vertex: one search
# settles every target of s, and with r_t present it augments, and the new
# matching spells out the path. A pendant hung on x_a alone instead takes
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

        mate: list[int] = []
        for v, row in enumerate(view.inc):
            cols = sorted({col for _, col in row})
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
        for (u, v), col in zip(view.g.edges, view.colors):
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


def _blossom_search(
    adj: Sequence[Sequence[int]], mate: list[int], root: int
) -> tuple[list[bool], list[int], int]:
    """Edmonds' search for an augmenting path from the exposed ``root``.

    Returns ``(outer, parent, end)``: ``end`` is the first other exposed
    node reached, or -1 when none is, and then ``outer`` marks exactly the
    nodes an even alternating path from the root reaches. From ``end``,
    ``parent`` and ``mate`` alternate back to the root along the augmenting
    path.
    """
    n = len(adj)
    base = list(range(n))
    members: dict[int, list[int]] = {}  # base -> nodes of its blossom
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if outer[w]:
                # an edge between two outer nodes closes a blossom: contract it
                b = lca(v, w)
                blossom: set[int] = set()
                mark(v, b, w, blossom)
                mark(w, b, v, blossom)
                inside = members.setdefault(b, [b])
                for old in blossom - {b}:
                    for x in members.pop(old, [old]):
                        base[x] = b
                        inside.append(x)
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[w] == -1:
                parent[w] = v
                if mate[w] == -1:
                    return outer, parent, w
                outer[mate[w]] = True
                queue.append(mate[w])
    return outer, parent, -1


def _matching_reach(view: _ColorView, s: int) -> list[bool]:
    """``reach[t]``: a proper s-t path exists; one search settles every t."""
    gad = view.gadget()
    adj, mate = gad.with_pendants((s, 0))
    outer, _, _ = _blossom_search(adj, mate, len(adj) - 1)
    return [any(outer[z] for z in ends) for ends in gad.ends]


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
    view = _ColorView(g, c)
    path = _one_path(view, u, v, view.arrivals(v))
    if path is None:
        return None
    return certificate_from_path(g, c, path)


def is_proper_connected(
    g: Graph, c: EdgeColoring
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Whether every vertex pair has a proper path; on failure also the first
    failing pair in lexicographic order.

    Pairs are screened by the walk filter (a missing walk settles the pair
    negatively); surviving pairs get an exact path search.
    """
    c.validate(g)
    if g.n <= 1:
        return True, None
    if len(connected_components(g)) != 1:
        raise PreconditionError("proper connectivity is defined on connected graphs")
    pair = _first_unconnected_pair(_ColorView(g, c))
    return pair is None, pair


def _first_unconnected_pair(view: _ColorView) -> Optional[tuple[int, int]]:
    """The lexicographically first pair without a proper path, or None."""
    n = view.g.n
    for u in range(n):
        arr = _walk_arrivals(view.einc, view.colors, u)
        reach = None  # u's matching reach, once a DFS toward u overran
        for v in range(u + 1, n):
            if reach is None:
                # A reversed proper path is a proper path: search v -> u,
                # which prunes with this one walk sweep from u.
                try:
                    if _dfs_path(view, v, u, arr) is None:
                        return u, v
                    continue
                except _Overrun:
                    # one matching search settles all of u's remaining pairs
                    reach = _matching_reach(view, u)
            if not reach[v]:
                return u, v
    return None


@dataclass
class StrongCheck:
    ok: bool
    witnesses: dict[tuple[int, int], StrongWitness]
    failing_pair: Optional[tuple[int, int]] = None


def has_strong_property(g: Graph, c: EdgeColoring) -> StrongCheck:
    """Strong proper connectivity: every pair carries two proper paths with
    distinct start colors and distinct end colors. Witnesses are validated."""
    c.validate(g)
    if g.n >= 2 and len(connected_components(g)) != 1:
        raise PreconditionError("the strong property is defined on connected graphs")
    view = _ColorView(g, c)
    witnesses: dict[tuple[int, int], StrongWitness] = {}
    for u in range(g.n):
        arr = _walk_arrivals(view.einc, view.colors, u)
        for v in range(u + 1, g.n):
            # v -> u paths, as in _first_unconnected_pair; reversed below so
            # that the certificates run u -> v
            pair = _strong_pair(view, v, u, arr)
            if pair is None:
                return StrongCheck(False, witnesses, (u, v))
            witnesses[(u, v)] = StrongWitness(
                certificate_from_path(g, c, pair[0][::-1]),
                certificate_from_path(g, c, pair[1][::-1]),
            )
    return StrongCheck(True, witnesses)


def _strong_pair(
    view: _ColorView, s: int, t: int, arr: Sequence[int]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two proper s->t paths whose first colors differ and whose last colors
    differ, or None; ``arr`` as in :func:`_dfs_path`. At most four queries.

    Take any path P1, with first color a and last color b. A path that avoids
    a first and b last pairs with it. When there is none, every path starts
    with a or ends with b, so two paths that differ at both ends must be one
    that starts with a but does not end with b, and one that ends with b but
    does not start with a: a path avoiding a first and one avoiding b last.
    """
    p1 = _one_path(view, s, t, arr)
    if p1 is None:
        return None
    color = view.c.color
    a, b = color(p1[0], p1[1]), color(p1[-2], p1[-1])
    p2 = _one_path(view, s, t, arr, a, b)
    if p2 is not None:
        return p1, p2
    q1 = _one_path(view, s, t, arr, first_not=a)
    if q1 is None:
        return None
    q2 = _one_path(view, s, t, arr, last_not=b)
    return None if q2 is None else (q1, q2)
