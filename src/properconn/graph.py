"""Small simple-graph toolkit.

Immutable graphs with dense vertex ids plus the classical primitives the rest
of the package leans on: connectivity and edge connectivity, bridges and cut
vertices, bipartiteness, diameter, two-fans (Menger), maximum cuts, maximal
2-edge-connected bipartite subgraphs, and bipartite matching.

Everything is deterministic: neighbor lists are sorted, searches scan vertices
in ascending order, and ties break lexicographically.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Malformed graph input (bad ids, loops, duplicate edges)."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold."""


class InternalError(RuntimeError):
    """A postcondition this library promises failed to materialize."""


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of budget before it settled its question.

    Explicitly *inconclusive*: carries the palette size under test, the lower
    bound established so far, and the node count at the stop.
    """

    def __init__(self, k: int, lower: int, nodes: int):
        super().__init__(
            f"search budget exhausted at k={k} after {nodes} nodes "
            f"(established lower bound {lower})"
        )
        self.k = k
        self.lower = lower
        self.nodes = nodes


Edge = tuple[int, int]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    Edges are stored sorted as ``(min, max)`` pairs; ``adj[v]`` is a sorted
    tuple of neighbors. Instances are hashable and carry a private cache of
    derived structure, such as the edge index and the incidence the coloring
    checks read (safe because the structure never mutates).
    """

    __slots__ = ("n", "edges", "adj", "_cache")

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen: set[Edge] = set()
        norm: list[Edge] = []
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            key = _norm(u, v)
            if key in seen:
                raise GraphError(f"duplicate edge {key!r}")
            seen.add(key)
            norm.append(key)
        norm.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        lists: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            lists[u].append(v)
            lists[v].append(u)
        object.__setattr__(self, "adj", tuple(tuple(sorted(a)) for a in lists))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Graph is immutable")

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        try:
            sets = self._cache["adjsets"]
        except KeyError:
            sets = self._cache["adjsets"] = [frozenset(a) for a in self.adj]
        return v in sets[u]

    def edge_index(self) -> dict[Edge, int]:
        try:
            return self._cache["eidx"]
        except KeyError:
            idx = {e: i for i, e in enumerate(self.edges)}
            self._cache["eidx"] = idx
            return idx

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return (Graph, (self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ----------------------------------------------------

    def with_vertex_added(self, neighbors: Iterable[int]) -> "Graph":
        """New graph with vertex ``n`` attached to ``neighbors``."""
        nbrs = sorted(set(neighbors))
        for w in nbrs:
            if not (0 <= w < self.n):
                raise GraphError(f"attach target {w} not in graph")
        extra = [(w, self.n) for w in nbrs]
        return Graph(self.n + 1, list(self.edges) + extra)

    def with_edges(self, edges: Iterable[Sequence[int]]) -> "Graph":
        return Graph(self.n, list(self.edges) + [tuple(e) for e in edges])

    def spanning_subgraph(self, edges: Iterable[Sequence[int]]) -> "Graph":
        """Subgraph on the same vertex set restricted to ``edges``."""
        eset = set(self.edges)
        kept = []
        for e in edges:
            key = _norm(e[0], e[1])
            if key not in eset:
                raise GraphError(f"edge {key!r} not present in host graph")
            kept.append(key)
        return Graph(self.n, kept)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph with dense relabeling.

        Returns ``(h, vmap)`` where ``vmap[i]`` is the original id of local
        vertex ``i`` (ascending order).
        """
        vmap = tuple(sorted(set(vertices)))
        local = {g: i for i, g in enumerate(vmap)}
        edges = [
            (local[u], local[v]) for u, v in self.edges if u in local and v in local
        ]
        return Graph(len(vmap), edges), vmap

    def without_edges(self, edges: Iterable[Sequence[int]]) -> "Graph":
        drop = {_norm(e[0], e[1]) for e in edges}
        return Graph(self.n, [e for e in self.edges if e not in drop])


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of the vertex set; ``side_u`` holds vertex 0's side."""

    side_u: frozenset[int]
    side_v: frozenset[int]

    def side_of(self, v: int) -> int:
        return 0 if v in self.side_u else 1


@dataclass(frozen=True)
class CutStructure:
    bridges: tuple[Edge, ...]
    cut_vertices: tuple[int, ...]


@dataclass(frozen=True)
class BipartiteSubgraph:
    """A bipartite subgraph carried in the host graph's vertex ids."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    side_u: frozenset[int]
    side_v: frozenset[int]

    def as_graph(self) -> tuple[Graph, tuple[int, ...]]:
        """Dense relabeling; returns ``(h, vmap)`` like :meth:`Graph.induced`."""
        vmap = tuple(sorted(self.vertices))
        local = {g: i for i, g in enumerate(vmap)}
        return Graph(len(vmap), [(local[u], local[v]) for u, v in self.edges]), vmap


# -- traversal -------------------------------------------------------------


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from ``source``; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    q.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return bfs_distances(g, 0).count(-1) == 0


def diameter(g: Graph) -> int:
    """Max hop distance over all pairs; raises on disconnected input."""
    if g.n == 0:
        raise PreconditionError("diameter of empty graph")
    best = 0
    for s in range(g.n):
        dist = bfs_distances(g, s)
        far = max(dist)
        if min(dist) < 0:
            raise PreconditionError("diameter undefined: graph is disconnected")
        best = max(best, far)
    return best


def all_pairs_distances(g: Graph) -> list[list[int]]:
    return [bfs_distances(g, s) for s in range(g.n)]


# -- bipartiteness ----------------------------------------------------------


def _two_color(g: Graph) -> tuple[list[int], list[int], Optional[Edge]]:
    """BFS 2-coloring, component by component from each least unvisited vertex.

    Returns ``(color, parent, clash)``: BFS-tree parents (-1 at roots), and the
    first edge ``(u, w)`` found with both ends on one side, where the sweep
    stops; ``clash`` is None when the graph is bipartite.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    q.append(w)
                elif color[w] == color[u]:
                    return color, parent, (u, w)
    return color, parent, None


def bipartition(g: Graph) -> Optional[Bipartition]:
    """Return a 2-coloring of the vertices, or None if an odd cycle exists.

    Works per component; side_u collects the side of each component's least
    vertex.
    """
    color, _, clash = _two_color(g)
    if clash is not None:
        return None
    side_u = frozenset(v for v in range(g.n) if color[v] == 0)
    side_v = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(side_u, side_v)


def odd_cycle(g: Graph) -> Optional[list[int]]:
    """An odd cycle as a vertex list, or None when bipartite."""
    _, parent, clash = _two_color(g)
    if clash is None:
        return None
    u, w = clash
    # climb to the lowest common ancestor of u and w
    pu, pw = [u], [w]
    su, sw = {u}, {w}
    while True:
        if parent[pu[-1]] >= 0:
            pu.append(parent[pu[-1]])
            su.add(pu[-1])
            if pu[-1] in sw:
                break
        if parent[pw[-1]] >= 0:
            pw.append(parent[pw[-1]])
            sw.add(pw[-1])
            if pw[-1] in su:
                break
    meet = pu[-1] if pu[-1] in sw else pw[-1]
    cu = pu[: pu.index(meet) + 1]
    cw = pw[: pw.index(meet) + 1]
    return cu + cw[-2::-1]


# -- bridges / cut vertices --------------------------------------------------


def bridges_and_cut_vertices(g: Graph) -> CutStructure:
    """Tarjan low-link pass (iterative) over every component."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent_edge = [-1] * g.n
    bridges: list[Edge] = []
    cut: set[int] = set()
    timer = 0
    eidx = g.edge_index()
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        root_children = 0
        stack: list[tuple[int, int]] = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, i = stack[-1]
            if i < len(g.adj[u]):
                stack[-1] = (u, i + 1)
                w = g.adj[u][i]
                ei = eidx[_norm(u, w)]
                if disc[w] < 0:
                    parent_edge[w] = ei
                    if u == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif ei != parent_edge[u]:
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        bridges.append(_norm(p, u))
                    if p != root and low[u] >= disc[p]:
                        cut.add(p)
        if root_children >= 2:
            cut.add(root)
    return CutStructure(tuple(sorted(bridges)), tuple(sorted(cut)))


def bridges(g: Graph) -> tuple[Edge, ...]:
    return bridges_and_cut_vertices(g).bridges


# -- connectivity via unit-capacity flow -------------------------------------


def _augment(
    res: list[dict[int, int]], src: int, dst: int, cap: Optional[int] = None
) -> int:
    """Augment ``res`` along shortest residual src-dst paths, one unit each,
    until none is left or the flow reaches ``cap``; returns the flow.

    ``res[a][b]`` is the residual capacity of arc a->b, and every arc's
    reverse has an entry, so that augmenting can credit it.
    """
    n = len(res)
    flow = 0
    while cap is None or flow < cap:
        prev = [-1] * n
        prev[src] = src
        q = deque([src])
        while q and prev[dst] < 0:
            a = q.popleft()
            for b, c in res[a].items():
                if c > 0 and prev[b] < 0:
                    prev[b] = a
                    q.append(b)
        if prev[dst] < 0:
            break
        b = dst
        while b != src:
            a = prev[b]
            res[a][b] -= 1
            res[b][a] += 1
            b = a
        flow += 1
    return flow


def _edge_flow(g: Graph, s: int, t: int, cap: Optional[int] = None) -> int:
    """Max number of edge-disjoint s-t paths (BFS augmentation)."""
    # residual: dict of dicts, symmetric unit capacities
    res = [dict.fromkeys(g.adj[v], 1) for v in range(g.n)]
    return _augment(res, s, t, cap)


def edge_connectivity(g: Graph) -> int:
    """λ(g): 0 for disconnected or trivial graphs."""
    if g.n <= 1 or not is_connected(g):
        return 0
    best = g.min_degree()
    for u in range(1, g.n):
        best = min(best, _edge_flow(g, 0, u, cap=best))
        if best == 0:  # pragma: no cover - connected graphs keep best >= 1
            break
    return best


def _vertex_flow(g: Graph, s: int, t: int, cap: Optional[int] = None) -> int:
    """Max number of internally vertex-disjoint s-t paths.

    Standard vertex splitting: v_in = 2v, v_out = 2v+1; interior vertices get
    unit capacity, s and t are uncapacitated.
    """
    if g.has_edge(s, t):
        raise PreconditionError("internally disjoint paths need s,t nonadjacent")
    N = 2 * g.n
    res: list[dict[int, int]] = [dict() for _ in range(N)]

    def add(a: int, b: int, c: int) -> None:
        res[a][b] = res[a].get(b, 0) + c
        res[b].setdefault(a, 0)

    big = g.n + 1
    for v in range(g.n):
        add(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u, v in g.edges:
        add(2 * u + 1, 2 * v, 1)
        add(2 * v + 1, 2 * u, 1)
    return _augment(res, 2 * s + 1, 2 * t, cap)


def connectivity(g: Graph) -> int:
    """κ(g); n-1 for complete graphs, 0 when disconnected."""
    if g.n <= 1:
        return 0
    if not is_connected(g):
        return 0
    if g.is_complete():
        return g.n - 1
    # A minimum cut either misses v0 — then v0 reaches some nonadjacent vertex
    # across it — or contains v0, leaving two of v0's neighbors in different
    # components. Pivoting on a minimum-degree vertex keeps the pair sweep
    # small while covering both cases.
    v0 = min(range(g.n), key=g.degree)
    best = g.n - 1
    for u in range(g.n):
        if u != v0 and not g.has_edge(v0, u):
            best = min(best, _vertex_flow(g, v0, u, cap=best))
    nb = g.adj[v0]
    for i, x in enumerate(nb):
        for y in nb[i + 1 :]:
            if not g.has_edge(x, y):
                best = min(best, _vertex_flow(g, x, y, cap=best))
    return best


def is_k_connected(g: Graph, k: int) -> bool:
    return connectivity(g) >= k


# -- two-fans (Menger) -------------------------------------------------------


def two_fan(g: Graph, v: int, target: Iterable[int]) -> tuple[list[int], list[int]]:
    """Two paths from ``v`` to distinct vertices of ``target``, sharing only ``v``.

    Each path meets the target set exactly at its endpoint. Raises
    :class:`PreconditionError` when the input breaks a documented requirement
    and :class:`InternalError` when a fan fails to exist in a graph that was
    claimed 2-connected.
    """
    tset = sorted(set(target))
    tmark = set(tset)
    if v in tmark:
        raise PreconditionError("fan root must lie outside the target set")
    if len(tset) < 2:
        raise PreconditionError("fan target needs at least 2 vertices")
    # Unit-capacity flow from v_out to a super-sink behind the target set;
    # vertices are split (w_in=2w, w_out=2w+1) so the paths share only v.
    # Targets get no out-arcs except to the sink, so no path crosses one.
    N = 2 * g.n + 1
    sink = 2 * g.n
    src = 2 * v + 1
    res: list[dict[int, int]] = [dict() for _ in range(N)]
    orig: set[tuple[int, int]] = set()

    def add(a: int, b: int, c: int) -> None:
        res[a][b] = res[a].get(b, 0) + c
        res[b].setdefault(a, 0)
        orig.add((a, b))

    for w in range(g.n):
        add(2 * w, 2 * w + 1, 2 if w == v else 1)
    for w in tset:
        add(2 * w + 1, sink, 1)
    for a, b in g.edges:
        if a not in tmark and b != v:
            add(2 * a + 1, 2 * b, 1)
        if b not in tmark and a != v:
            add(2 * b + 1, 2 * a, 1)
    flow = _augment(res, src, sink, 2)
    if flow < 2:
        if connectivity(g) < 2:
            raise PreconditionError("two_fan requires a 2-connected graph")
        raise InternalError(f"no 2-fan from {v} to {tset} in a 2-connected graph")

    # arc (a,b) carries flow iff residual mass moved onto its reverse
    carry: dict[int, list[int]] = {}
    for a, b in orig:
        for _ in range(res[b].get(a, 0)):
            carry.setdefault(a, []).append(b)
    paths: list[list[int]] = []
    for _ in range(2):
        path = [v]
        node = src
        while node != sink:
            nxt = min(carry[node])
            carry[node].remove(nxt)
            if nxt != sink and nxt % 2 == 0:
                path.append(nxt // 2)
            node = nxt
        paths.append(path)
    paths.sort(key=lambda p: p[-1])
    return paths[0], paths[1]


# -- maximum cut -------------------------------------------------------------


def _cut_edges(g: Graph, side: Sequence[int]) -> list[Edge]:
    return [e for e in g.edges if side[e[0]] != side[e[1]]]


def max_cut_bipartite_subgraph(g: Graph) -> Graph:
    """Spanning bipartite subgraph induced by a (locally) maximum cut.

    Local search from a BFS-parity start with a deterministic scan order; when
    the host is 3-edge-connected the result is additionally required to be
    2-edge-connected, retrying with exhaustive max cut (n <= 20) if the local
    optimum falls short.
    """
    if g.n == 0:
        raise PreconditionError("max cut of the empty graph")
    side = [0] * g.n
    for comp in connected_components(g):
        dist = bfs_distances(g, comp[0])
        for v in comp:
            side[v] = dist[v] & 1
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            gain = sum(
                1 if side[w] == side[v] else -1 for w in g.adj[v]
            )
            if gain > 0:
                side[v] = 1 - side[v]
                improved = True
    h = g.spanning_subgraph(_cut_edges(g, side))
    if edge_connectivity(g) >= 3 and edge_connectivity(h) < 2:
        h = _exhaustive_max_cut_2ec(g)
    return h


def _exhaustive_max_cut_2ec(g: Graph) -> Graph:
    if g.n > 20:
        raise InternalError(
            "local max cut missed 2-edge-connectivity and the graph is too "
            "large for exhaustive search"
        )
    best_val = -1
    best_masks: list[int] = []
    for mask in range(1 << (g.n - 1)):  # vertex n-1 pinned to side 0
        val = 0
        for u, v in g.edges:
            if ((mask >> u) ^ (mask >> v)) & 1:
                val += 1
        if val > best_val:
            best_val, best_masks = val, [mask]
        elif val == best_val:
            best_masks.append(mask)
    for mask in best_masks:
        side = [(mask >> v) & 1 for v in range(g.n)]
        h = g.spanning_subgraph(_cut_edges(g, side))
        if edge_connectivity(h) >= 2:
            return h
    raise InternalError("no maximum cut yields a 2-edge-connected subgraph")


# -- shortest even cycle / maximal 2EC bipartite subgraph ---------------------


def shortest_even_cycle(g: Graph) -> Optional[list[int]]:
    """Vertex sequence of a shortest even cycle, or None.

    Ties break on the lexicographically smallest vertex sequence among cycles
    rooted at their minimum vertex.
    """
    for length in range(4, g.n + 1, 2):
        found: list[list[int]] = []
        for start in range(g.n):
            stack = [(start, [start])]
            while stack:
                u, path = stack.pop()
                if len(path) == length:
                    if path[1] < path[-1] and g.has_edge(u, start):
                        found.append(path)
                    continue
                for w in reversed(g.adj[u]):
                    if w > start and w not in path:
                        stack.append((w, path + [w]))
        if found:
            return min(found)
    return None


def maximal_2ec_bipartite_subgraph(g: Graph) -> BipartiteSubgraph:
    """Grow a 2-edge-connected bipartite subgraph to absorption fixpoint.

    Seeded with a shortest even cycle, then repeatedly (a) adds host edges
    joining opposite sides of the current subgraph, and (b) absorbs an outside
    vertex via two internally disjoint paths into the subgraph whenever the
    union stays bipartite (2-edge-connectivity is automatic: the two paths
    close a cycle through the new vertices). Deterministic: candidates are
    scanned in ascending order.
    """
    cyc = shortest_even_cycle(g)
    if cyc is None:
        raise PreconditionError("host graph has no even cycle")
    side: dict[int, int] = {v: i & 1 for i, v in enumerate(cyc)}
    verts = set(cyc)
    edges: set[Edge] = {_norm(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}

    def absorb_cross_edges() -> None:
        for u, v in g.edges:
            if u in verts and v in verts and side[u] != side[v]:
                edges.add((u, v))

    def try_absorb_vertex() -> bool:
        outside = sorted(v for v in range(g.n) if v not in verts)
        for v in outside:
            paths = _paths_into(g, v, verts)
            for p1, p2 in itertools.combinations(paths, 2):
                if set(p1[1:-1]) & set(p2[1:-1]):
                    continue
                assignment = _bipartite_extension(side, p1, p2)
                if assignment is None:
                    continue
                side.update(assignment)
                for p in (p1, p2):
                    verts.update(p)
                    for a, b in zip(p, p[1:]):
                        edges.add(_norm(a, b))
                return True
        return False

    absorb_cross_edges()
    while try_absorb_vertex():
        absorb_cross_edges()
    return BipartiteSubgraph(
        tuple(sorted(verts)),
        tuple(sorted(edges)),
        frozenset(v for v, s in side.items() if s == 0),
        frozenset(v for v, s in side.items() if s == 1),
    )


def _paths_into(g: Graph, v: int, core: set[int], limit: int = 4000) -> list[list[int]]:
    """Paths from v to the core with all interior vertices outside it."""
    out: list[list[int]] = []
    stack = [(v, [v])]
    while stack and len(out) < limit:
        u, path = stack.pop()
        for w in reversed(g.adj[u]):
            if w in core:
                out.append(path + [w])
            elif w not in path:
                stack.append((w, path + [w]))
    return sorted(out)


def _bipartite_extension(
    side: dict[int, int], p1: list[int], p2: list[int]
) -> Optional[dict[int, int]]:
    """2-coloring of the new path vertices consistent with the core, if any.

    p1 and p2 both start at the same outside vertex and end in the core; they
    share no interior vertices. Colors propagate from the core endpoints.
    """
    new: dict[int, int] = {}
    for p in (p1, p2):
        col = side[p[-1]]
        for w in reversed(p[:-1]):
            col ^= 1
            if w in side:
                if side[w] != col:
                    return None
            elif w in new:
                if new[w] != col:
                    return None
            else:
                new[w] = col
    return new


# -- bipartite matching ------------------------------------------------------


def maximum_matching(
    x: Iterable[int], y: Iterable[int], g: Graph
) -> tuple[Edge, ...]:
    """Maximum matching on the bipartite subgraph E(x, y) (Kuhn's algorithm).

    ``x`` and ``y`` must be disjoint vertex sets; edges inside either set are
    ignored. Deterministic: augmenting scans run in ascending vertex order.
    """
    xs = sorted(set(x))
    ys = set(y)
    if ys & set(xs):
        raise PreconditionError("matching sides must be disjoint")
    match_of: dict[int, int] = {}  # y -> x

    def try_augment(u: int, banned: set[int]) -> bool:
        for w in g.adj[u]:
            if w in ys and w not in banned:
                banned.add(w)
                if w not in match_of or try_augment(match_of[w], banned):
                    match_of[w] = u
                    return True
        return False

    for u in xs:
        try_augment(u, set())
    return tuple(sorted(_norm(v, u) for v, u in match_of.items()))
