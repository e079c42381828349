"""Small simple-graph toolkit.

Immutable graphs with dense vertex ids plus the classical primitives the rest
of the package leans on: connectivity and edge connectivity, cycle-space
labels that tell every cut of one or two edges (bridges among them),
bipartiteness, diameter, two-fans (Menger), maximum cuts, maximal
2-edge-connected bipartite subgraphs, and bipartite matching.

Edmonds' blossom search for an augmenting path, ``_blossom_search``, lives
here and has two users: the proper-path queries of ``coloring``, on Szeider's
gadget graph, and the ear search that grows a maximal 2-edge-connected
bipartite subgraph, on a doubled graph where an augmenting path is a path of
given parity.

Everything is deterministic: neighbor lists are sorted, searches scan vertices
in ascending order, and ties break lexicographically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


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


# -- bridges and two-edge cuts ----------------------------------------------


def bridges(g: Graph) -> tuple[Edge, ...]:
    """The bridges of ``g``, sorted: the edges :func:`cut_labels` labels 0."""
    return tuple(e for e, lab in zip(g.edges, cut_labels(g)) if lab == 0)


def cut_labels(g: Graph) -> list[int]:
    """Cycle-space label of each edge, indexed like ``g.edges``, from one pass.

    Over a BFS spanning forest, the i-th non-tree edge gets the bit
    ``1 << i``, and a tree edge gets the XOR of the bits of the non-tree edges
    whose fundamental cycle passes through it: the XOR, over the vertices of
    its lower subtree, of the bits of their non-tree edges (an edge with both
    ends inside cancels).

    A label is the edge's row in the basis of fundamental cycles. An edge set
    is a cut exactly when it meets every cycle an even number of times, and
    the fundamental cycles span the cycle space, so a set is a cut exactly
    when its labels XOR to 0. Removing a set disconnects a connected graph
    exactly when the set holds a nonempty cut, which gives: ``g - e`` is
    disconnected iff ``label[e] == 0`` (e is a bridge), and ``g - {e, f}`` is
    disconnected iff ``label[e] == label[f]`` or one of them is 0. On a
    disconnected graph the same holds with "disconnected" read as "has more
    components than ``g``". The labels are exact, not hashed.
    """
    eidx = g.edge_index()
    parent = [-1] * g.n
    up = [-1] * g.n  # index of the tree edge to the parent
    order: list[int] = []
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        q = deque([root])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    up[w] = eidx[_norm(u, w)]
                    order.append(w)
                    q.append(w)
    label = [0] * g.m
    tree = set(up)
    below = [0] * g.n
    bit = 1
    for i, (u, v) in enumerate(g.edges):
        if i not in tree:
            label[i] = bit
            below[u] ^= bit
            below[v] ^= bit
            bit <<= 1
    for v in reversed(order):
        if parent[v] >= 0:
            label[up[v]] = below[v]
            below[parent[v]] ^= below[v]
    return label


def chain_decomposition(g: Graph) -> list[tuple[int, ...]]:
    """Schmidt's chain decomposition (IPL 113 (2013) 241-244) of the
    component of vertex 0, from one DFS.

    For each vertex v in DFS order and each back edge vw down to a
    descendant w (ascending w), the chain is v, w and then w's tree path up
    to the first vertex an earlier chain, or this one, already holds. The
    first chain is a cycle through the root. The chains cover every edge
    that is not a bridge exactly once, and each chain's interior is new. In
    a 2-edge-connected graph each later chain starts and ends on earlier
    chains, and the graph is 2-connected exactly when, with minimum degree
    at least 2, only the first chain is a cycle.
    """
    if g.n == 0:
        return []
    order = [0]
    dfi = [-1] * g.n
    dfi[0] = 0
    parent = [-1] * g.n
    stack = [(0, iter(g.adj[0]))]
    while stack:
        u, it = stack[-1]
        for w in it:
            if dfi[w] < 0:
                dfi[w] = len(order)
                order.append(w)
                parent[w] = u
                stack.append((w, iter(g.adj[w])))
                break
        else:
            stack.pop()
    held = [False] * g.n
    chains = []
    for v in order:
        for w in g.adj[v]:
            if dfi[w] < dfi[v] or parent[w] == v:
                continue  # not a back edge down from v
            held[v] = True
            chain = [v]
            while True:
                chain.append(w)
                if held[w]:
                    break
                held[w] = True
                w = parent[w]
            chains.append(tuple(chain))
    return chains


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


def _cut_moves(h: Graph):
    """Vertex sets, as membership flags, that a cut move may flip: each
    component of the cut subgraph ``h`` that does not hold vertex 0, then,
    for each bridge e of h, the side of h - e that does not hold vertex 0."""
    for comp in connected_components(h)[1:]:
        flip = [False] * h.n
        for v in comp:
            flip[v] = True
        yield flip
    for e in bridges(h):
        for x in e:
            flip = [False] * h.n
            flip[x] = True
            stack = [x]
            while stack:
                u = stack.pop()
                for w in h.adj[u]:
                    if not flip[w] and _norm(u, w) != e:
                        flip[w] = True
                        stack.append(w)
            if not flip[0]:
                yield flip
                break


def max_cut_bipartite_subgraph(g: Graph) -> Graph:
    """Spanning bipartite subgraph induced by a (locally) maximum cut.

    Local search from a BFS-parity start with a deterministic scan order:
    single-vertex flips run until none grows the cut, then the first cut move
    (see ``_cut_moves``) that grows the cut is made and the flips resume. Each
    step strictly grows the cut, so there are at most m of them. When g is
    3-edge-connected, at least 3 edges leave any such set and only a bridge
    of the cut subgraph H among them is cut, so a component move grows the
    cut by at least 3 and a bridge move by at least 1: the result is
    connected and bridgeless, that is, 2-edge-connected.
    """
    if g.n == 0:
        raise PreconditionError("max cut of the empty graph")
    side = [0] * g.n
    for comp in connected_components(g):
        dist = bfs_distances(g, comp[0])
        for v in comp:
            side[v] = dist[v] & 1
    while True:
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
        for flip in _cut_moves(h):
            gain = sum(
                1 if side[u] == side[v] else -1
                for u, v in g.edges
                if flip[u] != flip[v]
            )
            if gain > 0:
                for v in range(g.n):
                    side[v] ^= flip[v]
                break
        else:
            return h


# -- Edmonds' blossom search ---------------------------------------------------


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


# -- maximal 2EC bipartite subgraph --------------------------------------------


def _ear(g: Graph, side: dict[int, int]) -> Optional[list[int]]:
    """The first ear of the core whose vertices ``side`` maps to 0 or 1, or
    None when the core has no ear.

    An ear is a path x...y between core vertices, or a cycle through x when
    x = y, whose interior is non-empty and lies outside the core and whose
    length has the parity side[x] ^ side[y], so that the core stays
    bipartite with it. Such parity paths are augmenting paths of a doubled
    graph (LaPaugh and Papadimitriou, Networks 14 (1984) 507-513). Outside
    vertex i has a first copy 2i and a second copy 2i+1, matched to each
    other, and each copy carries i's outside edges among copies of its own
    kind. The root x hangs on the first copy of its outside neighbour v, so
    an alternating path crosses its odd-numbered edges among first copies
    and its even-numbered ones among second copies. Every other core vertex
    y is an exposed end that hangs on the first copies of its outside
    neighbours when its side differs from x's (an odd ear) and on the second
    copies when it is the same (an even ear); x is an end on the second
    copies of its outside neighbours other than v, which closes an even
    cycle of length at least 4. One search runs per (x, v), both ascending,
    and the first augmenting path found is returned as x, v, ..., y.
    """
    out = [w for w in range(g.n) if w not in side]
    pos = {w: i for i, w in enumerate(out)}
    base: list[tuple[int, ...]] = []
    for w in out:
        firsts = tuple(2 * pos[u] for u in g.adj[w] if u in pos)
        base += [firsts, tuple(a + 1 for a in firsts)]
    hooks = {y: [2 * pos[w] for w in g.adj[y] if w in pos] for y in sorted(side)}
    root = len(base)
    for x in hooks:
        for h in hooks[x]:
            adj = base + [(h,)]
            adj[h] += (root,)
            ends: list[int] = []
            for y, ys in hooks.items():
                even = side[y] == side[x]
                at = tuple(a + even for a in ys if y != x or a != h)
                if at:
                    for a in at:
                        adj[a] += (len(adj),)
                    adj.append(at)
                    ends.append(y)
            mate = [i ^ 1 for i in range(root)] + [-1] * (1 + len(ends))
            _, parent, end = _blossom_search(adj, mate, root)
            if end != -1:
                ear = [ends[end - root - 1]]
                a = parent[end]
                while a != root:  # each outside vertex: its outer copy, then its mate
                    ear.append(out[a >> 1])
                    a = parent[mate[a]]
                return [x] + ear[::-1]
    return None


def maximal_2ec_bipartite_subgraph(g: Graph) -> BipartiteSubgraph:
    """A maximal 2-edge-connected bipartite subgraph of ``g`` (the core).

    The core starts as the first ear (see ``_ear``) of a one-vertex core
    {x}, x ascending, which is an even cycle. It then alternates two steps
    until no ear is left: add the host edges joining its two sides, then add
    its first ear. Both steps keep it bipartite and 2-edge-connected. The
    result is exactly maximal: no 2-edge-connected bipartite subgraph of
    ``g`` properly contains it. Such a subgraph would have an edge e outside
    the core at a core vertex; with both ends in the core, e joins its two
    sides, and otherwise a path from e's far end back to the core that
    avoids e (there is one, as e is no bridge) closes an ear.
    """
    for x in range(g.n):
        side = {x: 0}
        ear = _ear(g, side)
        if ear is not None:
            break
    else:
        raise PreconditionError("host graph has no even cycle")
    edges: set[Edge] = set()
    while ear is not None:
        for i, w in enumerate(ear):
            side.setdefault(w, side[ear[0]] ^ (i & 1))
        edges.update(_norm(a, b) for a, b in zip(ear, ear[1:]))
        edges.update(
            (u, v) for u, v in g.edges if u in side and v in side and side[u] != side[v]
        )
        ear = _ear(g, side)
    return BipartiteSubgraph(
        tuple(sorted(side)),
        tuple(sorted(edges)),
        frozenset(v for v, s in side.items() if s == 0),
        frozenset(v for v, s in side.items() if s == 1),
    )


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
