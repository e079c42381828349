"""Graph corpora.

Named families (cycles, complete and complete multipartite graphs, Petersen,
prisms, circulants, ...), exhaustive isomorph-free enumeration of small graphs
and trees, and seeded random generators. The enumerators back the library's
test corpora; the named builders are handy everywhere.

Enumeration is exhaustive-up-to-isomorphism through n = 7 (graphs) and n = 9+
(trees); the canonical form is the least edge bitmask over all vertex
labelings, found by a branch and bound, so counts can be cross-checked against
the known sequences.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .graph import Graph, PreconditionError, is_connected

# -- named families ----------------------------------------------------------


def complete(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(m: int) -> Graph:
    """K_{1,m}: hub 0 with m rays."""
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_multipartite(*sizes: int) -> Graph:
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    edges = []
    for i, j in itertools.combinations(range(len(sizes)), 2):
        for u in range(offs[i], offs[i + 1]):
            for v in range(offs[j], offs[j + 1]):
                edges.append((u, v))
    return Graph(offs[-1], edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def hypercube(d: int) -> Graph:
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph(n, edges)


def prism(k: int) -> Graph:
    """C_k x K_2."""
    if k < 3:
        raise PreconditionError("prism needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return Graph(2 * k, edges)


def moebius_ladder(k: int) -> Graph:
    """Cycle C_{2k} plus the k long diagonals."""
    if k < 2:
        raise PreconditionError("moebius ladder needs k >= 2")
    n = 2 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + k) for i in range(k)]
    return Graph(n, edges)


def antiprism(k: int) -> Graph:
    if k < 3:
        raise PreconditionError("antiprism needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [(i, k + (i + 1) % k) for i in range(k)]
    return Graph(2 * k, edges)


def wheel(n: int) -> Graph:
    """Hub n-1 joined to the cycle 0..n-2."""
    if n < 4:
        raise PreconditionError("wheel needs at least 4 vertices")
    edges = [(i, (i + 1) % (n - 1)) for i in range(n - 1)]
    edges += [(i, n - 1) for i in range(n - 1)]
    return Graph(n, edges)


def circulant(n: int, jumps: Iterable[int]) -> Graph:
    edges = set()
    for j in jumps:
        j %= n
        if j == 0:
            continue
        for i in range(n):
            u, v = i, (i + j) % n
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def theta(l1: int, l2: int, l3: int) -> Graph:
    """Two hub vertices joined by three internally disjoint paths."""
    if min(l1, l2, l3) < 1 or sorted((l1, l2, l3))[:2] == [1, 1]:
        raise PreconditionError("theta branch lengths must give a simple graph")
    edges = []
    nxt = 2
    for L in (l1, l2, l3):
        prev = 0
        for _ in range(L - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


# -- exhaustive enumeration up to isomorphism ---------------------------------


@lru_cache(maxsize=None)
def _slots(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n), 2))


def _canon_mask(adj: list[int]) -> int:
    """Least edge mask over all labelings of the graph with adjacency bitsets
    ``adj``; bit ``i`` of a mask is slot ``_slots(n)[i]``.

    Label a's slots (a, b > a) sit above every slot of a smaller label, with
    (a, n-1) highest. So labels go out from n-1 down to 0, and each step keeps
    only the unlabeled vertices whose adjacency row to the labeled ones is
    least. Ties branch, and a branch whose fixed high bits already exceed the
    best mask found is dropped.
    """
    n = len(adj)
    offs = [a * n - a * (a + 1) // 2 for a in range(n)]  # slot (a, a+1)
    best = -1

    def label(a: int, rows: dict[int, int], mask: int) -> None:
        # rows[u]: u's adjacency to labels n-1..a+1, most significant first
        nonlocal best
        if a < 0:
            best = mask
            return
        low = min(rows.values())
        mask |= low << offs[a]
        if best >= 0 and mask >> offs[a] > best >> offs[a]:
            return
        for v, r in rows.items():
            if r == low:
                rest = {u: q << 1 | adj[u] >> v & 1 for u, q in rows.items() if u != v}
                label(a - 1, rest, mask)

    label(n - 1, dict.fromkeys(range(n), 0), 0)
    return best


def _mask_to_edges(mask: int, n: int) -> list[tuple[int, int]]:
    return [e for i, e in enumerate(_slots(n)) if (mask >> i) & 1]


@lru_cache(maxsize=None)
def _graph_masks(n: int) -> tuple[int, ...]:
    if n < 1:
        raise PreconditionError("enumeration needs n >= 1")
    if n > 7:
        raise PreconditionError(
            "exhaustive enumeration is supported through n = 7"
        )
    if n == 1:
        return (0,)
    out: set[int] = set()
    for mask in _graph_masks(n - 1):
        adj = [0] * (n - 1)
        for u, v in _mask_to_edges(mask, n - 1):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for s in range(1 << (n - 1)):
            # vertex n-1 joins the vertices in s
            grown = [a | (s >> v & 1) << (n - 1) for v, a in enumerate(adj)]
            out.add(_canon_mask(grown + [s]))
    return tuple(sorted(out))


def all_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism (n <= 7)."""
    return [Graph(n, _mask_to_edges(m, n)) for m in _graph_masks(n)]


def connected_graphs(n: int) -> list[Graph]:
    return [g for g in all_graphs(n) if is_connected(g)]


# -- trees up to isomorphism ---------------------------------------------------


def _tree_centers(n: int, adj: list[set[int]]) -> list[int]:
    deg = [len(a) for a in adj]
    leaves = [v for v in range(n) if deg[v] <= 1]
    removed = len(leaves)
    while removed < n:
        nxt = []
        for v in leaves:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
            deg[v] = 0
        leaves = nxt
        removed += len(nxt)
    return sorted(leaves)


def _ahu(root: int, parent: int, adj: list[set[int]]) -> str:
    subs = sorted(_ahu(w, root, adj) for w in adj[root] if w != parent)
    return "(" + "".join(subs) + ")"


def _tree_canon(n: int, edges: list[tuple[int, int]]) -> str:
    if n == 1:
        return "()"
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return min(_ahu(c, -1, adj) for c in _tree_centers(n, adj))


@lru_cache(maxsize=None)
def _tree_edge_lists(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    if n < 1:
        raise PreconditionError("tree enumeration needs n >= 1")
    if n == 1:
        return ((),)
    out: dict[str, tuple[tuple[int, int], ...]] = {}
    for edges in _tree_edge_lists(n - 1):
        for attach in range(n - 1):
            cand = edges + ((attach, n - 1),)
            key = _tree_canon(n, list(cand))
            out.setdefault(key, cand)
    return tuple(out[k] for k in sorted(out))


def trees(n: int) -> list[Graph]:
    """All free trees on n vertices up to isomorphism."""
    return [Graph(n, list(e)) for e in _tree_edge_lists(n)]


# -- seeded random generators ---------------------------------------------------


def random_connected(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform-ish connected graph: random recursive tree plus random extras."""
    lo, hi = n - 1, n * (n - 1) // 2
    if not (lo <= m <= hi):
        raise PreconditionError(f"need {lo} <= m <= {hi}")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    pool = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    rng.shuffle(pool)
    for e in pool[: m - len(edges)]:
        edges.add(e)
    return Graph(n, sorted(edges))


def random_graphs_with(
    predicate: Callable[[Graph], bool],
    count: int,
    n_range: tuple[int, int],
    seed: int,
    m_frac: tuple[float, float] = (1.2, 3.0),
    max_tries: int = 200_000,
) -> list[Graph]:
    """Seeded random connected graphs passing ``predicate`` (deterministic)."""
    rng = random.Random(seed)
    out: list[Graph] = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise PreconditionError(
                f"predicate too restrictive: {len(out)}/{count} after {tries} tries"
            )
        n = rng.randint(*n_range)
        lo = max(n - 1, int(n * m_frac[0]))
        hi = min(n * (n - 1) // 2, max(lo, int(n * m_frac[1])))
        g = random_connected(n, rng.randint(lo, hi), rng)
        if predicate(g):
            out.append(g)
    return out
