"""Brute-force reference implementations the tests trust over the package.

Everything here is deliberately naive — direct path enumeration, exhaustive
coloring sweeps, textbook augmenting paths — and shares no code with the
library beyond the Graph container, except that ``brute_three_ec_classes``
runs the library's bridge and component searches, which the tests check
against removal enumeration.
"""

from __future__ import annotations

import itertools
from collections import deque

from properconn.graph import Graph


def nxg(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def simple_paths(g: Graph, u: int, v: int):
    """All simple u->v paths as vertex tuples."""
    out = []

    def dfs(x, seen, path):
        for w in g.adj[x]:
            if w == v:
                out.append(path + (v,))
            elif w not in seen:
                dfs(w, seen | {w}, path + (w,))

    dfs(u, {u}, (u,))
    return out


def path_colors(g: Graph, c, path) -> list[int]:
    return [c.color(a, b) for a, b in zip(path, path[1:])]


def is_proper_seq(colors) -> bool:
    return all(x != y for x, y in zip(colors, colors[1:]))


def proper_paths(g: Graph, c, u: int, v: int):
    return [
        p for p in simple_paths(g, u, v) if is_proper_seq(path_colors(g, c, p))
    ]


def brute_walk_reach(g: Graph, c, s: int) -> set[int]:
    """Vertices a proper walk from ``s`` reaches, by BFS over directed edges:
    a walk that last crossed a->b may go on along b->w when the two edges
    differ in color."""
    out = {s}
    seen = {(s, w) for w in g.adj[s]}
    q = deque(seen)
    while q:
        a, b = q.popleft()
        out.add(b)
        for w in g.adj[b]:
            if (b, w) not in seen and c.color(a, b) != c.color(b, w):
                seen.add((b, w))
                q.append((b, w))
    return out


def brute_has_proper_path(g: Graph, c, u: int, v: int) -> bool:
    return any(
        is_proper_seq(path_colors(g, c, p)) for p in simple_paths(g, u, v)
    )


def brute_is_pc(g: Graph, c, rows=None) -> bool:
    """Whether every pair has a proper path; with ``rows``, only pairs with
    an end in ``rows`` count."""
    return all(
        brute_has_proper_path(g, c, u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if rows is None or u in rows or v in rows
    )


def brute_strong(g: Graph, c, rows=None):
    """The lexicographically first pair without two proper paths that differ
    in both end colors, or None when the coloring is strong; with ``rows``,
    only pairs with an end in ``rows`` count."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if rows is not None and u not in rows and v not in rows:
                continue
            profs = {
                (cols[0], cols[-1])
                for p in simple_paths(g, u, v)
                if is_proper_seq(cols := path_colors(g, c, p))
            }
            if not any(
                a[0] != b[0] and a[1] != b[1]
                for a, b in itertools.combinations(profs, 2)
            ):
                return (u, v)
    return None


# -- fast exhaustive 2-coloring machinery ---------------------------------------
#
# A path is proper under a 2-coloring iff its edge colors alternate, so each
# path admits exactly two colorings of its own edge set. Encoding colorings as
# bitmasks over the edge list turns "this coloring makes this path proper"
# into two mask equalities, and a full 2^m sweep into integer compares.


def path_patterns(g: Graph):
    """Per vertex pair: deduplicated (edge-set mask, one alternating pattern)."""
    eidx = {e: i for i, e in enumerate(g.edges)}
    pats = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            entries = set()

            def dfs(x, seen, S, p0, pos):
                for w in g.adj[x]:
                    if w in seen:
                        continue
                    e = eidx[(x, w) if x < w else (w, x)]
                    S2 = S | (1 << e)
                    p2 = p0 | ((1 << e) if pos % 2 == 1 else 0)
                    if w == v:
                        entries.add((S2, p2))
                    elif w != v:
                        dfs(w, seen | {w}, S2, p2, pos + 1)

            dfs(u, {u}, 0, 0, 0)
            pats[(u, v)] = sorted(entries)
    return pats


def mask_is_pc(pats, mask: int) -> bool:
    for plist in pats.values():
        for S, p0 in plist:
            sub = mask & S
            if sub == p0 or sub == S ^ p0:
                break
        else:
            return False
    return True


def brute_exists_pc_2coloring(g: Graph) -> bool:
    pats = path_patterns(g)
    return any(mask_is_pc(pats, mask) for mask in range(1 << g.m))


def brute_pc_exact(g: Graph, k_max: int | None = None) -> int:
    """Minimum palette size by sweeping every coloring in {1..k}^m."""
    if g.n <= 1:
        return 0 if g.n == 0 else 1
    paths = {
        (u, v): simple_paths(g, u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    }
    if k_max is None:
        k_max = max(g.m, 1)
    for k in range(1, k_max + 1):
        for vec in itertools.product(range(1, k + 1), repeat=g.m):
            colors = dict(zip(g.edges, vec))

            def proper(p):
                cs = [colors[(a, b) if a < b else (b, a)] for a, b in zip(p, p[1:])]
                return is_proper_seq(cs)

            if all(any(proper(p) for p in ps) for ps in paths.values()):
                return k
    raise AssertionError(f"no proper-connecting coloring within {k_max} colors")


# -- structure helpers ------------------------------------------------------------


def vH_paths(g: Graph, v: int, H: set[int]):
    """Simple paths from v to H with every interior vertex outside H."""
    out = []

    def dfs(x, seen, path):
        for w in g.adj[x]:
            if w in H:
                out.append(path + (w,))
            elif w not in seen:
                dfs(w, seen | {w}, path + (w,))

    dfs(v, {v}, (v,))
    return out


def is_ear(g: Graph, side: dict[int, int], path) -> bool:
    """Whether ``path`` is an ear of the core whose vertices ``side`` maps to
    0 or 1: a path x...y of host edges between core vertices, or a cycle
    through x when x = y, whose interior is non-empty, repeats no vertex and
    lies outside the core, and whose length has parity side[x] ^ side[y]."""
    x, y, inner = path[0], path[-1], path[1:-1]
    return (
        x in side
        and y in side
        and all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
        and len(inner) >= (2 if x == y else 1)
        and len(set(inner)) == len(inner)
        and not set(inner) & set(side)
        and (len(path) - 1) % 2 == side[x] ^ side[y]
    )


def ear_starts(g: Graph, side: dict[int, int]) -> list[tuple[int, int]]:
    """Every (x, v) such that some ear leaves core vertex x by the edge
    to v, in ascending order, by depth-first search over simple paths."""
    def closes(path) -> bool:
        for w in g.adj[path[-1]]:
            if w in side and is_ear(g, side, path + (w,)):
                return True
            if w not in side and w not in path and closes(path + (w,)):
                return True
        return False

    return [
        (x, v)
        for x in sorted(side)
        for v in g.adj[x]
        if v not in side and closes((x, v))
    ]


def ncomp(h: Graph) -> int:
    """Number of connected components, by BFS."""
    seen = [False] * h.n
    comps = 0
    for s in range(h.n):
        if seen[s]:
            continue
        comps += 1
        q = deque([s])
        seen[s] = True
        while q:
            x = q.popleft()
            for w in h.adj[x]:
                if not seen[w]:
                    seen[w] = True
                    q.append(w)
    return comps


def brute_bridges(g: Graph):
    """Bridges by removal enumeration, in ``g.edges`` order."""

    base = ncomp(g)
    return tuple(e for e in g.edges if ncomp(g.without_edges([e])) > base)


def brute_three_ec_classes(g: Graph) -> list[int]:
    """Vertex classes of at most two-edge cuts, cut by cut: refine the
    components of g by those of g minus each bridge, and of g minus each
    pair {e, f} with f a bridge of g - e. Labels ascend by least vertex."""
    from properconn.graph import bridges, connected_components

    label = [0] * g.n
    for i, comp in enumerate(connected_components(g)):
        for v in comp:
            label[v] = i

    def refine(cut) -> None:
        piece = [0] * g.n
        for j, comp in enumerate(connected_components(g.without_edges(cut))):
            for v in comp:
                piece[v] = j
        remap: dict[tuple[int, int], int] = {}
        for v in range(g.n):
            label[v] = remap.setdefault((label[v], piece[v]), len(remap))

    one_cuts = bridges(g)
    for e in one_cuts:
        refine((e,))
    for e in g.edges:
        if e not in one_cuts:
            for f in bridges(g.without_edges([e])):
                refine((e, f))
    canon: dict[int, int] = {}
    return [canon.setdefault(lab, len(canon)) for lab in label]
