"""Answer checks that do not trust the code under test.

Everything here works on plain data: a vertex count, a sorted edge list and a
color per edge. Positive claims ("every pair has a proper path", "this pair
has a strong witness") are confirmed by certificates that this module
validates itself. Negative claims ("no proper path joins u and v") are
confirmed by a proper-walk BFS, which settles a pair when not even a walk
exists, and otherwise by an exhaustive path search with a step cap.

A check returns ``None`` when the answer holds and a one-line reason when it
does not. A claim the capped searches cannot settle either way is reported
through ``Unsettled`` and counted apart from wrong answers.
"""

from __future__ import annotations

from collections import deque

SEARCH_STEP_CAP = 200_000


class Unsettled(Exception):
    """A claim the capped reference search could neither confirm nor refute."""


class Colored:
    """Incidence lists with colors for one (graph, coloring) input."""

    __slots__ = ("n", "color", "inc", "live")

    def __init__(self, n: int, edges, colors):
        self.n = n
        self.live = {}  # target -> search data, see _toward
        self.color = {}
        self.inc = [[] for _ in range(n)]
        for (u, v), col in zip(edges, colors):
            self.color[(u, v)] = col
            self.color[(v, u)] = col
            self.inc[u].append((v, col))
            self.inc[v].append((u, col))


def coloring_vector(edges, assignment: dict) -> list[int]:
    """Colors of ``edges`` in order, from an ``{(u, v): color}`` mapping that
    must cover exactly those edges."""
    if len(assignment) != len(edges):
        raise ValueError(f"coloring has {len(assignment)} edges, graph has {len(edges)}")
    return [assignment[e] for e in edges]


def check_palette(colors, k: int):
    bad = [c for c in colors if not (1 <= c <= k)]
    if bad:
        return f"color {bad[0]} outside 1..{k}"
    return None


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    q = deque([0])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                q.append(y)
    return len(seen) == n


def eccentricities(n: int, edges) -> list[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        out.append(max(dist.values()) if len(dist) == n else -1)
    return out


def walk_reach(cg: Colored, s: int) -> set[int]:
    """Vertices reachable from ``s`` by a properly colored walk."""
    seen = set()
    out = {s}
    q = deque()
    for w, col in cg.inc[s]:
        if (w, col) not in seen:
            seen.add((w, col))
            q.append((w, col))
    while q:
        v, last = q.popleft()
        out.add(v)
        for w, col in cg.inc[v]:
            if col != last and (w, col) not in seen:
                seen.add((w, col))
                q.append((w, col))
    return out


def path_error(cg: Colored, path, u: int, v: int, colors=None):
    """Why ``path`` is not a proper u-v path (with the stated edge colors, if
    given), or None."""
    if len(path) < 2 or path[0] != u or path[-1] != v:
        return f"path {tuple(path)} does not join {u} and {v}"
    if len(set(path)) != len(path):
        return f"path {tuple(path)} repeats a vertex"
    cols = []
    for a, b in zip(path, path[1:]):
        col = cg.color.get((a, b))
        if col is None:
            return f"path uses non-edge ({a},{b})"
        cols.append(col)
    if colors is not None and tuple(colors) != tuple(cols):
        return f"path colors {tuple(colors)} differ from the coloring {tuple(cols)}"
    if any(x == y for x, y in zip(cols, cols[1:])):
        return f"path {tuple(path)} is not proper"
    return None


def _toward(cg: Colored, target: int):
    """Per-target search data, cached: ``live[x]`` holds the entry colors (0 =
    none yet) from which a proper walk can still reach ``target``, and
    ``order[x]`` lists x's incidences nearest-to-target first."""
    if target in cg.live:
        return cg.live[target]
    live = [set() for _ in range(cg.n)]
    q = deque()
    for x, col in cg.inc[target]:
        for cin in [0] + [c for _, c in cg.inc[x]]:
            if cin != col and cin not in live[x]:
                live[x].add(cin)
                q.append((x, cin))
    while q:
        w, wcol = q.popleft()
        for x, col in cg.inc[w]:
            if col != wcol:
                continue
            for cin in [0] + [c for _, c in cg.inc[x]]:
                if cin != col and cin not in live[x]:
                    live[x].add(cin)
                    q.append((x, cin))
    dist = [cg.n] * cg.n
    dist[target] = 0
    q = deque([target])
    while q:
        x = q.popleft()
        for w, _ in cg.inc[x]:
            if dist[w] == cg.n:
                dist[w] = dist[x] + 1
                q.append(w)
    order = [sorted(inc, key=lambda wc: dist[wc[0]]) for inc in cg.inc]
    cg.live[target] = live, order
    return live, order


def find_proper_path(cg: Colored, u: int, v: int, first=None, last=None):
    """A proper u-v path (optionally with first edge color ``first`` and last
    edge color ``last``), or None when none exists. Raises ``Unsettled`` when
    the capped search runs out first."""
    live, order = _toward(cg, v)
    if 0 not in live[u]:
        return None
    steps = 0
    path = [u]
    onpath = {u}

    def dfs(x: int, lastcol: int):
        nonlocal steps
        steps += 1
        if steps > SEARCH_STEP_CAP:
            raise Unsettled(f"path search {u}-{v} exceeded {SEARCH_STEP_CAP} steps")
        for w, col in order[x]:
            if col == lastcol or (x == u and first is not None and col != first):
                continue
            if w == v:
                if last is None or col == last:
                    return path + [v]
                continue
            if w not in onpath and col in live[w]:
                path.append(w)
                onpath.add(w)
                got = dfs(w, col)
                if got:
                    return got
                onpath.discard(w)
                path.pop()
        return None

    return dfs(u, 0)


def check_no_path(cg: Colored, u: int, v: int):
    """Confirm that no proper u-v path exists."""
    if v not in walk_reach(cg, u):
        return None
    if find_proper_path(cg, u, v) is not None:
        return f"pair ({u},{v}) reported dead but a proper path joins it"
    return None


def check_properly_connected(cg: Colored, upto=None):
    """Confirm that every pair (in lexicographic order, stopping before
    ``upto`` when given) has a proper path, by finding and validating one."""
    for u in range(cg.n):
        reach = walk_reach(cg, u)
        for v in range(u + 1, cg.n):
            if upto is not None and (u, v) >= upto:
                return None
            if v not in reach:
                return f"pair ({u},{v}) has no proper walk"
            path = find_proper_path(cg, u, v)
            if path is None:
                return f"pair ({u},{v}) has no proper path"
            why = path_error(cg, path, u, v)
            if why:
                return why
    return None


def strong_witness_error(cg: Colored, u: int, v: int, w) -> str | None:
    """Validate a library ``StrongWitness`` for the pair (u, v)."""
    for cert in (w.p1, w.p2):
        why = path_error(cg, cert.path, u, v, cert.colors)
        if why:
            return why
    if w.p1.colors[0] == w.p2.colors[0]:
        return f"strong witness for ({u},{v}) has equal start colors"
    if w.p1.colors[-1] == w.p2.colors[-1]:
        return f"strong witness for ({u},{v}) has equal end colors"
    return None


def check_strong(cg: Colored):
    """Confirm the strong property: for every pair, find proper paths for
    (first color, last color) profiles until two of them differ in both."""
    for u in range(cg.n):
        for v in range(u + 1, cg.n):
            why = _strong_pair_error(cg, u, v)
            if why:
                return why
    return None


def check_not_strong_pair(cg: Colored, u: int, v: int):
    """Confirm that (u, v) has no two proper paths differing at both ends."""
    if _strong_pair_error(cg, u, v) is None:
        return f"pair ({u},{v}) reported not strong but has a strong witness"
    return None


def _strong_pair_error(cg: Colored, u: int, v: int):
    starts = sorted({col for _, col in cg.inc[u]})
    ends = sorted({col for _, col in cg.inc[v]})
    pending = [(a, b) for a in starts for b in ends]
    found = []
    unsettled = None
    while pending:
        # Search next a profile that would complete a witness with one found.
        pick = next(
            (p for p in pending if any(p[0] != a and p[1] != b for a, b in found)),
            pending[0],
        )
        pending.remove(pick)
        try:
            path = find_proper_path(cg, u, v, first=pick[0], last=pick[1])
        except Unsettled as exc:
            unsettled = exc
            continue
        if path is None:
            continue
        why = path_error(cg, path, u, v)
        if why:
            return why
        if any(pick[0] != a and pick[1] != b for a, b in found):
            return None
        found.append(pick)
    if unsettled is not None:
        raise unsettled
    return f"pair ({u},{v}) has no two proper paths differing at both ends"
