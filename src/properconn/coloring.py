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

Path existence runs on a per-graph decomposition: vertices are grouped into
classes that no one- or two-edge cut separates, and every simple path then
factors through the class quotient. Inside the (small) classes we enumerate
segments exhaustively; across classes a profile DP chains achievable
(first color, last color) pairs. Graphs where a multi-vertex class keeps three
or more boundary edges fall back to a direct DFS. The path DFSs prune with
walk reachability toward the target: a proper walk reversed is a proper walk,
so one BFS *from* the target gives, per vertex, the colors a walk can arrive
by, and a step into ``w`` by color ``col`` can still finish exactly when some
arrival color at ``w`` differs from ``col``. Step caps end a search that runs
too long with :class:`PathBudgetExceeded` (inconclusive). Certificates are
always re-validated before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import (
    Edge,
    Graph,
    InternalError,
    PreconditionError,
    SearchBudgetExceeded,
    _norm,
    bridges,
    connected_components,
)


class ColoringError(ValueError):
    """Malformed edge coloring (bad palette, missing or alien edges)."""


class PathBudgetExceeded(SearchBudgetExceeded):
    """A path search hit its step cap before settling a query.

    Inconclusive, like any :class:`SearchBudgetExceeded`: ``nodes`` is the
    step count at the stop, and no lower bound on the palette comes with it.
    """

    def __init__(self, what: str, k: int, steps: int):
        super().__init__(k, None, steps)
        self.what = what
        self.args = (f"{what} exceeded its step cap of {steps} steps (k={k})",)

    def __reduce__(self):
        return type(self), (self.what, self.k, self.nodes)


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

    __slots__ = ("g", "c", "colors", "einc", "inc")

    def __init__(self, g: Graph, c: EdgeColoring):
        self.g = g
        self.c = c
        self.colors = colors = c.as_vector(g)  # colors[i] colors g.edges[i]
        self.einc = einc = _incidence(g)
        # inc[v] = (neighbor, color) pairs in ascending neighbor order
        self.inc = [[(w, colors[i]) for w, i in row] for row in einc]


# -- proper walks -------------------------------------------------------------


def _walk_arrivals(
    inc: Incidence, colors: Sequence[int], source: int, target: int = -1
) -> list[int]:
    """BFS over (vertex, last color) states of proper walks from ``source``.

    ``inc[v]`` lists (neighbor, edge index) and ``colors[i]`` is edge i's
    color; color 0 is an uncolored edge, which any color may follow and
    precede. Returns ``arr`` with bit ``col`` of ``arr[w]`` set when some
    proper walk from the source arrives at ``w`` by an edge of color ``col``;
    the source starts with bit 0 (nothing to differ from yet), so
    ``arr[w] != 0`` exactly when ``w`` is reachable. Given a ``target``, the
    search stops as soon as a walk arrives there. Searches confined to part
    of the graph pass an incidence listing only the edges they may use.
    """
    arr = [0] * len(inc)
    arr[source] = 1
    frontier = [(source, 0)]
    while frontier:
        nxt = []
        for v, last in frontier:
            for w, i in inc[v]:
                col = colors[i]
                if col and col == last:
                    continue
                bit = 1 << col
                if not arr[w] & bit:
                    arr[w] |= bit
                    if w == target:
                        return arr
                    nxt.append((w, col))
        frontier = nxt
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


# -- path engine ---------------------------------------------------------------


def _three_ec_classes(g: Graph) -> list[int]:
    """Class labels: two vertices share one iff no cut of at most two edges
    separates them (and they share a component)."""
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

    one_cuts = bridges(g)
    for e in one_cuts:
        refine((e,))
    for e in g.edges:
        if e in one_cuts:
            continue
        for f in bridges(g.without_edges([e])):
            refine((e, f))
    # canonical labels: ascending by least vertex
    remap2: dict[int, int] = {}
    for v in range(g.n):
        label[v] = remap2.setdefault(label[v], len(remap2))
    return label


@dataclass
class _Route:
    """Alternating class/edge sequence: classes[i] --edges[i]--> classes[i+1].

    Each edge is oriented (exit vertex in classes[i], entry vertex in
    classes[i+1]).
    """

    classes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


_PROFILE_STEP_CAP = 5_000_000


class _PathEngine:
    """Per-graph machinery for proper path queries; cached on the graph."""

    def __init__(self, g: Graph):
        self.g = g
        self.class_of = _three_ec_classes(g)
        nclasses = max(self.class_of) + 1 if g.n else 0
        members: list[list[int]] = [[] for _ in range(nclasses)]
        for v in range(g.n):
            members[self.class_of[v]].append(v)
        self.members = [tuple(sorted(ms)) for ms in members]
        # oriented quotient adjacency: class -> [(edge (x,y), other_class)]
        self.qadj: list[list[tuple[tuple[int, int], int]]] = [
            [] for _ in range(nclasses)
        ]
        ports = [0] * nclasses
        for u, v in g.edges:
            cu, cv = self.class_of[u], self.class_of[v]
            if cu != cv:
                self.qadj[cu].append(((u, v), cv))
                self.qadj[cv].append(((v, u), cu))
                ports[cu] += 1
                ports[cv] += 1
        for lst in self.qadj:
            lst.sort()
        self.simple = any(
            len(self.members[ci]) > 1 and ports[ci] > 2 for ci in range(nclasses)
        )
        self.member_set = [frozenset(ms) for ms in self.members]
        # the incidence minus the edges between classes: a walk search over
        # it stays inside the class it starts in
        cls = self.class_of
        self.class_inc: Incidence = tuple(
            tuple((w, i) for w, i in row if cls[w] == cls[v])
            for v, row in enumerate(_incidence(g))
        )
        self._routes: dict[tuple[int, int], list[_Route]] = {}
        self._loops: dict[int, list[_Route]] = {}

    # -- route enumeration (color independent, cached) -----------------------

    def routes(self, ca: int, cb: int) -> list[_Route]:
        key = (ca, cb)
        if key in self._routes:
            return self._routes[key]
        out: list[_Route] = []

        def dfs(cls: int, cpath: list[int], epath: list[tuple[int, int]]):
            if cls == cb:
                out.append(_Route(tuple(cpath), tuple(epath)))
                return
            for edge, nxt in self.qadj[cls]:
                if nxt not in cpath:
                    cpath.append(nxt)
                    epath.append(edge)
                    dfs(nxt, cpath, epath)
                    cpath.pop()
                    epath.pop()

        dfs(ca, [ca], [])
        self._routes[key] = out
        return out

    def loop_routes(self, ca: int) -> list[_Route]:
        """Routes leaving class ``ca`` and returning to it (distinct interior
        classes, at least one)."""
        if ca in self._loops:
            return self._loops[ca]
        out: list[_Route] = []

        def dfs(cls: int, cpath: list[int], epath: list[tuple[int, int]]):
            for edge, nxt in self.qadj[cls]:
                if nxt == ca and len(cpath) >= 2 and edge != epath[0]:
                    out.append(_Route(tuple(cpath + [ca]), tuple(epath + [edge])))
                elif nxt != ca and nxt not in cpath:
                    cpath.append(nxt)
                    epath.append(edge)
                    dfs(nxt, cpath, epath)
                    cpath.pop()
                    epath.pop()

        dfs(ca, [ca], [])
        self._loops[ca] = out
        return out

    # -- segment search -------------------------------------------------------

    def _arrivals_from(
        self, view: _ColorView, target: int, whole: bool, memo: dict
    ) -> list[int]:
        """Arrival masks of proper walks from ``target``, over the whole graph
        or inside its class; cached per check. Reversed, ``arr[w]`` has a bit
        other than ``col`` exactly when a proper walk entered at ``w`` by an
        edge of color ``col`` can go on to reach ``target``."""
        key = ("arrivals", target, whole)
        try:
            return memo[key]
        except KeyError:
            inc = view.einc if whole else self.class_inc
            arr = memo[key] = _walk_arrivals(inc, view.colors, target)
            return arr

    def _segment_profiles(
        self,
        view: _ColorView,
        allowed: frozenset[int],
        x: int,
        y: int,
        memo: dict,
    ) -> dict[tuple[int, int], tuple[int, ...]]:
        """All (first color, last color) pairs of proper x->y paths inside
        ``allowed``, each with one witness path."""
        key = (allowed, x, y)
        if key in memo:
            return memo[key]
        out: dict[tuple[int, int], tuple[int, ...]] = {}
        # Once every (first, last) pair the endpoints' edges allow is found,
        # later paths only repeat profiles.
        firsts = {col for w, col in view.inc[x] if w == y or w in allowed}
        lasts = {col for w, col in view.inc[y] if w == x or w in allowed}
        every = len(firsts) * len(lasts)
        steps = 0

        def dfs(
            v: int, first: int, last: int, path: list[int], onpath: set[int]
        ) -> bool:
            """True once ``out`` holds every possible profile."""
            nonlocal steps
            steps += 1
            if steps > _PROFILE_STEP_CAP:
                raise PathBudgetExceeded(
                    "segment profile enumeration", view.c.k, _PROFILE_STEP_CAP
                )
            for w, col in view.inc[v]:
                if w == y:
                    if col != last:
                        prof = (first if first else col, col)
                        if prof not in out:
                            out[prof] = tuple(path + [y])
                            if len(out) == every:
                                return True
                    continue
                if w in allowed and w not in onpath and col != last:
                    path.append(w)
                    onpath.add(w)
                    if dfs(w, first if first else col, col, path, onpath):
                        return True
                    onpath.discard(w)
                    path.pop()
            return False

        dfs(x, 0, 0, [x], {x})
        memo[key] = out
        return out

    def _segment_exists(
        self, view: _ColorView, x: int, y: int, memo: dict
    ) -> Optional[tuple[int, ...]]:
        """One proper x->y path inside the endpoints' class (walk-pruned
        DFS)."""
        if x == y:
            raise InternalError("segment endpoints coincide")
        arr = self._arrivals_from(view, y, False, memo)
        if not arr[x]:
            return None

        def dfs(v: int, last: int, path: list[int], onpath: set[int]):
            for w, col in view.inc[v]:
                if col == last:
                    continue
                if w == y:
                    return path + [y]
                # arr is 0 outside the class
                if w not in onpath and arr[w] & ~(1 << col):
                    path.append(w)
                    onpath.add(w)
                    got = dfs(w, col, path, onpath)
                    if got:
                        return got
                    onpath.discard(w)
                    path.pop()
            return None

        return dfs(x, 0, [x], {x})

    # -- public queries --------------------------------------------------------

    def pair_profiles(
        self,
        view: _ColorView,
        u: int,
        v: int,
        memo: dict,
        need_all: bool = True,
        stop_when=None,
    ) -> dict[tuple[int, int], tuple[int, ...]]:
        """Achievable (start color, end color) profiles with witness paths for
        proper u->v paths. With ``need_all=False`` stops at the first profile;
        ``stop_when(profile_dict)`` may end enumeration early."""
        g = self.g
        out: dict[tuple[int, int], tuple[int, ...]] = {}

        def add(prof: tuple[int, int], path: tuple[int, ...]) -> bool:
            """Record a profile; True means enumeration may stop."""
            if prof not in out:
                out[prof] = path
                if not need_all:
                    return True
                if stop_when is not None and stop_when(out):
                    return True
            return False

        def quotient_phase() -> bool:
            """Routes through the class quotient; True = goal met early."""
            cu, cv = self.class_of[u], self.class_of[v]
            if cu == cv:
                allowed = self.member_set[cu]
                if need_all:
                    for prof, path in self._segment_profiles(
                        view, allowed, u, v, memo
                    ).items():
                        if add(prof, path):
                            return True
                else:
                    path = self._segment_exists(view, u, v, memo)
                    if path is not None:
                        prof = (
                            view.c.color(path[0], path[1]),
                            view.c.color(path[-2], path[-1]),
                        )
                        if add(prof, tuple(path)):
                            return True
                for route in self.loop_routes(cu):
                    if self._run_loop_route(view, route, u, v, memo, add):
                        return True
                return False
            for route in self.routes(cu, cv):
                if self._run_route(view, route, u, v, memo, add):
                    return True
            return False

        # The quotient model only sees paths covering each class contiguously.
        # That is every path unless some multi-vertex class has more than two
        # boundary edges; then the model stays sound for what it finds, and a
        # full enumeration settles anything it could not.
        if quotient_phase() or not self.simple:
            return out
        self._simple_profiles(view, u, v, memo, add)
        return out

    def path_exists(
        self, view: _ColorView, u: int, v: int, memo: dict
    ) -> Optional[tuple[int, ...]]:
        profs = self.pair_profiles(view, u, v, memo, need_all=False)
        if not profs:
            return None
        return next(iter(profs.values()))

    # -- route DP ---------------------------------------------------------------

    def _run_route(self, view, route: _Route, u: int, v: int, memo, add) -> bool:
        """DP over one route; feeds found profiles to ``add``; True = stop."""
        classes, edges = route.classes, route.edges
        # states: (start_color, last_color) -> path built so far (tuple)
        x1 = edges[0][0]
        if u == x1:
            states = {(0, 0): (u,)}
        else:
            states = {
                prof: path
                for prof, path in self._segment_profiles(
                    view, self.member_set[classes[0]], u, x1, memo
                ).items()
            }
        for i, (x, y) in enumerate(edges):
            col = view.c.color(x, y)
            nstates: dict[tuple[int, int], tuple[int, ...]] = {}
            for (s, last), path in states.items():
                if last and last == col:
                    continue
                key = (s if s else col, col)
                if key not in nstates:
                    nstates[key] = path + (y,)
            states = nstates
            if not states:
                return False
            # segment inside classes[i+1]: from y to next exit (or to v)
            ci = classes[i + 1]
            nxt_exit = edges[i + 1][0] if i + 1 < len(edges) else v
            if y == nxt_exit:
                continue
            segs = self._segment_profiles(
                view, self.member_set[ci], y, nxt_exit, memo
            )
            nstates = {}
            for (s, last), path in states.items():
                for (sig, eps), seg in segs.items():
                    if sig == last:
                        continue
                    key = (s, eps)
                    if key not in nstates:
                        nstates[key] = path + seg[1:]
            states = nstates
            if not states:
                return False
        for prof, path in states.items():
            if add(prof, path):
                return True
        return False

    def _run_loop_route(self, view, route: _Route, u: int, v: int, memo, add) -> bool:
        """Out-and-back route for a same-class pair: the first and last
        segments live in the same class and must be vertex-disjoint."""
        classes, edges = route.classes, route.edges
        ca = classes[0]
        allowed = self.member_set[ca]
        x1 = edges[0][0]
        yk = edges[-1][1]
        first_paths: list[tuple[int, ...]]
        if u == x1:
            first_paths = [(u,)]
        else:
            first_paths = self._enumerate_segments(view, allowed, u, x1)
        for fpath in first_paths:
            if v in fpath or (yk != v and yk in fpath):
                continue
            fset = frozenset(fpath)
            if u == x1:
                states = {(0, 0): (u,)}
            else:
                states = {
                    (
                        view.c.color(fpath[0], fpath[1]),
                        view.c.color(fpath[-2], fpath[-1]),
                    ): fpath
                }
            stop = self._run_loop_tail(
                view, classes, edges, states, allowed - fset, v, yk, memo, add
            )
            if stop:
                return True
        return False

    def _run_loop_tail(
        self, view, classes, edges, states, final_allowed, v, yk, memo, add
    ) -> bool:
        for i, (x, y) in enumerate(edges):
            col = view.c.color(x, y)
            nstates: dict[tuple[int, int], tuple[int, ...]] = {}
            for (s, last), path in states.items():
                if last and last == col:
                    continue
                key = (s if s else col, col)
                if key not in nstates:
                    nstates[key] = path + (y,)
            states = nstates
            if not states:
                return False
            if i + 1 == len(edges):
                break
            ci = classes[i + 1]
            nxt_exit = edges[i + 1][0]
            if y == nxt_exit:
                continue
            segs = self._segment_profiles(
                view, self.member_set[ci], y, nxt_exit, memo
            )
            nstates = {}
            for (s, last), path in states.items():
                for (sig, eps), seg in segs.items():
                    if sig == last:
                        continue
                    key = (s, eps)
                    if key not in nstates:
                        nstates[key] = path + seg[1:]
            states = nstates
            if not states:
                return False
        # final segment: yk -> v inside the start class, avoiding the first leg
        if yk == v:
            for prof, path in states.items():
                if add(prof, path):
                    return True
            return False
        for (s, last), path in states.items():
            tail = self._segment_exists_multi(view, final_allowed, yk, v, last)
            for eps, seg in tail.items():
                if add((s, eps), path + seg[1:]):
                    return True
        return False

    def _segment_exists_multi(
        self, view, allowed: frozenset[int], x: int, y: int, banned_first: int
    ) -> dict[int, tuple[int, ...]]:
        """Last colors of proper x->y paths inside ``allowed`` whose first edge
        avoids ``banned_first``; one witness per last color."""
        out: dict[int, tuple[int, ...]] = {}

        def dfs(v: int, first: int, last: int, path: list[int], onpath: set[int]):
            for w, col in view.inc[v]:
                if first == 0 and col == banned_first:
                    continue
                if col == last:
                    continue
                if w == y:
                    if col not in out:
                        out[col] = tuple(path + [y])
                    continue
                if w in allowed and w not in onpath:
                    path.append(w)
                    onpath.add(w)
                    dfs(w, first if first else col, col, path, onpath)
                    onpath.discard(w)
                    path.pop()

        if x == y:
            raise InternalError("loop tail endpoints coincide")
        dfs(x, 0, banned_first, [x], {x})
        return out

    def _enumerate_segments(
        self, view, allowed: frozenset[int], x: int, y: int, cap: int = 100_000
    ) -> list[tuple[int, ...]]:
        """All proper x->y paths inside ``allowed`` (for disjointness splits)."""
        out: list[tuple[int, ...]] = []

        def dfs(v: int, last: int, path: list[int], onpath: set[int]):
            if len(out) >= cap:
                raise PathBudgetExceeded("segment enumeration", view.c.k, cap)
            for w, col in view.inc[v]:
                if col == last:
                    continue
                if w == y:
                    out.append(tuple(path + [y]))
                    continue
                if w in allowed and w not in onpath:
                    path.append(w)
                    onpath.add(w)
                    dfs(w, col, path, onpath)
                    onpath.discard(w)
                    path.pop()

        dfs(x, 0, [x], {x})
        return out

    # -- fallback: direct DFS over the whole graph ------------------------------

    def _simple_profiles(self, view, u: int, v: int, memo, add) -> None:
        arr = self._arrivals_from(view, v, True, memo)
        if not arr[u]:
            return
        steps = 0
        stop = False

        def dfs(x: int, first: int, last: int, path: list[int], onpath: set[int]):
            nonlocal steps, stop
            if stop:
                return
            steps += 1
            if steps > _PROFILE_STEP_CAP:
                raise PathBudgetExceeded(
                    "path enumeration", view.c.k, _PROFILE_STEP_CAP
                )
            for w, col in view.inc[x]:
                if col == last:
                    continue
                if w == v:
                    if add((first if first else col, col), tuple(path + [v])):
                        stop = True
                        return
                    continue
                if w not in onpath and arr[w] & ~(1 << col):
                    path.append(w)
                    onpath.add(w)
                    dfs(w, first if first else col, col, path, onpath)
                    onpath.discard(w)
                    path.pop()
                    if stop:
                        return

        dfs(u, 0, 0, [u], {u})


def _engine(g: Graph) -> _PathEngine:
    try:
        return g._cache["path_engine"]
    except KeyError:
        eng = _PathEngine(g)
        g._cache["path_engine"] = eng
        return eng


# -- public checks -------------------------------------------------------------


def proper_path_exists(
    g: Graph, c: EdgeColoring, u: int, v: int
) -> Optional[ProperPathCertificate]:
    """A validated certificate for a proper u-v path, or None."""
    if u == v:
        raise PreconditionError("path query needs distinct endpoints")
    c.validate(g)
    view = _ColorView(g, c)
    path = _engine(g).path_exists(view, u, v, memo={})
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
    pair = _first_unconnected_pair(_ColorView(g, c), {})
    return pair is None, pair


def _first_unconnected_pair(view: _ColorView, memo: dict) -> Optional[tuple[int, int]]:
    """The lexicographically first pair without a proper path, or None."""
    eng = _engine(view.g)
    n = view.g.n
    for u in range(n):
        reach = _walk_arrivals(view.einc, view.colors, u)
        for v in range(u + 1, n):
            if not reach[v] or eng.path_exists(view, u, v, memo) is None:
                return u, v
    return None


def _compatible(profs: dict) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    for p1, p2 in itertools.combinations(profs, 2):
        if p1[0] != p2[0] and p1[1] != p2[1]:
            return p1, p2
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
    eng = _engine(g)
    memo: dict = {}
    witnesses: dict[tuple[int, int], StrongWitness] = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            profs = eng.pair_profiles(
                view, u, v, memo, need_all=True, stop_when=_compatible
            )
            pair = _compatible(profs)
            if pair is None:
                return StrongCheck(False, witnesses, (u, v))
            w = StrongWitness(
                certificate_from_path(g, c, profs[pair[0]]),
                certificate_from_path(g, c, profs[pair[1]]),
            )
            witnesses[(u, v)] = w
    return StrongCheck(True, witnesses)
