"""Exact and sampling-based decision procedures for proper connection.

``exists_pc_coloring`` runs a canonical backtracking search over edge
colorings (a new color index may enter only after all smaller ones appear, so
each color-permutation class is tried once). Partial colorings are pruned by a
wildcard walk check: uncolored edges act as free colors, so an unreachable
pair under that relaxation can never become properly connected and the whole
subtree dies. Exhausting the tree is therefore a proof of absence.

Edges are colored in BFS order from vertex 0, which defines the tree, but the
color vector is indexed like ``g.edges`` and read through the graph's one
cached incidence: the form every check in ``coloring`` reads. So each leaf is
checked on one view of that vector, and an ``EdgeColoring`` is built only for
a leaf that passes the check.

The prune at a node that has just colored e = (a, b) with col asks, in order:

* the replay: is the last dead pair (the conflict) still dead? One walk BFS
  from one end of it. Walks only lose moves as edges get colors, so a pair
  dead at one node tends to stay dead at the next.
* the sweep: is some pair of a (or of b) with an end of a colored edge at
  distance at least 2 dead? A walk from a crosses e first, continuing from
  state (b, col), or leaves a by a color other than col, as a walk from state
  (a, col) may, or leaves by another col-colored edge at a. So one closure of
  {(a, col), (b, col)} serves both ends, and it is extended by an end's other
  col-colored edges only when it misses a vertex that end needs.
* the sibling check, which settles the replay without a BFS: when the
  previous node was this node's sibling and died, the closed walk-state set
  that proved its conflict dead is kept. The two colorings differ on e alone,
  so the set still proves it if every transition across e out of the set
  lands inside the set. A sweep's set serves as well as a BFS's: it holds
  every state one step from its start, the far ends of the start's other
  col-colored edges included.

All three answer exactly as one BFS from each end would, so the plain
search's tree, its node count and every conflict are those of the plain rule.

The strong search cuts more. The strong property asks, for every pair, for two
proper paths with different first colors, so every vertex needs two colors on
its edges. When e = order[d] is the last edge at an end x to get a color and
every edge at x now has col, no leaf below is strong, and the node is cut
(``strong_pruned`` counts these) before the prune or the memo looks at it.
``_Search`` lists the edges at each such end per depth; every other depth, and
every depth of the plain search, gets (). A cut node leaves the conflict, the
sibling check's dead set and the memo as they were. That keeps them sound: the
nodes left at depth d are still siblings that differ on e alone, and a cut
only skips a subtree. Every cut is sound, so the search still returns the
first strong leaf in canonical order, and only its counts shrink.

The siblings at depth d color the same edge e = (a, b) and agree on every
other edge. Call a color fresh there when no other edge at a or b has it
(``_plan``'s ``near[d]`` lists the colored ones). Two facts about walks let
one prune answer many siblings:

* equivalence: every fresh color gives the same vertex-to-vertex reach as
  a color k+1 that no edge has. A walk that arrives at a by another edge
  may go on along e, since no other edge at a has e's color, and then
  along every edge at b but e itself; the same holds from b. That is how e
  acts under k+1. So fresh siblings have the same replay, the same sweep
  and the same conflict.
* dominance: every color's reach lies inside that one. Recoloring e with
  k+1 keeps every proper walk proper: the only step it could make improper
  is e followed by e, which is improper under every color.

So once a fresh sibling dies on a conflict, every later sibling dies on it
with no BFS. Once a fresh sibling survives, a later fresh sibling survives
as long as the conflict is still the one it survived with; when the
subtree changed the conflict, only the replay runs, since the sweep does
not read it. A memo survivor clears the sibling check's dead set, as
``_prune`` does for every survivor. The set left by the earlier sibling's
subtree is closed under that sibling's color of e, and the check at the
next depth looks only across the edge colored there, so it would prune
this subtree without a proof.

The colored edges at depth d are always ``order[:d+1]``, so the sweep's pairs
depend on the depth alone. ``_plan`` lists them per depth once per graph,
cached on it like the incidence, and every search on the graph (each palette
size of ``pc_exact`` included) reads that plan.

``pc_exact`` wraps the search in an ascending loop over palette sizes. The
loop starts at a bound that needs no search: if vx and vy are bridges at v,
the only x-y path is x, v, y, so the bridges at one vertex need pairwise
distinct colors, and pc(G) is at least the largest number of bridges at one
vertex (for a tree, the maximum degree). The same lemma rules out every
strong coloring of a graph with a bridge, since the bridge is the only path
between its ends, so strong mode rejects such a graph before any search.
Every palette the loop does search runs the search above unchanged.
``sample_refute`` hammers a fixed palette with seeded random colorings and
returns verified failure witnesses.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .graph import (
    Graph,
    InternalError,
    PreconditionError,
    SearchBudgetExceeded,
    all_pairs_distances,
    bridges,
    is_connected,
)
from .coloring import (
    EdgeColoring,
    Incidence,
    _ColorView,
    _first_unconnected_pair,
    _incidence,
    _walk_arrivals,
    has_strong_property,
    is_proper_connected,
    proper_path_exists,
)


@dataclass
class PcResult:
    """Outcome of an exact computation."""

    value: int
    coloring: Optional[EdgeColoring]
    evidence: str  # "exhaustive" | "sampled-refutation" | "constructive-upper"
    stats: dict = field(default_factory=dict)


def _bfs_edge_order(g: Graph) -> list[tuple[int, int]]:
    """Edges ordered by a BFS from vertex 0 (ties by ascending neighbor)."""
    seen_v = [False] * g.n
    seen_e: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    from collections import deque

    for root in range(g.n):
        if seen_v[root]:
            continue
        seen_v[root] = True
        q = deque([root])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                e = (u, w) if u < w else (w, u)
                if e not in seen_e:
                    seen_e.add(e)
                    order.append(e)
                if not seen_v[w]:
                    seen_v[w] = True
                    q.append(w)
    return order


def _end_reach(
    inc: Incidence,
    colors: Sequence[int],
    base: list[int],
    x: int,
    i: int,
) -> list[int]:
    """Walk arrivals from ``x``, an end of edge ``i`` = (a, b) of color col,
    given ``base``, the closure of {(a, col), (b, col)}.

    A walk from x leaves by e (into the other end's state (., col)), by
    another color (as a walk from state (x, col) may), or by another
    col-colored edge at x: those edges' far states are the only seeds missing
    from ``base``. Returns ``base`` itself when x has no such edge, else an
    extended copy.
    """
    col = colors[i]
    seeds = [(w, col) for w, j in inc[x] if colors[j] == col and j != i]
    if not seeds:
        return base
    return _walk_arrivals(inc, colors, seeds, arr=base[:])


def _plan(
    g: Graph,
) -> tuple[
    list[tuple[int, int]], list[int], list[list[tuple[int, list[int]]]], list[list[int]]
]:
    """The exact search's plan for ``g``, ``(order, idx, needs, near)``,
    cached on the graph.

    ``order[d]`` is the edge colored at depth d (BFS order from vertex 0) and
    ``idx[d]`` its index in ``g.edges``. ``needs[d]`` pairs each end x of
    ``order[d]`` with the vertices of ``order[:d+1]`` at distance >= 2 from
    x, in first-appearance order; an end with no such vertex is left out.
    Those are the pairs the endpoint sweep checks at depth d. ``near[d]``
    lists the ``g.edges`` indices of the edges of ``order[:d]`` that share an
    end with ``order[d]``: the only other edges at its ends that have a color
    at depth d.
    """
    try:
        return g._cache["search_plan"]
    except KeyError:
        pass
    order = _bfs_edge_order(g)
    eidx = g.edge_index()
    idx = [eidx[e] for e in order]
    dist = all_pairs_distances(g)
    seen = [False] * g.n
    touched: list[int] = []  # vertices of order[:d+1], first appearance first
    at: list[list[int]] = [[] for _ in range(g.n)]  # indices of order[:d] per end
    needs = []
    near = []
    for e, i in zip(order, idx):
        a, b = e
        near.append(at[a] + at[b])
        at[a].append(i)
        at[b].append(i)
        for v in e:
            if not seen[v]:
                seen[v] = True
                touched.append(v)
        at_depth = []
        for x in e:
            dx = dist[x]
            need = [y for y in touched if dx[y] >= 2]
            if need:
                at_depth.append((x, need))
        needs.append(at_depth)
    plan = g._cache["search_plan"] = (order, idx, needs, near)
    return plan


class _Search:
    """One exists-style search: fixed graph, palette size, budget."""

    def __init__(
        self, g: Graph, k: int, require_strong: bool, budget_nodes: Optional[int]
    ):
        self.g = g
        self.k = k
        self.require_strong = require_strong
        self.budget = budget_nodes
        # the edge colored at each depth, its index in g.edges, the pairs the
        # endpoint sweep checks there and the colored edges at its ends (see
        # _plan)
        self.order, self.idx, self.needs, self.near = _plan(g)
        self.inc = _incidence(g)
        # strong mode: per depth, for each end of order[d] whose edges are
        # all colored at depth d, the g.edges indices of those edges; ()
        # everywhere else
        self.full: list[tuple[tuple[int, ...], ...]] = [()] * len(self.idx)
        if require_strong:
            left = [len(at) for at in self.inc]
            for d, (a, b) in enumerate(self.order):
                left[a] -= 1
                left[b] -= 1
                self.full[d] = tuple(
                    tuple(j for _, j in self.inc[x]) for x in (a, b) if not left[x]
                )
        self.ecolor = [0] * g.m  # by g.edges index; 0 = uncolored
        self.nodes = 0
        self.leaves = 0
        self.sibling_settled = 0  # nodes the fresh-sibling memo answered
        self.strong_pruned = 0  # nodes cut for leaving a vertex one color
        self.conflict: Optional[tuple[int, int]] = None
        # closed walk-state set that proved ``conflict`` dead at the node last
        # pruned, at depth ``dead_depth``; None once a node survives, by the
        # prune or by the fresh-sibling memo
        self.dead: Optional[list[int]] = None
        self.dead_depth = -1

    def _prune(
        self, depth: int, col: int, needs: Sequence[tuple[int, list[int]]]
    ) -> bool:
        """True when the partial coloring provably cannot be completed.

        Edge ``order[depth]`` = (a, b) has just been colored ``col``; ``needs``
        is the plan's ``needs[depth]``: each end paired with the vertices of
        the colored edges at distance >= 2 from it, in first-appearance order.
        Uncolored edges (color 0) act as free colors in the walk search.
        """
        inc, ecolor = self.inc, self.ecolor
        a, b = self.order[depth]
        cf = self.conflict
        if cf is not None:
            dead = self.dead
            if dead is not None and self.dead_depth == depth:
                # The previous sibling died on cf with the closed state set
                # ``dead`` and differs from this node on e alone: if every
                # e-transition out of the set stays inside, cf is dead here.
                bit = 1 << col
                if (not dead[a] & ~bit or dead[b] & bit) and (
                    not dead[b] & ~bit or dead[a] & bit
                ):
                    return True
            arr = _walk_arrivals(inc, ecolor, cf[0], cf[1])
            if not arr[cf[1]]:
                self.dead, self.dead_depth = arr, depth
                return True
        # Endpoint sweep: one closure of {(a, col), (b, col)} serves both
        # ends, extended by an end's own seeds only when it misses a vertex
        # that end needs (see _end_reach).
        if needs:
            base = _walk_arrivals(inc, ecolor, [(a, col), (b, col)])
            for x, need in needs:
                for y in need:
                    if not base[y]:
                        break
                else:
                    continue
                reach = _end_reach(inc, ecolor, base, x, self.idx[depth])
                for y in need:
                    if not reach[y]:
                        self.conflict = (x, y) if x < y else (y, x)
                        self.dead, self.dead_depth = reach, depth
                        return True
        self.dead = None
        return False

    def run(self) -> Optional[EdgeColoring]:
        g = self.g
        if g.m == 0:
            return EdgeColoring(self.k, {}) if g.n <= 1 else None
        if not is_connected(g):
            return None
        if self.k == 0:
            return None
        return self._descend(0, 0)

    def _descend(self, depth: int, maxused: int) -> Optional[EdgeColoring]:
        if depth == len(self.idx):
            g = self.g
            self.leaves += 1
            # colors are in 1..k by construction and run() has checked that g
            # is connected, so the vector is checked as it stands
            pair = _first_unconnected_pair(_ColorView(g, tuple(self.ecolor)))
            if pair is not None:
                self.conflict = pair
                return None
            cand = EdgeColoring.from_vector(g, self.k, self.ecolor)
            if self.require_strong:
                sc = has_strong_property(g, cand)
                if not sc.ok:
                    self.conflict = sc.failing_pair
                    return None
            return cand
        i, needs, ecolor = self.idx[depth], self.needs[depth], self.ecolor
        full = self.full[depth]
        # a color no other edge at e's ends has is fresh (see the module
        # docstring): all fresh siblings have one reach, the largest of any
        taken = {ecolor[j] for j in self.near[depth]}
        swept = doomed = False  # a fresh sibling has survived / has died
        memo = None  # the conflict the surviving fresh sibling saw
        for col in range(1, min(self.k, maxused + 1) + 1):
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                # one search proves no bound; pc_exact re-raises with its k
                raise SearchBudgetExceeded(self.k, 1, self.nodes)
            if doomed:
                # a fresh sibling died on the conflict, so this one does too
                self.sibling_settled += 1
                continue
            ecolor[i] = col
            if full and any(all(ecolor[j] == col for j in js) for js in full):
                # an end's edges all have col, so no leaf below is strong;
                # the memo, the sibling check and the conflict stay as they
                # were (see the module docstring)
                self.strong_pruned += 1
                continue
            if col in taken:
                pruned = self._prune(depth, col, needs)
            elif swept and self.conflict is memo:
                # the surviving fresh sibling's answer; no set from its
                # subtree may serve this subtree's sibling checks
                self.sibling_settled += 1
                self.dead = None
                pruned = False
            else:
                # once a fresh sibling has passed the sweep, the others skip
                # it; a fresh sibling's death dooms every later sibling
                pruned = doomed = self._prune(depth, col, () if swept else needs)
                if not pruned:
                    swept, memo = True, self.conflict
            if not pruned:
                got = self._descend(depth + 1, max(maxused, col))
                if got is not None:
                    return got
        ecolor[i] = 0
        return None


def exists_pc_coloring(
    g: Graph,
    k: int,
    require_strong: bool = False,
    budget_nodes: Optional[int] = None,
    stats_out: Optional[dict] = None,
) -> Optional[EdgeColoring]:
    """A k-coloring making g properly connected (strongly, if asked), or None.

    None is a proof of absence: the canonical search tree was exhausted.
    A blown node budget raises :class:`SearchBudgetExceeded` instead — that
    outcome is inconclusive, never conflated with absence.
    """
    if k < 0:
        raise PreconditionError("palette size must be nonnegative")
    search = _Search(g, k, require_strong, budget_nodes)
    t0 = time.perf_counter()
    try:
        got = search.run()
    finally:
        if stats_out is not None:
            stats_out["nodes"] = search.nodes
            stats_out["leaves"] = search.leaves
            stats_out["sibling_settled"] = search.sibling_settled
            stats_out["strong_pruned"] = search.strong_pruned
            stats_out["runtime_s"] = time.perf_counter() - t0
    return got


def pc_exact(
    g: Graph,
    k_max: Optional[int] = None,
    budget_nodes: Optional[int] = None,
    require_strong: bool = False,
) -> PcResult:
    """Smallest k admitting a properly connecting k-coloring, with witness.

    Tries k = lower, lower + 1, ... up to ``k_max`` (default: the edge
    count), where ``lower`` is the largest number of bridges at one vertex
    (at least 1): those bridges need distinct colors, so no smaller palette
    can work. ``stats["lower_bound"]`` records it and ``stats["bound_vertex"]``
    a vertex with that many bridges (None when g has none). Raises a typed
    error on disconnected input or when no palette up to ``k_max`` works (at
    once when ``k_max`` is below the bound), and
    :class:`SearchBudgetExceeded` (inconclusive, with the proven lower bound
    and the nodes spent over every palette size tried) if a budget runs out.
    With ``require_strong`` the target is the strong variant of the
    invariant, and a graph with a bridge is rejected before any search.
    """
    if g.n >= 2 and not is_connected(g):
        raise PreconditionError("proper connection number needs a connected graph")
    brs = bridges(g)
    if require_strong and brs:
        raise PreconditionError(
            f"no strong coloring: bridge {brs[0]} is the only path between its ends"
        )
    if k_max is None:
        k_max = max(g.m, 1)
    at = Counter(v for e in brs for v in e)
    lower = max(1, max(at.values(), default=0))
    stats: dict = {
        "per_k": {},
        "nodes": 0,
        "sibling_settled": 0,
        "strong_pruned": 0,
        "lower_bound": lower,
        "bound_vertex": min((v for v in at if at[v] == lower), default=None),
    }
    t0 = time.perf_counter()
    budget_left = budget_nodes
    for k in range(lower, k_max + 1):
        search = _Search(g, k, require_strong, budget_left)
        try:
            got = search.run()
        except SearchBudgetExceeded:
            # every k below this one was refuted or is below the bound, so k
            # is a lower bound
            raise SearchBudgetExceeded(k, k, stats["nodes"] + search.nodes) from None
        stats["per_k"][k] = search.nodes
        stats["nodes"] += search.nodes
        stats["sibling_settled"] += search.sibling_settled
        stats["strong_pruned"] += search.strong_pruned
        stats["runtime_s"] = time.perf_counter() - t0
        if budget_left is not None:
            budget_left -= search.nodes
        if got is not None:
            got.validate(g)
            return PcResult(value=k, coloring=got, evidence="exhaustive", stats=stats)
    raise PreconditionError(
        f"no properly connecting coloring with at most {k_max} colors"
    )


@dataclass
class RefutationSample:
    trial: int
    coloring: EdgeColoring
    pair: tuple[int, int]


@dataclass
class SampleRefutation:
    """Verified failures (and any survivors) among random k-colorings."""

    k: int
    trials: int
    seed: int
    failures: list[RefutationSample]
    successes: list[tuple[int, EdgeColoring]]

    @property
    def all_refuted(self) -> bool:
        return not self.successes


def _seeded_trial(g: Graph, k: int, seed: int, trial: int, check: Callable):
    rng = random.Random(f"{seed}:{trial}")
    c = EdgeColoring.from_vector(g, k, [rng.randint(1, k) for _ in range(g.m)])
    return c, check(c)


def seeded_trials(
    g: Graph, k: int, trials: int, seed: int, check: Callable, jobs: int = 1
) -> list[tuple[EdgeColoring, object]]:
    """``(c, check(c))`` for one random k-coloring ``c`` per trial, in trial
    order.

    Trial t draws its colors from ``random.Random(f"{seed}:{t}")``, so the
    results do not depend on ``jobs`` (worker processes) or scheduling; with
    ``jobs > 1``, ``g`` and ``check`` must pickle.
    """
    args = [(g, k, seed, t, check) for t in range(trials)]
    if jobs <= 1:
        return list(itertools.starmap(_seeded_trial, args))
    import multiprocessing as mp

    with mp.get_context("spawn").Pool(jobs) as pool:
        return pool.starmap(
            _seeded_trial, args, chunksize=max(1, trials // (jobs * 4))
        )


def sample_refute(
    g: Graph, k: int, trials: int, seed: int, jobs: int = 1
) -> SampleRefutation:
    """Random k-colorings, each checked and failures independently re-verified.

    Per-trial RNG streams derive from (seed, trial), so results do not depend
    on scheduling. Colorings that *are* properly connecting are collected in
    ``successes`` — for a family conjectured to need more colors, that list
    should stay empty and callers are expected to report survivors loudly.
    """
    if k < 1:
        raise PreconditionError("sampling needs a palette of at least one color")
    results = seeded_trials(
        g, k, trials, seed, functools.partial(is_proper_connected, g), jobs
    )
    failures: list[RefutationSample] = []
    successes: list[tuple[int, EdgeColoring]] = []
    for t, (c, (ok, pair)) in enumerate(results):
        if ok:
            successes.append((t, c))
            continue
        # independent re-verification of the witness pair
        if proper_path_exists(g, c, pair[0], pair[1]) is not None:
            raise InternalError(
                f"internal disagreement: pair {pair} reported failing but a "
                "proper path exists"
            )
        failures.append(RefutationSample(t, c, pair))
    return SampleRefutation(k, trials, seed, failures, successes)
