"""Exact and sampling-based decision procedures for proper connection.

``exists_pc_coloring`` runs a canonical backtracking search over edge
colorings (a new color index may enter only after all smaller ones appear, so
each color-permutation class is tried once). Partial colorings are pruned by a
wildcard walk check: uncolored edges act as free colors, so an unreachable
pair under that relaxation can never become properly connected and the whole
subtree dies. Exhausting the tree is therefore a proof of absence.

The prune at a node that has just colored e = (a, b) with col asks, in order:

* the replay: is the last dead pair (the conflict) still dead? One walk BFS
  from one end of it. Walks only lose moves as edges get colors, so a pair
  dead at one node tends to stay dead at the next.
* the sweep: is some pair of a (or of b) with a touched vertex at distance
  at least 2 dead? A walk from a crosses e first, continuing from state
  (b, col), or leaves a by a color other than col, as a walk from state
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

All three answer exactly as one BFS from each end would, so the tree, its
node count and every conflict are those of the plain rule.

``pc_exact`` wraps the search in an ascending loop over palette sizes;
``sample_refute`` hammers a fixed palette with seeded random colorings and
returns verified failure witnesses.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .graph import (
    Graph,
    PreconditionError,
    SearchBudgetExceeded,
    all_pairs_distances,
    is_connected,
)
from .coloring import (
    EdgeColoring,
    Incidence,
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


class _Search:
    """One exists-style search: fixed graph, palette size, budget."""

    def __init__(
        self,
        g: Graph,
        k: int,
        require_strong: bool,
        budget_nodes: Optional[int],
        lower_for_budget: int,
    ):
        self.g = g
        self.k = k
        self.require_strong = require_strong
        self.budget = budget_nodes
        self.lower_for_budget = lower_for_budget
        self.order = _bfs_edge_order(g)
        self.eidx = {e: i for i, e in enumerate(self.order)}
        # g.edges[j] is order[perm[j]]: leaves become vectors in g.edges order
        self.perm = [self.eidx[e] for e in g.edges]
        # incidence in edge-order terms: vertex -> [(neighbor, order index)]
        self.inc = [
            tuple((w, self.eidx[(min(v, w), max(v, w))]) for w in g.adj[v])
            for v in range(g.n)
        ]
        self.ecolor = [0] * g.m  # by order index; 0 = uncolored
        self.dist = all_pairs_distances(g)
        self.touched_stack: list[int] = []  # vertices in colored-incidence order
        self.touched = [0] * g.n  # count of colored incident edges
        self.nodes = 0
        self.leaves = 0
        self.conflict: Optional[tuple[int, int]] = None
        # closed walk-state set that proved ``conflict`` dead at the node last
        # pruned, at depth ``dead_depth``; None once a node survives
        self.dead: Optional[list[int]] = None
        self.dead_depth = -1

    def _prune(
        self, depth: int, col: int, needs: Sequence[tuple[int, list[int]]]
    ) -> bool:
        """True when the partial coloring provably cannot be completed.

        Edge ``order[depth]`` = (a, b) has just been colored ``col``; ``needs``
        pairs each end with the touched vertices at distance >= 2 from it, in
        ``touched_stack`` order. Uncolored edges (color 0) act as free colors
        in the walk search.
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
                reach = _end_reach(inc, ecolor, base, x, depth)
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
        if depth == self.g.m:
            self.leaves += 1
            ecolor = self.ecolor
            cand = EdgeColoring.from_vector(
                self.g, self.k, [ecolor[i] for i in self.perm]
            )
            ok, pair = is_proper_connected(self.g, cand)
            if not ok:
                self.conflict = pair
                return None
            if self.require_strong:
                sc = has_strong_property(self.g, cand)
                if not sc.ok:
                    self.conflict = sc.failing_pair
                    return None
            return cand
        e = self.order[depth]
        for v in e:
            if self.touched[v] == 0:
                self.touched_stack.append(v)
            self.touched[v] += 1
        needs = []
        for x in e:
            dx = self.dist[x]
            need = [y for y in self.touched_stack if dx[y] >= 2]
            if need:
                needs.append((x, need))
        try:
            for col in range(1, min(self.k, maxused + 1) + 1):
                self.nodes += 1
                if self.budget is not None and self.nodes > self.budget:
                    raise SearchBudgetExceeded(
                        self.k, self.lower_for_budget, self.nodes
                    )
                self.ecolor[depth] = col
                if not self._prune(depth, col, needs):
                    got = self._descend(depth + 1, max(maxused, col))
                    if got is not None:
                        return got
            self.ecolor[depth] = 0
            return None
        finally:
            if self.ecolor[depth] == 0:  # fully unwound
                for v in e:
                    self.touched[v] -= 1
                    if self.touched[v] == 0:
                        self.touched_stack.remove(v)


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
    search = _Search(g, k, require_strong, budget_nodes, lower_for_budget=1)
    t0 = time.perf_counter()
    try:
        got = search.run()
    finally:
        if stats_out is not None:
            stats_out["nodes"] = search.nodes
            stats_out["leaves"] = search.leaves
            stats_out["runtime_s"] = time.perf_counter() - t0
    return got


def pc_exact(
    g: Graph,
    k_max: Optional[int] = None,
    budget_nodes: Optional[int] = None,
    require_strong: bool = False,
) -> PcResult:
    """Smallest k admitting a properly connecting k-coloring, with witness.

    Tries k = 1, 2, ... up to ``k_max`` (default: the edge count). Raises a
    typed error on disconnected input and :class:`SearchBudgetExceeded`
    (inconclusive, with the proven lower bound and the nodes spent over every
    palette size tried) if a budget runs out. With
    ``require_strong`` the target is the strong variant of the invariant.
    """
    if g.n >= 2 and not is_connected(g):
        raise PreconditionError("proper connection number needs a connected graph")
    if k_max is None:
        k_max = max(g.m, 1)
    stats: dict = {"per_k": {}, "nodes": 0}
    t0 = time.perf_counter()
    budget_left = budget_nodes
    for k in range(1, k_max + 1):
        search = _Search(g, k, require_strong, budget_left, lower_for_budget=k)
        try:
            got = search.run()
        except SearchBudgetExceeded as exc:
            raise SearchBudgetExceeded(
                k, exc.lower, stats["nodes"] + search.nodes
            ) from None
        stats["per_k"][k] = search.nodes
        stats["nodes"] += search.nodes
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
            raise RuntimeError(
                f"internal disagreement: pair {pair} reported failing but a "
                "proper path exists"
            )
        failures.append(RefutationSample(t, c, pair))
    return SampleRefutation(k, trials, seed, failures, successes)
