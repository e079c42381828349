"""Exact and sampling-based decision procedures for proper connection.

``exists_pc_coloring`` runs a canonical backtracking search over edge
colorings (a new color index may enter only after all smaller ones appear, so
each color-permutation class is tried once). Partial colorings are pruned by a
wildcard walk check: uncolored edges act as free colors, so an unreachable
pair under that relaxation can never become properly connected and the whole
subtree dies. Exhausting the tree is therefore a proof of absence.

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
from typing import Callable, Optional

from .graph import (
    Graph,
    PreconditionError,
    SearchBudgetExceeded,
    all_pairs_distances,
    is_connected,
)
from .coloring import (
    EdgeColoring,
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

    def _prune(self, e: tuple[int, int]) -> bool:
        """True when the partial coloring provably cannot be completed."""
        # Uncolored edges (color 0) act as free colors in the walk search.
        cf = self.conflict
        if cf is not None and not _walk_arrivals(self.inc, self.ecolor, *cf)[cf[1]]:
            return True
        for x in e:
            dx = self.dist[x]
            need = [y for y in self.touched_stack if dx[y] >= 2]
            if not need:
                continue
            reach = _walk_arrivals(self.inc, self.ecolor, x)
            for y in need:
                if not reach[y]:
                    self.conflict = (x, y) if x < y else (y, x)
                    return True
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
            cand = EdgeColoring(
                self.k, {e: self.ecolor[i] for i, e in enumerate(self.order)}
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
        try:
            for col in range(1, min(self.k, maxused + 1) + 1):
                self.nodes += 1
                if self.budget is not None and self.nodes > self.budget:
                    raise SearchBudgetExceeded(
                        self.k, self.lower_for_budget, self.nodes
                    )
                self.ecolor[depth] = col
                if not self._prune(e):
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
    (inconclusive, with the proven lower bound) if a budget runs out. With
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
        finally:
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
