"""The four workloads: inputs made from a seed, timed items, answer checks.

Each workload makes plain inputs (vertex counts, edge lists, color vectors,
text files) from ``--seed`` and turns them into a fixed batch of items. An
item's ``call`` is the timed work: it builds its own ``Graph`` from the plain
input (so per-graph caches start empty, as in one ``pc`` invocation) and
calls the library through the package namespace, where the tracer can wrap
it. It returns a verdict string and a payload. The untimed ``check`` then
re-validates the payload with ``checks`` and returns None or a reason.

Why these four: ``exact`` loads the solver, ``verify`` the path engine,
``refute`` the walk BFS and refutation ladder, ``color`` the constructive
colorers and graph algorithms. A change to one layer should move its own
workload and leave the others alone.
"""

from __future__ import annotations

import random
from collections import Counter

import checks
from checks import Colored

# exact: a prefix of the golden k=2 search on the mini gadget. The node count
# at the stop is the budget plus one; the leaf count is pinned from this
# commit and checked at every seed, since the input does not depend on it.
GOLDEN_BUDGET = 20_000
GOLDEN_LEAVES = 438
# Trees are drawn per (n, max degree) stratum so a batch's cost does not
# swing with how many high-degree trees one seed happens to draw. The two
# costliest strata (median 117 and 88 ms) hold about a fifth of the batch, so
# the p90 tail falls mid-way through them rather than on a few draws.
TREE_STRATA = ((10, 3, 18), (10, 4, 18), (10, 5, 54), (11, 3, 18), (11, 4, 54), (12, 3, 18))
# Small graphs are cheap and two thirds of the batch, so the p50 falls among
# them. Their search cost grows steeply with n: over 900 draws, the 99th
# percentile was 440 nodes at n=7, 1,300 at n=8 and 8,500 at n=9 (up to
# 21,000, or 2.6 s). So each n gets a fixed count, few at n=9, so that one
# seed's draw of seconds-long items does not move the batch's wall time.
SMALL_PER_N = ((7, 200), (8, 140), (9, 20))

# An item's cost depends on its verdict (early exit at the first failing pair,
# or full all-pairs confirmation), so each batch holds a fixed number of inputs
# that pass and that fail, as the reference checks in ``checks`` classify them
# while the inputs are made. That keeps a batch's cost from swinging with how
# many passing inputs one seed happens to draw. The mix is the one random
# inputs of these sizes give: about 65% pass is_proper_connected and 55% are
# strong. Passing pc items cost 0.07-1.1 s each, so they are kept few enough
# (with the cap rung, under a tenth of the batch) that the p90 tail falls
# among the many strong items rather than on one heavy-tailed draw.
VERIFY_PC = (16, 8)  # is_proper_connected, n=30, m=66, two colors: (pass, fail)
VERIFY_STRONG = (110, 90)  # has_strong_property, n=12, m=30, three colors: (pass, fail)
VERIFY_CAP = 1  # is_proper_connected, n=60, m=140, three colors

REFUTE_GADGETS = (("mini", 1), ("k33", 1), ("k33", 2))
REFUTE_TRIALS = 3300  # per gadget; under 10,000 items keeps the tail at p99

# Colorer cost grows with n (color_3ec: 19 ms median at n=10, 104 ms at
# n=14), and the predicates accept some n more often than others, so each n
# gets a fixed count; otherwise the p90 tail follows how many n=14 graphs a
# seed draws.
COLOR_3EC_PER_N = 20  # n = 10..14
COLOR_DIAM3_PER_N = 15  # n = 11..14
COLOR_GADGETS = (("mini", 1), ("k33", 1))


class Item:
    __slots__ = ("id", "kind", "call", "check", "pinned")

    def __init__(self, id, kind, call, check, pinned=True):
        self.id = id
        self.kind = kind
        self.call = call  # (ctx) -> (verdict, payload); timed
        self.check = check  # (payload) -> None | reason; untimed
        self.pinned = pinned  # verdict is compared with pins at the default seed


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _plain(g):
    return g.n, tuple(g.edges)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"generated input fails its own check: {what}")


def _coloring_check(n, edges, k, strong=False):
    """Check for an item whose payload is an ``EdgeColoring`` of (n, edges)
    with at most ``k`` colors, properly connecting (and strong, if asked)."""

    def check(c):
        if c.k > k:
            return f"palette {c.k} exceeds {k}"
        try:
            colors = checks.coloring_vector(edges, c.assignment)
        except (KeyError, ValueError) as exc:
            return f"coloring does not cover the edges: {exc}"
        why = checks.check_palette(colors, c.k)
        if why:
            return why
        cg = Colored(n, edges, colors)
        why = checks.check_properly_connected(cg)
        if why or not strong:
            return why
        return checks.check_strong(cg)

    return check


# -- exact ------------------------------------------------------------------------


def exact_inputs(P, seed: int) -> dict:
    mini, _spec = P.build_counterexample("mini", 1)
    rng = _rng(seed, "exact", "trees")
    trees = []
    for n, delta, count in TREE_STRATA:
        for _ in range(count):
            while True:
                g = P.corpus.random_connected(n, n - 1, rng)
                if g.max_degree() == delta:
                    break
            trees.append(_plain(g))
    rng = _rng(seed, "exact", "small")
    small = [
        _plain(P.corpus.random_connected(n, rng.randint(n - 1, 3 * n // 2), rng))
        for n, count in SMALL_PER_N
        for _ in range(count)
    ]
    inputs = {"golden": _plain(mini), "trees": trees, "small": small}
    for n, edges in trees:
        _require(len(edges) == n - 1 and checks.is_connected(n, edges), "tree")
    for n, edges in small:
        _require(len(edges) <= 3 * n // 2 and checks.is_connected(n, edges), "small graph")
    return inputs


def _max_degree(edges) -> int:
    deg = Counter(x for e in edges for x in e)
    return max(deg.values())


def exact_items(P, inputs) -> list[Item]:
    items = []
    gn, gedges = inputs["golden"]

    def golden(ctx):
        stats = {}
        try:
            P.exists_pc_coloring(
                P.Graph(gn, gedges), 2, budget_nodes=GOLDEN_BUDGET, stats_out=stats
            )
        except P.SearchBudgetExceeded as exc:
            ctx.counters["solver.nodes"] += exc.nodes
            ctx.counters["solver.leaves"] += stats["leaves"]
            verdict = f"budget nodes={exc.nodes} leaves={stats['leaves']}"
            return verdict, verdict
        return "search finished inside the budget", "search finished inside the budget"

    expected = f"budget nodes={GOLDEN_BUDGET + 1} leaves={GOLDEN_LEAVES}"

    def golden_check(verdict):
        return None if verdict == expected else f"golden prefix gave {verdict!r}, expected {expected!r}"

    items.append(Item("golden", "golden", golden, golden_check, pinned=False))

    def pc_item(n, edges, delta):
        def call(ctx):
            res = P.pc_exact(P.Graph(n, edges))
            ctx.counters["solver.nodes"] += res.stats["nodes"]
            return f"pc={res.value}", res

        def check(res):
            # A tree needs exactly max-degree colors, whatever the solver says.
            if delta is not None and res.value != delta:
                return f"tree with max degree {delta} got pc={res.value}"
            return _coloring_check(n, edges, res.value)(res.coloring)

        return call, check

    for i, (n, edges) in enumerate(inputs["trees"]):
        call, check = pc_item(n, edges, _max_degree(edges))
        items.append(Item(f"tree-{i:03d}", "tree", call, check))
    for i, (n, edges) in enumerate(inputs["small"]):
        call, check = pc_item(n, edges, None)
        items.append(Item(f"small-{i:03d}", "small", call, check))
    return items


# -- verify -----------------------------------------------------------------------


def _edgelist_text(n, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def _coloring_text(k, edges, colors) -> str:
    rows = ", ".join(f"[{u}, {v}, {c}]" for (u, v), c in zip(edges, colors))
    return f'{{"k": {k}, "edges": [{rows}]}}\n'


def _verify_row(P, rng, n, m, k):
    gn, edges = _plain(P.corpus.random_connected(n, m, rng))
    colors = [rng.randint(1, k) for _ in edges]
    _require(len(edges) == m and checks.is_connected(gn, edges), f"graph n={n} m={m}")
    return gn, edges, colors, _edgelist_text(gn, edges), _coloring_text(k, edges, colors)


def _stratified(P, rng, n, m, k, quota, property_error):
    """Random rows until ``quota`` = (holding, failing) of them are filled,
    judged by a reference check that returns None when the property holds.
    Rows the capped reference search cannot settle are skipped."""
    want = {True: quota[0], False: quota[1]}
    rows = []
    while want[True] or want[False]:
        row = _verify_row(P, rng, n, m, k)
        try:
            holds = property_error(Colored(*row[:3])) is None
        except checks.Unsettled:
            continue
        if want[holds]:
            want[holds] -= 1
            rows.append(row)
    return rows


def verify_inputs(P, seed: int) -> dict:
    cap = _rng(seed, "verify", "cap")
    return {
        "pc": _stratified(
            P, _rng(seed, "verify", "pc"), 30, 66, 2, VERIFY_PC, checks.check_properly_connected
        ),
        "strong": _stratified(
            P, _rng(seed, "verify", "strong"), 12, 30, 3, VERIFY_STRONG, checks.check_strong
        ),
        "cap": [_verify_row(P, cap, 60, 140, 3) for _ in range(VERIFY_CAP)],
    }


def verify_items(P, inputs) -> list[Item]:
    items = []

    def pc_item(n, edges, colors, gtext, ctext):
        def call(ctx):
            g = P.parse_graph(gtext)
            ok, pair = P.is_proper_connected(g, P.parse_coloring(ctext, g))
            return ("pass" if ok else f"fail {pair[0]}-{pair[1]}"), (ok, pair)

        def check(payload):
            ok, pair = payload
            cg = Colored(n, edges, colors)
            if ok:
                return checks.check_properly_connected(cg)
            return checks.check_properly_connected(cg, upto=pair) or checks.check_no_path(
                cg, *pair
            )

        return call, check

    def strong_item(n, edges, colors, gtext, ctext):
        def call(ctx):
            g = P.parse_graph(gtext)
            sc = P.has_strong_property(g, P.parse_coloring(ctext, g))
            pair = sc.failing_pair
            return ("strong" if sc.ok else f"not-strong {pair[0]}-{pair[1]}"), sc

        def check(sc):
            cg = Colored(n, edges, colors)
            stop = None if sc.ok else sc.failing_pair
            want = [(u, v) for u in range(n) for v in range(u + 1, n)]
            if stop is not None:
                want = want[: want.index(stop)]
            if sorted(sc.witnesses) != want:
                return "witnesses do not cover the pairs before the verdict"
            for (u, v), w in sc.witnesses.items():
                why = checks.strong_witness_error(cg, u, v, w)
                if why:
                    return why
            if stop is not None:
                return checks.check_not_strong_pair(cg, *stop)
            return None

        return call, check

    for kind, make in (("pc", pc_item), ("strong", strong_item), ("cap", pc_item)):
        for i, row in enumerate(inputs[kind]):
            call, check = make(*row)
            # The cap rung's verdict is not pinned: at this commit it fails
            # with the step-cap InternalError, and a fix must not read as a
            # wrong answer.
            items.append(Item(f"{kind}-{i:03d}", kind, call, check, pinned=kind != "cap"))
    return items


# -- refute -----------------------------------------------------------------------


_ONE_OR_TWO = bytes(1 + (b & 1) for b in range(256))  # random byte -> color 1 or 2


def refute_inputs(P, seed: int) -> dict:
    gadgets = []
    for variant, scale in REFUTE_GADGETS:
        g, spec = P.build_counterexample(variant, scale)
        report = P.verify_gadget_structure(g, spec)
        _require(report.ok, f"{variant} scale {scale} gadget structure")
        rng = _rng(seed, "refute", variant, scale)
        trials = [rng.randbytes(g.m).translate(_ONE_OR_TWO) for _ in range(REFUTE_TRIALS)]
        gadgets.append((f"{variant}{scale}", g.n, tuple(g.edges), spec, trials))
    return {"gadgets": gadgets}


def refute_items(P, inputs) -> list[Item]:
    items = []

    def trial(key, n, edges, spec, vec):
        def call(ctx):
            # One Graph per gadget per pass, reused across its trials.
            g = ctx.graphs.get(key)
            if g is None:
                g = ctx.graphs[key] = P.Graph(n, edges)
            w = P.refute_2_coloring(g, spec, P.EdgeColoring.from_vector(g, 2, list(vec)))
            if w is None:
                return "survivor", None
            ctx.counters[f"counterexample.strategy.{w.strategy}"] += 1
            return f"{w.pair[0]}-{w.pair[1]} {w.strategy}", w

        def check(w):
            if w is None:
                return "a 2-coloring survived refutation"
            if not w.verified:
                return "witness not marked verified"
            return checks.check_no_path(Colored(n, edges, list(vec)), *w.pair)

        return call, check

    for key, n, edges, spec, trials in inputs["gadgets"]:
        for i, vec in enumerate(trials):
            call, check = trial(key, n, edges, spec, vec)
            items.append(Item(f"{key}-{i:04d}", key, call, check))
    return items


# -- color ------------------------------------------------------------------------


def color_inputs(P, seed: int) -> dict:
    def three_ec(g):
        return not g.is_complete() and P.edge_connectivity(g) >= 3

    def diam3(g):
        return (
            not g.is_complete() and P.diameter(g) == 3 and P.connectivity(g) >= 2
        )

    seeds = _rng(seed, "color")
    tec = [
        g
        for n in range(10, 15)
        for g in P.corpus.random_graphs_with(three_ec, COLOR_3EC_PER_N, (n, n), seeds.getrandbits(32))
    ]
    d3 = [
        g
        for n in range(11, 15)
        for g in P.corpus.random_graphs_with(
            diam3, COLOR_DIAM3_PER_N, (n, n), seeds.getrandbits(32), m_frac=(1.2, 2.0)
        )
    ]
    gadgets = [
        (f"{v}{s}", _plain(P.build_counterexample(v, s)[0])) for v, s in COLOR_GADGETS
    ]
    inputs = {"3ec": [_plain(g) for g in tec], "diam3": [_plain(g) for g in d3], "gadgets": gadgets}
    for n, edges in inputs["3ec"]:
        deg = Counter(x for e in edges for x in e)
        _require(checks.is_connected(n, edges) and min(deg.values()) >= 3, "3ec graph")
    for n, edges in inputs["diam3"]:
        _require(max(checks.eccentricities(n, edges)) == 3, "diameter-3 graph")
    return inputs


def color_items(P, inputs) -> list[Item]:
    items = []

    def item(item_id, kind, fn_name, n, edges, k, strong):
        def call(ctx):
            c = getattr(P, fn_name)(P.Graph(n, edges))
            return f"k={c.k}", c

        # Any coloring that passes the check is a right answer, so colorer
        # verdicts are not pinned.
        check = _coloring_check(n, edges, k, strong=strong)
        return Item(item_id, kind, call, check, pinned=False)

    for i, (n, edges) in enumerate(inputs["3ec"]):
        items.append(item(f"3ec-{i:03d}", "3ec", "color_3ec", n, edges, 2, True))
    for i, (n, edges) in enumerate(inputs["diam3"]):
        items.append(item(f"diam3-{i:03d}", "diam3", "color_diam3", n, edges, 2, False))
    for key, (n, edges) in inputs["gadgets"]:
        items.append(item(f"2conn-{key}", "2conn", "color_2connected_3", n, edges, 3, True))
    return items


WORKLOADS = {
    "exact": (exact_inputs, exact_items),
    "verify": (verify_inputs, verify_items),
    "refute": (refute_inputs, refute_items),
    "color": (color_inputs, color_items),
}
