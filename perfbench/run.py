"""properconn benchmark: four workloads, end-to-end metrics, traced layers.

Usage, from the repository root:

    python3 perfbench/run.py                          # all workloads, seed 0
    python3 perfbench/run.py --workload verify --seed 3 --seconds 20
    python3 perfbench/run.py --trace 1                # per-layer metrics
    python3 perfbench/run.py --selfcheck              # counters repeat exactly
    python3 perfbench/run.py --write-pins             # re-pin default-seed verdicts

One process, one thread, no worker pool. A workload run makes its inputs from
the seed (three times; ``setup_s`` takes the median and adds the import and
one warm-up call), then times passes over its fixed batch of items: as many
whole passes as fit in ``--seconds`` judged by the first pass's calibrated
time, at least one.
``wall_s`` is the median pass time; an item's time is its median over passes.
Every time is scaled to a reference machine speed measured during the run
(see speed.py); the record keeps the raw times.
After the first pass, every answer is re-checked outside the timed region
(see checks.py) and, at the default seed, compared with the verdicts pinned
in pins.json.

With ``--trace 1`` a run makes one plain pass, then wraps every public
function of the seven layers (see tracer.py) and makes one traced pass. It
reports calls, total and self time per function, solver and refutation
counters, failure counters, and the tracing overhead (traced minus plain pass
time). Spans are written to .perfbench_out/ when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record (machine,
counters, tail percentile, verdict digest) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"

DEFAULT_SEED = 0
SETUP_REPS = 3
ITEM_DEADLINE_S = 60.0
TAIL_LADDER = (99.9, 99.0, 90.0)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
TRACED_FUNCTIONS = (
    "coloring.proper_walk_reach",
    "coloring.is_proper_connected",
    "coloring.has_strong_property",
    "coloring.certificate_from_path",
    "coloring.proper_path_exists",
    "solver.exists_pc_coloring",
    "solver.pc_exact",
    "construct.color_3ec",
    "construct.color_diam3",
    "construct.classify_diam3",
    "construct.color_2connected_3",
    "construct.lift_spanning_coloring",
    "construct.strong_2_coloring_bipartite",
    "graph.edge_connectivity",
    "graph.connectivity",
    "graph.max_cut_bipartite_subgraph",
    "graph.bridges",
    "graph.all_pairs_distances",
    "counterexample.refute_2_coloring",
    "counterexample.find_one_way_vertex",
    "io.parse_graph",
    "io.parse_coloring",
    "corpus.random_connected",
    "corpus.random_graphs_with",
)
STRATEGIES = ("walk-filter", "one-way", "exhaustive")
FAILURES = ("internal_error", "budget", "wrong_answer", "deadline")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for fn in TRACED_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.total_s"] = "s"
        units[f"{fn}.self_s"] = "s"
    units.update({"solver.nodes": "count", "solver.leaves": "count", "solver.us_per_node": "us"})
    units.update({f"counterexample.strategy.{s}": "count" for s in STRATEGIES})
    units.update({f"fail.{k}": "count" for k in FAILURES})
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER_UNITS = _per_layer_units()


class ItemDeadline(BaseException):
    """Raised by SIGALRM inside an item that overran its deadline."""


def _on_alarm(signum, frame):
    raise ItemDeadline()


class PassContext:
    """State one pass shares across its items: graphs reused on purpose
    (refute) and counters the items can read without tracing."""

    def __init__(self):
        self.graphs: dict = {}
        self.counters: Counter = Counter()


def load_program(clock):
    """Import properconn from this checkout's src/, timing the import."""
    src = ROOT / "src"
    if not (src / "properconn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no properconn sources under {src}")
    sys.path.insert(0, str(src))
    t0 = clock()
    import properconn

    import_s = clock() - t0
    if Path(properconn.__file__).resolve().parent != src / "properconn":
        raise SystemExit(f"perfbench: imported properconn from {properconn.__file__}")
    return properconn, import_s


def warm_up(P, clock) -> float:
    """One untimed call after import, so lazy first-call costs land in set-up."""
    t0 = clock()
    g = P.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    P.is_proper_connected(g, P.EdgeColoring.from_vector(g, 2, [1, 2, 1, 2]))
    return clock() - t0


def machine(P) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "properconn": P.__version__,
        "commit": _commit(),
        "platform": platform.platform(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# -- one pass ----------------------------------------------------------------------


def run_pass(P, items, meter, tracer=None):
    """Run every item once. Returns (wall, item times, raw item times,
    outcomes, counters, (raw wall, speed scale)); wall and item times are
    scaled to the reference speed (see speed.py), and an outcome is
    (status, verdict, payload)."""
    ctx = PassContext()
    outcomes = []
    raw = []
    scaled = []
    clock = meter.now
    t_pass = clock()
    for it in items:
        if tracer is not None:
            tracer.item = it.id
        signal.setitimer(signal.ITIMER_REAL, ITEM_DEADLINE_S)
        t0 = clock()
        try:
            verdict, payload = it.call(ctx)
            status = "ok"
        except P.SearchBudgetExceeded as exc:
            status, verdict, payload = "budget", f"SearchBudgetExceeded: {exc}", None
        except P.InternalError as exc:
            status, verdict, payload = "internal_error", f"InternalError: {exc}", None
        except ItemDeadline:
            status, verdict, payload = "deadline", "deadline", None
        except Exception as exc:  # any other raise is a wrong answer, recorded
            status, verdict, payload = "wrong_answer", f"{type(exc).__name__}: {exc}", None
        t1 = clock()
        signal.setitimer(signal.ITIMER_REAL, 0)
        outcomes.append((status, verdict, payload))
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * meter.scale(t0, t1))
    t_end = clock()
    if tracer is not None:
        tracer.item = "setup"
    raw_wall = t_end - t_pass
    scale = meter.scale(t_pass, t_end)
    return raw_wall * scale, scaled, raw, outcomes, ctx.counters, (raw_wall, scale)


def check_outcomes(items, outcomes, times, pins):
    """Classify every item after the first pass. Returns (status per item,
    reasons, count of claims the reference checks could not settle).

    ``pins`` holds one workload's pinned verdicts: the usual verdict per item
    kind, and the items whose verdict differs from it."""
    import checks

    statuses = []
    reasons = {}
    unsettled = 0
    for it, (status, verdict, payload), t in zip(items, outcomes, times):
        if status == "ok":
            try:
                why = it.check(payload)
            except checks.Unsettled:
                why = None
                unsettled += 1
            if why is None and pins is not None and it.pinned:
                pinned = pins["except"].get(it.id, pins["usual"].get(it.kind))
                if pinned is not None and pinned != verdict:
                    why = f"verdict {verdict!r} differs from pinned {pinned!r}"
            if why is not None:
                status = "wrong_answer"
                reasons[it.id] = why
        if status == "ok" and t > ITEM_DEADLINE_S:
            status = "deadline"
        if status != "ok" and it.id not in reasons:
            reasons[it.id] = verdict
        statuses.append(status)
    return statuses, reasons, unsettled


def digest(items, outcomes) -> str:
    h = hashlib.sha256()
    for it, (_status, verdict, _payload) in zip(items, outcomes):
        h.update(f"{it.id} {verdict}\n".encode())
    return h.hexdigest()


def tail(values):
    """(percentile, value, samples beyond) at the highest ladder percentile
    with at least ten samples beyond it; the median when none has."""
    xs = sorted(values)
    for p in TAIL_LADDER:
        rank = -(-len(xs) * p // 100)  # nearest rank, 1-based
        beyond = len(xs) - int(rank)
        if beyond >= 10:
            return p, xs[int(rank) - 1], beyond
    return 50.0, statistics.median(xs), len(xs) // 2


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload ------------------------------------------------------------------


def make_batch(P, name, seed):
    import workloads

    make_inputs, make_items = workloads.WORKLOADS[name]
    return make_items(P, make_inputs(P, seed))


def run_workload(P, name, seed, seconds, trace, boot, pins_all):
    """Set up, time and check one workload. ``boot`` holds the meter, its
    clock reading before the import, and the import and warm-up times."""
    meter = boot["meter"]
    setup_runs = []
    for _ in range(SETUP_REPS):
        t0 = meter.now()
        items = make_batch(P, name, seed)
        setup_runs.append(meter.now() - t0)
    setup_raw = boot["import_s"] + boot["warm_s"] + statistics.median(setup_runs)
    setup_scale = meter.scale(boot["t0"], meter.now())
    setup_s = setup_raw * setup_scale

    pins = pins_all.get(name) if seed == DEFAULT_SEED else None
    gc.collect()
    wall, times, raw, outcomes, counters, (raw_wall, scale) = run_pass(P, items, meter)
    walls, raw_walls, scales = [wall], [raw_wall], [scale]
    per_item = [[t] for t in times]
    t0 = time.perf_counter()
    statuses, reasons, unsettled = check_outcomes(items, outcomes, raw, pins)
    check_s = time.perf_counter() - t0
    first_digest = digest(items, outcomes)
    del outcomes  # so later passes start with the same live objects
    repeat_mismatch = 0
    # The pass count follows the calibrated pass time, so it does not change
    # with the machine's speed.
    for _ in range(0 if trace else int(seconds // wall) - 1):
        gc.collect()
        wall, times, _raw, again, _, (raw_wall, scale) = run_pass(P, items, meter)
        walls.append(wall)
        raw_walls.append(raw_wall)
        scales.append(scale)
        for acc, t in zip(per_item, times):
            acc.append(t)
        if digest(items, again) != first_digest:
            repeat_mismatch += 1
        del again

    item_s = [statistics.median(ts) for ts in per_item]
    fails = Counter(s for s in statuses if s != "ok")
    n = len(items)
    failed = sum(fails.values())
    tail_p, tail_v, tail_beyond = tail(item_s)
    record = {
        "workload": name,
        "seed": seed,
        "n": n,
        "passes": len(walls),
        "median_s": statistics.median(walls),
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "pass_speed_scales": scales,
        "setup_raw_s": setup_raw,
        "setup_speed_scale": setup_scale,
        "setup_runs_s": setup_runs,
        "import_s": boot["import_s"],
        "warm_up_s": boot["warm_s"],
        "tail": {"percentile": tail_p, "samples_beyond": tail_beyond, "n": n},
        "fail_frac": failed / n,
        "failures": {f"fail.{k}": fails.get(k, 0) for k in FAILURES},
        "failed_items": reasons,
        "unsettled_checks": unsettled,
        "check_s": check_s,
        "pins_checked": pins is not None,
        "verdict_digest": first_digest,
        "repeat_digest_mismatches": repeat_mismatch,
        "counters": dict(sorted(counters.items())),
        "kinds": {
            kind: {
                "n": sum(1 for it in items if it.kind == kind),
                "sum_s": sum(t for it, t in zip(items, item_s) if it.kind == kind),
                "max_s": max(t for it, t in zip(items, item_s) if it.kind == kind),
            }
            for kind in dict.fromkeys(it.kind for it in items)
        },
    }
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "item_p50_ms": statistics.median(item_s) * 1e3,
        "item_tail_ms": tail_v * 1e3,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    correct = fails.get("wrong_answer", 0) == 0 and repeat_mismatch == 0
    if trace:
        metrics = traced_metrics(P, name, seed, record, walls[0], meter)
    record["metrics"] = metrics
    return correct, n, failed, metrics, record


def traced_metrics(P, name, seed, record, untraced_wall, meter):
    from tracer import Tracer

    tracer = Tracer(meter.now)
    tracer.install(P)
    try:
        items = make_batch(P, name, seed)  # traced, so corpus calls show
        wall, _times, _raw, outcomes, pass_counters, _ = run_pass(P, items, meter, tracer)
    finally:
        tracer.uninstall()
    record["traced_digest"] = digest(items, outcomes)
    per_fn = tracer.per_function()
    out = {}
    for fn in TRACED_FUNCTIONS:
        row = per_fn.get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{fn}.calls"] = row["calls"]
        out[f"{fn}.total_s"] = row["total_s"]
        out[f"{fn}.self_s"] = row["self_s"]
    nodes = tracer.counters.get("solver.nodes", 0)
    solver_s = sum(
        per_fn.get(fn, {}).get("total_s", 0.0)
        for fn in ("solver.exists_pc_coloring", "solver.pc_exact")
    )
    out["solver.nodes"] = nodes
    out["solver.leaves"] = tracer.counters.get("solver.leaves", 0)
    out["solver.us_per_node"] = solver_s / nodes * 1e6 if nodes else 0.0
    for s in STRATEGIES:
        key = f"counterexample.strategy.{s}"
        out[key] = pass_counters.get(key, 0)
    out.update(record["failures"])
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    record["per_function"] = per_fn
    record["trace_counters"] = dict(tracer.counters)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["spans"] = len(tracer.spans)
    return out


# -- modes -------------------------------------------------------------------------


def load_pins() -> dict:
    try:
        return json.loads(PINS.read_text())
    except FileNotFoundError:
        return {}


def start(meter):
    """Start the speed meter, import the program, arm the item deadline and
    make the warm-up call. Returns the package and what set-up time needs of
    this."""
    meter.start()
    t0 = meter.now()
    P, import_s = load_program(meter.now)
    signal.signal(signal.SIGALRM, _on_alarm)
    return P, {"meter": meter, "t0": t0, "import_s": import_s, "warm_s": warm_up(P, meter.now)}


def workload_names(args) -> list[str]:
    import workloads

    return list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]


def print_summary(name, metrics, record, trace, units) -> None:
    print(f"== {name}  seed={record['seed']}  items={record['n']}  passes={record['passes']}")
    if trace:
        width = max(len(k) for k in metrics)
        for key, value in metrics.items():
            if value:
                print(f"  {key:<{width}}  {value:.6g} {units[key]}")
        print(f"  tracing overhead: {metrics['trace.overhead_s']:+.3f} s on a "
              f"{record['pass_walls_s'][0]:.3f} s untraced pass")
        return
    t = record["tail"]
    for key, unit in END_TO_END:
        extra = ""
        if key == "item_tail_ms":
            extra = f"  (p{t['percentile']:g}, {t['samples_beyond']} beyond, n={t['n']})"
        print(f"  {key:<13} {metrics[key]:.6g} {unit}{extra}")
    print(f"  fail_frac     {record['fail_frac']:.6g}  {record['failures']}")
    print(f"  speed scale   {statistics.median(record['pass_speed_scales']):.4g} "
          f"(raw pass wall {statistics.median(record['raw_pass_walls_s']):.4g} s)")
    for item_id, why in list(record["failed_items"].items())[:5]:
        print(f"    {item_id}: {why[:160]}")


def run_mode(args, meter) -> int:
    P, boot = start(meter)
    info = machine(P)
    print("machine:", json.dumps(info))
    pins = load_pins()
    units = PER_LAYER_UNITS if args.trace else dict(END_TO_END)
    names = workload_names(args)
    correct, attempted, failed, merged, records = True, 0, 0, {}, {}
    for name in names:
        ok, n, nfail, metrics, record = run_workload(
            P, name, args.seed, args.seconds, args.trace, boot, pins
        )
        records[name] = record
        print_summary(name, metrics, record, args.trace, units)
        correct &= ok
        attempted += n
        failed += nfail
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in metrics.items():
            merged[prefix + key] = {"value": value, "unit": units[key]}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"bench-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"machine": info, "workloads": records}, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def selfcheck_mode(args, meter) -> int:
    """Run each workload twice at one seed, traced; every counter, call count
    and the verdict digest must repeat exactly."""
    P, boot = start(meter)
    bad = 0
    for name in workload_names(args):
        seen = []
        for _ in range(2):
            _ok, _n, _f, metrics, record = run_workload(
                P, name, args.seed, args.seconds, True, boot, load_pins()
            )
            counts = {
                k: v for k, v in metrics.items() if PER_LAYER_UNITS[k] == "count"
            }
            counts.update(record["counters"])
            counts.update({f"{fn}.calls": row["calls"] for fn, row in record["per_function"].items()})
            seen.append((counts, record["verdict_digest"], record["traced_digest"]))
        (c1, d1, t1), (c2, d2, t2) = seen
        diffs = sorted(k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k))
        same = not diffs and d1 == d2 == t1 == t2
        bad += not same
        print(
            f"{name}: {'repeat exactly' if same else 'DIFFER'}  digest={d1[:16]}  "
            f"counters={len(c1)}" + (f"  differing: {diffs}" if diffs else "")
        )
    return 1 if bad else 0


def write_pins_mode(args, meter) -> int:
    """Record the verdict of every pinned item at the default seed."""
    import workloads

    P, boot = start(meter)
    pins = {}
    for name in workloads.WORKLOADS:
        items = make_batch(P, name, DEFAULT_SEED)
        _wall, _times, raw, outcomes, _, _ = run_pass(P, items, boot["meter"])
        statuses, reasons, _ = check_outcomes(items, outcomes, raw, None)
        if "wrong_answer" in statuses:
            print(f"{name}: answers fail their checks, not pinning: {reasons}", file=sys.stderr)
            return 1
        verdicts = [
            (it, verdict)
            for it, (status, verdict, _p) in zip(items, outcomes)
            if it.pinned and status == "ok"
        ]
        usual = {}
        for kind in dict.fromkeys(it.kind for it, _v in verdicts):
            counts = Counter(v for it, v in verdicts if it.kind == kind)
            usual[kind] = counts.most_common(1)[0][0]
        pins[name] = {
            "usual": usual,
            "except": {it.id: v for it, v in verdicts if v != usual[it.kind]},
        }
        print(f"{name}: pinned {len(verdicts)} verdicts")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", "exact", "verify", "refute", "color"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    modes = ap.add_mutually_exclusive_group()
    modes.add_argument("--selfcheck", action="store_true")
    modes.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)
    mode = selfcheck_mode if args.selfcheck else write_pins_mode if args.write_pins else run_mode
    meter = speed.Meter()
    try:
        return mode(args, meter)
    finally:
        meter.stop()


if __name__ == "__main__":
    sys.exit(main())
