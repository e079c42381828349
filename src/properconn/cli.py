"""``pc`` command-line interface.

Subcommands: ``exact`` (smallest palette size by exhaustive search), ``color``
(constructive colorers for bipartite / 3-edge-connected / 2-connected /
diameter-3 inputs), ``verify`` (check a coloring file), ``gen`` (emit a
counterexample-family instance with its structural description), and
``refute`` (defeat random 2-colorings of such an instance).

Exit codes: 0 success, 1 property failed, 2 input error, 3 inconclusive
(search budget exhausted). Every run emits a report — pretty text by default,
JSON with ``--json`` — that pins down reproduction: command echo, sha256 of
each input, seed, package version. With ``--deterministic`` the wall time is
omitted so identical runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Optional

from .graph import Graph, PreconditionError, InternalError, bipartition, edge_connectivity
from .coloring import (
    ColoringError,
    EdgeColoring,
    is_proper_connected,
    has_strong_property,
)
from .solver import SearchBudgetExceeded, pc_exact, sample_refute, seeded_trials
from .construct import (
    classify_diam3,
    color_2connected_3,
    color_3ec,
    color_diam3,
    strong_2_coloring_bipartite,
)
from .counterexample import (
    VARIANTS,
    GadgetSpec,
    build_counterexample,
    refute_2_coloring,
    verify_gadget_structure,
)
from .io import (
    ParseError,
    RunReport,
    format_coloring,
    format_graph,
    parse_coloring,
    parse_graph,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")


def _write_file(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def _load_graph(report: RunReport, path: str, fmt: str) -> Graph:
    text = _read_file(path)
    report.add_input("graph", text)
    return parse_graph(text, fmt)


def _coloring_rows(c: EdgeColoring) -> list:
    return [[u, v, c.assignment[(u, v)]] for u, v in sorted(c.assignment)]


def _render_value(key: str, value, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        out = [f"{pad}{key}:"]
        for k in value:
            out.extend(_render_value(str(k), value[k], indent + 1))
        return out
    if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        out = [f"{pad}{key}: ({len(value)} entries)"]
        for item in value[:20]:
            out.append(f"{pad}  {item}")
        if len(value) > 20:
            out.append(f"{pad}  ... {len(value) - 20} more")
        return out
    return [f"{pad}{key}: {value}"]


def _render_text(report: RunReport) -> str:
    lines = [f"command: {report.command}", f"version: {report.version}"]
    for label in sorted(report.inputs):
        lines.append(f"input {label}: {report.inputs[label]}")
    if report.seed is not None:
        lines.append(f"seed: {report.seed}")
    for key in report.result:
        lines.extend(_render_value(key, report.result[key], 0))
    if report.evidence:
        lines.append("evidence: " + ", ".join(report.evidence))
    if report.wall_time_s is not None:
        lines.append(f"wall time: {report.wall_time_s:.3f}s")
    return "\n".join(lines) + "\n"


def _emit(report: RunReport, args, t0: float) -> None:
    if not args.deterministic:
        report.wall_time_s = time.perf_counter() - t0
    text = report.to_json() if args.json else _render_text(report)
    sys.stdout.write(text)
    if getattr(args, "report", None):
        _write_file(args.report, report.to_json())


# -- subcommands ---------------------------------------------------------------


def _cmd_exact(args, report: RunReport) -> int:
    g = _load_graph(report, args.graph, args.format)
    res = pc_exact(
        g,
        k_max=args.kmax,
        budget_nodes=args.budget_nodes,
        require_strong=args.strong,
    )
    report.result = {
        "value": res.value,
        "strong": args.strong,
        "coloring": _coloring_rows(res.coloring),
        "nodes": res.stats["nodes"],
    }
    # palettes below a bound of 2 or more were skipped by the bridge lemma,
    # not searched
    bound = ["bridge-bound"] if res.stats["lower_bound"] >= 2 else []
    report.evidence = bound + [res.evidence]
    if args.output:
        _write_file(args.output, format_coloring(res.coloring))
    return EXIT_OK


_METHODS = {
    "bipartite": strong_2_coloring_bipartite,
    "3ec": color_3ec,
    "2conn": color_2connected_3,
    "diam3": color_diam3,
}


def _cmd_color(args, report: RunReport) -> int:
    g = _load_graph(report, args.graph, args.format)
    explain: dict = {}
    if args.explain and args.method == "diam3":
        dec = classify_diam3(g)
        explain["case"] = dec.case_tag
        if dec.cut is not None:
            explain["cut"] = [list(e) for e in dec.cut]
            explain["hubs"] = list(dec.hubs)
        if dec.q:
            explain["q_sets"] = {name: list(vs) for name, vs in sorted(dec.q.items())}
        if dec.odd_cycle:
            explain["odd_cycle"] = list(dec.odd_cycle)
        if dec.core is not None:
            explain["core_vertices"] = sorted(dec.core.vertices)
        if dec.classes:
            explain["classes"] = [
                {
                    "attachments": list(ab),
                    "components": [list(dec.pair_components[i]) for i in idxs],
                }
                for ab, idxs in dec.classes
            ]
    elif args.explain and args.method == "bipartite":
        sides = bipartition(g)
        if sides is not None:
            explain["sides"] = [sorted(sides.side_u), sorted(sides.side_v)]
    elif args.explain and args.method == "3ec":
        explain["edge_connectivity"] = edge_connectivity(g)
    c = _METHODS[args.method](g)
    ok, pair = is_proper_connected(g, c)
    strong_ok: Optional[bool] = None
    if args.method in ("bipartite", "3ec"):
        strong_ok = has_strong_property(g, c).ok
    report.result = {
        "method": args.method,
        "colors_used": c.colors_used(),
        "coloring": _coloring_rows(c),
        "proper_connected": ok,
    }
    if strong_ok is not None:
        report.result["strong"] = strong_ok
    if explain:
        report.result["decomposition"] = explain
    report.evidence = ["constructive", "re-verified"]
    if args.output:
        _write_file(args.output, format_coloring(c))
    if not ok or strong_ok is False:
        report.result["failing_pair"] = list(pair) if pair else None
        return EXIT_PROPERTY_FAILED
    return EXIT_OK


def _cmd_verify(args, report: RunReport) -> int:
    g = _load_graph(report, args.graph, args.format)
    ctext = _read_file(args.coloring)
    report.add_input("coloring", ctext)
    c = parse_coloring(ctext, g)
    ok, pair = is_proper_connected(g, c)
    report.result = {"proper_connected": ok}
    report.evidence = ["exact-check"]
    if not ok:
        report.result["failing_pair"] = list(pair)
        return EXIT_PROPERTY_FAILED
    if args.strong:
        check = has_strong_property(g, c)
        report.result["strong"] = check.ok
        if not check.ok:
            report.result["failing_pair"] = list(check.failing_pair)
            return EXIT_PROPERTY_FAILED
        report.result["witness_pairs"] = len(check.witnesses)
    return EXIT_OK


def _cmd_sample(args, report: RunReport) -> int:
    g = _load_graph(report, args.graph, args.format)
    seed = args.seed if args.seed is not None else 0
    report.seed = seed
    res = sample_refute(g, args.k, args.trials, seed, jobs=args.jobs)
    report.result = {
        "k": args.k,
        "trials": args.trials,
        "failures": [
            {"trial": s.trial, "pair": list(s.pair)} for s in res.failures
        ],
        "successes": [t for t, _ in res.successes],
    }
    # Successes are not an error here — sampling a colorable graph is a valid
    # experiment — but they are the headline when present.
    report.evidence = (
        ["proper-connecting-samples-found"] if res.successes else ["all-samples-fail"]
    )
    return EXIT_OK


def _cmd_gen(args, report: RunReport) -> int:
    g, spec = build_counterexample(args.variant, args.scale)
    structure = verify_gadget_structure(g, spec)
    report.result = {
        "variant": args.variant,
        "scale": args.scale,
        "n": g.n,
        "m": g.m,
        "structure_ok": structure.ok,
        "checks": {name: passed for name, (passed, _) in structure.checks.items()},
    }
    report.evidence = ["structure-verified" if structure.ok else "structure-FAILED"]
    if args.output:
        _write_file(args.output, format_graph(g, args.format))
        report.result["graph_file"] = args.output
    if args.spec:
        _write_file(args.spec, spec.to_json())
        report.result["spec_file"] = args.spec
    return EXIT_OK if structure.ok else EXIT_PROPERTY_FAILED


def _cmd_refute(args, report: RunReport) -> int:
    g = _load_graph(report, args.graph, args.format)
    stext = _read_file(args.spec)
    report.add_input("spec", stext)
    spec = GadgetSpec.from_json(stext)
    seed = args.seed if args.seed is not None else 0
    report.seed = seed
    check = functools.partial(refute_2_coloring, g, spec)
    found = seeded_trials(g, 2, args.trials, seed, check, args.jobs)
    witnesses = [
        {"trial": t, "pair": list(w.pair), "strategy": w.strategy}
        for t, (_c, w) in enumerate(found)
        if w is not None
    ]
    survivors = [t for t, (_c, w) in enumerate(found) if w is None]
    report.result = {
        "trials": args.trials,
        "defeated": len(witnesses),
        "witnesses": witnesses,
        "survivors": survivors,
    }
    if survivors:
        # A surviving coloring means the instance IS 2-colorable: that is a
        # refutation of the family's design and must fail loudly.
        report.evidence = ["SURVIVOR-FOUND"]
        return EXIT_PROPERTY_FAILED
    report.evidence = ["all-defeated", "witnesses-re-verified"]
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("edgelist", "graph6"),
        default="edgelist",
        help="graph file format (default: edgelist)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="omit wall time so identical runs emit identical reports",
    )
    p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
    p.add_argument("--report", metavar="FILE", help="also write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pc",
        description="Proper-connection colorings: exact search, constructions, "
        "verification, and the 2-connected/min-degree-3 counterexample family.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("exact", help="smallest palette size, by exhaustive search")
    p.add_argument("graph")
    p.add_argument("--kmax", type=int, default=None, help="largest palette to try")
    p.add_argument(
        "--strong", action="store_true", help="require the strong variant"
    )
    p.add_argument("-o", "--output", metavar="FILE", help="write witness coloring")
    p.add_argument(
        "--budget-nodes",
        type=int,
        default=None,
        help="search-node budget; exhausting it exits 3 (inconclusive)",
    )
    _add_common(p)
    p.set_defaults(run=_cmd_exact)

    p = sub.add_parser("color", help="construct a coloring for a supported class")
    p.add_argument("graph")
    p.add_argument(
        "--method",
        choices=tuple(_METHODS),
        required=True,
        help="bipartite (bridgeless), 3ec, 2conn, or diam3",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="include the structural decomposition in the report",
    )
    p.add_argument("-o", "--output", metavar="FILE", help="write the coloring")
    _add_common(p)
    p.set_defaults(run=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument(
        "--strong", action="store_true", help="also require the strong property"
    )
    _add_common(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("sample", help="random k-colorings with failing pairs")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True, help="palette size")
    p.add_argument("-t", "--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1, help="worker count")
    _add_common(p)
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("gen", help="generate a counterexample-family instance")
    p.add_argument("target", choices=("counterexample",))
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("-o", "--output", metavar="FILE", help="write the graph here")
    p.add_argument("--spec", metavar="FILE", help="write the structural JSON here")
    _add_common(p)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("refute", help="defeat random 2-colorings of an instance")
    p.add_argument("graph")
    p.add_argument("spec", help="structural JSON emitted by gen")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1, help="worker count")
    _add_common(p)
    p.set_defaults(run=_cmd_refute)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    report = RunReport(command="pc " + " ".join(argv), seed=args.seed)
    t0 = time.perf_counter()
    try:
        code = args.run(args, report)
    except SearchBudgetExceeded as exc:
        report.result = {
            "inconclusive": True,
            "lower_bound": exc.lower,
            "nodes": exc.nodes,
        }
        report.evidence = ["budget-exhausted"]
        _emit(report, args, t0)
        print(f"pc: inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ParseError, ColoringError, PreconditionError, OSError) as exc:
        print(f"pc: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalError as exc:
        print(f"pc: verification failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    _emit(report, args, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
