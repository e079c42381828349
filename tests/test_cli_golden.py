"""``--deterministic`` CLI reports pinned against a recorded golden file.

Each case runs one ``pc`` command with ``--deterministic --json`` and compares
its exit code, ``result`` and ``evidence`` with ``golden/cli_reports.json``.
The inputs are generated here from fixed seeds. Re-record the file only when a
report is meant to change, by running this module as a script from the
repository root::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import pathlib
import random
import sys

import pytest

from properconn import EdgeColoring, corpus, format_coloring, format_graph
from properconn.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_reports.json"


def _verify_inputs():
    """Two small colored graphs: one strongly properly connected, one that
    fails proper connectivity."""
    rng = random.Random(3)
    strong = corpus.random_connected(10, 20, rng)
    strong_c = EdgeColoring.from_vector(
        strong, 3, [rng.randint(1, 3) for _ in range(strong.m)]
    )
    rng = random.Random(0)
    failing = corpus.random_connected(12, 18, rng)
    failing_c = EdgeColoring.from_vector(
        failing, 2, [rng.randint(1, 2) for _ in range(failing.m)]
    )
    return {"strong": (strong, strong_c), "failing": (failing, failing_c)}


def _exact_inputs():
    """Graphs for ``pc exact``: a seeded tree with maximum degree 4 and a
    small cycle."""
    rng = random.Random(7)
    while True:
        tree = corpus.random_connected(11, 10, rng)
        if tree.max_degree() == 4:
            break
    return {"tree4": tree, "cycle6": corpus.cycle(6)}


def _files(d: pathlib.Path) -> dict[str, str]:
    """Write every input file into ``d``; name -> path."""
    paths = {}

    def write(name, text):
        p = d / name
        p.write_text(text)
        paths[name] = str(p)

    for variant in ("mini", "k33"):
        code = main(
            ["gen", "counterexample", "--variant", variant, "--deterministic",
             "-o", str(d / f"{variant}.txt"), "--spec", str(d / f"{variant}.json")]
        )
        assert code == 0
        paths[f"{variant}.txt"] = str(d / f"{variant}.txt")
        paths[f"{variant}.json"] = str(d / f"{variant}.json")
    for name, (g, c) in _verify_inputs().items():
        write(f"{name}.txt", format_graph(g, "edgelist"))
        write(f"{name}-c.json", format_coloring(c))
    for name, g in _exact_inputs().items():
        write(f"{name}.txt", format_graph(g, "edgelist"))
    return paths


CASES = {
    "gen-mini": lambda f: ["gen", "counterexample", "--variant", "mini"],
    "refute-mini": lambda f: ["refute", f["mini.txt"], f["mini.json"],
                              "--trials", "6", "--seed", "4"],
    "refute-k33": lambda f: ["refute", f["k33.txt"], f["k33.json"],
                             "--trials", "3", "--seed", "2"],
    "verify-strong": lambda f: ["verify", f["strong.txt"], f["strong-c.json"]],
    "verify-strong-strong": lambda f: ["verify", f["strong.txt"], f["strong-c.json"],
                                       "--strong"],
    "verify-failing": lambda f: ["verify", f["failing.txt"], f["failing-c.json"]],
    "verify-failing-strong": lambda f: ["verify", f["failing.txt"],
                                        f["failing-c.json"], "--strong"],
    "color-2conn-mini": lambda f: ["color", f["mini.txt"], "--method", "2conn"],
    "exact-tree4": lambda f: ["exact", f["tree4.txt"]],
    "exact-failing": lambda f: ["exact", f["failing.txt"]],
    "exact-cycle6-strong": lambda f: ["exact", f["cycle6.txt"], "--strong"],
    "exact-mini-budget": lambda f: ["exact", f["mini.txt"], "--budget-nodes", "5000"],
}


def _report(argv, read_out) -> dict:
    """Run one command; ``read_out()`` returns what it printed."""
    code = main([*argv, "--deterministic", "--json"])
    blob = json.loads(read_out())
    return {"exit": code, "result": blob["result"], "evidence": blob["evidence"]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return _files(tmp_path_factory.mktemp("golden-inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, files, capsys):
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text())
    assert _report(CASES[name](files), lambda: capsys.readouterr().out) == golden[name]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    buf = io.StringIO()

    def read_out() -> str:
        out = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return out

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        f = _files(pathlib.Path(tmp))
        read_out()
        reports = {name: _report(CASES[name](f), read_out) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}", file=sys.stderr)
