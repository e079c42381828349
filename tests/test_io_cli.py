"""File formats, run reports, and the ``pc`` command-line contract."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import properconn
from properconn import (
    ColoringError,
    EdgeColoring,
    ParseError,
    ProperPathCertificate,
    RunReport,
    corpus,
    format_coloring,
    format_graph,
    parse_coloring,
    parse_graph,
    proper_path_exists,
)
from properconn.cli import main
from properconn.io import (
    format_edgelist,
    format_graph6,
    parse_edgelist,
    parse_graph6,
)

import oracles


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _graph_file(tmp_path, g, name="g.txt"):
    return _write(tmp_path, name, format_edgelist(g))


def _coloring_file(tmp_path, c, name="c.json"):
    return _write(tmp_path, name, format_coloring(c))


class TestEdgelist:
    def test_roundtrip(self):
        g = corpus.petersen()
        assert parse_edgelist(format_edgelist(g)).edges == g.edges

    def test_comments_and_blanks(self):
        g = parse_edgelist("# a triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n")
        assert (g.n, g.m) == (3, 3)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edgelist("# ok\n3 2\n0 x\n1 2\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edgelist("threevertices\n0 1\n1 2\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError, match="promises 2 edges"):
            parse_edgelist("3 2\n0 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_edgelist("2 1\n0 5\n")


class TestGraph6:
    def test_roundtrip_small(self):
        for g in (corpus.cycle(5), corpus.petersen(), corpus.complete(7)):
            assert parse_graph6(format_graph6(g)).edges == g.edges

    def test_large_instance_against_networkx(self, k33):
        import networkx as nx

        mine = format_graph6(k33).strip()
        theirs = nx.to_graph6_bytes(oracles.nxg(k33), header=False).decode().strip()
        assert mine == theirs
        back = parse_graph6(mine)
        assert back.n == 114 and back.edges == k33.edges

    def test_header_tolerated(self):
        g = corpus.cycle(4)
        assert parse_graph6(">>graph6<<" + format_graph6(g)).edges == g.edges

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_graph6("C\x01")

    def test_dispatcher(self):
        g = corpus.cycle(6)
        for fmt in ("edgelist", "graph6"):
            assert parse_graph(format_graph(g, fmt), fmt).edges == g.edges
        with pytest.raises(ParseError, match="format"):
            parse_graph("3 0\n", "dot")


class TestColoringJson:
    def test_roundtrip(self):
        g = corpus.cycle(4)
        c = EdgeColoring.from_vector(g, 2, (1, 2, 1, 2))
        back = parse_coloring(format_coloring(c), g)
        assert back.k == 2 and back.assignment == c.assignment

    def test_partial_rejected(self):
        g = corpus.cycle(4)
        text = json.dumps({"k": 2, "edges": [[0, 1, 1]]})
        with pytest.raises((ParseError, ColoringError)):
            parse_coloring(text, g)

    def test_duplicate_edge_rejected(self):
        g = corpus.path_graph(2)
        text = json.dumps({"k": 2, "edges": [[0, 1, 1], [1, 0, 2]]})
        with pytest.raises(ParseError, match="colored twice"):
            parse_coloring(text, g)

    def test_bad_color_rejected(self):
        g = corpus.path_graph(2)
        text = json.dumps({"k": 2, "edges": [[0, 1, 7]]})
        with pytest.raises((ParseError, ColoringError)):
            parse_coloring(text, g)

    @pytest.mark.parametrize(
        "obj",
        [
            {"k": 2, "edges": [[0, 1, 1], [1, 2, 1.5]]},
            {"k": 2, "edges": [[0, 1, 1], [1, 2, True]]},
            {"k": 2.5, "edges": [[0, 1, 1], [1, 2, 2]]},
            {"k": True, "edges": [[0, 1, 1], [1, 2, 1]]},
        ],
    )
    def test_non_integer_color_or_palette_rejected(self, tmp_path, capsys, obj):
        g = corpus.path_graph(3)
        text = json.dumps(obj)
        with pytest.raises(ColoringError, match="integer"):
            parse_coloring(text, g)
        gpath = _graph_file(tmp_path, g)
        assert main(["verify", gpath, _write(tmp_path, "c.json", text)]) == 2
        assert "integer" in capsys.readouterr().err


class TestRunReport:
    def test_json_shape_and_hashing(self):
        r = RunReport(command="pc exact g.txt", seed=4)
        r.add_input("graph", "3 2\n0 1\n1 2\n")
        r.result = {"value": 2}
        blob = json.loads(r.to_json())
        assert blob["command"] == "pc exact g.txt"
        assert blob["inputs"]["graph"].startswith("sha256:")
        assert blob["seed"] == 4 and blob["result"] == {"value": 2}
        assert "wall_time_s" not in blob

    def test_wall_time_included_when_set(self):
        r = RunReport(command="pc")
        r.wall_time_s = 0.25
        assert json.loads(r.to_json())["wall_time_s"] == 0.25


class TestCliExact:
    def test_k4(self, tmp_path, capsys):
        path = _graph_file(tmp_path, corpus.complete(4))
        assert main(["exact", path, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["value"] == 1

    def test_star3(self, tmp_path, capsys):
        path = _graph_file(tmp_path, corpus.star(3))
        assert main(["exact", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["value"] == 3

    def test_c5(self, tmp_path, capsys):
        path = _graph_file(tmp_path, corpus.cycle(5))
        assert main(["exact", path, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["value"] == 2
        assert blob["evidence"] == ["exhaustive"]

    def test_strong_on_a_bridge_exit_2(self, tmp_path, capsys):
        path = _graph_file(tmp_path, corpus.path_graph(3))
        assert main(["exact", path, "--strong"]) == 2
        assert "bridge (0, 1) is the only path" in capsys.readouterr().err

    def test_budget_inconclusive_exit_3(self, tmp_path, capsys):
        path = _graph_file(tmp_path, corpus.petersen())
        code = main(["exact", path, "--budget-nodes", "5", "--json"])
        assert code == 3
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["inconclusive"] is True

    def test_output_coloring_feeds_verify(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.cycle(7))
        out = str(tmp_path / "c7.json")
        assert main(["exact", gpath, "-o", out]) == 0
        capsys.readouterr()
        assert main(["verify", gpath, out]) == 0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["exact", str(tmp_path / "nope.txt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_garbage_graph_exit_2(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.txt", "not a graph\n")
        assert main(["exact", path]) == 2


class TestCliColor:
    def test_petersen_3ec(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.petersen())
        out = str(tmp_path / "c.json")
        assert main(["color", gpath, "--method", "3ec", "--json", "-o", out]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["proper_connected"] is True
        assert blob["result"]["strong"] is True
        assert "re-verified" in blob["evidence"]
        capsys.readouterr()
        assert main(["verify", gpath, out, "--strong"]) == 0

    def test_c7_diam3(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.cycle(7))
        assert main(["color", gpath, "--method", "diam3", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["proper_connected"] is True
        assert blob["result"]["colors_used"] == 2

    def test_c5_3ec_precondition_exit_2(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.cycle(5))
        assert main(["color", gpath, "--method", "3ec"]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_bipartite_method(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.hypercube(3))
        assert main(["color", gpath, "--method", "bipartite", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["strong"] is True

    def test_explain_prints_decomposition(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.cycle(7))
        assert main(["color", gpath, "--method", "diam3", "--explain", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["decomposition"]["case"] == "Case2_OddCycle"
        assert blob["result"]["decomposition"]["odd_cycle"] == list(range(7))


class TestCliVerify:
    def test_c4_strong(self, tmp_path, capsys):
        g = corpus.cycle(4)
        gpath = _graph_file(tmp_path, g)
        alternating = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
        cpath = _coloring_file(tmp_path, EdgeColoring(2, alternating))
        assert main(["verify", gpath, cpath, "--strong", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["proper_connected"] is True
        assert blob["result"]["strong"] is True

    def test_p3_fails_with_pair(self, tmp_path, capsys):
        g = corpus.path_graph(3)
        gpath = _graph_file(tmp_path, g)
        cpath = _coloring_file(tmp_path, EdgeColoring.from_vector(g, 2, (1, 1)))
        assert main(["verify", gpath, cpath, "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["proper_connected"] is False
        assert blob["result"]["failing_pair"] == [0, 2]

    def test_k4_all_one_not_strong(self, tmp_path, capsys):
        g = corpus.complete(4)
        gpath = _graph_file(tmp_path, g)
        cpath = _coloring_file(tmp_path, EdgeColoring(2, {e: 1 for e in g.edges}))
        assert main(["verify", gpath, cpath]) == 0
        capsys.readouterr()
        assert main(["verify", gpath, cpath, "--strong", "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["proper_connected"] is True
        assert blob["result"]["strong"] is False

    def test_partial_coloring_exit_2(self, tmp_path, capsys):
        g = corpus.cycle(4)
        gpath = _graph_file(tmp_path, g)
        cpath = _write(tmp_path, "part.json", json.dumps({"k": 2, "edges": [[0, 1, 1]]}))
        assert main(["verify", gpath, cpath]) == 2

    @pytest.mark.parametrize("opt", (["--jobs", "4"], ["--budget-nodes", "1"]))
    def test_options_it_does_not_read_are_rejected(self, tmp_path, capsys, opt):
        g = corpus.cycle(4)
        gpath = _graph_file(tmp_path, g)
        cpath = _coloring_file(tmp_path, EdgeColoring.from_vector(g, 2, (1, 2, 1, 2)))
        with pytest.raises(SystemExit) as exc:
            main(["verify", gpath, cpath, *opt])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @staticmethod
    def _cap_graph(tmp_path):
        """A graph on which the path DFS overruns its step budget."""
        rng = random.Random(0)
        g = corpus.random_connected(60, 140, rng)
        c = EdgeColoring.from_vector(g, 3, [rng.randint(1, 3) for _ in range(g.m)])
        return g, c, _graph_file(tmp_path, g), _coloring_file(tmp_path, c)

    def test_path_step_cap_graph_gets_a_verdict(self, tmp_path, capsys):
        # The single-path queries the DFS cannot settle within its budget go
        # to the matching fallback, so this input gets an exact verdict; every
        # pair is confirmed by a validated certificate.
        g, c, gpath, cpath = self._cap_graph(tmp_path)
        assert main(["verify", gpath, cpath, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == {"proper_connected": True}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                cert = proper_path_exists(g, c, u, v)
                assert cert is not None and (cert.path[0], cert.path[-1]) == (u, v)
                cert.validate(g, c)

    def test_path_step_cap_graph_is_not_strong(self, tmp_path, capsys, end_profiles):
        # The strong check settles every pair too. This input is properly
        # connected but not strongly: pair (0, 2) has only the profiles
        # (2, 2) and (3, 2), which share their color at 2.
        g, c, gpath, cpath = self._cap_graph(tmp_path)
        assert main(["verify", gpath, cpath, "--strong", "--json"]) == 1
        result = json.loads(capsys.readouterr().out)["result"]
        assert result == {"proper_connected": True, "strong": False, "failing_pair": [0, 2]}
        assert end_profiles(g, c, 0, 2) == {(2, 2), (3, 2)}


class TestCliSample:
    def test_p3_always_fails(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.path_graph(3))
        assert main(["sample", gpath, "-k", "1", "-t", "10", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["result"]["failures"]) == 10
        assert blob["result"]["successes"] == []
        assert all(f["pair"] == [0, 2] for f in blob["result"]["failures"])
        assert "all-samples-fail" in blob["evidence"]

    def test_k4_successes_reported_loudly(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.complete(4))
        assert main(["sample", gpath, "-k", "1", "-t", "5", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["successes"] == [0, 1, 2, 3, 4]
        assert blob["result"]["failures"] == []
        assert "proper-connecting-samples-found" in blob["evidence"]

    def test_disagreement_is_a_failed_verification(self, tmp_path, capsys, monkeypatch):
        # the re-check finds a path for the pair the check called failing
        from properconn import solver

        g = corpus.path_graph(3)
        cert = ProperPathCertificate((0, 1, 2), (1, 2))
        monkeypatch.setattr(solver, "proper_path_exists", lambda *args: cert)
        gpath = _graph_file(tmp_path, g)
        assert main(["sample", gpath, "-k", "1", "-t", "3", "--json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pc: verification failed: internal disagreement: pair (0, 2)")


class TestCliGenRefute:
    def test_gen_mini(self, tmp_path, capsys):
        gout = str(tmp_path / "mini.txt")
        sout = str(tmp_path / "mini.json")
        code = main(
            ["gen", "counterexample", "--variant", "mini", "--scale", "1",
             "-o", gout, "--spec", sout, "--json"]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["n"] == 27
        assert blob["result"]["m"] == 30
        assert blob["result"]["structure_ok"] is True
        assert blob["result"]["checks"]["kappa_2"] is True
        g = parse_graph((tmp_path / "mini.txt").read_text(), "edgelist")
        assert g.n == 27
        spec_blob = json.loads((tmp_path / "mini.json").read_text())
        assert spec_blob["variant"] == "mini"

    def test_gen_graph6_output(self, tmp_path, capsys):
        gout = str(tmp_path / "k33.g6")
        code = main(
            ["gen", "counterexample", "--variant", "k33", "--format", "graph6",
             "-o", gout]
        )
        assert code == 0
        capsys.readouterr()
        assert parse_graph6((tmp_path / "k33.g6").read_text()).n == 114

    def test_refute_all_defeated(self, tmp_path, capsys):
        gout = str(tmp_path / "mini.txt")
        sout = str(tmp_path / "mini.json")
        main(["gen", "counterexample", "--variant", "mini",
              "-o", gout, "--spec", sout])
        capsys.readouterr()
        rpt = str(tmp_path / "report.json")
        code = main(
            ["refute", gout, sout, "--trials", "100", "--seed", "7",
             "--json", "--report", rpt]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["result"]["trials"] == 100
        assert blob["result"]["defeated"] == 100
        assert len(blob["result"]["witnesses"]) == 100
        assert blob["result"]["survivors"] == []
        assert "all-defeated" in blob["evidence"]
        assert "witnesses-re-verified" in blob["evidence"]
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["result"]["trials"] == 100

    def test_refute_jobs_match_serial(self, tmp_path, capsys):
        gout = str(tmp_path / "mini.txt")
        sout = str(tmp_path / "mini.json")
        main(["gen", "counterexample", "--variant", "mini",
              "-o", gout, "--spec", sout])
        capsys.readouterr()
        main(["refute", gout, sout, "--trials", "12", "--seed", "3",
              "--deterministic", "--json"])
        serial = capsys.readouterr().out
        main(["refute", gout, sout, "--trials", "12", "--seed", "3",
              "--deterministic", "--jobs", "2", "--json"])
        parallel = capsys.readouterr().out
        assert json.loads(serial)["result"]["witnesses"] == (
            json.loads(parallel)["result"]["witnesses"]
        )


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.cycle(5))
        main(["exact", gpath, "--deterministic", "--json"])
        first = capsys.readouterr().out
        main(["exact", gpath, "--deterministic", "--json"])
        second = capsys.readouterr().out
        assert first == second
        assert "wall_time_s" not in json.loads(first)

    def test_wall_time_present_otherwise(self, tmp_path, capsys):
        gpath = _graph_file(tmp_path, corpus.cycle(5))
        main(["exact", gpath, "--json"])
        assert "wall_time_s" in json.loads(capsys.readouterr().out)


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        gpath = _graph_file(tmp_path, corpus.complete(4))
        # the child imports the same package as this process, installed or not
        src = str(pathlib.Path(properconn.__file__).parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "properconn.cli", "exact", gpath, "--json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["value"] == 1
