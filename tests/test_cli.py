"""Command-line interface: exit codes, report determinism, round trips."""

import json

import pytest

from sepdim.cli import main

P4 = "1 2\n2 3\n3 4\n"
C4 = "1 2\n2 3\n3 4\n1 4\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4)
    return str(path)


class TestBoundDegenerate:
    def test_ok_and_roundtrip(self, p4_file, tmp_path, capsys):
        out = str(tmp_path / "fam.json")
        assert main(["bound-degenerate", p4_file, "--out", out]) == 0
        report = capsys.readouterr().out
        assert "verdict: ok" in report
        assert main(["verify", p4_file, out]) == 0

    def test_star_no_disjoint_pairs(self, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("".join(f"0 {i}\n" for i in range(1, 6)))
        assert main(["bound-degenerate", str(path)]) == 0

    def test_malformed_input(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n")
        assert main(["bound-degenerate", str(path)]) == 2

    def test_missing_file(self):
        assert main(["bound-degenerate", "/nonexistent/file"]) == 2

    def test_reports_byte_identical(self, p4_file, capsys):
        assert main(["bound-degenerate", p4_file, "--seed", "5", "--format", "structured"]) == 0
        first = capsys.readouterr().out
        assert main(["bound-degenerate", p4_file, "--seed", "5", "--format", "structured"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["verdict"] == "ok"
        assert doc["family_size"] == 2 * doc["star_forests"] * doc["base_family_size"]
        assert doc["base_generator"] == "exact"
        assert doc["verification"] == "exhaustive"

    @pytest.mark.parametrize("big", [99999999999, 2**70])
    def test_sparse_huge_ids(self, big, tmp_path, capsys):
        # arrays are sized by the vertex count, not by the largest id
        graph = tmp_path / "sparse.txt"
        graph.write_text(f"1 2\n2 3\n3 {big}\n")
        out = str(tmp_path / "fam.json")
        assert main(["bound-degenerate", str(graph), "--out", out]) == 0
        assert "verdict: ok" in capsys.readouterr().out
        assert main(["verify", str(graph), out]) == 0
        assert "verdict: ok" in capsys.readouterr().out
        assert main(["exact", str(graph), "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["separation_dimension"] == 1
        assert sorted(map(int, doc["witness_0"].split())) == [1, 2, 3, big]


class TestBoundSubdivision:
    def test_c4_size_three(self, c4_file, tmp_path, capsys):
        out = str(tmp_path / "fam.json")
        assert main(["bound-subdivision", c4_file, "--out", out, "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family_size"] == 3
        assert doc["realizer_size"] == 1
        assert doc["base_generator"] == "swap"
        assert doc["verdict"] == "ok"
        mapping = json.loads(open(out + ".subdivision.json").read())
        assert len(mapping["mids"]) == 4

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["bound-subdivision", str(path)]) == 0


class TestExact:
    def test_k3_zero(self, tmp_path, capsys):
        path = tmp_path / "k3.txt"
        path.write_text("1 2\n1 3\n2 3\n")
        assert main(["exact", str(path), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["separation_dimension"] == 0

    def test_c4_two(self, c4_file, capsys):
        assert main(["exact", c4_file, "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["separation_dimension"] == 2

    def test_exceeded_with_limit_zero(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        path.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        assert main(["exact", str(path), "--limit", "0", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["separation_dimension"] == "exceeded"

    def test_budget_exit(self, tmp_path):
        path = tmp_path / "k6.txt"
        path.write_text("".join(f"{i} {j}\n" for i in range(1, 7) for j in range(i + 1, 7)))
        assert main(["exact", str(path), "--budget", "5"]) == 3


class TestVerify:
    def test_counterexample_exit(self, c4_file, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(
            json.dumps({
                "n": 4, "ground_set": [1, 2, 3, 4],
                "permutations": [[1, 2, 3, 4]], "seed": 0, "generator": "manual",
            }) + "\n"
        )
        assert main(["verify", c4_file, str(fam)]) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_ground_set_mismatch(self, p4_file, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(
            json.dumps({
                "n": 3, "ground_set": [1, 2, 3],
                "permutations": [[1, 2, 3]], "seed": 0, "generator": "manual",
            }) + "\n"
        )
        assert main(["verify", p4_file, str(fam)]) == 2


class TestCanonicalDim:
    def test_n3(self, capsys):
        assert main(["canonical-dim", "3", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 2

    def test_n2(self, capsys):
        assert main(["canonical-dim", "2", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 1

    def test_guard(self):
        assert main(["canonical-dim", "20"]) == 3


class TestLowerHarness:
    def test_n3(self, capsys):
        assert main(["lower-harness", "3", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "exact"
        assert doc["separation_dimension"] == 2
        assert doc["bound_holds"] is True

    def test_n2_trivial(self, capsys):
        assert main(["lower-harness", "2", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["separation_dimension"] == 0

    def test_large_n_budget_but_construction_runs(self, capsys):
        assert main(["lower-harness", "10", "--format", "structured"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "construction-only"
        assert doc["realizer_valid"] is True


class TestRoundTripIntegrity:
    def test_subdivision_family_reverifies_through_cli(self, c4_file, tmp_path):
        out = str(tmp_path / "fam.json")
        assert main(["bound-subdivision", c4_file, "--out", out]) == 0
        assert main(["verify", out + ".subdivided.txt", out]) == 0
