"""Command-line interface: exit codes, report determinism, round trips."""

import dataclasses
import hashlib
import json

import pytest

from sepdim import cli, subdivided
from sepdim.cli import main
from sepdim.families import PermutationFamily, verify_pairwise_suitable

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

    def test_directory_as_out_is_input_error(self, p4_file, tmp_path, capsys):
        assert main(["bound-degenerate", p4_file, "--out", str(tmp_path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_reports_byte_identical(self, p4_file, capsys):
        assert main(["bound-degenerate", p4_file, "--format", "structured"]) == 0
        first = capsys.readouterr().out
        assert main(["bound-degenerate", p4_file, "--format", "structured"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["verdict"] == "ok"
        assert doc["family_size"] == 2 * doc["star_forests"] * doc["base_family_size"]
        assert doc["base_generator"] == "exact"
        assert doc["verification"] == "certificate"
        assert "seed" not in doc

    def test_failed_certificate_is_an_internal_error(self, p4_file, monkeypatch, capsys):
        # a family one member short fails the certificate's cover premise:
        # exit 4, one stderr line, no report and no traceback
        real = cli.degenerate_family

        def short(g):
            result = real(g)
            family = PermutationFamily(result.family.ground_set, result.family.orders[:-1])
            return dataclasses.replace(result, family=family)

        monkeypatch.setattr(cli, "degenerate_family", short)
        assert main(["bound-degenerate", p4_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: cover:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

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

    def test_unsuitable_family_is_a_counterexample(self, c4_file, monkeypatch, capsys):
        # A family one member short must reach the report as a counterexample
        # (exit 1), found by the command's single exhaustive check.
        real = subdivided.subdivision_family

        def short(g, classes):
            family, base = real(g, classes)
            # keep |family| == |F| + 2 so only the pair check can object
            fewer = dataclasses.replace(base, family=PermutationFamily(
                base.family.ground_set, base.family.orders[:-1]))
            return PermutationFamily(family.ground_set, family.orders[:-1]), fewer

        calls = []

        def counted(fam, g):
            calls.append(len(fam))
            return verify_pairwise_suitable(fam, g)

        monkeypatch.setattr(subdivided, "subdivision_family", short)
        monkeypatch.setattr(cli, "verify_pairwise_suitable", counted)
        assert main(["bound-subdivision", c4_file, "--format", "structured"]) == 1
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["verdict"] == "counterexample 1-5 | 3-7"
        assert doc["verification"] == "exhaustive"
        assert doc["family_size"] == doc["realizer_size"] + 2
        assert "Traceback" not in captured.err
        assert calls == [doc["family_size"]]


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

    def test_budget_bounds_three_members(self, tmp_path, capsys):
        path = tmp_path / "k44.txt"
        path.write_text("".join(f"{i} {j}\n" for i in range(1, 5) for j in range(5, 9)))
        assert main(["exact", str(path), "--budget", "1000"]) == 3
        assert "budget exceeded" in capsys.readouterr().err


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

    @pytest.mark.parametrize("doc", [
        {},
        [],
        {"n": 4, "ground_set": 5, "permutations": [[1, 2, 3, 4]]},
        {"n": 4, "permutations": [[1, 2, 3, 4]]},
        {"n": 4, "ground_set": [1, 2, 3, 4], "permutations": 5},
        {"n": 4, "ground_set": [[1], 2, 3, 4], "permutations": [[1, 2, 3, 4]]},
        {"n": 4, "ground_set": [1, 2, 3, 4], "permutations": [[4, 3, 2, 1.0]]},
        {"n": 4, "ground_set": [1, 2, 3, 4], "permutations": [[4, 3, 2, True]]},
        {"n": 4, "ground_set": [1, 2, 3, 4], "permutations": [[1, 2, 3, 3]]},
        {"n": 4, "ground_set": [1, 2, 3, 4], "permutations": [[1, 2, 3]]},
        {"n": 4, "ground_set": [1, 2, 3, 4], "permutations": ["1234"]},
        {"n": 4, "ground_set": [-1, 2, 3, 4], "permutations": [[-1, 2, 3, 4]]},
    ])
    def test_malformed_family_is_input_error(self, doc, c4_file, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(doc) + "\n")
        assert main(["verify", c4_file, str(fam)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_directory_as_family_is_input_error(self, c4_file, tmp_path, capsys):
        assert main(["verify", c4_file, str(tmp_path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_ground_set_mismatch(self, p4_file, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(
            json.dumps({
                "n": 3, "ground_set": [1, 2, 3],
                "permutations": [[1, 2, 3]], "seed": 0, "generator": "manual",
            }) + "\n"
        )
        assert main(["verify", p4_file, str(fam)]) == 2


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["verify", "g.txt", "fam.json", "--seed", "1"],
        ["verify", "g.txt", "fam.json", "--budget", "5"],
        ["bound-degenerate", "g.txt", "--budget", "5"],
        ["bound-degenerate", "g.txt", "--seed", "1"],
        ["bound-subdivision", "g.txt", "--budget", "5"],
        ["canonical-dim", "3", "--seed", "1"],
        ["exact", "g.txt", "--seed", "1"],
        ["lower-harness", "3", "--seed", "1"],
        ["bound-subdivision", "g.txt", "--seed", "1"],
    ])
    def test_options_no_command_reads_are_rejected(self, argv, capsys):
        # argparse exits 2 on an unknown option, before any file is read
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_built_once(self):
        # main parses every call with the same parser
        assert cli._build_parser() is cli._build_parser()


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

    @pytest.mark.parametrize("n", ["1", "-3"])
    def test_below_two_is_an_input_error(self, n, capsys):
        assert main(["canonical-dim", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: canonical interval order needs n >= 2\n"


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

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_construction_meets_floor(self, n, capsys):
        assert main(["lower-harness", str(n), "--format", "structured"]) == 3
        assert json.loads(capsys.readouterr().out)["floor_met"] is True

    def test_budget_zero_exits_three(self, capsys):
        assert main(["lower-harness", "3", "--budget", "0"]) == 3
        assert "budget exceeded" in capsys.readouterr().err

    def test_guard_above_64_builds_nothing(self, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("lower-harness built K_65")

        monkeypatch.setattr(cli, "lower_bound_harness", no_build)
        assert main(["lower-harness", "65"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exceeded: lower-harness is desk-scale only (n <= 64)\n"

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


def _spread_degenerate(n: int, k: int) -> str:
    """A k-degenerate edge list whose ids are spread over 0..100002 out of index order."""
    ids = [(v * 7919) % 100003 for v in range(n)]
    lines = []
    for i in range(1, n):
        for j in sorted({(i * 31 + t * 17) % i for t in range(min(k, i))}):
            lines.append(f"{ids[j]} {ids[i]}\n")
    return "".join(lines)


def _clique(n: int) -> str:
    return "".join(f"{i} {j}\n" for i in range(1, n + 1) for j in range(i + 1, n + 1))


# sha256 of the text report and of every --out file (run from the output
# directory, so the report names relative paths); any change in the bytes
# a command writes shows here.
GOLDEN = {
    ("bound-degenerate", "deg30"): {
        "report": "1eb5af019c9e18865fddd68ba44ac947da9135e043d03c927037359bf6b070fb",
        "fam.json": "c00ad32d5c7730f02b604a808dea4b1160023482961e6d92d016a3397ca4c4c5",
    },
    ("bound-degenerate", "deg120"): {
        "report": "b26db42af426171390bcd1266b829581edfb2f921706c4c1b097f4c22b72af4b",
        "fam.json": "2834421eb22bea17fb1999266de3078e17827e03f7c91b260bd619b21cfba198",
    },
    ("bound-subdivision", "k4"): {
        "report": "41e859c016f7c2d248aa3f91e2e51333e4299d66d1dc20fbf71a3bac40450fc8",
        "fam.json": "85c3bb99834ce4bf3cc75a4f19bfe9319ef500c8aebde7a7879e0986f4644d33",
        "fam.json.subdivided.txt": "a579d10f211c13b2dbef89b999cc8377f0930643cdef6e9792b5e56ad6e51c37",
        "fam.json.subdivision.json": "ed8bb2dc036a9ad096c497aefc2adc26c9d308fcb3900bae326a430b03af9658",
    },
    ("bound-subdivision", "deg20"): {
        "report": "aec181d83e0260372ad444f78f0475bdfbfda5f159fdeadfc2f75f41b81fe8ab",
        "fam.json": "ba2f750d8d6c13f1598d737172233ba90ce04bda39bcf6680d6a9e633ce42df6",
        "fam.json.subdivided.txt": "8f5525b545fe6096e5a086d8c18af74d236f24286628874af945753c57a5bbc2",
        "fam.json.subdivision.json": "6d24b306b78a1f6592af9abde9f753a53232f8fdfb70b7e6582a2db8397af7b9",
    },
    ("exact", "c5"): {
        "report": "80c92cc46c2bcbf6e91513f2686e0d35035cc44a7004cf155e546b40e5bc684e",
    },
    ("exact", "c8"): {
        "report": "b5e54a2570d0e8d5863544ef96a89e004ac7a5914e9b139f054504e5d25be127",
    },
    ("exact", "spider9"): {
        "report": "0eba58556aa8e1dbda558da7b038880294b557fa98a0cf754b57d181cd08bc3a",
    },
}
GOLDEN_GRAPHS = {
    "deg30": _spread_degenerate(30, 2),
    "deg120": _spread_degenerate(120, 3),
    "k4": _clique(4),
    "deg20": _spread_degenerate(20, 3),
    "c5": "1 2\n2 3\n3 4\n4 5\n1 5\n",
    "c8": "".join(f"{i} {i % 8 + 1}\n" for i in range(1, 9)),
    "spider9": "".join(f"{u} {v}\n" for u, v in [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7), (1, 8), (8, 9)]),
}


@pytest.mark.parametrize("command,graph", sorted(GOLDEN))
def test_golden_output(command, graph, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(GOLDEN_GRAPHS[graph])
    argv = [command, "g.txt"] + (["--out", "fam.json"] if command != "exact" else [])
    assert main(argv) == 0
    digests = {"report": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(tmp_path.glob("fam.json*")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN[(command, graph)]


# sha256 of the `canonical-dim` text report: the dimension and every
# realizer extension of C_n
CANONICAL_DIM_GOLDEN = {
    5: "41fecceb6115c5e6f4a76ebabccee302e9e8cd9b221460ed10beecf8dd81be84",
    6: "a8a234163ceb184a92362342f26c9159e8d64b27e32525d99961d146157f1f90",
    7: "c3ece284ec1135009ff48a50a49ec1564ffac9dd387df93c9f6d691ee2e0e167",
}


@pytest.mark.parametrize("n", sorted(CANONICAL_DIM_GOLDEN))
def test_canonical_dim_golden(n, capsys):
    assert main(["canonical-dim", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CANONICAL_DIM_GOLDEN[n]


# sha256 of the `lower-harness` text report and its exit code: the exact
# stage (n = 3, 4) and the construction-only stage (n = 5, 8)
LOWER_HARNESS_GOLDEN = {
    3: ("6f2165ff16e275ec07bbc32dec5338769e5fe37f2c94a270212a057bcb139edb", 0),
    4: ("3f85a63eb0ec362197d10bbb570a9ad565c5bfe571bcd894c983bc68200e0b26", 0),
    5: ("fd3fb577c9ff9b603a9ef6b3ce607dfc74ff31739957c5558f8fc3c6a39870a9", 3),
    6: ("9a17dd2a32633ae04413cd4b227005c9f21fbb79e9a2639c390905347df16a58", 3),
    8: ("9529f69c26d4076b0a3c6b46245d6eae03fff0a63519e4cc99f01980b88f263b", 3),
    9: ("e1e13acf39b4afce00558dcef42f9427ddfba9e718c9e5940ad4c3892f90f3b7", 3),
    12: ("c5572736da4de762ff79a3051c588f3a9ba8f86418d919ca2d996845aeb4bad2", 3),
}


@pytest.mark.parametrize("n", sorted(LOWER_HARNESS_GOLDEN))
def test_lower_harness_golden(n, capsys):
    code = main(["lower-harness", str(n)])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == LOWER_HARNESS_GOLDEN[n]
