"""Command-line interface: exit codes, report determinism, round trips."""

import dataclasses
import hashlib
import json
import re
import sys

import pytest

from sepdim import cli, exact, families, lowerbound, posets, subdivided
from sepdim.cli import main
from sepdim.families import PermutationFamily, verify_pairwise_suitable
from sepdim.graphs import Graph, serialize_graph, subdivision_mids

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
        _short_cover(monkeypatch)
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
        # the mids lie above big, past int64 for 2^70: only positions enter numpy
        assert main(["bound-subdivision", str(graph), "--out", out]) == 0
        assert "verdict: ok" in capsys.readouterr().out
        g = Graph.build([1, 2, 3, big], [(1, 2), (2, 3), (3, big)])
        mids = subdivision_mids(g)
        oracle = Graph.build([1, 2, 3, big, *mids], [(x, m) for e, m in zip(g.edges, mids) for x in e])
        assert open(out + ".subdivided.txt").read() == serialize_graph(oracle)

    @pytest.mark.parametrize("command", ["bound-degenerate", "bound-subdivision"])
    def test_out_is_written_in_parts(self, command, tmp_path, monkeypatch):
        # one part per member: the file holds the same bytes as the
        # document in one piece
        graph = tmp_path / "g.txt"
        graph.write_text(_spread_degenerate(40, 2))
        whole, parted = str(tmp_path / "whole.json"), str(tmp_path / "parted.json")
        assert main([command, str(graph), "--out", whole]) == 0
        monkeypatch.setattr(families, "JSON_PART_CHARS", 1)
        assert main([command, str(graph), "--out", parted]) == 0
        assert open(parted, "rb").read() == open(whole, "rb").read()


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

    def test_guard_lists_no_pairs(self, tmp_path, monkeypatch, capsys):
        # past the 12-vertex guard only a star has no disjoint edge pair,
        # so no pair is listed there
        def no_pairs(g):
            raise AssertionError("disjoint edge pairs listed past the guard")

        monkeypatch.setattr(exact, "disjoint_edge_pairs", no_pairs)
        path, star = tmp_path / "p13.txt", tmp_path / "star20.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 13)))
        star.write_text("".join(f"0 {i}\n" for i in range(1, 21)))
        assert main(["exact", str(path)]) == 3
        assert "budget exceeded: exact search is limited to 12 non-isolated vertices" in capsys.readouterr().err
        assert main(["exact", str(path), "--limit", "0", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["separation_dimension"] == "exceeded"
        assert main(["exact", str(star), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["separation_dimension"] == 0


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

    def test_deeply_nested_family_is_input_error(self, c4_file, tmp_path, capsys):
        # json.loads gives up with RecursionError long before this depth
        fam = tmp_path / "fam.json"
        fam.write_text('{"n": 4, "ground_set": [1, 2, 3, 4], "permutations": '
                       + "[" * 100_000 + "]" * 100_000 + "}\n")
        assert main(["verify", c4_file, str(fam)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1

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

    @pytest.mark.parametrize("argv", [
        ["canonical-dim", "5", "--budget", "-1"],
        ["exact", "p4.txt", "--budget", "-7"],
        ["exact", "star.txt", "--budget", "-1"],
        ["lower-harness", "3", "--budget", "-1"],
        ["lower-harness", "12", "--budget", "-1"],
        ["exact", "p4.txt", "--budget", "1.5"],
    ])
    def test_budget_below_zero_is_refused(self, argv, tmp_path, monkeypatch, capsys):
        # argparse exits 2 before any file is read or any search runs,
        # also where no search would run (a star, n past the exact stage)
        def no_read(*args):
            raise AssertionError("a file was read")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "p4.txt").write_text(P4)
        (tmp_path / "star.txt").write_text("0 1\n0 2\n0 3\n")
        monkeypatch.setattr(cli, "_read", no_read)
        monkeypatch.setattr(cli, "canonical_interval_order", no_read)
        monkeypatch.setattr(cli, "lower_bound_harness", no_read)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --budget: not a non-negative integer" in captured.err

    def test_budget_zero_is_valid(self, tmp_path, capsys):
        star = tmp_path / "star.txt"
        star.write_text("0 1\n0 2\n0 3\n")
        assert main(["exact", str(star), "--budget", "0", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["separation_dimension"] == 0
        assert main(["canonical-dim", "2", "--budget", "0"]) == 0

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


def _short_cover(monkeypatch):
    real = cli.degenerate_family

    def short(g):
        result = real(g)
        family = PermutationFamily(result.family.ground_set, result.family.orders[:-1])
        return dataclasses.replace(result, family=family)

    monkeypatch.setattr(cli, "degenerate_family", short)


def _short_lift(monkeypatch):
    real = subdivided.subdivision_family

    def short(g, classes):
        family, base = real(g, classes)
        return PermutationFamily(family.ground_set, family.orders[:-1]), base

    monkeypatch.setattr(subdivided, "subdivision_family", short)


def _no_realizer(module):
    return lambda monkeypatch: monkeypatch.setattr(module, "is_realizer", lambda *args: False)


def _unreachable_floor(monkeypatch):
    monkeypatch.setattr(lowerbound, "extraction_floor", lambda target_size, r: target_size + 1)


def _dimension_above_family(monkeypatch):
    real = lowerbound.exact_poset_dimension
    monkeypatch.setattr(lowerbound, "exact_poset_dimension",
                        lambda *args, **kw: dataclasses.replace(real(*args, **kw), dimension=99))


def _raising(exc_type, *args):
    """A patch under which the star cover raises exc_type(*args)."""
    def patch(monkeypatch):
        def fail(g):
            raise exc_type(*args)

        monkeypatch.setattr(cli, "degenerate_family", fail)

    return patch


ELAPSED = r"elapsed: \d+\.\d{3}s"
SKIPPED = r"exact stage skipped: K_12\^\(1/2\) has more than 12 vertices"

# (argv, a patch that breaks a self-check or None, exit code, the stderr
# lines as regexes).  g.txt is P4 and fam.json a suitable family for it.
# A run whose stderr ends in `elapsed:` wrote its report; no other did.
CONTRACT = [
    (["bound-degenerate", "g.txt"], None, 0, [ELAPSED]),
    (["bound-subdivision", "g.txt"], None, 0, [ELAPSED]),
    (["exact", "g.txt"], None, 0, [ELAPSED]),
    (["verify", "g.txt", "fam.json"], None, 0, [ELAPSED]),
    (["canonical-dim", "3"], None, 0, [ELAPSED]),
    (["lower-harness", "3"], None, 0, [ELAPSED]),
    (["lower-harness", "12"], None, 3, [SKIPPED, ELAPSED]),
    (["bound-degenerate", "missing.txt"], None, 2, ["input error: .*"]),
    (["bound-subdivision", "missing.txt"], None, 2, ["input error: .*"]),
    (["exact", "missing.txt"], None, 2, ["input error: .*"]),
    (["verify", "missing.txt", "fam.json"], None, 2, ["input error: .*"]),
    (["verify", "g.txt", "missing.json"], None, 2, ["input error: .*"]),
    (["canonical-dim", "1"], None, 2, ["input error: .*"]),
    (["canonical-dim", "9"], None, 3, [r"budget exceeded: .*\(n <= 8\)"]),
    (["lower-harness", "65"], None, 3, [r"budget exceeded: .*\(n <= 64\)"]),
    (["bound-degenerate", "g.txt"], _short_cover, 4, ["internal error: cover: .*"]),
    (["bound-subdivision", "g.txt"], _short_lift, 4, ["internal error: .*"]),
    (["canonical-dim", "3"], _no_realizer(posets), 4, ["internal error: .*"]),
    (["lower-harness", "4"], _no_realizer(lowerbound), 4, ["internal error: .*"]),
    (["lower-harness", "3"], _unreachable_floor, 4, ["internal error: extraction floor: .*"]),
    (["lower-harness", "12"], _unreachable_floor, 4, ["internal error: extraction floor: .*"]),
    (["lower-harness", "3"], _dimension_above_family, 4, ["internal error: dimension bound: .*"]),
    # an unexpected exception never exits 1, the counterexample code
    (["bound-degenerate", "g.txt"], _raising(MemoryError), 3, ["budget exceeded: out of memory"]),
    (["bound-degenerate", "g.txt"], _raising(TypeError, "boom"), 4,
     ["internal error: TypeError: boom"]),
]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("argv,patch,code,stderr", CONTRACT)
def test_output_contract(argv, patch, code, stderr, fmt, tmp_path, monkeypatch, capsys):
    # stdout holds the report and nothing else, written only on success;
    # stderr holds one `elapsed:` line (after the lower-harness note), or
    # one error line and no report
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(P4)
    (tmp_path / "fam.json").write_text(
        '{"generator":"manual","ground_set":[1,2,3,4],"n":4,"permutations":[[1,2,3,4]]}\n')
    if patch is not None:
        patch(monkeypatch)
    assert main(argv + ["--format", fmt]) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.err.endswith("\n") and len(lines) == len(stderr)
    for line, pattern in zip(lines, stderr):
        assert re.fullmatch(pattern, line)
    if stderr[-1] != ELAPSED:
        assert captured.out == ""
    elif fmt == "structured":
        assert json.loads(captured.out)["command"] == argv[0]
        assert captured.out.count("\n") == 1
    else:
        assert captured.out.startswith(f"command: {argv[0]}\n")
        assert all(re.fullmatch(r"\w+: .*", line) for line in captured.out.splitlines())


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
    ("bound-degenerate", "deg5"): {
        "report": "08efa6cafea37ec53fe7a51bb787ac2328465e5495d075d1f750722a9be72b89",
        "fam.json": "8806bdde421a4e612d853f3a9bcb1620d2b78a4b41b3cc0508d4a83fd96e70ff",
    },
    ("bound-degenerate", "deg6"): {
        "report": "79d215345ff5b44c3dddeca4b1c5c4619ca072a135556b133b614be43307fc2c",
        "fam.json": "108b9add5989c65213c14404c1702a75ab928ae46646ed4dbc62275c44225b0e",
    },
    ("bound-subdivision", "k3"): {
        "report": "cc5c1cbafebf93f82c4d85a32712e19bbb489ea385c1dd55f93ed8462de38f2b",
        "fam.json": "19c586a985e4976a171b487c553cddaf1ffa10cae5d7aa5a18d29939eb675c2e",
        "fam.json.subdivided.txt": "2da6b4f6921102d26916a9b988eeacdecfac2445268199475574546018022ec2",
        "fam.json.subdivision.json": "ceaf452cf02d1b8ea9fd2b89704f3592520cfc10c42abedda45dbc8a736b5150",
    },
    ("bound-subdivision", "k5"): {
        "report": "5f4cfb876cb17a8d883b2eff8bfd4f417b438af9e7bd3766610eab71bb32515e",
        "fam.json": "ac57b4ae930e1d420b6298949f56f05b38a01b46317a8d872d82c89f79cb7215",
        "fam.json.subdivided.txt": "bbe43253a461ed43a8bead9b10ca1fd788a1a056d13262ac157cf50db5f8e75f",
        "fam.json.subdivision.json": "5821b9aacd37064ce61ba36459d5fdb5b14bb34d0a968e9860002c9d2942d080",
    },
    ("bound-subdivision", "k6"): {
        "report": "21197632915c2a80dfb839f62918aad1da629b5c7209bfc8b3c5eff18c1cd82f",
        "fam.json": "403e119399a4aa76564fbbbb5e382db48573538f3b47aaca103aa4995b8237b0",
        "fam.json.subdivided.txt": "b2dd01b4e77110d2f58dcb947abfcd93f36003fab892e8b80a9787701d0f1110",
        "fam.json.subdivision.json": "976b0cfe6f23e548d38e57244041468bbb53e7ef618bad2dda11857637829972",
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
    "deg5": _spread_degenerate(5, 2),
    "deg6": _spread_degenerate(6, 2),
    "k3": _clique(3),
    "k5": _clique(5),
    "k6": _clique(6),
    "c5": "1 2\n2 3\n3 4\n4 5\n1 5\n",
    "c8": "".join(f"{i} {i % 8 + 1}\n" for i in range(1, 9)),
    "spider9": "".join(f"{u} {v}\n" for u, v in [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7), (1, 8), (8, 9)]),
}


def _golden_digests(command, graph, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(GOLDEN_GRAPHS[graph])
    argv = [command, "g.txt"] + (["--out", "fam.json"] if command != "exact" else [])
    assert main(argv) == 0
    digests = {"report": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted(tmp_path.glob("fam.json*")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("command,graph", sorted(GOLDEN))
def test_golden_output(command, graph, tmp_path, monkeypatch, capsys):
    assert _golden_digests(command, graph, tmp_path, monkeypatch, capsys) == GOLDEN[(command, graph)]


@pytest.mark.parametrize("command,graph", sorted(key for key in GOLDEN if key[0] != "exact"))
def test_constructions_run_no_search(command, graph, tmp_path, monkeypatch, capsys):
    # the bases at every table width (3 to 6 ids or colour classes) come
    # from a table, so the exact engine is never entered
    def no_search(*args):
        raise AssertionError("a construction ran the exact engine")

    for name, module in list(sys.modules.items()):
        if name.startswith("sepdim") and hasattr(module, "_dimension_dfs"):
            monkeypatch.setattr(module, "_dimension_dfs", no_search)
    assert _golden_digests(command, graph, tmp_path, monkeypatch, capsys) == GOLDEN[(command, graph)]


# sha256 of the `canonical-dim` text report: the dimension and every
# realizer extension of C_n
CANONICAL_DIM_GOLDEN = {
    5: "372ec0ab6323e7d9742d4745978fd395472195a9dad4f137c953681c96c336c8",
    6: "6b81351152ecb6b14b41abf8641a24082f69c1d6f3c42670bb947dbcf3f98d72",
    7: "c5786e423bde1bbb016a031849966b6e155d5005e155fcc67a2c4d7dc56c9ce3",
    8: "f30aa29ebac16a8e52f6d1052ecb378464783a10c6a6ab1e0d4ce51b66260a29",
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
