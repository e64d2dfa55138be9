import functools
import hashlib
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tokenslide.cli import main
from tokenslide.errors import InvariantError, MatchingError
from tokenslide.generators import heavy_path_instance
from tokenslide.graphs import Graph, RootedTree
from tokenslide.instances import Instance, emit_instance, emit_moves, parse_instance
from tokenslide.interval_reconfig import reconf_interval
from tokenslide.intervals import normalize_representation
from tokenslide.tree_reconfig import reconf_tree_dominating

from helpers import child_env, iter_interval_instances, iter_tree_instances

P4_TREE = "tree 4\n0 1\n1 2\n2 3\ntokens 2: 0 2\ntokens 2: 1 3\n"
C4_GRAPH = "graph 4\n0 1\n1 2\n2 3\n0 3\ntokens 2: 0 2\ntokens 2: 1 3\n"


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text(P4_TREE)
    return str(f)


class TestSolve:
    def test_tree_solution(self, p4_file, capsys):
        assert main(["solve", p4_file]) == 0
        out = capsys.readouterr().out
        assert out == "moves 2\n0 1 1\n2 3 1\n"

    def test_intervals_solution(self, tmp_path, capsys):
        f = tmp_path / "iv.txt"
        f.write_text("intervals 3\n0 1 4\n1 2 5\n2 3 6\ntokens 1: 0\ntokens 1: 2\n")
        assert main(["solve", str(f)]) == 0
        assert capsys.readouterr().out == "moves 1\n0 2 1\n"

    def test_graph_kind_not_solvable(self, tmp_path, capsys):
        f = tmp_path / "c4.txt"
        f.write_text(C4_GRAPH)
        assert main(["solve", str(f)]) == 1

    def test_syntax_error_exit_code(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("tree 2\n0 1\ntokens 2: 0\ntokens 2: 0 1\n")
        assert main(["solve", str(f)]) == 1

    def test_infeasible_tokens_exit_code(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("tree 4\n0 1\n1 2\n2 3\ntokens 1: 0\ntokens 1: 1\n")
        assert main(["solve", str(f)]) == 2

    def test_unreachable_intervals(self, tmp_path, capsys):
        f = tmp_path / "split.txt"
        f.write_text(
            "intervals 4\n0 1 4\n1 2 5\n2 7 9\n3 8 10\n"
            "tokens 3: 0 2 2\ntokens 3: 0 0 2\n"
        )
        assert main(["solve", str(f)]) == 2
        assert "unreachable" in capsys.readouterr().out


    @pytest.mark.parametrize("root", ["7", "29"])
    def test_tree_root(self, root, tmp_path, capsys):
        assert main(["gen", "--kind", "tree", "--n", "30", "--k", "12", "--seed", "5"]) == 0
        f = tmp_path / "tree.txt"
        f.write_text(capsys.readouterr().out)
        assert main(["solve", str(f), "--root", root]) == 0
        mf = tmp_path / "moves.txt"
        mf.write_text(capsys.readouterr().out)
        assert main(["verify", str(f), str(mf), "--optimal"]) == 0
        assert capsys.readouterr().out.startswith("valid optimal (")

    def test_root_out_of_range(self, p4_file, capsys):
        assert main(["solve", p4_file, "--root", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: root -1 out of range\n"

    def test_root_on_intervals_is_invalid_input(self, tmp_path, capsys):
        f = tmp_path / "iv.txt"
        f.write_text("intervals 2\n0 1 4\n1 2 5\ntokens 1: 0\ntokens 1: 1\n")
        assert main(["solve", str(f), "--root", "9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --root applies only to tree instances\n"


class TestVerify:
    def run_solve(self, path, capsys):
        assert main(["solve", path]) == 0
        return capsys.readouterr().out

    def test_accepts_own_solution(self, p4_file, tmp_path, capsys):
        moves = self.run_solve(p4_file, capsys)
        mf = tmp_path / "moves.txt"
        mf.write_text(moves)
        assert main(["verify", p4_file, str(mf), "--optimal"]) == 0
        assert "valid optimal" in capsys.readouterr().out

    def test_rejects_padded_solution(self, p4_file, tmp_path, capsys):
        mf = tmp_path / "moves.txt"
        mf.write_text("moves 4\n0 1 1\n1 0 1\n0 1 1\n2 3 1\n")
        assert main(["verify", p4_file, str(mf), "--optimal"]) == 2
        assert capsys.readouterr().out == "suboptimal: matching bound 2 differs from length 4\n"

    def test_self_move_names_its_line(self, p4_file, tmp_path, capsys):
        mf = tmp_path / "moves.txt"
        mf.write_text("moves 2\n0 1 1\n1 1 1\n")
        assert main(["verify", p4_file, str(mf)]) == 1
        assert capsys.readouterr().err == "error: line 3: move (1, 1) does not change anything\n"

    def test_graph_file_below_the_bound_is_not_certified(self, tmp_path, capsys):
        """On a graph with an induced 4-cycle, neither a tree nor an interval
        graph, the matching bound 3 lies below the distance 4: a shortest
        sequence is not certified, but not called suboptimal either."""
        f, mf = tmp_path / "g7.txt", tmp_path / "moves.txt"
        f.write_text(
            "graph 7\n0 1\n0 3\n0 4\n0 6\n1 2\n2 4\n3 4\n4 5\n5 6\n"
            "tokens 3: 0 3 4\ntokens 3: 2 3 5\n"
        )
        mf.write_text("moves 4\n3 4 1\n4 2 1\n4 5 1\n0 3 1\n")
        assert main(["oracle", str(f)]) == 0
        assert capsys.readouterr().out == "4\n"
        assert main(["verify", str(f), str(mf)]) == 0
        assert capsys.readouterr().out == "valid (4 moves)\n"
        assert main(["verify", str(f), str(mf), "--optimal"]) == 2
        assert capsys.readouterr().out == "not certified: matching bound 3 is below length 4\n"

    def test_optimal_runs_no_configuration_bfs(self, tmp_path, capsys, monkeypatch):
        def no_bfs(*args, **kwargs):
            raise AssertionError("verify --optimal ran the configuration BFS")

        monkeypatch.setattr("tokenslide.oracle.reconfig_distance_bfs", no_bfs)
        inst, moves = tmp_path / "iv.txt", tmp_path / "moves.txt"
        assert main(["gen", "--kind", "interval", "--n", "400", "--k", "80", "--seed", "3"]) == 0
        inst.write_text(capsys.readouterr().out)
        assert main(["solve", str(inst)]) == 0
        moves.write_text(capsys.readouterr().out)
        assert main(["verify", str(inst), str(moves), "--optimal"]) == 0
        assert capsys.readouterr().out == "valid optimal (70 moves)\n"

    def test_rejects_invalid_moves(self, p4_file, tmp_path, capsys):
        mf = tmp_path / "moves.txt"
        mf.write_text("moves 2\n0 2 1\n2 3 1\n")
        assert main(["verify", p4_file, str(mf)]) == 2
        assert "not an edge" in capsys.readouterr().out

    def test_rejects_wrong_endpoint(self, p4_file, tmp_path, capsys):
        mf = tmp_path / "moves.txt"
        mf.write_text("moves 1\n0 1 1\n")
        assert main(["verify", p4_file, str(mf)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["solve", "{bad}"], ["verify", "{bad}", "{moves}"], ["verify", "{inst}", "{bad}"]],
        ids=["solve-instance", "verify-instance", "verify-moves"],
    )
    def test_non_utf8_file_is_invalid_input(self, argv, p4_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"tree 2\n0 1\n\xff\n")
        moves = tmp_path / "moves.txt"
        moves.write_text("moves 2\n0 1 1\n2 3 1\n")
        paths = {"bad": bad, "moves": moves, "inst": p4_file}
        assert main([a.format(**paths) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("moves", ["moves 2\n0 1 1\n2 3 1\n", "moves 1\n1 0 1\n", "moves 1\n0 2 1\n"])
    def test_tree_replay_builds_no_adjacency(self, moves, p4_file, tmp_path, capsys, monkeypatch):
        """A tree file's replay reads the parent array alone, whether the
        sequence passes or fails: its graph keeps no adjacency and no N[v]
        table."""
        parsed = []

        def recording(text):
            parsed.append(parse_instance(text))
            return parsed[-1]

        monkeypatch.setattr("tokenslide.cli.parse_instance", recording)
        mf = tmp_path / "moves.txt"
        mf.write_text(moves)
        main(["verify", p4_file, str(mf)])
        capsys.readouterr()
        (inst,) = parsed
        assert inst.graph._adj is None and inst.graph._closed is None

    def test_billions_of_moves(self, tmp_path, capsys):
        n = 100_000
        graph, d_s, d_t = heavy_path_instance(n, n // 3)
        seq = reconf_tree_dominating(RootedTree(graph, 0), d_s, d_t)
        f = tmp_path / "path.txt"
        f.write_text(emit_instance(Instance("tree", graph, None, d_s, d_t)))
        mf = tmp_path / "moves.txt"
        mf.write_text(emit_moves(list(seq.moves), seq.total_length))
        assert main(["verify", str(f), str(mf)]) == 0
        assert capsys.readouterr().out == "valid (3333266667 moves)\n"


class TestOracle:
    def test_distance(self, p4_file, capsys):
        assert main(["oracle", p4_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_independent_sets_on_cycle_unreachable(self, tmp_path, capsys):
        f = tmp_path / "c4.txt"
        f.write_text(C4_GRAPH)
        assert main(["oracle", str(f), "--pred", "independent"]) == 2
        assert capsys.readouterr().out.strip() == "unreachable"

    def test_cap_exceeded(self, p4_file, capsys):
        assert main(["oracle", p4_file, "--cap", "1"]) == 2
        assert "undecided" in capsys.readouterr().out

    @pytest.mark.parametrize("dot", [[], ["--dot"]], ids=["distance", "dot"])
    @pytest.mark.parametrize(
        "pred, start, goal, bad",
        [
            ("dominating", "1: 0", "1: 3", "start"),
            ("independent", "2: 0 1", "2: 0 3", "start"),
            ("dominating", "2: 1 2", "2: 0 0", "goal"),
            ("independent", "2: 0 2", "2: 2 3", "goal"),
        ],
        ids=["dominating", "independent", "dominating-goal", "independent-goal"],
    )
    def test_infeasible_start(self, pred, start, goal, bad, dot, tmp_path, capsys):
        f = tmp_path / "p4.txt"
        f.write_text(f"tree 4\n0 1\n1 2\n2 3\ntokens {start}\ntokens {goal}\n")
        assert main(["oracle", str(f), "--pred", pred, *dot]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"infeasible: {bad} configuration is infeasible\n"

    def test_infeasible_start_on_a_wide_graph_in_little_memory(self, tmp_path):
        """On 10^5 vertices and one edge the answer comes from the tracker,
        not from the predicate's N[v] masks (10^5 masks of 10^5 bits, over a
        gigabyte): the child, whose address space it caps at 200 MB itself,
        prints the verdict instead of running out of memory."""
        f = tmp_path / "wide.txt"
        f.write_text("graph 100000\n0 1\ntokens 1: 0\ntokens 1: 1\n")
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))\n"
            "from tokenslide.cli import main\n"
            f"sys.exit(main(['oracle', {str(f)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env()
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "infeasible: start configuration is infeasible\n"

    @pytest.mark.parametrize("dot", [[], ["--dot"]], ids=["distance", "dot"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_invalid_input(self, cap, dot, p4_file, capsys):
        assert main(["oracle", p4_file, "--cap", cap, *dot]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: state cap must be at least 1, got {cap}\n"

    def test_dot_past_the_cap_prints_only_undecided(self, p4_file, capsys):
        assert main(["oracle", p4_file, "--dot", "--cap", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "undecided: more than 1 configurations visited\n"
        assert captured.err == ""

    def test_dot_output(self, p4_file, capsys):
        assert main(["oracle", p4_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph reconfiguration {")
        assert '"0,2"' in out and "--" in out


class TestGenCommand:
    def test_deterministic_and_parseable(self, capsys):
        assert main(["gen", "--kind", "tree", "--n", "8", "--k", "3", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--kind", "tree", "--n", "8", "--k", "3", "--seed", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second
        inst = parse_instance(first)
        assert inst.d_s.total == 3

    def test_interval_gen_solvable_end_to_end(self, tmp_path, capsys):
        assert main(["gen", "--kind", "interval", "--n", "7", "--k", "2", "--seed", "9"]) == 0
        text = capsys.readouterr().out
        f = tmp_path / "iv.txt"
        f.write_text(text)
        assert main(["solve", str(f)]) == 0
        moves = capsys.readouterr().out
        mf = tmp_path / "mv.txt"
        mf.write_text(moves)
        assert main(["verify", str(f), str(mf), "--optimal"]) == 0


class TestMatch:
    def test_exact_cost(self, p4_file, capsys):
        assert main(["match", p4_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cost 2"
        assert set(out[1:]) == {"0 1 1", "2 3 1"}

    def test_fast_requires_intervals(self, p4_file):
        assert main(["match", p4_file, "--fast"]) == 1

    def test_fast_on_intervals(self, tmp_path, capsys):
        f = tmp_path / "iv.txt"
        f.write_text("intervals 4\n0 1 4\n1 3 6\n2 5 8\n3 7 10\ntokens 2: 0 2\ntokens 2: 1 3\n")
        assert main(["match", str(f), "--fast"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "cost 2"

    def test_unreachable(self, tmp_path, capsys):
        f = tmp_path / "iv.txt"
        f.write_text("intervals 2\n0 1 2\n1 3 4\ntokens 1: 0\ntokens 1: 1\n")
        assert main(["match", str(f)]) == 2
        assert "unreachable" in capsys.readouterr().out

    def test_token_cap_ends_in_one_line(self, p4_file, tmp_path, capsys, monkeypatch):
        """Above the cap the exact matcher stops before its k x k matrix:
        ``match``, ``verify --optimal`` and ``solve`` on intervals print one
        line and exit 1."""
        monkeypatch.setattr("tokenslide.matching.EXACT_MATCHING_CAP", 1)
        error = "error: exact matching capped at 1 tokens per side, got 2\n"
        mf = tmp_path / "moves.txt"
        mf.write_text("moves 2\n0 1 1\n2 3 1\n")
        iv = tmp_path / "iv.txt"
        iv.write_text("intervals 4\n0 1 4\n1 3 6\n2 5 8\n3 7 10\ntokens 2: 0 2\ntokens 2: 1 3\n")
        for argv in (["match", p4_file], ["verify", p4_file, str(mf), "--optimal"], ["solve", str(iv)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", error)
        assert main(["verify", p4_file, str(mf)]) == 0
        assert main(["match", str(iv), "--fast"]) == 0


BEYOND_INT64 = (
    "intervals 2\n0 1 100000000000000000000\n1 50 100000000000000000001\n"
    "tokens 1: 0\ntokens 1: 1\n"
)
BELOW_INT64 = (
    "intervals 3\n0 -100000000000000000000 -99999999999999999990\n"
    "1 -99999999999999999995 7\n2 5 9\ntokens 2: 0 1\ntokens 2: 1 2\n"
)


@pytest.mark.parametrize("argv", [["solve"], ["match"], ["match", "--fast"]])
def test_endpoints_beyond_int64_act_like_their_ranks(argv, tmp_path, capsys):
    for text in (BEYOND_INT64, BELOW_INT64):
        inst = parse_instance(text)
        ranked = Instance(
            inst.kind, inst.graph, normalize_representation(inst.rep.intervals), inst.d_s, inst.d_t
        )
        printed = []
        for name, body in (("huge.txt", text), ("ranked.txt", emit_instance(ranked))):
            f = tmp_path / name
            f.write_text(body)
            assert main([argv[0], str(f), *argv[1:]]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]


@pytest.mark.parametrize(
    "text",
    [
        "graph 1000000000\ntokens 1: 0\ntokens 1: 0\n",
        "tree 1000000000\n0 1\ntokens 1: 0\ntokens 1: 1\n",
        "intervals 1000000000\n0 1 4\n",
    ],
)
def test_huge_vertex_counts_are_invalid_input(text, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Graph, "__init__", mock.Mock(side_effect=AssertionError("built a graph")))
    f = tmp_path / "huge.txt"
    f.write_text(text)
    assert main(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: line ")


def test_repeated_endpoint_names_its_line(tmp_path, capsys):
    f = tmp_path / "repeat.txt"
    f.write_text("intervals 2\n0 1 2\n1 1 4\ntokens 1: 0\ntokens 1: 1\n")
    assert main(["solve", str(f)]) == 1
    assert capsys.readouterr().err == "error: line 3: interval endpoints must be pairwise distinct\n"


# Tokens a mutation may insert, besides those of the file it mutates.
FUZZ_TOKENS = (
    "0", "1", "-1", "3", "100000000000000000000", "1:", "²:",
    "tokens", "tree", "intervals", "graph", "moves", "#", "x", "\n",
)


@functools.cache
def _fuzz_fixtures():
    """Instance and move files as in acceptance criterion 10, each split into
    whitespace-separated tokens and line breaks."""
    files = []
    for inst in [
        *iter_tree_instances(3, base_seed=10_000, max_n=9, max_k=3),
        *iter_interval_instances(3, base_seed=20_000, max_n=9, max_k=3),
    ]:
        if inst.kind == "tree":
            seq = reconf_tree_dominating(RootedTree(inst.graph, 0), inst.d_s, inst.d_t)
        else:
            seq = reconf_interval(inst.rep, inst.d_s, inst.d_t)
        texts = (emit_instance(inst), emit_moves(list(seq.moves), seq.total_length))
        files.append(tuple(tuple(re.findall(r"\S+|\n", t)) for t in texts))
    return files


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_mutated_files_end_in_an_exit_code_and_one_line(tmp_path, capsys, data):
    """Tokens inserted, deleted or replaced in an instance or move file:
    every command exits 0, 1 or 2 with at most one stderr line, and no
    exception escapes ``main``."""
    files = list(data.draw(st.sampled_from(_fuzz_fixtures())))
    for _ in range(data.draw(st.integers(1, 3))):
        which = data.draw(st.integers(0, 1))
        tokens = files[which] = list(files[which])
        new = data.draw(st.sampled_from(FUZZ_TOKENS + tuple(tokens)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            tokens.insert(data.draw(st.integers(0, len(tokens))), new)
        elif tokens:
            i = data.draw(st.integers(0, len(tokens) - 1))
            tokens[i : i + 1] = [new] if op == "replace" else []
    inst, moves = tmp_path / "inst.txt", tmp_path / "moves.txt"
    inst.write_text(" ".join(files[0]))
    moves.write_text(" ".join(files[1]))
    for argv in (
        ["solve", inst],
        ["verify", inst, moves, "--optimal"],
        ["match", inst],
        ["match", inst, "--fast"],
        ["oracle", inst, "--cap", "1000"],
    ):
        assert main([str(a) for a in argv]) in (0, 1, 2), argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) <= 1, (argv, err)


def _heavy_modules_after(*argvs):
    """Run each argv through the CLI in one fresh interpreter, every one
    expected to exit 0; return which of numpy, scipy and the scipy.optimize
    package it imported."""
    script = (
        "import sys\n"
        "from tokenslide.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(list(argv)) == 0, argv\n"
        "print(*(m for m in ('numpy', 'scipy', 'scipy.optimize') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr[-400:]
    return proc.stdout.splitlines()[-1].split()


class TestStartUp:
    def test_tree_commands_load_neither_numpy_nor_scipy(self, p4_file, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("moves 2\n0 1 1\n2 3 1\n")
        assert _heavy_modules_after(("solve", p4_file), ("verify", p4_file, str(moves))) == []

    def test_fast_match_leaves_scipy_unloaded(self, tmp_path):
        f = tmp_path / "iv.txt"
        f.write_text("intervals 4\n0 1 4\n1 3 6\n2 5 8\n3 7 10\ntokens 2: 0 2\ntokens 2: 1 3\n")
        gen = ("gen", "--kind", "interval", "--n", "40", "--k", "8", "--seed", "3")
        loaded = _heavy_modules_after(gen, ("match", str(f), "--fast"))
        assert "scipy" not in loaded
        assert "numpy" not in loaded

    def test_exact_matcher_leaves_scipy_optimize_unloaded(self, tmp_path):
        # solve, match and verify --optimal all run min_cost_matching, which
        # loads scipy's compiled assignment module and not its package
        f = tmp_path / "iv.txt"
        f.write_text("intervals 4\n0 1 4\n1 3 6\n2 5 8\n3 7 10\ntokens 2: 0 2\ntokens 2: 1 3\n")
        moves = tmp_path / "moves.txt"
        moves.write_text("moves 2\n0 1 1\n2 3 1\n")
        loaded = _heavy_modules_after(
            ("solve", str(f)), ("match", str(f)), ("verify", str(f), str(moves), "--optimal")
        )
        assert "numpy" in loaded
        assert "scipy.optimize" not in loaded


class TestBench:
    def test_tree_csv_shape(self, capsys):
        assert main(["bench", "--kind", "tree", "--sizes", "200,400"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,total_moves,wall_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [200, 400]
        # quadratically many unit moves from linearly sized instances
        assert int(rows[1][1]) > 2 * int(rows[0][1])

    def test_interval_csv(self, capsys):
        assert main(["bench", "--kind", "interval", "--sizes", "40", "--seed", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("40,")

    def test_verify_csv(self, capsys):
        assert main(["bench", "--kind", "verify", "--sizes", "300,3000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,total_moves,wall_ms"
        # the same heavy-path piles as the tree ladder
        assert main(["bench", "--kind", "tree", "--sizes", "300,3000"]) == 0
        tree_lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[:2] for line in lines] == [line.split(",")[:2] for line in tree_lines]

    def test_parse_csv(self, capsys):
        assert main(["bench", "--kind", "parse", "--sizes", "300,3000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,total_moves,wall_ms"
        # the tree ladder's heavy-path piles, parsed from their emitted text
        assert main(["bench", "--kind", "tree", "--sizes", "300,3000"]) == 0
        tree_lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[:2] for line in lines] == [line.split(",")[:2] for line in tree_lines]

    def test_bad_sizes(self):
        assert main(["bench", "--kind", "tree", "--sizes", "a,b"]) == 1

    @pytest.mark.parametrize("size", ["0", "-5"])
    @pytest.mark.parametrize("kind", ["tree", "interval", "verify", "parse"])
    def test_sizes_below_one(self, kind, size, capsys):
        assert main(["bench", "--kind", kind, "--sizes", f"40,{size}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad size '{size}'\n"


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "error, line",
        [
            (
                MemoryError("Unable to allocate 191. MiB for an array with shape (5000, 5000)"),
                "error: out of memory (Unable to allocate 191. MiB for an array with shape (5000, 5000))",
            ),
            (MemoryError(), "error: out of memory"),
        ],
    )
    def test_one_line_and_exit_code_1(self, error, line, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr("tokenslide.cli.min_cost_matching", exhausted)
        f = tmp_path / "iv.txt"
        f.write_text("intervals 3\n0 1 4\n1 2 5\n2 3 6\ntokens 1: 0\ntokens 1: 2\n")
        assert main(["match", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"


class TestInternalError:
    @pytest.mark.parametrize("error", [InvariantError, MatchingError])
    def test_one_line_and_exit_code_3(self, error, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise error("emitted 3 moves but the matching bound is 2")

        monkeypatch.setattr("tokenslide.cli.reconf_interval", broken)
        f = tmp_path / "iv.txt"
        f.write_text("intervals 3\n0 1 4\n1 2 5\n2 3 6\ntokens 1: 0\ntokens 1: 2\n")
        assert main(["solve", str(f)]) == 3
        err = capsys.readouterr().err
        digest = hashlib.sha256(f.read_bytes()).hexdigest()[:12]
        assert err.splitlines() == [
            f"internal error: emitted 3 moves but the matching bound is 2 (instance sha256 {digest})"
        ]
        assert "Traceback" not in err

    def test_verify_names_the_instance(self, p4_file, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantError("replay lost a token")

        monkeypatch.setattr("tokenslide.cli.sequence_failure", broken)
        moves = tmp_path / "moves.txt"
        moves.write_text("moves 2\n0 1 1\n2 3 1\n")
        assert main(["verify", p4_file, str(moves)]) == 3
        digest = hashlib.sha256(Path(p4_file).read_bytes()).hexdigest()[:12]
        assert capsys.readouterr().err == f"internal error: replay lost a token (instance sha256 {digest})\n"
