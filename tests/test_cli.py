"""Command line surface: exit codes and stable final lines."""

import os
import pathlib
import subprocess
import sys

import pytest

import syncreact
from syncreact import core, sls, validate
from syncreact.cli import main

from .conftest import FIXTURES, count_refinements
from .oracles import chain_sender

BROKEN = "system b\ninputs a b\noutputs 0\ninit c0\nstate c0 0\ntrans c0 a c0\n"
# s1 has no move on b; s0 and s1 differ only in that.
INCOMPLETE = (
    "system inc\ninputs a b\noutputs 0 1\ninit s0\nstate s0 0\nstate s1 0\n"
    "trans s0 a s0\ntrans s0 b s0\ntrans s1 a s1\n"
)


LOOP = "while tt do tick(!x) done"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_line(out: str) -> str:
    return out.strip().splitlines()[-1]


def run_fresh(*argv):
    """The command line in a fresh interpreter, with the default recursion limit."""
    src = pathlib.Path(syncreact.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "syncreact.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )


class TestCheck:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "check", FIXTURES / "p1.sls")
        assert code == 0
        assert last_line(out) == "ok"

    def test_incomplete_exits_2_with_diagnostic(self, capsys, tmp_path):
        target = tmp_path / "broken.sls"
        target.write_text(BROKEN)
        code, _, err = run(capsys, "check", target)
        assert code == 2
        assert "incomplete" in err and "c0" in err and "b" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        target = tmp_path / "bad.sls"
        target.write_text("nonsense\n")
        code, _, err = run(capsys, "bisim", target, "a", "b")
        assert code == 2
        assert "error" in err


class TestIncompleteRejected:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bisim", "s0", "s1"),
            ("strongsep", "s0", "s1"),
            ("diff", "s0", "s1", "-w", "b"),
            ("separators", "s0", "s1"),
            ("reactime", "s0"),
            ("doe", "s0"),
            ("quotient", "-o", "q.sls"),
        ],
    )
    def test_analysis_exits_2_naming_the_missing_move(self, capsys, tmp_path, argv):
        target = tmp_path / "inc.sls"
        target.write_text(INCOMPLETE)
        code, out, err = run(capsys, argv[0], target, *argv[1:])
        assert code == 2
        assert out == ""
        assert "incomplete: state s1 has no transition on input b" in err

    def test_second_file_is_checked_too(self, capsys, tmp_path):
        target = tmp_path / "inc.sls"
        target.write_text(INCOMPLETE)
        code, _, err = run(capsys, "ssp", FIXTURES / "union1.sls", "u0", target, "s0")
        assert code == 2
        assert "inc.sls" in err

    def test_dot_still_exports(self, capsys, tmp_path):
        target = tmp_path / "inc.sls"
        target.write_text(INCOMPLETE)
        code, out, _ = run(capsys, "dot", target)
        assert code == 0
        assert out.count("->") == 3


class TestQueries:
    def test_reactime_infinite(self, capsys):
        code, out, _ = run(capsys, "reactime", FIXTURES / "p1.sls", "p0")
        assert code == 0
        assert last_line(out) == "reactime infinite"

    def test_reactime_finite_with_witness(self, capsys):
        code, out, _ = run(capsys, "reactime", FIXTURES / "p2_n4.sls", "q0")
        assert code == 0
        words = last_line(out).split()
        assert words[:4] == ["reactime", "finite", "4", "witness"]
        assert words[4:7] == ["tt", "tt", "tt"]
        assert words[7] in ("tt", "ff")

    def test_bisim_true_false(self, capsys):
        code, out, _ = run(capsys, "bisim", FIXTURES / "p1.sls", "p0", "p0")
        assert code == 0 and last_line(out) == "true"
        code, out, _ = run(capsys, "bisim", FIXTURES / "p1.sls", "p0", "p1")
        assert code == 0 and last_line(out) == "false"

    def test_seppairs_lines(self, capsys):
        code, out, _ = run(capsys, "seppairs", FIXTURES / "p1.sls", "p0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pair tt ff det"
        assert last_line(out) == "seppairs 1"

    def test_separators_lines(self, capsys):
        code, out, _ = run(
            capsys, "separators", FIXTURES / "p1.sls", "p0", "p1", "--max-len", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sep ff det"
        assert last_line(out) == "separators 1"

    def test_strongsep(self, capsys):
        code, out, err = run(capsys, "strongsep", FIXTURES / "p1.sls", "p1", "p0")
        assert code == 0
        assert last_line(out) == "false"
        assert "eq-cycle" in err

    def test_diff_lines(self, capsys):
        code, out, _ = run(
            capsys, "diff", FIXTURES / "p1.sls", "p0", "p1", "-w", "ff ff"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "diff 0 *"
        assert lines[1] == "diff 1 (ff,tt)"

    def test_doe(self, capsys):
        code, out, _ = run(capsys, "doe", FIXTURES / "delay1.sls", "s0")
        assert code == 0
        assert last_line(out) == "* | (1,2)"

    def test_doe_refines_once(self, capsys, monkeypatch):
        built = count_refinements(monkeypatch)
        code, out, _ = run(capsys, "doe", FIXTURES / "delay1.sls", "s0")
        assert code == 0 and last_line(out) == "* | (1,2)"
        assert len(built) == 1

    def test_doe_nonreactive_note(self, capsys):
        code, out, err = run(capsys, "doe", FIXTURES / "const.sls", "c0")
        assert code == 0
        assert last_line(out) == "| *"
        assert "not reactive" in err

    def test_ssp_two_files(self, capsys):
        code, out, _ = run(
            capsys,
            "ssp",
            FIXTURES / "union1.sls",
            "u0",
            FIXTURES / "union2.sls",
            "v0",
        )
        assert code == 0
        assert last_line(out) == "{}"

    def test_ssp_one_file(self, capsys):
        code, out, _ = run(capsys, "ssp", FIXTURES / "toggle.sls", "s0", "s0")
        assert code == 0
        assert last_line(out) == "{a/b}"

    def test_sspseq(self, capsys):
        code, out, _ = run(capsys, "sspseq", FIXTURES / "toggle.sls", "s0")
        assert code == 0
        assert last_line(out) == "| {a/b}"

    def test_sspseq_nonreactive_exits_2(self, capsys):
        code, _, err = run(capsys, "sspseq", FIXTURES / "const.sls", "c0")
        assert code == 2

    def test_unknown_state_exits_2(self, capsys):
        code, _, err = run(capsys, "seppairs", FIXTURES / "p1.sls", "zz")
        assert code == 2
        assert "error" in err


class TestDeepWitness:
    def test_bisim_1500_deep_chain_in_a_fresh_interpreter(self, tmp_path):
        target = tmp_path / "chain.sls"
        sls.dump(chain_sender(1500, ("x", "y", "z")), target)
        src = pathlib.Path(syncreact.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "syncreact.cli", "bisim", str(target), "l0", "m0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == "witness depth 1500\n"
        assert last_line(done.stdout) == "false"


class TestComposeAndLemma:
    def test_compose_seq_output_reloads(self, capsys, tmp_path):
        target = tmp_path / "composed.sls"
        code, out, _ = run(
            capsys,
            "compose",
            "--seq",
            FIXTURES / "delay1.sls",
            FIXTURES / "receiver.sls",
            "-o",
            target,
        )
        assert code == 0
        reloaded = sls.load(target)
        assert validate(reloaded) == []

    def test_compose_par_output_reloads(self, capsys, tmp_path):
        target = tmp_path / "composed.sls"
        code, out, _ = run(
            capsys,
            "compose",
            "--par",
            FIXTURES / "toggle.sls",
            FIXTURES / "const.sls",
            "-o",
            target,
        )
        assert code == 0
        reloaded = sls.load(target)
        assert validate(reloaded) == []
        assert len(reloaded.states) <= 2 * 1

    def test_compose_signature_mismatch_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "compose",
            "--seq",
            FIXTURES / "toggle.sls",
            FIXTURES / "p1.sls",
            "-o",
            tmp_path / "x.sls",
        )
        assert code == 2

    def test_lemma_positive(self, capsys):
        code, out, _ = run(
            capsys,
            "lemma",
            FIXTURES / "delay1.sls",
            FIXTURES / "receiver.sls",
            "--qf",
            "s0",
            "--qg",
            "g0",
        )
        assert code == 0
        assert last_line(out) == "GuaranteedReactive 1"

    def test_lemma_negative(self, capsys):
        code, out, _ = run(
            capsys,
            "lemma",
            FIXTURES / "disap_f.sls",
            FIXTURES / "disap_g.sls",
            "--qf",
            "p0",
            "--qg",
            "q1",
        )
        assert code == 0
        assert last_line(out) == "NoGuarantee"

    def test_doe_compose(self, capsys):
        code, out, _ = run(
            capsys,
            "doe-compose",
            FIXTURES / "delay1.sls",
            FIXTURES / "receiver.sls",
            "--qf",
            "s0",
            "--qg",
            "g0",
            "-t",
            "1",
        )
        assert code == 0
        assert last_line(out) == "| *"

    def test_doe_compose_bad_index_exits_2(self, capsys):
        code, _, _ = run(
            capsys,
            "doe-compose",
            FIXTURES / "delay1.sls",
            FIXTURES / "receiver.sls",
            "--qf",
            "s0",
            "--qg",
            "g0",
            "-t",
            "0",
        )
        assert code == 2


class TestQuotientAndDot:
    def test_quotient_writes_reduced_system(self, capsys, tmp_path):
        src = tmp_path / "dup.sls"
        src.write_text(
            "system dup\ninputs a\noutputs 0\ninit s\n"
            "state s 0\nstate t 0\ntrans s a t\ntrans t a s\n"
        )
        target = tmp_path / "q.sls"
        code, out, _ = run(capsys, "quotient", src, "-o", target)
        assert code == 0
        assert last_line(out) == "classes 1"
        assert len(sls.load(target).states) == 1

    def test_dot_const(self, capsys):
        code, out, _ = run(capsys, "dot", FIXTURES / "const.sls")
        assert code == 0
        assert out.count("shape=") == 1
        assert out.count("->") == 2

    def test_dot_p1_counts(self, capsys):
        code, out, _ = run(capsys, "dot", FIXTURES / "p1.sls")
        assert code == 0
        assert out.count("shape=") == 3
        assert out.count("->") == 6
        assert out.count("doublecircle") == 1

    def test_dot_output_is_byte_stable(self, capsys, tmp_path):
        first = tmp_path / "a.dot"
        second = tmp_path / "b.dot"
        run(capsys, "dot", FIXTURES / "p2_n4.sls", "-o", first)
        run(capsys, "dot", FIXTURES / "p2_n4.sls", "-o", second)
        assert first.read_bytes() == second.read_bytes()


class TestPsyc:
    def test_typecheck(self, capsys):
        code, out, _ = run(capsys, "psyc", "typecheck", FIXTURES / "program1.psy")
        assert code == 0
        assert last_line(out) == "comm"

    def test_build_writes_system(self, capsys, tmp_path):
        target = tmp_path / "p1.sls"
        code, out, _ = run(
            capsys, "psyc", "build", FIXTURES / "program1.psy", "-o", target
        )
        assert code == 0
        assert last_line(out) == "states 3"
        assert validate(sls.load(target)) == []

    def test_build_budget_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "psyc",
            "build",
            FIXTURES / "program2.psy",
            "--max-states",
            "2",
            "-o",
            tmp_path / "x.sls",
        )
        assert code == 3
        assert "resource" in err

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                (FIXTURES / "program2.psy").read_text().replace("int[0..4]", "int[0..3]"),
                "leaves range [0..3]",
            ),
            (
                "inputs tt ff\noutputs tt ff\nvar y : int\n"
                "y := 2;\nwhile tt do tick(ff) done\n",
                "needs a declared range",
            ),
            (
                "inputs tt ff\noutputs tt ff\nvar x : bool\nx := ff\n",
                "terminates before its first tick",
            ),
        ],
        ids=["IntRangeExceeded", "NonFiniteIntRange", "BuildError"],
    )
    def test_build_user_errors_exit_2(self, capsys, tmp_path, source, message):
        src = tmp_path / "bad.psy"
        src.write_text(source)
        code, _, err = run(capsys, "psyc", "build", src, "-o", tmp_path / "x.sls")
        assert code == 2
        assert err.startswith("error: ")
        assert message in err

    def test_type_error_exits_2(self, capsys, tmp_path):
        src = tmp_path / "bad.psy"
        src.write_text("inputs tt ff\noutputs tt ff\nvar x : bool\nx := 3")
        code, _, err = run(capsys, "psyc", "typecheck", src)
        assert code == 2
        assert "Assign" in err

    def test_2000_statement_loop_body_in_a_fresh_interpreter(self, tmp_path):
        src = tmp_path / "long.psy"
        body = ";\n".join(["  tick(ff)"] * 2000)
        src.write_text(f"inputs tt ff\noutputs tt ff\nwhile tt do\n{body}\ndone\n")
        env = {
            **os.environ,
            "PYTHONPATH": str(pathlib.Path(syncreact.__file__).resolve().parents[1]),
        }
        for argv, last in (
            (["typecheck", str(src)], "comm"),
            (["build", str(src), "-o", str(tmp_path / "long.sls")], "states 2000"),
        ):
            done = subprocess.run(
                [sys.executable, "-m", "syncreact.cli", "psyc", *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            assert last_line(done.stdout) == last

    def _psyc_fresh(self, argv):
        return run_fresh("psyc", *argv)

    def test_1500_conjuncts_in_a_fresh_interpreter(self, tmp_path):
        src = tmp_path / "conj.psy"
        chain = " && ".join(["tt"] * 1500)
        src.write_text(
            "inputs tt ff\noutputs tt ff\nvar x : bool\n"
            f"while tt do x := {chain}; tick(!x) done\n"
        )
        done = self._psyc_fresh(["typecheck", str(src)])
        assert done.returncode == 0, done.stderr
        assert last_line(done.stdout) == "comm"
        done = self._psyc_fresh(["build", str(src), "-o", str(tmp_path / "conj.sls")])
        assert done.returncode == 0, done.stderr
        assert last_line(done.stdout) == "states 1"

    def test_1500_decrements_in_a_tick_continuation_in_a_fresh_interpreter(self, tmp_path):
        # Liveness reads the chain when the tick fires; the assignment
        # then leaves the range.
        src = tmp_path / "dec.psy"
        chain = " - ".join(["!y"] + ["1"] * 1500)
        src.write_text(
            "inputs tt ff\noutputs tt ff\nvar y : int[0..3]\n"
            f"while tt do tick(tt); y := {chain} done\n"
        )
        done = self._psyc_fresh(["typecheck", str(src)])
        assert done.returncode == 0, done.stderr
        assert last_line(done.stdout) == "comm"
        done = self._psyc_fresh(["build", str(src), "-o", str(tmp_path / "dec.sls")])
        assert done.returncode == 2
        assert done.stderr == "error: assignment y := -1500 leaves range [0..3]\n"


    def test_1500_nested_parentheses_in_a_fresh_interpreter(self, tmp_path):
        src = tmp_path / "paren.psy"
        nested = "(" * 1500 + "tt" + ")" * 1500
        src.write_text(
            f"inputs tt ff\noutputs tt ff\nvar x : bool\nwhile tt do x := {nested}; tick(!x) done\n"
        )
        done = self._psyc_fresh(["typecheck", str(src)])
        assert done.returncode == 0, done.stderr
        assert last_line(done.stdout) == "comm"
        done = self._psyc_fresh(["build", str(src), "-o", str(tmp_path / "paren.sls")])
        assert done.returncode == 0, done.stderr
        assert last_line(done.stdout) == "states 1"

    @pytest.mark.parametrize(
        "body, typed, built",
        [
            ("x := " + "tt && (" * 1500 + "tt" + ")" * 1500 + "; " + LOOP, "comm", "states 1"),
            ("x := " + "(" * 1500 + "!y" + " != 0)" * 1500 + "; " + LOOP, None, None),
            ("if tt then " * 1500 + LOOP + " else skip" * 1500, "comm", "states 1"),
            ("while tt do " * 1500 + "tick(!x)" + " done" * 1500, "comm", "states 1"),
        ],
        ids=["right-nested &&", "nested != 0", "nested if", "nested while"],
    )
    def test_1500_deep_statements_and_expressions_in_a_fresh_interpreter(
        self, tmp_path, body, typed, built
    ):
        src = tmp_path / "deep.psy"
        src.write_text(f"inputs tt ff\noutputs tt ff\nvar x : bool\nvar y : int[0..3]\n{body}")
        for argv, last in (
            (["typecheck", src], typed),
            (["build", src, "-o", tmp_path / "deep.sls"], built),
        ):
            done = self._psyc_fresh(argv)
            if last is None:
                assert done.returncode == 2
                assert done.stderr == (
                    "error: NotZero: operand has type exp(bool), not exp(int)\n"
                )
            else:
                assert done.returncode == 0, done.stderr
                assert last_line(done.stdout) == last

    def test_1500_derefs_in_a_fresh_interpreter(self, tmp_path):
        src = tmp_path / "bang.psy"
        src.write_text(
            "inputs tt ff\noutputs tt ff\nvar x : bool\n"
            f"while tt do tick({'!' * 1500}x) done\n"
        )
        done = self._psyc_fresh(["typecheck", str(src)])
        assert done.returncode == 2
        assert done.stderr == "error: Deref: !!x needs a variable\n"


class TestLevelBound:
    def test_walk_past_the_bound_exits_3(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "chain.sls"
        sls.dump(chain_sender(60, ("x", "y", "z")), target)
        for command in ("doe", "sspseq"):
            code, out, _ = run(capsys, command, target, "r")
            assert code == 0
        monkeypatch.setattr(core, "MAX_LEVELS", 50)
        for command in ("doe", "sspseq"):
            code, out, err = run(capsys, command, target, "r")
            assert (code, out) == (3, "")
            assert err == "resource limit: level walk exceeded its bound of 50 levels\n"

    def test_doe_compose_at_index_one_million_in_a_fresh_interpreter(self):
        done = run_fresh(
            "doe-compose",
            FIXTURES / "delay1.sls",
            FIXTURES / "receiver.sls",
            "--qf",
            "s0",
            "--qg",
            "g0",
            "-t",
            "1000000",
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "| *\n"


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("bound", ["0", "-7"])
    def test_state_budget_below_one_exits_2(self, capsys, tmp_path, bound):
        target = tmp_path / "x.sls"
        argv = ["psyc", "build", FIXTURES / "program1.psy", "--max-states", bound, "-o", target]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument --max-states: must be at least 1, got {bound}" in err
        assert not target.exists()

    def test_negative_word_length_exits_2(self, capsys):
        argv = ["separators", FIXTURES / "p1.sls", "p0", "p2", "--max-len", "-1"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "argument --max-len: must be at least 0, got -1" in err

    def test_word_length_zero_lists_the_empty_word(self, capsys):
        code, out, _ = run(capsys, "separators", FIXTURES / "p1.sls", "p0", "p2", "--max-len", "0")
        assert (code, out) == (0, "sep det\nseparators 1\n")
        code, out, _ = run(capsys, "separators", FIXTURES / "p1.sls", "p0", "p1", "--max-len", "0")
        assert (code, out) == (0, "separators 0\n")
