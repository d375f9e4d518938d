"""Quick tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent), str(HERE)]

import check  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def family_texts(seed: int) -> list[str]:
    rng = lambda tag: random.Random(f"{seed}:{tag}")  # noqa: E731
    systems = [
        gen.chain(7), gen.cs(4), gen.rand(30, rng("rand")), gen.snd(20, rng("snd")),
        gen.rcv(20, rng("rcv")), gen.cyc((3, 5, 7), rng("cyc")),
    ]
    return [gen.sls_text(s) for s in systems] + [gen.p2_source(6)]


def test_generators_are_deterministic_for_a_seed():
    assert family_texts(5) == family_texts(5)
    assert family_texts(5) != family_texts(6)


def test_workload_inputs_are_deterministic_for_a_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        workload = workloads.build("lasso", 3, workdir, None)
        texts.append({name: (workdir / name).read_text() for name in workload.inputs})
    assert texts[0] == texts[1]


def test_checker_rejects_a_flipped_verdict():
    right = check.verdict("false", "witness depth 3")
    assert check.classify(0, False, "false\n", "witness depth 3\n", right) is None
    assert check.classify(0, False, "true\n", "", right) is not None
    assert check.classify(0, False, "false\n", "witness depth 2\n", right) is not None


def test_checker_rejects_a_killed_command(tmp_path):
    (tmp_path / "chain.sls").write_text(gen.sls_text(gen.chain(60)))
    outcome = run.run_child(["bisim", "chain.sls", "l0", "m0"], tmp_path, run.child_env(),
                            0.05, "bisim")
    assert outcome.timed_out
    reason = check.classify(outcome.returncode, outcome.timed_out, outcome.stdout,
                            outcome.stderr, check.verdict("false"))
    assert reason == "killed at the time limit"


def test_checker_rejects_a_crash_and_a_bad_exit_code():
    ok = check.last_is("ok")
    assert check.classify(0, False, "ok\n", "", ok) is None
    assert check.classify(2, False, "ok\n", "error: x\n", ok).startswith("exit code 2")
    crash = "Traceback (most recent call last):\n  ...\nKeyError: 'q'\n"
    assert check.classify(0, False, "ok\n", crash, ok).startswith("traceback")


def small_commands(workdir: Path) -> list:
    rng = random.Random("trace-test")
    files = {
        "chain.sls": gen.chain(12), "rand.sls": gen.rand(40, rng),
        "cs.sls": gen.cs(6), "rcv.sls": gen.rcv(15, rng),
    }
    for name, system in files.items():
        (workdir / name).write_text(gen.sls_text(system))
    argvs = [
        ["bisim", "chain.sls", "l0", "m0"], ["reactime", "chain.sls", "r"],
        ["quotient", "rand.sls", "-o", "q.sls"], ["doe", "rand.sls", "s0"],
        ["sspseq", "rand.sls", "s0"], ["diff", "rand.sls", "s3", "s4", "-w", "a b a"],
        ["lemma", "cs.sls", "rcv.sls", "--qf", "r", "--qg", "g0"],
        ["compose", "--seq", "cs.sls", "rcv.sls", "-o", "c.sls"],
    ]
    return [workloads.Command(" ".join(a[:2]), a, check.last_is("")) for a in argvs]


def test_span_self_times_sum_to_the_traced_wall_time(tmp_path):
    commands = small_commands(tmp_path)
    tr = tracer.Tracer()
    plain = [run.run_inprocess(c, tmp_path, 30) for c in commands]
    with tr.installed():
        spanned = [run.run_inprocess(c, tmp_path, 30, tr) for c in commands]
    assert all(o.returncode == 0 for o in plain + spanned)
    traced_wall = sum(o.seconds for o in spanned)
    overhead = traced_wall - sum(o.seconds for o in plain)
    # Root spans open and close around each command's timer, so the two
    # differ only by that bookkeeping.
    gap = abs(traced_wall - sum(tr.self_times()))
    assert gap < max(overhead, 0) + 0.01


def test_nested_calls_nest_and_wrappers_are_removed(tmp_path):
    from syncreact import abstraction, reactivity

    original = reactivity.separating_pairs
    commands = small_commands(tmp_path)
    tr = tracer.Tracer()
    with tr.installed():
        assert abstraction.separating_pairs is not original
        for c in commands:
            run.run_inprocess(c, tmp_path, 30, tr)
    assert abstraction.separating_pairs is original
    parents = {tr.spans[s[3]][0] for s in tr.spans if s[0] == "core.oracle"}
    assert "abstraction.doe_levels" in parents
    assert "reactivity.det_reaction_time" in parents
    metrics = tr.metrics()
    assert metrics["core.oracle.builds"][0] == metrics["core.oracle.calls"][0] > 0
    assert metrics["compose.seq_compose.states"][0] > 0


def test_reference_checks_its_answer():
    wall, cpu = run.reference(run.child_env())
    assert wall > 0 and cpu > 0
    assert reference.refine() == run.REF_CLASSES
