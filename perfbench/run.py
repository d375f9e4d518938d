"""Time-to-verdict benchmark of the ``syncreact`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --all                # every workload, default seed
    python3 perfbench/run.py --all --trace 1      # per-layer traces instead
    python3 -m pytest -q perfbench                # the benchmark's own tests

A workload (see ``workloads.py``) is a fixed list of CLI commands on
inputs generated from ``--seed``.  They run in a closed loop: one
client, one command at a time, each in a fresh interpreter, timed from
start to exit, with CPU time and peak RSS from ``os.wait4``.  Passes
over the list repeat for ``--seconds``, at least four times; an untimed
set-up pass precedes each one.  The benchmark and its commands run on
one CPU.  Every answer is checked afterwards, outside the timed region
(``check.py``).

The shared hosts this runs on change speed by a fifth or more within
tens of seconds, for everything that runs on them.  So a fixed
pure-Python program (``reference.py``, which imports nothing from
``syncreact``) is timed, like a command, between every two commands,
and each command's time is also given in units of the mean of the two
references around it: the ``_ref`` metrics.  Host drift cancels in
them, while a change to the program moves them as much as its seconds.

End-to-end metrics (``--trace 0``):

- ``wall_s``, ``cpu_s``: the whole list, taken per command as the
  median over passes and summed; ``wall_ref``, ``cpu_ref`` the same in
  reference units (CPU time over the references' CPU time);
- ``verdict_p50_s``, ``verdict_p50_ref``: median time of every command run;
- ``verdict_tail_s``, ``verdict_tail_ref``: the highest percentile with
  ten commands run beyond it at the minimum pass count (printed with it);
- ``decided_ratio``: commands that exited within the time limit;
- ``fail_ratio``: commands with a wrong answer, an unexpected exit code,
  a traceback or a timeout (also the result's ``failed``);
- ``peak_rss_mb``: the largest child peak RSS;
- ``setup_s``: median wall time of the set-up pass, one ``check`` per
  input file (``psyc typecheck`` for programs).

With ``--trace 1`` each command runs three times back to back: in a
subprocess, in-process through ``syncreact.cli.main``, and in-process
with spans around the public functions of every layer (``tracer.py``).
The result then holds the per-layer metrics, and the layer shares are
checked against what each workload was designed to stress.

The last stdout line is the result for the metrics ``BENCHMARK.json``
declares; the lines above describe the run.  ``--record FILE`` appends
the full run record (every metric with its unit, sample counts, seed,
Python version, CPU count and git commit) as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/syncreact/cli.py", "tests/oracles.py", "fixtures/receiver.sls")
GOLDEN = HERE / "golden.json"

WORKLOADS = ("ladder", "lasso", "product")
DEFAULT_SEED = 1
# Every run makes at least this many passes: each command's median is
# then taken over four moments of the run, and the tail percentile below
# stays the same from run to run with ten samples beyond it.
MIN_PASSES = 4
IMPORT_REPEATS = 5
COMMAND_LIMIT_S = 30.0
# Timed work stops here, so checking and clean-up still end the run
# within three minutes even when every command hits its limit.
RUN_BUDGET_S = 140.0
# What reference.py prints: every state of its graph ends in its own class.
REF_CLASSES = 4000


@dataclass
class Outcome:
    id: str
    seconds: float
    cpu: float
    rss_kb: int
    returncode: Optional[int]
    timed_out: bool
    stdout: str
    stderr: str
    skipped: bool = False
    # Mean wall and CPU time of the references timed before and after.
    ref: float = 0.0
    ref_cpu: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Fixed string hashing keeps set iteration, and so timings, alike
    # from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], cwd: Path, env: dict, limit: float, cid: str) -> Outcome:
    """One CLI command in a fresh interpreter, killed at the time limit."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "syncreact.cli", *argv],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        killer = threading.Timer(limit, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    # Reaped above; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = killed.is_set()
    return Outcome(
        cid, seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        None if timed_out else proc.returncode, timed_out,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def reference(env: dict) -> tuple[float, float]:
    """Wall and CPU seconds of ``reference.py`` in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or out.strip() != str(REF_CLASSES).encode():
        raise SystemExit(f"reference run failed: exit {proc.returncode}, output {out[:80]!r}")
    return seconds, usage.ru_utime + usage.ru_stime


def subprocess_pass(commands, workdir: Path, env: dict, deadline: float) -> list[Outcome]:
    """The command list once, with a reference timed between every two commands."""
    outcomes = []
    before = reference(env)
    for cmd in commands:
        limit = min(COMMAND_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            outcomes.append(Outcome(cmd.id, 0.0, 0.0, 0, None, True, "", "", skipped=True))
            continue
        outcome = run_child(cmd.argv, workdir, env, limit, cmd.id)
        after = reference(env)
        outcome.ref = (before[0] + after[0]) / 2
        outcome.ref_cpu = (before[1] + after[1]) / 2
        outcomes.append(outcome)
        before = after
    return outcomes


class CommandTimeout(BaseException):
    """Raised by the alarm inside an in-process command; not an Exception,
    so the CLI's own handlers cannot swallow it."""


def _alarm(signum, frame):
    raise CommandTimeout()


def run_inprocess(cmd, workdir: Path, limit: float, tracer=None) -> Outcome:
    """One command through ``syncreact.cli.main`` in this interpreter."""
    from syncreact import cli

    out, err = io.StringIO(), io.StringIO()
    code, timed_out = None, False
    previous = signal.signal(signal.SIGALRM, _alarm)
    cwd = os.getcwd()
    os.chdir(workdir)
    if tracer is not None:
        tracer.begin(cmd.id)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd.argv)
    except CommandTimeout:
        timed_out = True
    except Exception:  # a crash is a failed command, not a failed run
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        os.chdir(cwd)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(cmd.id, seconds, 0.0, 0, code, timed_out, out.getvalue(), err.getvalue())


def setup_pass(workload, workdir: Path, env: dict, deadline: float) -> float:
    """Warm-up: one ``check`` per input file (``psyc typecheck`` for programs)."""
    start = time.perf_counter()
    for name in workload.inputs:
        program = name.endswith(".psy")
        argv = ["psyc", "typecheck", name] if program else ["check", name]
        limit = min(COMMAND_LIMIT_S, deadline - time.perf_counter())
        outcome = run_child(argv, workdir, env, max(limit, 0.0), "setup")
        if outcome.returncode != 0 or outcome.stdout.strip() != ("comm" if program else "ok"):
            raise SystemExit(f"set-up failed on {name}: exit {outcome.returncode}: "
                             f"{outcome.stderr.strip()[-300:]}")
    return time.perf_counter() - start


def import_seconds(env: dict) -> float:
    """Median time of ``import syncreact.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import syncreact.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=COMMAND_LIMIT_S, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def judge(outcomes: list[Outcome], workload) -> list[dict]:
    """Check every answer; returns one failure entry per failed command."""
    from check import classify

    checks = {cmd.id: cmd.check for cmd in workload.commands}
    memo: dict = {}
    failures = []
    for index, o in enumerate(outcomes):
        if o.skipped:
            reason = "not started: run budget exhausted"
        else:
            key = (o.id, o.returncode, o.timed_out, o.stdout, o.stderr)
            if key not in memo:
                memo[key] = classify(o.returncode, o.timed_out, o.stdout, o.stderr, checks[o.id])
            reason = memo[key]
        if reason is not None:
            failures.append({"id": o.id, "sample": index, "reason": reason})
    return failures


def tail_rank(commands: int) -> float:
    """Highest percentile with ten samples beyond it at the minimum pass
    count; fixed per workload so runs with more passes stay comparable."""
    n = MIN_PASSES * commands
    return 100.0 * (n - 10) / n


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    index = max(0, -(-len(ordered) * percentile // 100) - 1)
    return ordered[int(index)]


def end_to_end(workload, workdir: Path, seconds: float, env: dict, run_start: float):
    """Closed-loop passes, each after an untimed set-up pass.

    Per-pass figures are taken per command as the median over passes and
    then summed, which keeps a burst of load on the machine during one
    command from moving the whole pass.
    """
    deadline = run_start + RUN_BUDGET_S
    passes, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        elapsed = time.perf_counter() - start
        # After the minimum, a pass starts only if one of average length
        # still ends within the measuring time.
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        setups.append(setup_pass(workload, workdir, env, deadline))
        passes.append(subprocess_pass(workload.commands, workdir, env, deadline))
    outcomes = [o for p in passes for o in p]
    failures = judge(outcomes, workload)
    attempted = len(outcomes)
    decided = sum(1 for o in outcomes if not o.timed_out)
    ran = [o for o in outcomes if not o.skipped]
    times = [o.seconds for o in ran]
    in_refs = [o.seconds / o.ref for o in ran]
    per_command = [[o for o in c if not o.skipped] for c in zip(*passes)]

    def summed(value) -> float:
        return sum(statistics.median(value(o) for o in c) for c in per_command if c)

    rank = tail_rank(len(workload.commands))
    metrics = {
        "wall_s": (summed(lambda o: o.seconds), "s"),
        "cpu_s": (summed(lambda o: o.cpu), "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_tail_s": (nearest_rank(times, rank), "s"),
        "wall_ref": (summed(lambda o: o.seconds / o.ref), "ref"),
        "cpu_ref": (summed(lambda o: o.cpu / o.ref_cpu), "ref"),
        "verdict_p50_ref": (statistics.median(in_refs), "ref"),
        "verdict_tail_ref": (nearest_rank(in_refs, rank), "ref"),
        "decided_ratio": (decided / attempted, "ratio"),
        "fail_ratio": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (max(o.rss_kb for o in outcomes) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    samples = {
        "passes": len(passes),
        "commands": attempted,
        "tail_percentile": rank,
        "tail_beyond": sum(1 for t in times if t > metrics["verdict_tail_s"][0]),
        "setup_repeats": len(setups),
        "reference_s": statistics.median(o.ref for o in ran),
    }
    return metrics, samples, attempted, failures


def traced(workload, workdir: Path, env: dict, run_start: float):
    """One pass that runs each command three ways back to back: in a
    subprocess, in-process plain, and in-process with spans.  Running
    them together keeps machine-load drift out of the differences."""
    import tracer as tracing

    deadline = run_start + RUN_BUDGET_S
    import_s = import_seconds(env)
    tr = tracing.Tracer()
    sub, plain, spanned = [], [], []
    for cmd in workload.commands:
        limit = min(COMMAND_LIMIT_S, deadline - time.perf_counter())
        if limit <= 0:
            sub.append(Outcome(cmd.id, 0.0, 0.0, 0, None, True, "", "", skipped=True))
            continue
        sub.append(run_child(cmd.argv, workdir, env, limit, cmd.id))
        plain.append(run_inprocess(cmd, workdir, limit))
        with tr.installed():
            spanned.append(run_inprocess(cmd, workdir, limit, tr))
    outcomes = sub + plain + spanned
    failures = judge(outcomes, workload)
    in_process = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in spanned)
    metrics = tr.metrics()
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.overhead_s"] = (sum(o.seconds for o in sub if not o.skipped) - in_process, "s")
    metrics["trace.overhead_s"] = (traced_s - in_process, "s")
    shares = tr.layer_shares()
    samples = {
        "commands": len(outcomes),
        "spans": len(tr.spans),
        "traced_s": traced_s,
        "span_self_sum_s": sum(tr.self_times()),
        "layer_shares": shares,
        "predictions": tracing.predictions(workload.name, shares),
    }
    return metrics, samples, len(outcomes), failures


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def pin_to_one_cpu() -> None:
    """Keep this process and every command it starts on one CPU.

    The CPUs of a shared host change speed independently; on one CPU the
    references and the commands between them see the same speed.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns its record."""
    import workloads

    run_start = time.perf_counter()
    golden = None
    if seed == DEFAULT_SEED and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())[name]
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(name, seed, workdir, golden)
        env = child_env()
        if trace:
            metrics, samples, attempted, failures = traced(workload, workdir, env, run_start)
        else:
            metrics, samples, attempted, failures = end_to_end(
                workload, workdir, seconds, env, run_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(record: dict, declared: list[dict]) -> str:
    metrics = {}
    for m in declared:
        # A layer whose function no longer exists reports zero work.
        metrics[m["name"]] = record["metrics"].get(m["name"], {"value": 0, "unit": m["unit"]})
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def describe(record: dict) -> str:
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{record['attempted']} commands, {record['failed']} failed"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    samples = record["samples"]
    if "tail_percentile" in samples:
        lines.append(f"  verdict_tail_s is p{samples['tail_percentile']:.1f} of "
                     f"{samples['commands']} samples ({samples['tail_beyond']} beyond it), "
                     f"{samples['passes']} passes")
    for layer, share in samples.get("layer_shares", {}).items():
        lines.append(f"  share {layer:32s} {share:8.1%}")
    for text, held in samples.get("predictions", []):
        lines.append(f"  prediction {'holds' if held else 'FAILS'}: {text}")
    for f in record["failures"][:20]:
        lines.append(f"  FAILED {f['id']} (sample {f['sample']}): {f['reason']}")
    return "\n".join(lines)


def write_golden() -> None:
    """Record the seed's stdout of every command without an oracle."""
    import check
    import workloads

    recorded = {}
    for name in WORKLOADS:
        workdir = HERE / "_work" / f"golden-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = workloads.build(name, DEFAULT_SEED, workdir, None)
            outcomes = subprocess_pass(workload.commands, workdir, child_env(),
                                       time.perf_counter() + RUN_BUDGET_S)
            failures = judge(outcomes, workload)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        golden_ids = {c.id for c in workload.commands if isinstance(c.check, check.Golden)}
        if failures:
            raise SystemExit(f"{name}: refusing to record failing output: {failures}")
        recorded[name] = {o.id: check.digest(o.stdout) for o in outcomes if o.id in golden_ids}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append run records to this JSONL file")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record the default seed's outputs (only when output is meant to change)")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED + ("BENCHMARK.json",) if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a syncreact checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.write_golden:
        write_golden()
        return 0
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    names = WORKLOADS if args.all else (args.workload,)
    pin_to_one_cpu()
    records = []
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace))
        records.append(record)
        print(describe(record), flush=True)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    if args.all:
        return 0 if all(r["failed"] == 0 for r in records) else 1
    print(result_line(records[0], declared_metrics(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
