"""Answer checker: independent expectations for every benchmark command.

A check takes the command's stdout and stderr and returns ``None`` when
the answer is right, or a one-line reason when it is wrong.  Nothing here
runs inside a timed region.  Sources of truth, strongest first:

- closed forms of the generated families (``p2-N``, ``chain-n``,
  ``cs-d``, and the silent DOE of any root entering three or more
  pairwise distinct branches);
- the brute-force oracles of ``tests/oracles.py`` and the benchmark's own
  product BFS and partition refinement, which share no code with the
  library;
- for commands with no independent oracle, a well-formed last line and,
  on the default seed, stdout equal to the recorded seed output
  (``golden.json``).
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from typing import Callable, Optional

from syncreact.core import runs

from tests.oracles import brute_separators, naive_bisimilar_pairs

Check = Callable[[str, str], Optional[str]]

BOOL = r"true|false"
REACTIME = r"reactime (infinite|finite \d+( witness( \S+)+)?)"
SEQUENCE = r"(\S+ )*\| \S+( \S+)*"
LEMMA = r"GuaranteedReactive \d+|NoGuarantee"


def last_line(stdout: str) -> str:
    lines = stdout.rstrip("\n").split("\n")
    return lines[-1]


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def classify(returncode: Optional[int], timed_out: bool, stdout: str, stderr: str,
             check: Check) -> Optional[str]:
    """Failure reason of one command run, or None when it answered right."""
    if timed_out:
        return "killed at the time limit"
    if "Traceback (most recent call last)" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1][:200]
    if returncode != 0:
        return f"exit code {returncode}: " + (stderr.strip().splitlines() or [""])[-1][:200]
    if not stdout.strip():
        return "empty stdout"
    try:
        return check(stdout, stderr)
    except Exception as exc:  # a broken output file or answer must not stop the run
        return f"checker error: {type(exc).__name__}: {exc}"


def last_is(expected: str) -> Check:
    def check(stdout, stderr):
        got = last_line(stdout)
        return None if got == expected else f"last line {got[:80]!r}, expected {expected!r}"
    return check


def verdict(expected: str, stderr_line: Optional[str] = None) -> Check:
    """A boolean answer, plus an exact diagnostic line on stderr."""
    def check(stdout, stderr):
        reason = last_is(expected)(stdout, stderr)
        if reason is None and stderr_line is not None and stderr_line not in stderr.splitlines():
            reason = f"stderr lacks {stderr_line!r}"
        return reason
    return check


def last_starts(prefix: str, pattern: str) -> Check:
    def check(stdout, stderr):
        got = last_line(stdout)
        if not re.fullmatch(pattern, got):
            return f"malformed last line {got[:80]!r}"
        return None if got.startswith(prefix) else f"last line {got[:80]!r}, expected {prefix!r}..."
    return check


def lines_are(expected: Callable[[], list[str]]) -> Check:
    """Whole stdout against lines computed by an oracle on first use."""
    memo: list = []

    def check(stdout, stderr):
        if not memo:
            memo.append(expected())
        want = memo[0]
        got = stdout.rstrip("\n").split("\n")
        if got == want:
            return None
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"line {i}: {g[:60]!r}, oracle {w[:60]!r}"
        return f"{len(got)} lines, oracle {len(want)}"
    return check


def count_is(prefix: str, expected: Callable[[], int]) -> Check:
    memo: list = []

    def check(stdout, stderr):
        if not memo:
            memo.append(f"{prefix} {expected()}")
        return last_is(memo[0])(stdout, stderr)
    return check


class Golden:
    """Well-formed last line; on the default seed, the seed's exact stdout."""

    def __init__(self, key: str, pattern: str, recorded: Optional[dict]):
        self.key = key
        self.pattern = pattern
        self.recorded = recorded

    def __call__(self, stdout, stderr):
        got = last_line(stdout)
        if not re.fullmatch(self.pattern, got):
            return f"malformed last line {got[:80]!r}"
        if self.recorded is None:
            return None
        if self.key not in self.recorded:
            return "no recorded seed output"
        if digest(stdout) != self.recorded[self.key]:
            return f"stdout differs from the seed output (last line {got[:60]!r})"
        return None


# Oracles.  Each takes generated systems, never files the program wrote
# unless the file is the output under test.


def seppairs_lines(system, q: str) -> list[str]:
    """Separating pairs of q from the brute-force bisimilarity relation."""
    bisimilar = naive_bisimilar_pairs(system)

    def distinct(x, y):
        return (x, y) not in bisimilar

    symbols = system.inputs.symbols
    lines = []
    for i, a1 in enumerate(symbols):
        for a2 in symbols[i + 1:]:
            s1, s2 = system.successors(q, a1), system.successors(q, a2)
            forward = any(all(distinct(x, y) for y in s2) for x in s1)
            backward = any(all(distinct(x, y) for x in s1) for y in s2)
            if forward or backward:
                det = all(distinct(x, y) for x in s1 for y in s2)
                lines.append(f"pair {a1} {a2}" + (" det" if det else ""))
    return lines + [f"seppairs {len(lines)}"]


def separators_lines(system, p: str, q: str, max_len: int) -> list[str]:
    found = brute_separators(system, p, system, q, max_len)
    lines = [
        "sep" + "".join(" " + s for s in word) + (" det" if det else "")
        for (word, det) in found
    ]
    return lines + [f"separators {len(found)}"]


def diff_lines(system, p: str, q: str, word: list[str]) -> list[str]:
    """Effect sets along a word, from explicit run enumeration."""
    lines = []
    for n in range(len(word) + 1):
        ends_p = {run.states()[-1] for run in runs(system, p, word[:n])}
        ends_q = {run.states()[-1] for run in runs(system, q, word[:n])}
        values = {
            (system.out(a), system.out(b)) if system.out(a) != system.out(b) else None
            for a in ends_p
            for b in ends_q
        }
        rendered = [
            "*" if v is None else f"({v[0]},{v[1]})"
            for v in sorted(values, key=lambda v: ("", "") if v is None else v)
        ]
        lines.append(f"diff {n} " + " ".join(rendered))
    return lines


def _transitions(system) -> dict:
    succ: dict = {}
    for (src, sym, dst) in system.transitions:
        succ.setdefault((src, sym), set()).add(dst)
    return succ


def product_states(sys_f, sys_g, sequential: bool) -> int:
    """Reachable pairs of the sequential or parallel product, by BFS."""
    sf, sg = _transitions(sys_f), _transitions(sys_g)
    start = (sys_f.initial, sys_g.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        f, g = queue.popleft()
        for a in sys_f.inputs.symbols:
            feeds = [sys_f.out_label[f]] if sequential else sys_g.inputs.symbols
            for c in feeds:
                for f2 in sf[(f, a)]:
                    for g2 in sg[(g, c)]:
                        if (f2, g2) not in seen:
                            seen.add((f2, g2))
                            queue.append((f2, g2))
    return len(seen)


def bisimulation_classes(system) -> int:
    """Number of bisimilarity classes by naive signature refinement.

    Starts from output equality and splits blocks by the set of blocks
    each input reaches until the block count stops growing.
    """
    succ = _transitions(system)
    symbols = system.inputs.symbols
    block = {q: system.out_label[q] for q in system.states}
    count = len(set(block.values()))
    while True:
        signature = {
            q: (block[q],) + tuple(frozenset(block[t] for t in succ[(q, a)]) for a in symbols)
            for q in system.states
        }
        ids: dict = {}
        block = {q: ids.setdefault(sig, len(ids)) for q, sig in signature.items()}
        if len(ids) == count:
            return count
        count = len(ids)
