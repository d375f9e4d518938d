"""The three workloads: generated inputs plus a fixed list of CLI commands.

Each command carries its own answer check (see ``check.py``).  Paths in
a command are relative to the workload's work directory, where the
inputs are written and every command runs.

Why these three:

- ``ladder``: deep, narrow systems from source to verdict.  Refinement
  takes one round per chain level and the separation-depth table is
  refilled every level, so ``core`` and ``psyc`` do the work; lassos are
  one symbol long and pair graphs tiny.
- ``lasso``: long lasso walks on small systems.  Level-set walks in
  ``abstraction`` dominate (``cyc`` has 17,017 raw levels on 49 states),
  bisimulation is cheap, and ``lemma`` answers the composition question
  without building the product.
- ``product``: wide synchronized products.  ``reactivity`` builds an
  eager O(n^2) pair graph even for a one-word ``diff``; ``compose`` and
  ``sls`` build and write products of 8k-10k states; the composite
  ``quotient`` uses ``core`` with many classes and few rounds, the
  opposite of ``ladder``.

Sizes keep one pass over a list, with its references and set-up, at
7-9 s on a 2-core box with Python 3.11, so a run of four passes stays
near half a minute.  In ``ladder`` the two ``bisim`` commands stand
above ``p2-2000.build``, which stands well above the rest, so the tail
percentile (ten samples beyond it at four passes) falls inside that one
command's samples rather than between two commands of similar cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

from syncreact import sls

import check as chk
import gen

ROOT = Path(__file__).resolve().parent.parent
RECEIVER = ROOT / "fixtures" / "receiver.sls"


@dataclass
class Command:
    id: str
    argv: list[str]
    check: chk.Check


@dataclass
class Workload:
    name: str
    inputs: list[str]
    commands: list[Command]


class _Builder:
    """Writes inputs into a work directory and collects commands."""

    def __init__(self, name: str, seed: int, workdir: Path, golden: Optional[dict]):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self.inputs: list[str] = []
        self.commands: list[Command] = []

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")

    def write(self, filename: str, text: str) -> str:
        (self.workdir / filename).write_text(text, encoding="utf-8")
        self.inputs.append(filename)
        return filename

    def system(self, system) -> tuple[str, object]:
        return self.write(f"{system.name}.sls", gen.sls_text(system)), system

    def add(self, cid: str, argv: list[str], check: chk.Check) -> None:
        self.commands.append(Command(cid, argv, check))

    def seed_output(self, cid: str, pattern: str) -> chk.Golden:
        return chk.Golden(cid, pattern, self.golden)

    def build(self) -> Workload:
        return Workload(self.name, self.inputs, self.commands)


def _same_output_pair(rng: random.Random, system) -> tuple[str, str]:
    """Two distinct seeded states with equal outputs, away from the root."""
    states = system.states[3:]
    while True:
        p, q = rng.sample(states, 2)
        if system.out_label[p] == system.out_label[q]:
            return p, q


def ladder(b: _Builder) -> None:
    big, small = 2000, 70
    src = b.write(f"p2-{big}.psy", gen.p2_source(big))
    b.add(f"p2-{big}.typecheck", ["psyc", "typecheck", src], chk.last_is("comm"))
    b.add(f"p2-{big}.build", ["psyc", "build", src, "-o", f"p2-{big}.sls"],
          chk.last_is(f"states {big + 2}"))
    b.add(f"p2-{big}.check", ["check", f"p2-{big}.sls"], chk.last_is("ok"))

    src = b.write(f"p2-{small}.psy", gen.p2_source(small))
    built = f"p2-{small}.sls"
    b.add(f"p2-{small}.build", ["psyc", "build", src, "-o", built],
          chk.last_is(f"states {small + 2}"))
    # All N+2 states are pairwise non-bisimilar (classes N+2).
    b.add(f"p2-{small}.bisim", ["bisim", built, "q0", "q1"], chk.verdict("false"))
    b.add(f"p2-{small}.quotient", ["quotient", built, "-o", f"p2-{small}.q.sls"],
          chk.last_is(f"classes {small + 2}"))
    b.add(f"p2-{small}.reactime", ["reactime", built, "q0"], chk.last_is("reactime infinite"))
    b.add(f"p2-{small}.strongsep", ["strongsep", built, "q0", "q1"],
          b.seed_output(f"p2-{small}.strongsep", chk.BOOL))
    b.add(f"p2-{small}.doe", ["doe", built, "q0"], chk.last_is("| *"))
    b.add(f"p2-{small}.sspseq", ["sspseq", built, "q0"], chk.last_is("| {tt/ff}"))

    n = 46
    path, _ = b.system(gen.chain(n))
    b.add(f"chain-{n}.bisim", ["bisim", path, "l0", "m0"],
          chk.verdict("false", f"witness depth {n}"))
    n = 250
    path, _ = b.system(gen.chain(n))
    b.add(f"chain-{n}.quotient", ["quotient", path, "-o", f"chain-{n}.q.sls"],
          chk.last_is(f"classes {2 * n + 3}"))
    b.add(f"chain-{n}.reactime", ["reactime", path, "r"],
          chk.last_starts(f"reactime finite {n} ", chk.REACTIME))
    b.add(f"chain-{n}.strongsep", ["strongsep", path, "l0", "m0"],
          chk.verdict("true", f"bound {n - 1}"))


def lasso(b: _Builder) -> None:
    # Three or more pairwise distinct branches never share one effect
    # pair at a level, so the DOE of a cyc root is silent.
    cycles = []
    for lengths in ((7, 11, 13, 17), (7, 11, 13)):
        tag = "cyc-" + "-".join(map(str, lengths))
        path, _ = b.system(gen.cyc(lengths, b.rng(tag)))
        b.add(f"{tag}.doe", ["doe", path, "r"], chk.last_is("| *"))
        b.add(f"{tag}.sspseq", ["sspseq", path, "r"], b.seed_output(f"{tag}.sspseq", chk.SEQUENCE))
        cycles.append((tag, path))
    tag, path = cycles[-1]
    b.add(f"{tag}.reactime", ["reactime", path, "r"], b.seed_output(f"{tag}.reactime", chk.REACTIME))

    sender, _ = b.system(gen.cs(50))
    receiver, _ = b.system(gen.rcv(140, b.rng("rcv-140")))
    b.add("cs-50.rcv-140.lemma", ["lemma", sender, receiver, "--qf", "r", "--qg", "g0"],
          b.seed_output("cs-50.rcv-140.lemma", chk.LEMMA))

    # These commands sit at the median.  One query's work on a random
    # system varies by a fifth between draws, so each of them runs on a
    # draw of its own and the median spans eight draws.
    for k in range(8):
        tag = f"rand-50.{k}"
        query = "doe" if k < 4 else "sspseq"
        path, _ = b.system(gen.rand(50, b.rng(tag), tag))
        b.add(f"{tag}.{query}", [query, path, "s0"], b.seed_output(f"{tag}.{query}", chk.SEQUENCE))


def product(b: _Builder) -> None:
    n = 250
    rng = b.rng(f"rand-{n}")
    path, system = b.system(gen.rand(n, rng))
    for k in range(2):
        p, q = _same_output_pair(rng, system)
        cid = f"rand-{n}.strongsep{k}"
        b.add(cid, ["strongsep", path, p, q], b.seed_output(cid, chk.BOOL))
    p, q = _same_output_pair(rng, system)
    b.add(f"rand-{n}.separators", ["separators", path, p, q, "--max-len", "6"],
          chk.lines_are(partial(chk.separators_lines, system, p, q, 6)))
    dp, dq = _same_output_pair(rng, system)
    word = [rng.choice(system.inputs.symbols) for _ in range(12)]
    b.add(f"rand-{n}.diff", ["diff", path, dp, dq, "-w", " ".join(word)],
          chk.lines_are(partial(chk.diff_lines, system, dp, dq, word)))
    b.add(f"rand-{n}.reactime", ["reactime", path, "s0"],
          b.seed_output(f"rand-{n}.reactime", chk.REACTIME))
    b.add(f"rand-{n}.seppairs", ["seppairs", path, "s0"],
          chk.lines_are(partial(chk.seppairs_lines, system, "s0")))

    m = 100
    sender, sys_f = b.system(gen.snd(m, b.rng(f"snd-{m}")))
    receiver, sys_g = b.system(gen.rcv(m, b.rng(f"rcv-{m}")))
    seq = "seq.sls"
    b.add(f"snd-{m}.rcv-{m}.seq", ["compose", "--seq", sender, receiver, "-o", seq],
          chk.count_is("states", partial(chk.product_states, sys_f, sys_g, True)))
    b.add(f"snd-{m}.rcv-{m}.par", ["compose", "--par", sender, receiver, "-o", "par.sls"],
          chk.count_is("states", partial(chk.product_states, sys_f, sys_g, False)))
    b.add(f"snd-{m}.rcv-{m}.seq.quotient", ["quotient", seq, "-o", "seq.q.sls"],
          chk.count_is("classes", lambda: chk.bisimulation_classes(sls.load(b.workdir / seq))))

    d = 150
    sender, _ = b.system(gen.cs(d))
    receiver = str(RECEIVER)
    b.add(f"cs-{d}.receiver.lemma", ["lemma", sender, receiver, "--qf", "r", "--qg", "g0"],
          chk.last_is(f"GuaranteedReactive {d}"))
    b.add(f"cs-{d}.receiver.doe-compose",
          ["doe-compose", sender, receiver, "--qf", "r", "--qg", "g0", "-t", str(d)],
          b.seed_output(f"cs-{d}.receiver.doe-compose", chk.SEQUENCE))


def build(name: str, seed: int, workdir: Path, golden: Optional[dict]) -> Workload:
    """Generate the inputs of one workload into workdir and list its commands.

    ``golden`` holds the seed's stdout digests for this workload, or None
    when the seed is not the default one.
    """
    b = _Builder(name, seed, workdir, golden)
    {"ladder": ladder, "lasso": lasso, "product": product}[name](b)
    return b.build()
