"""Fixed work that the benchmark times between every two commands.

Run as ``python3 perfbench/reference.py``; prints the number of classes
it found.  It imports nothing from ``syncreact``, so no change to the
program moves its time, and it runs the way every command does: in a
fresh interpreter.  The work is of the kind the CLI does, hashing tuples
into dicts and sorting: a partition refinement of a fixed graph with two
successors per state.
"""

STATES, ROUNDS = 4000, 8


def refine() -> int:
    succ = {i: ((i * 7 + 3) % STATES, (i * 13 + 5) % STATES) for i in range(STATES)}
    block = {i: i % 3 for i in succ}
    for _ in range(ROUNDS):
        signature = {i: (block[i], block[a], block[b]) for i, (a, b) in succ.items()}
        ids: dict = {}
        block = {i: ids.setdefault(sig, len(ids)) for i, sig in sorted(signature.items())}
    return len(ids)


if __name__ == "__main__":
    print(refine())
