import contextlib
import pathlib
import sys

import pytest

from syncreact import compose, core, reactivity, sls

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    return sls.load(FIXTURES / name)


def on_union(query, sys_a, p, sys_b, q, *args):
    """``query`` about state p of ``sys_a`` and q of ``sys_b``, asked of their disjoint union."""
    union, pa, pb = compose.disjoint_union(sys_a, sys_b)
    return query(union, pa + p, pb + q, *args)


def count_refinements(monkeypatch) -> list:
    """Record the successor table of every bisimulation refinement built from now on."""
    built = []
    original = core._Refinement.__init__

    def counting(self, succ, out):
        built.append(succ)
        original(self, succ, out)

    monkeypatch.setattr(core._Refinement, "__init__", counting)
    return built


def count_expansions(monkeypatch) -> list:
    """Record every node whose synchronized successors ``reactivity`` lists from now on."""
    expanded = []
    original = reactivity._successor_pairs

    def counting(succ, node):
        expanded.append(node)
        return original(succ, node)

    monkeypatch.setattr(reactivity, "_successor_pairs", counting)
    return expanded


@contextlib.contextmanager
def shallow_stack(frames: int = 150):
    """Lower the recursion limit to the current stack depth plus ``frames``.

    Code that recurses once per level of its input then fails on inputs
    a few hundred levels deep, not only past the default limit.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture(scope="session")
def const_sys():
    return load_fixture("const.sls")


@pytest.fixture(scope="session")
def toggle_sys():
    return load_fixture("toggle.sls")


@pytest.fixture(scope="session")
def delay1_sys():
    return load_fixture("delay1.sls")


@pytest.fixture(scope="session")
def receiver_sys():
    return load_fixture("receiver.sls")


@pytest.fixture(scope="session")
def p1_sys():
    return load_fixture("p1.sls")


@pytest.fixture(scope="session")
def p2_sys():
    return load_fixture("p2_n4.sls")


@pytest.fixture(scope="session")
def union1_sys():
    return load_fixture("union1.sls")


@pytest.fixture(scope="session")
def union2_sys():
    return load_fixture("union2.sls")


@pytest.fixture(scope="session")
def union_sys():
    return load_fixture("union.sls")


@pytest.fixture(scope="session")
def disap_f_sys():
    return load_fixture("disap_f.sls")


@pytest.fixture(scope="session")
def disap_g_sys():
    return load_fixture("disap_g.sls")


ALL_SYSTEM_FIXTURES = [
    "const.sls",
    "toggle.sls",
    "delay1.sls",
    "receiver.sls",
    "p1.sls",
    "p2_n4.sls",
    "union1.sls",
    "union2.sls",
    "union.sls",
    "disap_f.sls",
    "disap_g.sls",
]
