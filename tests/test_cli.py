"""Command line surface: exit codes and stable final lines."""

import ast
import contextlib
import gc
import importlib
import io
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

import pytest

import syncreact
from syncreact import (
    abstraction,
    cli,
    compose,
    core,
    errors,
    orbits,
    par_compose,
    reactivity,
    sls,
    validate,
)
from syncreact.cli import main
from syncreact.commands import usage

from .conftest import FIXTURES, count_refinements
from .oracles import chain_sender, perfbench_module, sized_system
from .test_golden_cli import GOLDEN

GEN = perfbench_module("gen")

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


def loaded_modules(code: str) -> set[str]:
    """Every module loaded after running ``code`` in a fresh interpreter
    started in the fixtures directory."""
    src = pathlib.Path(syncreact.__file__).resolve().parents[1]
    report = "\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=FIXTURES,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def ours(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "syncreact"}


def package_imports() -> list[tuple[str, int, str, bool, bool, bool]]:
    """Every name a module under ``syncreact`` imports, as ``(file, line,
    name, read, listed, marked)``: the module reads the name, its
    ``__all__`` lists it, or the name's own line carries ``# noqa: F401``."""
    root = pathlib.Path(syncreact.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        file = path.relative_to(root).as_posix()
        module = "syncreact." + file.removesuffix(".py").removesuffix("__init__")
        module = importlib.import_module(module.replace("/", ".").rstrip("."))
        listed = set(getattr(module, "__all__", ()))
        read, imported = set(), []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Import):
                imported += [(a, a.asname or a.name.split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [(a, a.asname or a.name) for a in node.names]
        for alias, name in imported:
            marked = "# noqa: F401" in lines[alias.lineno - 1]
            found.append((file, alias.lineno, name, name in read, name in listed, marked))
    return found


# Slow to import (``dataclasses`` pulls in ``inspect``, ``ast``, ``dis``
# and more); no command needs them.
SLOW_IMPORTS = {"dataclasses", "inspect"}


CORE = {"syncreact", "syncreact.core", "syncreact.errors"}
BASE = CORE | {"syncreact.cli", "syncreact.commands", "syncreact.sls"}
PAIR_LAYERS = CORE | {"syncreact.separation", "syncreact.reactivity"}
LEVEL_LAYERS = CORE | {
    "syncreact.separation", "syncreact.lasso", "syncreact.frontier", "syncreact.abstraction"
}
TABLES = BASE | {"syncreact.commands.tables"}
PAIR_GRAPH = BASE | PAIR_LAYERS | {"syncreact.commands.pairs"}
# ``diff`` and ``separators`` step the frontier kernel; the other pair
# commands search pairs of state ids and compile none of it.
PAIR_FRONTIERS = PAIR_GRAPH | {"syncreact.frontier"}
LEVEL_SETS = BASE | LEVEL_LAYERS | {"syncreact.commands.levels"}
LEMMA = BASE | LEVEL_LAYERS | {"syncreact.commands.lemma", "syncreact.lemma"}
PSYC = BASE | {"syncreact.commands.programs", "syncreact.psyc"} | {
    f"syncreact.psyc.{m}" for m in ("loader", "semantics", "syntax", "typecheck")
}
_DELAY1_RECEIVER = ("delay1.sls", "receiver.sls", "--qf", "s0", "--qg", "g0")

# One run of every command (both of ``psyc``'s) on the fixtures, and the
# ``syncreact`` modules it loads.
COMMAND_MODULES = [
    (["check", "p1.sls"], TABLES),
    (["quotient", "p1.sls", "-o", "OUT"], TABLES),
    (["bisim", "p1.sls", "p0", "p2"], TABLES | {"syncreact.witness"}),
    (["bisim", "p1.sls", "p0", "p0"], TABLES),
    (["seppairs", "p1.sls", "p0"], PAIR_GRAPH),
    (["separators", "p1.sls", "p0", "p2"], PAIR_FRONTIERS),
    (["strongsep", "p1.sls", "p1", "p0"], PAIR_GRAPH),
    (["reactime", "p1.sls", "p0"], PAIR_GRAPH),
    (["diff", "p1.sls", "p0", "p1", "-w", "tt ff"], PAIR_FRONTIERS),
    (["doe", "p1.sls", "p0"], LEVEL_SETS),
    (["ssp", "union1.sls", "u0", "union2.sls", "v1"], LEVEL_SETS | {"syncreact.compose"}),
    (["ssp", "union1.sls", "u0", "u1"], LEVEL_SETS),
    (["sspseq", "p1.sls", "p0"], LEVEL_SETS),
    (["compose", "--par", "p1.sls", "toggle.sls", "-o", "OUT"], TABLES | {"syncreact.compose"}),
    (["lemma", *_DELAY1_RECEIVER], LEMMA),
    (["doe-compose", *_DELAY1_RECEIVER, "-t", "1"], LEMMA),
    (["psyc", "typecheck", "program1.psy"], PSYC),
    (["psyc", "build", "program1.psy", "-o", "OUT"], PSYC),
    (["dot", "p1.sls"], TABLES | {"syncreact.dot"}),
]


class TestImports:
    """Each command loads only the layers it runs; the package loads lazily."""

    @pytest.mark.parametrize("argv, expected", COMMAND_MODULES)
    def test_command_loads_only_its_layers(self, tmp_path, argv, expected):
        argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
        code = (
            "import contextlib, io\nfrom syncreact.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
        )
        loaded = loaded_modules(code)
        assert ours(loaded) == expected
        assert not loaded & SLOW_IMPORTS

    def test_every_command_has_a_module_row(self):
        rows = {" ".join(argv[:2]) if argv[0] == "psyc" else argv[0] for argv, _ in COMMAND_MODULES}
        psyc = {f"psyc {sub}" for sub in cli.COMMANDS["psyc"][1]}
        assert rows == set(cli.COMMANDS) - {"psyc"} | psyc

    def test_import_cli_loads_no_slow_module(self):
        loaded = loaded_modules("import syncreact.cli")
        assert ours(loaded) == BASE
        assert not loaded & SLOW_IMPORTS

    def test_import_core_loads_neither_witnesses_nor_compositions(self):
        # Every command compiles ``core``; what only some commands run stays out of it.
        assert ours(loaded_modules("import syncreact.core")) == CORE

    def test_import_abstraction_loads_no_lemma(self):
        # Every level walk compiles ``abstraction``; only ``lemma`` and
        # ``doe-compose`` run the lemma's walk, and only a walk that
        # splits runs the orbits.
        loaded = ours(loaded_modules("import syncreact.abstraction"))
        assert loaded == LEVEL_LAYERS
        assert not loaded & {"syncreact.orbits", "syncreact.lemma"}

    def test_only_a_walk_that_splits_loads_the_orbits(self, tmp_path):
        # The cycle root's walks are still going at SPLIT_LEVEL: its joint
        # walk loops after lcm(7, 11, 13) = 1001 levels.
        target = tmp_path / "cyc.sls"
        sls.dump(GEN.cyc((7, 11, 13), random.Random(1)), target)
        for argv, split in [
            (["doe", "p1.sls", "p0"], False),
            (["sspseq", "p1.sls", "p0"], False),
            (["doe", str(target), "r"], True),
            (["sspseq", str(target), "r"], True),
        ]:
            code = (
                "import contextlib, io\nfrom syncreact.cli import main\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
            )
            loaded = ours(loaded_modules(code))
            assert loaded == LEVEL_SETS | ({"syncreact.orbits"} if split else set()), argv

    def test_no_module_imports_the_cli(self):
        # Under ``python -m syncreact.cli`` the cli is ``__main__``: a module
        # importing ``syncreact.cli`` by name would compile and run it again.
        root = pathlib.Path(syncreact.__file__).parent
        offenders, checked = [], 0
        for path in sorted(root.rglob("*.py")):
            package = ["syncreact", *path.relative_to(root).parent.parts]
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = package[: len(package) - node.level + 1] if node.level else []
                    module = ".".join(base + ([node.module] if node.module else []))
                    targets = [module] + [f"{module}.{alias.name}" for alias in node.names]
                else:
                    continue
                checked += 1
                if "syncreact.cli" in targets:
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert checked >= 100
        assert offenders == []

    def test_every_handler_resolves_in_its_module(self):
        # The table names each handler as ``module.function`` and the
        # cli imports it on the command's first run; resolve every one here.
        tables, handlers = [cli.COMMANDS], []
        for table in tables:
            for _, handler, *_ in table.values():
                if isinstance(handler, dict):
                    tables.append(handler)
                else:
                    handlers.append(handler)
        assert len(handlers) == 17
        for name in handlers:
            module, _, function = name.partition(".")
            handler = cli._handler(name)
            assert callable(handler), name
            home = (handler.__module__, handler.__name__)
            assert home == (f"syncreact.commands.{module}", function), name

    def test_no_module_imports_dataclasses(self):
        files = sorted(pathlib.Path(syncreact.__file__).parent.rglob("*.py"))
        offenders = []
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module]
                else:
                    continue
                if SLOW_IMPORTS.intersection(names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert len(files) >= 15
        assert offenders == []

    def test_no_module_has_an_unused_import(self):
        # ``__all__`` names and lines marked ``# noqa: F401`` are kept on purpose.
        imports = package_imports()
        unused = [
            f"{file}:{line} {name}" for file, line, name, read, listed, marked in imports
            if not (read or listed or marked)
        ]
        assert len(imports) >= 100
        assert unused == []

    def test_no_module_defines_an_unread_private_name(self):
        # A module-level ``_name`` that nothing else in the package reads
        # is a leftover; reads are names and attribute names in the AST.
        files = sorted(pathlib.Path(syncreact.__file__).parent.rglob("*.py"))
        defined = []
        reads: dict = {}
        for path in files:
            tree = ast.parse(path.read_text())
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names = [stmt.name]
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                defined += [(path, stmt, n) for n in names if n[:1] == "_" and n[:2] != "__"]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    reads.setdefault(node.id, []).append(node)
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, []).append(node)
        unread = []
        for path, stmt, name in defined:
            own = set(map(id, ast.walk(stmt)))
            if all(id(node) in own for node in reads.get(name, ())):
                unread.append(f"{path.name}:{stmt.lineno} {name}")
        assert len(defined) >= 30
        assert unread == []

    def test_every_imported_name_is_read(self):
        # Outside the packages' __init__ files, which re-export, a module
        # reads every name it imports, with or without a ``# noqa: F401``.
        unread = [
            f"{file} {name}" for file, _, name, read, _, _ in package_imports()
            if not read and not file.endswith("__init__.py")
        ]
        assert unread == []

    def test_the_benchmark_tracers_targets_resolve(self):
        # The tracer skips a target it cannot find and reports zero work
        # for it, so deleting one would blank a per-layer metric silently.
        tracer = perfbench_module("tracer")
        for span, (module, attr, _, _) in tracer.FUNCTIONS.items():
            assert callable(getattr(importlib.import_module(module), attr, None)), span
        methods = [m for m in tracer.METHODS if m[0] in ("core.oracle", "lasso.sequences")]
        assert len(methods) == 3
        for span, module, cls, method, _, _ in methods:
            assert method in vars(getattr(importlib.import_module(module), cls)), span
        # A level walk loads no ``reactivity``: abstraction takes no name from it.
        assert [
            name for name, value in vars(abstraction).items()
            if value is reactivity or getattr(value, "__module__", None) == reactivity.__name__
        ] == []
        assert callable(core.runs)
        composed = par_compose(sls.load(FIXTURES / "p1.sls"), sls.load(FIXTURES / "toggle.sls"))
        assert tracer.FUNCTIONS["compose.par_compose"][3](composed) == len(composed.system.states)

    def test_import_syncreact_loads_no_submodule(self):
        assert ours(loaded_modules("import syncreact")) == {"syncreact"}
        assert ours(loaded_modules("from syncreact import doe")) == LEVEL_LAYERS
        assert ours(loaded_modules("from syncreact import separating_pairs")) == PAIR_LAYERS

    def test_public_names_are_their_defining_modules_objects(self):
        assert len(syncreact.__all__) == len(set(syncreact.__all__)) == 46
        for name in syncreact.__all__:
            home = importlib.import_module(f"syncreact.{syncreact._HOME[name]}")
            value = getattr(syncreact, name)
            assert value is vars(home)[name], name
            if hasattr(value, "__qualname__"):
                assert value.__module__ == home.__name__, name

    def test_psyc_public_names_are_package_attributes(self):
        import syncreact.psyc as psyc

        assert len(psyc.__all__) == len(set(psyc.__all__))
        for name in psyc.__all__:
            assert hasattr(psyc, name), name
        assert not {"Leaf", "Node"} & (set(psyc.__all__) | set(vars(psyc)))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            syncreact.no_such_name
        with pytest.raises(ImportError):
            from syncreact import no_such_name  # noqa: F401

    def test_dir_lists_the_public_names_and_submodules(self):
        listed = set(dir(syncreact))
        assert set(syncreact.__all__) <= listed
        assert {"abstraction", "cli", "core", "psyc", "separation", "__version__"} <= listed
        assert syncreact.reactivity is reactivity


def ring(name: str, n: int) -> str:
    """An n-state ring: a steps round it, b stays; outputs alternate."""
    lines = [f"system {name}", "inputs a b", "outputs 0 1", "init s0"]
    lines += [f"state s{i} {i % 2}" for i in range(n)]
    for i in range(n):
        lines += [f"trans s{i} a s{(i + 1) % n}", f"trans s{i} b s{i}"]
    return "\n".join(lines) + "\n"


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (lambda tmp: ("check", FIXTURES / "p1.sls"), 0),
            (lambda tmp: ("check", tmp / "missing.sls"), 2),
            (
                lambda tmp: (
                    "psyc", "build", FIXTURES / "program2.psy", "--max-states", "2",
                    "-o", tmp / "x.sls",
                ),
                3,
            ),
        ],
        ids=["exit-0", "exit-2", "exit-3"],
    )
    def test_main_restores_the_collector_state(self, capsys, tmp_path, enabled, argv, expected):
        """In-process callers get their collector back, and nothing frozen."""
        was = gc.isenabled()
        frozen = gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, _ = run(capsys, *argv(tmp_path))
            assert (code, gc.isenabled(), gc.get_freeze_count()) == (expected, enabled, frozen)
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (lambda tmp: ("quotient", FIXTURES / "p2_n4.sls", "-o", tmp / "out.sls"), 0),
            (lambda tmp: ("check", tmp / "missing.sls"), 2),
            (
                lambda tmp: (
                    "psyc", "build", FIXTURES / "program2.psy", "--max-states", "2",
                    "-o", tmp / "out.sls",
                ),
                3,
            ),
        ],
        ids=["exit-0", "exit-2", "exit-3"],
    )
    def test_process_entry_answers_as_main_does(self, capsys, tmp_path, argv, expected):
        out = tmp_path / "out.sls"

        def written():
            return out.read_bytes() if out.exists() else None

        done = run_fresh(*argv(tmp_path))
        fresh = (done.returncode, done.stdout, done.stderr, written())
        out.unlink(missing_ok=True)
        code, stdout, stderr = run(capsys, *argv(tmp_path))
        assert fresh == (code, stdout, stderr, written())
        assert code == expected

    def test_process_entry_freezes_what_the_command_made(self):
        src = pathlib.Path(syncreact.__file__).resolve().parents[1]
        code = (
            "import gc, sys\n"
            "from syncreact import cli\n"
            f"sys.argv = ['syncreact', 'check', {str(FIXTURES / 'p1.sls')!r}]\n"
            "print(gc.get_freeze_count(), cli.entry(), gc.get_freeze_count() > 0)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert (done.returncode, done.stdout.splitlines()[-1]) == (0, "0 0 True")

    def test_installed_script_is_the_process_entry(self):
        """``pyproject.toml``'s script runs what ``python -m syncreact.cli`` runs."""
        tomllib = pytest.importorskip("tomllib")
        root = pathlib.Path(syncreact.__file__).resolve().parents[2]
        project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
        module, _, name = project["scripts"]["syncreact"].partition(":")
        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        blocks = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        calls = [
            [ast.unparse(n.func) for n in ast.walk(block) if isinstance(n, ast.Call)]
            for block in blocks
        ]
        # The first ``__main__`` block pauses the collector; the process runs the one calling entry.
        called = [c for c in next(c for c in calls if "entry" in c) if c != "SystemExit"]
        assert (module, called) == ("syncreact.cli", [name])
        assert getattr(cli, name) is cli.entry

    def test_process_pauses_the_collector_before_the_cli_imports_core(self, tmp_path):
        """Under ``python -m syncreact.cli`` the cli's own imports run with
        the collector paused; an in-process import leaves it on."""
        (tmp_path / "sitecustomize.py").write_text(
            "import gc, sys\n\n\n"
            "class Probe:\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name == 'syncreact.core':\n"
            "            print('core', gc.isenabled(), file=sys.stderr)\n\n\n"
            "sys.meta_path.insert(0, Probe)\n"
        )
        src = pathlib.Path(syncreact.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(src)])}
        runs = [
            ["-m", "syncreact.cli", "check", str(FIXTURES / "p1.sls")],
            ["-c", "import gc, syncreact.cli; print(gc.isenabled())"],
        ]
        done = [
            subprocess.run(
                [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
            )
            for argv in runs
        ]
        assert [(d.returncode, d.stderr, d.stdout) for d in done] == [
            (0, "core False\n", "ok\n"),
            (0, "core True\n", "True\n"),
        ]

    @pytest.mark.parametrize("command", ["compose", "lemma", "sspseq"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, capsys, tmp_path, command):
        """A command's tables and walks leave no cycles: only argparse's and the like do."""
        left = []
        for n in (2, 2, 100, 2):  # the first run may load the command's layers
            f = tmp_path / f"f{n}.sls"
            if command == "compose":
                g = tmp_path / f"g{n}.sls"
                f.write_text(ring("f", n))
                g.write_text(ring("g", n))
                argv = ("compose", "--par", f, g, "-o", tmp_path / "fg.sls")
                expected = f"states {n * n}"
            elif command == "lemma":
                # One level column group per sender depth, one effect step per index.
                f.write_text(sls.dumps(chain_sender(n, ("0", "1", "2"))))
                argv = ("lemma", f, FIXTURES / "receiver.sls", "--qf", "r", "--qg", "g0")
                expected = f"GuaranteedReactive {n}"
            else:
                f.write_text(ring("f", n))
                argv = ("sspseq", f, "s0")
                expected = None
            # Paused here too, so no automatic collection frees the garbage uncounted.
            enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                code, out, _ = run(capsys, *argv)
                left.append(gc.collect())
            finally:
                if enabled:
                    gc.enable()
            assert code == 0
            if expected is not None:
                assert last_line(out) == expected
        assert left[1] == left[2] == left[3]


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


    def test_loader_error_names_the_bad_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.sls"
        text = (FIXTURES / "receiver.sls").read_text()
        bad.write_text(text.replace("inputs 0 1 2", "inputs 0 1 1"))
        sender = FIXTURES / "delay1.sls"
        code, out, err = run(capsys, "compose", "--seq", sender, bad, "-o", tmp_path / "x")
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:2: duplicate symbol '1'\n"


class TestNotUtf8:
    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("bad.sls", b"system s\ninputs a\n\xff\n", ["check"]),
            ("bad.psy", b"inputs tt ff\noutputs tt ff\n\xff\n", ["psyc", "typecheck"]),
        ],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, name, text, argv):
        target = tmp_path / name
        target.write_bytes(text)
        done = run_fresh(*argv, target)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {target}: not UTF-8 text (invalid start byte)\n"


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

    @pytest.mark.parametrize(
        "first, p, second, q, message",
        [
            ("union1.sls", "zz", "union2.sls", "v0", "unknown state 'zz' in system union1"),
            ("union1.sls", "u0", "union2.sls", "zz", "unknown state 'zz' in system union2"),
            ("p1.sls", "p0", "toggle.sls", "s0", "systems p1 and toggle have different signatures"),
        ],
    )
    def test_ssp_two_files_names_the_bad_file(self, capsys, first, p, second, q, message):
        # The states are asked of the union by their A./B. names, but
        # errors name each file's own system and state.
        code, out, err = run(capsys, "ssp", FIXTURES / first, p, FIXTURES / second, q)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize("mode", ["--seq", "--par"])
    def test_compose_state_name_clash_exits_2(self, capsys, tmp_path, mode):
        sender = tmp_path / "snd.sls"
        sender.write_text(
            "system snd\ninputs i\noutputs x y\ninit a*b\nstate a*b x\nstate a y\n"
            "trans a*b i a\ntrans a i a*b\n"
        )
        receiver = tmp_path / "rcv.sls"
        receiver.write_text(
            "system rcv\ninputs x y\noutputs o\ninit c\nstate c o\nstate b*c o\n"
            "trans c x b*c\ntrans c y b*c\ntrans b*c x c\ntrans b*c y c\n"
        )
        code, out, err = run(capsys, "compose", mode, sender, receiver, "-o", tmp_path / "x.sls")
        assert (code, out) == (2, "")
        assert err == (
            "error: composite state 'a*b*c' names both pairs (a*b, c) and (a, b*c); "
            "'*' is reserved in state names\n"
        )
        assert not (tmp_path / "x.sls").exists()

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

    @pytest.mark.parametrize("moved", ["delay1.sls", "receiver.sls"])
    def test_transition_order_and_repeats_change_no_written_file(self, capsys, tmp_path, moved):
        # Rows moved across states, each row's own order kept, one line repeated.
        canonical = (FIXTURES / moved).read_text()
        head = [line for line in canonical.splitlines() if not line.startswith("trans ")]
        rows = {}
        for line in canonical.splitlines():
            if line.startswith("trans "):
                rows.setdefault(tuple(line.split()[1:3]), []).append(line)
        trans = [line for row in reversed(rows.values()) for line in row]
        text = "\n".join(head + trans + trans[:1]) + "\n"
        assert text != canonical
        assert sls.dumps(sls.loads(sls.dumps(sls.loads(text)))) == sls.dumps(sls.loads(text))
        reordered = tmp_path / moved
        reordered.write_text(text)
        assert run(capsys, "check", reordered)[:2] == (0, "ok\n")
        sender, receiver = FIXTURES / "delay1.sls", FIXTURES / "receiver.sls"
        written = []
        for path in (FIXTURES / moved, reordered):
            out = tmp_path / "out"
            pair = (path, receiver) if moved == "delay1.sls" else (sender, path)
            files = []
            for argv in (
                ("quotient", path, "-o", out),
                ("dot", path, "-o", out),
                ("compose", "--seq", *pair, "-o", out),
            ):
                assert run(capsys, *argv)[0] == 0
                files.append(out.read_bytes())
            written.append(files)
        assert written[0] == written[1]

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
        assert err.startswith(f"error: {src}: ")
        assert message in err

    def test_a_program_name_ending_in_a_line_break_exits_2(self, capsys, tmp_path):
        # The system is named after the file's stem, which must be a token.
        src = tmp_path / "prog\n.psy"
        src.write_text((FIXTURES / "program1.psy").read_text())
        target = tmp_path / "x.sls"
        code, out, err = run(capsys, "psyc", "build", src, "-o", target)
        assert (code, out, err) == (2, "", "error: bad system name 'prog\\n'\n")
        assert not target.exists()

    def test_parse_error_names_the_file_line_and_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.psy"
        bad.write_text("inputs tt ff\noutputs tt ff\nvar x : bool\nx := tt: ff\n")
        code, out, err = run(capsys, "psyc", "typecheck", bad)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:4:8: unexpected character ':'\n"

    def test_type_error_exits_2(self, capsys, tmp_path):
        src = tmp_path / "bad.psy"
        src.write_text("inputs tt ff\noutputs tt ff\nvar x : bool\nx := 3")
        line = f"error: {src}: Assign: x := 3 assigns exp(int) to var(bool)\n"
        code, _, err = run(capsys, "psyc", "typecheck", src)
        assert (code, err) == (2, line)
        code, _, err = run(capsys, "psyc", "build", src, "-o", tmp_path / "bad.sls")
        assert (code, err) == (2, line)

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
        assert done.stderr == f"error: {src}: assignment y := -1500 leaves range [0..3]\n"


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
                    f"error: {src}: NotZero: operand has type exp(bool), not exp(int)\n"
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
        assert done.stderr == f"error: {src}: Deref: !!x needs a variable\n"


class TestLevelBound:
    def test_walk_past_the_bound_exits_3(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "chain.sls"
        sls.dump(chain_sender(60, ("x", "y", "z")), target)
        sender = tmp_path / "sender.sls"
        sls.dump(chain_sender(60, ("0", "1", "2")), sender)
        receiver = ("--qf", "r", "--qg", "g0")
        argvs = [
            ("doe", target, "r"),
            ("sspseq", target, "r"),
            ("lemma", sender, FIXTURES / "receiver.sls", *receiver),
            ("doe-compose", sender, FIXTURES / "receiver.sls", *receiver, "-t", "60"),
        ]
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
        monkeypatch.setattr(abstraction, "MAX_LEVELS", 50)
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert err == "resource limit: level walk exceeded its bound of 50 levels\n"

    def test_a_negative_index_exits_2_before_any_walk(self, capsys, monkeypatch, tmp_path):
        sender = tmp_path / "sender.sls"
        sls.dump(chain_sender(60, ("0", "1", "2")), sender)
        argv = ("doe-compose", sender, FIXTURES / "receiver.sls", "--qf", "r", "--qg", "g0", "-t")
        monkeypatch.setattr(abstraction, "MAX_LEVELS", 50)
        assert run(capsys, *argv, "60")[0] == 3
        assert run(capsys, *argv, "-1") == (2, "", "error: witness index must be nonnegative\n")

    def test_a_silent_sender_answers_without_the_receivers_walk(
        self, capsys, monkeypatch, tmp_path
    ):
        # The cycle root's DOE is silent and its walk loops within 30
        # levels; the receiver's SSPseq walk takes 62, past the bound.
        sender, receiver = tmp_path / "cyc.sls", tmp_path / "chain.sls"
        sls.dump(GEN.cyc((2, 3, 5), random.Random(1)), sender)
        sls.dump(chain_sender(60, ("0", "1", "2"), ("o", "x")), receiver)
        monkeypatch.setattr(abstraction, "MAX_LEVELS", 40)
        assert run(capsys, "sspseq", receiver, "r")[0] == 3
        assert run(capsys, "doe", sender, "r") == (0, "| *\n", "")
        argv = (sender, receiver, "--qf", "r", "--qg", "r")
        assert run(capsys, "lemma", *argv) == (0, "NoGuarantee\n", "")
        assert run(capsys, "doe-compose", *argv, "-t", "3") == (
            2, "", "error: effect at index 3 is not a strongly separating pair at level 4\n"
        )

    def test_orbits_past_the_period_bound_leave_the_answer_to_the_joint_walk(
        self, capsys, monkeypatch, tmp_path
    ):
        # Orbit periods 77, 91 and 143 combine to 1001; the joint walk
        # loops after 1001 levels and the longest orbit after 143.
        target = tmp_path / "cyc.sls"
        sls.dump(GEN.cyc((7, 11, 13), random.Random(1)), target)
        argvs = [("doe", target, "r"), ("sspseq", target, "r")]
        answers = [run(capsys, *argv) for argv in argvs]
        assert [code for code, _, _ in answers] == [0, 0]
        monkeypatch.setattr(orbits, "MAX_PERIOD", 1000)
        assert [run(capsys, *argv) for argv in argvs] == answers
        monkeypatch.setattr(abstraction, "MAX_LEVELS", 600)
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert err == (
                "resource limit: combined orbit period exceeded its bound of 1000 levels\n"
            )

    def test_cycle_root_of_lcm_215441_answers_in_a_fresh_interpreter(self, tmp_path):
        # A joint walk would need 215,441 levels, past MAX_LEVELS.
        target, receiver = tmp_path / "cyc.sls", tmp_path / "g.sls"
        sender = GEN.cyc((17, 19, 23, 29), random.Random(1))
        sls.dump(sender, target)
        sls.dump(sized_system(random.Random(4), "g", 3, sender.outputs.symbols, ("u", "v")), receiver)
        lemma = ("lemma", target, receiver, "--qf", "r", "--qg", "s0")
        for argv in (("doe", target, "r"), ("sspseq", target, "r"), lemma):
            start = time.perf_counter()
            done = run_fresh(*argv)
            assert time.perf_counter() - start < 5, argv
            assert done.returncode == 0, done.stderr
            if argv[0] == "doe":
                # Three or more distinct branches never share one effect.
                assert done.stdout == "| *\n"
            if argv[0] == "lemma":
                # So no index fits, and the output pairs are never walked.
                assert done.stdout == "NoGuarantee\n"

    @pytest.mark.parametrize(
        "mode, left, right",
        [("--seq", "delay1.sls", "receiver.sls"), ("--par", "p1.sls", "toggle.sls")],
    )
    def test_compose_past_the_node_budget_exits_3(
        self, capsys, monkeypatch, tmp_path, mode, left, right
    ):
        target = tmp_path / "fg.sls"
        argv = ["compose", mode, FIXTURES / left, FIXTURES / right, "-o", target]
        assert run(capsys, *argv)[0] == 0
        nodes = len(sls.load(target).states)
        target.unlink()
        monkeypatch.setattr(compose, "MAX_NODES", nodes)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(compose, "MAX_NODES", nodes - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == f"resource limit: state budget of {nodes - 1} states exceeded\n"

    def test_separators_past_the_word_bound_exits_3(self, capsys, monkeypatch):
        argv = ["separators", FIXTURES / "p1.sls", "p0", "p0", "--max-len"]
        monkeypatch.setattr(reactivity, "MAX_PENDING_WORDS", 4)
        assert run(capsys, *argv, "2")[:2] == (0, "separators 0\n")
        code, out, err = run(capsys, *argv, "3")
        assert (code, out) == (3, "")
        assert err == "resource limit: separator search exceeded its bound of 4 pending words\n"

    def test_separators_max_len_200_exits_3_in_a_fresh_interpreter(self):
        start = time.perf_counter()
        done = run_fresh("separators", FIXTURES / "p1.sls", "p0", "p0", "--max-len", "200")
        assert time.perf_counter() - start < 30
        assert (done.returncode, done.stdout) == (3, "")
        bound = reactivity.MAX_PENDING_WORDS
        assert done.stderr == (
            f"resource limit: separator search exceeded its bound of {bound} pending words\n"
        )

    def test_doe_compose_at_index_one_million_in_a_fresh_interpreter(self):
        # A silent answer costs no work per index, so 10^15 answers at once.
        for index in ("1000000", "1000000000000000"):
            done = run_fresh(
                "doe-compose",
                FIXTURES / "delay1.sls",
                FIXTURES / "receiver.sls",
                "--qf",
                "s0",
                "--qg",
                "g0",
                "-t",
                index,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout == "| *\n"


class TestOutOfMemory:
    def test_memory_error_exits_3_with_one_line(self, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(sls, "load", exhausted)
        assert run(capsys, "check", FIXTURES / "p1.sls") == (3, "", "resource limit: out of memory\n")

    def test_a_command_out_of_memory_exits_3_in_a_fresh_interpreter(self, tmp_path):
        pytest.importorskip("resource")
        if not pathlib.Path("/proc/self/status").exists():
            pytest.skip("the child reads its size from /proc/self/status")
        # The child caps its address space at its own size after import
        # plus 40 MB, so the cap follows the interpreter, not the host.
        # One 64 MB read then fails at once, whatever the heap's layout.
        big = tmp_path / "big.sls"
        with open(big, "w") as handle:
            handle.writelines(["#" * 1023 + "\n"] * (1 << 16))
        code = (
            "import resource, sys\n"
            "from syncreact import cli\n"
            "with open('/proc/self/status') as status:\n"
            "    size = next(int(s.split()[1]) for s in status if s.startswith('VmSize:')) << 10\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (40 << 20), hard))\n"
            "raise SystemExit(cli.main(sys.argv[1:]))\n"
        )
        src = pathlib.Path(syncreact.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code, "check", str(big)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            3,
            "",
            "resource limit: out of memory\n",
        )


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_the_full_parser_names_the_command_argument(self, capsys):
        assert run(capsys, "nosuch")[2].splitlines()[-1].startswith(
            "syncreact: error: argument command: invalid choice: 'nosuch'"
        )
        assert run(capsys)[2].splitlines()[-1] == (
            "syncreact: error: the following arguments are required: command"
        )

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_the_readme_exit_code_paragraph_names_every_resource_error(self):
        text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        paragraph = text.split("Exit codes follow the class of the error", 1)[1].split("\n\n", 1)[0]
        bounds = [
            name
            for name, cls in vars(errors).items()
            if isinstance(cls, type)
            and issubclass(cls, errors.ResourceError)
            and cls is not errors.ResourceError
        ]
        assert len(bounds) >= 5
        assert [name for name in bounds if f"`{name}`" not in paragraph] == []

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


def golden_argvs() -> list[list[str]]:
    """argv of every command in ``tests/golden_cli.txt``."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line[len("$ syncreact ") :]) for line in lines if line.startswith("$ ")]


def command_flags() -> list[str]:
    """Every flag of every command in :data:`cli.COMMANDS`, ``psyc``'s included."""
    flags, tables = [], [cli.COMMANDS]
    for table in tables:
        for _, handler, *arguments in table.values():
            if isinstance(handler, dict):
                tables.append(handler)
            for argument in arguments:
                if isinstance(argument, tuple):
                    names = argument if isinstance(argument[0], str) else argument[0]
                    flags += [name for name in names if name.startswith("-")]
    return flags


def token_mutant(argv: list[str], rng: random.Random, inserts: list[str]) -> list[str]:
    """argv with one or two tokens dropped, duplicated, swapped, replaced or inserted."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        edit = rng.randrange(5) if argv else 4
        i, j = rng.randrange(len(argv) or 1), rng.randrange(len(argv) or 1)
        if edit == 0:
            del argv[i]
        elif edit == 1:
            argv.insert(i, argv[i])
        elif edit == 2:
            argv[i], argv[j] = argv[j], argv[i]
        elif edit == 3:
            argv[i] = rng.choice(inserts)
        else:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(inserts))
    return argv


# Well-formed and nearly well-formed argvs the snapshot lacks: option
# values the type rejects, both choices, a choice or an option among the
# positionals, a second file among ssp's rest.
EDGE_ARGVS = [
    ["psyc", "build", "p.psy", "--max-states", "0", "-o", "x"],
    ["psyc", "build", "--max-states", "5", "p.psy", "-o", "x"],
    ["psyc", "typecheck", "p.psy", "x"],
    ["separators", "f", "p", "--max-len", "x", "q"],
    ["separators", "f", "--max-len", " 2", "p", "q"],
    ["doe-compose", "f", "g", "--qf", "a", "--qg", "b", "-t", "1_0"],
    ["doe-compose", "f", "-t", "x", "g", "--qf", "a", "--qg", "b"],
    ["compose", "--seq", "--par", "f", "g", "-o", "x"],
    ["compose", "f", "--par", "g", "--output", "x"],
    ["diff", "f", "p", "q", "--word", "", "-w", "a b"],
    ["ssp", "f", "p", "g", "q", "r"],
    ["dot", "f", "-o", ""],
]


class TestDirectRead:
    """A well-formed command line is read straight from ``COMMANDS``;
    argparse is loaded only for help, usage and errors."""

    def test_the_direct_read_is_argparse_wherever_it_answers(self):
        flags = command_flags()
        inserts = ["-h", "--help", "--", "-1", "-", "", "-ox", "-x y", "0", "3", "x", *flags]
        inserts += [flag[:k] for flag in flags if flag[:2] == "--" for k in range(3, len(flag))]
        inserts += [f"{flag}=1" for flag in flags]
        golden = golden_argvs()
        rng = random.Random(1)
        seeds = golden + EDGE_ARGVS
        argvs = seeds + [token_mutant(argv, rng, inserts) for argv in seeds for _ in range(20)]
        parser, declined = usage.build_parser(cli.COMMANDS), []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in argvs:
                try:
                    parsed = vars(parser.parse_args(argv))
                except SystemExit:
                    parsed = None
                direct = cli._read(argv)
                # Where argparse exits, parsed is None and the read must decline.
                assert direct is None or vars(direct) == parsed, argv
                declined.append(direct is None)
        assert len(golden) >= 1700 and len(argvs) - len(seeds) >= 30_000
        assert {argv[0] for argv in golden} == set(cli.COMMANDS)
        assert [argv for argv, no in zip(golden, declined) if no] == []
        assert declined.count(False) - len(golden) >= 2000 and declined.count(True) >= 20_000

    def test_the_direct_read_answers_every_benchmark_command(self, tmp_path):
        # The benchmark's commands are all well formed, so none of them
        # pays for argparse.
        workloads = perfbench_module("workloads")
        argvs = []
        for name in ("ladder", "lasso", "product"):
            (tmp_path / name).mkdir()
            argvs += [c.argv for c in workloads.build(name, 1, tmp_path / name, None).commands]
        assert len(argvs) >= 39
        assert [argv for argv in argvs if cli._read(argv) is None] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "p1.sls"],
            ["doe", "p1.sls", "p0"],
            ["ssp", "union1.sls", "u0", "union2.sls", "v1"],
            ["compose", "--seq", "delay1.sls", "receiver.sls", "-o", "OUT"],
            ["psyc", "build", "program1.psy", "-o", "OUT"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_a_well_formed_command_loads_no_argparse(self, tmp_path, argv):
        argv = [str(tmp_path / "out.sls") if a == "OUT" else a for a in argv]
        code = (
            "import contextlib, io, sys\nfrom syncreact import cli\n"
            f"sys.argv = ['syncreact', *{argv!r}]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.entry() == 0"
        )
        assert loaded_modules(code) & {"argparse", "gettext", "locale"} == set()

    @pytest.mark.parametrize(
        "argv, first",
        [
            (["doe", "-h"], "usage: syncreact doe [-h] file state\n"),
            (["doe", "p1.sls"], "usage: syncreact doe [-h] file state\n"),
        ],
    )
    def test_help_and_usage_errors_load_argparse(self, capsys, monkeypatch, argv, first):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(FIXTURES)
        done = run_fresh(*argv)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
        assert (done.stdout or done.stderr).startswith(first)
        code = "import contextlib, io\nfrom syncreact.cli import main\n"
        code += "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):"
        code += f"\n    main({argv!r})"
        assert "argparse" in loaded_modules(code)
