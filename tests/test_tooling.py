"""The names the benchmark's span tracer patches must exist in the package.

The traced benchmark run is not part of this suite, so a renamed or deleted
method would otherwise break it without a failing test here.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import shlex
import subprocess
import sys
import typing
from pathlib import Path

import localconj
from localconj import IntMatrix, conjugacy
from localconj.cli import _parse_cert, _serialize_cert, main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_defined_in_their_class():
    tracing = load_tracing()
    for layer, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"localconj.{layer}"), cls_name)
        assert meth in cls.__dict__, f"{layer}.{cls_name}.{meth}"


def test_traced_layers_import():
    for layer in load_tracing().LAYERS:
        importlib.import_module(f"localconj.{layer}")


def test_benchmark_layer_metrics_name_traced_spans():
    # a per-layer metric reads a span the tracer installs: a public function
    # of the layer, a traced method or an alias of one; a deleted or renamed
    # function would otherwise read 0 without a failing test
    tracing = load_tracing()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    methods = {f"{layer}.{cls}.{meth}" for layer, cls, meth in tracing.METHODS}
    for metric in spec["per_layer"]:
        name = metric["name"].rpartition(".")[0]
        layer, _, func = name.partition(".")
        assert layer in tracing.LAYERS, metric["name"]
        if not func:
            continue
        mod = importlib.import_module(f"localconj.{layer}")
        obj = getattr(mod, func, None)
        public = (
            not func.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
        )
        assert public or name in methods or tracing.ALIASES.get(name) in methods, metric["name"]


def test_public_names_resolve():
    missing = [name for name in localconj.__all__ if not hasattr(localconj, name)]
    assert missing == []


def test_package_does_not_import_fractions():
    # every elimination in the package runs over Z or F_p; rational
    # arithmetic is left to the test oracles
    offenders = []
    for path in sorted((ROOT / "src" / "localconj").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "fractions" for m in modules):
                offenders.append(path.name)
    assert offenders == []


def _strips_a_factor(test) -> bool:
    """True for a loop condition of the form `x % y == 0`."""
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.BinOp)
        and isinstance(test.left.op, ast.Mod)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Eq)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == 0
    )


def test_only_primes_strips_prime_factors():
    # divisors and valuations are taken in `primes` alone; a private
    # `while x % y == 0` loop elsewhere duplicates them
    offenders = []
    for path in sorted((ROOT / "src" / "localconj").rglob("*.py")):
        if path.name == "primes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.While) and _strips_a_factor(node.test):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _scopes(tree: ast.Module, module: str, hit) -> list[str]:
    """module.function of every node for which hit(node) holds, named by the
    innermost enclosing function (the module itself at top level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if hit(node):
            found.append(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def _snf_callers(tree: ast.Module, module: str) -> list[str]:
    """The scopes of every call of `snf(...)` or `x.snf(...)`."""

    def is_snf_call(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "snf"

    return _scopes(tree, module, is_snf_call)


def test_only_the_snf_command_builds_an_integer_smith_form():
    # mu, lifting and every decision read local Smith forms over Z/p^k, and
    # the kernels come from the Hermite form; the integer Smith form serves
    # the `snf` command alone
    callers = []
    for path in sorted((ROOT / "src" / "localconj").rglob("*.py")):
        callers += _snf_callers(ast.parse(path.read_text()), path.stem)
    assert callers == ["cli.cmd_snf"]


def test_snf_runs_no_elimination_of_its_own():
    # the integer Smith form alternates Hermite forms and inverts its
    # transforms by exact solves: no nested function, no pivot search by
    # |entry|, and the only eliminations it calls are `_hnf_rows`, directly
    # or through one helper, and `solve`
    tree = ast.parse((ROOT / "src" / "localconj" / "intmat.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(func) -> set[str]:
        names = {node.func.id for node in ast.walk(func)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        return names & defs.keys()

    snf = defs["snf"]
    nested = [node for node in ast.walk(snf) if node is not snf
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == []
    assert "abs" not in {node.id for node in ast.walk(snf) if isinstance(node, ast.Name)}
    helpers = called(snf) - {"solve", "_hnf_rows"}
    assert "solve" in called(snf) and len(helpers) <= 1
    assert all(called(defs[name]) == {"_hnf_rows"} for name in helpers)
    assert "_hnf_rows" in called(snf) or helpers


def test_only_the_general_route_reads_the_exact_basis():
    # a reduced pair with a regular side is decided mod p with no exact
    # intertwiner: the basis serves the general route's span and lifting,
    # the pair certificate and `lift_kernel`, and no helper rebuilds a mod-p
    # hit on it or spans the intertwiners mod p another way
    readers, defined = [], set()
    for path in sorted((ROOT / "src" / "localconj").rglob("*.py")):
        tree = ast.parse(path.read_text())
        readers += _scopes(
            tree, path.stem,
            lambda node: isinstance(node, ast.Attribute) and node.attr == "intertwiners",
        )
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert readers == [
        "conjugacy._decide_at_prime", "conjugacy._pair_cert", "sylvester.lift_kernel"
    ]
    gone = {"_lift_mod", "intertwiners_mod", "_cyclic_pair_witness", "_cyclic_unit_krylov"}
    assert not gone & defined


def test_only_settled_reads_whether_a_reduced_side_is_scalar():
    # the verdicts the reduced pair settles have one owner,
    # `ReducedPair.settled`, which deciding and verifying both read
    readers, defined = [], set()
    for path in sorted((ROOT / "src" / "localconj").rglob("*.py")):
        tree = ast.parse(path.read_text())
        readers += _scopes(
            tree, path.stem,
            lambda node: isinstance(node, ast.Attribute) and node.attr == "scalar",
        )
        defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert readers == ["sylvester.settled"]
    assert "_reduced_pair_rejects" not in defined


def test_only_elimination_and_lifting_read_the_operator_matrix():
    # mu at p and `companion_test` read the reduced pair's cyclic vectors;
    # the n^2 x n^2 operator serves the elimination when neither side is
    # regular, exact lifting and the kernel mod a prime power
    readers = []
    for path in sorted((ROOT / "src" / "localconj").rglob("*.py")):
        readers += _scopes(
            ast.parse(path.read_text()), path.stem,
            lambda node: isinstance(node, ast.Attribute) and node.attr == "l",
        )
    assert sorted(readers) == [
        "sylvester._profile_by_elimination", "sylvester.lift_kernel",
        "sylvester.solution_generators_mod",
    ]


def test_the_walk_runs_on_the_generators_as_given():
    # the exact basis is saturated, so independent mod p: the unit search
    # walks it with no elimination, no identity block and no realize step
    tree = ast.parse((ROOT / "src" / "localconj" / "conjugacy.py").read_text())
    witness = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_unit_det_witness")
    names = {node.id for node in ast.walk(witness) if isinstance(node, ast.Name)}
    names |= {node.name for node in ast.walk(witness) if isinstance(node, ast.FunctionDef)}
    assert not names & {"_echelon_fp", "realize"}


def test_no_operator_attribute_or_screen_argument_carries_disc_f():
    # discriminant is memoized per polynomial, so no operator attribute or
    # screen argument carries disc f beside it
    assert "disc" not in localconj.SylvesterOperator.__dict__
    assert list(inspect.signature(conjugacy.screen_primes).parameters) == ["f"]
    readers = []
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            readers += _scopes(
                ast.parse(path.read_text()), path.stem,
                lambda node: isinstance(node, ast.Attribute) and node.attr == "disc",
            )
    assert readers == []


def readme_commands() -> list[str]:
    """The lines of README.md's `sh` block of `localconj` commands."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return next(b for b in blocks if b.startswith("localconj ")).splitlines()


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the documented usage, `snf` among it, runs as written: every command
    # exits 0 and `verify` accepts the report written by `conj-all`
    run_readme_commands(tmp_path, monkeypatch, capsys)


def test_cli_runs_without_the_pure_python_json_encoder(tmp_path, monkeypatch, capsys):
    # json.dumps with an indent runs json.encoder's generator-based encoder
    # (the C encoder takes none); the CLI writes every report and matrix
    # file without it
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    run_readme_commands(tmp_path, monkeypatch, capsys)
    argv = ["gen", "--field", "t^3-2", "--file-format", "json", "--out-a", "ja.json",
            "--out-b", "jb.json"]
    assert main(argv) == 0
    assert main(["conj-all", "ja.json", "jb.json", "--cross-check"]) == 0
    capsys.readouterr()


def test_cli_does_not_import_pathlib():
    # a fresh interpreter without site (whose .pth hooks may import it)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = 'pathlib' in sys.modules;"
        " import localconj.cli; print(before, 'pathlib' in sys.modules)"
    )
    src = str(Path(localconj.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"


def run_readme_commands(tmp_path, monkeypatch, capsys) -> None:
    """Run README's commands through `main` in tmp_path."""
    monkeypatch.chdir(tmp_path)
    lines = readme_commands()
    assert lines[0].startswith("localconj gen ")
    assert lines[-1].startswith("localconj companion-test ")
    for line in lines:
        words = shlex.split(line)
        target = None
        if ">" in words:
            words, target = words[: words.index(">")], words[-1]
        assert words[0] == "localconj", line
        assert main(words[1:]) == 0, line
        out = capsys.readouterr().out
        if target:
            (tmp_path / target).write_text(out)
        if words[1] == "verify":
            assert json.loads(out)["accepted"], out


def test_every_certificate_kind_round_trips():
    # a kind the engine emits has a parser and a parsed kind has an emitter:
    # each comes back unchanged, every field given a value of its own
    for kind in typing.get_args(conjugacy.Certificate):
        values = {
            f.name: IntMatrix([[i + 1, 2], [3, 5]]) if f.type == "IntMatrix" else 10 + i
            for i, f in enumerate(dataclasses.fields(kind))
        }
        cert = kind(**values)
        assert _parse_cert(_serialize_cert(cert)) == cert, kind.__name__
