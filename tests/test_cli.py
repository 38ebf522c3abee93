"""The command-line surface: formats, determinism, exit codes, reports and
their re-verification."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import localconj
from localconj import gen
from localconj import (
    IdealLattice,
    IntMatrix,
    IntPoly,
    NumberField,
    PreconditionError,
    SylvesterOperator,
    charpoly,
    companion_test,
    conjugate_over_Zp,
    eigenvector,
    ell_invariant,
    generate_pair,
    ideal_of_matrix,
    in_Id_p,
    is_irreducible,
    lift_kernel,
    mul,
    parse_poly,
    screen_primes,
    zbeta_order,
)
from localconj import cli
from localconj.cli import (
    _commands,
    _parse_cert,
    _parse_strict,
    build_parser,
    conj_all_report,
    conj_p_report,
    main,
    matrix_digest,
    read_matrix,
    verify_report,
    weak_equiv_report,
    write_matrix,
)

from conftest import CLASSIC_A, CLASSIC_B, wide_pair


# The directory holding the package this session imported, made absolute so
# that a child started in another working directory imports the same code.
PACKAGE_ROOT = str(Path(localconj.__file__).resolve().parent.parent)


def run_cli(args: list[str], cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        PACKAGE_ROOT + os.pathsep + inherited if inherited else PACKAGE_ROOT
    )
    return subprocess.run(
        [sys.executable, "-m", "localconj", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


@pytest.fixture()
def classic_files(tmp_path):
    pa = tmp_path / "a.txt"
    pb = tmp_path / "b.json"
    write_matrix(str(pa), CLASSIC_A, "text")
    write_matrix(str(pb), CLASSIC_B, "json")
    return str(pa), str(pb)


class TestParsing:
    def test_text_format(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n0 1\n-3 0\n")
        assert read_matrix(str(p)) == CLASSIC_A

    def test_json_format(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 2, "rows": [[0, 1], [-3, 0]]}))
        assert read_matrix(str(p)) == CLASSIC_A

    def test_formats_share_digest(self, classic_files, tmp_path):
        pa, _ = classic_files
        alt = tmp_path / "alt.json"
        write_matrix(str(alt), CLASSIC_A, "json")
        assert matrix_digest(read_matrix(pa)) == matrix_digest(read_matrix(str(alt)))

    def test_malformed_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("2\n1 2 3\n")
        assert main(["charpoly", str(p)]) == 1

    @pytest.mark.parametrize("report", [
        {"command": "conj-p", "verdict": {"conjugate": True}, "certificate": [1, 2]},
        {"command": "conj-p", "verdict": [1]},
        {"command": "conj-all", "inputs": [], "verdict": {}},
        {"command": "conj-all", "per_prime": [5], "screened_primes": [2],
         "verdict": {"conjugate": False}},
        {"command": "conj-all", "per_prime": [], "screened_primes": 5,
         "verdict": {"conjugate": False}},
        {"command": "conj-all", "per_prime": [], "screened_primes": [2],
         "verdict": "yes"},
        {"command": "conj-all", "inputs": {"a": None, "b": 3}, "verdict": {}},
        {"command": "weak-equiv", "verdict": "yes"},
    ])
    def test_malformed_report_exits_one(self, report, tmp_path, capsys):
        # a field of the wrong JSON shape is a parse failure, not a traceback
        pa = tmp_path / "a.txt"
        write_matrix(str(pa), CLASSIC_A, "text")
        pr = tmp_path / "r.json"
        pr.write_text(json.dumps(report))
        assert main(["verify", str(pr), str(pa), str(pa)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: malformed report")
        assert captured.err.count("\n") == 1

    def test_missing_file_exits_one(self):
        assert main(["charpoly", "/nonexistent/never.txt"]) == 1

    def test_float_entry_exits_one(self, tmp_path, capsys):
        # a float is refused, never truncated to [[1, 1], [1, 0]]
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 2, "rows": [[1.7, 1], [1, 0]]}))
        assert main(["conj-p", str(p), str(p), "--prime", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be integers" in captured.err

    def test_float_in_certificate_is_malformed(self, classic_files, tmp_path, capsys):
        pa, pb = classic_files
        report = conj_p_report(CLASSIC_A, CLASSIC_B, pa, pb, 3)
        assert report["verdict"]["conjugate"]
        exits = []
        for tamper in ("float", "ragged", "modulus", "prime"):
            blob = json.loads(json.dumps(report))
            matrix = blob["certificate"]["matrix"]
            if tamper == "float":
                matrix[0][0] += 0.5
            elif tamper == "ragged":
                matrix[0].pop()
            else:
                blob["certificate"][tamper] += 0.5
            path = tmp_path / f"{tamper}.json"
            path.write_text(json.dumps(blob))
            exits.append(main(["verify", str(path), pa, pb]))
            assert capsys.readouterr().err.startswith("precondition violated")
        assert exits == [2, 2, 2, 2]

    def test_float_size_exits_one(self, tmp_path, capsys):
        # refused, never truncated to a 2x2 matrix
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 2.9, "rows": [[0, 1], [-3, 0]]}))
        assert main(["charpoly", str(p)]) == 1
        assert capsys.readouterr().out == ""

    def test_float_witness_denominator_is_malformed(self, tmp_path):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        report = weak_equiv_report(pair.a, pair.b, "a", "b")
        report["witnesses"]["x"]["den"] += 0.5
        assert verify_report(report, pair.a, pair.b) == (
            False, "malformed witness ideals"
        )

    def test_boolean_entry_exits_one(self, tmp_path, capsys):
        # refused, never read as [[1, 1], [-3, 0]]
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 2, "rows": [[True, 1], [-3, False]]}))
        assert main(["conj-p", str(p), str(p), "--prime", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be integers" in captured.err

    def test_boolean_size_exits_one(self, tmp_path, capsys):
        # refused, never read as a 1x1 matrix
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": True, "rows": [[0]]}))
        assert main(["charpoly", str(p)]) == 1
        assert capsys.readouterr().out == ""

    def test_boolean_in_certificate_is_malformed(self, classic_files, tmp_path, capsys):
        pa, pb = classic_files
        report = conj_p_report(CLASSIC_A, CLASSIC_B, pa, pb, 3)
        unit = report["certificate"]
        matrix = [[True] + row[1:] for row in unit["matrix"]]
        for blob in (
            dict(unit, prime=True),
            dict(unit, modulus=True),
            dict(unit, matrix=matrix),
            {"type": "integer_pair", "q": [[True, 0], [0, 1]], "s": [[1, 0], [0, 1]]},
        ):
            with pytest.raises(PreconditionError, match="malformed certificate"):
                _parse_cert(blob)
        unit["prime"] = True
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["verify", str(path), pa, pb]) == 2
        assert capsys.readouterr().err.startswith("precondition violated")

    @pytest.mark.parametrize("field", ["den", "rows"])
    def test_boolean_witness_is_malformed(self, field):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        report = weak_equiv_report(pair.a, pair.b, "a", "b")
        witness = report["witnesses"]["x"]
        assert witness == {"den": 1, "rows": [[1, 0], [0, 1]]}
        if field == "den":
            witness["den"] = True
        else:
            witness["rows"] = [[True, False], [False, True]]
        assert verify_report(report, pair.a, pair.b) == (
            False, "malformed witness ideals"
        )

    def test_witness_row_of_the_wrong_length_is_malformed(self, tmp_path, capsys):
        # refused as malformed (exit 0), not an internal error (exit 3)
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        report = weak_equiv_report(pair.a, pair.b, "a", "b")
        report["witnesses"]["x"]["rows"] = [[1, 0, 5], [0, 1, 7]]
        paths = [tmp_path / name for name in ("report.json", "a.txt", "b.txt")]
        paths[0].write_text(json.dumps(report))
        write_matrix(str(paths[1]), pair.a)
        write_matrix(str(paths[2]), pair.b)
        assert main(["verify", *map(str, paths)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["accepted"], payload["reason"]) == (
            False, "malformed witness ideals"
        )


# top-level and subcommand help, and usage errors, as `main` printed them
# before the parser was built per subcommand (80 columns)
CLI_TEXTS = json.loads((Path(__file__).parent / "cli_texts.json").read_text())


class TestParserTexts:
    @pytest.mark.parametrize("argv", sorted(CLI_TEXTS))
    def test_text_unchanged(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert [exc.value.code, captured.out, captured.err] == CLI_TEXTS[argv]

    def test_every_subcommand_help_recorded(self):
        assert {f"{c[0]} --help" for c in _commands()} <= set(CLI_TEXTS)


def argparse_namespace(argv: list[str]) -> argparse.Namespace | None:
    """What argparse makes of argv; None where it exits (help or usage)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


# tokens a user can type that the strict parser must leave to argparse, or
# read exactly as argparse does
ODD_TOKENS = ("--prime=7", "--pri", "-7", "+7", "7_0", "\u0667", "", "--", "-h", "-x")


def random_argv(rng: random.Random) -> list[str]:
    """A command line built from the command table, then often broken."""
    if rng.random() < 0.02:
        return rng.choice([[], ["bogus"], ["-h"], ["--format", "json"]])
    name, _, arguments, _ = rng.choice(_commands())

    def value(kwargs) -> str:
        if rng.random() < 0.25:
            return rng.choice(ODD_TOKENS + ("x", "y", "xml"))
        if "choices" in kwargs:
            return rng.choice(kwargs["choices"])
        if "type" in kwargs:
            return str(rng.randrange(-3, 30))
        return rng.choice(("a.txt", "b.json", "t^2+3", "7"))

    positionals = [value(kw) for arg, kw in arguments if not arg.startswith("-")]
    units = []
    for arg, kwargs in arguments:
        if arg.startswith("-") and (kwargs.get("required") or rng.random() < 0.5):
            flag = kwargs.get("action") == "store_true"
            unit = [arg] if flag else [arg, value(kwargs)]
            units.append(unit)
            if rng.random() < 0.05:
                units.append(list(unit))  # a repeated option
    if positionals and rng.random() < 0.1:
        positionals.pop(rng.randrange(len(positionals)))
    if rng.random() < 0.1:
        positionals.append("extra")
    if units and rng.random() < 0.1:
        units.pop(rng.randrange(len(units)))
    if rng.random() < 0.15:
        units.append(rng.choice(
            [["-x", "y"], ["--"], ["-h"], ["--prime=7"], ["--pri", "7"], [rng.choice(ODD_TOKENS)]]
        ))
    # options before, between and after the positionals, which keep their order
    slots = sorted(rng.randrange(len(positionals) + 1) for _ in units)
    argv = [name]
    for k, pos in enumerate(positionals + [None]):
        argv += [tok for slot, unit in zip(slots, units) if slot == k for tok in unit]
        if pos is not None:
            argv.append(pos)
    return argv


class TestStrictParser:
    """`main` reads well-formed command lines from the command table and
    passes every other one to argparse."""

    def test_agrees_with_argparse(self):
        rng = random.Random(14)
        accepted = declined = exited = 0
        for _ in range(3000):
            argv = random_argv(rng)
            strict = _parse_strict(argv)
            full = argparse_namespace(argv)
            if full is None:
                exited += 1
                assert strict is None, argv
            if strict is not None:
                accepted += 1
                assert vars(strict) == vars(full), argv
            elif full is not None:
                declined += 1
        # every outcome is exercised often
        assert min(accepted, declined, exited) > 150, (accepted, declined, exited)

    def test_reads_every_subcommand(self):
        assert _parse_strict([]) is None and _parse_strict(["bogus"]) is None
        for name, _, arguments, handler in _commands():
            argv = [name]
            for arg, kwargs in arguments:
                if kwargs.get("required") or not arg.startswith("-"):
                    argv += [arg, "5"] if arg.startswith("-") else ["5"]
            args = _parse_strict(argv)
            assert args is not None and args.func is handler, argv
            assert vars(args) == vars(argparse_namespace(argv))

    @pytest.mark.parametrize("tail", [
        ["--prime", "3", "--prime", "3"],  # a repeat, even of one value
        ["--prime=3"],
        ["--pri", "3"],
        ["--prime", "-3"],
        ["--prime", "3", "--"],
        ["--prime", "3", "-h"],
        ["--prime", "3", "--help"],
    ])
    def test_leaves_the_rest_to_argparse(self, tail):
        argv = ["conj-p", "a", "b", *tail]
        assert _parse_strict(argv) is None
        assert _parse_strict(["conj-p", "a", "b", "--prime", "3"]) is not None

    def test_well_formed_lines_build_no_argparse_parser(
        self, classic_files, tmp_path, monkeypatch, capsys
    ):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        pa, pb = classic_files
        report = tmp_path / "report.json"
        assert main(["conj-all", pa, pb, "--cross-check"]) == 0
        report.write_text(capsys.readouterr().out)
        assert main(["conj-p", pa, pb, "--prime", "3"]) == 0
        assert main(["weak-equiv", "--format", "text", pa, pb]) == 0
        capsys.readouterr()
        assert main(["verify", str(report), pa, pb]) == 0
        assert json.loads(capsys.readouterr().out)["accepted"] is True
        assert built == []
        monkeypatch.setenv("COLUMNS", "80")
        for argv in sorted(CLI_TEXTS):
            built.clear()
            with pytest.raises(SystemExit):
                main(argv.split())
            assert built, argv
        capsys.readouterr()


class TestCommandTable:
    """`_parse_strict` reads the handlers from `_commands()` on each call, so
    a wrapper installed on the module after import is the one that runs."""

    def test_a_wrapper_installed_after_import_runs(self, classic_files, monkeypatch, capsys):
        calls = []
        handler = cli.cmd_conj_p

        def wrapper(args):
            calls.append(args.prime)
            return handler(args)

        monkeypatch.setattr(cli, "cmd_conj_p", wrapper)
        pa, pb = classic_files
        assert _parse_strict(["conj-p", pa, pb, "--prime", "3"]).func is wrapper
        assert main(["conj-p", pa, pb, "--prime", "3"]) == 0
        assert calls == [3]
        assert json.loads(capsys.readouterr().out)["verdict"]["conjugate"] is True


# every check a user's file or flag can trip, one call each
REDUCIBLE = IntMatrix([[1, 0], [0, 2]])
PRECONDITIONS = {
    "unequal sizes": lambda: conjugate_over_Zp(CLASSIC_A, IntMatrix.identity(3), 2),
    "charpolys differ": lambda: conjugate_over_Zp(CLASSIC_A, REDUCIBLE, 2),
    "reducible pair": lambda: conjugate_over_Zp(REDUCIBLE, REDUCIBLE, 2),
    "conj-p prime": lambda: conjugate_over_Zp(CLASSIC_A, CLASSIC_B, 6),
    "companion prime": lambda: companion_test(CLASSIC_A, 1),
    "companion reducible": lambda: companion_test(REDUCIBLE, 2),
    "mu prime": lambda: SylvesterOperator(CLASSIC_A, CLASSIC_B).mu(4),
    "lift prime": lambda: lift_kernel(
        SylvesterOperator(CLASSIC_A, CLASSIC_B), (0,) * 4, 9, 1),
    "ideal prime": lambda: in_Id_p(
        IdealLattice.zbeta(NumberField(parse_poly("t^2+3"))),
        zbeta_order(NumberField(parse_poly("t^2+3"))), 10),
    "ell prime": lambda: ell_invariant(CLASSIC_A, 0),
    "ell shape": lambda: ell_invariant(IntMatrix.identity(3), 2),
    "ell scalar": lambda: ell_invariant(IntMatrix.identity(2), 2),
    "screen reducible": lambda: screen_primes(parse_poly("t^2-1")),
    "eigenvector reducible": lambda: eigenvector(REDUCIBLE),
    "field degree": lambda: NumberField(parse_poly("t+1")),
    "field reducible": lambda: NumberField(parse_poly("t^2-1")),
    "fields differ": lambda: localconj.mul(
        IdealLattice.zbeta(NumberField(parse_poly("t^2+3"))),
        IdealLattice.zbeta(NumberField(parse_poly("t^2-2")))),
    "not monic": lambda: is_irreducible(IntPoly([1, 0, 2])),
    "constant": lambda: is_irreducible(IntPoly([3])),
    "gen reducible": lambda: generate_pair(parse_poly("t^2-1"), "unimodular", 0),
    "gen strategy": lambda: generate_pair(parse_poly("t^2+3"), "other", 0),
    "gen strategy parameter": lambda: generate_pair(parse_poly("t^2+3"), "singular:x", 0),
    "empty polynomial": lambda: parse_poly(" "),
    "bad term": lambda: parse_poly("t^2 + *"),
    "bad coefficient list": lambda: parse_poly("1,,2"),
    "malformed certificate": lambda: _parse_cert({"type": "unit_mod", "matrix": [[1]]}),
}


class TestExitCodes:
    def test_verdict_either_way_is_zero(self, classic_files, capsys):
        pa, pb = classic_files
        assert main(["conj-p", pa, pb, "--prime", "2"]) == 0
        assert main(["conj-p", pa, pb, "--prime", "3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("check", sorted(PRECONDITIONS))
    def test_user_checks_raise_precondition_error(self, check):
        with pytest.raises(PreconditionError):
            PRECONDITIONS[check]()

    def test_precondition_exits_two(self, classic_files, tmp_path, capsys):
        pa, _ = classic_files
        other = tmp_path / "other.txt"
        write_matrix(str(other), parse_poly("t^2-t-1").companion(), "text")
        assert main(["conj-p", pa, str(other), "--prime", "2"]) == 2
        assert main(["conj-p", pa, pa, "--prime", "6"]) == 2
        capsys.readouterr()


    @pytest.mark.parametrize(
        "error", [AssertionError, ArithmeticError, ValueError, ZeroDivisionError]
    )
    def test_internal_error_exits_three(self, classic_files, monkeypatch, capsys, error):
        def broken(i, j):
            raise error("self-check failed")

        monkeypatch.setattr("localconj.cli.weak_equivalence_data", broken)
        pa, pb = classic_files
        assert main(["weak-equiv", pa, pb]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {error.__name__}: self-check failed\n"


def _exit_one_argv(case: str, tmp_path, pa: str, pb: str) -> list[str]:
    """The arguments of one documented parse or I/O failure, its files
    written under tmp_path."""
    bad = tmp_path / "bad.json"
    if case == "empty file":
        bad.write_text("  \n")
        return ["charpoly", str(bad)]
    if case == "row/column count mismatch":
        bad.write_text(json.dumps({"n": 3, "rows": [[0, 1], [-3, 0]]}))
        return ["charpoly", str(bad)]
    if case == "cannot read report":
        return ["verify", str(tmp_path / "missing.json"), pa, pb]
    if case == "report is missing a command field":
        bad.write_text(json.dumps({"verdict": {"conjugate": False}}))
        return ["verify", str(bad), pa, pb]
    if case == "unknown certificate type":
        report = conj_p_report(CLASSIC_A, CLASSIC_B, pa, pb, 3)
        report["certificate"]["type"] = "lattice"
        bad.write_text(json.dumps(report))
        return ["verify", str(bad), pa, pb]
    assert case == "screen-primes needs --field or a matrix file"
    return ["screen-primes"]


class TestDocumentedExitOne:
    @pytest.mark.parametrize("case", [
        "empty file",
        "row/column count mismatch",
        "cannot read report",
        "report is missing a command field",
        "unknown certificate type",
        "screen-primes needs --field or a matrix file",
    ])
    def test_parse_failure_exits_one(self, case, classic_files, tmp_path, capsys):
        # each is a parse or I/O failure: exit 1 and one stderr line naming
        # it, never a verdict, a precondition or an internal error
        pa, pb = classic_files
        assert main(_exit_one_argv(case, tmp_path, pa, pb)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert case in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("case", [
        "text matrix", "JSON matrix", "report of verify", "matrix of verify",
    ])
    def test_undecodable_input_exits_one(self, case, classic_files, tmp_path, capsys):
        # bytes that are not UTF-8 text are unreadable input, never an
        # internal UnicodeDecodeError (exit 3)
        pa, pb = classic_files
        bad = tmp_path / "bad.bin"
        if case == "text matrix":
            bad.write_bytes(b"\xff\xfe2\n")
            argv = ["charpoly", str(bad)]
        elif case == "JSON matrix":
            bad.write_bytes(b'{"n": 1, "rows": [[1]]}\xff')
            argv = ["charpoly", str(bad)]
        elif case == "report of verify":
            bad.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff")
            argv = ["verify", str(bad), pa, pb]
        else:
            report = tmp_path / "report.json"
            report.write_text(json.dumps(conj_p_report(CLASSIC_A, CLASSIC_B, pa, pb, 3)))
            bad.write_bytes(b"2\n0 1\n-3 0\xff\n")
            argv = ["verify", str(report), str(bad), pb]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read ")
        assert f"{bad}: 'utf-8' codec can't decode byte 0x" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("case,message", [
        ("deep matrix", "cannot parse matrix file"),
        ("deep report", "cannot read report"),
        ("long integer in a report", "cannot read report"),
        ("long integer in a matrix", "cannot parse matrix file"),
    ])
    def test_hostile_json_exits_one(self, case, message, classic_files, tmp_path, capsys):
        # json.loads gives up on arrays nested 100,000 deep (RecursionError)
        # and on integers of more than 4,300 digits (ValueError); both are
        # unreadable input, never a traceback or an internal error (exit 3)
        pa, pb = classic_files
        bad = tmp_path / "bad.json"
        deep = "[" * 100_000 + "]" * 100_000
        long_int = "1" + "0" * 5_000
        if case == "deep matrix":
            bad.write_text('{"n": 1, "rows": ' + deep + "}")
            argv = ["charpoly", str(bad)]
        elif case == "deep report":
            bad.write_text(deep)
            argv = ["verify", str(bad), pa, pb]
        elif case == "long integer in a report":
            text = json.dumps(conj_p_report(CLASSIC_A, CLASSIC_B, pa, pb, 3))
            bad.write_text(text.replace('"prime": 3', '"prime": ' + long_int, 1))
            argv = ["verify", str(bad), pa, pb]
        else:
            bad.write_text('{"n": 1, "rows": [[' + long_int + "]]}")
            argv = ["charpoly", str(bad)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message} {bad}: ")
        assert captured.err.count("\n") == 1


def _read_by_open(path) -> str:
    with open(path) as fh:
        return fh.read()


def _outcome(read, path) -> tuple:
    """What read(path) returns, or the type and message of what it raises."""
    try:
        return ("text", read(path))
    except Exception as exc:
        return (type(exc), str(exc))


# a file's bytes (None: the path is missing, DIRECTORY: it is a directory),
# the command reading it as a matrix or as a report, and the exit code and
# stderr text-mode open() gave, {p} standing for the path and {r} for its repr
DIRECTORY = "directory"
READER_CASES = {
    "CRLF text matrix": (b"2\r\n0 1\r\n-3 0\r\n", "charpoly", 0, ""),
    "CR text matrix": (b"2\r0 1\r-3 0\r", "charpoly", 0, ""),
    "CRLF JSON matrix": (b'{"n": 2,\r\n "rows": [[0, 1], [-3, 0]]}\r\n', "charpoly", 0, ""),
    "CRLF JSON matrix with a syntax error": (
        b'{"n": 2,\r\n"rows": [[0, 1], [-3, 0]],\r\n}', "charpoly", 1,
        "error: cannot parse matrix file {p}: Expecting property name enclosed in "
        "double quotes: line 3 column 1 (char 36)\n",
    ),
    "CRLF report with a syntax error": (
        b'{\r\n"command": "conj-p",\r\n"prime": x}\r\n', "verify", 1,
        "error: cannot read report {p}: Expecting value: line 3 column 10 (char 32)\n",
    ),
    "no final newline": (b"2\n0 1\n-3 0", "charpoly", 0, ""),
    "empty file": (b"", "charpoly", 1, "error: cannot parse matrix file {p}: empty file\n"),
    "empty report": (
        b"", "verify", 1,
        "error: cannot read report {p}: Expecting value: line 1 column 1 (char 0)\n",
    ),
    "undecodable bytes": (
        b"2\n0 1\n-3 \xff0\n", "charpoly", 1,
        "error: cannot read {p}: 'utf-8' codec can't decode byte 0xff in position 9: "
        "invalid start byte\n",
    ),
    "undecodable report": (
        b'{"command": "\xc3("}', "verify", 1,
        "error: cannot read report {p}: 'utf-8' codec can't decode byte 0xc3 in "
        "position 13: invalid continuation byte\n",
    ),
    "missing path": (
        None, "charpoly", 1,
        "error: cannot read {p}: [Errno 2] No such file or directory: {r}\n",
    ),
    "missing report": (
        None, "verify", 1,
        "error: cannot read report {p}: [Errno 2] No such file or directory: {r}\n",
    ),
    "directory": (
        DIRECTORY, "charpoly", 1, "error: cannot read {p}: [Errno 21] Is a directory: {r}\n",
    ),
    "directory report": (
        DIRECTORY, "verify", 1,
        "error: cannot read report {p}: [Errno 21] Is a directory: {r}\n",
    ),
}


class TestReader:
    """Matrix files and reports are read as bytes by one helper
    (`cli._read_text`) and decoded once in the encoding of text-mode open();
    exit codes, stderr and the parsed matrices are as open() gave them."""

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_exit_code_and_stderr(self, case, classic_files, tmp_path, capsys):
        data, command, code, err = READER_CASES[case]
        if "undecodable" in case and cli._ENCODING.lower().replace("_", "-") not in (
            "utf-8", "utf8"
        ):
            pytest.skip("the pinned message is UTF-8's")
        pa, pb = classic_files
        path = tmp_path / "input"
        if data == DIRECTORY:
            path.mkdir()
        elif data is not None:
            path.write_bytes(data)
        argv = ["charpoly", str(path)] if command == "charpoly" else [
            "verify", str(path), pa, pb]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == err.format(p=path, r=repr(str(path)))
        assert (captured.out == "") == bool(code)

    def test_crlf_report_verifies(self, classic_files, tmp_path, capsys):
        pa, pb = classic_files
        text = json.dumps(conj_p_report(CLASSIC_A, CLASSIC_B, pa, pb, 3), indent=2)
        path = tmp_path / "report.json"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert main(["verify", str(path), pa, pb]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["reason"] == "certificate verified"

    @pytest.mark.parametrize("data", [
        b"", b"x", b"2\n0 1\n-3 0", b"a\r\nb\rc\n", b"\r", b"\r\r\n\n\r",
        "\u00e9\u2603 \u0667\n".encode(), b"\xef\xbb\xbf1 2", b"\xff", b"ab\xc3(", None,
        DIRECTORY,
    ], ids=repr)
    def test_text_is_what_open_reads(self, data, tmp_path):
        path = tmp_path / "input"
        if data == DIRECTORY:
            path.mkdir()
        elif data is not None:
            path.write_bytes(data)
        assert _outcome(cli._read_text, str(path)) == _outcome(_read_by_open, str(path))

    @pytest.mark.parametrize("data", [b"2\n0 1\n-3 \xe90\n", b"\xff\xfe\r\n\x80", b""], ids=repr)
    def test_text_is_what_open_reads_in_another_encoding(self, data, tmp_path, monkeypatch):
        # the decode follows `_ENCODING`, as open() follows the locale
        monkeypatch.setattr(cli, "_ENCODING", "latin-1")
        path = tmp_path / "input"
        path.write_bytes(data)
        with open(path, encoding="latin-1") as fh:
            assert cli._read_text(str(path)) == fh.read()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_to_its_end(self, tmp_path):
        # a pipe has no size to read up front: it is read on to its end,
        # here more than 64 KiB
        want = IntMatrix([[(i * 97 + j) * 10**8 - i for j in range(100)] for i in range(100)])
        text = "100\n" + "\n".join(" ".join(map(str, r)) for r in want.entries) + "\n"
        assert len(text) > 65536
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            assert read_matrix(str(fifo)) == want
        finally:
            writer.join(10)
        assert not writer.is_alive()

    @pytest.mark.parametrize("rows", [
        [[0]], [[-7]], [[0, 1], [-3, 0]], [[2**64, -(2**70)], [3, -1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, -9]],
    ])
    def test_text_and_json_give_the_checked_matrix(self, rows, tmp_path):
        want = IntMatrix(rows)
        for fmt in ("text", "json"):
            path = tmp_path / f"m.{fmt}"
            write_matrix(str(path), want, fmt)
            got = read_matrix(str(path))
            assert got == want and (got.rows, got.cols) == (want.rows, want.cols)
            assert type(got.entries) is tuple
            assert all(type(r) is tuple for r in got.entries)
            assert all(type(x) is int for r in got.entries for x in r)

    def test_text_entries_read_by_int(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(" 2\t\n+0   1_0\n-3\n 0\n\n")
        assert read_matrix(str(path)) == IntMatrix([[0, 10], [-3, 0]])

    @pytest.mark.parametrize("entry", ["1.0", "1e3", "true", "false", '"1"'])
    def test_json_non_integer_entry_refused(self, entry, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 2, "rows": [[%s, 0], [0, 1]]}' % entry)
        with pytest.raises(cli.ParseFailure, match="must be integers"):
            read_matrix(str(path))

    @pytest.mark.parametrize("entry", ["1.0", "1e3", "true", "0x1"])
    def test_text_non_integer_entry_refused(self, entry, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(f"2\n{entry} 0\n0 1\n")
        with pytest.raises(cli.ParseFailure, match="invalid literal for int"):
            read_matrix(str(path))


class TestReportWriter:
    """`_emit` prints every report byte for byte as json.dumps(indent=2) did."""

    @pytest.fixture()
    def emitted(self, monkeypatch):
        payloads = []
        emit = cli._emit

        def record(args, payload, text_lines):
            payloads.append(payload)
            emit(args, payload, text_lines)

        monkeypatch.setattr(cli, "_emit", record)
        return payloads

    def assert_printed_as_json_dumps(self, argv, emitted, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(emitted) == 1
        assert out == json.dumps(emitted.pop(), indent=2) + "\n"
        return out

    @pytest.mark.parametrize("argv", [
        ["conj-p", "{a}", "{b}", "--prime", "2"],
        ["conj-p", "{a}", "{b}", "--prime", "3"],
        ["conj-all", "{a}", "{b}"],
        ["conj-all", "{a}", "{b}", "--cross-check"],
        ["weak-equiv", "{a}", "{b}"],
        ["ideal-of", "{b}"],
        ["snf", "{a}"],
        ["charpoly", "{b}"],
        ["screen-primes", "{a}"],
        ["screen-primes", "--field", "t^2+1"],
        ["companion-test", "{b}", "--prime", "2"],
        ["ell", "{b}", "--prime", "2"],
    ], ids=" ".join)
    def test_every_subcommand(self, argv, classic_files, emitted, capsys):
        pa, pb = classic_files
        argv = [word.format(a=pa, b=pb) for word in argv]
        self.assert_printed_as_json_dumps(argv, emitted, capsys)

    @pytest.mark.parametrize("field,strategy", [
        ("t^8-t-1", "unimodular"), ("t^2+3", "singular:2"), ("t^3-t-1", "random"),
    ])
    def test_larger_reports_and_gen(self, field, strategy, tmp_path, emitted, capsys):
        pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.txt")
        self.assert_printed_as_json_dumps(
            ["gen", "--field", field, "--strategy", strategy, "--out-a", pa,
             "--out-b", pb, "--file-format", "json"], emitted, capsys,
        )
        # the JSON matrix file is json.dumps(..., indent=1) with a newline
        a = read_matrix(pa)
        assert Path(pa).read_text() == json.dumps(
            {"n": a.rows, "rows": a.to_lists()}, indent=1) + "\n"
        for argv in (["conj-all", pa, pb, "--cross-check"], ["weak-equiv", pa, pb]):
            self.assert_printed_as_json_dumps(argv, emitted, capsys)

    @pytest.mark.parametrize("tamper", [False, True])
    def test_verify(self, tamper, classic_files, tmp_path, emitted, capsys):
        pa, pb = classic_files
        report = conj_all_report(CLASSIC_A, CLASSIC_B, pa, pb)
        if tamper:
            report["verdict"]["conjugate"] = not report["verdict"]["conjugate"]
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        out = self.assert_printed_as_json_dumps(["verify", str(path), pa, pb], emitted, capsys)
        assert json.loads(out)["accepted"] is not tamper

    def test_non_ascii_path_is_escaped(self, tmp_path, emitted, capsys):
        path = tmp_path / "matrice_é☃.txt"
        write_matrix(str(path), CLASSIC_A)
        out = self.assert_printed_as_json_dumps(["charpoly", str(path)], emitted, capsys)
        assert out.isascii() and "\\u00e9\\u2603" in out

    @pytest.mark.parametrize("value", [
        {}, [], (), None, True, 0, -(2**70), 1.5e-06, 0.0, "\u00e9\n\"\\",
        {"empty": [], "none": {}, "flags": [True, False, None], "t": 2.5e-05},
        {"rows": [[], [1, -2], []], "mixed": [1, True, "1", 1.0], "nested": [[[0]]]},
        [{}, {"a": ({"b": ()},)}, [[], {}]],
    ], ids=repr)
    def test_edge_values(self, value):
        for step in ("  ", " "):
            assert cli._json_text(value, step=step) == json.dumps(value, indent=len(step))


class TestMatrixDigest:
    @pytest.mark.parametrize("rows", [
        [[0]], [[-7]], [[2**64]], [[-1, -2], [-3, -4]],
        [[2**64, -(2**64) - 1], [2**200, 0]], [[1, 2, 3], [4, 5, 6], [7, 8, -(2**65)]],
    ])
    def test_equals_the_json_dumps_form(self, rows):
        m = IntMatrix(rows)
        canonical = json.dumps(
            {"n": m.rows, "rows": m.to_lists()}, sort_keys=True, separators=(",", ":")
        )
        assert matrix_digest(m) == hashlib.sha256(canonical.encode()).hexdigest()


class TestCommands:
    def test_charpoly_matches_library(self, classic_files, capsys):
        pa, _ = classic_files
        assert main(["charpoly", pa]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["polynomial"]["coefficients"] == list(
            charpoly(CLASSIC_A).coeffs
        )

    def test_snf_command(self, tmp_path, capsys):
        p = tmp_path / "m.txt"
        write_matrix(str(p), IntMatrix([[2, 0], [0, 3]]), "text")
        assert main(["snf", str(p)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagonal"] == [1, 6]

    def test_screen_primes_by_field(self, capsys):
        assert main(["screen-primes", "--field", "t^2+3"]) == 0
        assert json.loads(capsys.readouterr().out)["primes"] == [2]

    def test_screen_primes_by_matrix(self, classic_files, capsys):
        pa, _ = classic_files
        assert main(["screen-primes", pa]) == 0
        assert json.loads(capsys.readouterr().out)["primes"] == [2]

    def test_ell_command(self, classic_files, capsys):
        _, pb = classic_files
        assert main(["ell", pb, "--prime", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["ell"] == 1

    def test_companion_test_command(self, classic_files, capsys):
        _, pb = classic_files
        assert main(["companion-test", pb, "--prime", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["similar_to_companion"] is False

    def test_ideal_of_command(self, classic_files, capsys):
        _, pb = classic_files
        assert main(["ideal-of", pb]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ideal"] == {"den": 1, "rows": [[1, 1], [0, 2]]}

    def test_text_format_flag(self, classic_files, capsys):
        pa, pb = classic_files
        assert main(["conj-p", pa, pb, "--prime", "2", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "not conjugate" in out


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        out = []
        for trial in range(2):
            pa = tmp_path / f"a{trial}.txt"
            pb = tmp_path / f"b{trial}.txt"
            code = main(
                [
                    "gen",
                    "--field",
                    "t^2+3",
                    "--strategy",
                    "singular:2",
                    "--seed",
                    "9",
                    "--out-a",
                    str(pa),
                    "--out-b",
                    str(pb),
                ]
            )
            assert code == 0
            out.append((pa.read_bytes(), pb.read_bytes()))
        assert out[0] == out[1]

    def test_unimodular_pair_passes_conj_all(self, tmp_path, capsys):
        pa, pb = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert (
            main(
                [
                    "gen",
                    "--field",
                    "t^3-t-1",
                    "--strategy",
                    "unimodular",
                    "--seed",
                    "1",
                    "--out-a",
                    pa,
                    "--out-b",
                    pb,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["conj-all", pa, pb]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"]["conjugate"] is True

    def test_random_strategy_falls_back_to_a_unimodular_conjugator(self, monkeypatch):
        # every random draw is refused, so the pair comes from the fallback:
        # a conjugator made by random_unimodular, with b = m^(-1) a m
        made, refused = [], []
        unimodular, conjugate = gen.random_unimodular, gen.conjugate_exact

        def recorded(*args):
            made.append(unimodular(*args))
            return made[-1]

        def refusing(a, m):
            if any(m is u for u in made):
                return conjugate(a, m)
            refused.append(m)
            return None

        monkeypatch.setattr(gen, "random_unimodular", recorded)
        monkeypatch.setattr(gen, "conjugate_exact", refusing)
        pair = generate_pair(parse_poly("t^3-t-1"), "random", 1)
        m = pair.conjugator
        assert refused and len(made) == 2 and m is made[1]
        assert abs(m.det()) == 1 and pair.conjugator_det == m.det()
        assert m @ pair.b == pair.a @ m


class TestGenSingularParameter:
    @pytest.mark.parametrize("p", [0, 1, -1])
    def test_no_singular_conjugator_exits_two(self, tmp_path, capsys, p):
        # 0 has no nonsingular conjugator and +-1 would be unimodular
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["gen", "--field", "t^2+3", f"--strategy=singular:{p}",
                "--out-a", str(pa), "--out-b", str(pb)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition violated")
        assert not pa.exists() and not pb.exists()


class TestVerifyMismatchedPair:
    def test_other_polynomial_is_rejected_not_crashed(self, tmp_path, capsys):
        # without the input digests only the certificate check can object;
        # mu's local bound needs one shared polynomial, so it says no
        pair = generate_pair(parse_poly("t^5-2"), "unimodular", 1)
        report = conj_p_report(pair.a, pair.b, "a.txt", "b.txt", 5)
        assert report["verdict"]["conjugate"]
        for stanza in report["inputs"].values():
            del stanza["sha256"]
        paths = [tmp_path / name for name in ("report.json", "a.txt", "b.txt")]
        paths[0].write_text(json.dumps(report))
        write_matrix(str(paths[1]), pair.a)
        write_matrix(str(paths[2]), parse_poly("t^5-3").companion())
        assert main(["verify", *map(str, paths)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is False


    def test_negative_against_other_polynomial_is_rejected(self):
        # a negative conj-p verdict is checked on the operator too, so the
        # pair must share one irreducible polynomial
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        report = conj_p_report(pair.a, pair.b, "a.txt", "b.txt", 2)
        assert not report["verdict"]["conjugate"]
        for stanza in report["inputs"].values():
            del stanza["sha256"]
        other = parse_poly("t^4+5").companion()
        assert verify_report(report, pair.a, other) == (
            False, "characteristic polynomials differ"
        )


class TestVerifyEmptyScreen:
    # t^2+t+1 has discriminant -3, so its screen is empty and no stanza's
    # certificate check ever reads b
    A = IntMatrix([[0, 1], [-1, -1]])

    def forged(self, b: IntMatrix) -> dict:
        return {
            "command": "conj-all",
            "inputs": {"a": {"sha256": matrix_digest(self.A)},
                       "b": {"sha256": matrix_digest(b)}},
            "screened_primes": [],
            "per_prime": [],
            "verdict": {"conjugate": True},
            "pair_certificate": None,
        }

    def test_other_polynomial_is_rejected(self, tmp_path, capsys):
        b = IntMatrix([[1, 0], [0, 2]])
        paths = [tmp_path / name for name in ("report.json", "a.txt", "b.txt")]
        paths[0].write_text(json.dumps(self.forged(b)))
        write_matrix(str(paths[1]), self.A)
        write_matrix(str(paths[2]), b)
        assert main(["conj-all", str(paths[1]), str(paths[2])]) == 2
        assert "characteristic polynomials differ" in capsys.readouterr().err
        assert main(["verify", *map(str, paths)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["accepted"], payload["reason"]) == (
            False, "characteristic polynomials differ"
        )

    def test_reducible_polynomial_is_rejected(self):
        a = IntMatrix([[1, 0], [0, 2]])
        b = IntMatrix([[2, 0], [0, 1]])
        report = self.forged(b)
        report["inputs"]["a"]["sha256"] = matrix_digest(a)
        assert verify_report(report, a, b) == (
            False, "characteristic polynomial is reducible over Q"
        )

    def test_genuine_report_still_verifies(self):
        b = IntMatrix([[-1, -1], [1, 0]])
        report = conj_all_report(self.A, b, "a.txt", "b.txt")
        assert report["screened_primes"] == [] and report["verdict"]["conjugate"]
        assert verify_report(report, self.A, b) == (True, "all certificates verified")


class TestVerifyWeakEquivByDefinition:
    """A positive weak-equiv report is accepted exactly when its field and
    ideals are the recomputed ones and its witnesses pass the definition
    (`ideals.verify_weak_witnesses`)."""

    @staticmethod
    def report(f_text, seed=0):
        pair = generate_pair(parse_poly(f_text), "unimodular", seed)
        report = weak_equiv_report(pair.a, pair.b, "a", "b")
        assert report["verdict"]["weakly_equivalent"]
        return report, pair.a, pair.b

    @pytest.mark.parametrize("f_text", ["t^4-2", "t^6-2", "t^6+7", "t^6-t-1", "t^7-3", "t^8-3"])
    def test_genuine_positive_accepted(self, f_text):
        report, a, b = self.report(f_text)
        assert verify_report(report, a, b) == (True, "witness ideals verified")

    @pytest.mark.parametrize("key,edit", [
        ("field", lambda r: r["field"]["coefficients"].__setitem__(0, -3)),
        ("field", lambda r: r["field"].__setitem__("coefficients", [-2, 0, 0, 0, 1.0])),
        ("ideal_a", lambda r: r["ideal_a"]["rows"][0].append(r["ideal_a"]["rows"][0].pop() + 1)),
        ("ideal_a", lambda r: r["ideal_a"].__setitem__("den", True)),
        ("ideal_b", lambda r: r["ideal_b"].__setitem__("den", 2)),
        ("ideal_b", lambda r: r["ideal_b"].pop("rows")),
    ], ids=["field-coefficient", "field-float", "ideal_a-row", "ideal_a-boolean-den",
            "ideal_b-den", "ideal_b-no-rows"])
    def test_field_or_ideal_changed(self, key, edit):
        report, a, b = self.report("t^4-2")
        edit(report)
        assert verify_report(report, a, b) == (False, f"{key} does not match the matrices")

    def test_halved_witness_rejected(self):
        report, a, b = self.report("t^6-2")
        report["witnesses"]["x"]["den"] *= 2
        assert verify_report(report, a, b) == (False, "witness ideals rejected")

    def test_doubled_witness_rejected(self):
        # 2x passes the inclusions but 1 is not in 2xy
        report, a, b = self.report("t^6-2")
        x = report["witnesses"]["x"]
        x["rows"] = [[2 * v for v in row] for row in x["rows"]]
        assert verify_report(report, a, b) == (False, "witness ideals rejected")

    def test_no_square_hermite_form_for_a_genuine_report(self, hnf_row_counts):
        # no n^2 products: every Hermite form a genuine n = 6 positive
        # takes has fewer than 36 rows
        report, a, b = self.report("t^6-2", 1)
        n = a.rows
        hnf_row_counts.clear()
        assert verify_report(report, a, b) == (True, "witness ideals verified")
        assert hnf_row_counts and max(hnf_row_counts) < n * n
        # the counter does see a full product of two bases
        hnf_row_counts.clear()
        x = IdealLattice(ideal_of_matrix(a).field, report["witnesses"]["x"]["rows"],
                         report["witnesses"]["x"]["den"])
        mul(x, ideal_of_matrix(b))
        assert max(hnf_row_counts) == n * n


class TestVerifyWeakEquivOutsideOneField:
    """Without its input digests a positive weak-equiv report can be checked
    against matrices that share no irreducible polynomial; verify rejects it
    with the reason (exit 0), as it does conj-all reports."""

    @pytest.mark.parametrize("other,reason", [
        (parse_poly("t^2-2").companion(), "ideals live in different fields"),
        (IntMatrix([[1, 0], [0, 2]]), "characteristic polynomial is reducible"),
    ], ids=["other-field", "reducible"])
    def test_rejected(self, other, reason, tmp_path, capsys):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        report = weak_equiv_report(pair.a, pair.b, "a.txt", "b.txt")
        assert report["verdict"]["weakly_equivalent"]
        for stanza in report["inputs"].values():
            del stanza["sha256"]
        paths = [tmp_path / name for name in ("report.json", "a.txt", "b.txt")]
        paths[0].write_text(json.dumps(report))
        write_matrix(str(paths[1]), pair.a)
        write_matrix(str(paths[2]), other)
        assert main(["verify", *map(str, paths)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["accepted"], payload["reason"]) == (False, reason)


class TestVerifyTamperedFields:
    """Reports whose prime, mu or verdict was changed are rejected, although
    every certificate left in them still checks.  t^3-t-1 has an empty
    screen (disc -23); t^2+3 screens 2 (disc -12)."""

    PAIRS = [("t^3-t-1", 1, 23), ("t^2+3", 2, 2)]

    @staticmethod
    def reports(field, seed, p):
        pair = generate_pair(parse_poly(field), "unimodular", seed)
        a, b = pair.a, pair.b
        conj_p = conj_p_report(a, b, "a", "b", p)
        conj_all = conj_all_report(a, b, "a", "b")
        assert conj_p["verdict"]["conjugate"] and conj_all["verdict"]["conjugate"]
        assert verify_report(conj_p, a, b) == (True, "certificate verified")
        assert verify_report(conj_all, a, b) == (True, "all certificates verified")
        return a, b, conj_p, conj_all

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    def test_conj_p_prime_changed(self, field, seed, p):
        a, b, report, _ = self.reports(field, seed, p)
        report["prime"] = 3 if p == 2 else 2
        assert verify_report(report, a, b) == (
            False, "report prime does not match the verdict's prime"
        )

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    @pytest.mark.parametrize("mu", [1, True])
    def test_conj_p_mu_changed(self, field, seed, p, mu):
        a, b, report, _ = self.reports(field, seed, p)
        assert report["verdict"]["mu"] == 0
        report["verdict"]["mu"] = mu
        assert verify_report(report, a, b) == (False, "mu does not match the operator's")

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    def test_conj_p_flip_keeping_certificate(self, field, seed, p):
        a, b, report, _ = self.reports(field, seed, p)
        report["verdict"]["conjugate"] = False
        assert verify_report(report, a, b) == (
            False, "negative verdict carries a certificate"
        )

    def test_conj_all_stanza_and_global_mu_changed(self):
        a, b, _, report = self.reports("t^2+3", 2, 2)
        report["per_prime"][0]["mu"] += 1
        report["verdict"]["mu"] += 1
        assert verify_report(report, a, b) == (
            False, "mu does not match the operator's at 2"
        )

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    def test_conj_all_global_mu_changed(self, field, seed, p):
        a, b, _, report = self.reports(field, seed, p)
        report["verdict"]["mu"] += 1
        assert verify_report(report, a, b) == (
            False, "global mu is not the largest per-prime mu"
        )

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    def test_conj_all_flip_keeping_pair_certificate(self, field, seed, p):
        a, b, _, report = self.reports(field, seed, p)
        report["verdict"]["conjugate"] = False
        assert verify_report(report, a, b) == (
            False, "negative verdict carries a pair certificate"
        )

    def test_conj_all_stanza_flip_keeping_certificate(self):
        a, b, _, report = self.reports("t^2+3", 2, 2)
        report["verdict"]["conjugate"] = False
        report["pair_certificate"] = None
        report["per_prime"][0]["conjugate"] = False
        assert verify_report(report, a, b) == (
            False, "negative verdict at 2 carries a certificate"
        )

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    def test_conj_p_flip_dropping_certificate(self, field, seed, p):
        # verify decides the prime afresh: the reduced pair is regular on
        # both sides there, so the pair is conjugate
        a, b, report, _ = self.reports(field, seed, p)
        report["verdict"]["conjugate"] = False
        report["certificate"] = None
        assert verify_report(report, a, b) == (
            False, "negative verdict but the pair is conjugate there"
        )

    def test_conj_all_flip_dropping_every_certificate(self):
        a, b, _, report = self.reports("t^2+3", 2, 2)
        report["verdict"]["conjugate"] = False
        report["pair_certificate"] = None
        for stanza in report["per_prime"]:
            stanza["conjugate"] = False
            stanza["certificate"] = None
        assert verify_report(report, a, b) == (
            False, "negative verdict at 2 but the pair is conjugate there"
        )

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    def test_conj_all_negative_without_failing_prime(self, field, seed, p):
        # with an empty screen this is the whole flip: no stanza to change
        a, b, _, report = self.reports(field, seed, p)
        report["verdict"]["conjugate"] = False
        report["pair_certificate"] = None
        assert verify_report(report, a, b) == (
            False, "negative verdict without a failing prime"
        )

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    @pytest.mark.parametrize("kind", [float, bool])
    @pytest.mark.parametrize(
        "keys", [("verdict",), ("verdict", "report")], ids=["verdict", "both"]
    )
    def test_conj_p_prime_not_an_integer(self, field, seed, p, kind, keys):
        # 23.0 == 23, so only the JSON type tells them apart
        a, b, report, _ = self.reports(field, seed, p)
        for key in keys:
            (report if key == "report" else report["verdict"])["prime"] = kind(p)
        if kind is bool and len(keys) == 1:
            want = "report prime does not match the verdict's prime"
        else:
            want = f"prime {json.dumps(kind(p))} is not a JSON integer"
        assert verify_report(report, a, b) == (False, want)

    @pytest.mark.parametrize("value", [2.0, True])
    def test_conj_all_stanza_prime_not_an_integer(self, value):
        a, b, _, report = self.reports("t^2+3", 2, 2)
        report["per_prime"][0]["prime"] = value
        assert verify_report(report, a, b) == (
            False, f"prime {json.dumps(value)} is not a JSON integer"
        )

    @pytest.mark.parametrize("value", [2.0, True])
    def test_conj_all_screened_prime_not_an_integer(self, value):
        a, b, _, report = self.reports("t^2+3", 2, 2)
        report["screened_primes"] = [value]
        assert verify_report(report, a, b) == (
            False, f"prime {json.dumps(value)} is not a JSON integer"
        )

    def test_genuine_negatives_still_verify(self):
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        a, b = pair.a, pair.b
        conj_p = conj_p_report(a, b, "a", "b", 2)
        conj_all = conj_all_report(a, b, "a", "b")
        assert not conj_p["verdict"]["conjugate"] and not conj_all["verdict"]["conjugate"]
        assert [s["conjugate"] for s in conj_all["per_prime"]] == [False, True]
        assert verify_report(conj_p, a, b) == (True, "negative verdict carries no certificate")
        assert verify_report(conj_all, a, b) == (True, "all certificates verified")

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    @pytest.mark.parametrize("key", ["a", "b"])
    @pytest.mark.parametrize("change", ["plus-one", "float", "bool"])
    def test_input_size_changed(self, field, seed, p, key, change):
        a, b, conj_p, conj_all = self.reports(field, seed, p)
        for report in (conj_p, conj_all):
            n = report["inputs"][key]["n"]
            report["inputs"][key]["n"] = {
                "plus-one": n + 1, "float": float(n), "bool": True
            }[change]
            assert verify_report(report, a, b) == (
                False, f"size mismatch for input {key}"
            )

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    def test_input_size_may_be_absent(self, field, seed, p):
        a, b, conj_p, conj_all = self.reports(field, seed, p)
        for report in (conj_p, conj_all):
            del report["inputs"]["a"]["n"]
        assert verify_report(conj_p, a, b) == (True, "certificate verified")
        assert verify_report(conj_all, a, b) == (True, "all certificates verified")

    @pytest.mark.parametrize("field,seed,p", PAIRS)
    @pytest.mark.parametrize("value", [2, "ALL", None])
    def test_conj_all_verdict_prime_changed(self, field, seed, p, value):
        a, b, _, report = self.reports(field, seed, p)
        report["verdict"]["prime"] = value
        assert verify_report(report, a, b) == (False, 'verdict prime is not "all"')

    # t^2+3 singular:2 seed 3 fails at its one screened prime 2; t^4+3
    # singular:2 seed 0 screens 2 and 3 and fails at 2 only
    @pytest.mark.parametrize("move", [7, -2, 3, 4, "drop"])
    def test_conj_all_negative_stanza_moved_or_dropped(self, move):
        pair = generate_pair(parse_poly("t^2+3"), "singular:2", 3)
        report = conj_all_report(pair.a, pair.b, "a", "b", cross_check=True)
        assert [(s["prime"], s["conjugate"]) for s in report["per_prime"]] == [(2, False)]
        assert verify_report(report, pair.a, pair.b) == (True, "all certificates verified")
        if move == "drop":
            report["per_prime"] = []
        else:
            report["per_prime"][0]["prime"] = move
        assert verify_report(report, pair.a, pair.b) == (
            False, "per-prime stanzas do not match the screened primes"
        )

    @pytest.mark.parametrize("change", ["drop-positive", "swap"])
    def test_conj_all_negative_report_stanza_dropped_or_swapped(self, change):
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        report = conj_all_report(pair.a, pair.b, "a", "b")
        if change == "drop-positive":
            del report["per_prime"][1]
        else:
            report["per_prime"].reverse()
        assert verify_report(report, pair.a, pair.b) == (
            False, "per-prime stanzas do not match the screened primes"
        )

    @pytest.mark.parametrize("field,strategy,seed", [
        ("t^2+3", "unimodular", 2), ("t^2+3", "singular:2", 3),
    ])
    @pytest.mark.parametrize("key", ["weakly_equivalent", "agrees"])
    def test_conj_all_cross_check_flipped(self, field, strategy, seed, key):
        pair = generate_pair(parse_poly(field), strategy, seed)
        report = conj_all_report(pair.a, pair.b, "a", "b", cross_check=True)
        assert report["cross_check"] == {
            "weakly_equivalent": report["verdict"]["conjugate"], "agrees": True
        }
        assert verify_report(report, pair.a, pair.b)[0]
        report["cross_check"][key] = not report["cross_check"][key]
        assert verify_report(report, pair.a, pair.b) == (
            False, "cross-check does not match the verdict"
        )

    @pytest.mark.parametrize("value", ["no", "yes", 1])
    def test_verdict_flag_not_a_boolean(self, value):
        # each of these was read by truthiness and accepted
        a, b, conj_p, conj_all = self.reports("t^2+3", 2, 2)
        weak = weak_equiv_report(a, b, "a", "b")
        assert verify_report(weak, a, b) == (True, "witness ideals verified")
        want = (False, f"verdict flag {json.dumps(value)} is not a JSON boolean")
        conj_p["verdict"]["conjugate"] = value
        assert verify_report(conj_p, a, b) == want
        conj_all["verdict"]["conjugate"] = value
        assert verify_report(conj_all, a, b) == want
        weak["verdict"]["weakly_equivalent"] = value
        assert verify_report(weak, a, b) == want

    @pytest.mark.parametrize("value", ["no", "yes", 1, None])
    def test_conj_all_stanza_flag_not_a_boolean(self, value):
        a, b, _, report = self.reports("t^2+3", 2, 2)
        report["verdict"]["conjugate"] = "yes"
        report["per_prime"][0]["conjugate"] = value
        assert verify_report(report, a, b) == (
            False, 'verdict flag "yes" is not a JSON boolean'
        )
        report["verdict"]["conjugate"] = True
        assert verify_report(report, a, b) == (
            False, f"verdict flag {json.dumps(value)} is not a JSON boolean"
        )

    @pytest.mark.parametrize("mu", [1, 5, True])
    def test_conj_all_negative_stanza_mu_changed(self, mu):
        # t^4+3 singular:2 seed 0: the stanza at 2 is negative with mu 0
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        report = conj_all_report(pair.a, pair.b, "a", "b")
        stanza = report["per_prime"][0]
        assert (stanza["prime"], stanza["conjugate"], stanza["mu"]) == (2, False, 0)
        stanza["mu"] = mu
        report["verdict"]["mu"] = max(mu, report["per_prime"][1]["mu"])
        assert verify_report(report, pair.a, pair.b) == (
            False, "mu does not match the operator's at 2"
        )

    @pytest.mark.parametrize("mu", [1, 5, True])
    def test_conj_p_negative_mu_changed(self, mu):
        # t^4+3 singular:2 seed 0 is negative at 2 with mu 0
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        report = conj_p_report(pair.a, pair.b, "a", "b", 2)
        assert (report["verdict"]["conjugate"], report["verdict"]["mu"]) == (False, 0)
        report["verdict"]["mu"] = mu
        assert verify_report(report, pair.a, pair.b) == (
            False, "mu does not match the operator's"
        )

    def test_conj_p_negative_prime_not_a_prime(self):
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        report = conj_p_report(pair.a, pair.b, "a", "b", 2)
        assert not report["verdict"]["conjugate"]
        report["prime"] = report["verdict"]["prime"] = 4
        assert verify_report(report, pair.a, pair.b) == (False, "prime 4 is not a prime")

    def test_weak_equiv_negative_with_witnesses(self):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        report = weak_equiv_report(pair.a, pair.b, "a", "b")
        assert report["witnesses"] is not None
        report["verdict"]["weakly_equivalent"] = False
        assert verify_report(report, pair.a, pair.b) == (
            False, "negative verdict carries witnesses"
        )


class TestVerifyRejections:
    """One case for each rejection of `verify_report` that no other test
    reaches.  t^2+3 unimodular seed 2 is conjugate at its one screened
    prime 2; t^4+3 singular:2 seed 0 fails at 2 and holds at 3."""

    @staticmethod
    def positive(command):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        if command == "conj-p":
            report = conj_p_report(pair.a, pair.b, "a", "b", 2)
            return pair, report, report, ""
        report = conj_all_report(pair.a, pair.b, "a", "b")
        return pair, report, report["per_prime"][0], " at 2"

    @pytest.mark.parametrize("command", ["conj-p", "conj-all"])
    def test_positive_without_certificate(self, command):
        pair, report, stanza, where = self.positive(command)
        stanza["certificate"] = None
        assert verify_report(report, pair.a, pair.b) == (
            False, f"positive verdict without certificate{where}"
        )

    @pytest.mark.parametrize("command", ["conj-p", "conj-all"])
    def test_certificate_names_another_prime(self, command):
        pair, report, stanza, where = self.positive(command)
        assert stanza["certificate"]["prime"] == 2
        stanza["certificate"]["prime"] = 3
        assert verify_report(report, pair.a, pair.b) == (
            False, f"certificate does not match the claimed prime{where}"
        )

    @pytest.mark.parametrize("screened", [[], [3], [2, 3]])
    def test_screened_primes_differ_from_the_screen(self, screened):
        pair, report, _, _ = self.positive("conj-all")
        report["screened_primes"] = screened
        assert verify_report(report, pair.a, pair.b) == (
            False, "screened prime list does not match the discriminant"
        )

    def test_true_verdict_with_a_failing_stanza(self):
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        report = conj_all_report(pair.a, pair.b, "a", "b")
        report["verdict"]["conjugate"] = True
        assert verify_report(report, pair.a, pair.b) == (
            False, "global true verdict with a failing prime"
        )

    def test_true_verdict_missing_a_screened_prime(self):
        pair, report, _, _ = self.positive("conj-all")
        report["per_prime"] = []
        assert verify_report(report, pair.a, pair.b) == (
            False, "per-prime stanzas do not match the screened primes"
        )

    def test_genuine_negative_weak_equiv(self):
        pair = generate_pair(parse_poly("t^4+3"), "singular:2", 0)
        report = weak_equiv_report(pair.a, pair.b, "a", "b")
        assert report["verdict"]["weakly_equivalent"] is False
        assert report["witnesses"] is None
        assert verify_report(report, pair.a, pair.b) == (
            True, "negative verdict carries no witnesses"
        )

    def test_positive_weak_equiv_without_witnesses(self):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        report = weak_equiv_report(pair.a, pair.b, "a", "b")
        report["witnesses"] = None
        assert verify_report(report, pair.a, pair.b) == (
            False, "positive verdict without witnesses"
        )

    def test_unknown_command(self):
        pair = generate_pair(parse_poly("t^2+3"), "unimodular", 2)
        assert verify_report({"command": "charpoly"}, pair.a, pair.b) == (
            False, "reports of command 'charpoly' are not verifiable"
        )


class TestReportsRoundTrip:
    def test_conj_p_report_verifies(self, classic_files):
        pa, pb = classic_files
        a, b = read_matrix(pa), read_matrix(pb)
        report = conj_p_report(a, b, pa, pb, 3)
        ok, reason = verify_report(report, a, b)
        assert ok, reason

    def test_conj_all_report_verifies(self, classic_files):
        pa, pb = classic_files
        a, b = read_matrix(pa), read_matrix(pb)
        report = conj_all_report(a, b, pa, pb, cross_check=True)
        assert report["cross_check"]["agrees"] is True
        ok, reason = verify_report(report, a, b)
        assert ok, reason

    def test_weak_equiv_report_verifies(self, tmp_path):
        f = parse_poly("t^2+3")
        from localconj import generate_pair

        pair = generate_pair(f, "unimodular", 2)
        pa, pb = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        write_matrix(pa, pair.a)
        write_matrix(pb, pair.b)
        report = weak_equiv_report(pair.a, pair.b, pa, pb)
        assert report["verdict"]["weakly_equivalent"] is True
        ok, reason = verify_report(report, pair.a, pair.b)
        assert ok, reason

    def test_digest_mismatch_rejected(self, classic_files):
        pa, pb = classic_files
        a, b = read_matrix(pa), read_matrix(pb)
        report = conj_p_report(a, b, pa, pb, 3)
        ok, reason = verify_report(report, b, b)
        assert not ok and "digest" in reason

    @pytest.mark.parametrize("n", [2, 3])
    def test_wide_entry_reports_verify(self, n):
        # 32-bit entries give f(0) of 60 bits and more, which the
        # irreducibility test accepts without factoring it
        a, b = wide_pair(n, 0)
        for report in (
            conj_p_report(a, b, "a", "b", 2),
            weak_equiv_report(a, b, "a", "b"),
        ):
            ok, reason = verify_report(report, a, b)
            assert ok, reason

    def test_tampered_certificate_rejected(self, classic_files):
        pa, pb = classic_files
        a, b = read_matrix(pa), read_matrix(pb)
        report = conj_p_report(a, b, pa, pb, 3)
        report["certificate"]["matrix"][0][0] += 1
        ok, _ = verify_report(report, a, b)
        assert not ok

    def test_subprocess_end_to_end(self, tmp_path):
        pa, pb = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        gen = run_cli(
            [
                "gen",
                "--field",
                "t^2+3",
                "--strategy",
                "unimodular",
                "--seed",
                "5",
                "--out-a",
                pa,
                "--out-b",
                pb,
            ],
            cwd=tmp_path,
        )
        assert gen.returncode == 0, gen.stderr
        conj = run_cli(["conj-all", pa, pb, "--cross-check"], cwd=tmp_path)
        assert conj.returncode == 0, conj.stderr
        report_path = tmp_path / "report.json"
        report_path.write_text(conj.stdout)
        ver = run_cli(["verify", str(report_path), pa, pb], cwd=tmp_path)
        assert ver.returncode == 0, ver.stderr
        assert json.loads(ver.stdout)["accepted"] is True
        # tamper and re-verify
        report = json.loads(conj.stdout)
        if report["pair_certificate"]:
            report["pair_certificate"]["q"][0][0] += 1
        else:
            report["per_prime"][0]["certificate"]["matrix"][0][0] += 1
        report_path.write_text(json.dumps(report))
        ver2 = run_cli(["verify", str(report_path), pa, pb], cwd=tmp_path)
        assert ver2.returncode == 0, ver2.stderr
        assert json.loads(ver2.stdout)["accepted"] is False


def report_digest(report: dict) -> str:
    """sha256 of the report as the CLI prints it, without its timing."""
    report = dict(report)
    report.pop("timing_seconds")
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


# (field, strategy, seed, command, prime) -> report_digest of the report the
# CLI prints for the pair `gen` makes; certificates are deterministic, so a
# change to how the engine computes them must keep these bytes
GOLDEN_REPORTS = {
    ("t^2+3", "unimodular", 0, "conj-all", None):
        "d9d2f99149c7dfcb5407e16eae25a0e018e0138b543bd1c202651f4bec3cfdb0",
    ("t^2+3", "unimodular", 0, "conj-p", 2):
        "7edf604b4823f1e702555593ffc2bcd66ddecae961f533a630ea4fb828e535d3",
    ("t^2+3", "unimodular", 1, "conj-all", None):
        "259c8a633c191e900defc2cfb1d725f2d6416103ffdfe22f257fe75b042a3c1c",
    ("t^2+3", "unimodular", 1, "conj-p", 2):
        "ad4228c5c75e5bde7f404449ab00377371df893bd0d17c385fd93b7ff59ef427",
    ("t^4-10t^2+1", "unimodular", 0, "conj-all", None):
        "7b8cc6d733b09c82b64fd045391fe5a83a25cf72324cde06020498ff68c33fce",
    ("t^4-10t^2+1", "unimodular", 0, "conj-p", 2):
        "fc57de4ce0341395b4d75681ab8cc550b5d020568c73148055253320e52cc083",
    ("t^4-10t^2+1", "unimodular", 0, "conj-p", 3):
        "09f9059eb6f6c7f6eb141a865ccbc5466fad4bedc1b6f622bb03a481c451a27a",
    ("t^4-10t^2+1", "unimodular", 1, "conj-all", None):
        "39fa14817c92bd64d7a85d97444bacebe4f5037bedd67bc4c3a919b29d7766a9",
    ("t^4-10t^2+1", "unimodular", 1, "conj-p", 2):
        "5f7b74e5aac7ccc72b212d768914a1d56ca6bcacff09a9e37a9a7a3250cb4405",
    ("t^4-10t^2+1", "unimodular", 1, "conj-p", 3):
        "a73294c1f312ec3d72530a4956b837c642c489301bb2a9f5480ede1726fd8d2f",
    ("t^5-2", "unimodular", 0, "conj-all", None):
        "c56f20e53cf736d3927b8afee59e74cd1b141f9bb14a6bbfeba03ee71a3744f0",
    ("t^5-2", "unimodular", 0, "conj-p", 2):
        "1974ca7cebc7394d885744c910da719cf99cf1e7995fa828836fa0cc1dbe3d96",
    ("t^5-2", "unimodular", 0, "conj-p", 5):
        "2745e28473af2c7329e8b0b1fb37349c7f0e6012f64263ce8db8f2519cd3dea9",
    ("t^5-2", "unimodular", 1, "conj-all", None):
        "f9fa0e7b0a9f0ddafb764b158b7cee24c16a2e64bc08f4cd69fe717f71f7999f",
    ("t^5-2", "unimodular", 1, "conj-p", 2):
        "bff75ffe58da8c734e71421c456db54c7d5016f68727503b8ae7460ed22b2ada",
    ("t^5-2", "unimodular", 1, "conj-p", 5):
        "18282eb62bba410b453958de04bf6c0ee936f4e638372fedcb890804b257f6be",
    ("t^7-3", "unimodular", 0, "conj-all", None):
        "ec5248a4d90b519454b7c461a5db8810fb8989c3ce4357d82e64c1b037dc594f",
    ("t^7-3", "unimodular", 0, "conj-p", 3):
        "dc5044b41e79a41e36b3f9cc17764a2d9914336f5490ff13139fd180f57a2bff",
    ("t^7-3", "unimodular", 0, "conj-p", 7):
        "2783c570493a479cdf14f16c7a1737ed9a3038af6eb394f89de37392fed88ea1",
    ("t^3-4", "singular:2", 0, "conj-all", None):
        "750493e21064e4ab250a9502653dba82aa84d6717ae8391996b88cdd6dd71ff7",
    ("t^3-4", "singular:2", 0, "conj-p", 2):
        "b8ab0e19d34cb9b5ebd03b3b1cdc92fcd64b6db7228a5210e852bc414657022a",
    ("t^3-4", "singular:2", 0, "conj-p", 3):
        "150c7b2542fef0a2a699bed283eb5e96d4ecd29eff67e1db678de5f1995830b6",
}

# (field, strategy, seed, command) -> report_digest of the ideal-side
# reports: `weak-equiv` and `conj-all --cross-check`; ideals are canonical
# lattices, so a change to how colon ideals or eigenvectors are computed
# must keep these bytes
GOLDEN_IDEAL_REPORTS = {
    ('t^2+3', 'unimodular', 0, 'weak-equiv'):
        '5279db6266e64854d2cf0a2ac8ac8d980e75c494f22c5a5440fb7ff27df197d9',
    ('t^2+3', 'unimodular', 0, 'conj-all --cross-check'):
        '402ffc8265dc61f735553610ceaebc3ca3e2e113560d1f61c7fde14b2f44c28d',
    ('t^2+3', 'unimodular', 1, 'weak-equiv'):
        '2c898044fa83f4979795c03d09c11306386a0b8b7cb6e6cd6cd93acd2a81b5b5',
    ('t^2+3', 'unimodular', 1, 'conj-all --cross-check'):
        'dd3f0de81ac8b6d8e2b813c72731fe661a8128a438dbeb1daf6985d8764a9b2f',
    ('t^2+3', 'singular:2', 0, 'weak-equiv'):
        '99c60fd8d88c2dc55e74ae0341022745ae04d83a02c2a2b89f530264fadac393',
    ('t^2+3', 'singular:2', 0, 'conj-all --cross-check'):
        'f24b908d762fa1f424ae70d0b193dd1f649f408e54eee695fc9b025f352ee151',
    ('t^2+3', 'singular:2', 1, 'weak-equiv'):
        '2e9b1885c6f04716d9a1fefbd261ca04a2d36da318a2cda9e1a0904537a4a429',
    ('t^2+3', 'singular:2', 1, 'conj-all --cross-check'):
        'f595219799ef73a8d2fcf6f8d2d658c83030c18ac45cb722a59f7402b5a8cb23',
    ('t^3-t^2-2t-8', 'unimodular', 0, 'weak-equiv'):
        '5dce0aac189879a04fd3f8fac51093793b6cb0dc1c69e8daa822dd2626d85835',
    ('t^3-t^2-2t-8', 'unimodular', 0, 'conj-all --cross-check'):
        'b6a6b8c29dd82300f5111b331ac6126c3d24b29267628e4511a746894548fe91',
    ('t^3-t^2-2t-8', 'unimodular', 1, 'weak-equiv'):
        'e0d6eb8cf97b042593cc5eb8410804ee5c985f073c8fe43d786335bbd9072480',
    ('t^3-t^2-2t-8', 'unimodular', 1, 'conj-all --cross-check'):
        'ea94c500d74ed66b2bbef81e4958a6d63dca02da949c3986b4c27a9b337dc6f6',
    ('t^3-t^2-2t-8', 'singular:2', 0, 'weak-equiv'):
        '8eab63998c737b4e41ec57a57719be5a98bd467917be67e02da9f1350de1c23b',
    ('t^3-t^2-2t-8', 'singular:2', 0, 'conj-all --cross-check'):
        'f586e2ebd07ac87471d897f1f2c910402326747c11171da9a26e707fe9cb7797',
    ('t^3-t^2-2t-8', 'singular:2', 1, 'weak-equiv'):
        'd87bb0bacea9dd159b069eae8cdc89d1d76b4be6d60ad7a7cc20ec6a534ab753',
    ('t^3-t^2-2t-8', 'singular:2', 1, 'conj-all --cross-check'):
        'bb53c1b254220972b905745f2564472facb4be1deabe3a55bcb2f9c1f9790c5c',
    ('t^4-10t^2+1', 'unimodular', 0, 'weak-equiv'):
        '53df61e6230493e4de215e27ff6783094762d7fc69bc12b6065994a0819a9d56',
    ('t^4-10t^2+1', 'unimodular', 0, 'conj-all --cross-check'):
        'faffe0ced6c4a30059973bef0e316944402c1c4f20759a8c90480f6f33d98451',
    ('t^4-10t^2+1', 'unimodular', 1, 'weak-equiv'):
        'c5fd5829d3886b4cd192b849e99f516bf7c38d784783bacf8eb90f9afef8b9f7',
    ('t^4-10t^2+1', 'unimodular', 1, 'conj-all --cross-check'):
        '300edd441fcc2b5ffb2dcb7bccf75fb05c066261c364383d41d7d79d8b049d7c',
    ('t^4-10t^2+1', 'singular:2', 0, 'weak-equiv'):
        '52f22530db126bb43cf2a66d9766a5f338713ebb4301ae3d25d67ca1fa81ca94',
    ('t^4-10t^2+1', 'singular:2', 0, 'conj-all --cross-check'):
        'fe496075c7e8a3d6d1c1a108d17b010720723c39eeb2d0d7d9273c53b0e89803',
    ('t^4-10t^2+1', 'singular:2', 1, 'weak-equiv'):
        'c8f5bf088fa120f3f209c088299c53ae064dbaf3a10330e3f35f7187299d2c80',
    ('t^4-10t^2+1', 'singular:2', 1, 'conj-all --cross-check'):
        'f2fa4c639e903d1ec679616b51666980d0a2d5b1d11694d55e0d37811cf3cdcb',
    ('t^5-2', 'unimodular', 0, 'weak-equiv'):
        '80df60823888aec52ac8fa8ddbf5654055c2f61a5d726bfe59f2d6472f9e02f3',
    ('t^5-2', 'unimodular', 0, 'conj-all --cross-check'):
        'c926c01b960ec48f46b5818f6314342de4c284ba1d3ce721fff822b80feabfc8',
    ('t^5-2', 'unimodular', 1, 'weak-equiv'):
        '412279a3fdec7e9f1ecbf30f1191be7b8193601894493a7d42d56d53ce516e3f',
    ('t^5-2', 'unimodular', 1, 'conj-all --cross-check'):
        '203dfcbb5eb4bb577d4f1c981ed1c7170fbad2e62221b096c4ed798b693ebbd1',
    ('t^5-2', 'singular:2', 0, 'weak-equiv'):
        'de2b7897f5fb638d15a42dcf61c03fecec33adb46239013bc93c2421e970c819',
    ('t^5-2', 'singular:2', 0, 'conj-all --cross-check'):
        '839d7e5abff178abe08d9a316168562245707dbcc0e757b611248a26d363e019',
    ('t^5-2', 'singular:2', 1, 'weak-equiv'):
        'caa34cdfe6b01193747488e346f24b6ea8da145c569acb3e62679536bec0fcaa',
    ('t^5-2', 'singular:2', 1, 'conj-all --cross-check'):
        '89a51188d902606fa47f6804061c3fa962536102856895a1825bea9f90807692',
    ('t^6-2', 'unimodular', 0, 'weak-equiv'):
        '897a8d02193c539e0e2fcb8b4456629761b471dc3aafdb9711829be2e480d6c6',
    ('t^6-2', 'unimodular', 0, 'conj-all --cross-check'):
        '97b1415ab7dc38d2fe013a1d6b96709b1be693d893b28c825b1f85c46989500d',
}


class TestReportBytes:
    @pytest.mark.parametrize("field,strategy,seed", sorted({k[:3] for k in GOLDEN_REPORTS}))
    def test_reports_unchanged(self, field, strategy, seed):
        pair = generate_pair(parse_poly(field), strategy, seed)
        got = {(field, strategy, seed, "conj-all", None): report_digest(
            conj_all_report(pair.a, pair.b, "a.txt", "b.txt")
        )}
        for p in screen_primes(charpoly(pair.a)):
            got[field, strategy, seed, "conj-p", p] = report_digest(
                conj_p_report(pair.a, pair.b, "a.txt", "b.txt", p)
            )
        want = {k: v for k, v in GOLDEN_REPORTS.items() if k[:3] == (field, strategy, seed)}
        assert got == want

    @pytest.mark.parametrize(
        "field,strategy,seed", sorted({k[:3] for k in GOLDEN_IDEAL_REPORTS})
    )
    def test_ideal_side_reports_unchanged(self, field, strategy, seed):
        pair = generate_pair(parse_poly(field), strategy, seed)
        got = {
            (field, strategy, seed, "weak-equiv"): report_digest(
                weak_equiv_report(pair.a, pair.b, "a.txt", "b.txt")
            ),
            (field, strategy, seed, "conj-all --cross-check"): report_digest(
                conj_all_report(pair.a, pair.b, "a.txt", "b.txt", cross_check=True)
            ),
        }
        want = {
            k: v for k, v in GOLDEN_IDEAL_REPORTS.items() if k[:3] == (field, strategy, seed)
        }
        assert got == want

    def test_weak_equiv_builds_only_narrow_smith_forms(self, snf_builds):
        # colon ideals and L meet Z are Hermite-form meets: no Smith form
        pair = generate_pair(parse_poly("t^6-2"), "unimodular", 0)
        snf_builds.clear()
        weak_equiv_report(pair.a, pair.b, "a.txt", "b.txt")
        assert snf_builds == []

    @pytest.mark.parametrize(
        "field,strategy", [("t^6-2", "unimodular"), ("t^5-2", "singular:2")]
    )
    def test_ideal_side_builds_no_field_element(
        self, field, strategy, field_elements, tmp_path, capsys
    ):
        # eigenvector rows, ideals, colon ideals and the test for 1 are all
        # integer coordinates
        pair = generate_pair(parse_poly(field), strategy, 0)
        pa, pb, pj = (str(tmp_path / name) for name in ("a.txt", "b.txt", "r.json"))
        write_matrix(pa, pair.a)
        write_matrix(pb, pair.b)
        field_elements.clear()
        out = []
        for argv in (["ideal-of", pa], ["conj-all", pa, pb, "--cross-check"],
                     ["weak-equiv", pa, pb]):
            assert main(argv) == 0
            out.append(capsys.readouterr().out)
        assert json.loads(out[1])["cross_check"]["agrees"]
        Path(pj).write_text(out[2])
        assert main(["verify", pj, pa, pb]) == 0
        assert json.loads(capsys.readouterr().out)["accepted"]
        assert field_elements == []

    def test_cross_check_builds_only_the_operator_smith_form(self, snf_builds):
        # the decision reads the intertwiner basis and local Smith forms,
        # and the cross-check's ideal side builds no Smith form either
        pair = generate_pair(parse_poly("t^5-2"), "unimodular", 1)
        snf_builds.clear()
        conj_all_report(pair.a, pair.b, "a.txt", "b.txt", cross_check=True)
        assert snf_builds == []

    def test_verify_rebuilds_every_unit_mod_check(self, snf_builds):
        pair = generate_pair(parse_poly("t^5-2"), "unimodular", 1)
        report = conj_all_report(pair.a, pair.b, "a.txt", "b.txt")
        snf_builds.clear()
        ok, reason = verify_report(report, pair.a, pair.b)
        assert ok, reason
        # each unit-mod check reads mu off a local Smith form
        assert len(report["per_prime"]) == 2
        assert len(snf_builds) == 0
