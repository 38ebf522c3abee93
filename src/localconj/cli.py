"""Command-line interface.

Subcommands: charpoly, conj-p, conj-all, weak-equiv, ideal-of, snf,
screen-primes, ell, companion-test, gen, verify.

One JSON document goes to stdout (or a short text rendering with
--format text); diagnostics go to stderr.  Exit codes: 0 a verdict was
computed (either answer), 1 parse or I/O failure (an input that is missing,
unreadable or not valid text in the locale's encoding included, and JSON
nested too deep or holding an integer too long to decode), 2 a violated
mathematical precondition (`PreconditionError`), 3 an internal error (any
other ValueError, a failed self-check or an arithmetic failure), reported on
one stderr line.

One table (`_commands`) holds every subcommand's arguments.  A well-formed
command line is read from it directly (`_parse_strict`); argparse, built
from the same table, reads every other one and writes all help and usage
errors.

Every command runs once per process, so its fixed cost counts as much as
its mathematics on small inputs.  Files are read and written with `open()`
in text mode, closed by `with`, without importing pathlib.  The digest of a
matrix hashes its canonical JSON text, built directly with `str.join`
rather than by a `JSONEncoder` made for each call.  Reports are printed by
one small writer (`_json_text`), byte for byte `json.dumps(payload,
indent=2)`: CPython's C encoder does not take `indent`, so json.dumps would
run its generator-based pure-Python encoder on every report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from operator import index

from .bridge import ideal_of_matrix
from .conjugacy import (
    IntegerPairCert,
    UnitModCert,
    Verdict,
    _conjugate_at_prime,
    _unit_mod_holds,
    companion_test,
    conjugate_over_Zp,
    conjugate_over_all_Zp,
    ell_invariant,
    screen_primes,
    verify_cert,
)
from .gen import generate_pair
from .ideals import (
    IdealLattice,
    _require_same_field,
    verify_weak_witnesses,
    weak_equivalence_data,
)
from .intmat import IntMatrix, snf
from .polyfield import charpoly, parse_poly
from .primes import PreconditionError, is_prime
from .sylvester import SylvesterOperator


class ParseFailure(Exception):
    """Bad input file or malformed report: exit code 1."""


# ---------------------------------------------------------------------------
# input and output helpers

def _json_int(x) -> int:
    """An integer read from a JSON file.  A boolean is refused, never read as
    0 or 1 (operator.index accepts it); a float is refused by index."""
    if x is True or x is False:
        raise TypeError(f"integers expected, not the boolean {json.dumps(x)}")
    return index(x)


def _json_rows(rows):
    """Matrix rows read from a JSON file, refused if an entry is a boolean;
    IntMatrix refuses the other non-integers."""
    if any(x is True or x is False for row in rows for x in row):
        raise TypeError("matrix entries must be integers, not booleans")
    return rows


def read_matrix(path: str) -> IntMatrix:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # bytes that are not text in the locale's encoding are unreadable input
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            data = json.loads(text)
            n = _json_int(data["n"])
            rows = _json_rows(data["rows"])
        else:
            tokens = text.split()
            if not tokens:
                raise ValueError("empty file")
            n = int(tokens[0])
            flat = [int(t) for t in tokens[1:]]
            if len(flat) != n * n:
                raise ValueError(f"expected {n * n} entries, found {len(flat)}")
            rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("row/column count mismatch")
        return IntMatrix(rows)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # json.loads raises RecursionError on arrays nested too deep to
        # decode, and ValueError on an integer of too many digits
        raise ParseFailure(f"cannot parse matrix file {path}: {exc}") from exc


def write_matrix(path: str, m: IntMatrix, fmt: str = "text") -> None:
    if fmt == "json":
        # the text of json.dumps(..., indent=1)
        text = _json_text({"n": m.rows, "rows": m.to_lists()}, step=" ")
    else:
        text = "\n".join([str(m.rows)] + [" ".join(map(str, row)) for row in m.entries])
    with open(path, "w") as fh:
        fh.write(text + "\n")


def matrix_digest(m: IntMatrix) -> str:
    """sha256 of json.dumps({"n": n, "rows": rows}, sort_keys=True,
    separators=(",", ":")), that text built directly."""
    rows = "],[".join(",".join(map(str, row)) for row in m.entries)
    return hashlib.sha256(f'{{"n":{m.rows},"rows":[[{rows}]]}}'.encode()).hexdigest()


def _input_stanza(path: str, m: IntMatrix) -> dict:
    return {"path": path, "n": m.rows, "sha256": matrix_digest(m)}


def _serialize_cert(cert) -> dict | None:
    if cert is None:
        return None
    if isinstance(cert, UnitModCert):
        return {
            "type": "unit_mod",
            "prime": cert.prime,
            "modulus": cert.modulus,
            "matrix": cert.x.to_lists(),
        }
    if isinstance(cert, IntegerPairCert):
        return {"type": "integer_pair", "q": cert.q.to_lists(), "s": cert.s.to_lists()}
    raise TypeError(f"unknown certificate {cert!r}")


def _parse_cert(blob: dict):
    kind = blob.get("type")
    try:
        if kind == "unit_mod":
            return UnitModCert(
                IntMatrix(_json_rows(blob["matrix"])),
                _json_int(blob["prime"]),
                _json_int(blob["modulus"]),
            )
        if kind == "integer_pair":
            return IntegerPairCert(
                IntMatrix(_json_rows(blob["q"])), IntMatrix(_json_rows(blob["s"]))
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed certificate: {exc}") from None
    raise ParseFailure(f"unknown certificate type {kind!r}")


def _serialize_ideal(ideal: IdealLattice) -> dict:
    return {"den": ideal.den, "rows": ideal.basis.to_lists()}


def _serialize_field(ideal: IdealLattice) -> dict:
    return {"coefficients": list(ideal.field.modulus.coeffs)}


def _json_text(x, indent: str = "\n", step: str = "  ") -> str:
    """json.dumps(x, indent=len(step)), byte for byte, for a value made of
    dicts with string keys, lists, tuples and JSON leaves, written at the
    nesting `indent` (a newline and the indentation).  Strings are quoted by
    the function json.dumps quotes them with, an int is written by str and a
    row of ints by one str.join; json.dumps, whose C encoder runs when no
    indent is given, writes the other leaves."""
    inner = indent + step
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [_quote(k) + ": " + _json_text(v, inner, step) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if all(type(v) is int for v in x):
            items = map(str, x)
        else:
            items = [_json_text(v, inner, step) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if type(x) is str:
        return _quote(x)
    if type(x) is int:
        return str(x)
    return json.dumps(x)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "format", "json") == "text":
        print("\n".join(text_lines))
    else:
        print(_json_text(payload))


# ---------------------------------------------------------------------------
# subcommands

def cmd_charpoly(args) -> int:
    m = read_matrix(args.matrix)
    f = charpoly(m)
    payload = {
        "command": "charpoly",
        "input": _input_stanza(args.matrix, m),
        "polynomial": {"coefficients": list(f.coeffs), "pretty": f.pretty()},
    }
    _emit(args, payload, [f.pretty()])
    return 0


def cmd_snf(args) -> int:
    m = read_matrix(args.matrix)
    dec = snf(m)
    payload = {
        "command": "snf",
        "input": _input_stanza(args.matrix, m),
        "d": dec.d.to_lists(),
        "s": dec.s.to_lists(),
        "t": dec.t.to_lists(),
        "diagonal": list(dec.diagonal()),
    }
    _emit(args, payload, ["diagonal: " + " ".join(str(x) for x in dec.diagonal())])
    return 0


def _verdict_stanza(v: Verdict) -> dict:
    return {"conjugate": v.conjugate, "prime": v.prime, "mu": v.mu_used}


def conj_p_report(a: IntMatrix, b: IntMatrix, path_a: str, path_b: str, prime: int) -> dict:
    start = time.perf_counter()
    verdict = conjugate_over_Zp(a, b, prime)
    return {
        "command": "conj-p",
        "prime": prime,
        "inputs": {"a": _input_stanza(path_a, a), "b": _input_stanza(path_b, b)},
        "verdict": _verdict_stanza(verdict),
        "certificate": _serialize_cert(verdict.certificate),
        "timing_seconds": round(time.perf_counter() - start, 6),
    }


def conj_all_report(
    a: IntMatrix, b: IntMatrix, path_a: str, path_b: str, cross_check: bool = False
) -> dict:
    start = time.perf_counter()
    verdict = conjugate_over_all_Zp(a, b)
    payload = {
        "command": "conj-all",
        "inputs": {"a": _input_stanza(path_a, a), "b": _input_stanza(path_b, b)},
        "verdict": _verdict_stanza(verdict),
        "screened_primes": list(verdict.screened),
        "per_prime": [
            {
                "prime": v.prime,
                "conjugate": v.conjugate,
                "mu": v.mu_used,
                "certificate": _serialize_cert(v.certificate),
            }
            for v in verdict.per_prime
        ],
        "pair_certificate": _serialize_cert(verdict.certificate),
    }
    if cross_check:
        ia = ideal_of_matrix(a)
        ok, _, _ = weak_equivalence_data(ia, ideal_of_matrix(b, ia.field))
        payload["cross_check"] = {
            "weakly_equivalent": ok,
            "agrees": ok == verdict.conjugate,
        }
    payload["timing_seconds"] = round(time.perf_counter() - start, 6)
    return payload


def weak_equiv_report(a: IntMatrix, b: IntMatrix, path_a: str, path_b: str) -> dict:
    start = time.perf_counter()
    ia = ideal_of_matrix(a)
    ib = ideal_of_matrix(b, ia.field)
    ok, x, y = weak_equivalence_data(ia, ib)
    return {
        "command": "weak-equiv",
        "inputs": {"a": _input_stanza(path_a, a), "b": _input_stanza(path_b, b)},
        "field": _serialize_field(ia),
        "verdict": {"weakly_equivalent": ok},
        "ideal_a": _serialize_ideal(ia),
        "ideal_b": _serialize_ideal(ib),
        "witnesses": (
            {"x": _serialize_ideal(x), "y": _serialize_ideal(y)} if ok else None
        ),
        "timing_seconds": round(time.perf_counter() - start, 6),
    }


def cmd_conj_p(args) -> int:
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    payload = conj_p_report(a, b, args.matrix_a, args.matrix_b, args.prime)
    v = payload["verdict"]
    word = "conjugate" if v["conjugate"] else "not conjugate"
    _emit(args, payload, [f"{word} over Z_{args.prime} (mu = {v['mu']})"])
    return 0


def cmd_conj_all(args) -> int:
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    payload = conj_all_report(a, b, args.matrix_a, args.matrix_b, args.cross_check)
    v = payload["verdict"]
    word = "conjugate" if v["conjugate"] else "not conjugate"
    screened = ", ".join(map(str, payload["screened_primes"])) or "none"
    _emit(args, payload, [f"{word} over Z_p for all p (screened primes: {screened})"])
    return 0


def cmd_weak_equiv(args) -> int:
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    payload = weak_equiv_report(a, b, args.matrix_a, args.matrix_b)
    word = (
        "weakly equivalent"
        if payload["verdict"]["weakly_equivalent"]
        else "not weakly equivalent"
    )
    _emit(args, payload, [f"associated ideals are {word}"])
    return 0


def cmd_ideal_of(args) -> int:
    a = read_matrix(args.matrix)
    ideal = ideal_of_matrix(a)
    payload = {
        "command": "ideal-of",
        "input": _input_stanza(args.matrix, a),
        "field": {"coefficients": list(ideal.field.modulus.coeffs)},
        "ideal": _serialize_ideal(ideal),
    }
    _emit(
        args,
        payload,
        [f"den = {ideal.den}"] + [" ".join(map(str, r)) for r in ideal.basis.entries],
    )
    return 0


def cmd_screen_primes(args) -> int:
    if args.field:
        f = parse_poly(args.field)
    elif args.matrix:
        f = charpoly(read_matrix(args.matrix))
    else:
        raise ParseFailure("screen-primes needs --field or a matrix file")
    primes = screen_primes(f)
    payload = {
        "command": "screen-primes",
        "polynomial": {"coefficients": list(f.coeffs), "pretty": f.pretty()},
        "primes": primes,
    }
    _emit(args, payload, [" ".join(map(str, primes)) if primes else "(empty)"])
    return 0


def cmd_ell(args) -> int:
    a = read_matrix(args.matrix)
    inv = ell_invariant(a, args.prime)
    payload = {
        "command": "ell",
        "input": _input_stanza(args.matrix, a),
        "prime": inv.prime,
        "ell": inv.ell,
    }
    _emit(args, payload, [f"ell = {inv.ell} at p = {inv.prime}"])
    return 0


def cmd_companion_test(args) -> int:
    a = read_matrix(args.matrix)
    ok = companion_test(a, args.prime)
    payload = {
        "command": "companion-test",
        "input": _input_stanza(args.matrix, a),
        "prime": args.prime,
        "similar_to_companion": ok,
    }
    _emit(args, payload, ["yes" if ok else "no"])
    return 0


def cmd_gen(args) -> int:
    f = parse_poly(args.field)
    pair = generate_pair(f, args.strategy, args.seed)
    write_matrix(args.out_a, pair.a, args.file_format)
    write_matrix(args.out_b, pair.b, args.file_format)
    payload = {
        "command": "gen",
        "field": {"coefficients": list(f.coeffs), "pretty": f.pretty()},
        "strategy": args.strategy,
        "seed": args.seed,
        "files": {"a": args.out_a, "b": args.out_b},
        "conjugator": pair.conjugator.to_lists(),
        "conjugator_det": pair.conjugator_det,
    }
    _emit(args, payload, [f"wrote {args.out_a} and {args.out_b}"])
    return 0


def _load_report(path: str) -> dict:
    try:
        with open(path) as fh:
            report = json.loads(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes, invalid JSON and an integer
        # of too many digits; RecursionError, nesting too deep to decode
        raise ParseFailure(f"cannot read report {path}: {exc}") from exc
    if not isinstance(report, dict) or "command" not in report:
        raise ParseFailure("report is missing a command field")
    return report


def _is_json(x, value) -> bool:
    """x is the JSON value `value`: 2.0 or true is not the integer 2 or 1.
    Objects compare key by key in any order, arrays (lists or tuples)
    entry by entry, and leaves by type and value."""
    if isinstance(value, dict):
        return (
            type(x) is dict
            and x.keys() == value.keys()
            and all(_is_json(x[k], v) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return (
            isinstance(x, (list, tuple))
            and len(x) == len(value)
            and all(map(_is_json, x, value))
        )
    return type(x) is type(value) and x == value


def _non_integer(primes) -> str | None:
    """Why one of a report's primes is not a JSON integer (a float or a
    boolean would compare equal to one); None when all are."""
    for p in primes:
        if type(p) is not int:
            return f"prime {json.dumps(p)} is not a JSON integer"
    return None


def _non_boolean(flags) -> str | None:
    """Why one of a report's verdict flags is not a JSON boolean (a string or
    a number would read as one by truthiness); None when all are."""
    for flag in flags:
        if type(flag) is not bool:
            return f"verdict flag {json.dumps(flag)} is not a JSON boolean"
    return None


def _member(obj: dict, key: str, kind: type, default=None):
    """obj[key] when it is a JSON object (kind dict) or array (kind list),
    default when it is absent or null; a ParseFailure otherwise."""
    value = obj.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ParseFailure(f"malformed report: {key} is not {name}")
    return value


def _stanza_error(op: SylvesterOperator, stanza: dict, where: str = "") -> str | None:
    """Why one per-prime claim fails, or None: its prime is a prime; a
    negative carries no certificate and the pair is not conjugate there,
    decided afresh on op by `conjugacy._conjugate_at_prime`, which reads
    `ReducedPair.settled` and builds no certificate where it settles the
    verdict; a positive's unit-mod certificate names the stanza's prime
    and holds on op; and the stanza's mu is op's there."""
    blob = _member(stanza, "certificate", dict)
    p = stanza.get("prime")
    if not is_prime(p):
        return f"prime {p} is not a prime{where}"
    if not stanza["conjugate"]:
        if blob is not None:
            return f"negative verdict{where} carries a certificate"
        if _conjugate_at_prime(op, p):
            return f"negative verdict{where} but the pair is conjugate there"
    else:
        if blob is None:
            return f"positive verdict without certificate{where}"
        cert = _parse_cert(blob)
        if not isinstance(cert, UnitModCert) or cert.prime != p:
            return f"certificate does not match the claimed prime{where}"
        if not _unit_mod_holds(op, cert):
            return f"certificate rejected{where}"
    if not _is_json(stanza.get("mu"), op.mu(p)):
        return f"mu does not match the operator's{where}"
    return None


def verify_report(report: dict, a: IntMatrix, b: IntMatrix) -> tuple[bool, str]:
    """Re-verify a serialized report against the two matrix files.  A field
    of the wrong JSON shape is a ParseFailure."""
    inputs = _member(report, "inputs", dict, {})
    for key, m in (("a", a), ("b", b)):
        stanza = _member(inputs, key, dict, {})
        if stanza.get("sha256") not in (None, matrix_digest(m)):
            return False, f"digest mismatch for input {key}"
        if stanza.get("n") is not None and not _is_json(stanza["n"], m.rows):
            return False, f"size mismatch for input {key}"
    command = report["command"]
    if command == "conj-p":
        verdict = _member(report, "verdict", dict, {})
        stanza = dict(verdict, certificate=_member(report, "certificate", dict))
        if report.get("prime") != verdict.get("prime"):
            return False, "report prime does not match the verdict's prime"
        why = _non_integer((report.get("prime"), verdict.get("prime")))
        why = why or _non_boolean([verdict.get("conjugate")])
        if why:
            return False, why
        try:
            op = SylvesterOperator(a, b)
            op.f  # mu and a certificate check need the shared polynomial
        except PreconditionError as exc:
            return False, str(exc)
        why = _stanza_error(op, stanza)
        if verdict["conjugate"]:
            return why is None, why or "certificate verified"
        return why is None, why or "negative verdict carries no certificate"
    if command == "conj-all":
        verdict = _member(report, "verdict", dict, {})
        screened = _member(report, "screened_primes", list, [])
        per = _member(report, "per_prime", list, [])
        if not all(isinstance(stanza, dict) for stanza in per):
            raise ParseFailure("malformed report: a per_prime entry is not an object")
        pair = _member(report, "pair_certificate", dict)
        cross = _member(report, "cross_check", dict)
        # one operator per report gives the screen (checking b even when it is
        # empty) and, from its local Smith forms, every stanza's mu
        try:
            op = SylvesterOperator(a, b)
            screen = screen_primes(op.f)
        except PreconditionError as exc:
            return False, str(exc)
        primes = [stanza.get("prime") for stanza in per]
        why = _non_integer(screened + primes)
        flags = [verdict.get("conjugate")] + [stanza.get("conjugate") for stanza in per]
        why = why or _non_boolean(flags)
        if why:
            return False, why
        if screened != screen:
            return False, "screened prime list does not match the discriminant"
        # only a screened prime can fail: each has one stanza, in order
        if primes != screen:
            return False, "per-prime stanzas do not match the screened primes"
        for stanza, p in zip(per, screen):
            why = _stanza_error(op, stanza, f" at {p}")
            if why:
                return False, why
        mus = [stanza.get("mu") for stanza in per]
        ints = all(type(m) is int for m in mus)
        if not (ints and _is_json(verdict.get("mu"), max(mus, default=0))):
            return False, "global mu is not the largest per-prime mu"
        if verdict.get("prime") != "all":
            return False, 'verdict prime is not "all"'
        conjugate = all(stanza["conjugate"] for stanza in per)
        if verdict["conjugate"]:
            if not conjugate:
                return False, "global true verdict with a failing prime"
        elif pair is not None:
            return False, "negative verdict carries a pair certificate"
        elif conjugate:
            return False, "negative verdict without a failing prime"
        # the ideal side agrees with the matrix side on every pair
        want = {"weakly_equivalent": conjugate, "agrees": True}
        if cross is not None and not _is_json(cross, want):
            return False, "cross-check does not match the verdict"
        if pair is not None and not verify_cert(a, b, _parse_cert(pair)):
            return False, "pair certificate rejected"
        return True, "all certificates verified"
    if command == "weak-equiv":
        verdict = _member(report, "verdict", dict, {})
        blob = report.get("witnesses")
        why = _non_boolean([verdict.get("weakly_equivalent")])
        if why:
            return False, why
        if not verdict["weakly_equivalent"]:
            if blob is not None:
                return False, "negative verdict carries witnesses"
            return True, "negative verdict carries no witnesses"
        if not blob:
            return False, "positive verdict without witnesses"
        # without the input digests the matrices need not share one
        # irreducible polynomial: that rejects the report, as for conj-all
        try:
            ia = ideal_of_matrix(a)
            ib = ideal_of_matrix(b, ia.field)
            _require_same_field(ia, ib)
        except PreconditionError as exc:
            return False, str(exc)
        # the field and both ideals as weak_equiv_report writes them
        for key, want in (
            ("field", _serialize_field(ia)),
            ("ideal_a", _serialize_ideal(ia)),
            ("ideal_b", _serialize_ideal(ib)),
        ):
            if not _is_json(report.get(key), want):
                return False, f"{key} does not match the matrices"
        try:
            x, y = (
                IdealLattice(ia.field, _json_rows(w["rows"]), _json_int(w["den"]))
                for w in (blob["x"], blob["y"])
            )
        except (KeyError, TypeError, ValueError):
            return False, "malformed witness ideals"
        # ideal_of_matrix checked that beta maps ia and ib into themselves
        if not verify_weak_witnesses(ia, ib, x, y):
            return False, "witness ideals rejected"
        return True, "witness ideals verified"
    return False, f"reports of command {command!r} are not verifiable"


def cmd_verify(args) -> int:
    report = _load_report(args.report)
    a = read_matrix(args.matrix_a)
    b = read_matrix(args.matrix_b)
    accepted, reason = verify_report(report, a, b)
    payload = {
        "command": "verify",
        "report": args.report,
        "accepted": accepted,
        "reason": reason,
    }
    _emit(args, payload, [("ACCEPT " if accepted else "REJECT ") + reason])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
#
# Each subcommand's arguments are a tuple of (name, keyword arguments of
# ArgumentParser.add_argument) in the order they are added: a positional's
# name is its dest, an option's name is its one long flag.  build_parser adds
# them to argparse; _parse_strict reads the same entries.

_MATRIX = (("matrix", {}),)
_PAIR = (("matrix_a", {}), ("matrix_b", {}))
_PRIME = (("--prime", {"type": int, "required": True}),)
_FORMAT = (
    ("--format", {
        "choices": ("json", "text"), "default": "json",
        "help": "output format (default json)",
    }),
)
_CONJ_ALL = _PAIR + (
    ("--cross-check", {
        "action": "store_true",
        "help": "also run the ideal-side weak-equivalence test and report agreement",
    }),
)
_SCREEN_PRIMES = (
    ("matrix", {"nargs": "?"}),
    ("--field", {"help": "polynomial, e.g. 't^2-t-1' or '-1,-1,1'"}),
)
_GEN = (
    ("--field", {"required": True}),
    ("--strategy", {"default": "unimodular", "help": "unimodular | singular:p | random"}),
    ("--seed", {"type": int, "default": 0}),
    ("--out-a", {"default": "gen_a.txt"}),
    ("--out-b", {"default": "gen_b.txt"}),
    ("--file-format", {"choices": ("text", "json"), "default": "text"}),
)


def _commands() -> tuple:
    """(name, help, arguments, handler) of every subcommand, in usage
    order; every subcommand's arguments end with --format.  Handlers are
    looked up on each call, so a wrapper installed on the module is the one
    that runs."""
    table = (
        ("charpoly", "characteristic polynomial of a matrix file", _MATRIX,
         cmd_charpoly),
        ("snf", "Smith normal form of a matrix file", _MATRIX, cmd_snf),
        ("conj-p", "conjugacy over the p-adic integers", _PAIR + _PRIME, cmd_conj_p),
        ("conj-all", "conjugacy over Z_p for every prime", _CONJ_ALL, cmd_conj_all),
        ("weak-equiv", "weak equivalence of the associated ideals", _PAIR,
         cmd_weak_equiv),
        ("ideal-of", "fractional ideal attached to a matrix", _MATRIX, cmd_ideal_of),
        ("screen-primes", "primes whose square divides disc(f)", _SCREEN_PRIMES,
         cmd_screen_primes),
        ("ell", "scalar-congruence invariant of a 2x2 matrix", _MATRIX + _PRIME,
         cmd_ell),
        ("companion-test", "similarity to the companion matrix at p", _MATRIX + _PRIME,
         cmd_companion_test),
        ("gen", "generate a deterministic matrix pair", _GEN, cmd_gen),
        ("verify", "re-verify a serialized report", (("report", {}),) + _PAIR,
         cmd_verify),
    )
    return tuple((name, text, args + _FORMAT, fn) for name, text, args, fn in table)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand in the table."""
    parser = argparse.ArgumentParser(
        prog="localconj",
        description="decide p-adic conjugacy of integer matrices and weak "
        "equivalence of their fractional ideals, with verifiable certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, handler in _commands():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=handler)
    return parser


def _parse_strict(argv: list[str]) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, read from the
    command table without argparse, whose first use in a process costs more
    than the rest of a `verify`; None when argparse has to read argv.

    Accepted: a subcommand name, then tokens each of which is a positional
    that does not start with '-' or an exact long option of that subcommand,
    given once, whose value (a flag takes none) is the next token, does not
    start with '-' and passes the option's type and choices; every required
    positional and option present, no positional left over.  Anything else
    (help, abbreviations, '--opt=v', '--', repeats, values starting with
    '-', usage errors) is argparse's to parse or to explain.
    """
    entry = next((c for c in _commands() if argv and c[0] == argv[0]), None)
    if entry is None:
        return None
    name, _, arguments, handler = entry
    options = {arg: kwargs for arg, kwargs in arguments if arg.startswith("-")}
    given: dict[str, object] = {}
    positionals: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        kwargs = options.get(token)
        if kwargs is None or token in given:
            return None
        if kwargs.get("action") == "store_true":
            given[token] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[token] = value
    args = argparse.Namespace(command=name)
    for arg, kwargs in arguments:
        if arg in options:
            if arg in given:
                value = given[arg]
            elif kwargs.get("required"):
                return None
            elif kwargs.get("action") == "store_true":
                value = False
            else:
                value = kwargs.get("default")
            setattr(args, arg[2:].replace("-", "_"), value)
        elif positionals:
            setattr(args, arg, positionals.pop(0))
        elif kwargs.get("nargs") == "?":
            setattr(args, arg, kwargs.get("default"))
        else:
            return None
    if positionals:
        return None
    args.func = handler
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_strict(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError, ArithmeticError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
