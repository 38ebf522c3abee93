"""The four benchmark workloads: their strata, their corpora and the checks
applied to every output.

A workload is a fixed list of strata.  Round r of a corpus holds one pair from
every stratum, in the fixed stratum order, generated from a random stream
named by (seed, workload, stratum, r).  The timed pass walks the rounds in
order, so every run covers the same mix and only the seeded entries differ.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from typing import Callable

import corpus as C

SMALL = (1, 12)  # bits of the largest entry
WIDE = (30, 32)

# fields by name, ascending coefficients
T2P3 = (3, 0, 1)  # t^2+3
DEDEKIND = (-8, -2, -1, 1)  # t^3-t^2-2t-8, index 2
SD4 = (1, 0, -10, 0, 1)  # t^4-10t^2+1: reducible mod every prime, Kronecker fallback
T5M2 = (-2, 0, 0, 0, 0, 1)  # t^5-2
T6M2 = (-2, 0, 0, 0, 0, 0, 1)  # t^6-2
T5M7 = (-7, 0, 0, 0, 0, 1)  # t^5-7: screened primes 5 and 7
T6P7 = (7, 0, 0, 0, 0, 0, 1)  # t^6+7: screened 2, 3, 7
T6M5 = (-5, 0, 0, 0, 0, 0, 1)  # t^6-5: screened 2, 3, 5
T4M2 = (-2, 0, 0, 0, 1)
T3M2 = (-2, 0, 0, 1)
T7M3 = (-3, 0, 0, 0, 0, 0, 0, 1)  # fast mod-p accept at n = 7
T8M3 = (-3, 0, 0, 0, 0, 0, 0, 0, 1)  # fast mod-p accept at n = 8
G5 = (-1, -1, 0, 0, 0, 1)  # t^5-t-1
G6 = (-1, -1, 0, 0, 0, 0, 1)  # t^6-t-1

TIME_LIMIT_S = 10.0  # per operation


@dataclass(frozen=True)
class Stratum:
    name: str
    command: str  # conj-all | conj-p | weak-equiv
    make: Callable[[random.Random], tuple[C.Matrix, C.Matrix, str]]  # a, b, truth
    prime: int | None = None  # for conj-p


def _unimodular(name, command, f, bits, prime=None) -> Stratum:
    def make(rng):
        return (*C.unimodular_pair(f, rng, bits), "conjugate")

    return Stratum(name, command, make, prime)


def _shifted(name, command, g, p, bits, conjugate, prime=None) -> Stratum:
    def make(rng):
        lam = rng.randrange(-3, 4)
        _, a, b = C.shifted_pair(g, lam, p, rng, bits, conjugate)
        return a, b, "conjugate" if conjugate else f"not_conjugate_at:{p}"

    return Stratum(name, command, make, prime)


def _sublattice(name, command, f, primes, bits) -> Stratum:
    def make(rng):
        p = rng.choice(primes)
        return (*C.sublattice_pair(f, p, rng.choice((1, 2)), rng, bits), "undetermined")

    return Stratum(name, command, make)


def _radical(name, command, n, p, m, c, bits) -> Stratum:
    def make(rng):
        _, a, b = C.radical_order_pair(n, p, m, c, rng, bits)
        return a, b, f"not_conjugate_at:{p}"

    return Stratum(name, command, make)


def _decide_mixed() -> list[Stratum]:
    cmd = "conj-all"
    return [
        _unimodular("uni2-small", cmd, T2P3, SMALL),
        _unimodular("uni4-kronecker", cmd, SD4, SMALL),
        _unimodular("uni5-small", cmd, T5M2, SMALL),
        _unimodular("uni2-wide", cmd, T2P3, WIDE),
        _sublattice("sub2-wide", cmd, T2P3, (2, 3), WIDE),
        _shifted("shift3-neg", cmd, T3M2, 2, SMALL, False),
        _shifted("shift4-pos", cmd, T4M2, 3, SMALL, True),
        _shifted("shift5-neg", cmd, T5M2, 2, SMALL, False),
        _sublattice("sub4-kronecker", cmd, SD4, (2,), SMALL),
        _sublattice("sub5", cmd, T5M2, (2, 3, 5, 7), SMALL),
        _radical("radical5", cmd, 5, 3, 2, 2, SMALL),
        _radical("radical6", cmd, 6, 2, 2, 3, SMALL),
    ]


def _search_deep() -> list[Stratum]:
    cmd = "conj-p"
    return [
        _unimodular("mu0-uni5-p7", cmd, T5M7, SMALL, prime=7),
        _unimodular("mu0-uni5-p5", cmd, T5M7, SMALL, prime=5),
        _unimodular("mu0-uni6-p5", cmd, T6M5, SMALL, prime=5),
        _shifted("mu1-pos5-p7", cmd, G5, 7, SMALL, True, prime=7),
        _shifted("mu1-neg5-p7", cmd, G5, 7, SMALL, False, prime=7),
        _shifted("mu1-pos5-p5", cmd, T5M2, 5, SMALL, True, prime=5),
        _shifted("mu1-neg5-p5", cmd, T5M2, 5, SMALL, False, prime=5),
        _shifted("mu1-pos6-p5", cmd, G6, 5, SMALL, True, prime=5),
        _shifted("mu1-neg6-p5", cmd, G6, 5, SMALL, False, prime=5),
    ]


def _ideal_side() -> list[Stratum]:
    cmd = "weak-equiv"
    return [
        _unimodular("uni4-small", cmd, T4M2, SMALL),
        _unimodular("uni6-small", cmd, T6M2, SMALL),
        _unimodular("uni6-selmer", cmd, G6, SMALL),
        _unimodular("uni6-t6p7", cmd, T6P7, SMALL),
        _unimodular("uni7-small", cmd, T7M3, SMALL),
        _unimodular("uni8-small", cmd, T8M3, SMALL),
        _radical("radical4-p2", cmd, 4, 2, 2, 3, SMALL),
        _radical("radical5-p3", cmd, 5, 3, 2, 2, SMALL),
        _radical("radical6-p2", cmd, 6, 2, 3, 5, SMALL),
        _radical("radical7-p3", cmd, 7, 3, 2, 2, SMALL),
        _radical("radical4-wide", cmd, 4, 3, 2, 2, WIDE),
    ]


def _verify_sources() -> list[Stratum]:
    """Pairs whose reports the verify-reports workload re-checks; cheap to
    decide, so that set-up can make several rounds of them.  The four
    unimodular strata at n = 5, 6 give the slowest checks, about a tenth of
    a round, so that the reported p95 lies inside that group.  Their conj-all
    runs without --cross-check: verify does not read the cross-check."""
    return [
        _unimodular("conj-all-uni3", "conj-all", DEDEKIND, SMALL),
        _unimodular("conj-all-uni4", "conj-all", T4M2, SMALL),
        _unimodular("conj-all-uni5", "conj-all", T5M2, SMALL),
        _unimodular("conj-all-uni5b", "conj-all", G5, SMALL),
        _radical("conj-all-radical4", "conj-all", 4, 3, 2, 2, SMALL),
        _unimodular("conj-p-uni5-p5", "conj-p", T5M7, SMALL, prime=5),
        _shifted("conj-p-pos5-p5", "conj-p", T5M2, 5, SMALL, True, prime=5),
        _shifted("conj-p-neg5-p5", "conj-p", T5M2, 5, SMALL, False, prime=5),
        _unimodular("weak-equiv-uni4", "weak-equiv", T4M2, SMALL),
        _unimodular("weak-equiv-uni6", "weak-equiv", T6M2, SMALL),
        _unimodular("weak-equiv-uni6b", "weak-equiv", T6P7, SMALL),
        _radical("weak-equiv-radical5", "weak-equiv", 5, 3, 2, 2, SMALL),
    ]


WORKLOADS: dict[str, Callable[[], list[Stratum]]] = {
    "decide-mixed": _decide_mixed,
    "search-deep": _search_deep,
    "ideal-side": _ideal_side,
    "verify-reports": _verify_sources,
}

ROUNDS = {"decide-mixed": 10, "search-deep": 11, "ideal-side": 12, "verify-reports": 4}


def build_corpus(workload: str, seed: int, rounds: int | None = None) -> list[C.Pair]:
    strata = WORKLOADS[workload]()
    pairs = []
    for r in range(ROUNDS[workload] if rounds is None else rounds):
        for s in strata:
            a, b, truth = s.make(random.Random(f"{seed}/{workload}/{s.name}/{r}"))
            if C.charpoly(a) != C.charpoly(b):
                raise AssertionError(f"{s.name}: characteristic polynomials differ")
            pairs.append(C.Pair(s.name, s.command, a, b, truth, s.prime))
    return pairs


# ---------------------------------------------------------------------------
# operations and their checks


@dataclass(frozen=True)
class Op:
    """One call of the command-line entry point and what its output must say."""

    index: int
    pair: int  # index of the corpus pair it was made from
    stratum: str
    command: str
    argv: tuple[str, ...]
    truth: str  # pair ground truth, or for verify: "genuine" / "tamper:<kind>"
    prime: int | None = None


# Documented defects (ROADMAP.md): (label, failure kind, text its stderr must
# hold).  A failure that matches one is counted in `failed` but does not mark
# the run incorrect; every other failure does, whether a wrong answer, a
# crash, an exception or a timeout.
KNOWN_DEFECTS = (
    # conj-all divides by a float ratio that rounds to 1.0 and exits 2
    ("F2", "exit_2", "float division by zero"),
    # verify accepts a positive report whose verdict was flipped to negative
    ("F3", "verify_accepted_tamper:flip", ""),
)


def known_defect(kind: str, err: str) -> str | None:
    """The label of the documented defect this failure is, or None."""
    for label, defect_kind, text in KNOWN_DEFECTS:
        if kind == defect_kind and text in err:
            return label
    return None


def decision_argv(
    command: str, path_a: str, path_b: str, prime: int | None, cross_check: bool
) -> list[str]:
    argv = [command, path_a, path_b]
    if command == "conj-all" and cross_check:
        argv.append("--cross-check")
    if command == "conj-p":
        argv += ["--prime", str(prime)]
    return argv


def _positive(report: dict) -> bool:
    verdict = report["verdict"]
    return bool(verdict.get("conjugate", verdict.get("weakly_equivalent")))


def check_output(op: Op, rc: int, out: str) -> str | None:
    """None when the output is right, else the failure kind."""
    command = op.command
    if rc != 0:
        return f"exit_{rc}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "bad_output"
    if command == "verify":
        accepted = report.get("accepted")
        if op.truth == "genuine":
            return None if accepted is True else "verify_rejected_genuine"
        return None if accepted is False else f"verify_accepted_{op.truth}"
    try:
        positive = _positive(report)
    except (KeyError, TypeError):
        return "bad_output"
    if "--cross-check" in op.argv and not report.get("cross_check", {}).get("agrees"):
        return "cross_check_disagrees"
    if op.truth == "conjugate" and not positive:
        return "wrong_verdict"
    if op.truth.startswith("not_conjugate_at:"):
        p = int(op.truth.split(":")[1])
        if positive and (command != "conj-p" or op.prime == p):
            return "wrong_verdict"
    return None


# ---------------------------------------------------------------------------
# tampering for verify-reports

# The digest of either input file changed: verify checks both before any
# certificate, so these are its cheapest rejections.  With both of them, most
# operations of a round take the cheap path and the round's median operation
# falls inside that group, not on the step between cheap and full checks,
# where it would swing with the seed.
TAMPER_KINDS = ("cert", "digest-a", "digest-b", "flip")


def _unit_mod_valid(a, b, blob) -> bool:
    x, mod, p = blob["matrix"], blob["modulus"], blob["prime"]
    ax, xb = C.matmul(a, x), C.matmul(x, b)
    if any((u - v) % mod for ru, rv in zip(ax, xb) for u, v in zip(ru, rv)):
        return False
    return C.det_mod(x, p) != 0


def _tamper_unit_mod(a, b, blob) -> bool:
    """Change one matrix entry so that the certificate becomes invalid."""
    n = len(blob["matrix"])
    for i in range(n):
        for j in range(n):
            blob["matrix"][i][j] += 1
            if not _unit_mod_valid(a, b, blob):
                return True
            blob["matrix"][i][j] -= 1
    return False


def tamper(report: dict, kind: str, a, b) -> dict | None:
    """A copy of a genuine report changed so that verify must reject it, or
    None when this kind does not apply (certificates exist only on positive
    verdicts)."""
    r = copy.deepcopy(report)
    if kind.startswith("digest-"):
        entry = r["inputs"][kind[-1]]
        entry["sha256"] = entry["sha256"][:-1] + ("0" if entry["sha256"][-1] != "0" else "1")
        return r
    if not _positive(r):
        return None
    command = r["command"]
    if kind == "flip":
        if command == "conj-p":
            r["verdict"]["conjugate"] = False
            r["certificate"] = None
        elif command == "conj-all":
            r["verdict"]["conjugate"] = False
            r["pair_certificate"] = None
            for stanza in r["per_prime"]:
                stanza["conjugate"] = False
                stanza["certificate"] = None
        else:
            r["verdict"]["weakly_equivalent"] = False
            r["witnesses"] = None
        return r
    # kind == "cert"
    if command == "weak-equiv":
        r["witnesses"]["x"]["den"] *= 2  # x/2 * I_B is never I_A
        return r
    blobs = [r["certificate"]] if command == "conj-p" else [
        s["certificate"] for s in r["per_prime"] if s["certificate"]
    ]
    for blob in blobs:
        if blob["type"] == "unit_mod" and _tamper_unit_mod(a, b, blob):
            return r
    return None
