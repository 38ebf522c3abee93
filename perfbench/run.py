#!/usr/bin/env python3
"""Benchmark of the localconj command-line program.

    python3 perfbench/run.py --workload decide-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each operation is one call of ``localconj.cli.main(argv)`` with stdout
captured: argument parsing, matrix-file parsing, report JSON and all the
mathematics are measured, interpreter start-up is not.  Each operation runs
in a child forked from a process that has imported the package and never run
it, so no state carries over from one operation to the next, as when every
command runs in a process of its own.  The load is a closed loop with one
client: operations run one after another in a fixed order over a corpus
generated from ``--seed``, the whole corpus at least once, and every output is
checked against ground truth.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see tracing.py).  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; attempted and
failed count the distinct operations of the corpus, so they depend on the
seed only.  A copy of each result, with the corpus digest, goes to
.perfbench_run/results/ for compare.py.  Standard library only; the program
is imported from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import pickle
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import typing
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
sys.path.insert(0, str(HERE))

import corpus as C  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Set-ups run on each side of the timed pass: at least SETUP_REPEATS, and
# more until SETUP_SECONDS of set-up have run on that side.
SETUP_REPEATS = 2
SETUP_SECONDS = 1.0


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so the program's own
    handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class Outcome:
    op: W.Op
    rc: object  # exit code, "timeout", "raised_<Type>" or "died_<status>"
    out: str
    err: str
    seconds: float  # wall time of the call
    kind: str | None  # failure kind, None when the output is right
    defect: str | None  # label of the documented defect the failure is

    @property
    def ident(self) -> str:
        """Names the operation within its corpus, across runs and commits."""
        return f"{self.op.pair}/{self.op.command}/{self.op.truth}"


def call_cli(main, argv, limit: float):
    """One in-process call of the entry point under the per-operation limit."""
    out, err = io.StringIO(), io.StringIO()
    rc: object = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except OpTimeout:
        rc = "timeout"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a counted failure, not a harness error
        rc = f"raised_{type(exc).__name__}"
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def _import_main():
    """Import localconj afresh; the previous copy becomes garbage."""
    for name in [m for m in sys.modules if m == "localconj" or m.startswith("localconj.")]:
        del sys.modules[name]
    # typing keeps the last 128 subscripted types (Optional[IntMatrix], ...)
    # and with them 128 old copies of the package; drop them
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    return importlib.import_module("localconj.cli").main


def _pristine_main():
    """A fresh import for children to inherit.  Its objects are frozen out of
    the collector, so a child's collections do not walk (and copy) them."""
    main = _import_main()
    gc.collect()
    gc.freeze()
    return main


class Speed:
    """The machine's speed over one run, read from a fixed reference
    computation (the characteristic polynomial of a fixed 8x8 matrix with
    20-bit entries; benchmark code, not the program's).

    The shared machine this benchmark was built on slows by up to 2x in
    bursts of a quarter of a second to a few seconds, and the share of time
    spent in bursts differs from run to run.  So at most every EVERY_S a
    forked child times the reference just before its operation, in the same
    conditions as the operation, and every operation time of the run is
    scaled by REFERENCE_S over the mean of those samples.  The mean, not the
    median: both the reference's mean and an operation's time grow in
    proportion to the share of time in bursts, while the median jumps
    between the quiet and the loaded speed.
    """

    REFERENCE_S = 0.002
    EVERY_S = 0.3

    def __init__(self) -> None:
        rng = random.Random(0)
        self.matrix = [[rng.randrange(-(2**20), 2**20) for _ in range(8)] for _ in range(8)]
        self.samples: list[float] = []
        self.last = -math.inf

    def due(self) -> bool:
        """True, and the clock restarted, if the last sample is EVERY_S old."""
        now = time.perf_counter()
        if now - self.last < self.EVERY_S:
            return False
        self.last = now
        return True

    def measure(self) -> float:
        """One sample: the faster of two timed runs, after an untimed one."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            C.charpoly(self.matrix)
            times.append(time.perf_counter() - start)
        return min(times[1:])

    def factor(self) -> float:
        """Factor that turns a wall time of this run into reference time;
        1 when no child lived to send a sample."""
        return self.REFERENCE_S / statistics.mean(self.samples) if self.samples else 1.0


def run_forked(main, op: W.Op, speed: Speed) -> Outcome:
    """One operation in a forked child of a process that imported the
    package and never ran it, after a reference sample when one is due.  The
    child sends ((rc, stdout, stderr, seconds), sample) back through a pipe;
    the parent waits for it on every path."""
    take = speed.due()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            ref = speed.measure() if take else None
            payload = pickle.dumps((call_cli(main, op.argv, W.TIME_LIMIT_S), ref))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    status = None
    try:
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status == 0 and payload:
        (rc, out, err, seconds), ref = pickle.loads(payload)
        if ref is not None:
            speed.samples.append(ref)
    else:  # the program ended the process itself, or a signal did
        rc, out, err, seconds = f"died_{status}", "", "", time.perf_counter() - start
    return _outcome(op, rc, out, err, seconds)


def run_in_process(op: W.Op, tracer: T.Tracer | None) -> Outcome:
    """One operation in this process on a fresh import, with trace wrappers
    installed for its duration if a tracer is given.  The import and the
    garbage it leaves are outside the timer."""
    _import_main()
    gc.collect()
    if tracer is None:
        return _outcome(op, *call_cli(sys.modules["localconj.cli"].main, op.argv, W.TIME_LIMIT_S))
    tracer.install()
    try:
        main = sys.modules["localconj.cli"].main  # the wrapped entry point
        rc, out, err, seconds = call_cli(main, op.argv, W.TIME_LIMIT_S)
    finally:
        tracer.settle()
        tracer.uninstall()
    return _outcome(op, rc, out, err, seconds)


def _outcome(op: W.Op, rc, out: str, err: str, seconds: float) -> Outcome:
    kind = rc if isinstance(rc, str) else W.check_output(op, rc, out)
    defect = W.known_defect(kind, err) if kind else None
    return Outcome(op, rc, out, err, seconds, kind, defect)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    ops: list[W.Op]
    round_ends: frozenset[int]  # positions in ops, modulo len(ops), after a corpus round
    digest: str
    pairs: int
    failures: list[Outcome]  # reports that could not be produced (verify-reports)
    seconds: float  # wall time, at reference speed once scaled


def _write_matrix(path: Path, m) -> str:
    path.write_text(f"{len(m)}\n" + "\n".join(" ".join(map(str, r)) for r in m) + "\n")
    return str(path)


def setup(workload: str, seed: int, rounds: int | None, work: Path) -> Setup:
    """Import of the program, corpus, matrix files and, for verify-reports,
    the reports to verify, made in this process by one import."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    main = _import_main()
    pairs = W.build_corpus(workload, seed, rounds)
    per_round = len(W.WORKLOADS[workload]())
    ops: list[W.Op] = []
    ends: list[int] = []
    failures: list[Outcome] = []
    for k, pair in enumerate(pairs):
        if k and k % per_round == 0:
            ends.append(len(ops))
        pa = _write_matrix(work / f"{k:04d}_a.txt", pair.a)
        pb = _write_matrix(work / f"{k:04d}_b.txt", pair.b)
        argv = tuple(
            W.decision_argv(pair.command, pa, pb, pair.prime, workload != "verify-reports")
        )
        op = W.Op(len(ops), k, pair.stratum, pair.command, argv, pair.truth, pair.prime)
        if workload != "verify-reports":
            ops.append(op)
            continue
        made = _outcome(op, *call_cli(main, op.argv, W.TIME_LIMIT_S))
        if made.kind is not None:
            failures.append(made)
            continue
        report = json.loads(made.out)
        variants = [("genuine", report)] + [
            (f"tamper:{kind}", W.tamper(report, kind, pair.a, pair.b))
            for kind in W.TAMPER_KINDS
        ]
        for truth, blob in variants:
            if blob is None:
                continue
            path = work / f"{k:04d}_{truth.replace(':', '_')}.json"
            path.write_text(json.dumps(blob, indent=2) + "\n")
            ops.append(
                W.Op(len(ops), k, pair.stratum, "verify", ("verify", str(path), pa, pb), truth)
            )
    if not ops:
        raise RuntimeError("set-up produced no operations")
    round_ends = frozenset(end % len(ops) for end in ends + [len(ops)])
    return Setup(
        ops, round_ends, C.corpus_digest(pairs), len(pairs), failures,
        time.perf_counter() - start,
    )


def scaled_setup(speed: Speed, *args) -> Setup:
    """A set-up whose time is scaled to reference speed by three reference
    samples taken just before it and three just after it."""
    before = [speed.measure() for _ in range(3)]
    s = setup(*args)
    after = [speed.measure() for _ in range(3)]
    s.seconds *= speed.REFERENCE_S / statistics.mean(before + after)
    return s


# ---------------------------------------------------------------------------
# measurement


def timed_pass(s: Setup, seconds: float, run) -> list[Outcome]:
    """Run operations in corpus order, wrapping around, until the whole
    corpus has run once, `seconds` have passed and the round in progress is
    complete, so every run measures every operation and whole rounds."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while True:
        outcomes.append(run(s.ops[len(outcomes) % len(s.ops)]))
        done = len(outcomes)
        if (
            done >= len(s.ops)
            and done % len(s.ops) in s.round_ends
            and time.perf_counter() >= deadline
        ):
            return outcomes


def per_operation(outcomes: list[Outcome]) -> list[tuple[Outcome, float]]:
    """Each operation of the corpus once, in corpus order: its first failing
    run if any run failed, else its first run, with the mean wall time of
    all its runs (a mean, like the reference's; see Speed)."""
    runs: dict[int, list[Outcome]] = {}
    for o in outcomes:
        runs.setdefault(o.op.index, []).append(o)
    return [
        (next((o for o in rs if o.kind), rs[0]), statistics.mean(o.seconds for o in rs))
        for _, rs in sorted(runs.items())
    ]


def tail_percentile(samples: int) -> int:
    """The highest multiple of 5 below 100 with at least ten samples beyond
    it (nearest rank); the number of distinct operations fixes it."""
    for pct in range(95, 50, -5):
        if samples - math.ceil(pct / 100.0 * samples) >= 10:
            return pct
    return 50


def tail(times: list[float], percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) of a nearest-rank percentile."""
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _peak_child_rss_mb() -> float:
    """Largest resident set of any operation's process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


_TIMING = re.compile(r'"timing_seconds": [0-9.eE+-]+')


def normalized(out: str) -> str:
    """Report bytes with the wall-clock field blanked."""
    return _TIMING.sub('"timing_seconds": null', out)


def failure_table(outcomes: list[Outcome]) -> dict[str, dict]:
    """Failures by kind; a documented defect is a kind of its own."""
    table: dict[str, dict] = {}
    for o in outcomes:
        if o.kind is None:
            continue
        key = f"{o.kind} [{o.defect}]" if o.defect else o.kind
        rec = table.setdefault(key, {"count": 0, "strata": Counter(), "detail": ""})
        rec["count"] += 1
        rec["strata"][o.op.stratum] += 1
        line = o.err.strip().splitlines()
        rec["detail"] = rec["detail"] or (line[-1] if line else "")
        if o.defect:
            rec["known_defect"] = o.defect
    for rec in table.values():
        rec["strata"] = dict(rec["strata"])
    return table


def _accounting(s: Setup, distinct: list[Outcome]) -> dict:
    """Counts over the distinct operations: one outcome per operation of the
    corpus, plus the reports set-up could not make."""
    every = s.failures + distinct
    table = failure_table(every)
    return {
        "digest": s.digest,
        "pairs": s.pairs,
        "ops_in_corpus": len(s.ops),
        "attempted": len(every),
        "failed": sum(rec["count"] for rec in table.values()),
        # any failure that is not a documented defect makes the run incorrect
        "correct": all(o.defect for o in every if o.kind),
        "failures": table,
        "attempted_ids": sorted({o.ident for o in every}),
        "failed_ids": sorted({o.ident for o in every if o.kind}),
    }


def setups_for(speed: Speed, repeats: int, budget: float, *args) -> list[Setup]:
    """At least `repeats` set-ups, and more until `budget` seconds have passed."""
    start = time.perf_counter()
    done = [scaled_setup(speed, *args)]
    while len(done) < repeats or time.perf_counter() - start < budget:
        done.append(scaled_setup(speed, *args))
    return done


def measure(
    workload: str, seed: int, seconds: float, rounds: int | None, repeats: int, budget: float
) -> dict:
    work = WORK / f"{workload}-seed{seed}"
    speed = Speed()
    # set-up time follows the load of the machine over seconds, so the
    # repeats are taken apart in time, before and after the timed pass, and
    # each is scaled by reference samples taken next to it
    setups = setups_for(speed, repeats, budget, workload, seed, rounds, work)
    last = setups[-1]
    main = _pristine_main()
    run = lambda op: run_forked(main, op, speed)  # noqa: E731
    run(last.ops[0])  # warm-up
    outcomes = timed_pass(last, seconds, run)
    gc.unfreeze()
    if repeats > 1:
        setups += setups_for(speed, repeats, budget, workload, seed, rounds, work)
    if len({s.digest for s in setups}) != 1:
        raise AssertionError("the same seed gave different corpora")
    factor = speed.factor()
    distinct = per_operation(outcomes)
    times = [t * factor for _, t in distinct]
    pct = tail_percentile(len(times))
    tail_s, beyond = tail(times, pct)
    by_stratum: dict[str, list[float]] = {}
    for (o, _), t in zip(distinct, times):
        by_stratum.setdefault(o.op.stratum, []).append(round(1000.0 * t, 1))
    succeeded = sum(1 for o, _ in distinct if o.kind is None)
    return dict(
        _accounting(last, [o for o, _ in distinct]),
        tail_percentile=pct,
        tail_beyond=beyond,
        samples=len(times),
        runs=len(outcomes),
        setup_runs_s=[s.seconds for s in setups],
        stratum_ms=by_stratum,
        speed_factor=factor,
        reference_samples=len(speed.samples),
        metrics={
            "setup_s": statistics.median(s.seconds for s in setups),
            "op_p50_ms": 1000.0 * statistics.median(times),
            "op_tail_ms": 1000.0 * tail_s,
            "ops_per_s": succeeded / sum(times),
            "peak_rss_mb": _peak_child_rss_mb(),
        },
    )


def measure_traced(workload: str, seed: int, rounds: int | None) -> dict:
    """Each operation of the corpus untraced and then traced, both in this
    process, so that the overhead compares like with like; their report
    bytes must match apart from timing_seconds."""
    s = setup(workload, seed, rounds, WORK / f"{workload}-seed{seed}")
    tracer = T.Tracer()
    plain, traced = [], []
    for i, op in enumerate(s.ops):
        plain.append(run_in_process(op, None))
        tracer.op = i
        traced.append(run_in_process(op, tracer))
    mismatched = [
        a.op.index
        for a, b in zip(plain, traced)
        if "timeout" not in (a.rc, b.rc)
        and (a.rc != b.rc or normalized(a.out) != normalized(b.out))
    ]
    spans_path = WORK / "spans" / f"{workload}-seed{seed}.tsv.gz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    rate = lambda outs: sum(1 for o in outs if o.kind is None) / sum(o.seconds for o in outs)  # noqa: E731
    result = _accounting(s, traced)
    result["correct"] = result["correct"] and not mismatched
    return dict(
        result,
        trace_mismatched_ops=mismatched,
        trace_overhead=rate(traced) / rate(plain),
        spans=tracer.span_count(),
        spans_file=str(spans_path.relative_to(ROOT)),
        metrics=T.layer_metrics(tracer.summary(), len(traced)),
    )


# ---------------------------------------------------------------------------
# output


def _print_human(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print(
        f"  corpus sha256 {result['digest']}  ({result['pairs']} pairs, "
        f"{result['ops_in_corpus']} operations)"
    )
    m = result["metrics"]
    if trace:
        print(
            f"  tracing overhead: traced/untraced ops_per_s = {result['trace_overhead']:.3f}"
            f"  ({result['spans']} spans -> {result['spans_file']})"
        )
        print(
            "  traced report bytes equal untraced: "
            + ("yes" if not result["trace_mismatched_ops"] else
               f"NO, operations {result['trace_mismatched_ops']}")
        )
        for name, value in m.items():
            print(f"  {name:34s} {value:.6g} {T.unit_of(name)}")
    else:
        print(
            f"  (times at reference speed: wall times x {result['speed_factor']:.4f}, from"
            f" {result['reference_samples']} reference samples; {result['runs']} operation"
            " runs, an operation's time is the mean of its runs)"
        )
        runs = result["setup_runs_s"]
        print(
            f"  setup_s      {m['setup_s']:.4f} s  (median of {len(runs)} set-ups,"
            f" {min(runs):.4f}-{max(runs):.4f} s)"
        )
        print(f"  op_p50_ms    {m['op_p50_ms']:.3f} ms")
        print(
            f"  op_tail_ms   {m['op_tail_ms']:.3f} ms  (p{result['tail_percentile']} of"
            f" {result['samples']} operations, {result['tail_beyond']} beyond it)"
        )
        if result["tail_beyond"] < 10:
            print("  warning: fewer than ten operations beyond the tail percentile")
        print(f"  ops_per_s    {m['ops_per_s']:.4f} 1/s  (operations that succeeded)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_share {failed / attempted:.4f}  ({failed}/{attempted} distinct operations)")
    for kind, rec in sorted(result["failures"].items()):
        note = f" [known defect {rec['known_defect']}]" if "known_defect" in rec else ""
        print(f"    {kind} x{rec['count']}{note}: {rec['detail']}  strata {rec['strata']}")
    print(f"  correct {result['correct']}")


def _save(workload: str, seed: int, seconds: float, trace: int, result: dict) -> None:
    out = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    record = dict(
        result,
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        python=platform.python_version(),
        machine=platform.machine(),
    )
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> None:
    rounds = 1 if tiny else None
    signal.signal(signal.SIGALRM, _on_alarm)
    if trace:
        result = measure_traced(workload, seed, rounds)
        metrics = {k: {"value": v, "unit": T.unit_of(k)} for k, v in result["metrics"].items()}
    else:
        repeats, budget = (1, 0.0) if tiny else (SETUP_REPEATS, SETUP_SECONDS)
        result = measure(workload, seed, seconds, rounds, repeats, budget)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["metrics"].items()}
    _save(workload, seed, seconds, trace, result)
    _print_human(workload, seed, trace, result)
    final = {key: result[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps(dict(final, metrics=metrics)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one corpus round, one set-up (self-tests)")
    args = parser.parse_args(argv)
    if not (SRC / "localconj" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'localconj'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        # one process per workload, so peak_rss_mb belongs to that workload
        codes = []
        for name in W.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            codes.append(subprocess.run(cmd, check=False).returncode)
        return max(codes)
    run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
