"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus as C  # noqa: E402
import run as R  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_same_seed_same_digest():
    for workload in W.WORKLOADS:
        one = C.corpus_digest(W.build_corpus(workload, 11, rounds=2))
        two = C.corpus_digest(W.build_corpus(workload, 11, rounds=2))
        other = C.corpus_digest(W.build_corpus(workload, 12, rounds=2))
        assert one == two != other


def test_corpus_builds_for_many_seeds():
    for seed in range(40):
        for workload in W.WORKLOADS:
            W.build_corpus(workload, seed, rounds=1)


def test_generator_invariants():
    rng = random.Random(5)
    # scalar mod p on one side, not on the other
    f, a, b = C.shifted_pair((-2, 0, 0, 0, 1), 3, 5, rng, (1, 12), conjugate=False)
    assert C.charpoly(a) == C.charpoly(b) == f
    scalar_mod = lambda m, p: all(  # noqa: E731
        (m[i][j] - (m[0][0] if i == j else 0)) % p == 0 for i in range(len(m)) for j in range(len(m))
    )
    assert scalar_mod(a, 5) and not scalar_mod(b, 5)
    f, a, b = C.radical_order_pair(6, 2, 3, 5, rng, (30, 32))
    assert C.charpoly(a) == C.charpoly(b) == f
    assert 30 <= C.max_bits(a) <= 32 and 30 <= C.max_bits(b) <= 32
    a, b = C.sublattice_pair((-2, 0, 0, 0, 0, 1), 3, 2, rng, (1, 12))
    assert C.charpoly(a) == C.charpoly(b) and C.max_bits(a) <= 12


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == R.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [f"{lay}.self_s" for lay in T.LAYERS] + list(T.PER_OP_METRICS)
    assert layer == {n: T.unit_of(n) for n in names}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_smoke_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in W.WORKLOADS:
        proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["attempted"] >= 1
        assert set(final["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in final["metrics"].values())
        assert "failed_share" in proc.stdout and "corpus sha256" in proc.stdout


def test_traced_smoke_run():
    proc = _run("--workload", "verify-reports", "--seed", "3", "--seconds", "0.1",
                "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(final["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert "tracing overhead" in proc.stdout
    assert "traced report bytes equal untraced: yes" in proc.stdout


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "decide-mixed", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _stub_checkout(tmp_path: Path, cli_source: str) -> Path:
    """A checkout whose program is a stub command-line entry point."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    package = tmp_path / "src" / "localconj"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(cli_source)
    return tmp_path


def _final(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_any_undocumented_failure_makes_the_run_incorrect(tmp_path):
    stubs = {
        "exit1": "def main(argv):\n    return 1\n",
        "raises": "def main(argv):\n    raise ArithmeticError('rho found no factor')\n",
        "exit2": "def main(argv):\n    return 2\n",
        # ends the operation's process without a result
        "os_exit": "import os\ndef main(argv):\n    os._exit(0)\n",
    }
    for name, source in stubs.items():
        cwd = _stub_checkout(tmp_path / name, source)
        final = _final(_run("--workload", "decide-mixed", "--seed", "3", "--seconds", "0.1",
                            "--tiny", cwd=cwd))
        assert final["correct"] is False, name
        assert final["failed"] == final["attempted"] >= 1, name


def test_documented_crash_is_failed_but_not_incorrect(tmp_path):
    # the stderr signature of defect F2
    source = (
        "import sys\n"
        "def main(argv):\n"
        "    print('precondition violated: float division by zero', file=sys.stderr)\n"
        "    return 2\n"
    )
    final = _final(_run("--workload", "decide-mixed", "--seed", "3", "--seconds", "0.1",
                        "--tiny", cwd=_stub_checkout(tmp_path, source)))
    assert final["correct"] is True
    assert final["failed"] == final["attempted"] >= 1


def test_tail_percentile_leaves_ten_beyond():
    assert [R.tail_percentile(n) for n in (12, 99, 120, 130, 212)] == [50, 85, 90, 90, 95]
    for n in (20, 60, 99, 120, 212):
        assert R.tail([1.0] * n, R.tail_percentile(n))[1] >= 10


def test_counts_are_per_distinct_operation():
    # two passes over a corpus of three operations; operation 1 fails once
    ops = [W.Op(i, i, "s", "conj-all", ("conj-all",), "conjugate") for i in range(3)]
    setup = R.Setup(ops, frozenset({0}), "d", 3, [], 0.0)

    def outcome(i, seconds, kind=None):
        return R.Outcome(ops[i], 0, "", "", seconds, kind, None)

    runs = [outcome(0, 1.0), outcome(1, 2.0, "wrong_verdict"), outcome(2, 3.0),
            outcome(0, 3.0), outcome(1, 4.0), outcome(2, 5.0), outcome(0, 2.0)]
    distinct = R.per_operation(runs)
    assert [(o.op.index, o.kind, t) for o, t in distinct] == [
        (0, None, 2.0), (1, "wrong_verdict", 3.0), (2, None, 4.0)]
    counts = R._accounting(setup, [o for o, _ in distinct])
    assert (counts["attempted"], counts["failed"], counts["correct"]) == (3, 1, False)


def test_compare_refuses_different_digests(tmp_path):
    def result(name, digest, ops_per_s, correct=True, failed=()):
        path = tmp_path / name
        path.write_text(json.dumps({"workload": "ideal-side", "trace": 0, "digest": digest,
                                    "correct": correct, "attempted_ids": ["0/a", "1/b"],
                                    "failed_ids": list(failed),
                                    "metrics": {"ops_per_s": ops_per_s}}))
        return str(path)

    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + ["--base", result("a", "d1", 10.0),
                                     "--new", result("b", "d1", 9.9)], capture_output=True)
    assert same.returncode == 0
    slower = subprocess.run(compare + ["--base", result("a", "d1", 10.0),
                                       "--new", result("c", "d1", 5.0)], capture_output=True)
    assert slower.returncode == 1
    other = subprocess.run(compare + ["--base", result("a", "d1", 10.0),
                                      "--new", result("d", "d2", 10.0)], capture_output=True)
    assert other.returncode == 2 and b"digests differ" in other.stderr
    # failing sooner is not a speed-up
    failing = subprocess.run(compare + ["--base", result("a", "d1", 10.0),
                                        "--new", result("e", "d1", 20.0, failed=["1/b"])],
                             capture_output=True)
    assert failing.returncode == 1 and b"did not fail on the base side" in failing.stdout
    incorrect = subprocess.run(compare + ["--base", result("a", "d1", 10.0),
                                          "--new", result("f", "d1", 10.0, correct=False)],
                               capture_output=True)
    assert incorrect.returncode == 1 and b"not correct" in incorrect.stdout
    same_failures = subprocess.run(compare + ["--base", result("g", "d1", 10.0, failed=["1/b"]),
                                              "--new", result("h", "d1", 10.0, failed=["1/b"])],
                                   capture_output=True)
    assert same_failures.returncode == 0


def _traced_counts(tmp_path, f):
    """Per-span summary of one conj-all --cross-check on a unimodular pair."""
    a, b = C.unimodular_pair(f, random.Random(1), (1, 12))
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    R._write_matrix(pa, a)
    R._write_matrix(pb, b)
    R._import_main()
    tracer = T.Tracer()
    tracer.install()
    try:
        main = sys.modules["localconj.cli"].main
        with redirect_stdout(io.StringIO()) as out:
            rc = main(["conj-all", str(pa), str(pb), "--cross-check"])
    finally:
        tracer.uninstall()
    assert rc == 0 and json.loads(out.getvalue())["cross_check"]["agrees"]
    assert T.wrapped_leftovers() == []
    return tracer.summary()


def test_traced_counts_match_roadmap(tmp_path):
    # t^5-2: two screened primes (2, 5); six irreducibility tests per command
    summary = _traced_counts(tmp_path, (-2, 0, 0, 0, 0, 1))
    assert summary["polyfield.is_irreducible"]["calls"] == 6
    assert summary["intmat.snf"]["calls"] >= 8
    metrics = T.layer_metrics(summary, 1)
    assert metrics["intmat.snf.calls"] == summary["intmat.snf"]["calls"]
    assert summary["cli.main"]["calls"] == 1
    assert metrics["cli.self_s"] > 0 and metrics["conjugacy.verify_cert.total_s"] > 0
