"""Span tracing of localconj from outside the package.

``Tracer.install`` wraps the public functions of every traced module, plus a
few named methods, in every ``localconj.*`` namespace that binds them.  The
package imports with ``from .x import y`` and resolves globals at call time,
so calls inside a module are caught as well.  Spans stay in memory as flat
arrays (name, start, end, parent span, operation id) until the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "conjugacy", "sylvester", "intmat", "polyfield", "primes", "ideals", "bridge")

# methods traced besides the modules' public functions: (module, class, method)
METHODS = (
    ("intmat", "IntMatrix", "__matmul__"),
    ("sylvester", "SylvesterOperator", "__init__"),
    ("sylvester", "SylvesterOperator", "mu"),
    ("sylvester", "SylvesterOperator", "p_profile"),
    ("sylvester", "SylvesterOperator", "solution_generators_mod"),
    ("ideals", "IdealLattice", "__init__"),
)

# metric name -> traced span name, where the two differ
ALIASES = {
    "intmat.matmul": "intmat.IntMatrix.__matmul__",
    "sylvester.operator": "sylvester.SylvesterOperator.__init__",
    "ideals.lattice": "ideals.IdealLattice.__init__",
}

_MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = [-1]
        self.op = -1
        self.patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_op.append(tracer.op)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        """Wrap every traced callable in every localconj namespace binding it."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"localconj.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"localconj.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self.patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "localconj" and not mod_name.startswith("localconj."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()
        leftover = wrapped_leftovers()
        if leftover:
            raise AssertionError(f"trace wrappers left installed: {leftover}")

    def settle(self) -> None:
        """After an operation: drop a span whose bookkeeping an interrupt
        (the per-operation time limit) cut short and close any span left
        open.  A no-op after an operation that ran to its end."""
        count = min(map(len, (self.span_name, self.span_parent, self.span_op,
                              self.span_start, self.span_end)))
        for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
            del arr[count:]
        now = time.perf_counter()
        for i in self.stack[1:]:
            if i < count and self.span_end[i] == 0.0:
                self.span_end[i] = now
        del self.stack[1:]

    # -- results --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and total seconds of outermost
        spans (a span inside another of the same name is not counted twice)."""
        count = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for i in range(count):
            nid = self.span_name[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            parent = self.span_parent[i]
            while parent >= 0 and self.span_name[parent] != nid:
                parent = self.span_parent[parent]
            if parent < 0:
                rec["total_s"] += dur[i]
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines: name start end parent op."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                    f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )


def wrapped_leftovers() -> list[str]:
    """Names in localconj namespaces that still hold a trace wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "localconj" and not mod_name.startswith("localconj."):
            continue
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod_name}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod_name:
                for meth, fn in vars(obj).items():
                    if getattr(fn, _MARK, False):
                        found.append(f"{mod_name}.{attr}.{meth}")
    return found


def layer_metrics(summary: dict[str, dict[str, float]], ops: int) -> dict[str, float]:
    """The per-layer metrics, each per operation."""

    def get(name: str, field: str) -> float:
        return summary.get(ALIASES.get(name, name), {}).get(field, 0.0) / ops

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            rec["self_s"] for name, rec in summary.items() if name.split(".")[0] == layer
        ) / ops
    for metric in PER_OP_METRICS:
        name, _, field = metric.rpartition(".")
        out[metric] = get(name, field)
    return out


PER_OP_METRICS = (
    "intmat.snf.calls",
    "intmat.snf.self_s",
    "intmat.det.calls",
    "intmat.det.self_s",
    "intmat.matmul.calls",
    "intmat.matmul.self_s",
    "intmat.kernel_mod.calls",
    "intmat.kernel_basis_Z.calls",
    "sylvester.operator.calls",
    "sylvester.lift_kernel.calls",
    "conjugacy.verify_cert.calls",
    "conjugacy.verify_cert.total_s",
    "conjugacy.screen_primes.calls",
    "polyfield.is_irreducible.calls",
    "polyfield.is_irreducible.self_s",
    "polyfield.charpoly.calls",
    "polyfield.discriminant.calls",
    "primes.factorize.calls",
    "primes.factorize.self_s",
    "primes.prime_power_split.self_s",
    "ideals.quotient.calls",
    "ideals.quotient.self_s",
    "ideals.lattice.calls",
    "ideals.lattice.self_s",
    "bridge.eigenvector.calls",
    "bridge.eigenvector.self_s",
    "cli.verify_report.total_s",
)


def unit_of(metric: str) -> str:
    return "1/op" if metric.endswith(".calls") else "s/op"
