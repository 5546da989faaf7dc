"""Per-layer spans and work counts, recorded from outside the program.

`Tracer.install()` replaces public entry points of d0res's modules with
timing wrappers.  Modules import each other's functions by name, so each
wrapper is set on the attribute the caller looks up (for example
`d0res.report.certify`, not `d0res.verify.certify`).  Methods are wrapped
on their class.  `uninstall()` puts every original back; untraced runs never
see a wrapper.

Each span keeps its name, start, end and parent span in memory.  The layer
metrics are derived after the run: inclusive time per layer (outermost span
of a name only), self time (duration minus direct children), call counts,
and work counts computed from the call arguments, which repeat exactly
between runs because the program is deterministic.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from math import comb, log
from statistics import median
from time import perf_counter

# (module[:class], attribute, span name).  Several modules call rref_rows
# and colength_intersection_length through their own imported name.
SPANS = (
    ("d0res.cli", "parse_request", "report.parse"),
    ("d0res.cli", "emit_report", "report.emit"),
    ("d0res.report", "newton_puiseux", "branches.decompose"),
    ("d0res.report", "germ_invariants", "branches.invariants"),
    ("d0res.report", "colength_intersection_length", "branches.colength"),
    ("d0res.branches", "colength_intersection_length", "branches.colength"),
    ("d0res.branches", "implicit_equation", "branches.implicit_equation"),
    ("d0res.report", "certify", "verify.certify"),
    ("d0res.report", "pushforward_restriction_oracle", "verify.oracle"),
    ("d0res.verify", "separates_points", "verify.points"),
    ("d0res.verify", "separates_tangents", "verify.tangents"),
    ("d0res.verify", "annihilator", "modules.annihilator"),
    ("d0res.verify", "fiber_module", "modules.build"),
    ("d0res.verify", "jet_pair", "modules.build"),
    ("d0res.verify", "pad", "modules.build"),
    ("d0res.verify", "graph_skyscraper", "modules.build"),
    ("d0res.modules:FiniteModule", "__post_init__", "modules.validate"),
    ("d0res.modules:JetPair", "__post_init__", "modules.validate"),
    ("d0res.linalg:ExactMatrix", "__mul__", "linalg.matmul"),
    ("d0res.linalg", "_generic_matmul", "linalg.generic_matmul"),
    ("d0res.linalg", "rref_rows", "linalg.rref"),
    ("d0res.modules", "rref_rows", "linalg.rref"),
    ("d0res.verify", "rref_rows", "linalg.rref"),
    ("d0res.branches", "rref_rows", "linalg.rref"),
    ("d0res.linalg", "_rref_generic", "linalg.generic_rref"),
    ("d0res.linalg", "fmatmul", "kernels.fmatmul"),
    ("d0res.linalg", "frref", "kernels.frref"),
    ("d0res.series:Series", "__mul__", "series.mul"),
    ("d0res.series:Series", "invert", "series.invert"),
)

# Called too often for a span each; only counted.
COUNTED = (
    ("d0res.fields:FieldElement", "__mul__", "fields.mul_calls"),
    ("d0res.fields:FieldElement", "__rmul__", "fields.mul_calls"),
    ("d0res.fields:FieldElement", "inverse", "fields.inverse_calls"),
)

TIMED = (
    "branches.decompose", "branches.invariants", "branches.implicit_equation",
    "branches.colength", "report.parse", "report.emit", "verify.certify",
    "verify.points", "verify.tangents", "verify.oracle", "modules.annihilator",
    "modules.build", "modules.validate", "linalg.matmul", "linalg.rref",
    "linalg.generic_matmul", "linalg.generic_rref", "kernels.fmatmul",
    "kernels.frref", "series.mul", "series.invert",
)
CALLED = (
    "series.mul", "modules.annihilator", "linalg.matmul", "linalg.rref",
    "linalg.generic_matmul", "linalg.generic_rref",
)
WORK_COUNTS = (
    "fields.mul_calls", "fields.inverse_calls", "kernels.fmatmul_ops",
    "kernels.frref_ops", "series.mul_terms", "modules.eval_matrix_entries",
)
EXPONENT_GERMS = ("cusp", "node", "e6")


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span recorder; `begin_pass()` starts the per-pass accounting."""

    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.passes = []          # (first span id, work counts) per pass
        self.counts = Counter()
        self.ranked = []          # (germ, rank, certify span id)
        self.germ = None          # germ family of the request in flight
        self._stack = [-1]
        self._patches = []

    # -- recording ------------------------------------------------------------------

    def begin_pass(self):
        self.counts = Counter()
        self.passes.append((len(self.names), self.counts))

    def span(self, fn, name, hook=None, binary=None):
        """Wrap `fn` in a span; `hook(sid, args, result)` records counts.

        With `binary`, only calls whose second argument is a `binary`
        (matrix times matrix, series times series) get a span."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)

        def traced(*args, **kwargs):
            if binary is not None and not isinstance(args[1], binary):
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(sid, args, result)
            return result

        return traced

    def counter(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- work counts computed from arguments -------------------------------------------

    def _fmatmul_ops(self, sid, args, result):
        a, b = args
        self.counts["kernels.fmatmul_ops"] += len(a) * len(b) * (len(b[0]) if b else 0)

    def _frref_ops(self, sid, args, result):
        rows = args[0]
        if rows and rows[0]:
            self.counts["kernels.frref_ops"] += len(rows) * len(rows[0]) * len(result[1])

    def _series_terms(self, sid, args, result):
        n = min(args[0].trunc, args[1].trunc)
        self.counts["series.mul_terms"] += n * (n + 1) // 2

    def _eval_entries(self, sid, args, result):
        module = args[0]
        bound = args[1] if len(args) > 1 and args[1] is not None else module.dim
        monomials = comb(bound + module.ambient_dim, module.ambient_dim)
        self.counts["modules.eval_matrix_entries"] += module.dim ** 2 * monomials

    def _certify_rank(self, sid, args, result):
        self.ranked.append((self.germ, args[1], sid))

    # -- install / uninstall ------------------------------------------------------------

    def install(self):
        from d0res.linalg import ExactMatrix
        from d0res.series import Series

        hooks = {
            "kernels.fmatmul": self._fmatmul_ops,
            "kernels.frref": self._frref_ops,
            "series.mul": self._series_terms,
            "modules.annihilator": self._eval_entries,
            "verify.certify": self._certify_rank,
        }
        binary = {"linalg.matmul": ExactMatrix, "series.mul": Series}
        try:
            for path, attr, name in SPANS:
                self._patch(path, attr, lambda fn: self.span(
                    fn, name, hooks.get(name), binary.get(name)))
            for path, attr, name in COUNTED:
                self._patch(path, attr, lambda fn: self.counter(fn, name))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, path, attr, wrap):
        owner = _resolve(path)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics -----------------------------------------------------------------

    def _pass_metrics(self, first, last, counts):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        total, calls, self_time = Counter(), Counter(), Counter()
        outer_end = {}
        points_tangents_in_certify = 0.0
        for sid in range(first, last):
            name = names[sid]
            dur = ends[sid] - starts[sid]
            self_time[name] += dur
            parent = parents[sid]
            if parent >= 0:
                self_time[names[parent]] -= dur
                if (names[parent] == "verify.certify"
                        and name in ("verify.points", "verify.tangents")):
                    points_tangents_in_certify += dur
            if starts[sid] < outer_end.get(name, float("-inf")):
                continue  # nested inside a span of the same name
            outer_end[name] = ends[sid]
            total[name] += dur
            calls[name] += 1
        metrics = {f"{name}_s": total[name] for name in TIMED}
        metrics.update({f"{name}_calls": calls[name] for name in CALLED})
        metrics.update({name: counts[name] for name in WORK_COUNTS})
        # certify's own time at the verify layer: the padding-support check
        metrics["verify.padding_s"] = total["verify.certify"] - points_tangents_in_certify
        metrics["report.attempts_per_request"] = (
            calls["branches.invariants"] / calls["request"])
        return metrics, self_time

    def layer_metrics(self):
        """Median over traced passes of each per-pass layer metric, the
        rank-scaling exponents, and the median self time per span name."""
        bounds = [first for first, _ in self.passes] + [len(self.names)]
        per_pass = [self._pass_metrics(first, bounds[i + 1], counts)
                    for i, (first, counts) in enumerate(self.passes)]
        metrics = {key: median(m[key] for m, _ in per_pass) for key in per_pass[0][0]}
        names = {name for _, st in per_pass for name in st}
        self_s = {name: median(st[name] for _, st in per_pass) for name in sorted(names)}
        metrics.update(self.rank_exponents())
        return metrics, self_s

    def rank_exponents(self):
        """Least-squares slope of log certify time against log rank, per germ."""
        samples = defaultdict(list)
        for germ, rank, sid in self.ranked:
            samples[germ, rank].append(self.ends[sid] - self.starts[sid])
        out = {}
        for germ in EXPONENT_GERMS:
            points = [(log(rank), log(median(times)))
                      for (g, rank), times in sorted(samples.items()) if g == germ]
            if len(points) < 2:
                raise ValueError(f"rank exponent of {germ} needs two ranks")
            mx = sum(x for x, _ in points) / len(points)
            my = sum(y for _, y in points) / len(points)
            sxx = sum((x - mx) ** 2 for x, _ in points)
            sxy = sum((x - mx) * (y - my) for x, y in points)
            out[f"certify.rank_exponent.{germ}"] = sxy / sxx
        return out

    def write(self, path):
        """All spans as tab-separated `id parent name start_s end_s` lines,
        times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["id\tparent\tname\tstart_s\tend_s"]
        lines.extend(
            f"{sid}\t{self.parents[sid]}\t{name}\t{self.starts[sid] - t0:.9f}\t"
            f"{self.ends[sid] - t0:.9f}"
            for sid, name in enumerate(self.names))
        path.write_text("\n".join(lines) + "\n")
