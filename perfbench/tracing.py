"""Per-layer tracing installed from outside the package.

``install`` rebinds the public names the CLI resolves at call time (the
``qbruhat`` namespace that ``build_context`` reads, the names ``qbruhat.cli``
imported, ``qbruhat.degree.segment_energy``, ``qbruhat.qls.sigma_candidates``
and methods of ``PQBG`` and ``AffineOracle``) with wrappers that record spans
and counters.  Nothing in the package changes.

A span is ``(name, start, end, parent, run_id)``; spans stay in memory and are
written out once, after the pass.  A span's self time is its duration minus
the durations of its direct children.  The hot methods (``raising_steps``,
``sigma_path``, ``segment_energy``) only bump counters, to keep the overhead
low.  The pipeline is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# Per-layer metrics, in report order, with their units.
PER_LAYER_UNITS = {
    "cartan.build_s": "s",
    "weyl.enumerate_group_s": "s",
    "weyl.group_order": "count",
    "weyl.coset_system_s": "s",
    "qbg.build_s": "s",
    "qbg.vertices": "count",
    "qbg.edges": "count",
    "qbg.sigma_distances_calls": "count",
    "qbg.sigma_distances_s": "s",
    "qbg.sigma_path_calls": "count",
    "qls.enumerate_hat_s": "s",
    "qls.enumerate_tilde_s": "s",
    "qls.paths": "count",
    "qls.sigma_candidates": "count",
    "degree.table_s": "s",
    "degree.segment_energy_calls": "count",
    "degree.segment_miss_ratio": "ratio",
    "degree.lift_s": "s",
    "degree.degree_s": "s",
    "affine_oracle.init_s": "s",
    "affine_oracle.covers_s": "s",
    "affine_oracle.covers_checked": "count",
    "affine_oracle.certify_s": "s",
    "affine_oracle.raising_steps_calls": "count",
    "affine_oracle.settled_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# span name -> metric holding its self time
_SELF_TIME = {
    "cartan.build": "cartan.build_s",
    "weyl.enumerate_group": "weyl.enumerate_group_s",
    "weyl.coset_system": "weyl.coset_system_s",
    "qbg.build": "qbg.build_s",
    "qbg.sigma_distances": "qbg.sigma_distances_s",
    "qls.enumerate_hat": "qls.enumerate_hat_s",
    "qls.enumerate_tilde": "qls.enumerate_tilde_s",
    "degree.table": "degree.table_s",
    "degree.lift": "degree.lift_s",
    "degree.degree": "degree.degree_s",
    "affine_oracle.init": "affine_oracle.init_s",
    "affine_oracle.covers": "affine_oracle.covers_s",
    "affine_oracle.certify": "affine_oracle.certify_s",
    "cli.main": "cli.self_s",
}


def _internal_times(paths) -> int:
    return sum(len(p.directions) - 1 for p in paths)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, fn, span=None, count=None, after=None):
        """Wrap ``fn``: record a span named ``span`` and/or bump the counter ``count``.

        ``after(args, result)`` updates counters when the call returns.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        if span is None:
            # counter only: this sits on the hot methods, so keep it short

            def wrapper(*args, **kwargs):
                if count is not None:
                    counts[count] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (span, start, end, parent, self.run_id)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        import qbruhat
        import qbruhat.cli as cli
        import qbruhat.degree as degree_mod
        import qbruhat.qls as qls_mod
        from qbruhat.affine_oracle import AffineOracle
        from qbruhat.qbg import PQBG

        c = self.counts

        def group_done(args, group):
            c["weyl.group_order"] += len(group)

        def graph_done(args, g):
            c["qbg.vertices"] += g.num_vertices
            c["qbg.edges"] += len(g.edges)

        def paths_done(args, paths):
            c["qls.paths"] += len(paths)

        def candidates_done(args, candidates):
            c["qls.sigma_candidates"] += len(candidates)

        def table_done(args, rows):
            c["degree.internal_times"] += _internal_times(args[2])

        def one_path_done(args, result):
            c["degree.internal_times"] += _internal_times(args[:1])

        def covers_done(args, report):
            leaving = sum(1 for s in report.inconclusive if s.startswith("edge lift"))
            c["affine_oracle.covers_checked"] += report.covers_checked
            c["oracle.settled"] += report.covers_checked + report.edges_checked - leaving
            c["oracle.inconclusive"] += len(report.inconclusive)

        def certify_done(args, ok):
            c["oracle.paths_settled"] += 1

        w = self.wrap
        qbruhat.build_root_system = w(qbruhat.build_root_system, span="cartan.build")
        qbruhat.compute_shape = w(qbruhat.compute_shape, span="cartan.build")
        qbruhat.enumerate_group = w(qbruhat.enumerate_group, span="weyl.enumerate_group", after=group_done)
        qbruhat.coset_system = w(qbruhat.coset_system, span="weyl.coset_system")
        qbruhat.build_pqbg = w(qbruhat.build_pqbg, span="qbg.build", after=graph_done)
        cli.main = w(cli.main, span="cli.main")
        cli.enumerate_hat = w(cli.enumerate_hat, span="qls.enumerate_hat", after=paths_done)
        cli.enumerate_tilde = w(cli.enumerate_tilde, span="qls.enumerate_tilde", after=paths_done)
        cli.degree_table = w(cli.degree_table, span="degree.table", after=table_done)
        cli.lift = w(cli.lift, span="degree.lift", after=one_path_done)
        cli.degree = w(cli.degree, span="degree.degree", after=one_path_done)
        qls_mod.sigma_candidates = w(qls_mod.sigma_candidates, after=candidates_done)
        degree_mod.segment_energy = w(degree_mod.segment_energy, count="degree.segment_energy_calls")
        PQBG.sigma_distances_from = w(
            PQBG.sigma_distances_from, span="qbg.sigma_distances", count="qbg.sigma_distances_calls"
        )
        PQBG.sigma_path = w(PQBG.sigma_path, count="qbg.sigma_path_calls")
        AffineOracle.__init__ = w(AffineOracle.__init__, span="affine_oracle.init")
        AffineOracle.covers_to_edges = w(AffineOracle.covers_to_edges, span="affine_oracle.covers", after=covers_done)
        AffineOracle.verify_ls_path = w(
            AffineOracle.verify_ls_path, span="affine_oracle.certify", count="oracle.paths_attempted", after=certify_done
        )
        AffineOracle.raising_steps = w(AffineOracle.raising_steps, count="affine_oracle.raising_steps_calls")

    def self_times(self) -> Counter:
        out: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, _ in spans:
            out[name] += end - start
            if parent is not None:
                out[spans[parent][0]] -= end - start
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``, which needs an untraced run."""
        c = self.counts
        out = {m: float(c[m]) for m in PER_LAYER_UNITS if m != "trace.overhead_ratio"}
        for name, t in self.self_times().items():
            if name in _SELF_TIME:
                out[_SELF_TIME[name]] = t
        out["degree.segment_miss_ratio"] = _ratio(c["degree.segment_energy_calls"], c["degree.internal_times"])
        settled = c["oracle.settled"] + c["oracle.paths_settled"]
        inconclusive = c["oracle.inconclusive"] + c["oracle.paths_attempted"] - c["oracle.paths_settled"]
        out["affine_oracle.settled_ratio"] = _ratio(settled, settled + inconclusive)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": run_id}))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the layer did no work."""
    return num / den if den else 0.0
