"""One pass of a workload in a fresh interpreter; prints one JSON report line.

Usage: python3 perfbench/child.py '<spec json>'

The spec names the invocations in pass order, how long to repeat the
set-up, whether to trace and where to write the spans.  The child first times
``qbruhat.build_context`` for each invocation's shape (set-up), then runs
every invocation through ``qbruhat.cli.main`` with stdout and stderr captured
in memory (the pass).  Imports and interpreter start-up are outside both.
Set-up rounds and invocations are timed on a clock scaled to host-independent
seconds by a reference task (see ``reference.py``); the raw wall seconds are
reported beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qbruhat  # noqa: E402
import qbruhat.cli  # noqa: E402
from reference import Calibrated  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import label, shape_of  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_facts(command: str, out: str) -> dict:
    """Fingerprint fields read from one invocation's stdout."""
    if command == "qbg":
        return {"stdout_sha256": _sha256(out)}
    if command == "degree":
        rows = out.splitlines()[1:]
        hist = Counter(int(r.rsplit(",", 1)[1]) for r in rows)
        hist_text = "".join(f"{d}:{n}\n" for d, n in sorted(hist.items()))
        return {"paths": len(rows), "hist_sha256": _sha256(hist_text), "stdout_sha256": _sha256(out)}
    doc = json.loads(out)
    checks = {c["check"]: c for c in doc["checks"]}
    strong, weak = (int(x.split("=")[1]) for x in checks["strong-equals-weak"]["detail"].split())
    return {
        "paths": strong,
        "weak_paths": weak,
        "failed_checks": sorted(c["check"] for c in doc["checks"] if c["status"] == "fail"),
        "stdout_sha256": _sha256(out),
    }


def setup(invocations, min_s: float, clock: Calibrated) -> tuple[float, float, dict]:
    """Scaled and wall seconds of build_context over every invocation's shape, and each shape's graph size.

    The package keeps no state between build_context calls, so each round
    repeats the whole set-up; the first round is cold.  Rounds repeat until
    ``min_s`` of set-up has gone by, and the median round is reported, which
    steadies the workloads whose set-up takes only milliseconds.  The rounds
    are scaled together, by the ratio of the two clocks over all of them.
    """
    walls = []
    sizes = {}
    wall0, scaled0 = clock.wall, clock.scaled
    while not walls or sum(walls) < min_s:
        began = clock.elapsed()
        for argv in invocations:
            type_name, mults = shape_of(argv)
            try:
                with contextlib.redirect_stderr(io.StringIO()), clock.running():
                    ctx = qbruhat.build_context(type_name, mults)
            except Exception:
                continue  # the invocation itself reports the error
            sizes[label(argv)] = {"vertices": ctx.graph.num_vertices, "edges": len(ctx.graph.edges)}
            del ctx
        walls.append(clock.elapsed() - began)
    wall1, scaled1 = clock.read()
    round_s = statistics.median(walls)
    return round_s * (scaled1 - scaled0) / (wall1 - wall0), round_s, sizes


def run_pass(invocations, tracer: Tracer | None, clock: Calibrated) -> tuple[float, float, list[dict]]:
    wall0, scaled0 = clock.wall, clock.scaled
    records = []
    for argv in invocations:
        key = label(argv)
        if tracer is not None:
            tracer.run_id = key
        out, err = io.StringIO(), io.StringIO()
        rec = {"label": key, "error": None, "rc": None}
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with clock.running():
                    rec["rc"] = qbruhat.cli.main(list(argv))
            except Exception:
                rec["error"] = traceback.format_exc(limit=3)
        clock.read()
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(text.encode())
        if rec["error"] is None:
            try:
                rec["facts"] = output_facts(argv[0], text)
            except (ValueError, KeyError, IndexError) as exc:
                rec["error"] = f"unreadable output: {exc!r}; stderr: {err.getvalue()[-500:]}"
        records.append(rec)
    return clock.scaled - scaled0, clock.wall - wall0, records


def main() -> int:
    spec = json.loads(sys.argv[1])
    invocations = [tuple(a) for a in spec["invocations"]]
    # traced passes time the layers in wall seconds, so no points interrupt them
    clock = Calibrated(sample=not spec["trace"], calibrate=spec["calibrate"])
    setup_s, setup_wall_s, sizes = setup(invocations, spec["setup_min_s"], clock)
    gc.collect()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    run_s, run_wall_s, records = run_pass(invocations, tracer, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for rec in records:
        rec.setdefault("facts", {}).update(sizes.get(rec["label"], {}))
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "reference_s": statistics.median(clock.points),
        "invocations": records,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        if spec.get("spans_path"):
            tracer.write_spans(Path(spec["spans_path"]))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
