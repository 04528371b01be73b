"""qbruhat benchmark: CLI workloads through ``qbruhat.cli.main``, timed in fresh interpreters.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

A run is a closed loop with one client: it starts one fresh interpreter
(``child.py``) per pass, waits for it, and starts the next while that one is
expected to end within ``--seconds`` (at least ``MIN_PASSES`` passes).  Each pass times set-up and the
pass itself; every invocation's output is checked against its pinned
fingerprint.  Times are scaled by a reference task timed around and inside
each span (``reference.py``), so that the drifting speed of a shared host does not
show as a change of the program.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
(medians over passes) when ``--trace 0`` and the per-layer metrics of traced
passes when ``--trace 1``.  A failed invocation makes the exit code 1.

``--quick`` is the smoke mode, without calibration: small shapes of the four
workloads under two hash seeds and two workload seeds, with byte-identical
stdout required, one traced pass each, a check that every metric in
BENCHMARK.json is emitted with its unit, and a check that a failing
invocation is counted, not fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS
from workloads import KNOWN_FAILING, PINS, WORKLOADS, label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {"run_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 2  # untraced passes per run; traced runs need one untraced and one traced
SETUP_MIN_S = 1.0  # a pass repeats set-up for at least this long; the smoke mode sets it up once
HARD_LIMIT_S = 150  # no pass starts once this much of the run is gone
# Timed passes share one hash seed: string hashing moves dict and set layouts,
# and with them the speed of a pass, by more than the benchmark's bounds.  The
# smoke mode checks that the output does not depend on it.
TIMED_HASH_SEED = 0


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    # the verify thread pool races on shared oracle memos; keep the pipeline single-threaded
    env.pop("QBRUHAT_THREADS", None)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(
    invocations, trace: bool, hash_seed: int, timeout: float, spans_path=None, setup_min_s=SETUP_MIN_S, calibrate=True
):
    """One pass in a fresh interpreter; returns its report, or an error string."""
    spec = {
        "invocations": invocations,
        "setup_min_s": setup_min_s,
        "calibrate": calibrate,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(hash_seed),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return f"pass timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return f"pass exited with code {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return f"pass printed no report: {proc.stderr[-2000:]}"


def problems(argv, rec) -> list[str]:
    """Why one invocation failed: an escaped exception, a wrong exit code or a fingerprint miss."""
    if rec["error"] is not None:
        return [rec["error"]]
    facts = rec["facts"]
    out = []
    if argv[0] == "verify":
        # 0 = every check passed, 1 = some check inconclusive; failures are refused below
        if rec["rc"] not in (0, 1):
            out.append(f"exit code {rec['rc']}")
        if facts["failed_checks"]:
            out.append(f"failed checks {facts['failed_checks']}")
        if facts["paths"] != facts["weak_paths"]:
            out.append(f"strong={facts['paths']} weak={facts['weak_paths']}")
    elif rec["rc"] != 0:
        out.append(f"exit code {rec['rc']}")
    pin = PINS.get(label(argv))
    if not pin:
        out.append(f"no pinned fingerprint; observed {json.dumps(facts, sort_keys=True)}")
    else:
        for key, want in pin.items():
            if facts.get(key) != want:
                out.append(f"{key}: got {facts.get(key)!r}, pinned {want!r}")
    return out


def work_units(argv) -> int:
    pin = PINS.get(label(argv), {})
    if argv[0] == "qbg":
        return pin.get("vertices", 0) + pin.get("edges", 0)
    return pin.get("paths", 0)


class Run:
    """Passes of one workload, their failures and their figures."""

    def __init__(self, invocations) -> None:
        self.invocations = invocations
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []

    def add(self, order, report, traced: bool) -> None:
        self.attempted += len(order)
        if isinstance(report, str):
            self.failed += len(order)
            self.failures.extend(f"{label(a)}: {report}" for a in order)
            return
        by_label = {label(a): a for a in order}
        for rec in report["invocations"]:
            found = problems(by_label[rec["label"]], rec)
            self.failed += bool(found)
            self.failures.extend(f"{rec['label']}: {p}" for p in found)
        (self.traced if traced else self.untraced).append(report)

    def end_to_end(self) -> dict[str, list[float]]:
        work = sum(work_units(a) for a in self.invocations)
        return {
            "run_s": [r["run_s"] for r in self.untraced],
            "work_per_s": [work / r["run_s"] for r in self.untraced],
            "setup_s": [r["setup_s"] for r in self.untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.untraced],
        }

    def unscaled(self) -> dict[str, list[float]]:
        """Raw wall seconds and calibration points of the untraced passes, for the record."""
        return {k: [r[k] for r in self.untraced] for k in ("run_wall_s", "setup_wall_s", "reference_s")}

    def per_layer(self) -> dict[str, list[float]]:
        out = {m: [r["layers"][m] for r in self.traced] for m in PER_LAYER_UNITS if m != "trace.overhead_ratio"}
        if self.traced and self.untraced:
            traced_s = statistics.median(r["run_s"] for r in self.traced)
            untraced_s = statistics.median(r["run_s"] for r in self.untraced)
            out["trace.overhead_ratio"] = [traced_s / untraced_s - 1]
        return out


def measure(workload, seed: int, seconds: int, trace: bool) -> Run:
    rng = random.Random(seed)
    run = Run(workload.invocations)
    start = time.perf_counter()
    durations = []
    while True:
        traced = trace and len(durations) % 2 == 1
        order = [list(a) for a in rng.sample(workload.invocations, len(workload.invocations))]
        spans = SPAN_DIR / f"spans-{workload.name}-seed{seed}-{len(durations)}.jsonl" if traced else None
        t0 = time.perf_counter()
        run.add(order, run_child(order, traced, TIMED_HASH_SEED, timeout=170 - (t0 - start), spans_path=spans), traced)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = len(run.traced) >= 1 and len(run.untraced) >= 1 if trace else len(durations) >= MIN_PASSES
        if trace and not traced:
            continue  # pair every untraced pass with a traced one
        # a traced run goes on in pairs, so the next step is two passes long
        next_end = elapsed + statistics.mean(durations) * (2 if trace else 1)
        if (enough and next_end > seconds) or next_end > HARD_LIMIT_S:
            break
    return run


def environment(seed) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def result(run: Run, trace: bool) -> dict:
    values, units = (run.per_layer(), PER_LAYER_UNITS) if trace else (run.end_to_end(), END_TO_END_UNITS)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # a metric without samples (every pass crashed) reads 0; correct is false then
        "metrics": {m: {"value": statistics.median(values[m] or [0.0]), "unit": units[m]} for m in units},
    }


def quick() -> int:
    """Smoke mode: see the module docstring.  Returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in WORKLOADS.values():
        run = Run(workload.quick)
        stdout_hashes: dict[str, set] = {}
        # two hash seeds x two workload seeds; the second pass is traced
        for i, (hash_seed, seed) in enumerate([(1, 1), (2, 2), (1, 2), (2, 1)]):
            order = [list(a) for a in random.Random(seed).sample(workload.quick, len(workload.quick))]
            spans = SPAN_DIR / f"quick-{workload.name}.jsonl"
            report = run_child(order, i == 1, hash_seed, timeout=120, spans_path=spans, setup_min_s=0, calibrate=False)
            run.add(order, report, i == 1)
            for rec in [] if isinstance(report, str) else report["invocations"]:
                stdout_hashes.setdefault(rec["label"], set()).add(rec.get("facts", {}).get("stdout_sha256"))
        nondeterministic = sorted(k for k, v in stdout_hashes.items() if len(v) != 1)
        metrics = {**result(run, False)["metrics"], **result(run, True)["metrics"]}
        emitted = {m: v["unit"] for m, v in metrics.items()}
        unit_mismatch = sorted(set(emitted.items()) ^ set(declared.items()))
        passed = run.failed == 0 and not nondeterministic and not unit_mismatch
        ok &= passed
        print(json.dumps({
            "workload": workload.name,
            "passed": passed,
            "failures": run.failures[:5],
            "nondeterministic": nondeterministic,
            "metrics_not_matching_benchmark_json": unit_mismatch,
            "metrics": {m: v["value"] for m, v in metrics.items()},
        }))
    # the known CLI defect must count as one failed invocation and not stop the pass
    order = [KNOWN_FAILING, WORKLOADS["graph-minuscule"].quick[0]]
    survival = Run(order)
    report = run_child([list(a) for a in order], False, 1, timeout=60, setup_min_s=0, calibrate=False)
    survival.add(order, report, False)
    survived = (
        survival.failed == 1
        and len(survival.untraced) == 1
        and "GroupCapExceeded" in (report["invocations"][0]["error"] or "")
    )
    ok &= survived
    print(json.dumps({"check": "failing invocation is counted, not fatal", "passed": survived}))
    print(json.dumps({"quick": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke mode on small shapes, about 5 s")
    args = parser.parse_args()
    if not (ROOT / "src" / "qbruhat" / "__init__.py").is_file():
        print(f"error: no qbruhat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    print(json.dumps({"environment": environment(args.seed)}), flush=True)
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    values = run.per_layer() if args.trace else run.end_to_end()
    fail_ratio = run.failed / run.attempted
    print(json.dumps({
        "samples": values,
        "unscaled": run.unscaled(),
        "fail_ratio": fail_ratio,
        "failures": run.failures[:20],
    }))
    res = result(run, bool(args.trace))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
