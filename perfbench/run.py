"""superjet benchmark: time to verified exact answers, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload shadow-iterate --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload symmetry-scan --seed 1 --seconds 40 --trace 1

Every pass runs in a fresh interpreter (``worker.py``), one after
another: a closed loop with one client and no parallel workers, pinned
with its worker to one CPU.  With ``--trace 0`` the benchmark repeats
untraced passes for about ``--seconds`` seconds (at least three), each
in its own order of operations drawn from the seed, and reports the
end-to-end metrics as medians, each timing rescaled to a reference CPU
speed (``calibrate.py``).  With ``--trace 1`` it runs one untraced pass,
two passes with every layer traced and one pass with only the
``SuperPoly`` dunders traced, all in the seed's first order, checks that
all four give the same answers and that the two layer passes repeat
their counts exactly, and reports the per-layer metrics.

The full record (provenance, per-pass data, every metric) is written to
``perfbench/results/``; the last line of standard output is the JSON
summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
DEADLINE_S = 170.0  # every run must end within 180 s
ANSATZ_BASELINE = {"seed_x/1": [12, 6], "seed_x/2": [60, 36], "seed_x/3": [231, 150]}


class PassError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float, selftest=False,
          order=0) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--order", str(order), "--mode", mode]
    if selftest:
        cmd.append("--selftest")
    path = [str(ROOT / "src")]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32), PYTHONPATH=os.pathsep.join(path))
    spawn_sample = calibrate.spawn_sample() if mode == "plain" else None
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise PassError(
            f"{mode} pass of {workload} exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is system-wide on Linux, so the worker's stamp is comparable
    record["setup_s"] = record["setup_done"] - t_spawn
    record["spawn_sample"] = spawn_sample
    record["pass_s"] = time.monotonic() - t_spawn
    return record


def plain_run(workload: str, seed: int, seconds: float, start: float) -> list:
    """Untraced passes until the next one would overrun --seconds."""
    passes = []
    while True:
        # each pass runs its own order, so that a pause (say, a garbage
        # collection) does not hit the same operation in every pass
        passes.append(spawn(workload, seed, "plain", start + DEADLINE_S, order=len(passes)))
        elapsed = time.monotonic() - start
        longest = max(p["pass_s"] for p in passes)
        if elapsed + longest > DEADLINE_S - 5:
            break
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            break
    return passes


def middle_mean(values, share=0.2) -> float:
    """The mean of the middle ``share`` of the sorted values.

    An estimate of the median.  The operations of a workload fall into
    groups of similar cost with gaps between them (empty and non-empty
    searches, shadow steps 1, 2 and 3), and the plain sample median jumps
    across such a gap when a single operation is paused, say by a garbage
    collection; the mean of the middle fifth moves only by that
    operation's share.
    """
    values = sorted(values)
    n = len(values)
    lo = int(n * (0.5 - share / 2))
    hi = max(lo + 1, math.ceil(n * (0.5 + share / 2)))
    return statistics.fmean(values[lo:hi])


def end_to_end(passes: list) -> dict:
    """End-to-end metrics of untraced passes, every timing rescaled to
    the reference CPU speed (see calibrate.py)."""
    for p in passes:
        p["normalised"] = {
            "wall_s": sum(p["rescaled"]),
            "setup_s": p["setup_s"] * calibrate.SPAWN_REFERENCE_S / p["spawn_sample"],
        }
    norm = [p["normalised"] for p in passes]
    return {
        "wall_s": statistics.median(n["wall_s"] for n in norm),
        "op_p50_ms": 1000 * middle_mean(lat for p in passes for lat in p["rescaled"]),
        "setup_s": statistics.median(n["setup_s"] for n in norm),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }


def trace_checks(plain: dict, layer_passes: list, algebra_pass: dict) -> list:
    """Trace hygiene; returns the problems found (empty when clean)."""
    problems = []
    digests = {p["mode"] + str(i): p["digest"]
               for i, p in enumerate([plain, *layer_passes, algebra_pass])}
    if len(set(digests.values())) != 1:
        problems.append(f"traced answers differ from untraced ones: {digests}")
    first = tracer.counts(layer_passes[0])
    for other in layer_passes[1:]:
        diff = sorted(k for k in set(first) | set(tracer.counts(other))
                      if first.get(k) != tracer.counts(other).get(k))
        if diff:
            problems.append(f"counts differ between traced passes: {diff}")
    rows = plain.get("gate_selftest", [])
    if not rows or not all(rejected for _label, rejected in rows):
        problems.append(f"gate accepted a perturbed answer: {rows}")
    return problems


def ansatz_note(layer_pass: dict) -> str:
    """Compare d_integrate ansatz sizes with the recorded seed_x baseline."""
    seen = {k: v for k, v in layer_pass["ansatz"].items() if k in ANSATZ_BASELINE}
    if not seen:
        return "not applicable"
    return "matches" if seen == ANSATZ_BASELINE else f"differs: {seen}"


def provenance(seed: int) -> dict:
    def digest(files):
        h = hashlib.sha256()
        for f in files:
            h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
        return h.hexdigest()

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "source_sha256": digest(sorted((ROOT / "src" / "superjet").glob("*.py"))),
        "definitions_sha256": digest(sorted(HERE.glob("*.py"))),
        "seed": seed,
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "superjet" / "__init__.py").is_file():
        print(f"error: no superjet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for this process and its workers: on a shared host the two
    # CPUs of the machine can run at different speeds at the same time,
    # and the calibration samples must see the speed the work sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": provenance(args.seed)}
    try:
        if args.trace:
            deadline = start + DEADLINE_S
            plain = spawn(args.workload, args.seed, "plain", deadline, selftest=True)
            layer_passes = [spawn(args.workload, args.seed, "layers", deadline) for _ in range(2)]
            algebra_pass = spawn(args.workload, args.seed, "algebra", deadline)
            passes = [plain, *layer_passes, algebra_pass]
            problems = trace_checks(plain, layer_passes, algebra_pass)
            metrics = tracer.layer_metrics(plain, layer_passes, algebra_pass)
            units = tracer.per_layer_metrics()
            record["ansatz_baseline"] = ansatz_note(layer_passes[0])
        else:
            passes = plain_run(args.workload, args.seed, args.seconds, start)
            digests = {p["digest"] for p in passes}
            problems = [] if len(digests) == 1 else [f"answers differ between passes: {digests}"]
            metrics = end_to_end(passes)
            record["unscaled"] = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "op_p50_ms": 1000 * middle_mean(lat for p in passes for _label, lat in p["ops"]),
                "setup_s": statistics.median(p["setup_s"] for p in passes),
            }
            units = {"wall_s": "s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    latencies = sorted(lat for p in passes for _label, lat in p["ops"])
    record.update({
        "passes": passes,
        "problems": problems,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "op_samples": len(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[-1],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{attempted} operations, fail_frac {len(failures)}/{attempted}")
    for label, why in failures[:10]:
        print(f"  FAILED {label}: {why}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    if args.trace:
        print(f"  d_integrate ansatz vs seed_x baseline 12/6, 60/36, 231/150: "
              f"{record['ansatz_baseline']}")
    else:
        print(f"  op latency over {len(latencies)} samples: "
              f"p50 {metrics['op_p50_ms']:.3f} ms, unscaled p90 {record['op_p90_ms']:.3f} ms")
        print("  unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in record["unscaled"].items()))
    for k, u in units.items():
        print(f"  {k} = {metrics[k]:.6g} {u}")
    print(f"  record: {out.relative_to(ROOT)}")
    summary = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
