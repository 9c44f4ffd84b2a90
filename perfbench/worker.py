"""One pass of one workload in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``PYTHONHASHSEED`` set from the workload seed.  The pass
imports ``superjet``, installs the tracer for its mode, loads the catalog
entries the workload uses (set-up), runs every operation through the
workload's gate (the timed phase) and prints one JSON line with timings,
answers' digest and, when traced, the span data.

An untraced pass also samples the calibration kernel (``calibrate.py``)
before, during and after the operations, and rescales every operation
by the CPU speed measured while it ran.  The time spent in the samples
is cut out of every timing.

Modes: ``plain`` (untraced), ``layers`` (every layer but algebra traced),
``algebra`` (only the SuperPoly dunders traced).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import calibrate


def run_pass(workload_name: str, seed: int, order: int, mode: str, selftest: bool) -> dict:
    t_start = time.monotonic()
    import superjet
    from superjet import catalog, cli  # noqa: F401 - cli is part of set-up

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(superjet.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported superjet from {superjet.__file__}, not {src}")
    t_import = time.monotonic()

    tracer = None
    if mode != "plain":
        from tracer import Tracer

        tracer = Tracer()
        if mode == "layers":
            tracer.install_layers()
        else:
            tracer.install_algebra()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload_name]
    t_traced = time.monotonic()
    entries = {cid: catalog.get(cid) for cid in wl.entries}
    ctx = wl.prepare(entries)
    labels = wl.plan(ctx, random.Random(f"{seed}/{order}"))
    t_setup = time.monotonic()

    sampler = calibrate.Sampler() if mode == "plain" else None
    if sampler:
        sampler.start()
    ops, spans, answers, failures, ansatz = [], [], {}, [], {}
    clock = time.perf_counter
    for label in labels:
        a = clock()
        log_start = len(tracer.ansatz_log) if tracer else 0
        try:
            answer = wl.run(ctx, label)
            why = wl.gate(ctx, label, answer)
        except Exception as exc:  # noqa: BLE001 - an engine error is a failed operation
            answer, why = None, f"error: {type(exc).__name__}: {exc}"
        spans.append((a, clock()))
        ops.append([label, spans[-1][1] - a])
        if why is not None:
            failures.append([label, why])
        else:
            answers[label] = answer
        if tracer is not None and len(tracer.ansatz_log) > log_start:
            ansatz[label] = tracer.ansatz_log[log_start:]
    if sampler:
        sampler.stop()
        # [work seconds, rescaled seconds] per operation
        rescaled = [calibrate.rescale(a, b, sampler.marks, wl.speed_exponent)
                    for a, b in spans]
        for op, (work, _scaled) in zip(ops, rescaled):
            op[1] = work
    wall = sum(lat for _label, lat in ops)
    t_end = time.monotonic()

    digest = hashlib.sha256()
    for label in sorted(answers):
        digest.update(f"{label}\n{wl.canonical(label, answers[label])}\n".encode())
    out = {
        "mode": mode,
        "setup_done": t_setup,
        "import_s": t_import - t_start,
        "wall_s": wall,
        "rescaled": [scaled for _work, scaled in rescaled] if sampler else None,
        "samples": [seconds for _t0, _t1, seconds in sampler.marks] if sampler else None,
        "traced_s": t_end - t_traced,
        "ops": ops,
        "failures": failures,
        "digest": digest.hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if selftest:
        out["gate_selftest"] = gate_selftest(wl, ctx, answers)
    if tracer is not None:
        out["spans"] = tracer.spans
        out["sizes"] = dict(tracer.sizes)
        out["ansatz"] = ansatz
    return out


def gate_selftest(wl, ctx, answers) -> list:
    """Feed the gate a perturbed copy of each answer that has one.

    Returns [label, rejected] rows; every row must read rejected = True.
    """
    rows = []
    for label in sorted(answers):
        bad = wl.perturb(ctx, label, answers[label])
        if bad is not None:
            rows.append([label, wl.gate(ctx, label, bad) is not None])
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--order", type=int, default=0,
                    help="which of the seed's operation orders to run")
    ap.add_argument("--mode", choices=("plain", "layers", "algebra"), default="plain")
    ap.add_argument("--selftest", action="store_true",
                    help="also check that the gate rejects perturbed answers")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.order, args.mode, args.selftest)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
