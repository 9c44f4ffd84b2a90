"""Compare two sets of benchmark records, metric by metric.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records that ``run.py`` writes to
``perfbench/results/``.  Records are grouped by workload and trace mode;
for each metric the script prints the median over the records of each
side, their quartile spread and the change, and for end-to-end metrics
whether the change stays within the bound in ``BENCHMARK.json``.

Records made with different benchmark definitions (``definitions_sha256``)
or run lengths are refused, as are answers whose digests differ between
the two sides: a comparison is only meaningful for the same workloads
giving the same answers.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    groups = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    records = [r for side in (base, new) for recs in side.values() for r in recs]
    if not records:
        print("error: no records found", file=sys.stderr)
        return 2
    defs = {r["provenance"]["definitions_sha256"] for r in records}
    runs = {r["seconds"] for r in records}
    if len(defs) > 1 or len(runs) > 1:
        print(f"error: records come from different benchmark definitions {sorted(defs)} "
              f"or run lengths {sorted(runs)}; refusing to compare", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        digests = {side: {p["digest"] for r in recs[key] for p in r["passes"]}
                   for side, recs in (("base", base), ("new", new))}
        if digests["base"] != digests["new"] or len(digests["base"]) != 1:
            print(f"{workload}: answers differ between the two sides {digests}")
            status = 1
            continue
        print(f"{workload} (trace {trace}): {len(base[key])} base and {len(new[key])} new records")
        names = base[key][0]["metrics"]
        for name, meta in names.items():
            b = [r["metrics"][name]["value"] for r in base[key]]
            n = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else 0.0
            line = (f"  {name:<48} {bm:>12.6g} -> {nm:<12.6g} {meta['unit']:<6} "
                    f"{change:+.1%} (spread {spread(b):.1%} / {spread(n):.1%})")
            if name in bounds and not trace:
                worse = change if bounds[name]["better"] == "lower" else -change
                ok = worse <= bounds[name]["bound"]
                line += f" bound {bounds[name]['bound']:.0%}: {'ok' if ok else 'REGRESSION'}"
                status = status or (0 if ok else 1)
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
