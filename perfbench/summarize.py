"""Summarize the result files in perfbench/out/ per workload.

    python3 perfbench/summarize.py [RESULT.json ...] > summary.json

For untraced results: median and quartiles over runs of every end-to-end and
report metric.  For traced results: per-layer values and tracing overhead
(medians over runs).  Results of different source trees are not mixed: the
command fails when the files carry more than one ``src_sha256``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def _stats(values: list[float]) -> dict:
    values = [v for v in values if v == v]  # drop nan
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q[0], "q3": q[2],
            "iqr_over_median": (q[2] - q[0]) / med if med else 0.0}


def summarize(paths: list[Path]) -> dict:
    results = [json.loads(p.read_text()) for p in paths]
    digests = {r["provenance"]["src_sha256"] for r in results}
    if len(digests) > 1:
        raise SystemExit(f"results from {len(digests)} different source trees; pass files explicitly")
    out: dict = {"provenance": results[0]["provenance"] if results else None, "workloads": {}}
    for r in results:
        w = out["workloads"].setdefault(r["workload"], {"untraced": {}, "traced": {}})
        if r["trace"]:
            entry = w["traced"]
            for key in ("per_layer", "overhead"):
                for name, value in r[key].items():
                    entry.setdefault(key, {}).setdefault(name, []).append(value)
            entry.setdefault("seeds", []).append(r["seed"])
        else:
            entry = w["untraced"]
            for name, value in r["metrics"].items():
                entry.setdefault("metrics", {}).setdefault(name, []).append(value)
            for name, item in r["report"].items():
                entry.setdefault("report", {}).setdefault(name, []).append(item["value"])
            entry.setdefault("seeds", []).append(r["seed"])
            entry.setdefault("failed", []).append(r["failed"])
    for w in out["workloads"].values():
        for entry in w.values():
            for key in ("metrics", "report", "per_layer", "overhead"):
                if key in entry:
                    entry[key] = {k: _stats(v) for k, v in entry[key].items()}
    return out


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(OUT.glob("*-trace[01].json"))
    json.dump(summarize(paths), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
