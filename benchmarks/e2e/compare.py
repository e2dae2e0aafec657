"""Compare two recorded run sets metric by metric.

For each end-to-end metric of ``BENCHMARK.json`` on each workload, both
sides' median and quartiles, and a verdict:

* ``unresolved`` — either side's quartile spread exceeds the metric's
  bound, and B does not read better than A on every run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least nine tenths of all (A, B) run pairs
  (ties count for neither) and the medians differ by more than A's
  quartile spread;
* ``no-worse`` — otherwise.
"""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> str:
    """Verdict for B (the change) against A (the parent); see module doc."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / abs(qa[1])
    spread_b = (qb[2] - qb[0]) / abs(qb[1])
    all_better = min(sign * x for x in b) > max(sign * x for x in a)
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    gain = sign * (qb[1] - qa[1]) / abs(qa[1])
    if gain < -bound:
        return "worse"
    wins = sum(1 for x in a for y in b if sign * y > sign * x)
    if wins >= 0.9 * len(a) * len(b) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better"
    return "no-worse"


def end_to_end_values(record: dict) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the record's untraced runs."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in record["runs"]:
        if run["trace"]:
            continue
        for name, row in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(row["value"])
    return out


def compare(a: dict, b: dict, bench: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    va, vb = end_to_end_values(a), end_to_end_values(b)
    rows = []
    workloads = sorted({w for w, _m in va} & {w for w, _m in vb})
    for workload in workloads:
        for metric in bench["end_to_end"]:
            key = (workload, metric["name"])
            if key not in va or key not in vb:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": quartiles(va[key]),
                    "b": quartiles(vb[key]),
                    "runs": (len(va[key]), len(vb[key])),
                    "bound": metric["bound"],
                    "verdict": verdict(
                        va[key], vb[key], better=metric["better"], bound=metric["bound"]
                    ),
                }
            )
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<11} {'metric':<13} {'A q1/med/q3':>28} "
        f"{'B q1/med/q3':>28} {'runs':>6} {'bound':>6}  verdict"
    ]
    for r in rows:
        a = "/".join(f"{v:.4g}" for v in r["a"])
        b = "/".join(f"{v:.4g}" for v in r["b"])
        lines.append(
            f"{r['workload']:<11} {r['metric']:<13} {a:>28} {b:>28} "
            f"{r['runs'][0]:>2}/{r['runs'][1]:<3} {r['bound']:>6.2f}  {r['verdict']}"
        )
    return "\n".join(lines)
