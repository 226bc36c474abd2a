"""Order statistics and the comparison rule the benchmark judges itself by.

Standard library only: the orchestrator never imports numpy.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's steadiness measure)."""
    q1, q2, q3 = quartiles(values)
    return abs(q3 - q1) / abs(q2) if q2 else 0.0


def worsening(base: Sequence[float], other: Sequence[float], better: str) -> float:
    """Share of ``base``'s median by which ``other``'s median is worse (negative = better)."""
    b, o = statistics.median(base), statistics.median(other)
    if not b:
        return 0.0
    return (o - b) / abs(b) if better == "lower" else (b - o) / abs(b)


def verdict(
    base: Sequence[float], other: Sequence[float], better: str, bound: float, check_spread: bool = True
) -> str:
    """``unresolved`` when either side's own spread exceeds the bound, else
    ``worse`` / ``better`` when the medians differ by more than it, else ``ok``."""
    if check_spread and max(spread(base), spread(other)) > bound:
        return "unresolved"
    w = worsening(base, other, better)
    return "worse" if w > bound else "better" if w < -bound else "ok"


def compare(
    base_runs: List[dict], other_runs: List[dict], contract: dict
) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """Compare two sets of run records.

    Returns the printable table and the ``(workload, metric, verdict)`` rows
    that are not ``ok``/``better``.  Per-layer metrics carry no bound, so they
    are listed with medians and ratio only.
    """
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    lines = [
        f"{'workload':<16}{'metric':<40}{'base q1/med/q3':>34}{'other q1/med/q3':>34}"
        f"{'other/base':>12}  verdict"
    ]
    flagged: List[Tuple[str, str, str]] = []
    for workload in [w["name"] for w in contract["workloads"]]:
        sides = [_by_metric(runs, workload) for runs in (base_runs, other_runs)]
        for name in sorted(set(sides[0]) & set(sides[1]), key=lambda n: (n not in bounds, n)):
            base, other = sides[0][name], sides[1][name]
            b, o = quartiles(base), quartiles(other)
            ratio = f"{o[1] / b[1]:.4f}" if b[1] else "n/a"
            if name in bounds:
                # setup_s is a median of a few cold starts per run: like the
                # driver, hold it to the bound on medians only.
                v = verdict(
                    base, other, bounds[name]["better"], bounds[name]["bound"], name != "setup_s"
                )
                v += f" (bound {bounds[name]['bound']:.2f}, n={len(base)}/{len(other)})"
                if v.startswith(("worse", "unresolved")):
                    flagged.append((workload, name, v))
            else:
                v = "-"
            lines.append(
                f"{workload:<16}{name:<40}{_fmt3(b):>34}{_fmt3(o):>34}{ratio:>12}  {v}"
            )
    return lines, flagged


def _by_metric(runs: List[dict], workload: str) -> Dict[str, List[float]]:
    """End-to-end values from untraced runs only, per-layer values from traced ones."""
    out: Dict[str, List[float]] = {}
    for run in runs:
        if run["workload"] == workload:
            for name, value in run["per_layer" if run["trace"] else "end_to_end"].items():
                out.setdefault(name, []).append(value)
    return out


def _fmt3(q: Tuple[float, float, float]) -> str:
    return "/".join(f"{v:.5g}" for v in q)
