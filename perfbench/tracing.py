"""In-memory spans recorded from outside ``repro``, and the staged replay.

The traced run does not instrument the program.  It makes the public calls
``engine.serve`` makes — feature matrix, batched inference, warm-start
construction, fleet solve — one at a time with a span around each, and hangs
the solver's own per-phase seconds (``ScenarioOutcome.phase_seconds``) under
the fleet span.  The caller checks that the staged sweep equals the direct
call, so the waterfall describes the real path.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

MIPS_PHASES = ("eval", "assembly", "factorization", "backsolve")
#: Spans whose self time no child span or public result field accounts for.
UNATTRIBUTED = ("request", "engine.serve", "parallel.fleet_solve")


class Tracer:
    """Append-only span store.  A span is a dict with ``id``, ``name``,
    ``start``, ``end`` (``time.perf_counter`` seconds), ``parents`` (ids; a
    coalesced flush has one parent per request riding in it) and ``request``
    (the identifier a request's spans share)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def open(self, name: str, parents: Sequence[int] = (), request: Optional[str] = None) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parents": list(parents),
                "request": request,
            }
        )
        return len(self.spans) - 1

    def close(self, span_id: int) -> dict:
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        return span

    @contextmanager
    def span(self, name: str, parents: Sequence[int] = (), request: Optional[str] = None) -> Iterator[int]:
        span_id = self.open(name, parents, request)
        try:
            yield span_id
        finally:
            self.close(span_id)

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span whose interval was measured elsewhere."""
        span_id = self.open(name, [parent], self.spans[parent]["request"])
        self.spans[span_id].update(start=start, end=end)


def staged_serve(
    engine, fleet, scenarios, n_workers: int, tracer: Tracer, parent: int, warm: bool, **solve_kwargs
):
    """``engine.serve`` (``warm``) or a cold ``fleet.solve``, one traced stage at a time."""
    from repro.mtl import warm_starts_from_predictions

    request = tracer.spans[parent]["request"]
    warm_starts = None
    if warm:
        with tracer.span("engine.features", [parent], request):
            features = scenarios.feature_matrix(engine.case.base_mva)
        with tracer.span("mtl.predict", [parent], request):
            predictions = engine.predict_physical(features)
        with tracer.span("mtl.warmstart", [parent], request):
            warm_starts = warm_starts_from_predictions(predictions, engine.opf_model)
    with tracer.span("parallel.fleet_solve", [parent], request) as fleet_span:
        sweep = fleet.solve(scenarios, warm_starts, **solve_kwargs)
    sweep.model_generation = engine.generation
    _attach_solver_phases(tracer, fleet_span, sweep, n_workers)
    return sweep


def solver_seconds(outcomes) -> Dict[str, float]:
    """Seconds the solver reports for ``outcomes``: the four MIPS phases from
    ``phase_seconds``, and ``other`` — the rest of ``solve_seconds`` +
    ``fallback_seconds`` (step length, convergence tests, abandoned first
    attempts)."""
    phases = {name: sum(o.phase_seconds.get(name, 0.0) for o in outcomes) for name in MIPS_PHASES}
    solver = sum(o.solve_seconds + o.fallback_seconds for o in outcomes)
    phases["other"] = max(0.0, solver - sum(phases.values()))
    return phases


def _attach_solver_phases(tracer: Tracer, fleet_span: int, sweep, n_workers: int) -> None:
    """Lay the solver's reported seconds end to end under the fleet span.

    With ``n_workers`` processes the sums are divided by the worker count,
    which is exact when the workers are equally busy.
    """
    span = tracer.spans[fleet_span]
    phases = solver_seconds(sweep.outcomes)
    cursor = span["start"]
    for name, seconds in phases.items():
        end = min(cursor + seconds / n_workers, span["end"])
        tracer.add(f"mips.{name}", cursor, end, fleet_span)
        cursor = end


class StagedEngine:
    """Stands in for the engine behind ``AsyncServer``: every flush is a
    staged replay under an ``engine.serve`` span of its own."""

    def __init__(self, engine, fleet, tracer: Tracer) -> None:
        self.engine = engine
        self.fleet = fleet
        self.tracer = tracer
        self.case = engine.case
        self.flush_spans: List[int] = []

    def serve(self, scenarios, n_workers: int = 1, **solve_kwargs):
        request = f"flush-{len(self.flush_spans)}"
        with self.tracer.span("engine.serve", (), request) as span_id:
            sweep = staged_serve(
                self.engine, self.fleet, scenarios, n_workers, self.tracer, span_id, True,
                **solve_kwargs,
            )
        self.flush_spans.append(span_id)
        return sweep


def link_flushes(tracer: Tracer, request_spans: Sequence[int], flush_spans: Sequence[int]) -> None:
    """Make each request a parent of the flush that carried it.

    The server renumbers scenarios inside a flush, so riders are matched by
    time: the carrying flush is the last one that both started after the
    request was submitted and ended before the request was answered.  The
    wait before it becomes a ``serving.queue_wait`` span; the hand-back after
    it stays the request's own (unattributed) time.
    """
    flushes = [tracer.spans[i] for i in flush_spans]
    for request_id in request_spans:
        request = tracer.spans[request_id]
        carried = [
            f for f in flushes if f["start"] >= request["start"] and f["end"] <= request["end"]
        ]
        if carried:
            flush = max(carried, key=lambda f: f["end"])
            flush["parents"].append(request_id)
            tracer.add("serving.queue_wait", request["start"], flush["start"], request_id)


def waterfall(spans: Sequence[dict]) -> Dict[str, float]:
    """Self seconds per span name, weighted so they sum to the summed wall of
    the root ``request`` spans.

    Self time is a span's duration minus its children's.  A flush shared by
    ``k`` requests counts ``k`` times — each rider waited for all of it —
    which is what makes the parts sum to the whole.
    """
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        for parent in span["parents"]:
            children[parent] += span["end"] - span["start"]
    weights: Dict[int, float] = {}

    def weight(span: dict) -> float:
        if span["id"] not in weights:
            weights[span["id"]] = (
                sum(weight(spans[p]) for p in span["parents"])
                if span["parents"]
                else float(span["name"] == "request")
            )
        return weights[span["id"]]

    selfs: Dict[str, float] = defaultdict(float)
    for span in spans:
        selfs[span["name"]] += weight(span) * max(
            0.0, span["end"] - span["start"] - children[span["id"]]
        )
    return dict(selfs)


def unattributed_frac(selfs: Dict[str, float]) -> float:
    total = sum(selfs.values())
    return sum(selfs.get(name, 0.0) for name in UNATTRIBUTED) / total if total else 0.0
