"""The four workloads: what they send, how they are deployed, how answers are checked.

Everything here goes through public ``repro`` names.  Deployment keywords
(``execution``, ``schedule``, ``n_workers`` ...) are passed only while the
callee's signature still accepts them (:func:`accepted`), so a later change
that deletes a knob does not have to edit the benchmark.
"""

from __future__ import annotations

import asyncio
import inspect
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.spec import FIXTURE_SEED, FIXTURES, VARIATION, Workload
from perfbench.tracing import StagedEngine, Tracer, link_flushes, staged_serve
from repro.engine import load_artifact
from repro.grid import get_case, sample_loads
from repro.opf import solve_opf
from repro.parallel import Scenario, ScenarioSet, screened_outage_sets
from repro.serving import AsyncServer, OverloadedError


def cpu_seconds() -> float:
    """User + system seconds of this process and its live workers."""
    total = time.process_time()
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def accepted(callee, **kwargs):
    """The subset of ``kwargs`` that ``callee``'s signature still accepts."""
    params = inspect.signature(callee).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return kwargs
    return {k: v for k, v in kwargs.items() if k in params}


# -------------------------------------------------------------------- fixture
def build_fixture(case_name: str, artifact: str) -> Dict[str, float]:
    """Ground truth + MTL training for ``case_name``, saved as an engine artifact.

    Seeded by a constant, never by ``--seed``: the trained model is part of
    the program under test, the requests are its input.
    """
    from repro.core import SmartPGSim, SmartPGSimConfig
    from repro.mtl import fast_config

    n_samples, epochs = FIXTURES[case_name]
    config = SmartPGSimConfig(
        n_samples=n_samples,
        load_variation=VARIATION,
        mtl=fast_config(epochs=epochs),
        seed=FIXTURE_SEED,
        **accepted(SmartPGSimConfig, execution="batch", schedule="steal"),
    )
    with SmartPGSim(get_case(case_name), config) as framework:
        artifacts = framework.offline()
        framework.engine.save_artifact(artifact)
    return {"generate_dataset_s": artifacts.dataset_seconds, "train_s": artifacts.training_seconds}


# ------------------------------------------------------------------- requests
def make_requests(workload: Workload, case, seed: int) -> List[ScenarioSet]:
    """The request list every pass of a run sends, a pure function of ``seed``.

    Scenario ids are unique across the list.
    """
    sizes = [workload.sizes[i % len(workload.sizes)] for i in range(workload.requests)]
    rng = np.random.default_rng(seed)
    # sample_loads + Scenario is what generate_scenarios does for load-only
    # sets, minus its per-call connectivity screen of every branch (1.5 s of
    # pure Python on case118s).
    scenarios = [
        Scenario(i, sample.Pd, sample.Qd)
        for i, sample in enumerate(sample_loads(case, sum(sizes), variation=VARIATION, seed=rng))
    ]
    if workload.outage_k:
        pool = outage_pool(case, workload.outage_k)
        order = rng.permutation(len(pool))
        start = 0
        for r, size in enumerate(sizes):
            # Round-robin over this request's outage sets, as
            # generate_contingency_set assigns them: same-topology scenarios
            # recur and form lockstep groups.
            for i in range(start, start + size):
                slot = r * workload.outage_sets + i % workload.outage_sets
                scenarios[i] = replace(scenarios[i], outage_branches=pool[order[slot % len(pool)]])
            start += size
    requests, start = [], 0
    for size in sizes:
        requests.append(ScenarioSet(case.name, scenarios[start : start + size], n_bus=case.n_bus))
        start += size
    return requests


#: Double outages of case118s that keep the network connected *and* leave the
#: AC-OPF solvable: a quarter of the connectivity-preserving pairs
#: ``screened_outage_sets`` enumerates are infeasible or need more than the
#: iteration cap whatever the load, and a workload must not be made of
#: operations that cannot succeed.  These 96 converged on 30 load draws each
#: (240 random pairs screened at the defining commit, 73% kept).
NK118_POOL = (
    (4, 27), (4, 39), (4, 77), (4, 143), (7, 32), (7, 127), (9, 80), (10, 36),
    (10, 37), (12, 118), (13, 137), (13, 165), (17, 155), (17, 156), (22, 57), (22, 68),
    (22, 147), (23, 93), (24, 127), (25, 37), (25, 64), (25, 69), (25, 165), (25, 182),
    (26, 127), (28, 39), (29, 168), (30, 48), (30, 176), (31, 180), (32, 73), (33, 82),
    (34, 116), (35, 123), (37, 75), (37, 76), (37, 155), (37, 156), (38, 64), (38, 177),
    (39, 143), (41, 97), (41, 130), (42, 132), (43, 109), (45, 118), (45, 182), (48, 69),
    (49, 74), (49, 97), (51, 98), (52, 123), (53, 123), (54, 95), (61, 73), (61, 94),
    (61, 169), (62, 155), (64, 168), (67, 78), (67, 151), (68, 83), (70, 75), (72, 183),
    (73, 181), (74, 137), (75, 95), (79, 164), (80, 170), (81, 143), (83, 182), (86, 161),
    (90, 98), (90, 133), (94, 133), (95, 164), (96, 165), (97, 176), (99, 143), (99, 174),
    (104, 146), (104, 179), (105, 125), (112, 131), (118, 176), (122, 141), (123, 126), (128, 138),
    (137, 176), (139, 179), (142, 182), (144, 161), (154, 161), (172, 180), (172, 184), (176, 179),
)


def outage_pool(case, k: int) -> Sequence[Tuple[int, ...]]:
    """Outage sets a screening request may draw from."""
    if (case.name, k) == ("case118s", 2):
        return NK118_POOL
    return screened_outage_sets(case, k=k)


# ----------------------------------------------------------------- deployment
@dataclass
class Answer:
    request: ScenarioSet
    seconds: float
    #: ``None`` when the server refused the request.
    sweep: Optional[object]
    #: CPU seconds (driver + workers) the request cost; 0 behind the server,
    #: where requests overlap and only the pass as a whole can be charged.
    cpu_seconds: float = 0.0


class Deployment:
    """One restart of the system as a workload uses it: case, engine loaded
    from the artifact, fleet, and for ``async`` the server and its event loop.
    ``stage_seconds`` holds what each step of the restart cost."""

    def __init__(self, workload: Workload, artifact: str, tracer: Optional[Tracer] = None) -> None:
        self.workload = workload
        self.tracer = tracer
        t0 = time.perf_counter()
        self.case = get_case(workload.case)
        t1 = time.perf_counter()
        overrides = {} if workload.kind != "cold" else {"fallback": None}
        self.engine = load_artifact(
            artifact,
            self.case,
            **accepted(load_artifact, execution="batch", schedule="steal", **overrides),
        )
        t2 = time.perf_counter()
        self.fleet = self.engine.fleet(**accepted(self.engine.fleet, n_workers=workload.n_workers))
        self.loop = self.server = self.staged_server = None
        if workload.kind == "async":
            self.loop = asyncio.new_event_loop()
            self.server = self._start_server(self.engine)
            if tracer is not None:
                self.staged_server = self._start_server(StagedEngine(self.engine, self.fleet, tracer))
        t3 = time.perf_counter()
        self.stage_seconds = {"get_case": t1 - t0, "load_artifact": t2 - t1, "fleet_start": t3 - t2}

    def _start_server(self, engine) -> AsyncServer:
        server = AsyncServer(
            engine,
            **accepted(
                AsyncServer,
                n_workers=self.workload.n_workers,
                max_batch=16,
                max_wait_seconds=0.005,
            ),
        )
        self.loop.run_until_complete(server.start())
        return server

    def close(self) -> None:
        for server in (self.server, self.staged_server):
            if server is not None:
                self.loop.run_until_complete(server.stop())
        if self.loop is not None:
            self.loop.close()
        self.engine.close()

    # ------------------------------------------------------------------ passes
    def server_stats(self) -> Dict[str, int]:
        """``ServerStats`` of the direct server as a dict (zeros without one)."""
        names = ("flushes", "served_scenarios", "widest_flush", "rejected_requests")
        return {n: getattr(self.server.stats, n, 0) if self.server else 0 for n in names}

    def run_pass(
        self, requests: Sequence[ScenarioSet], traced: bool = False, tag: str = ""
    ) -> List[Answer]:
        """Send one pass of requests; ``traced`` sends it as a staged replay."""
        tracer = self.tracer if traced else None
        if self.workload.kind == "async":
            return self.loop.run_until_complete(self._run_async(requests, tracer, tag))
        answers = []
        for i, request in enumerate(requests):
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            if tracer is None:
                sweep = self._call(request)
            else:
                with tracer.span("request", (), f"{tag}-r{i}") as root:
                    sweep = staged_serve(
                        self.engine, self.fleet, request, self.workload.n_workers, tracer, root,
                        warm=self.workload.kind == "warm",
                    )
            answers.append(Answer(request, time.perf_counter() - t0, sweep, cpu_seconds() - cpu0))
        return answers

    def _call(self, request: ScenarioSet):
        if self.workload.kind == "warm":
            return self.engine.serve(
                request, **accepted(self.engine.serve, n_workers=self.workload.n_workers)
            )
        return self.fleet.solve(request, None)

    async def _run_async(self, requests, tracer: Optional[Tracer], tag: str) -> List[Answer]:
        server = self.server if tracer is None else self.staged_server
        flushes_before = 0 if tracer is None else len(server.engine.flush_spans)
        answers: List[Optional[Answer]] = [None] * len(requests)
        roots: List[int] = []
        queue = iter(enumerate(requests))

        async def client() -> None:
            # Closed loop: the next request leaves only when the last came back.
            for i, request in queue:
                t0 = time.perf_counter()
                root = None if tracer is None else tracer.open("request", (), f"{tag}-r{i}")
                try:
                    sweep = await server.submit(request)
                except OverloadedError:
                    sweep = None
                if root is not None:
                    tracer.close(root)
                    roots.append(root)
                answers[i] = Answer(request, time.perf_counter() - t0, sweep)

        await asyncio.gather(*(client() for _ in range(self.workload.clients)))
        if tracer is not None:
            link_flushes(tracer, roots, server.engine.flush_spans[flushes_before:])
        return answers


# --------------------------------------------------------------- verification
def check_answers(answers: Sequence[Answer]) -> Tuple[int, int, list]:
    """``(attempted, failed, outcomes)`` of one pass, counted in scenarios.

    A scenario is a failed operation when its id does not come back exactly
    once, its request was refused, or its outcome is timed out or
    quarantined.  "Did not converge" is an answer, not a failure — one cold
    solve in a few hundred stalls at the iteration cap whatever the seed — and
    is gated through ``converged_frac`` instead.
    """
    attempted = failed = 0
    outcomes = []
    for answer in answers:
        wanted = {s.scenario_id for s in answer.request}
        attempted += len(wanted)
        returned: Dict[int, list] = {}
        for outcome in [] if answer.sweep is None else answer.sweep.outcomes:
            returned.setdefault(outcome.scenario_id, []).append(outcome)
        for scenario_id in wanted:
            got = returned.get(scenario_id, [])
            if len(got) == 1 and not (got[0].timed_out or got[0].quarantined):
                outcomes.append(got[0])
            else:
                failed += 1
        failed += sum(len(v) for k, v in returned.items() if k not in wanted)
    return attempted, failed, outcomes


def reference_gaps(
    deployment: Deployment, answers: Sequence[Answer], n: int
) -> Tuple[List[float], List[float]]:
    """Relative objective gaps of the first ``n`` converged scenarios against an
    untimed cold scalar ``solve_opf``, and the seconds those references took.

    A reference that itself stalls at the iteration cap (one cold solve in
    ~200 does) proves nothing either way, so the next scenario takes its place.
    """
    gaps, seconds = [], []
    for answer in answers:
        by_id = {} if answer.sweep is None else {o.scenario_id: o for o in answer.sweep.outcomes}
        for scenario in answer.request:
            outcome = by_id.get(scenario.scenario_id)
            if outcome is None or not outcome.converged:
                continue
            if len(gaps) == n:
                return gaps, seconds
            t0 = time.perf_counter()
            reference = solve_opf(scenario.apply(deployment.case), options=deployment.engine.opf_options)
            if reference.success:
                seconds.append(time.perf_counter() - t0)
                gaps.append(
                    abs(outcome.final_objective - reference.objective) / max(1.0, abs(reference.objective))
                )
    return gaps, seconds


def same_outcomes(a: Sequence[Answer], b: Sequence[Answer]) -> bool:
    """The repo's parity invariant: ids, success, iterations and objective bitwise."""

    def key(answers):
        return sorted(
            (o.scenario_id, o.success, o.used_fallback, o.final_iterations, float(o.final_objective).hex())
            for answer in answers
            if answer.sweep is not None
            for o in answer.sweep.outcomes
        )

    return key(a) == key(b)
