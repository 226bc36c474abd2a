"""The measuring side of the benchmark: one stage per fresh interpreter.

``run.py`` launches this file three ways — ``fixture`` (ground truth +
training, saved as an artifact), ``probe`` (one timed cold start) and
``workload`` (warm-up, measured passes, metrics) — each with the BLAS thread
pins already in the environment.  The last line of standard output is one
JSON object.  Guarded by ``__main__`` because the two-worker fleet spawns
children that re-import this file.
"""

import time

T0 = time.perf_counter()  # a cold start is timed from the child's first line

import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys

from perfbench import spec as bench  # plain data: costs the cold start nothing

#: The run is never cut short before this many passes, and stops early only
#: once it has used this multiple of ``--seconds`` (a machine or commit far
#: slower than the defining run must still finish inside the driver's cap).
MIN_PASSES = 2
OVERRUN = 1.6
#: ``calibrate()`` on the defining machine in its fast state.  The end-to-end
#: time metrics are reported at this speed: measured time divided by (the
#: median of the run's interleaved calibration samples / this).  The box
#: flips between a fast and a 30-45% slower state for minutes at a time, which
#: no statistic taken inside a 15 s run can see past.
CALIB_REF_MS = 230.0
#: Calibration samples a run collects at the least, spread over its passes.
CALIB_SAMPLES = 8


# -------------------------------------------------------------------- fixture
def fixture(config):
    from perfbench.workloads import build_fixture

    return build_fixture(config["case"], config["artifact"])


# ---------------------------------------------------------------------- probe
def probe(config):
    """What every restart pays: import, case, artifact, fleet, first answer."""
    from perfbench import workloads

    imported = time.perf_counter()
    workload = bench.resolve(config["workload"], config["toy"])
    deployment = workloads.Deployment(workload, config["artifact"])
    first = workloads.make_requests(workload, deployment.case, config["seed"])[0]
    t0 = time.perf_counter()
    answers = deployment.run_pass([workloads.ScenarioSet(first.case_name, first.scenarios[:1], n_bus=first.n_bus)])
    done = time.perf_counter()
    # Outside the cold start: the model build on its own, for the layer table.
    from repro.opf import OPFModel

    OPFModel(deployment.case)
    built = time.perf_counter()
    deployment.close()
    stages = deployment.stage_seconds
    return {
        "failed": workloads.check_answers(answers)[1],
        "setup_s": done - T0,
        "repro.import_ms": 1e3 * (imported - T0),
        "grid.get_case_ms": 1e3 * stages["get_case"],
        "engine.load_artifact_ms": 1e3 * stages["load_artifact"],
        "parallel.spawn_s": stages["fleet_start"] + done - t0,
        "opf.model_build_ms": 1e3 * (built - done),
    }


# ------------------------------------------------------------------- workload
def calibrate() -> float:
    """Milliseconds for a fixed mix of sparse LU, dense matmul and a pure
    Python loop (about 0.3 s on the defining machine).  Two outputs whose
    ``machine.calib_ms`` differ are not comparable."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    rng = np.random.default_rng(0)
    n = 20_000
    bands = [rng.random(n - abs(k)) for k in (-40, -1, 1, 40)]
    matrix = sp.diags([*bands, np.full(n, 8.0)], [-40, -1, 1, 40, 0], format="csc")
    rhs, dense = rng.random(n), rng.random((256, 256))
    t0 = time.perf_counter()
    for _ in range(2):
        splu(matrix).solve(rhs)
    for _ in range(120):
        dense = dense @ dense
        dense /= np.abs(dense).max()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return 1e3 * (time.perf_counter() - t0)


def blas_threads():
    """Thread count OpenBLAS reports for this process (None when it cannot be asked)."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    return int(getter())
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def workload(config):
    """Warm-up, then P identical passes over one seeded request list.

    Every time is a median over the P repetitions, and the end-to-end ones are
    divided by the median of calibration samples taken between the passes.
    Measured on traces of one identical pass repeated for minutes (windows of
    4-6 passes as "runs"): median pass / median calibration spread 4-8%
    where the raw median spread 8-20%; fastest pass / fastest sample did as
    well in calm spells and worse (7-10%) across a change of state, and any
    mixed pairing was worse than either.
    """
    from perfbench import tracing, workloads
    from perfbench.workloads import cpu_seconds

    spec = bench.resolve(config["workload"], config["toy"])
    trace = bool(config["trace"])
    tracer = tracing.Tracer() if trace else None
    deployment = workloads.Deployment(spec, config["artifact"], tracer)
    requests = workloads.make_requests(spec, deployment.case, config["seed"])

    # ``--seconds`` scales the pass count; the work of one pass never changes.
    planned = max(MIN_PASSES, round(spec.passes * config["seconds"] / config["run_seconds"]))
    if trace:  # every pass runs twice, direct and staged
        planned = max(MIN_PASSES, planned // 2)
    deployment.run_pass(requests)  # warm-up, discarded
    stats_before = deployment.server_stats()
    per_gap = 1 if config["toy"] else -(-CALIB_SAMPLES // (planned + 1))
    calib = []

    direct, staged = [], []  # per pass: (wall, cpu, answers)
    started = time.perf_counter()
    for index in range(planned):
        if index >= MIN_PASSES and time.perf_counter() - started > OVERRUN * config["seconds"]:
            break
        calib += [calibrate() for _ in range(per_gap)]
        # Alternate which of the pair goes first, so neither always runs on
        # the caches the other left.
        for traced in ([False] if not trace else [False, True] if index % 2 else [True, False]):
            gc.collect()
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            answers = deployment.run_pass(requests, traced, tag=f"p{index}")
            wall = time.perf_counter() - t0
            (staged if traced else direct).append((wall, cpu_seconds() - cpu0, answers))
    stats_after = deployment.server_stats()
    served = {k: v - stats_before[k] for k, v in stats_after.items()}  # counters over the measured passes
    calib += [calibrate() for _ in range(per_gap)]
    calib_ms = statistics.median(calib)
    speed = calib_ms / CALIB_REF_MS
    machine = {**fingerprint(), "calib_ms": calib_ms, "calib_samples": calib, "speed": speed}

    # Identical passes must give identical answers, staged or direct: ids,
    # success, iterations and objective bitwise (the repo's parity invariant).
    repeatable = all(workloads.same_outcomes(direct[0][2], answers) for _, _, answers in direct[1:] + staged)
    attempted, failed, outcomes = workloads.check_answers([a for _, _, answers in direct for a in answers])
    gaps, ref_seconds = workloads.reference_gaps(deployment, direct[0][2], spec.ref_sample)
    failed += sum(bool(g > bench.OBJECTIVE_RTOL) for g in gaps)
    deployment.close()
    converged = [o for o in outcomes if o.converged]
    per_pass = attempted / len(direct)
    # Each request's typical latency: the median over its P repetitions.
    typical = [
        statistics.median(answers[i].seconds for _, _, answers in direct) for i in range(len(requests))
    ]
    if spec.kind == "async":  # requests overlap, so only a whole pass can be timed
        wall = statistics.median(w for w, _, _ in direct)
        cpu = statistics.median(c for _, c, _ in direct)
    else:
        # One client: a pass is its requests end to end.  The median request
        # stands for all of them, so that one solve stalling at the iteration
        # cap (one in a few hundred does, whatever the seed) cannot decide
        # whether this seed's pass is 30% slower than the next seed's.
        typical_cpu = [
            statistics.median(answers[i].cpu_seconds for _, _, answers in direct)
            for i in range(len(requests))
        ]
        wall = len(requests) * statistics.median(typical)
        cpu = len(requests) * statistics.median(typical_cpu)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # largest reaped worker
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "passes": len(direct),
        "requests_per_pass": len(requests),
        "pass_seconds": [wall for wall, _, _ in direct],
        "machine": machine,
        "end_to_end": {
            "scen_per_s": len(converged) / len(direct) / wall * speed,
            "req_ms_p50": 1e3 * statistics.median(typical) / speed,
            "cpu_s_per_scen": cpu / per_pass / speed,
            # Iterations to converge; a stalled solve moves converged_frac instead.
            "iters_per_scen": sum(o.final_iterations for o in converged) / max(1, len(converged)),
            "converged_frac": len(converged) / attempted,
            "peak_rss_mb": rss / 1024.0,
        },
    }
    if trace:
        selfs = tracing.waterfall(tracer.spans)
        result.update(waterfall=selfs, spans=tracer.spans)
        result["per_layer"] = {
            **layer_metrics(spec, direct, staged, tracer.spans, selfs, outcomes, typical),
            "opf.solve_opf_ms": 1e3 * statistics.median(ref_seconds or [0.0]),
            "opf.obj_relgap_max": max(gaps, default=0.0),
            "serving.flushes": served["flushes"] / len(direct),
            "serving.flush_width_mean": served["served_scenarios"] / max(1, served["flushes"]),
            "serving.widest_flush": stats_after["widest_flush"],  # a running maximum, not a counter
            "serving.rejected_requests": served["rejected_requests"],
            "machine.calib_ms": calib_ms,
        }
    return result


def layer_metrics(spec, direct, staged, spans, selfs, outcomes, typical):
    """Per-layer numbers from public result fields (``outcomes``, direct
    passes) and from the spans of the staged passes."""
    import numpy as np

    from perfbench.tracing import MIPS_PHASES, solver_seconds, unattributed_frac

    n = max(1, len(outcomes))
    n_staged = sum(len(a.request) for _, _, answers in staged for a in answers)
    latencies = [a.seconds for _, _, answers in direct for a in answers]

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name] or [0.0]

    phases = solver_seconds(outcomes)
    solver_s = sum(phases.values())
    phases.pop("other")
    per_worker = {}
    for o in outcomes:
        per_worker[o.worker] = per_worker.get(o.worker, 0.0) + o.solve_seconds + o.fallback_seconds
    mips_self = sum(v for k, v in selfs.items() if k.startswith("mips."))
    fleet_self = selfs.get("parallel.fleet_solve", 0.0)

    # What engine.serve adds on top of its stages.  Only the synchronous warm
    # workload calls it directly, so only there can the direct call be set
    # against the staged stages of the same request (median repetition of
    # each); behind the server the flush span's own time stands in.
    stage_sum = {}
    for s in spans:
        if s["parents"] and s["name"] in ("engine.features", "mtl.predict", "mtl.warmstart", "parallel.fleet_solve"):
            stage_sum[s["parents"][0]] = stage_sum.get(s["parents"][0], 0.0) + s["end"] - s["start"]
    engine_self, serve_ms, queue_waits = [0.0], 0.0, [0.0]
    if spec.kind == "warm":
        staged_sums = {}
        for s in spans:
            if s["name"] == "request":
                staged_sums.setdefault(int(s["request"].rsplit("r", 1)[1]), []).append(stage_sum[s["id"]])
        engine_self = [typical[i] - statistics.median(sums) for i, sums in staged_sums.items()]
        serve_ms = 1e3 * statistics.median(typical)
    elif spec.kind == "async":
        flushes = [s for s in spans if s["name"] == "engine.serve"]
        engine_self = [s["end"] - s["start"] - stage_sum[s["id"]] for s in flushes]
        serve_ms = 1e3 * statistics.median(durations("engine.serve"))
        queue_waits = [
            (spans[p]["end"] - spans[p]["start"]) - (s["end"] - s["start"]) for s in flushes for p in s["parents"]
        ]
    return {
        **{f"mips.{p}_ms_per_scen": 1e3 * phases[p] / n for p in MIPS_PHASES},
        "mips.factorization_share": phases["factorization"] / max(sum(phases.values()), 1e-12),
        "mips.ms_per_iter": 1e3 * solver_s / max(1, sum(o.iterations + o.iterations_fallback for o in outcomes)),
        "mips.numeric_refactorizations_per_scen": sum(
            o.kkt_telemetry.get("numeric_refactorizations", 0) for o in outcomes) / n,
        "mips.symbolic_reuses_per_scen": sum(o.kkt_telemetry.get("symbolic_reuses", 0) for o in outcomes) / n,
        "mips.phase_share_of_wall": sum(phases.values()) / spec.n_workers / sum(w for w, _, _ in direct),
        "mtl.predict_ms_per_req": 1e3 * statistics.median(durations("mtl.predict")),
        "mtl.predict_us_per_scen": 1e6 * sum(durations("mtl.predict")) / max(1, n_staged),
        "mtl.warmstart_ms_per_req": 1e3 * statistics.median(durations("mtl.warmstart")),
        "engine.features_ms_per_req": 1e3 * statistics.median(durations("engine.features")),
        "engine.serve_ms_p50": serve_ms,
        "engine.self_ms_per_req": 1e3 * statistics.median(engine_self),
        "engine.warm_success_frac": sum(o.success for o in outcomes) / n if spec.kind != "cold" else 0.0,
        "engine.fallback_frac": sum(o.used_fallback for o in outcomes) / n,
        "parallel.fleet_solve_ms_p50": 1e3 * statistics.median(durations("parallel.fleet_solve")),
        "parallel.overhead_frac": fleet_self / max(fleet_self + mips_self, 1e-12),
        "parallel.worker_imbalance": max(per_worker.values()) / statistics.fmean(per_worker.values()),
        "parallel.retries": sum(o.retries for o in outcomes),
        "parallel.quarantined": sum(o.quarantined for o in outcomes),
        "parallel.topologies": len({s.outage_branches for a in direct[0][2] for s in a.request}),
        "serving.queue_wait_ms_p50": 1e3 * statistics.median(queue_waits),
        "serving.req_ms_p95": 1e3 * float(np.percentile(latencies, 95)),
        "serving.req_ms_p99": 1e3 * float(np.percentile(latencies, 99)),
        "trace.overhead_frac": (
            statistics.median(w for w, _, _ in staged) / statistics.median(w for w, _, _ in direct) - 1.0
        ),
        "trace.unattributed_frac": unattributed_frac(selfs),
    }


STAGES = {"fixture": fixture, "probe": probe, "workload": workload}

if __name__ == "__main__":
    # default=float: counters summed from numpy scalars are not JSON types
    print(json.dumps(STAGES[sys.argv[1]](json.loads(sys.argv[2])), default=float))
