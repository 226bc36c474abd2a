"""Runner of the benchmark: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` (the form ``BENCHMARK.json`` names), plus ``compare``
and ``selfcheck``.

This process only orchestrates and never imports numpy.  Every number is
measured in a fresh interpreter it launches (``child.py``) with BLAS pinned
to one thread: a fixture child, cold-start probes whose median is
``setup_s``, then one child for the workload.  The last line of standard
output is the result object the contract asks for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script, sys.path[0] is perfbench/ itself
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.spec import FIXTURES, resolve  # noqa: E402
from perfbench.tracing import UNATTRIBUTED  # noqa: E402  (standard library only)

#: Unpinned, OpenBLAS starts one thread per core, burns ~1.3x CPU per wall
#: second on this 2-vCPU box and moves throughput by a third between runs.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Cold starts per invocation; ``setup_s`` is their median.
PROBES = 5
#: The contract gives one run 180 s; a stuck child must not outlive that.
CHILD_TIMEOUT_S = 150


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(stage: str, config: dict) -> dict:
    """Run one stage in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), stage, json.dumps(config)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {stage} stage exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def ensure_fixture(case: str, scratch: Path) -> Tuple[Path, dict]:
    """The trained warm-start model for ``case``, built once per checkout.

    It is this benchmark's build step: ground truth through ``generate_dataset``
    and MTL training through ``SmartPGSim.offline()``, saved with
    ``engine.save_artifact`` under ``.bench_build/`` and reused by every later
    invocation.  The file name carries the fixture size and a digest of
    ``src/``, so editing the program rebuilds it.  Never part of ``setup_s``.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    n_samples, epochs = FIXTURES[case]
    stem = f"fixture-{case}-{n_samples}x{epochs}-{digest.hexdigest()[:16]}"
    artifact, info = scratch / f"{stem}.npz", scratch / f"{stem}.json"
    if artifact.exists() and info.exists():
        return artifact, {**json.loads(info.read_text()), "cached": True}
    scratch.mkdir(parents=True, exist_ok=True)
    building = scratch / f"{stem}.building-{os.getpid()}.npz"
    seconds = child("fixture", {"case": case, "artifact": str(building)})
    os.replace(building, artifact)
    info.write_text(json.dumps(seconds))
    return artifact, {**seconds, "cached": False}


def run_once(
    contract: dict, workload: str, seed: int, seconds: float, trace: int,
    toy: bool = False, probes: int = PROBES, scratch: Optional[str] = None,
) -> dict:
    """One invocation's worth of measurement for one workload → a run record."""
    scratch_dir = Path(scratch) if scratch else ROOT / ".bench_build" / "perfbench"
    artifact, fixture = ensure_fixture(resolve(workload, toy).case, scratch_dir)
    base = {"workload": workload, "toy": toy, "seed": seed, "artifact": str(artifact)}
    cold_starts = [child("probe", base) for _ in range(probes)]
    run = child(
        "workload",
        {**base, "trace": trace, "seconds": seconds, "run_seconds": contract["run_seconds"]},
    )
    failed = int(run["failed"] + sum(p.pop("failed") for p in cold_starts))
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "toy": toy,
        "correct": bool(run["correct"] and failed == 0),
        "attempted": int(run["attempted"]) + len(cold_starts),
        "failed": failed,
        "passes": run["passes"],
        "requests_per_pass": run["requests_per_pass"],
        "pass_seconds": run["pass_seconds"],
        "machine": {**run["machine"], "git_commit": git_commit(), "seed": seed},
        "fixture": fixture,
        "end_to_end": {
            # At reference speed, like the other time metrics (see child.CALIB_REF_MS).
            "setup_s": statistics.median(p["setup_s"] for p in cold_starts) / run["machine"]["speed"],
            **run["end_to_end"],
        },
    }
    if trace:
        layers = {k: statistics.median(p[k] for p in cold_starts) for k in cold_starts[0] if k != "setup_s"}
        record["per_layer"] = {**layers, **run["per_layer"]}
        record["waterfall"] = run["waterfall"]
        record["spans"] = run["spans"]
    return record


def result_line(contract: dict, record: dict) -> str:
    """The contract's result object; refuses to print names the spec does not list."""
    family = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[family]}
    values = record[family]
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: {family} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        }
    )


def report(contract: dict, record: dict) -> None:
    """Every metric by name with its unit, the machine, and the waterfall."""
    m = record["machine"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={record['passes']} requests_per_pass={record['requests_per_pass']} "
        f"ops={record['attempted']} failed={record['failed']} correct={record['correct']}"
    )
    print(
        f"# machine: nproc={m['nproc']} cpu='{m['cpu_model']}' blas='{m['blas']}' "
        f"blas_threads={m['blas_threads']} numpy={m['numpy']} scipy={m['scipy']} "
        f"python={m['python']} commit={m['git_commit'][:12]} calib_ms={m['calib_ms']:.1f} speed={m['speed']:.3f}"
    )
    f = record["fixture"]
    print(
        f"# fixture ({'reused' if f['cached'] else 'built now'}): "
        f"generate_dataset {f['generate_dataset_s']:.1f} s, training {f['train_s']:.1f} s"
    )
    for family in ("end_to_end", "per_layer"):
        units = {x["name"]: x["unit"] for x in contract[family]}
        for name, value in record.get(family, {}).items():
            print(f"{name:<44}{value:>16.6g} {units.get(name, '?')}")
    if "waterfall" in record:
        total = sum(record["waterfall"].values()) or 1.0
        print(f"# waterfall: self time by span, share of summed request wall ({total:.3f} s)")
        for name, seconds in sorted(record["waterfall"].items(), key=lambda kv: -kv[1]):
            label = name + " (unattributed)" if name in UNATTRIBUTED else name
            print(f"#   {label:<40}{seconds:>10.4f} s {seconds / total:>8.1%}")


def append_run(path: Optional[str], record: dict) -> None:
    if path:
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")


def load_runs(path: str) -> List[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ------------------------------------------------------------------- commands
def cmd_run(args, contract: dict) -> int:
    ok = True
    for name in args.workloads:
        record = run_once(
            contract, name, args.seed, args.seconds or contract["run_seconds"], args.trace,
            toy=args.toy, probes=args.probes, scratch=args.scratch,
        )
        append_run(args.out, record)
        report(contract, record)
        print(result_line(contract, record))
        ok = ok and record["correct"]
    return 0 if ok else 1


def cmd_compare(args, contract: dict) -> int:
    base = load_runs(args.files[0])
    status = 0
    for path in args.files[1:]:
        lines, flagged = stats.compare(base, load_runs(path), contract)
        print(f"== base {args.files[0]}  vs  {path}")
        print("\n".join(lines))
        status = status or int(any(v.startswith("worse") for _, _, v in flagged))
    return status


def cmd_selfcheck(args, contract: dict) -> int:
    """Two sets of runs of this commit must agree within the benchmark's own bounds."""
    seconds = args.seconds or contract["run_seconds"]
    sets: List[List[dict]] = []
    for offset in (0, 0 if args.same_seeds else args.runs):
        runs = []
        for name in args.workloads:
            for seed in range(1 + offset, 1 + offset + args.runs):
                runs.append(run_once(contract, name, seed, seconds, 0, toy=args.toy, scratch=args.scratch))
                append_run(args.out and f"{args.out}.{len(sets)}", runs[-1])
                print(f"# set {len(sets)} {name} seed {seed}: " + " ".join(
                    f"{k}={v:.5g}" for k, v in runs[-1]["end_to_end"].items()), flush=True)
        sets.append(runs)
    lines, flagged = stats.compare(sets[0], sets[1], contract)
    print("\n".join(lines))
    problems = [f"{w} {m}: {v}" for w, m, v in flagged]
    problems += [
        f"{r['workload']} seed {r['seed']}: failed={r['failed']} correct={r['correct']}"
        for runs in sets for r in runs if not r["correct"]
    ]
    if args.same_seeds:
        for a, b in zip(*sets):
            for key in ("attempted", "failed"):
                if a[key] != b[key]:
                    problems.append(f"{a['workload']} seed {a['seed']}: {key} {a[key]} != {b[key]}")
            for key in ("iters_per_scen", "converged_frac"):
                if a["end_to_end"][key] != b["end_to_end"][key]:
                    problems.append(f"{a['workload']} seed {a['seed']}: {key} does not repeat exactly")
    for problem in problems:
        print("SELFCHECK FAIL:", problem)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv.pop(0) if argv and argv[0] in ("run", "compare", "selfcheck") else "run"
    parser = argparse.ArgumentParser(prog=f"perfbench {command}", description=__doc__)
    if command == "compare":
        parser.add_argument("files", nargs="+", help="run files written with --out; the first is the base")
    else:
        parser.add_argument("--workload", help="one workload (default: all)")
        parser.add_argument("--seconds", type=float, help="length of the measured phase (default: run_seconds)")
        parser.add_argument("--toy", action="store_true", help="smoke-test scale on case9")
        parser.add_argument("--scratch", help="where the fixture is kept (default: .bench_build/perfbench/)")
        parser.add_argument("--out", help="append each run record (JSON lines) to this file")
    if command == "run":
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
        parser.add_argument("--probes", type=int, default=PROBES, help="cold starts per invocation")
    if command == "selfcheck":
        parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per set and workload")
        parser.add_argument("--same-seeds", action="store_true",
                            help="reuse the seeds in both sets and require the counters to repeat exactly")
    args = parser.parse_args(argv)
    contract = load_contract()
    if command != "compare":
        known = [w["name"] for w in contract["workloads"]]
        if args.workload and args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}")
        args.workloads = [args.workload] if args.workload else known
    os.environ.update(PINS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return {"run": cmd_run, "compare": cmd_compare, "selfcheck": cmd_selfcheck}[command](args, contract)


if __name__ == "__main__":
    sys.exit(main())
