"""Training-data containers and ground-truth generation.

The offline phase of Smart-PGSim samples load scenarios, solves each of them
with the exact MIPS solver and collects the converged primal/dual variables as
supervision targets.  :func:`generate_dataset` implements that collection as
one sweep of independently drawn loads over the same pooled batch-solve path
the serving engine uses (cold starts, one persistent solver worker per
process) and :class:`OPFDataset` stores the result as flat NumPy arrays (one
row per scenario) ready for model training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.grid.components import Case
from repro.grid.perturb import sample_loads
from repro.opf.model import OPFModel, VariableIndex
from repro.parallel.pool import SolverFleet
from repro.parallel.scenarios import Scenario, ScenarioSet
from repro.utils.logging import get_logger
from repro.utils.rng import RNGLike

LOGGER = get_logger("data")

#: Names of the seven prediction tasks, in canonical order.
TASK_NAMES: Tuple[str, ...] = ("Va", "Vm", "Pg", "Qg", "lam", "z", "mu")


@dataclass
class OPFDataset:
    """Supervised dataset for one test system.

    ``inputs`` holds the per-scenario feature vector ``[Pd, Qd]`` in p.u.
    (2·nb columns); ``targets`` maps each task name to an ``(n_samples, dim)``
    array of raw (un-normalised) solver values; ``objectives`` holds the
    ground-truth cost ``f0`` used by the cost-consistency physics loss, and
    ``iterations`` / ``solve_seconds`` record the cold-start solver effort so
    the evaluation can compute speedups without re-solving everything.
    """

    case_name: str
    inputs: np.ndarray
    targets: Dict[str, np.ndarray]
    objectives: np.ndarray
    iterations: np.ndarray
    solve_seconds: np.ndarray
    Pd_mw: np.ndarray
    Qd_mw: np.ndarray
    base_mva: float

    # --------------------------------------------------------------- basic API
    @property
    def n_samples(self) -> int:
        """Number of scenarios in the dataset."""
        return int(self.inputs.shape[0])

    def task_dim(self, task: str) -> int:
        """Output dimensionality of ``task``."""
        return int(self.targets[task].shape[1])

    def subset(self, index: np.ndarray) -> "OPFDataset":
        """Row-indexed subset (used for train/validation splits)."""
        index = np.asarray(index)
        return OPFDataset(
            case_name=self.case_name,
            inputs=self.inputs[index],
            targets={k: v[index] for k, v in self.targets.items()},
            objectives=self.objectives[index],
            iterations=self.iterations[index],
            solve_seconds=self.solve_seconds[index],
            Pd_mw=self.Pd_mw[index],
            Qd_mw=self.Qd_mw[index],
            base_mva=self.base_mva,
        )

    def split(self, train_fraction: float = 0.8, seed: RNGLike = 0) -> Tuple["OPFDataset", "OPFDataset"]:
        """Shuffled train/validation split (default 80/20 as in the paper)."""
        if not 0 < train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n_samples)
        n_train = int(round(train_fraction * self.n_samples))
        n_train = min(max(n_train, 1), self.n_samples - 1) if self.n_samples > 1 else 1
        return self.subset(perm[:n_train]), self.subset(perm[n_train:])

    def batches(self, batch_size: int, seed: RNGLike = None, shuffle: bool = True):
        """Yield row-index arrays forming mini-batches."""
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        order = np.arange(self.n_samples)
        if shuffle:
            np.random.default_rng(seed).shuffle(order)
        for start in range(0, self.n_samples, batch_size):
            yield order[start : start + batch_size]


def generate_dataset(
    case: Case,
    n_samples: int,
    variation: float = 0.1,
    seed: RNGLike = 0,
    model: Optional[OPFModel] = None,
    n_workers: int = 1,
) -> OPFDataset:
    """Generate ground-truth data by solving sampled scenarios with MIPS.

    The cold-start solves run through the same pooled batch-solve path as the
    serving engine: ``n_workers=1`` solves in-process (reusing ``model`` when
    provided), larger counts distribute the scenarios over persistent solver
    workers.  Every micro-batch is solved in lockstep (see
    :func:`repro.opf.batch.solve_opf_batch`); each row lands on the bits
    :func:`~repro.opf.solver.solve_opf` returns for that scenario alone, at a
    fraction of the per-scenario cost.  Scenarios whose cold-start solve
    fails to converge are dropped (they are rare for the built-in cases at
    ±10 % load variation), matching the paper's use of converged solutions as
    supervision signal.

    **Timing semantics.**  ``solve_seconds`` records each scenario's
    *additive wall share* of its solve: every lockstep iteration's wall time
    is split evenly over the scenarios active in it, so the values sum to the
    lockstep wall and stay directly comparable with (and honestly cheaper
    than) the wall times of one-scenario solves.  The Fig. 4 speedup ratios consume these as
    the cold-MIPS reference.  They describe the generation sweep's own
    lockstep width, and per-scenario cost falls as the width grows, so that
    ratio is like-for-like only against a warm sweep of the same width; the
    tests assert iteration ratios and phase sums, never its sign.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    # Drawn before the fleet starts, so a bad ``variation`` raises before any
    # worker process is spawned.
    samples = sample_loads(case, n_samples, variation=variation, seed=seed)
    scenario_set = ScenarioSet(
        case.name,
        [Scenario(s.scenario_id, s.Pd, s.Qd) for s in samples],
        n_bus=case.n_bus,
    )
    with SolverFleet(
        case,
        n_workers=n_workers,
        model=model if n_workers == 1 else None,
    ) as fleet:
        outcomes = fleet.solve(scenario_set, solutions=True).outcomes

    idx = model.idx if model is not None else VariableIndex(nb=case.n_bus, ng=case.n_gen)
    rows_in, pd_rows, qd_rows = [], [], []
    rows_targets: Dict[str, list] = {task: [] for task in TASK_NAMES}
    objectives, iterations, seconds = [], [], []
    for sample, outcome in zip(samples, outcomes):
        if not outcome.success:
            LOGGER.warning("scenario %d failed to converge; dropping", sample.scenario_id)
            continue
        solution = outcome.solution
        assert solution is not None
        parts = idx.split(solution.x)
        rows_in.append(sample.feature_vector() / case.base_mva)
        for task in ("Va", "Vm", "Pg", "Qg"):
            rows_targets[task].append(parts[task].copy())
        rows_targets["lam"].append(solution.lam)
        rows_targets["z"].append(solution.z)
        rows_targets["mu"].append(solution.mu)
        objectives.append(outcome.objective)
        iterations.append(outcome.iterations)
        seconds.append(outcome.solve_seconds)
        pd_rows.append(sample.Pd)
        qd_rows.append(sample.Qd)

    if not rows_in:
        raise RuntimeError(f"no scenario of {case.name} converged; cannot build a dataset")

    return OPFDataset(
        case_name=case.name,
        inputs=np.vstack(rows_in),
        targets={task: np.vstack(rows) for task, rows in rows_targets.items()},
        objectives=np.asarray(objectives, dtype=float),
        iterations=np.asarray(iterations, dtype=float),
        solve_seconds=np.asarray(seconds, dtype=float),
        Pd_mw=np.vstack(pd_rows),
        Qd_mw=np.vstack(qd_rows),
        base_mva=case.base_mva,
    )
