"""The SuperLU reference KKT solve, the switch that runs ``mips_batch`` on it,
and the one-system solve the unit tests use.

:class:`FactorizedSolver` is the independent solve the parity suites compare
:class:`~repro.mips.ldl.LDLSolver` against: one direct SuperLU ``splu`` per
row, an escalating diagonal shift when that is singular, nothing carried from
one system to the next.  It offers the calls ``mips_batch`` makes: it is
built on the plan's :class:`~repro.mips.ldl.LDLSymbolic` (of which it reads
only the pattern), ``solve_blocks(data_plane, rhs_plane, tol)`` factors and
solves a plane and returns a handle — ``solutions``, ``failed``,
``regularizations``, ``perturbed``, ``factor_seconds`` and
``resolve(rows, rhs, strict)``, a back-solve on a row's own factor — and
``telemetry()`` reports its one counter.  So :func:`kkt_solve` can put it in
``LDLSolver``'s place for the duration of a ``with`` block, and the
predictor–corrector rows' cascade, which ``mips_batch`` runs on the handle, runs on
SuperLU factors unchanged.  The swap is in-process: a spawned fleet worker
imports an unpatched ``repro``.

:func:`solve` solves one system ``kkt @ x = rhs`` on either backend and raises
:class:`KKTSolveError` when the row fails; both moved here from
``repro.mips.ldl``, because only tests solve a single system.
:func:`solver_for` builds a backend for one matrix's pattern.

**Why the reference is stateless.**  It used to cache SuperLU's column
permutation and replay it under the ``NATURAL`` ordering.  A first direct
``splu`` and its replay differ in the last bits, so a row's arithmetic depended
on *when* it entered a lockstep batch, and every caller had to say which rows
were fresh.  Measured on the 57 KKT systems of a cold case118s solve (581×581)
the cache was worth 1.24–1.28x per factor-and-solve (1.78–1.80 ms direct
against 1.40–1.45 ms replayed) and on case14 (67×67) the direct call is the
faster one (0.11–0.18 against 0.18–0.23 ms).

:func:`recorded_kkts` captures the KKT planes of a real solve, the corpus the
``LDLSolver`` unit tests factor directly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro.mips.batch
from repro.grid import get_case
from repro.mips import MIPSOptions
from repro.mips.ldl import LDLSolver, LDLSymbolic, as_planes
from repro.opf import OPFModel, solve_opf_batch
from reference.steps import fixed_sigma


class KKTSolveError(RuntimeError):
    """The KKT system could not be solved (singular beyond regularisation)."""


class _Solved:
    """The handle of one :meth:`FactorizedSolver.solve_blocks` call: the
    solutions and every solved row's ``splu`` factor."""

    def __init__(self, solver, solutions, failed, regularizations, kkts, factors, factor_seconds):
        self.solutions = solutions
        #: Rows whose factorisation, or whose shifted solution, failed.
        self.failed = failed
        self.regularizations = regularizations
        #: Rows solved on a shifted factor.
        self.perturbed = regularizations.astype(bool)
        self.factor_seconds = factor_seconds
        self._solver = solver
        self._kkts = kkts
        self._factors = factors

    def resolve(self, rows, rhs, strict) -> Tuple[np.ndarray, np.ndarray]:
        """Solve ``rhs`` of ``rows`` on each row's factor; a row passes when
        its solution is finite and, where ``strict``, its residual on the
        unshifted system is small."""
        out = np.full_like(rhs, np.nan)
        passed = np.zeros(len(rows), dtype=bool)
        for i, b in enumerate(rows):
            out[i] = self._factors[b].solve(rhs[i])
            passed[i] = np.isfinite(out[i]).all() and (
                not strict[i] or self._solver._residual_ok(self._kkts[b], out[i], rhs[i])
            )
        return out, passed


class FactorizedSolver:
    """The SuperLU reference: one direct ``splu`` per row, no carried state.

    A singular factorisation is retried with an escalating diagonal shift
    ``reg * I``; the shifted factor's solution is accepted only when its
    residual on the *unshifted* system is small, so consistent singular
    systems recover and genuinely degraded steps fail.

    Parameters
    ----------
    regularization:
        Initial diagonal shift applied on a singular factorisation.
    reg_growth:
        Multiplicative escalation factor between retries.
    max_retries:
        Number of regularised attempts before giving up.
    residual_tol:
        Relative residual bound for accepting a regularised solution.
    """

    name = "factorized"
    #: The production refinement target the predictor–corrector cascade reads; a
    #: direct solve is not refined, so the reference ignores ``tol``.
    refine_tol = LDLSolver.refine_tol

    def __init__(
        self,
        symbolic: LDLSymbolic,
        regularization: float = 1e-8,
        reg_growth: float = 100.0,
        max_retries: int = 3,
        residual_tol: float = 1e-6,
    ) -> None:
        #: The one pattern this solver factorises, read from the analysis.
        self.pattern = (symbolic.template_indptr, symbolic.template_indices, symbolic.n)
        #: Regularised recoveries accepted so far, over all calls and rows.
        self.regularizations = 0
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        if reg_growth <= 1:
            raise ValueError("reg_growth must exceed 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        self.regularization = regularization
        self.reg_growth = reg_growth
        self.max_retries = max_retries
        self.residual_tol = residual_tol
        #: Total numeric factorisations performed (direct or shifted).
        self.numeric_refactorizations = 0

    def solve_blocks(
        self, data_plane: np.ndarray, rhs_plane: np.ndarray, tol: Optional[np.ndarray] = None
    ) -> _Solved:
        """``LDLSolver.solve_blocks``'s contract, one ``splu`` per row: a row
        that stays singular after the shifted retries, or whose shifted
        solution misses the unshifted residual test, comes back NaN."""
        data_plane, rhs_plane = as_planes(data_plane, rhs_plane)
        indptr, indices, n = self.pattern
        B = rhs_plane.shape[0]
        solutions = np.full(rhs_plane.shape, np.nan)
        regs = np.zeros(B, dtype=int)
        factors: List[object] = [None] * B
        failed: List[int] = []
        kkts = [sp.csc_matrix((data_plane[b], indices, indptr), shape=(n, n)) for b in range(B)]
        factor_seconds = 0.0
        for b in range(B):
            start = time.perf_counter()
            try:
                lu, shifted = self._factor(kkts[b])
            except KKTSolveError:
                failed.append(b)
                continue
            finally:
                factor_seconds += time.perf_counter() - start
            sol = lu.solve(rhs_plane[b])
            # The shifted system only approximates the true one; accept its
            # solution only when the residual on the *unshifted* KKT is small
            # (consistent singular systems pass, genuinely degraded steps
            # fail).  Only accepted solutions count as recoveries.
            if shifted and not self._residual_ok(kkts[b], sol, rhs_plane[b]):
                failed.append(b)
                continue
            solutions[b], regs[b], factors[b] = sol, shifted, lu
        self.regularizations += int(regs.sum())
        return _Solved(self, solutions, failed, regs, kkts, factors, factor_seconds)

    def _residual_ok(self, kkt: sp.csc_matrix, sol: np.ndarray, rhs: np.ndarray) -> bool:
        """The acceptance test of a shifted factor's solution: a small
        residual on the *unshifted* system."""
        residual = float(np.max(np.abs(kkt @ sol - rhs)))
        return bool(np.isfinite(residual)) and residual <= self.residual_tol * (
            1.0 + float(np.max(np.abs(rhs)))
        )

    def telemetry(self) -> Dict[str, int]:
        """The one counter the reference keeps: it reuses nothing."""
        return {"numeric_refactorizations": self.numeric_refactorizations}

    def _factor(self, kkt: sp.csc_matrix) -> Tuple[object, bool]:
        """Factor one system; ``(the factor, whether it is shifted)``."""
        try:
            lu = spla.splu(kkt)
        except RuntimeError:
            # SuperLU signals a singular factorisation as RuntimeError:
            # degrade to the regularised path instead of failing the row.
            return self._regularized_factorize(kkt), True
        except Exception as exc:
            # Anything else (memory exhaustion, corrupted inputs) is not a
            # singularity — fail as a solve error with the real cause.
            raise KKTSolveError(f"KKT factorisation failed: {exc}") from exc
        self.numeric_refactorizations += 1
        return lu, False

    def _regularized_factorize(self, kkt: sp.csc_matrix):
        """Retry a singular factorisation with escalating diagonal shifts."""
        identity = sp.identity(kkt.shape[0], format="csc")
        reg = self.regularization
        last_error: Optional[Exception] = None
        for _ in range(self.max_retries):
            try:
                lu = spla.splu((kkt + reg * identity).tocsc())
            except RuntimeError as exc:
                last_error = exc
                reg *= self.reg_growth
                continue
            except Exception as exc:
                raise KKTSolveError(f"KKT factorisation failed: {exc}") from exc
            self.numeric_refactorizations += 1
            return lu
        raise KKTSolveError(
            f"KKT factorisation singular after {self.max_retries} "
            f"regularised retries (last shift {reg / self.reg_growth:g})"
        ) from last_error


#: The reference and the production solve, by the names the suites use.
BACKENDS = {FactorizedSolver.name: FactorizedSolver, "ldl": LDLSolver}


@contextmanager
def kkt_solve(name: str) -> Iterator[None]:
    """Run every ``mips_batch`` call inside the block on backend ``name``."""
    with mock.patch.object(repro.mips.batch, "LDLSolver", BACKENDS[name]):
        yield


def recorded_kkts(
    name: str, outage: Tuple[int, ...] = (), max_it: int = 150
) -> List[Tuple[sp.csc_matrix, np.ndarray, np.ndarray]]:
    """``(template, data_plane, rhs_plane)`` of every KKT solve of one
    width-1 lockstep solve of ``name`` from its default start at its nominal
    loads, ``outage`` branches switched off.

    The solve runs inside :func:`reference.steps.fixed_sigma`, so the systems
    are those of MATPOWER's fixed-σ trajectory (~55 on case118s), the same
    corpus whichever step rule production takes."""
    case = get_case(name)
    if outage:
        case = case.with_loads(case.bus.Pd, case.bus.Qd)
        case.branch.status[list(outage)] = 0
    seen = []
    original = LDLSolver.solve_blocks

    def recording(self, data_plane, rhs_plane, tol=None):
        seen.append((np.array(data_plane), np.array(rhs_plane)))
        return original(self, data_plane, rhs_plane, tol)

    model = OPFModel(case)
    with fixed_sigma(), mock.patch.object(LDLSolver, "solve_blocks", recording):
        solve_opf_batch(
            case,
            case.bus.Pd[None, :],
            case.bus.Qd[None, :],
            options=MIPSOptions(max_it=max_it),
            model=model,
        )
    template = model.batched.plan.assembler.kkt_template.copy()
    return [(template, data, rhs) for data, rhs in seen]


def _canonical(kkt: sp.spmatrix) -> sp.csc_matrix:
    csc = sp.csc_matrix(kkt)
    csc.sort_indices()
    return csc


def solver_for(kkt: sp.spmatrix, backend=LDLSolver, **params):
    """A ``backend`` solver (:data:`BACKENDS`) for ``kkt``'s sparsity pattern."""
    return backend(LDLSymbolic.analyse(_canonical(kkt)), **params)


def solve(kkt: sp.spmatrix, rhs: np.ndarray, solver=None) -> np.ndarray:
    """Solve ``kkt @ x = rhs``, the one-row ``solve_blocks`` of ``solver`` (a
    fresh ``LDLSolver`` for ``kkt``'s pattern when omitted); raise
    :class:`KKTSolveError` when the row fails."""
    csc = _canonical(kkt)
    solver = solver_for(csc) if solver is None else solver
    report = solver.solve_blocks(csc.data[None, :], np.asarray(rhs, dtype=float)[None, :])
    if report.failed:
        raise KKTSolveError(
            "KKT system singular beyond regularisation (no factor's solution "
            "passed the unshifted-residual check)"
        )
    return report.solutions[0]
