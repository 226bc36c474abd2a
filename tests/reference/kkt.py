"""The SuperLU reference KKT solve, and the switch that runs ``mips_batch`` on it.

:class:`FactorizedSolver` is the independent solve the parity suites compare
:class:`~repro.mips.ldl.LDLSolver` against: one direct SuperLU ``splu`` per
row, an escalating diagonal shift when that is singular, nothing carried from
one system to the next.  It offers the surface ``mips_batch`` uses —
``solve_blocks`` (its ``corrector`` included), the ``factor_seconds`` /
``backsolve_seconds`` / ``rhs_seconds`` split and ``telemetry()`` — so
:func:`kkt_solve` can put it in ``LDLSolver``'s place for the duration of a
``with`` block.  The swap is in-process: a spawned fleet
worker imports an unpatched ``repro``.

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
from repro.mips.ldl import BlockSolveReport, KKTSolveError, LDLSolver, as_planes
from repro.opf import OPFModel, WarmStart, solve_opf_batch
from reference.sparse import csc_from_template


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

    def __init__(
        self,
        regularization: float = 1e-8,
        reg_growth: float = 100.0,
        max_retries: int = 3,
        residual_tol: float = 1e-6,
    ) -> None:
        #: Seconds spent factorising in the most recent call.
        self.factor_seconds = 0.0
        #: Seconds spent on back-substitution in the most recent call.
        self.backsolve_seconds = 0.0
        #: Seconds the most recent call spent in its corrector's callbacks.
        self.rhs_seconds = 0.0
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
        self,
        template: sp.csc_matrix,
        data_plane: np.ndarray,
        rhs_plane: np.ndarray,
        corrector=None,
    ) -> BlockSolveReport:
        """``LDLSolver.solve_blocks``'s contract, one ``splu`` per row: a
        corrector row solves its corrector on the factor of its predictor,
        accepted when the residual is within ``residual_tol``; otherwise its
        fallback on that factor.  A row whose predictor, or whose fallback on
        that factor, failed solves its fallback from a fresh factorisation."""
        data_plane, rhs_plane = as_planes(data_plane, rhs_plane)
        B = rhs_plane.shape[0]
        solutions = np.full(rhs_plane.shape, np.nan)
        regs = np.zeros(B, dtype=int)
        corrected = np.zeros(B, dtype=bool)
        factors: List[object] = [None] * B
        failed: List[int] = []
        self.factor_seconds = self.backsolve_seconds = self.rhs_seconds = 0.0
        kkts = [csc_from_template(template, data_plane[b]) for b in range(B)]
        for b in range(B):
            try:
                solutions[b], regs[b], factors[b] = self._solve_row(kkts[b], rhs_plane[b])
            except KKTSolveError:
                failed.append(b)
        if corrector is not None:
            rows = [int(b) for b in corrector.rows]
            solved = np.array([b for b in rows if b not in failed], dtype=np.int64)
            lost = [b for b in rows if b in failed]
            retry: List[int] = []
            if solved.size:
                rhs = self._callback(corrector.rhs, solved, solutions[solved])
                for b, r in zip(solved, rhs):
                    sol = self._backsolve(factors[b], r)
                    if self._residual_ok(kkts[b], sol, r):
                        solutions[b], corrected[b] = sol, True
                    else:
                        retry.append(int(b))
            if retry:
                rhs = self._callback(corrector.fallback, np.array(retry, dtype=np.int64))
                for b, r in zip(retry, rhs):
                    sol = self._backsolve(factors[b], r)
                    if regs[b] and not self._residual_ok(kkts[b], sol, r):
                        solutions[b], regs[b] = np.nan, 0
                        failed.append(b)
                        lost.append(b)
                    else:
                        solutions[b] = sol
            if lost:
                lost.sort()
                rhs = self._callback(corrector.fallback, np.array(lost, dtype=np.int64))
                for b, r in zip(lost, rhs):
                    try:
                        solutions[b], regs[b], _ = self._solve_row(kkts[b], r)
                    except KKTSolveError:
                        continue
                    failed.remove(b)
            failed.sort()
        self.regularizations += int(regs.sum())
        return BlockSolveReport(solutions, failed, regs, corrected)

    def _callback(self, fn, *args) -> np.ndarray:
        start = time.perf_counter()
        out = np.asarray(fn(*args), dtype=float)
        self.rhs_seconds += time.perf_counter() - start
        return out

    def _backsolve(self, lu, rhs: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        sol = lu.solve(rhs)
        self.backsolve_seconds += time.perf_counter() - start
        return sol

    def _residual_ok(self, kkt: sp.csc_matrix, sol: np.ndarray, rhs: np.ndarray) -> bool:
        """The acceptance test of a shifted factor's solution: a small
        residual on the *unshifted* system."""
        residual = float(np.max(np.abs(kkt @ sol - rhs)))
        return bool(np.isfinite(residual)) and residual <= self.residual_tol * (
            1.0 + float(np.max(np.abs(rhs)))
        )

    def solve(self, kkt: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``kkt @ x = rhs``; raise :class:`KKTSolveError` on failure."""
        csc = sp.csc_matrix(kkt)
        csc.sort_indices()
        report = self.solve_blocks(csc, csc.data[None, :], np.asarray(rhs, dtype=float)[None, :])
        if report.failed:
            raise KKTSolveError(
                f"KKT system singular beyond regularisation ({self.name}: no factor's "
                "solution passed the unshifted-residual check)"
            )
        return report.solutions[0]

    def telemetry(self) -> Dict[str, int]:
        """The one counter the reference keeps: it reuses nothing."""
        return {"numeric_refactorizations": self.numeric_refactorizations}

    def _solve_row(self, kkt: sp.csc_matrix, rhs: np.ndarray) -> Tuple[np.ndarray, bool, object]:
        """Factor and solve one system; ``(solution, recovered by a shift,
        the factor)``."""
        start = time.perf_counter()
        shifted = False
        try:
            lu = spla.splu(kkt)
            self.numeric_refactorizations += 1
        except RuntimeError:
            # SuperLU signals a singular factorisation as RuntimeError:
            # degrade to the regularised path instead of failing the row.
            lu = self._regularized_factorize(kkt)
            shifted = True
        except Exception as exc:
            # Anything else (memory exhaustion, corrupted inputs) is not a
            # singularity — fail as a solve error with the real cause.
            raise KKTSolveError(f"KKT factorisation failed: {exc}") from exc
        finally:
            self.factor_seconds += time.perf_counter() - start

        sol = self._backsolve(lu, rhs)
        # The shifted system only approximates the true one; accept its
        # solution only when the residual on the *unshifted* KKT is small
        # (consistent singular systems pass, genuinely degraded steps fail
        # loudly like the seed path did).  Only accepted solutions count as
        # recoveries.
        if shifted and not self._residual_ok(kkt, sol, rhs):
            residual = float(np.max(np.abs(kkt @ sol - rhs)))
            raise KKTSolveError(f"regularised KKT solution rejected (residual {residual:.3e})")
        return sol, shifted, lu

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

    The default ``x`` enters as a warm ``x``, so the systems are those of
    MATPOWER's fixed-σ trajectory (~55 on case118s), the same corpus
    whichever step rule a true cold row takes."""
    case = get_case(name)
    if outage:
        case = case.with_loads(case.bus.Pd, case.bus.Qd)
        case.branch.status[list(outage)] = 0
    seen = []
    original = LDLSolver.solve_blocks

    def recording(self, template, data_plane, rhs_plane, corrector=None):
        seen.append((template.copy(), np.array(data_plane), np.array(rhs_plane)))
        return original(self, template, data_plane, rhs_plane, corrector=corrector)

    model = OPFModel(case)
    with mock.patch.object(LDLSolver, "solve_blocks", recording):
        solve_opf_batch(
            case,
            case.bus.Pd[None, :],
            case.bus.Qd[None, :],
            warm_starts=[WarmStart(x=model.default_start())],
            options=MIPSOptions(max_it=max_it),
            model=model,
        )
    return seen
