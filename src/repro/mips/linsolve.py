"""The KKT linear-solver interface of the MIPS loops, and its SuperLU reference.

Every MIPS Newton iteration solves one symmetric-indefinite sparse system per
scenario::

    [ M   Jgᵀ ] [ dx   ]   [ -N ]
    [ Jg   0  ] [ dlam ] = [ -g ]

whose sparsity pattern is fixed once the constraint structure is known.  The
solve sits behind one narrow object the loops never look inside (the
architecture production interior-point codes such as Pyomo's
``contrib.interior_point`` use), selected by
:attr:`~repro.mips.options.MIPSOptions.kkt_solver`.

**The interface is one method.**  A backend implements
:meth:`KKTSolver.solve_blocks`: ``B`` same-pattern systems arrive as one CSC
template plus ``(B, nnz)`` data and ``(B, n)`` right-hand-side planes, and a
:class:`BlockSolveReport` returns one solution row per system, the rows that
stayed unsolvable, and the regularised recoveries per row.  A row's result
must not depend on which other rows share the call — the lockstep batch loop
enrolls and retires scenarios between iterations and relies on it.  The scalar
:meth:`KKTSolver.solve` is the one-row case, written once in the base class.
Numeric factorisation and back-substitution are not separate calls: both
backends accept a perturbed factor only if its solution's residual on the
*unperturbed* system is small, so a refactorisation can be triggered by the
right-hand side.  The call reports its factor / backsolve wall split instead
(:attr:`KKTSolver.factor_seconds` / :attr:`KKTSolver.backsolve_seconds`, the
Fig. 5 breakdown).

**Two backends.**

* ``LDLSolver`` (:mod:`repro.mips.ldl`, ``"ldl"``) — the default, and the only
  backend on a measured workload.  Same-pattern sparse LDLᵀ refactorisation:
  one symbolic analysis per pattern (cached process-wide), a batched numeric
  sweep over the whole plane, one dense LU per row for the elimination tree's
  root.
* :class:`FactorizedSolver` (``"factorized"``) — the independent reference the
  parity suites compare against.  One direct SuperLU ``splu`` per row, an
  escalating diagonal shift when that is singular, nothing carried from one
  system to the next.

**Why the reference is stateless.**  It used to cache SuperLU's column
permutation and replay it under the ``NATURAL`` ordering.  A first direct
``splu`` and its replay differ in the last bits, so a row's arithmetic depended
on *when* it entered a lockstep batch, and every caller had to say which rows
were fresh.  Measured on the 57 KKT systems of a cold case118s solve (581×581)
the cache was worth 1.24–1.28x per factor-and-solve (1.78–1.80 ms direct
against 1.40–1.45 ms replayed; 1.16–1.33x when the removal was proposed) and
on case14 (67×67) the direct call is the faster one (0.11–0.18 against
0.18–0.23 ms).  End to end that is ~5 % of a cold case118s lockstep solve at
width 16 on a path no workload measures, so the reference is now what a
reference should be: the plainest correct solve.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.sparse import csc_from_template

__all__ = [
    "KKTSolveError",
    "KKTSolver",
    "FactorizedSolver",
    "BlockSolveReport",
    "available_kkt_solvers",
    "make_kkt_solver",
    "solver_telemetry",
]


class KKTSolveError(RuntimeError):
    """The KKT system could not be solved (singular beyond regularisation)."""


class BlockSolveReport:
    """Outcome of one :meth:`KKTSolver.solve_blocks` call.

    ``solutions`` holds one row per block (rows of failed blocks are NaN),
    ``failed`` lists the block indices whose system stayed unsolvable after
    regularisation, and ``regularizations`` counts the diagonal-shift
    recoveries performed for each block in this call.
    """

    __slots__ = ("solutions", "failed", "regularizations")

    def __init__(self, solutions: np.ndarray, failed: List[int], regularizations: np.ndarray):
        self.solutions = solutions
        self.failed = failed
        self.regularizations = regularizations


def as_planes(data_plane: np.ndarray, rhs_plane: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(B, nnz)`` / ``(B, n)`` float planes with C-contiguous rows.

    Plane slices produced by fancy indexing may be column-major; SuperLU and
    LAPACK need each row contiguous, so backends normalise the layout once on
    entry to :meth:`KKTSolver.solve_blocks`.
    """
    data_plane = np.ascontiguousarray(np.atleast_2d(np.asarray(data_plane, dtype=float)))
    rhs_plane = np.ascontiguousarray(np.atleast_2d(np.asarray(rhs_plane, dtype=float)))
    if data_plane.shape[0] != rhs_plane.shape[0]:
        raise ValueError("data plane and rhs plane must have matching batch sizes")
    return data_plane, rhs_plane


class KKTSolver:
    """Interface every KKT backend implements: :meth:`solve_blocks`.

    Each call fills :attr:`factor_seconds` / :attr:`backsolve_seconds` with its
    own wall-clock split so the MIPS loop can attribute time per phase.  A
    solver instance lives for one ``mips_batch()`` call.
    """

    name = "base"

    def __init__(self) -> None:
        #: Seconds spent factorising in the most recent call.
        self.factor_seconds = 0.0
        #: Seconds spent on back-substitution in the most recent call.
        self.backsolve_seconds = 0.0
        #: Regularised recoveries accepted so far, over all calls and rows.
        self.regularizations = 0

    def solve_blocks(
        self, template: sp.csc_matrix, data_plane: np.ndarray, rhs_plane: np.ndarray
    ) -> BlockSolveReport:
        """Solve ``B`` systems sharing ``template``'s canonical CSC pattern.

        ``data_plane`` is the ``(B, nnz)`` numeric data (row ``b`` in the
        template's storage order), ``rhs_plane`` the ``(B, n)`` right-hand
        sides.  An unsolvable row is reported in the returned
        :class:`BlockSolveReport`, never raised, and never changes a
        neighbouring row's result.
        """
        raise NotImplementedError

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


class FactorizedSolver(KKTSolver):
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
        super().__init__()
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
        self, template: sp.csc_matrix, data_plane: np.ndarray, rhs_plane: np.ndarray
    ) -> BlockSolveReport:
        data_plane, rhs_plane = as_planes(data_plane, rhs_plane)
        solutions = np.full(rhs_plane.shape, np.nan)
        regs = np.zeros(rhs_plane.shape[0], dtype=int)
        failed: List[int] = []
        self.factor_seconds = self.backsolve_seconds = 0.0
        for b in range(rhs_plane.shape[0]):
            try:
                solutions[b], regs[b] = self._solve_row(
                    csc_from_template(template, data_plane[b]), rhs_plane[b]
                )
            except KKTSolveError:
                failed.append(b)
        self.regularizations += int(regs.sum())
        return BlockSolveReport(solutions, failed, regs)

    def _solve_row(self, kkt: sp.csc_matrix, rhs: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Factor and solve one system; ``(solution, recovered by a shift)``."""
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

        start = time.perf_counter()
        sol = lu.solve(rhs)
        self.backsolve_seconds += time.perf_counter() - start
        if shifted:
            # The shifted system only approximates the true one; accept its
            # solution only when the residual on the *unshifted* KKT is small
            # (consistent singular systems pass, genuinely degraded steps
            # fail loudly like the seed path did).  Only accepted solutions
            # count as recoveries.
            residual = float(np.max(np.abs(kkt @ sol - rhs)))
            if not np.isfinite(residual) or residual > self.residual_tol * (
                1.0 + float(np.max(np.abs(rhs)))
            ):
                raise KKTSolveError(
                    f"regularised KKT solution rejected (residual {residual:.3e})"
                )
        return sol, shifted

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


#: Counter attributes harvested into per-solve factorisation telemetry.
_TELEMETRY_COUNTERS = (
    "symbolic_reuses",
    "numeric_refactorizations",
    "block_factorizations",
    "refinement_solves",
    "pivot_clamps",
)


def solver_telemetry(solver: KKTSolver) -> Dict[str, int]:
    """Factorisation telemetry counters exposed by ``solver``.

    Both backends count ``numeric_refactorizations``; ``ldl`` adds its
    symbolic-analysis reuses, ``solve_blocks`` calls, refinement
    back-substitutions and pivot-clamped rows.  Absent counters are omitted.
    The MIPS loops surface this dict on ``MIPSResult.kkt_telemetry`` for the
    Fig. 5 symbolic-vs-numeric attribution.
    """
    out: Dict[str, int] = {}
    for name in _TELEMETRY_COUNTERS:
        value = getattr(solver, name, None)
        if value is not None:
            out[name] = int(value)
    return out


def _backends() -> Dict[str, Callable[..., KKTSolver]]:
    # Imported here because ``ldl`` builds on this module's base class.
    from repro.mips.ldl import LDLSolver

    return {FactorizedSolver.name: FactorizedSolver, LDLSolver.name: LDLSolver}


def available_kkt_solvers() -> tuple:
    """Names accepted by :func:`make_kkt_solver` (and ``MIPSOptions.kkt_solver``)."""
    return tuple(sorted(_backends()))


def make_kkt_solver(name: str, **kwargs) -> KKTSolver:
    """Instantiate the KKT backend called ``name`` with ``kwargs``."""
    try:
        factory = _backends()[name]
    except KeyError:
        raise ValueError(
            f"unknown KKT solver {name!r}; available: {', '.join(available_kkt_solvers())}"
        ) from None
    return factory(**kwargs)
