"""Pluggable sparse linear solvers for the MIPS KKT system.

Every MIPS Newton iteration solves one symmetric-indefinite sparse system::

    [ M   Jgᵀ ] [ dx   ]   [ -N ]
    [ Jg   0  ] [ dlam ] = [ -g ]

whose sparsity pattern is fixed once the constraint structure is known.  The
seed implementation called ``scipy.sparse.linalg.spsolve`` directly, redoing
the fill-reducing column ordering (the symbolic analysis) from scratch every
iteration and failing hard on a singular factorisation.  This module isolates
the solve behind a small interface (the architecture production interior-point
codes such as Pyomo's ``contrib.interior_point`` use) so backends can be
swapped via :class:`~repro.mips.options.MIPSOptions`:

* :class:`FactorizedSolver` — the SuperLU reference.  Factors with ``splu``,
  reuses the fill-reducing column permutation across pattern-identical systems (computed
  once, then applied as a cheap data gather + ``NATURAL``-ordered
  factorisation), retries a singular factorisation with escalating diagonal
  regularisation, and reports factor / back-substitution times separately.
* :class:`SpsolveSolver` — the seed behaviour, kept as a fallback backend and
  as the reference path for the KKT micro-benchmark.
* :class:`BlockDiagSolver` — the lockstep-batch backend.  The batched MIPS
  loop hands it the ``B`` active scenarios' same-pattern KKT systems as one
  ``(B, nnz)`` data plane; the backend assembles them into a single
  block-diagonal matrix and performs **one** supernodal ``splu`` factorisation
  plus **one** stacked backsolve per iteration.  The per-block column
  permutation is computed once and replicated, so each block's numerics are
  bit-identical to a per-slot :class:`FactorizedSolver` solve — backends stay
  drop-in swappable.
* ``LDLSolver`` (``repro.mips.ldl``, registered as ``"ldl"``) — the default.
  Same-pattern sparse LDLᵀ refactorisation for the symmetric quasi-definite
  KKT: one symbolic analysis (fill-reducing ordering, elimination tree, cached
  L pattern) reused across every pattern-identical iteration, with only the
  batched numeric sweep — and one dense LU per row for the tree's root — rerun.

Every backend also exposes :meth:`KKTSolver.solve_many`, the multi-RHS
backsolve path: several right-hand sides against one matrix share a single
factorisation, and :meth:`KKTSolver.resolve` re-solves against the most
recent factorisation (the hook iterative refinement and predictor/corrector
schemes need).

Custom backends can be registered with :func:`register_kkt_solver`.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.sparse import BlockDiagPlan, csc_from_template, same_pattern

__all__ = [
    "KKTSolveError",
    "KKTSolver",
    "SpsolveSolver",
    "FactorizedSolver",
    "BlockDiagSolver",
    "BlockSolveReport",
    "available_kkt_solvers",
    "make_kkt_solver",
    "register_kkt_solver",
    "solver_telemetry",
]


class KKTSolveError(RuntimeError):
    """The KKT system could not be solved (singular beyond regularisation)."""


class KKTSolver:
    """Interface every KKT backend implements.

    ``solve`` returns the solution vector and fills :attr:`factor_seconds` /
    :attr:`backsolve_seconds` with the wall-clock split of the last call so
    the MIPS loop can attribute time per phase (the Fig. 5 breakdown).
    A solver instance lives for one ``mips()`` call and may cache state
    (factorisations, permutations) across iterations.
    """

    name = "base"

    def __init__(self) -> None:
        #: Seconds spent factorising in the most recent ``solve`` call.
        self.factor_seconds = 0.0
        #: Seconds spent on back-substitution in the most recent call.
        self.backsolve_seconds = 0.0
        #: Total diagonal-regularisation retries performed so far.
        self.regularizations = 0

    def solve(self, kkt: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        """Solve ``kkt @ x = rhs``; raise :class:`KKTSolveError` on failure."""
        raise NotImplementedError

    def solve_many(self, kkt: sp.spmatrix, rhs_block: np.ndarray) -> np.ndarray:
        """Solve ``kkt @ X = rhs_block`` for an ``(n, k)`` block of right-hand sides.

        All ``k`` systems share one matrix, so backends that factorise should
        factor **once** and back-substitute the whole block (predictor and
        corrector systems of one interior-point iteration are the canonical
        use).  The base implementation loops over columns — correct for any
        backend — and aggregates the per-call timings.
        """
        rhs_block = np.asarray(rhs_block, dtype=float)
        if rhs_block.ndim == 1:
            rhs_block = rhs_block[:, None]
        factor = backsolve = 0.0
        cols = []
        for j in range(rhs_block.shape[1]):
            cols.append(self.solve(kkt, rhs_block[:, j]))
            factor += self.factor_seconds
            backsolve += self.backsolve_seconds
        self.factor_seconds = factor
        self.backsolve_seconds = backsolve
        return np.stack(cols, axis=1)

    def resolve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve another right-hand side against the most recent factorisation.

        Backends that retain their factorisation answer from it (one extra
        back-substitution); the base implementation raises — callers fall back
        to a fresh :meth:`solve` when the backend cannot resolve.  Used by the
        scalar solver's iterative-refinement option
        (``MIPSOptions.kkt_refine_steps``).
        """
        raise KKTSolveError(f"backend {self.name!r} retains no factorisation to resolve against")


class SpsolveSolver(KKTSolver):
    """Seed-equivalent backend: one ``spsolve`` call per iteration.

    ``spsolve`` fuses symbolic analysis, numeric factorisation and the back
    substitution, so the whole call is charged to ``factor_seconds``.
    """

    name = "spsolve"

    def solve(self, kkt: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        try:
            sol = spla.spsolve(sp.csc_matrix(kkt), rhs)
        except Exception as exc:  # pragma: no cover - scipy error type varies
            self.factor_seconds = time.perf_counter() - start
            self.backsolve_seconds = 0.0
            raise KKTSolveError(f"spsolve failed: {exc}") from exc
        self.factor_seconds = time.perf_counter() - start
        self.backsolve_seconds = 0.0
        return np.asarray(sol, dtype=float)


class FactorizedSolver(KKTSolver):
    """``splu``-based backend with symbolic-pattern reuse and regularisation.

    The first factorisation of a given sparsity pattern computes a fill
    reducing column permutation (COLAMD).  While the pattern stays fixed —
    which it does for the entire MIPS iteration once the constraint structure
    is known — later systems are column-permuted with a precomputed data
    gather and factorised under the ``NATURAL`` ordering, skipping the
    symbolic analysis.  A singular factorisation is retried with an
    escalating diagonal shift ``reg * I`` instead of aborting the solve.

    Parameters
    ----------
    regularization:
        Initial diagonal shift applied on a singular factorisation.
    reg_growth:
        Multiplicative escalation factor between retries.
    max_retries:
        Number of regularised attempts before giving up.
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
        #: Relative residual bound for accepting a regularised solution.
        self.residual_tol = residual_tol
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._perm_c: Optional[np.ndarray] = None
        self._permuted: Optional[sp.csc_matrix] = None
        self._data_order: Optional[np.ndarray] = None
        self._identity: Optional[sp.csc_matrix] = None
        self._last_lu = None
        self._last_perm: Optional[np.ndarray] = None
        #: Factorisations that reused the cached column permutation.
        self.symbolic_reuses = 0
        #: Total numeric factorisations performed (fresh, replayed or shifted).
        self.numeric_refactorizations = 0

    # ------------------------------------------------------------------ pattern
    def _pattern_matches(self, kkt: sp.csc_matrix) -> bool:
        if self._perm_c is None:
            return False
        return same_pattern(kkt, self._indptr, self._indices)

    def _cache_pattern(self, kkt: sp.csc_matrix, lu) -> None:
        self._indptr = kkt.indptr
        self._indices = kkt.indices
        # SuperLU reports perm_c such that the low-fill matrix is the one whose
        # column ``perm_c[j]`` holds original column ``j`` — i.e. we must
        # reorder columns by the *inverse* permutation to reproduce it.
        colamd = np.asarray(lu.perm_c)
        perm = np.empty_like(colamd)
        perm[colamd] = np.arange(colamd.size)
        self._perm_c = perm
        # Column-permuting a CSC matrix only rearranges column slices of the
        # data/indices arrays; record that rearrangement once as a gather
        # index and build the permuted matrix from it directly.
        counts = np.diff(kkt.indptr)
        lens = counts[perm]
        starts = kkt.indptr[perm]
        concat_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        order = np.arange(kkt.nnz, dtype=np.intp) + np.repeat(starts - concat_starts, lens)
        indptr = np.concatenate([[0], np.cumsum(lens)]).astype(kkt.indptr.dtype)
        permuted = sp.csc_matrix(
            (kkt.data[order], kkt.indices[order], indptr), shape=kkt.shape
        )
        self._permuted = permuted
        self._data_order = order

    # -------------------------------------------------------------------- solve
    def _factorize(self, kkt: sp.csc_matrix):
        if self._pattern_matches(kkt):
            permuted = self._permuted
            permuted.data[...] = kkt.data[self._data_order]
            lu = spla.splu(permuted, permc_spec="NATURAL")
            self.symbolic_reuses += 1
            self.numeric_refactorizations += 1
            return lu, self._perm_c
        lu = spla.splu(kkt)
        self._cache_pattern(kkt, lu)
        self.numeric_refactorizations += 1
        return lu, None

    def solve(self, kkt: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        return self._solve_rhs(kkt, np.asarray(rhs, dtype=float))

    def solve_many(self, kkt: sp.spmatrix, rhs_block: np.ndarray) -> np.ndarray:
        """Multi-RHS fast path: one factorisation, one block back-substitution."""
        rhs_block = np.asarray(rhs_block, dtype=float)
        if rhs_block.ndim == 1:
            rhs_block = rhs_block[:, None]
        return self._solve_rhs(kkt, rhs_block)

    def resolve(self, rhs: np.ndarray) -> np.ndarray:
        """One extra back-substitution against the most recent factorisation.

        Like ``solve``, the timing attributes describe *this call only*:
        ``backsolve_seconds`` is assigned (not accumulated), so callers mixing
        ``solve``/``resolve`` sequences aggregate per-call splits themselves
        and phase totals never double-count.
        """
        if self._last_lu is None:
            raise KKTSolveError("no factorisation available to resolve against")
        start = time.perf_counter()
        sol = self._last_lu.solve(np.asarray(rhs, dtype=float))
        if self._last_perm is not None:
            unpermuted = np.empty_like(sol)
            unpermuted[self._last_perm] = sol
            sol = unpermuted
        self.backsolve_seconds = time.perf_counter() - start
        return np.asarray(sol, dtype=float)

    def _solve_rhs(self, kkt: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        kkt = sp.csc_matrix(kkt)
        kkt.sort_indices()
        start = time.perf_counter()
        self.backsolve_seconds = 0.0
        regularized = False
        try:
            try:
                lu, perm = self._factorize(kkt)
            except KKTSolveError:
                raise
            except RuntimeError:
                # SuperLU signals a singular factorisation as RuntimeError:
                # degrade to the regularised path instead of crashing.
                lu, perm = self._regularized_factorize(kkt)
                regularized = True
            except Exception as exc:
                # Anything else (memory exhaustion, corrupted inputs) is not a
                # singularity — fail as a solve error with the real cause.
                raise KKTSolveError(f"KKT factorisation failed: {exc}") from exc
        finally:
            self.factor_seconds = time.perf_counter() - start
        self._last_lu = lu
        self._last_perm = perm

        start = time.perf_counter()
        sol = lu.solve(rhs)
        if perm is not None:
            unpermuted = np.empty_like(sol)
            unpermuted[perm] = sol
            sol = unpermuted
        self.backsolve_seconds = time.perf_counter() - start
        if regularized:
            # The shifted system only approximates the true one; accept its
            # solution only when the residual on the *unshifted* KKT is small
            # (consistent singular systems pass, genuinely degraded steps
            # fail loudly like the seed path did).
            residual = float(np.max(np.abs(kkt @ sol - rhs)))
            if not np.isfinite(residual) or residual > self.residual_tol * (
                1.0 + float(np.max(np.abs(rhs)))
            ):
                raise KKTSolveError(
                    f"regularised KKT solution rejected (residual {residual:.3e})"
                )
            # Count only solutions actually recovered (factored with a shift
            # AND accepted by the residual check), so the counter and the
            # solver's end-of-run warning reflect real recoveries.
            self.regularizations += 1
        return np.asarray(sol, dtype=float)

    def _regularized_factorize(self, kkt: sp.csc_matrix):
        """Retry a singular factorisation with escalating diagonal shifts."""
        if self._identity is None or self._identity.shape != kkt.shape:
            self._identity = sp.identity(kkt.shape[0], format="csc")
        reg = self.regularization
        last_error: Optional[Exception] = None
        for _ in range(self.max_retries):
            shifted = (kkt + reg * self._identity).tocsc()
            try:
                # The shift changes the pattern only where the diagonal was
                # structurally empty, so factor without the permutation cache.
                lu = spla.splu(shifted)
            except RuntimeError as exc:
                last_error = exc
                reg *= self.reg_growth
                continue
            except Exception as exc:
                raise KKTSolveError(f"KKT factorisation failed: {exc}") from exc
            self.numeric_refactorizations += 1
            return lu, None
        raise KKTSolveError(
            f"KKT factorisation singular after {self.max_retries} "
            f"regularised retries (last shift {reg / self.reg_growth:g})"
        ) from last_error


#: Counter attributes harvested into per-solve factorisation telemetry.
_TELEMETRY_COUNTERS = (
    "symbolic_reuses",
    "numeric_refactorizations",
    "block_factorizations",
    "block_fallbacks",
    "refinement_solves",
    "pivot_clamps",
)


def solver_telemetry(solver: KKTSolver) -> Dict[str, int]:
    """Factorisation telemetry counters exposed by ``solver``.

    Backends advertise whichever of the known counters they maintain
    (symbolic-analysis reuses, numeric refactorisations, batched block
    factorisations, per-block fallbacks, and the ``ldl`` backend's refinement
    back-substitutions and pivot-clamped rows); absent counters
    are simply omitted, so the harvest works uniformly across built-in and
    registered backends.  The MIPS loops surface this dict on
    ``MIPSResult.kkt_telemetry`` for the Fig. 5 symbolic-vs-numeric
    attribution.
    """
    out: Dict[str, int] = {}
    for name in _TELEMETRY_COUNTERS:
        value = getattr(solver, name, None)
        if value is not None:
            out[name] = int(value)
    return out


class BlockSolveReport:
    """Outcome of one :meth:`BlockDiagSolver.solve_blocks` call.

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


class BlockDiagSolver(KKTSolver):
    """Batched backend: one block-diagonal factorisation for ``B`` same-pattern systems.

    The lockstep batch solver produces, per iteration, the ``B`` active
    scenarios' KKT systems as one fixed CSC pattern plus a ``(B, nnz)`` data
    plane.  :meth:`solve_blocks` assembles them into a single block-diagonal
    matrix (index plan cached per active-set size) and performs one supernodal
    ``splu`` factorisation and one stacked backsolve — the per-slot
    factorise/backsolve loop disappears.

    **Numerical parity.**  The backend reproduces a per-slot
    :class:`FactorizedSolver` **bit for bit**.  The first call for a pattern
    solves each block individually through a scratch :class:`FactorizedSolver`
    (exactly the per-slot first-iteration semantics: a direct ``splu`` whose
    effective column order includes SuperLU's elimination-tree postorder) and
    harvests the cached column permutation.  Every later call replicates that
    permutation across the diagonal and factorises the big matrix under the
    ``NATURAL`` ordering — elimination then proceeds block by block in exactly
    the order the per-slot cached-permutation path uses, and SuperLU's row
    pivoting cannot cross structurally-empty off-diagonal blocks, so each
    block's solution is bit-identical to the per-slot path; iteration counts
    and objectives match exactly, which the cross-backend parity suite
    asserts.

    **Singular blocks.**  A singular block poisons the shared factorisation,
    so on failure the call degrades to per-block solves for this iteration:
    healthy blocks are factorised individually under the same cached
    permutation (still bit-identical) while singular blocks get the escalating
    diagonal-shift retry with the unshifted-residual acceptance check —
    neighbours of a regularised block are unaffected down to the last bit.

    Used as a scalar :class:`KKTSolver` (the ``mips()`` path), it behaves
    exactly like :class:`FactorizedSolver` via delegation, so
    ``kkt_solver="blockdiag"`` is safe to select globally.
    """

    name = "blockdiag"
    #: The batched MIPS loop checks this to route whole iterations here.
    supports_blocks = True

    def __init__(
        self,
        regularization: float = 1e-8,
        reg_growth: float = 100.0,
        max_retries: int = 3,
        residual_tol: float = 1e-6,
    ) -> None:
        super().__init__()
        self._scalar = FactorizedSolver(
            regularization=regularization,
            reg_growth=reg_growth,
            max_retries=max_retries,
            residual_tol=residual_tol,
        )
        self.regularization = regularization
        self.reg_growth = reg_growth
        self.max_retries = max_retries
        self.residual_tol = residual_tol
        self._pattern_key: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._perm: Optional[np.ndarray] = None
        self._order: Optional[np.ndarray] = None
        self._perm_indptr: Optional[np.ndarray] = None
        self._perm_indices: Optional[np.ndarray] = None
        self._plans: Dict[int, BlockDiagPlan] = {}
        #: Batched factorisations performed (one per lockstep iteration).
        self.block_factorizations = 0
        #: Iterations that fell back to per-block solves (singular block present).
        self.block_fallbacks = 0
        #: Factorisations that reused the cached column permutation.
        self.symbolic_reuses = 0
        #: Total numeric factorisations performed across scalar and block paths.
        self.numeric_refactorizations = 0

    # ----------------------------------------------------------- scalar interface
    def _mirror_scalar(self) -> None:
        self.factor_seconds = self._scalar.factor_seconds
        self.backsolve_seconds = self._scalar.backsolve_seconds
        self.regularizations = self._scalar.regularizations
        self.symbolic_reuses = self._scalar.symbolic_reuses
        self.numeric_refactorizations = self._scalar.numeric_refactorizations

    def solve(self, kkt: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        try:
            return self._scalar.solve(kkt, rhs)
        finally:
            self._mirror_scalar()

    def solve_many(self, kkt: sp.spmatrix, rhs_block: np.ndarray) -> np.ndarray:
        try:
            return self._scalar.solve_many(kkt, rhs_block)
        finally:
            self._mirror_scalar()

    def resolve(self, rhs: np.ndarray) -> np.ndarray:
        try:
            return self._scalar.resolve(rhs)
        finally:
            self._mirror_scalar()

    # ------------------------------------------------------------ block interface
    def _make_slot_solver(self) -> FactorizedSolver:
        return FactorizedSolver(
            regularization=self.regularization,
            reg_growth=self.reg_growth,
            max_retries=self.max_retries,
            residual_tol=self.residual_tol,
        )

    def _run_blocks(
        self,
        template: sp.csc_matrix,
        data_plane: np.ndarray,
        rhs_plane: np.ndarray,
        solutions: np.ndarray,
        regs: np.ndarray,
        failed: List[int],
        seeded: bool,
    ) -> Tuple[float, float]:
        """Per-block solves through scratch :class:`FactorizedSolver` instances.

        ``seeded=False`` runs the per-slot *direct*-``splu`` first-iteration
        semantics (and harvests the column-permutation cache of the first
        cleanly factorised block); ``seeded=True`` pre-seeds every scratch
        solver with the shared cached permutation so healthy blocks replay
        the ``NATURAL`` factorisation bit-identically to the big
        block-diagonal factor.  Returns the summed per-block
        ``(factor_seconds, backsolve_seconds)``.
        """
        n = template.shape[0]

        factor = backsolve = 0.0
        for b in range(data_plane.shape[0]):
            slot = self._make_slot_solver()
            if seeded:
                slot._indptr = template.indptr
                slot._indices = template.indices
                slot._perm_c = self._perm
                slot._data_order = self._order
                slot._permuted = sp.csc_matrix(
                    (np.empty(template.nnz), self._perm_indices, self._perm_indptr),
                    shape=(n, n),
                )
            try:
                sol = slot.solve(
                    csc_from_template(template, data_plane[b]), rhs_plane[b]
                )
            except KKTSolveError:
                sol = None
            if sol is None:
                solutions[b] = np.nan
                failed.append(b)
            else:
                solutions[b] = sol
                regs[b] += slot.regularizations
                self.regularizations += slot.regularizations
            factor += slot.factor_seconds
            backsolve += slot.backsolve_seconds
            self.numeric_refactorizations += slot.numeric_refactorizations
            self.symbolic_reuses += slot.symbolic_reuses
            if not seeded and self._perm is None and slot._perm_c is not None:
                # Harvest the pattern cache of the first cleanly factorised
                # block: identical formula to FactorizedSolver._cache_pattern,
                # so the NATURAL replay matches the per-slot one bit for bit.
                self._perm = slot._perm_c
                self._order = slot._data_order
                self._perm_indptr = slot._permuted.indptr
                self._perm_indices = slot._permuted.indices
        return factor, backsolve

    def _first_call_blocks(
        self,
        template: sp.csc_matrix,
        data_plane: np.ndarray,
        rhs_plane: np.ndarray,
        solutions: np.ndarray,
        regs: np.ndarray,
        failed: List[int],
    ) -> None:
        """First iteration for a pattern: per-block direct ``splu`` solves.

        A direct ``splu`` composes an elimination-tree postorder into its
        effective column order, which the permute-then-``NATURAL`` replay does
        not reproduce — so to stay bit-identical to a per-slot
        :class:`FactorizedSolver` (whose first call *is* a direct ``splu``)
        the first iteration runs the exact same per-block path, and the block
        factorisation takes over from the second iteration on, using the
        column permutation cached here.
        """
        factor, backsolve = self._run_blocks(
            template, data_plane, rhs_plane, solutions, regs, failed, seeded=False
        )
        self.factor_seconds = factor
        self.backsolve_seconds = backsolve

    def _plan_for(self, blocks: int, n: int) -> BlockDiagPlan:
        plan = self._plans.get(blocks)
        if plan is None:
            plan = BlockDiagPlan(
                self._perm_indptr, self._perm_indices, (n, n), blocks, format="csc"
            )
            self._plans[blocks] = plan
        return plan

    def _solve_block_fallback(
        self,
        template: sp.csc_matrix,
        data_plane: np.ndarray,
        rhs_plane: np.ndarray,
        solutions: np.ndarray,
        regs: np.ndarray,
        failed: List[int],
    ) -> None:
        """Per-block degradation for iterations with a singular block.

        Every block runs through a scratch :class:`FactorizedSolver` whose
        pattern cache is pre-seeded with the shared column permutation, so
        each block follows *exactly* the per-slot code path: healthy blocks
        factorise under the cached ``NATURAL`` replay (bit-identical to what
        the big factorisation would have produced), singular blocks get the
        escalating diagonal-shift retry with the unshifted-residual check —
        and neighbours of a regularised block are unaffected down to the last
        bit.
        """
        self._run_blocks(
            template, data_plane, rhs_plane, solutions, regs, failed, seeded=True
        )

    def solve_blocks(
        self,
        template: sp.csc_matrix,
        data_plane: np.ndarray,
        rhs_plane: np.ndarray,
        direct: bool = False,
    ) -> BlockSolveReport:
        """Solve ``B`` same-pattern systems with one block-diagonal factorisation.

        ``template`` carries the shared CSC pattern, ``data_plane`` is the
        ``(B, nnz)`` numeric data (row ``b`` in the template's storage order)
        and ``rhs_plane`` the ``(B, n)`` right-hand sides.  Fills
        :attr:`factor_seconds` / :attr:`backsolve_seconds` with the call's
        wall-clock split and returns a :class:`BlockSolveReport`.

        ``direct=True`` forces the per-block direct-``splu`` path regardless
        of the cached permutation.  The batched MIPS loop uses it for blocks
        in their *first* iteration — scenarios enrolled into a running
        lockstep batch by the retire-and-refill feed — because a per-slot
        :class:`FactorizedSolver`'s first factorisation is a direct ``splu``
        and only the replay of its harvested permutation is bit-reproducible;
        routing fresh blocks through the same direct path keeps a scenario's
        trajectory independent of *when* it joined the batch.
        """
        # Plane slices produced by fancy indexing may be column-major; SuperLU
        # needs C-contiguous rows, so normalise the layout once up front.
        data_plane = np.ascontiguousarray(np.atleast_2d(np.asarray(data_plane, dtype=float)))
        rhs_plane = np.ascontiguousarray(np.atleast_2d(np.asarray(rhs_plane, dtype=float)))
        blocks, n = rhs_plane.shape
        if data_plane.shape[0] != blocks:
            raise ValueError("data plane and rhs plane must have matching batch sizes")
        solutions = np.empty((blocks, n))
        regs = np.zeros(blocks, dtype=int)
        failed: List[int] = []

        if self._pattern_key is None or not same_pattern(
            template, self._pattern_key[0], self._pattern_key[1]
        ):
            # Full index-array comparison (not just shape/nnz), mirroring
            # FactorizedSolver: a different pattern must never be scattered
            # through a stale permutation plan.
            self._pattern_key = (template.indptr, template.indices)
            self._perm = None
            self._plans = {}
        if direct or self._perm is None:
            # First call for this pattern (or explicitly fresh blocks):
            # per-block direct solves (bitwise per-slot first-iteration
            # semantics) that also seed the column-permutation cache.
            self._first_call_blocks(template, data_plane, rhs_plane, solutions, regs, failed)
            return BlockSolveReport(solutions, failed, regs)

        start = time.perf_counter()
        data_perm = np.ascontiguousarray(data_plane[:, self._order])
        plan = self._plan_for(blocks, n)
        big = plan.matrix(data_perm)
        try:
            lu = spla.splu(big, permc_spec="NATURAL")
        except RuntimeError:
            # At least one singular block: degrade to per-block solves so the
            # healthy blocks stay bit-identical and only the singular ones pay
            # for (and are changed by) regularisation.
            self.block_fallbacks += 1
            self._solve_block_fallback(
                template, data_plane, rhs_plane, solutions, regs, failed
            )
            self.factor_seconds = time.perf_counter() - start
            self.backsolve_seconds = 0.0
            return BlockSolveReport(solutions, failed, regs)
        except Exception as exc:
            self.factor_seconds = time.perf_counter() - start
            self.backsolve_seconds = 0.0
            raise KKTSolveError(f"KKT factorisation failed: {exc}") from exc
        self.block_factorizations += 1
        # One batched numeric factorisation over the cached symbolic analysis
        # (shared column permutation + scatter order) covers every block.
        self.symbolic_reuses += 1
        self.numeric_refactorizations += 1
        self.factor_seconds = time.perf_counter() - start

        start = time.perf_counter()
        stacked = lu.solve(rhs_plane.reshape(-1))
        solutions[:, self._perm] = stacked.reshape(blocks, n)
        self.backsolve_seconds = time.perf_counter() - start
        return BlockSolveReport(solutions, failed, regs)


# ---------------------------------------------------------------------- registry
_SOLVERS: Dict[str, Callable[..., KKTSolver]] = {
    SpsolveSolver.name: SpsolveSolver,
    FactorizedSolver.name: FactorizedSolver,
    BlockDiagSolver.name: BlockDiagSolver,
}


def available_kkt_solvers() -> tuple:
    """Names accepted by :func:`make_kkt_solver` (and ``MIPSOptions.kkt_solver``)."""
    return tuple(sorted(_SOLVERS))


def register_kkt_solver(name: str, factory: Callable[..., KKTSolver]) -> None:
    """Register a custom KKT backend under ``name``.

    The registry is per-process.  Spawn-based worker pools (e.g.
    ``repro.parallel.pool``) start fresh interpreters, so a backend selected
    via ``MIPSOptions.kkt_solver`` must be registered at import time of a
    module the workers import — a registration done only in the parent's
    ``__main__`` is invisible to them.
    """
    if not name:
        raise ValueError("solver name must be non-empty")
    _SOLVERS[name] = factory


def make_kkt_solver(name: str, **kwargs) -> KKTSolver:
    """Instantiate the KKT backend registered under ``name``.

    ``kwargs`` are filtered against the factory's signature so callers (the
    MIPS loop) can pass the full option set uniformly: backends receive the
    parameters they support and the rest are dropped, regardless of which
    backend — built-in or registered — is selected.
    """
    try:
        factory = _SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown KKT solver {name!r}; available: {', '.join(available_kkt_solvers())}"
        ) from None
    if kwargs:
        try:
            params = inspect.signature(factory).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            params = None
        if params is not None and not any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        ):
            kwargs = {k: v for k, v in kwargs.items() if k in params}
    return factory(**kwargs)
