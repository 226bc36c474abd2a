"""MIPS for one problem: scalar callbacks on the lockstep interior-point loop.

:func:`mips` solves one constrained nonlinear program with MATPOWER's MIPS
method (Wang et al.), the numerical engine the paper accelerates.  It owns no
iteration of its own: it is the width-1 case of
:func:`repro.mips.batch.mips_batch`.  The scalar callbacks are wrapped into
batched ones that exchange one-row data planes on fixed sparsity templates,
so a single problem and a batch of problems run the same loop, the same KKT
assembly and the same linear algebra, and record the same per-iteration
history and phase split (callback evaluation / assembly / factorisation /
back-substitution) for the Fig. 5 and Fig. 10 analyses.

The templates are the patterns of one evaluation at the start point (clipped
into the bounds): the constraint Jacobians, and the Lagrangian Hessian with
unit multipliers so that every constraint's curvature is in it.  A dense
``ndarray`` declares every entry, a sparse matrix its stored entries
(explicit zeros included).  Later evaluations may leave template entries out
— they read as zero — but a nonzero entry outside its template raises
:class:`ValueError`: the KKT pattern is fixed for the whole solve.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.mips.batch import mips_batch
from repro.mips.options import MIPSOptions
from repro.mips.result import MIPSResult
from repro.utils.sparse import _canonical_csr, csr_rows, same_pattern

#: Objective callback: ``x -> (f, df)`` or ``(f, df, d2f)``.
ObjectiveFn = Callable[[np.ndarray], Tuple]
#: Constraint callback: ``x -> (g, h, Jg, Jh)`` with Jacobians in standard
#: row-per-constraint orientation (``(n_con, n_x)`` sparse or dense matrices).
ConstraintFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, sp.spmatrix, sp.spmatrix]]
#: Lagrangian-Hessian callback: ``(x, lam_nl, mu_nl, cost_mult) -> (n_x, n_x)`` matrix.
HessianFn = Callable[[np.ndarray, np.ndarray, np.ndarray, float], sp.spmatrix]


def _csr(matrix, n_cols: int, name: str) -> sp.csr_matrix:
    """Canonical CSR of a callback matrix; a dense array keeps every entry."""
    if sp.issparse(matrix):
        m = _canonical_csr(matrix)
    else:
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        rows, cols = a.shape
        m = sp.csr_matrix(
            (a.ravel(), np.tile(np.arange(cols), rows), np.arange(rows + 1) * cols),
            shape=a.shape,
        )
    if m.shape[1] != n_cols:
        raise ValueError(f"{name} has shape {m.shape}; expected {n_cols} columns")
    return m


class _Template:
    """A callback matrix's sparsity template, fixed by its first evaluation."""

    def __init__(self, name: str, matrix, n_cols: int) -> None:
        self.name = name
        self.matrix = _csr(matrix, n_cols, name)
        self._keys = csr_rows(self.matrix).astype(np.int64) * n_cols + self.matrix.indices

    def plane(self, matrix) -> np.ndarray:
        """``matrix``'s values in template storage order, as a ``(1, nnz)`` plane."""
        t = self.matrix
        m = _csr(matrix, t.shape[1], self.name)
        if m.shape != t.shape:
            raise ValueError(f"{self.name} changed shape from {t.shape} to {m.shape}")
        if same_pattern(m, t.indptr, t.indices):
            return m.data[None, :]
        keys = csr_rows(m).astype(np.int64) * t.shape[1] + m.indices
        pos = np.searchsorted(self._keys, keys)
        inside = pos < self._keys.size
        inside[inside] = self._keys[pos[inside]] == keys[inside]
        if np.any(m.data[~inside] != 0):
            raise ValueError(
                f"{self.name} has a nonzero entry outside the sparsity template "
                "of its first evaluation"
            )
        plane = np.zeros((1, t.nnz))
        plane[0, pos[inside]] = m.data[inside]
        return plane


def mips(
    f_fcn: ObjectiveFn,
    x0: np.ndarray,
    gh_fcn: Optional[ConstraintFn] = None,
    hess_fcn: Optional[HessianFn] = None,
    xmin: Optional[np.ndarray] = None,
    xmax: Optional[np.ndarray] = None,
    lam0: Optional[np.ndarray] = None,
    mu0: Optional[np.ndarray] = None,
    z0: Optional[np.ndarray] = None,
    options: Optional[MIPSOptions] = None,
    deadline: Optional[float] = None,
) -> MIPSResult:
    """Solve a constrained nonlinear program with the MIPS interior-point method.

    Parameters
    ----------
    f_fcn:
        Objective callback returning ``(f, df)`` (or ``(f, df, d2f)``; the
        Hessian entry is used only when ``hess_fcn`` is omitted, i.e. for
        problems without nonlinear constraints).
    x0:
        Initial primal point.
    gh_fcn:
        Nonlinear constraint callback returning ``(g, h, Jg, Jh)`` where
        ``g(x) = 0`` and ``h(x) <= 0`` and the Jacobians have one row per
        constraint.  ``None`` for bound-only problems.
    hess_fcn:
        Lagrangian Hessian callback ``(x, lam_nl, mu_nl, cost_mult)`` → matrix.
        Required when ``gh_fcn`` is supplied.
    xmin, xmax:
        Variable bounds (``±inf`` allowed).  Components with
        ``xmin == xmax`` are treated as equality constraints.
    lam0, mu0, z0:
        Optional warm-start values for the equality multipliers, inequality
        multipliers and slacks *in the internal ordering* (nonlinear rows
        first, then bound rows) — this is the interface Smart-PGSim's
        predicted warm-start point feeds.
    options:
        :class:`MIPSOptions`; defaults match MATPOWER.  ``kkt_solver``
        selects the linear-solver backend for the Newton systems.
    deadline:
        Optional absolute wall deadline (``time.monotonic()`` clock).
        Checked cooperatively between iterations; an expired deadline ends
        the solve with ``timed_out=True`` instead of raising, so serving
        requests degrade into structured outcomes.  Composes with the
        relative per-solve budget ``options.max_wall_seconds``.

    Jacobian and Hessian patterns are fixed by the first evaluation (see the
    module docstring).
    """
    opt = options or MIPSOptions()
    x0 = np.asarray(x0, dtype=float)
    nx = x0.size
    xmin = np.full(nx, -np.inf) if xmin is None else np.asarray(xmin, dtype=float)
    xmax = np.full(nx, np.inf) if xmax is None else np.asarray(xmax, dtype=float)
    if xmin.shape != (nx,) or xmax.shape != (nx,):
        raise ValueError("xmin/xmax must match the size of x0")
    if gh_fcn is not None and hess_fcn is None:
        raise ValueError("hess_fcn is required when nonlinear constraints are present")

    x = np.clip(x0, xmin, xmax)
    # The last objective evaluation and its point.  An evaluation at the same
    # point reuses it: the loop's first evaluation reuses the template
    # set-up's, and without hess_fcn the Hessian step reads the ``d2f`` of
    # the evaluation it follows.
    last = [x, f_fcn(x)]

    def objective(point: np.ndarray) -> Tuple:
        if not np.array_equal(last[0], point):
            last[:] = point.copy(), f_fcn(point)
        return last[1]

    jg = jh = None
    n_eq_nl = n_ineq_nl = 0
    if gh_fcn is not None:
        _, _, Jg, Jh = gh_fcn(x)
        jg, jh = _Template("Jg", Jg, nx), _Template("Jh", Jh, nx)
        n_eq_nl, n_ineq_nl = jg.matrix.shape[0], jh.matrix.shape[0]
    if hess_fcn is not None:
        hess = _Template(
            "Hessian", hess_fcn(x, np.ones(n_eq_nl), np.ones(n_ineq_nl), opt.cost_mult), nx
        )
    elif len(last[1]) != 3:
        raise ValueError("no Hessian available: provide hess_fcn or a 3-tuple objective")
    else:
        hess = _Template("Hessian", last[1][2], nx)

    def f_rows(X: np.ndarray, idx: np.ndarray):
        f, df = objective(X[0])[:2]
        return np.array([float(f)]), np.asarray(df, dtype=float)[None, :]

    def gh_rows(X: np.ndarray, idx: np.ndarray):
        g, h, Jg, Jh = gh_fcn(X[0])
        g = np.asarray(g, dtype=float)[None, :]
        h = np.asarray(h, dtype=float)[None, :]
        return g, h, jg.plane(Jg), jh.plane(Jh)

    def hess_rows(X, lam_nl, mu_nl, cost_mult, idx):
        if hess_fcn is not None:
            return hess.plane(hess_fcn(X[0], lam_nl[0], mu_nl[0], cost_mult))
        return hess.plane(objective(X[0])[2]) * cost_mult

    def row(v: Optional[np.ndarray]) -> Optional[np.ndarray]:
        return None if v is None else np.asarray(v, dtype=float)[None, :]

    (result,) = mips_batch(
        f_rows,
        x0[None, :],
        gh_fcn=None if gh_fcn is None else gh_rows,
        hess_fcn=hess_rows,
        jg_template=None if jg is None else jg.matrix,
        jh_template=None if jh is None else jh.matrix,
        hess_template=hess.matrix,
        xmin=xmin,
        xmax=xmax,
        lam0=row(lam0),
        mu0=row(mu0),
        z0=row(z0),
        options=opt,
        deadline=deadline,
    )
    return result
