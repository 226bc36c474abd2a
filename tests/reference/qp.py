"""Convex quadratic-programming convenience wrapper around MIPS.

``qps_mips`` solves::

    min  0.5 xᵀ H x + cᵀ x
    s.t. A_eq x = b_eq
         A_in x <= b_in
         xmin <= x <= xmax

It gives the test suite analytically checkable problems to validate the
interior-point core against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.mips.options import MIPSOptions
from repro.mips.result import MIPSResult
from reference.mips_solver import mips


def qps_mips(
    H: Optional[np.ndarray | sp.spmatrix],
    c: np.ndarray,
    A_eq: Optional[np.ndarray | sp.spmatrix] = None,
    b_eq: Optional[np.ndarray] = None,
    A_in: Optional[np.ndarray | sp.spmatrix] = None,
    b_in: Optional[np.ndarray] = None,
    xmin: Optional[np.ndarray] = None,
    xmax: Optional[np.ndarray] = None,
    x0: Optional[np.ndarray] = None,
    options: Optional[MIPSOptions] = None,
) -> MIPSResult:
    """Solve a (convex) quadratic program with the MIPS solver.

    ``H`` may be ``None`` for a pure linear program.  Linear equality /
    inequality constraints are passed straight through as "nonlinear"
    constraints with constant Jacobians.  The start point is ``x0``, or the
    origin.
    """
    c = np.asarray(c, dtype=float)
    nx = c.size
    Hs = sp.csr_matrix((nx, nx)) if H is None else sp.csr_matrix(H)
    if Hs.shape != (nx, nx):
        raise ValueError("H must be square and match the size of c")

    Ae = sp.csr_matrix((0, nx)) if A_eq is None else sp.csr_matrix(A_eq)
    be = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    Ai = sp.csr_matrix((0, nx)) if A_in is None else sp.csr_matrix(A_in)
    bi = np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float)
    if Ae.shape[0] != be.size or Ai.shape[0] != bi.size:
        raise ValueError("constraint matrix / rhs size mismatch")

    def f_fcn(x: np.ndarray):
        Hx = Hs @ x
        f = 0.5 * float(x @ Hx) + float(c @ x)
        df = Hx + c
        return f, df, Hs

    has_constraints = Ae.shape[0] > 0 or Ai.shape[0] > 0

    def gh_fcn(x: np.ndarray):
        g = Ae @ x - be
        h = Ai @ x - bi
        return g, h, Ae, Ai

    def hess_fcn(x, lam_nl, mu_nl):
        return Hs

    x_start = np.zeros(nx) if x0 is None else np.asarray(x0, dtype=float)
    return mips(
        f_fcn,
        x_start,
        gh_fcn=gh_fcn if has_constraints else None,
        hess_fcn=hess_fcn if has_constraints else None,
        xmin=xmin,
        xmax=xmax,
        options=options,
    )
