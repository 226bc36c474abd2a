"""Construction helpers between MATPOWER-style matrices and :class:`Case`.

The concrete case modules (:mod:`repro.grid.cases`) store their data as
MATPOWER-style row lists because that format is compact and familiar; this
module converts those rows into the columnar :class:`repro.grid.Case` model.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.grid.components import (
    BranchTable,
    BusTable,
    Case,
    GenCostTable,
    GenTable,
)

def _matrix(rows: Iterable[Sequence[float]], min_cols: int, what: str) -> np.ndarray:
    mat = np.asarray([list(r) for r in rows], dtype=float)
    if mat.ndim != 2 or mat.shape[1] < min_cols:
        raise ValueError(f"{what} rows must have at least {min_cols} columns")
    return mat


def case_from_matpower(
    name: str,
    base_mva: float,
    bus_rows: Iterable[Sequence[float]],
    gen_rows: Iterable[Sequence[float]],
    branch_rows: Iterable[Sequence[float]],
    gencost_rows: Iterable[Sequence[float]],
) -> Case:
    """Build a :class:`Case` from MATPOWER-style row lists.

    ``bus_rows`` must have at least 13 columns, ``gen_rows`` at least 10,
    ``branch_rows`` at least 11 (``angmin``/``angmax`` default to ±360°) and
    ``gencost_rows`` follow ``[model, startup, shutdown, ncost, c_{n-1}..c_0]``.
    """
    bus = _matrix(bus_rows, 13, "bus")
    gen = _matrix(gen_rows, 10, "gen")
    branch = _matrix(branch_rows, 11, "branch")
    gencost = [list(map(float, row)) for row in gencost_rows]

    nl = branch.shape[0]
    if branch.shape[1] >= 13:
        angmin, angmax = branch[:, 11], branch[:, 12]
    else:
        angmin, angmax = np.full(nl, -360.0), np.full(nl, 360.0)

    bus_table = BusTable(
        bus_i=bus[:, 0],
        bus_type=bus[:, 1],
        Pd=bus[:, 2],
        Qd=bus[:, 3],
        Gs=bus[:, 4],
        Bs=bus[:, 5],
        area=bus[:, 6],
        Vm=bus[:, 7],
        Va=bus[:, 8],
        base_kv=bus[:, 9],
        zone=bus[:, 10],
        Vmax=bus[:, 11],
        Vmin=bus[:, 12],
    )
    gen_table = GenTable(
        bus=gen[:, 0],
        Pg=gen[:, 1],
        Qg=gen[:, 2],
        Qmax=gen[:, 3],
        Qmin=gen[:, 4],
        Vg=gen[:, 5],
        mbase=gen[:, 6],
        status=gen[:, 7],
        Pmax=gen[:, 8],
        Pmin=gen[:, 9],
    )
    branch_table = BranchTable(
        f_bus=branch[:, 0],
        t_bus=branch[:, 1],
        r=branch[:, 2],
        x=branch[:, 3],
        b=branch[:, 4],
        rate_a=branch[:, 5],
        ratio=branch[:, 8],
        angle=branch[:, 9],
        status=branch[:, 10],
        angmin=angmin,
        angmax=angmax,
    )

    ncost_max = max(int(row[3]) for row in gencost)
    coeffs = np.zeros((len(gencost), ncost_max))
    model = np.zeros(len(gencost), dtype=int)
    startup = np.zeros(len(gencost))
    shutdown = np.zeros(len(gencost))
    ncost = np.zeros(len(gencost), dtype=int)
    for i, row in enumerate(gencost):
        model[i] = int(row[0])
        startup[i] = row[1]
        shutdown[i] = row[2]
        ncost[i] = int(row[3])
        cs = row[4 : 4 + ncost[i]]
        if len(cs) != ncost[i]:
            raise ValueError("gencost row has fewer coefficients than ncost")
        # Right-align so the constant term always sits in the last column.
        coeffs[i, ncost_max - ncost[i] :] = cs
    gencost_table = GenCostTable(
        model=model, startup=startup, shutdown=shutdown, ncost=ncost, coeffs=coeffs
    )

    return Case(
        name=name,
        base_mva=float(base_mva),
        bus=bus_table,
        gen=gen_table,
        branch=branch_table,
        gencost=gencost_table,
    )
