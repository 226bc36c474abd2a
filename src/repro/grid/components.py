"""Columnar power-grid data model.

The data model follows the MATPOWER case format semantically (bus / generator
/ branch / generator-cost tables) but stores every column as a NumPy array
(struct-of-arrays) so the power-flow and OPF kernels can operate on whole
tables with vectorised expressions, as recommended by the HPC guides.

Bus types use the MATPOWER convention:

* ``1`` — PQ (load) bus
* ``2`` — PV (generator) bus
* ``3`` — reference (slack) bus
* ``4`` — isolated bus (not supported by the solvers; rejected by validation)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Optional

import numpy as np

#: MATPOWER bus-type codes.
PQ, PV, REF, ISOLATED = 1, 2, 3, 4

#: Generator-cost model codes (only polynomial costs are supported).
PW_LINEAR, POLYNOMIAL = 1, 2


def _as_float(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return np.atleast_1d(arr).copy()


def _as_int(values: Iterable[int]) -> np.ndarray:
    arr = np.asarray(values, dtype=int)
    return np.atleast_1d(arr).copy()


@dataclass
class BusTable:
    """Columnar bus data.

    Attributes mirror the MATPOWER bus matrix: ``Pd``/``Qd`` are the active /
    reactive demands in MW / MVAr, ``Gs``/``Bs`` the shunt conductance /
    susceptance in MW / MVAr at 1.0 p.u. voltage, ``Vm``/``Va`` the initial
    voltage magnitude (p.u.) and angle (degrees) and ``Vmax``/``Vmin`` the
    operating voltage limits in p.u.
    """

    bus_i: np.ndarray
    bus_type: np.ndarray
    Pd: np.ndarray
    Qd: np.ndarray
    Gs: np.ndarray
    Bs: np.ndarray
    Vm: np.ndarray
    Va: np.ndarray
    base_kv: np.ndarray
    Vmax: np.ndarray
    Vmin: np.ndarray
    area: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    zone: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self) -> None:
        self.bus_i = _as_int(self.bus_i)
        self.bus_type = _as_int(self.bus_type)
        for name in ("Pd", "Qd", "Gs", "Bs", "Vm", "Va", "base_kv", "Vmax", "Vmin"):
            setattr(self, name, _as_float(getattr(self, name)))
        n = self.n
        if self.area.size == 0:
            self.area = np.ones(n, dtype=int)
        if self.zone.size == 0:
            self.zone = np.ones(n, dtype=int)
        self.area = _as_int(self.area)
        self.zone = _as_int(self.zone)
        self._check_lengths()

    def _check_lengths(self) -> None:
        n = self.n
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr.shape != (n,):
                raise ValueError(
                    f"bus column {f.name!r} has shape {arr.shape}, expected ({n},)"
                )

    @property
    def n(self) -> int:
        """Number of buses."""
        return int(self.bus_i.shape[0])

    def copy(self) -> "BusTable":
        """Deep copy of the table."""
        return BusTable(**{f.name: getattr(self, f.name).copy() for f in fields(self)})


@dataclass
class GenTable:
    """Columnar generator data.

    ``bus`` holds external bus numbers (matching ``BusTable.bus_i``).  Power
    quantities are in MW / MVAr; ``Vg`` is the voltage set point in p.u.
    """

    bus: np.ndarray
    Pg: np.ndarray
    Qg: np.ndarray
    Qmax: np.ndarray
    Qmin: np.ndarray
    Vg: np.ndarray
    mbase: np.ndarray
    status: np.ndarray
    Pmax: np.ndarray
    Pmin: np.ndarray

    def __post_init__(self) -> None:
        self.bus = _as_int(self.bus)
        self.status = _as_int(self.status)
        for name in ("Pg", "Qg", "Qmax", "Qmin", "Vg", "mbase", "Pmax", "Pmin"):
            setattr(self, name, _as_float(getattr(self, name)))
        n = self.n
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr.shape != (n,):
                raise ValueError(
                    f"gen column {f.name!r} has shape {arr.shape}, expected ({n},)"
                )

    @property
    def n(self) -> int:
        """Number of generators (in-service or not)."""
        return int(self.bus.shape[0])

    def copy(self) -> "GenTable":
        """Deep copy of the table."""
        return GenTable(**{f.name: getattr(self, f.name).copy() for f in fields(self)})


@dataclass
class BranchTable:
    """Columnar branch (line / transformer) data.

    ``r``, ``x`` and ``b`` are the series resistance, series reactance and
    total line-charging susceptance in p.u.; ``rate_a`` is the long-term MVA
    rating (0 means unlimited); ``ratio`` is the off-nominal tap ratio
    (0 means a transmission line, i.e. ratio 1) and ``angle`` the phase-shift
    angle in degrees.
    """

    f_bus: np.ndarray
    t_bus: np.ndarray
    r: np.ndarray
    x: np.ndarray
    b: np.ndarray
    rate_a: np.ndarray
    ratio: np.ndarray
    angle: np.ndarray
    status: np.ndarray
    angmin: np.ndarray = field(default_factory=lambda: np.zeros(0))
    angmax: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        self.f_bus = _as_int(self.f_bus)
        self.t_bus = _as_int(self.t_bus)
        self.status = _as_int(self.status)
        for name in ("r", "x", "b", "rate_a", "ratio", "angle"):
            setattr(self, name, _as_float(getattr(self, name)))
        n = self.n
        if self.angmin.size == 0:
            self.angmin = np.full(n, -360.0)
        if self.angmax.size == 0:
            self.angmax = np.full(n, 360.0)
        self.angmin = _as_float(self.angmin)
        self.angmax = _as_float(self.angmax)
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr.shape != (n,):
                raise ValueError(
                    f"branch column {f.name!r} has shape {arr.shape}, expected ({n},)"
                )

    @property
    def n(self) -> int:
        """Number of branches."""
        return int(self.f_bus.shape[0])

    def copy(self) -> "BranchTable":
        """Deep copy of the table."""
        return BranchTable(
            **{f.name: getattr(self, f.name).copy() for f in fields(self)}
        )


@dataclass
class GenCostTable:
    """Polynomial generator-cost data.

    Only MATPOWER cost model ``2`` (polynomial) is supported.  ``coeffs`` is a
    ``(ng, ncost_max)`` array of coefficients in *descending* power order, so a
    quadratic cost row is ``[c2, c1, c0]`` and evaluates to
    ``c2 * Pg**2 + c1 * Pg + c0`` with ``Pg`` in MW.
    """

    model: np.ndarray
    startup: np.ndarray
    shutdown: np.ndarray
    ncost: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.model = _as_int(self.model)
        self.ncost = _as_int(self.ncost)
        self.startup = _as_float(self.startup)
        self.shutdown = _as_float(self.shutdown)
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float)).copy()
        n = self.n
        for name in ("startup", "shutdown", "ncost"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"gencost column {name!r} has wrong length")
        if self.coeffs.shape[0] != n:
            raise ValueError("gencost coeffs must have one row per generator")

    @property
    def n(self) -> int:
        """Number of cost rows (one per generator)."""
        return int(self.model.shape[0])

    def copy(self) -> "GenCostTable":
        """Deep copy of the table."""
        return GenCostTable(
            model=self.model.copy(),
            startup=self.startup.copy(),
            shutdown=self.shutdown.copy(),
            ncost=self.ncost.copy(),
            coeffs=self.coeffs.copy(),
        )


@dataclass
class Case:
    """A complete power-grid case: base MVA plus the four tables.

    The case keeps *external* bus numbering (arbitrary positive integers);
    :meth:`bus_index_map` provides the external-to-internal (0-based,
    consecutive) mapping the numerical kernels use.
    """

    name: str
    base_mva: float
    bus: BusTable
    gen: GenTable
    branch: BranchTable
    gencost: GenCostTable

    # ------------------------------------------------------------------ sizes
    @property
    def n_bus(self) -> int:
        """Number of buses."""
        return self.bus.n

    @property
    def n_gen(self) -> int:
        """Number of generators (including out-of-service units)."""
        return self.gen.n

    @property
    def n_branch(self) -> int:
        """Number of branches (including out-of-service branches)."""
        return self.branch.n

    # ------------------------------------------------------------- numbering
    def bus_index_map(self) -> Dict[int, int]:
        """Map external bus number -> internal 0-based index."""
        return {int(b): i for i, b in enumerate(self.bus.bus_i)}

    def gen_bus_indices(self) -> np.ndarray:
        """Internal bus index of each generator."""
        mapping = self.bus_index_map()
        return np.array([mapping[int(b)] for b in self.gen.bus], dtype=int)

    def branch_bus_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Internal (from, to) bus indices of each branch."""
        mapping = self.bus_index_map()
        f = np.array([mapping[int(b)] for b in self.branch.f_bus], dtype=int)
        t = np.array([mapping[int(b)] for b in self.branch.t_bus], dtype=int)
        return f, t

    def ref_bus_indices(self) -> np.ndarray:
        """Internal indices of reference (slack) buses."""
        return np.flatnonzero(self.bus.bus_type == REF)

    # ------------------------------------------------------------------ misc
    def copy(self) -> "Case":
        """Deep copy of the case."""
        return Case(
            name=self.name,
            base_mva=float(self.base_mva),
            bus=self.bus.copy(),
            gen=self.gen.copy(),
            branch=self.branch.copy(),
            gencost=self.gencost.copy(),
        )

    def with_loads(self, Pd: np.ndarray, Qd: np.ndarray, name: Optional[str] = None) -> "Case":
        """Return a copy of the case with bus loads replaced by ``Pd``/``Qd`` (MW/MVAr)."""
        Pd = np.asarray(Pd, dtype=float)
        Qd = np.asarray(Qd, dtype=float)
        if Pd.shape != (self.n_bus,) or Qd.shape != (self.n_bus,):
            raise ValueError("Pd/Qd must have one entry per bus")
        out = self.copy()
        out.bus.Pd = Pd.copy()
        out.bus.Qd = Qd.copy()
        if name is not None:
            out.name = name
        return out
