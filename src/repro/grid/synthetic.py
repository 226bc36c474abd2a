"""Deterministic synthetic test-system generator.

The paper evaluates on the IEEE 30/57/118/300-bus MATPOWER cases.  The exact
impedance tables of the larger cases are not available in this offline
environment, so this module builds *synthetic but realistic* meshed systems
with the same bus / generator / branch counts (Table II) and with the
structural properties that drive the Smart-PGSim experiments:

* connected meshed topology (spanning backbone + chords),
* realistic per-unit impedances and a mix of lines and transformers,
* loads at roughly half of total generation capacity,
* diverse quadratic generation costs (so the OPF has a non-trivial dispatch),
* branch MVA ratings calibrated from a DC power flow of the nominal dispatch
  so a realistic subset of flow constraints is active but the nominal problem
  stays feasible under the ±10 % load sampling used for training data.

Generation is fully deterministic given the configuration seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.grid.components import Case
from repro.grid.io import case_from_matpower
from repro.grid.validation import validate_case
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class SyntheticGridConfig:
    """Configuration of the synthetic generator.

    Parameters mirror the quantities listed in Table II; everything else is a
    modelling knob with defaults chosen to keep the AC-OPF feasible over the
    ±10 % load-sampling range used by the data generator.
    """

    n_bus: int
    n_gen: int
    n_branch: int
    seed: int = 0
    name: Optional[str] = None
    base_mva: float = 100.0
    base_kv: float = 138.0
    #: Fraction of total generation capacity consumed by the nominal load.
    load_factor: float = 0.5
    #: Mean nominal active load per load bus, in MW.
    mean_load_mw: float = 12.0
    #: Fraction of buses that carry load.
    load_bus_fraction: float = 0.75
    #: Fraction of branches modelled as transformers (off-nominal tap).
    transformer_fraction: float = 0.1
    #: Multiplier applied to nominal DC branch flows to obtain MVA ratings.
    rating_margin: float = 1.9
    #: Minimum branch rating in MVA (avoids tiny ratings on lightly used lines).
    rating_floor_mva: float = 15.0
    vmax: float = 1.06
    vmin: float = 0.94

    def __post_init__(self) -> None:
        if self.n_bus < 3:
            raise ValueError("need at least 3 buses")
        if not 1 <= self.n_gen <= self.n_bus:
            raise ValueError("n_gen must be in [1, n_bus]")
        if self.n_branch < self.n_bus - 1:
            raise ValueError("n_branch must be at least n_bus - 1 for connectivity")
        if not 0 < self.load_factor < 1:
            raise ValueError("load_factor must be in (0, 1)")


def _build_topology(cfg: SyntheticGridConfig, rng: np.random.Generator) -> np.ndarray:
    """Return an (n_branch, 2) array of 0-based (from, to) bus indices.

    A spanning backbone guarantees connectivity; remaining branches are chords
    drawn preferentially between electrically "nearby" buses (small index
    distance) to mimic the locality of real transmission networks.
    """
    edges = []
    # Spanning backbone: bus i attaches to a random earlier bus within a window.
    for i in range(1, cfg.n_bus):
        lo = max(0, i - 6)
        j = int(rng.integers(lo, i))
        edges.append((j, i))
    # Chords.
    existing = set(map(tuple, edges))
    attempts = 0
    while len(edges) < cfg.n_branch and attempts < 50 * cfg.n_branch:
        attempts += 1
        a = int(rng.integers(0, cfg.n_bus))
        span = int(rng.integers(2, max(3, cfg.n_bus // 4)))
        b = min(cfg.n_bus - 1, a + span)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in existing:
            continue
        existing.add(key)
        edges.append(key)
    # If the locality heuristic ran out of candidates, fall back to arbitrary pairs
    # (parallel circuits allowed, as in real systems).
    while len(edges) < cfg.n_branch:
        a, b = rng.integers(0, cfg.n_bus, size=2)
        if a != b:
            edges.append((int(min(a, b)), int(max(a, b))))
    return np.asarray(edges[: cfg.n_branch], dtype=int)


def generate_case(cfg: SyntheticGridConfig) -> Case:
    """Build a validated synthetic :class:`Case` from ``cfg``."""
    rng = ensure_rng(cfg.seed)
    name = cfg.name or f"synthetic{cfg.n_bus}"

    edges = _build_topology(cfg, rng)
    nl, nb, ng = cfg.n_branch, cfg.n_bus, cfg.n_gen

    # ------------------------------------------------------------- branches
    x = rng.uniform(0.03, 0.22, size=nl)
    r = x * rng.uniform(0.10, 0.35, size=nl)
    b = rng.uniform(0.0, 0.06, size=nl)
    ratio = np.zeros(nl)
    is_xfmr = rng.random(nl) < cfg.transformer_fraction
    ratio[is_xfmr] = rng.uniform(0.96, 1.04, size=int(is_xfmr.sum()))
    b[is_xfmr] = 0.0

    # ----------------------------------------------------------- generators
    # Generator buses: bus 0 is always the reference bus with a generator.
    gen_buses = np.concatenate(
        ([0], rng.choice(np.arange(1, nb), size=ng - 1, replace=False))
    )
    gen_buses = np.sort(gen_buses)

    # ---------------------------------------------------------------- loads
    n_load_buses = max(1, int(round(cfg.load_bus_fraction * nb)))
    load_buses = rng.choice(np.arange(nb), size=n_load_buses, replace=False)
    load_weights = rng.uniform(0.4, 1.6, size=n_load_buses)
    total_load = cfg.mean_load_mw * n_load_buses
    Pd = np.zeros(nb)
    Pd[load_buses] = total_load * load_weights / load_weights.sum()
    power_factor_tan = rng.uniform(0.25, 0.45, size=nb)
    Qd = Pd * power_factor_tan

    # Generator capacities: lognormal weights scaled to the target load factor.
    cap_weights = rng.lognormal(mean=0.0, sigma=0.45, size=ng)
    total_capacity = total_load / cfg.load_factor
    Pmax = total_capacity * cap_weights / cap_weights.sum()
    Pmax = np.maximum(Pmax, 1.2 * total_load / ng / 4)  # avoid degenerate tiny units
    Pmin = np.zeros(ng)
    Qmax = 0.6 * Pmax
    Qmin = -0.4 * Pmax

    # Nominal dispatch proportional to capacity (used only to calibrate ratings
    # and to seed the default operating point).
    Pg0 = Pmax * (total_load / Pmax.sum())

    # ------------------------------------------------------------ bus table
    bus_type = np.ones(nb, dtype=int)
    bus_type[gen_buses] = 2
    bus_type[0] = 3
    bus_rows = [
        [
            i + 1,
            int(bus_type[i]),
            float(Pd[i]),
            float(Qd[i]),
            0.0,
            0.0,
            1,
            1.0,
            0.0,
            cfg.base_kv,
            1,
            cfg.vmax,
            cfg.vmin,
        ]
        for i in range(nb)
    ]

    gen_rows = [
        [
            int(gen_buses[g]) + 1,
            float(Pg0[g]),
            0.0,
            float(Qmax[g]),
            float(Qmin[g]),
            1.0,
            cfg.base_mva,
            1,
            float(Pmax[g]),
            float(Pmin[g]),
        ]
        for g in range(ng)
    ]

    # Quadratic costs with diverse marginal prices so dispatch is non-trivial.
    c2 = rng.uniform(0.01, 0.12, size=ng)
    c1 = rng.uniform(8.0, 40.0, size=ng)
    gencost_rows = [[2, 0, 0, 3, float(c2[g]), float(c1[g]), 0.0] for g in range(ng)]

    branch_rows = [
        [
            int(edges[l, 0]) + 1,
            int(edges[l, 1]) + 1,
            float(r[l]),
            float(x[l]),
            float(b[l]),
            0.0,  # rating filled in after DC calibration
            0.0,
            0.0,
            float(ratio[l]),
            0.0,
            1,
            -360,
            360,
        ]
        for l in range(nl)
    ]

    case = case_from_matpower(
        name, cfg.base_mva, bus_rows, gen_rows, branch_rows, gencost_rows
    )

    # -------------------------------------------------- rating calibration
    # DC power flow of the nominal dispatch gives per-branch MW flows; ratings
    # are a margin above that so the nominal OPF is comfortably feasible while
    # heavier-than-nominal samples can activate a subset of the constraints.
    from repro.powerflow.dc import dc_power_flow

    Pg_bus = np.zeros(nb)
    np.add.at(Pg_bus, gen_buses, Pg0)
    flows = dc_power_flow(case, Pg_bus - Pd)
    rating = np.maximum(cfg.rating_margin * np.abs(flows), cfg.rating_floor_mva)
    case.branch.rate_a = rating

    validate_case(case)
    return case


# ---------------------------------------------------------------------------
# Table-II equivalents.  Counts follow the paper: (buses, generators, branches).
# ---------------------------------------------------------------------------
def case30s(seed: int = 30) -> Case:
    """Synthetic 30-bus system with Table II counts (30 buses, 6 gens, 41 branches)."""
    return generate_case(
        SyntheticGridConfig(n_bus=30, n_gen=6, n_branch=41, seed=seed, name="case30s")
    )


def case57s(seed: int = 57) -> Case:
    """Synthetic 57-bus system with Table II counts (57 buses, 7 gens, 80 branches)."""
    return generate_case(
        SyntheticGridConfig(n_bus=57, n_gen=7, n_branch=80, seed=seed, name="case57s")
    )


def case118s(seed: int = 118) -> Case:
    """Synthetic 118-bus system with Table II counts (118 buses, 54 gens, 185 branches)."""
    return generate_case(
        SyntheticGridConfig(
            n_bus=118, n_gen=54, n_branch=185, seed=seed, name="case118s"
        )
    )


def case300s(seed: int = 300) -> Case:
    """Synthetic 300-bus system with Table II counts (300 buses, 69 gens, 411 branches)."""
    return generate_case(
        SyntheticGridConfig(
            n_bus=300, n_gen=69, n_branch=411, seed=seed, name="case300s"
        )
    )
