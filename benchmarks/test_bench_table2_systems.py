"""Table II — test-system configurations.

Regenerates the (buses, generators, branches, #λ, #µ(Z)) table for every
test system.  The multiplier counts are derived from the OPF model exactly as
MIPS sees them (2·nb power-balance rows plus the fixed reference angle for λ;
branch-flow plus variable-bound rows for µ/Z).
"""

import numpy as np

from repro.grid import get_case
from repro.opf import OPFModel

SYSTEMS = ["case9", "case14", "case30s", "case57s", "case118s", "case300s"]

#: Paper values for the five Table II systems (buses, gens, branches, #λ, #µ).
PAPER_TABLE2 = {
    "case14": (14, 5, 20, 29, 48),
    "case30s": (30, 6, 41, 61, 166),
    "case57s": (57, 7, 80, 115, 142),
    "case118s": (118, 54, 185, 237, 452),
    "case300s": (300, 69, 411, 601, 876),
}


def _multiplier_counts(model: OPFModel) -> tuple[int, int]:
    xmin, xmax = model.bounds()
    fixed = np.isfinite(xmin) & np.isfinite(xmax) & (np.abs(xmax - xmin) <= 1e-10)
    n_lambda = model.n_eq_nonlin + int(fixed.sum())
    n_mu = (
        model.n_ineq_nonlin
        + int(np.sum(np.isfinite(xmax) & ~fixed))
        + int(np.sum(np.isfinite(xmin) & ~fixed))
    )
    return n_lambda, n_mu


def test_bench_table2_model_construction():
    """OPF-model construction (admittances + bounds) on the largest system."""
    model = OPFModel(get_case("case300s"))
    assert model.idx.nx == 2 * 300 + 2 * 69


def test_bench_table2_counts():
    """Print the Table II rows and check them against the paper's bookkeeping."""
    rows = {}
    for name in SYSTEMS:
        case = get_case(name)
        n_lambda, n_mu = _multiplier_counts(OPFModel(case))
        rows[name] = (case.n_bus, case.n_gen, case.n_branch, n_lambda, n_mu)

    print("\nTable II — test-system configurations")
    print(f"{'system':>10} {'buses':>6} {'gens':>5} {'branches':>9} {'#lambda':>8} {'#mu(Z)':>7}")
    for name, row in rows.items():
        print(f"{name:>10} {row[0]:>6} {row[1]:>5} {row[2]:>9} {row[3]:>8} {row[4]:>7}")

    # #λ is structural (2·nb + 1) and must match the paper exactly for every system.
    for name, (nb, ng, nl, n_lambda, n_mu) in rows.items():
        assert n_lambda == 2 * nb + 1
    # The 14-bus system uses exact IEEE data, so its µ count matches the paper too.
    assert rows["case14"][4] == PAPER_TABLE2["case14"][4]
    # Synthetic systems match the paper's bus/generator/branch counts by construction.
    for name in ("case30s", "case57s", "case118s", "case300s"):
        assert rows[name][:3] == PAPER_TABLE2[name][:3]
