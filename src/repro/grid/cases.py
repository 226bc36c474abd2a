"""Built-in test systems.

Two classic public IEEE/MATPOWER systems are embedded verbatim (``case9`` and
``case14``).  The larger systems used in the paper's Table II (30, 57, 118 and
300 buses) are produced by the deterministic synthetic generator in
:mod:`repro.grid.synthetic` with matching bus / generator / branch counts —
see ``DESIGN.md`` for the substitution rationale.

Use :func:`get_case` as the public entry point.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.grid.components import Case
from repro.grid.io import case_from_matpower
from repro.grid.validation import validate_case


def case9() -> Case:
    """WSCC 9-bus, 3-generator, 9-branch test system (MATPOWER ``case9``)."""
    bus = [
        [1, 3, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [2, 2, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [3, 2, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [4, 1, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [5, 1, 90, 30, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [6, 1, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [7, 1, 100, 35, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [8, 1, 0, 0, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
        [9, 1, 125, 50, 0, 0, 1, 1.0, 0, 345, 1, 1.1, 0.9],
    ]
    gen = [
        [1, 72.3, 27.03, 300, -300, 1.04, 100, 1, 250, 10],
        [2, 163.0, 6.54, 300, -300, 1.025, 100, 1, 300, 10],
        [3, 85.0, -10.95, 300, -300, 1.025, 100, 1, 270, 10],
    ]
    branch = [
        [1, 4, 0.0, 0.0576, 0.0, 250, 250, 250, 0, 0, 1, -360, 360],
        [4, 5, 0.017, 0.092, 0.158, 250, 250, 250, 0, 0, 1, -360, 360],
        [5, 6, 0.039, 0.17, 0.358, 150, 150, 150, 0, 0, 1, -360, 360],
        [3, 6, 0.0, 0.0586, 0.0, 300, 300, 300, 0, 0, 1, -360, 360],
        [6, 7, 0.0119, 0.1008, 0.209, 150, 150, 150, 0, 0, 1, -360, 360],
        [7, 8, 0.0085, 0.072, 0.149, 250, 250, 250, 0, 0, 1, -360, 360],
        [8, 2, 0.0, 0.0625, 0.0, 250, 250, 250, 0, 0, 1, -360, 360],
        [8, 9, 0.032, 0.161, 0.306, 250, 250, 250, 0, 0, 1, -360, 360],
        [9, 4, 0.01, 0.085, 0.176, 250, 250, 250, 0, 0, 1, -360, 360],
    ]
    gencost = [
        [2, 1500, 0, 3, 0.11, 5.0, 150],
        [2, 2000, 0, 3, 0.085, 1.2, 600],
        [2, 3000, 0, 3, 0.1225, 1.0, 335],
    ]
    case = case_from_matpower("case9", 100.0, bus, gen, branch, gencost)
    validate_case(case)
    return case


def case14() -> Case:
    """IEEE 14-bus test system (MATPOWER ``case14``).

    The MATPOWER distribution ships the case without branch MVA ratings
    (``rateA = 0`` meaning unlimited); we keep that convention so the AC-OPF
    inequality set is dominated by voltage and generation limits, exactly as
    in the original case.
    """
    bus = [
        [1, 3, 0.0, 0.0, 0, 0, 1, 1.060, 0.0, 0, 1, 1.06, 0.94],
        [2, 2, 21.7, 12.7, 0, 0, 1, 1.045, -4.98, 0, 1, 1.06, 0.94],
        [3, 2, 94.2, 19.0, 0, 0, 1, 1.010, -12.72, 0, 1, 1.06, 0.94],
        [4, 1, 47.8, -3.9, 0, 0, 1, 1.019, -10.33, 0, 1, 1.06, 0.94],
        [5, 1, 7.6, 1.6, 0, 0, 1, 1.020, -8.78, 0, 1, 1.06, 0.94],
        [6, 2, 11.2, 7.5, 0, 0, 1, 1.070, -14.22, 0, 1, 1.06, 0.94],
        [7, 1, 0.0, 0.0, 0, 0, 1, 1.062, -13.37, 0, 1, 1.06, 0.94],
        [8, 2, 0.0, 0.0, 0, 0, 1, 1.090, -13.36, 0, 1, 1.06, 0.94],
        [9, 1, 29.5, 16.6, 0, 19, 1, 1.056, -14.94, 0, 1, 1.06, 0.94],
        [10, 1, 9.0, 5.8, 0, 0, 1, 1.051, -15.10, 0, 1, 1.06, 0.94],
        [11, 1, 3.5, 1.8, 0, 0, 1, 1.057, -14.79, 0, 1, 1.06, 0.94],
        [12, 1, 6.1, 1.6, 0, 0, 1, 1.055, -15.07, 0, 1, 1.06, 0.94],
        [13, 1, 13.5, 5.8, 0, 0, 1, 1.050, -15.16, 0, 1, 1.06, 0.94],
        [14, 1, 14.9, 5.0, 0, 0, 1, 1.036, -16.04, 0, 1, 1.06, 0.94],
    ]
    gen = [
        [1, 232.4, -16.9, 10.0, 0.0, 1.060, 100, 1, 332.4, 0],
        [2, 40.0, 42.4, 50.0, -40.0, 1.045, 100, 1, 140.0, 0],
        [3, 0.0, 23.4, 40.0, 0.0, 1.010, 100, 1, 100.0, 0],
        [6, 0.0, 12.2, 24.0, -6.0, 1.070, 100, 1, 100.0, 0],
        [8, 0.0, 17.4, 24.0, -6.0, 1.090, 100, 1, 100.0, 0],
    ]
    branch = [
        [1, 2, 0.01938, 0.05917, 0.0528, 0, 0, 0, 0, 0, 1, -360, 360],
        [1, 5, 0.05403, 0.22304, 0.0492, 0, 0, 0, 0, 0, 1, -360, 360],
        [2, 3, 0.04699, 0.19797, 0.0438, 0, 0, 0, 0, 0, 1, -360, 360],
        [2, 4, 0.05811, 0.17632, 0.0340, 0, 0, 0, 0, 0, 1, -360, 360],
        [2, 5, 0.05695, 0.17388, 0.0346, 0, 0, 0, 0, 0, 1, -360, 360],
        [3, 4, 0.06701, 0.17103, 0.0128, 0, 0, 0, 0, 0, 1, -360, 360],
        [4, 5, 0.01335, 0.04211, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [4, 7, 0.0, 0.20912, 0.0, 0, 0, 0, 0.978, 0, 1, -360, 360],
        [4, 9, 0.0, 0.55618, 0.0, 0, 0, 0, 0.969, 0, 1, -360, 360],
        [5, 6, 0.0, 0.25202, 0.0, 0, 0, 0, 0.932, 0, 1, -360, 360],
        [6, 11, 0.09498, 0.19890, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [6, 12, 0.12291, 0.25581, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [6, 13, 0.06615, 0.13027, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [7, 8, 0.0, 0.17615, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [7, 9, 0.0, 0.11001, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [9, 10, 0.03181, 0.08450, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [9, 14, 0.12711, 0.27038, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [10, 11, 0.08205, 0.19207, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [12, 13, 0.22092, 0.19988, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
        [13, 14, 0.17093, 0.34802, 0.0, 0, 0, 0, 0, 0, 1, -360, 360],
    ]
    gencost = [
        [2, 0, 0, 3, 0.0430293, 20.0, 0.0],
        [2, 0, 0, 3, 0.25, 20.0, 0.0],
        [2, 0, 0, 3, 0.01, 40.0, 0.0],
        [2, 0, 0, 3, 0.01, 40.0, 0.0],
        [2, 0, 0, 3, 0.01, 40.0, 0.0],
    ]
    case = case_from_matpower("case14", 100.0, bus, gen, branch, gencost)
    validate_case(case)
    return case


# --------------------------------------------------------------------------
# Registry.  Synthetic Table-II systems are registered lazily to avoid an
# import cycle (synthetic.py uses the DC power flow to calibrate ratings).
# --------------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], Case]] = {
    "case9": case9,
    "case14": case14,
}


def _register_synthetic() -> None:
    from repro.grid import synthetic

    _REGISTRY.setdefault("case30s", lambda: synthetic.case30s())
    _REGISTRY.setdefault("case57s", lambda: synthetic.case57s())
    _REGISTRY.setdefault("case118s", lambda: synthetic.case118s())
    _REGISTRY.setdefault("case300s", lambda: synthetic.case300s())


def get_case(name: str) -> Case:
    """Return a freshly-constructed built-in case by name.

    Recognised names: ``case9``, ``case14`` (exact IEEE data) and ``case30s``,
    ``case57s``, ``case118s``, ``case300s`` (synthetic Table-II equivalents).
    """
    _register_synthetic()
    try:
        builder = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown case {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from exc
    return builder()
