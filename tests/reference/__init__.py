"""Test-side reference code: what the tests compare ``repro`` against.

Nothing in ``src/repro`` imports from here.  The modules hold the independent
or matrix-form counterparts of production kernels, and the one-row adapters
that phrase small problems for the lockstep solver:

* :mod:`reference.mips_solver` / :mod:`reference.qp` — ``mips()`` and
  ``qps_mips``, scalar callbacks and dense QPs on ``mips_batch`` at width 1;
* :mod:`reference.opf_hessian` / :mod:`reference.powerflow_hessians` — the
  matrix-form Lagrangian Hessian the element kernels are checked against;
* :mod:`reference.powerflow` — Newton power flow and branch flows;
* :mod:`reference.matpower_io` — ``case_to_matpower``;
* :mod:`reference.sparse` — one data-plane row as a CSR matrix, and
  the sparsity-pattern test of the scalar adapters;
* :mod:`reference.kkt` — the SuperLU KKT solve ``LDLSolver`` is checked
  against, the in-process switch that runs ``mips_batch`` on it, the
  one-system ``solve`` with its ``KKTSolveError``, and the recorded KKT
  planes of a real solve;
* :mod:`reference.steps` — the in-process switch that runs every
  ``mips_batch`` row on MATPOWER's entry and fixed-σ step;
* :mod:`reference.faults` — the artifact-corruption builder;
* :mod:`reference.starts` — the NN-1 and train-mean warm starts the served
  retrieval start and the MTL are ranked against.
"""
