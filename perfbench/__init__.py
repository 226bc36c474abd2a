"""perfbench — the repository's one benchmark.

Drives only public functions of ``repro`` from the outside: four workloads,
end-to-end metrics hardened against run-to-run noise, and a per-layer
waterfall.  ``BENCHMARK.json`` at the repository root is the contract;
``perfbench/README.md`` explains every choice.  Entry point:
``python3 perfbench/run.py`` (or ``python -m perfbench``).
"""
