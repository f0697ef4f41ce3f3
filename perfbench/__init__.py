"""One benchmark for the repository: seeded workloads driven through
``repro.connect()``, end-to-end metrics with tracing off, and a per-layer
ledger from spans the benchmark records around each layer's public
functions.  Run ``python3 perfbench/run.py --help``; the metrics are
described in ``perfbench/GLOSSARY.md``.
"""
