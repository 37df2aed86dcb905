"""The pipeline benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with::

    python3 pipebench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

See ``pipebench/README.md`` for the workloads, the metrics and how the
traced run attributes time to the program's layers.
"""
