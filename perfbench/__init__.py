"""The repository's benchmark: three seeded workloads, end-to-end
metrics timed with tracing off, and a traced run that times each layer
from outside.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
