"""Compiler-flag autotuning toolkit.

Searches the space of on/off optimization flags for configurations that beat
a compiler's stock optimization level, either per program or across a whole
benchmark suite, with digest-based result caching, cross-validation and
nearest-neighbor prediction on top. A deterministic synthetic cost model
stands in for real hardware so every campaign is reproducible on a desk.
"""

__version__ = "0.1.0"
