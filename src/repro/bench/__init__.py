"""Benchmark harness utilities. See DESIGN.md S10."""

from repro.bench.harness import time_fn

__all__ = ["time_fn"]
