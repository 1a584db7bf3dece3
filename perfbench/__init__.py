"""Benchmark of anchorloc: workloads, output checks and layer tracing."""
