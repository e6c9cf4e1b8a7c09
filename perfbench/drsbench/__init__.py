"""Benchmark harness for drsplit: workloads, span tracer and correctness gates.

``tracer`` and ``metrics`` import neither numpy nor drsplit, so ``run.py``
loads them before its set-up timer starts; ``gates`` and ``workloads``
import drsplit and are loaded inside it.
"""
