"""Benchmark of the estimation engine and the probe service (see README.md)."""
