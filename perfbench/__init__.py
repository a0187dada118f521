"""Benchmark of tca_lab; see README.md in this directory."""
