"""Constrained adaptive filtering with logarithmic-cost error kernels."""

__version__ = "0.1.0"
