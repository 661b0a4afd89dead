"""Bit-exact simulation and error analysis of approximate array multipliers."""

__version__ = "0.1.0"
