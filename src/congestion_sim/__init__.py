"""1D periodic finite-volume simulator for a generalized Aw-Rascle system.

Density and desired velocity evolve with a power-law offset p(rho) =
rho**gamma; sweeps over growing gamma expose the hard-congestion limit.
"""
__version__ = "0.1.0"
