"""Exact-arithmetic workbench for word growth in split extensions.

Normal-form engines for free, free-abelian, Klein-bottle, solvable
Baumslag-Solitar, and K x| Z groups; ball-size tables with growth-rate
estimates; cyclic-pair decisions; Alexander polynomials over the integer
Laurent ring; spectral classification of integer matrices; and a
certificate search that turns the short-subgroup analysis into
checkable growth bounds.
"""

VERSION_STRING = "growth-lab/1"

__version__ = "0.1.0"


class GrowthlabError(Exception):
    """Base of every error growthlab raises for bad input: catch it to
    handle any of them.  A subclass that is also a `ValueError`,
    `KeyError` or `NotImplementedError` keeps that builtin base."""
