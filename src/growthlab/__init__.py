"""Exact-arithmetic workbench for word growth in split extensions.

Normal-form engines for free, free-abelian, Klein-bottle, solvable
Baumslag-Solitar, and K x| Z groups; ball-size tables with growth-rate
estimates; cyclic-pair decisions; Alexander polynomials over the integer
Laurent ring; spectral classification of integer matrices; and a
certificate search that turns the short-subgroup analysis into
checkable growth bounds.

The package root also holds ``binary_power``, the one square-and-multiply
loop: engine powers, word powers in the kernel and integer matrix powers
all call it, and every subcommand loads this module anyway.
"""

VERSION_STRING = "growth-lab/1"

__version__ = "0.1.0"


class GrowthlabError(Exception):
    """Base of every error growthlab raises for bad input: catch it to
    handle any of them.  A subclass that is also a `ValueError`,
    `KeyError` or `NotImplementedError` keeps that builtin base."""


def binary_power(x, k, multiply, one):
    """x**k for an integer k >= 0 by square-and-multiply, with
    ``multiply`` the product and ``one`` the identity, returned at k = 0.
    The first factor is taken as it is, not multiplied onto ``one``, so
    x**1 costs no product and is x itself."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else multiply(result, x)
        k >>= 1
        if k:
            x = multiply(x, x)
    return one if result is None else result
