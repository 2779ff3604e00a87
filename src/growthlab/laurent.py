"""Integer Laurent polynomials and kernel rewriting.

For a presentation on a stable letter t and one kernel letter x, each
relator with zero t-exponent sum rewrites to a word in the shifted
kernel generators x_i; abelianizing gives a Laurent polynomial, and the
normalized gcd over the relators is the polynomial invariant Delta.
Delta carries two facts used elsewhere: a kernel that is finitely
generated forces Delta monic at both ends, and the degree (top exponent
minus bottom exponent) bounds the first Betti number.

A Laurent polynomial shifted to bottom exponent 0 is an element of
Z[t] with nonzero constant term, so the gcd and the divisibility test
run on the Z[t] division of `_exact`.  The gcd takes each input's
shifted coefficient list once; Euclid and the exact-division re-check
of the result both read those lists, and the result is built from its
own list at the end.
"""

from __future__ import annotations

import math
from collections import namedtuple

from growthlab import GrowthlabError
from growthlab._exact import format_terms, poly_divmod, zx_gcd
from growthlab.words import Word

NOT_FG = "NotFG"
POSSIBLY_FG = "PossiblyFG"
# the most letters RewrittenRelator.format spells out
MAX_PRINTED_LETTERS = 10 ** 6


class LaurentError(GrowthlabError):
    pass


class RewriteError(LaurentError):
    pass


class LaurentPoly:
    """Sparse map exponent -> nonzero integer coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, c in items:
                c = d.get(e, 0) + c
                if c:
                    d[e] = c
                elif e in d:
                    del d[e]
        self.coeffs = d

    @classmethod
    def of_list(cls, low_to_high) -> "LaurentPoly":
        return cls({e: c for e, c in enumerate(low_to_high) if c})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise LaurentError("zero polynomial has no exponents")
        return min(self.coeffs)

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise LaurentError("zero polynomial has no exponents")
        return max(self.coeffs)

    @property
    def degree(self) -> int:
        """Top exponent minus bottom exponent."""
        return self.max_exp - self.min_exp

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def format(self) -> str:
        return format_terms(sorted(self.coeffs.items()))

    def __repr__(self):
        return f"LaurentPoly({self.format()})"


# ---------------------------------------------------------------------------
# gcd, exact division


def _to_list(p: LaurentPoly):
    """Shift bottom exponent to 0 and return low-to-high coefficients."""
    lo = p.min_exp
    hi = p.max_exp
    return [p.coeffs.get(e, 0) for e in range(lo, hi + 1)]


def divides(d: LaurentPoly, p: LaurentPoly) -> bool:
    """Whether d divides p in the Laurent ring (zero divides only zero)."""
    if d.is_zero():
        return p.is_zero()
    if p.is_zero():
        return True
    # the shifts leave both with a nonzero constant term, prime to t,
    # so divisibility in the Laurent ring is divisibility in Z[t]
    return not poly_divmod(_to_list(p), _to_list(d))[1]


def laurent_gcd(ps) -> LaurentPoly:
    """Normalized gcd: bottom exponent 0, positive top coefficient.

    The gcd and its exact-division re-check both run on the shifted
    coefficient lists, each taken once.  The result needs no further
    normalizing: ``zx_gcd`` gives a positive leading coefficient, and a
    divisor of a list with nonzero constant term has one too."""
    lists = [_to_list(p) for p in ps if not p.is_zero()]
    if not lists:
        raise LaurentError("gcd of an all-zero family is undefined")
    g = lists[0]
    if g[-1] < 0:
        g = [-c for c in g]
    for xs in lists[1:]:
        if g == [1]:
            break
        g = zx_gcd(g, xs)
    for xs in lists:
        if poly_divmod(xs, g)[1]:
            raise AssertionError("gcd candidate fails exact division")
    return LaurentPoly.of_list(g)


# ---------------------------------------------------------------------------
# rewriting


class RewrittenRelator(namedtuple("RewrittenRelator", "terms")):
    """terms: ordered (subscript, exponent) runs; the run (i, e) stands
    for x_i^e, that is |e| letters x_i or x_i^-1."""

    __slots__ = ()

    def format(self) -> str:
        """The runs spelled out letter by letter."""
        if not self.terms:
            return "<empty>"
        if sum(abs(e) for _, e in self.terms) > MAX_PRINTED_LETTERS:
            raise RewriteError("rewritten relator has more letters than the "
                               f"print ceiling {MAX_PRINTED_LETTERS}")
        out = []
        for i, e in self.terms:
            out.extend([f"x_{i}" if e > 0 else f"x_{i}^-1"] * abs(e))
        return " ".join(out)


def rs_rewrite(relator) -> RewrittenRelator:
    """Rewrite a zero-t-exponent relator over {t, x} in the shifted
    kernel letters: scanning left to right with running t-exponent h,
    each x^e emits the run (h, e), so the terms grow with the number of
    letters and not with their exponents."""
    w = Word.parse(relator) if isinstance(relator, str) else relator
    terms = []
    h = 0
    for name, e in w.letters:
        if name == "t":
            h += e
        elif name == "x":
            terms.append((h, e))
        else:
            raise RewriteError(f"unexpected letter {name!r}: relators use t and x only")
    if h != 0:
        raise RewriteError(f"t-exponent sum is {h}, not 0")
    return RewrittenRelator(tuple(terms))


def abelianize(r: RewrittenRelator) -> LaurentPoly:
    return LaurentPoly(list(r.terms))


def alexander_polynomial(relators) -> LaurentPoly:
    """Normalized gcd of the abelianized rewrites of the relators."""
    polys = [abelianize(rs_rewrite(r)) for r in relators]
    return laurent_gcd(polys)


# ---------------------------------------------------------------------------
# finite generation and the sticking relation


def monic_both_ends(p: LaurentPoly) -> bool:
    if p.is_zero():
        raise LaurentError("zero polynomial has no end coefficients")
    return abs(p.coeffs[p.min_exp]) == 1 and abs(p.coeffs[p.max_exp]) == 1


def fg_kernel_obstruction(p: LaurentPoly) -> str:
    """NotFG when an end coefficient is not a unit; PossiblyFG otherwise."""
    return POSSIBLY_FG if monic_both_ends(p) else NOT_FG


class StickingVerdict(namedtuple("StickingVerdict", "contradiction case detail")):
    __slots__ = ()


def sticking_contradiction(alpha: int, beta: int) -> StickingVerdict:
    """Resolve a chain that sticks with the relation x0^alpha x1^beta = e.

    The polynomial invariant of the pair must divide beta*t + alpha and
    be monic at both ends; with |beta| >= 2 the only such divisor is a
    unit, which contradicts a strictly ascending chain.
    """
    if alpha == 0 or beta == 0:
        raise LaurentError("degenerate relation: alpha and beta must be nonzero")
    if math.gcd(alpha, beta) != 1:
        raise LaurentError("alpha and beta must be coprime")
    if abs(beta) == 1:
        return StickingVerdict(
            False, "beta_unit",
            "leading coefficient is a unit, so the chain stabilizes at the first step")
    constraint = format_terms(((0, alpha), (1, beta)))
    return StickingVerdict(
        True, "delta_unit_forced",
        f"every monic-both-ends divisor of {constraint} is a unit, "
        "forcing first Betti number 0 against a strictly ascending chain")

