"""Word-growth tables over finite generating sets.

gamma(n) counts group elements whose word length over the chosen
generating set (closed under inverses) is at most n, so gamma(0) = 1 and
the sequence is nondecreasing and submultiplicative.  Estimates
gamma(n)**(1/n) bound the growth rate of the group from above.
"""

from __future__ import annotations

from collections import namedtuple

from growthlab import GrowthlabError

DEFAULT_BUDGET = 50_000_000


class GrowthError(GrowthlabError):
    pass


class GrowthTable(namedtuple("GrowthTable", "radius counts truncated notes",
                             defaults=(False, ()))):
    """counts[n] = gamma(n), n = 0..radius."""

    __slots__ = ()

    def validate(self) -> None:
        # fields read once: a namedtuple field is a descriptor, and the
        # submultiplicativity loop reads counts O(radius^2) times
        counts, radius = self.counts, self.radius
        if len(counts) != radius + 1:
            raise GrowthError("count vector length does not match radius")
        if counts[0] != 1:
            raise GrowthError("gamma(0) must be 1")
        for n in range(1, radius + 1):
            if counts[n] < counts[n - 1]:
                raise GrowthError(f"gamma({n}) decreased")
        for m in range(radius + 1):
            for n in range(radius + 1 - m):
                if counts[m + n] > counts[m] * counts[n]:
                    raise GrowthError(
                        f"submultiplicativity fails at ({m}, {n})"
                    )

    def estimates(self) -> list:
        """gamma(n)**(1/n) for n >= 1; index 0 is None."""
        out = [None]
        for n in range(1, self.radius + 1):
            out.append(self.counts[n] ** (1.0 / n))
        return out

    def to_tsv(self) -> str:
        lines = ["n\tgamma\tupper_estimate"]
        est = self.estimates()
        for n in range(self.radius + 1):
            e = "" if n == 0 else f"{est[n]:.10f}"
            lines.append(f"{n}\t{self.counts[n]}\t{e}")
        return "\n".join(lines) + "\n"


def _closed_alphabet(engine, gens):
    """Generator elements plus inverses, deduplicated by element equality."""
    alphabet = []
    notes = []
    for g in gens:
        for el in (g, engine.invert(g)):
            if el not in alphabet:
                alphabet.append(el)
    if engine.identity in alphabet:
        alphabet.remove(engine.identity)
        notes.append("identity generator ignored")
    if len(alphabet) < 2 * len(gens):
        notes.append("generating set not free of coincidences")
    return alphabet, notes


def ball_sizes(engine, gens, radius: int, budget: int = DEFAULT_BUDGET,
               threads: int = 1) -> GrowthTable:
    """Breadth-first ball counts gamma(0..radius).

    Elements are their own set keys: normal forms are canonical, so
    tuple equality is group equality.  The alphabet is closed under
    inverses, so for x in the sphere S_n and a letter a the product x a
    has length n - 1, n or n + 1.  The products of S_n that lie in
    neither S_{n-1} nor S_n therefore form exactly S_{n+1}, and only
    those two spheres are kept.  Each sphere's products come from one
    ``engine.products(sphere, alphabet)`` call, so a family can compute
    them in bulk: integer-tuple families a letter at a time over
    coordinate columns, split extensions one base call per pair of
    shifts.

    `budget` caps the elements counted: radius n completes iff
    gamma(n) <= budget (or S_n is empty).  Otherwise exploration stops
    with truncated=True and the table covers only the completed radii.
    A budget below 1 is rejected, since gamma(0) = 1 would exceed it.
    `threads` is accepted for compatibility and has no effect.
    """
    if radius < 0:
        raise GrowthError("radius must be nonnegative")
    if budget < 1:
        raise GrowthError("budget must be positive")
    alphabet, notes = _closed_alphabet(engine, gens)
    previous, sphere = set(), {engine.identity}
    counts = [1]
    truncated = False
    for _ in range(radius):
        nxt = set(engine.products(sphere, alphabet))
        nxt -= sphere
        nxt -= previous
        if nxt and counts[-1] + len(nxt) > budget:
            truncated = True
            break
        previous, sphere = sphere, nxt
        counts.append(counts[-1] + len(nxt))
    table = GrowthTable(radius=len(counts) - 1, counts=counts,
                        truncated=truncated, notes=notes)
    table.validate()
    return table


def rescale_lower_bound(omega: float, length: int) -> float:
    """Growth bound for the ambient set when witness words have length
    at most `length` over it."""
    if length < 1:
        raise GrowthError("length must be positive")
    return omega ** (1.0 / length)
