"""Reference ball counts computed without growthlab.

Free, free-abelian and Klein-bottle groups have closed forms.  The other
families are enumerated here by a plain breadth-first search over this
module's own models of the groups:

* BS(1, m) as affine maps x -> m^s x + r of Q, with r a Fraction;
* Z^n as integer vectors, free groups as reduced tuples of signed units;
* a split extension K x| Z as pairs (k, shift), the automorphism applied
  through its generator images, as the group spec states them.

The seeded generating sets of the ball workloads are automorphic images
of the standard generating set, so the standard set's counts, computed
here once per (spec, radius), are the expected counts of every table.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from workloads import bump_stable, standard_gens, w_parse


def closed_form(spec, radius: int):
    """gamma(0..radius) where a closed form exists, else None."""
    fam = spec["family"]
    if fam == "free":
        r = spec["rank"]
        q = 2 * r - 1
        return [1 + 2 * r * (q ** n - 1) // (q - 1) for n in range(radius + 1)]
    if fam == "abelian":
        d = spec["rank"]
        return [sum(2 ** k * comb(d, k) * comb(n, k) for k in range(d + 1))
                for n in range(radius + 1)]
    if fam == "klein":
        return [2 * n * n + 2 * n + 1 for n in range(radius + 1)]
    return None


# ---------------------------------------------------------------------------
# group models: identity, mul(a, b), inv(a), gen(name), word(a)


class FreeModel:
    def __init__(self, rank: int):
        self.names = standard_gens({"family": "free", "rank": rank})
        self.identity = ()

    def gen(self, name):
        return (self.names.index(name) + 1,)

    def mul(self, a, b):
        i = 0
        n = min(len(a), len(b))
        while i < n and a[-1 - i] == -b[i]:
            i += 1
        return a[:len(a) - i] + b[i:]

    def inv(self, a):
        return tuple(-u for u in reversed(a))

    def word(self, a):
        return [(self.names[abs(u) - 1], 1 if u > 0 else -1) for u in a]


class AbelianModel:
    def __init__(self, rank: int):
        self.names = standard_gens({"family": "abelian", "rank": rank})
        self.identity = (0,) * rank

    def gen(self, name):
        i = self.names.index(name)
        return tuple(int(j == i) for j in range(len(self.names)))

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def word(self, a):
        return [(n, v) for n, v in zip(self.names, a) if v]


class KleinModel:
    """a^i t^j with t a t^-1 = a^-1."""

    names = ["a", "t"]
    identity = (0, 0)

    def gen(self, name):
        return (1, 0) if name == "a" else (0, 1)

    def mul(self, a, b):
        return (a[0] + (b[0] if a[1] % 2 == 0 else -b[0]), a[1] + b[1])

    def inv(self, a):
        return (-a[0] if a[1] % 2 == 0 else a[0], -a[1])

    def word(self, a):
        return [("a", a[0]), ("t", a[1])]


class AffineModel:
    """BS(1, m) as maps x -> m^s x + r; the product is composition."""

    names = ["a", "t"]

    def __init__(self, m: int):
        self.m = m
        self.identity = (0, Fraction(0))

    def gen(self, name):
        return (0, Fraction(1)) if name == "a" else (1, Fraction(0))

    def mul(self, a, b):
        s1, r1 = a
        s2, r2 = b
        return (s1 + s2, r1 + Fraction(self.m) ** s1 * r2)

    def inv(self, a):
        s, r = a
        return (-s, -r / Fraction(self.m) ** s)

    def word(self, a):
        # m^s x + num / m^e  =  t^-e a^num t^(e+s)
        s, r = a
        e = 0
        while (r * Fraction(self.m) ** e).denominator != 1:
            e += 1
        num = int(r * Fraction(self.m) ** e)
        return [("t", -e), ("a", num), ("t", e + s)]


class SplitModel:
    """K x| Z with (k1, s1)(k2, s2) = (k1 alpha^s1(k2), s1 + s2)."""

    def __init__(self, base, forward: dict, backward: dict):
        self.base = base
        self.rename = {n: bump_stable(n) for n in base.names}
        self.names = ["t"] + [self.rename[n] for n in base.names]
        self.identity = (base.identity, 0)
        fwd = {g: self._eval(w_parse(w)) for g, w in forward.items()}
        bwd = {g: self._eval(w_parse(w)) for g, w in backward.items()}
        self.levels = {0: {g: base.gen(g) for g in base.names}, 1: fwd, -1: bwd}

    def _eval(self, word, images=None):
        b = self.base
        out = b.identity
        for name, e in word:
            g = b.gen(name) if images is None else images[name]
            out = b.mul(out, _power(b, g, e))
        return out

    def _level(self, s: int) -> dict:
        if s not in self.levels:
            step = 1 if s > 0 else -1
            prev = self._level(s - step)
            self.levels[s] = {g: self._eval(self.base.word(prev[g]), self.levels[step])
                              for g in self.base.names}
        return self.levels[s]

    def auto(self, k_el, s: int):
        return self._eval(self.base.word(k_el), self._level(s))

    def gen(self, name):
        if name == "t":
            return (self.base.identity, 1)
        inner = next(n for n, r in self.rename.items() if r == name)
        return (self.base.gen(inner), 0)

    def mul(self, a, b):
        return (self.base.mul(a[0], self.auto(b[0], a[1])), a[1] + b[1])

    def inv(self, a):
        return (self.auto(self.base.inv(a[0]), -a[1]), -a[1])

    def word(self, a):
        inner = [(self.rename[n], e) for n, e in self.base.word(a[0])]
        return inner + [("t", a[1])]


def _power(grp, g, e: int):
    if e < 0:
        g, e = grp.inv(g), -e
    out = grp.identity
    while e:
        if e & 1:
            out = grp.mul(out, g)
        e >>= 1
        if e:
            g = grp.mul(g, g)
    return out


def model(spec):
    fam = spec["family"]
    if fam == "free":
        return FreeModel(spec["rank"])
    if fam == "abelian":
        return AbelianModel(spec["rank"])
    if fam == "klein":
        return KleinModel()
    if fam == "bs1":
        return AffineModel(spec["m"])
    auto = spec["automorphism"]
    return SplitModel(model(spec["base"]), auto["forward"], auto["backward"])


def ball_counts(spec, radius: int) -> list:
    """gamma(0..radius) of the standard generating set of ``spec``."""
    closed = closed_form(spec, radius)
    if closed is not None:
        return closed
    grp = model(spec)
    alphabet = []
    for name in standard_gens(spec):
        for el in (grp.gen(name), grp.inv(grp.gen(name))):
            if el not in alphabet:
                alphabet.append(el)
    seen = {grp.identity}
    frontier = [grp.identity]
    counts = [1]
    for _ in range(radius):
        nxt = []
        for el in frontier:
            for a in alphabet:
                p = grp.mul(el, a)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        counts.append(counts[-1] + len(nxt))
        frontier = nxt
    return counts
