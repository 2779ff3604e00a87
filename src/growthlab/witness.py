"""Certificate search for growth witnesses in split extensions K x| Z.

Given a finite generating set A, the analyzer walks the short subgroup
candidates ⟨a_i, [a_j, a_k]⟩ in a fixed order and tries to certify
exponential growth: a short non-commuting pair inside the kernel, an
escaping conjugation chain, or an expanding integer-matrix action.  The
degenerate outcomes are certified too where they are decidable (a
periodic conjugacy class, an abelian generating set); anything else is
reported as inconclusive with diagnostics, never guessed.

The paper's hypothesis on the kernel K is all the search knows about a
base, and ``_BASES`` holds it, one row per base family: the cap on u
for a non-commuting kernel pair, or None where the shift-0 rows run no
pair test, the track for a row of nonzero shift, and the reason a
skipped shift-0 row prints.  In the
torsion-free kernel K a commuting pair spans a free abelian group,
which never witnesses growth, so a kernel pair is certified only when it
does not commute; the hypothesis u bounds every non-abelian subgroup of K.
One verdict, ``_kernel_pair``, answers it for the shift-0 rows and the
one-step chain pair alike.  On a free base the bound is a theorem only
up to 3, so there the cap is 3: two non-commuting elements x, y of a
free group generate a free group (Nielsen-Schreier) that is not abelian
and needs two generators, so it is F_2, and {x, y} is a basis of it,
since F_2 is Hopfian.  In the {x, y} metric its balls have 2 * 3^n - 1
elements, a growth rate of exactly 3.  A chain escape, the other use of
u, cannot occur there: commuting is transitive on the nontrivial
elements of a free group, so a chain whose one-step pair commutes
commutes throughout.  On a semidirect base the cap is inf, so u is
still taken on trust.  On every base with a pair test a non-commuting
pair with equal squares, which may span a Klein-bottle group of
polynomial growth, is only diagnosed; over a free base that never
happens, since roots in a free group are unique, so equal squares there
mean equal, hence commuting, elements.  The abelian, klein and bs1 rows
have no pair test: an abelian or klein kernel grows polynomially, and
bs1 has no rule yet.  A row of nonzero shift takes the conjugation
chain track over a free or semidirect base, the abelian-kernel track
over Z^n, and over a klein or bs1 base ends in a "no decision
procedure" diagnostic.

A chain x_s = a^s x0 a^-s is moved along itself by conjugation with
a, an automorphism of G, so x_r and x_s commute iff x_0 and x_(s-r) do:
an escape is always read at offsets 0 and s, and a relation
x0^a x1^b = e is looked up in one table of the powers of x0.

Every certificate's bound is hypothesis^(1/length): the growth
hypothesis of its branch (u for a pair or an escaping chain, 2^(1/4) for
a chain relation, 2 for an expanding action) rescaled by the length of
its witness words in the A alphabet, ``max_A_length``.  One helper,
``_growth_certificate``, builds every such certificate from the two.

Two branches check their certificate by a second computation before it
is returned: a non-commuting pair multiplies its commutator in G, and a
periodic conjugacy class applies alpha^n through the engine and compares
it with c k c^-1.  The others run no second check.  An expanding action
is decided once, exactly, on the restricted matrix (cyclotomic stripping
and the Schur-Cohn test), and a chain escape or relation is read off the
products the search itself made.  Their certificates still carry
``reverified: true``, which keeps every output byte-identical, so there
the flag claims more than runs.

On an abelian base Z^n the action N = alpha^p of a row is decided from
char(N) first: when every eigenvalue is a root of unity (char(N)
strips to 1), the row gets its periodic class with no orbit lattice,
since the action on any invariant lattice is then quasi-unipotent too.
Only the other actions build the orbit lattice L of the candidate and
classify the restricted matrix R of N on L.  The exact abelian-base
data (the classification of a characteristic polynomial, the expansion
power it gives, the periodic class of an action matrix and whether its
characteristic polynomial strips to 1) is memoized in bounded caches
keyed by integer tuples; a periodic-class certificate is still
re-checked on every call.  R reads its integer coordinates in the
Hermite basis of L off one ``_exact.eliminate`` of the basis augmented
by the images, with no rational solve.

The periodic-class scan over a free base reads its words straight off
their Lyndon keys, and tests a word k only at the n where the exponent
sums v of k return, M^n v = v for the matrix M of alpha on the
abelianization.  Those n are decided once per scan and only as far as
a word asks: one exact elimination of M^n - I per n, with ``_exact``
alone.

``spectra`` and ``laurent`` are imported inside the functions that use
them, so a search over a free base loads neither.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, groupby, repeat

from growthlab import GrowthlabError
from growthlab._exact import eliminate, mat_mul, mat_vec, strip_cyclotomic
from growthlab.engines import UnsupportedFamilyError
from growthlab.growth import rescale_lower_bound
from growthlab.words import Word

NON_CYCLIC_PAIR = "NonCyclicPair"
KERNEL_CHAIN_ESCAPE = "KernelChainEscape"
SPECTRAL_EXPONENTIAL = "SpectralExponential"
PERIODIC_CONJUGACY = "PeriodicConjugacy"
VIRTUALLY_NILPOTENT_DIAGNOSIS = "VirtuallyNilpotentDiagnosis"
INCONCLUSIVE = "Inconclusive"

# chain relations are searched within this exponent window
RELATION_SEARCH_BOUND = 8
# required margin over 2 for the expanding-action word argument
EXPANSION_MARGIN = Fraction(41, 20)
_EXPANSION_POWER_CAP = 128
# entries kept by each memo of exact abelian-base data, keyed by a
# characteristic polynomial or by the rows of an action matrix
_MEMO_SIZE = 512


class WitnessError(GrowthlabError):
    pass


# JSON names of the Certificate fields that differ from the field name
_JSON_KEYS = {"u_word": "u", "v_word": "v", "k_word": "k", "c_word": "c"}


class Certificate(namedtuple(
        "Certificate",
        "variant bound u_word v_word max_A_length depth matrix m k_word n "
        "c_word reason diagnostics reverified",
        defaults=(None,) * 13)):
    __slots__ = ()

    def to_json(self) -> dict:
        """The set fields in declaration order; the word fields print
        under their one-letter names."""
        out = {}
        for name, value in zip(self._fields, self):
            if value is None:
                continue
            if name == "matrix":
                value = [list(row) for row in value]
            out[_JSON_KEYS.get(name, name)] = value
        return out


# ---------------------------------------------------------------------------
# shared helpers


def _conj(engine, a, x):
    return engine.multiply(engine.multiply(a, x), engine.invert(a))


def _growth_certificate(variant, hypothesis: float, max_A_length: int, **fields):
    """A growth certificate whose bound is hypothesis^(1/max_A_length)."""
    return Certificate(variant, bound=rescale_lower_bound(hypothesis, max_A_length),
                       max_A_length=max_A_length, reverified=True, **fields)


_KLEIN_SUSPECT = ("KleinBottleSuspect: one-step subgroup is non-abelian "
                  "with x0^2 = x1^2")


def _kernel_pair(engine, x, y, length: int, u: float, tag):
    """(cert, diag) for a pair x, y of shift-0 elements of G, whose
    witness words have A-length ``length``: a NonCyclicPair when they do
    not commute, (None, None) when they do.  Shift-0 elements multiply
    as their kernel parts, so the pair commutes in G iff its kernel
    parts commute in the base, and has equal squares iff they do.  A
    non-commuting pair with equal squares may span a Klein-bottle group,
    which grows polynomially, so it gets a diagnostic instead; on a free
    base, where roots are unique, the test never fires.  A certified pair
    is confirmed independently: its commutator, multiplied in G rather
    than in the base, is not the identity."""
    base, invert, multiply = engine.base, engine.invert, engine.multiply
    kx, ky = engine.kernel_part(x), engine.kernel_part(y)
    if base.commute(kx, ky):
        return None, None
    if base.power(kx, 2) == base.power(ky, 2):
        return None, f"{tag}: {_KLEIN_SUSPECT}"
    if multiply(multiply(x, y), multiply(invert(x), invert(y))) == engine.identity:
        raise AssertionError("non-commuting pair failed independent re-verification")
    return _growth_certificate(NON_CYCLIC_PAIR, u, length,
                               u_word=str(engine.element_to_word(x)),
                               v_word=str(engine.element_to_word(y))), None


def _pcc_certificate(engine, k_el, n: int, c_el, diagnostics=None):
    """The periodic class alpha^n(k) = c k c^-1, checked through the
    engine before it is returned."""
    base = engine.base
    if k_el == base.identity:
        raise AssertionError("periodic-class witness must be nontrivial")
    if engine.auto_power(k_el, n) != base.multiply(base.multiply(c_el, k_el),
                                                   base.invert(c_el)):
        raise AssertionError("periodic conjugacy failed engine re-verification")
    return Certificate(
        PERIODIC_CONJUGACY,
        k_word=str(base.element_to_word(k_el)),
        n=n,
        c_word=str(base.element_to_word(c_el)),
        diagnostics=diagnostics,
        reverified=True,
    )


def _pcc_from_stable(engine, fixer, x0, diagnostics: str):
    """The periodic class of the kernel part v of x0, from an element
    ``fixer`` = (w, p) of nonzero shift with fixer x0 fixer^-1 = x0, that
    is w alpha^p(v) w^-1 = v: a when x1 = x0, a^2 when x1 = x0^-1.  So
    alpha^p(v) = c v c^-1 with c = w^-1 when p > 0, and applying
    alpha^-p gives alpha^-p(v) = c v c^-1 with c = alpha^-p(w) when
    p < 0; n = |p| either way."""
    w, p = engine.kernel_part(fixer), engine.shift(fixer)
    c = engine.base.invert(w) if p > 0 else engine.auto_power(w, -p)
    return _pcc_certificate(engine, engine.kernel_part(x0), abs(p), c,
                            diagnostics=diagnostics)


def _find_relation(engine, x0, x1):
    """Smallest relation x0^a x1^b = e with b >= 1 and gcd(|a|, b) = 1
    inside the search window, or None.

    G is torsion-free and x0 != e, so a -> x0^a is injective: for each b
    at most one a has x0^a = x1^-b, and it is read off one table of the
    powers of x0."""
    bound = RELATION_SEARCH_BOUND
    exponent = {engine.power(x0, a): a for a in range(-bound, bound + 1) if a}
    for b in range(1, bound + 1):
        a = exponent.get(engine.power(x1, -b))
        if a is not None and math.gcd(a, b) == 1:
            return a, b
    return None


# ---------------------------------------------------------------------------
# the abelian-kernel track


def _lattice_coords(basis_rows, targets):
    """Integer coordinates of each target in a lattice basis of r
    independent rows, read off one elimination of the system whose
    columns are the basis rows and then the targets.

    The basis columns hold every pivot, so the first r rows come back
    as d * [I | X], X the rational coordinates of the targets.  A row
    below them that does not vanish on a target means that target is
    outside the span; a coordinate d does not divide means it is in the
    span but not in the lattice."""
    r = len(basis_rows)
    rows, _, d, _ = eliminate(list(zip(*basis_rows, *targets)), r)
    out = []
    for col in list(zip(*rows))[r:]:
        if any(col[r:]):
            raise AssertionError("target vector lies outside the lattice")
        if any(c % d for c in col[:r]):
            raise AssertionError("lattice coordinates are not integral")
        out.append([c // d for c in col[:r]])
    return out


def _invariant_lattice(n_mat, v):
    """Hermite basis of Z[N, N^-1] v, the least lattice holding v that N
    and N^-1 map into itself: the span L of v, Nv, ..., N^(n-1) v.  By
    Cayley-Hamilton N^n, and N^-1 too since det N = +-1, are integer
    combinations of I, ..., N^(n-1), so N and N^-1 map L into L.  The
    Hermite form of a lattice is unique, so the basis is the one a
    saturation under N and N^-1 reaches."""
    from growthlab.spectra import hermite_rows
    vs = [v]
    for _ in range(len(v) - 1):
        vs.append(mat_vec(n_mat, vs[-1]))
    return hermite_rows(vs)


def _restricted_matrix(n_mat, basis_rows):
    cols = _lattice_coords(basis_rows, [mat_vec(n_mat, b) for b in basis_rows])
    return [list(row) for row in zip(*cols)]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _expansion_power(char_coeffs) -> int:
    """Least K for which the minimal polynomial of v under R^K has a
    root of modulus beyond the margin, making the 2^L sign words over
    the orbit pairwise distinct.  R is the action on the orbit lattice
    L of v, and char_coeffs (low-to-high) is char(R): K depends on
    nothing else, and is found on the companion matrix C of char(R).

    v is a cyclic vector of R over Q, since L is spanned by v, Rv, ...
    So Q^n is Q[t]/(char R) with v as 1 and R as t, and R is similar to
    C over Q.  The minimal polynomial of v under R^K is that of t^K in
    this algebra, whose roots are the values lambda^K at the roots
    lambda of char(R): the roots of char(R^K) = char(C^K), without
    their multiplicities.  ``roots_inside`` sees only the set of roots,
    so it answers the same on both polynomials, even where lambda and
    -lambda collide at even K.

    The exact test "not every root in |z| < 41/20" also accepts a root
    of modulus exactly 41/20, which the strict "> 2.05" did not; no such
    root exists.  char(C^K) is monic with integer coefficients, so its
    roots are algebraic integers.  A root z with |z| = 41/20 would make
    z * conj(z) = 1681/400 an algebraic integer, and a rational
    algebraic integer is an integer."""
    from growthlab.spectra import char_poly, roots_inside
    n = len(char_coeffs) - 1
    comp = [[int(i == j + 1) for j in range(n - 1)] + [-char_coeffs[i]]
            for i in range(n)]
    power = comp
    for k in range(1, _EXPANSION_POWER_CAP + 1):
        if not roots_inside(char_poly(power).coeffs, EXPANSION_MARGIN):
            return k
        power = mat_mul(power, comp)
    raise AssertionError("expanding action failed to clear the margin")


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _periodic_class(rows):
    """(d, k, finite) for the integer matrix with these rows (a tuple of
    tuples): the least d whose d-th cyclotomic polynomial divides its
    characteristic polynomial, a primitive vector k that its d-th power
    fixes, and whether the characteristic polynomial strips to 1, that
    is, whether every eigenvalue is a root of unity; (None, None, False)
    when there is no such d."""
    from growthlab.spectra import char_poly, fixed_vector_of_power
    rest, d = strip_cyclotomic(char_poly(rows).coeffs)
    if d is None:
        return None, None, False
    return d, fixed_vector_of_power(rows, d), rest == [1]


def _abelian_case(engine, a_el, x0, u, d, tag):
    from growthlab.spectra import (
        EXPONENTIAL,
        SpectraError,
        classify_abelian_by_cyclic,
    )
    p = engine.shift(a_el)
    # the engine checked backward . forward = id on every generator, so
    # B M = I over Z and det M = +-1: no determinant check is needed
    n_mat = engine.level_at(p)
    d_full, k_el, finite = _periodic_class(n_mat)
    if not finite:
        basis = _invariant_lattice(n_mat, engine.kernel_part(x0))
        r_mat = _restricted_matrix(n_mat, basis)
        # x0 != e has shift 0, so L != 0, and R is N on L, which N and N^-1
        # map into L: R is square and unimodular, char(R) monic of degree
        # >= 1 with a unit constant term, and a non-cyclotomic part lies
        # beyond the degree gap.  No structural check can fail; only the
        # float root iteration can, and that ends this case in a diagnostic
        try:
            cls = classify_abelian_by_cyclic(r_mat)
        except SpectraError as exc:
            return None, f"{tag}: {exc}"
        if cls.kind == EXPONENTIAL:
            k_pow = _expansion_power(cls.char.coeffs)
            cert = _growth_certificate(
                SPECTRAL_EXPONENTIAL, 2.0, 4 + k_pow,
                matrix=tuple(tuple(row) for row in r_mat),
                m=cls.m,
                diagnostics=(
                    f"orbit lattice rank {len(basis)}; expansion power {k_pow}"),
            )
            return cert, None
    # quasi-unipotent action on L: produce the explicit periodic class.
    # R is N on an N- and N^-1-invariant lattice L, so in a basis of Z^n
    # that extends one of L over Q, N is block triangular with R as a
    # block, and char(R) divides char(N) in Q[t]; both are monic with
    # integer coefficients, so by Gauss's lemma it divides in Z[t].
    # Hence when char(N) strips to 1, so does char(R): every root of
    # char(R) is a root of unity, the classification of R could only
    # answer VirtuallyNilpotent (its only raise, the float root
    # iteration, runs on a non-cyclotomic part, and there is none), and
    # the lattice is never built.  Otherwise the cyclotomic factors of
    # char(R) are factors of char(N), so d_full is never None here
    cert = _pcc_certificate(engine, k_el, d_full * abs(p), engine.base.identity,
                            diagnostics=f"{tag}: root-of-unity action")
    return cert, None


# ---------------------------------------------------------------------------
# the conjugation chain track


def _chain_case(engine, a_el, x0, u, d, tag):
    """The chain x_s = a^s x0 a^-s of a row a of nonzero shift.

    Conjugation by a is an automorphism of G that maps (x_r, x_s) to
    (x_(r+1), x_(s+1)).  So (x0, x_-1), moved by a, is (x1, x0): the one
    pair (x0, x1) decides both one-step pairs.  And x_r, x_s commute iff
    x0, x_(s-r) do, so once x0 commutes with x1, ..., x_(s-1), the first
    pair at depth s that can fail is (x0, x_s)."""
    x1 = _conj(engine, a_el, x0)
    cert, diag = _kernel_pair(engine, x0, x1, 6, u, tag)
    if cert or diag:
        return cert, diag
    if x1 == x0:
        return _pcc_from_stable(engine, a_el, x0, f"{tag}: conjugation fixes x0"), None
    if x1 == engine.invert(x0):
        return _pcc_from_stable(engine, engine.multiply(a_el, a_el), x0,
                                f"{tag}: conjugation inverts x0"), None
    # the one-step pair commutes yet x1 is not x0 or its inverse:
    # grow the conjugation chain up to depth d+1
    xs = x1
    for s in range(2, d + 2):
        xs = _conj(engine, a_el, xs)
        if engine.commute(x0, xs):
            continue
        if s <= d:
            return _growth_certificate(
                KERNEL_CHAIN_ESCAPE, u, 2 * s + 4,
                depth=s,
                diagnostics=f"{tag}: chain elements at offsets 0 and {s} do not commute",
            ), None
        return None, (
            f"{tag}: chain escapes only at depth {s}, beyond the "
            f"certified window for d={d}")
    rel = _find_relation(engine, x0, x1)
    if rel is None:
        return None, (
            f"{tag}: chain stays abelian through depth {d + 1} and no "
            f"relation was found with exponents up to {RELATION_SEARCH_BOUND}")
    a, b = rel
    if b == 1:
        # |a| >= 2: |a| = 1 would mean x1 = x0^-+1, and both of those
        # cases returned a PeriodicConjugacy above
        detail = (f"conjugation relation x1 = x0^{-a}: polynomial invariant "
                  f"t - {-a} is not monic at both ends, kernel not finitely "
                  "generated")
    else:
        # b >= 2 and gcd(|a|, b) = 1, and sticking_contradiction finds a
        # contradiction for every coprime pair with |beta| >= 2
        from growthlab.laurent import sticking_contradiction
        detail = (f"sticking relation x0^{a} x1^{b} = e: "
                  f"{sticking_contradiction(a, b).detail}")
    cert = _growth_certificate(KERNEL_CHAIN_ESCAPE, 2.0 ** 0.25, 4,
                               depth=d + 1, diagnostics=f"{tag}: {detail}")
    return cert, None


# ---------------------------------------------------------------------------
# the analyzer


def _undecided_case(engine, a_el, x0, u, d, tag):
    """The row of nonzero shift over a klein or bs1 base, which has no
    track yet.  A chain track there would meet no Klein-bottle suspect
    x0, x1 = a x0 a^-1.  Klein: the t-exponent f has f o alpha = +-f, so
    f mod 2 is a homomorphism of G; both have even f, so lie in the
    abelian <a, t^2>.  bs1: square roots are unique ((s, b)^2 = (2s,
    (m^s + 1) b) in the affine action z -> m^s z + b), so equal squares
    mean equal elements."""
    return None, f"{tag}: no decision procedure for {engine.base.family} base"


# the hypothesis on K per base family (see the module docstring): the
# cap on u for a non-commuting kernel pair, None where the shift-0 rows
# run no pair test; the track for a row of nonzero shift; and why a
# shift-0 row with no pair test is skipped.  BS(1, m) with |m| >= 2
# grows exponentially, but no rule certifies a pair in it yet
_POLYNOMIAL = "kernel may have polynomial growth"
_BASES = {"free": (3.0, _chain_case, None),
          "semidirect": (math.inf, _chain_case, None),
          "abelian": (None, _abelian_case, _POLYNOMIAL),
          "klein": (None, _undecided_case, _POLYNOMIAL),
          "bs1": (None, _undecided_case, "no pair rule for a bs1 kernel yet")}


def _case(engine, elems, u, d, i, cand):
    j, k, sj, sk, c_el = cand
    sgn = lambda s: "" if s > 0 else "^-1"
    tag = f"(i={i}, [a{j}{sgn(sj)},a{k}{sgn(sk)}])"
    a_el = elems[i]
    cap, track, skip = _BASES[engine.base.family]
    if engine.shift(a_el) != 0:
        return track(engine, a_el, c_el, u, d, tag)
    if cap is None:
        return None, f"{tag}: kernel pair skipped for {engine.base.family} base ({skip})"
    return _kernel_pair(engine, a_el, c_el, 4, u, tag)


def _commutators(engine, elems):
    """The candidates (j, k, sj, sk, c) of the search, c = [a_j^sj, a_k^sk]
    for j < k and c != e, in search order, each built when asked for.

    a and b commute iff a^+-1 and b^+-1 do: ab = ba gives a^-1 b = b a^-1
    on multiplying by a^-1 on both sides, and likewise for b.  So when
    [a_j, a_k] = e the other three signs are skipped, and otherwise all
    four commutators are nontrivial: a commuting pair costs one
    commutator.  Each generator is inverted once, when first needed."""
    identity, multiply, invert = engine.identity, engine.multiply, engine.invert
    inverses = []  # inverses[i] = a_i^-1, for the generators reached so far
    for j in range(len(elems)):
        for k in range(j + 1, len(elems)):
            while len(inverses) <= k:
                inverses.append(invert(elems[len(inverses)]))
            for sj, sk in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                aj, bj = (elems[j], inverses[j]) if sj > 0 else (inverses[j], elems[j])
                ak, bk = (elems[k], inverses[k]) if sk > 0 else (inverses[k], elems[k])
                c_el = multiply(multiply(aj, ak), multiply(bj, bk))
                if c_el == identity:
                    break  # only at the first signs, by the lemma above
                yield (j, k, sj, sk, c_el)


def analyze(engine, gens, u: float, d: int, threads: int = 1) -> Certificate:
    """Search the subgroup candidates lexicographically and return the
    first certificate; deterministic for fixed inputs.  `threads` is
    accepted for compatibility and has no effect.

    Row i pairs a_i with every candidate commutator in turn.  A
    commutator is built only when a row first reads it, and kept for
    the rows after it, so a search that certifies early builds few.
    The base's row of ``_BASES`` caps u, and where it has no cap, as on
    the abelian, klein and bs1 bases, a row whose a_i has shift 0 is
    skipped: it never certifies, since ``_case`` runs no pair test there
    (a pair of kernel elements in a base of polynomial growth, abelian
    or klein, spans no free subgroup, and bs1 has no pair test).  Its
    one diagnostic per candidate names only the candidate's tag.  So
    such a row only marks its place, and is spelled out, in the same
    order, when the search ends Inconclusive.  Each diagnostic line starts with the tag of its
    own (row, candidate) pair, so no two lines are equal."""
    if engine.family != "semidirect":
        raise WitnessError("analysis requires a split-extension engine")
    # NaN fails both comparisons; inf would print as non-JSON "Infinity"
    if not 1.0 < u < math.inf:
        raise WitnessError("growth hypothesis u must be finite and exceed 1")
    if d < 1:
        raise WitnessError("abelian cap d must be at least 1")
    cap = _BASES[engine.base.family][0]
    u = u if cap is None else min(u, cap)  # see the module docstring
    words = [Word.parse(w) if isinstance(w, str) else w for w in gens]
    if not words:
        raise WitnessError("generating set is empty")
    elems = [engine.evaluate_word(w) for w in words]
    fresh = _commutators(engine, elems)
    first = next(fresh, None)
    if first is None:
        return Certificate(
            VIRTUALLY_NILPOTENT_DIAGNOSIS,
            reason="every generator commutator vanishes; the generated "
                   "group is abelian")
    built = [first]

    def cands():
        yield from built
        for cand in fresh:
            built.append(cand)
            yield cand

    diags = []
    for i, a_el in enumerate(elems):
        if cap is None and engine.shift(a_el) == 0:
            diags.append(i)
            continue
        for cand in cands():
            cert, diag = _case(engine, elems, u, d, i, cand)
            if cert is not None:
                return cert
            if diag:
                diags.append(diag)
    lines = []
    for entry in diags:
        if isinstance(entry, int):
            lines.extend(_case(engine, elems, u, d, entry, cand)[1] for cand in cands())
        else:
            lines.append(entry)
    return Certificate(
        INCONCLUSIVE,
        diagnostics="; ".join(lines) if lines else
        "no candidate case produced a certificate")


# ---------------------------------------------------------------------------
# periodic-conjugacy scan


class PccResult(namedtuple("PccResult", "certificate exact note")):
    __slots__ = ()


def _orbit_words(rank: int, max_length: int):
    """One flat word per orbit of the nontrivial cyclically reduced
    words of length <= max_length under rotation and inversion: the
    orbit's least word in (length, lex) order over the unit order x,
    x^-1, y, y^-1, ..., yielded in that order.

    Such a word is below each of its other rotations, so it is a Lyndon
    word, which also rules out proper powers (r^m equals its rotation by
    the length of r).  It has no adjacent inverse pair, cyclically, and
    it is below every rotation of its inverse; these never tie with it,
    because no element of a free group other than e is conjugate to its
    inverse.  For each length n the Fredricksen-Kessler-Maiorana
    successor step walks the prenecklaces of length n in lex order, each
    through its prefixes: it tries the next letter at the last position,
    backs up a position when none is left, and fills the positions after
    a new letter with the least letters that keep a prenecklace.  The
    Lyndon words among them are those with period p == n.  A prefix of
    a prenecklace is a prenecklace, so a prefix that ends in an inverse
    pair is pruned with all it extends; the leaf checks the wrap-around
    pair and the inverse.  The walk keeps one prefix and its periods, and
    stops where the caller stops."""
    # unit order x, x^-1, y, y^-1, ... as ranks 0, 1, 2, 3, ...; the
    # inverse of a unit flips the low bit of its rank, and rank r is the
    # generator r >> 1 to the power -1 if r is odd, else 1
    size = 2 * rank
    for n in range(1, max_length + 1):
        a = [0] * (n + 1)  # a[0] seeds the range of the first letter
        per = [1] * (n + 1)  # per[t]: the period of the prefix a[1..t]
        t, v = 1, 0  # v: the letter to try at position t
        while t:
            if v < size:
                a[t] = v
                per[t] = per[t - 1] if v == a[t - per[t - 1]] else t
                if t < n:
                    # extend by the least letter that keeps a prenecklace,
                    # or the next one if that would cancel with a[t]
                    t += 1
                    v = a[t - per[t - 1]]
                    if v == a[t - 1] ^ 1:
                        v += 1
                    continue
                if per[n] == n and a[n] ^ 1 != a[1]:
                    key = a[1:]
                    inv = [r ^ 1 for r in reversed(key)]
                    if all(inv[r:] + inv[:r] >= key for r in range(n)):
                        # a key has no adjacent inverse pair, so each run
                        # of equal ranks is one syllable of the flat word
                        # and nothing cancels
                        flat = []
                        for r, run in groupby(key):
                            e = len(list(run))
                            flat += (r >> 1, -e if r & 1 else e)
                        yield tuple(flat)
            else:
                t -= 1
            # the successor step: the next letter at position t, skipping
            # the inverse of the letter before it
            v = a[t] + 1
            if t > 1 and v == a[t - 1] ^ 1:
                v += 1


def _abelian_returns(engine, max_period: int):
    """For a split extension over F_r: the map from a word k to the n <=
    max_period, ascending, with M^n v = v, where v is the exponent-sum
    vector of k and M the matrix of alpha on the abelianization Z^r
    (column g the exponent sums of alpha(g)).

    A zero v returns at every n.  A nonzero v can return only at an n
    where M^n - I is singular.  Those n are decided once per scan, in
    order, each by one ``_exact.eliminate`` of M^n - I and only when a
    nonzero v first asks for it; M^n v is then computed only at them."""
    base = engine.base
    rank = base.rank

    def sums(w):
        v = [0] * rank
        for i in range(0, len(w), 2):
            v[w[i]] += w[i + 1]
        return tuple(v)

    m = list(zip(*[sums(engine.auto_power(base.generator(g), 1))
                   for g in base.gen_names]))

    def singular(mn):
        # M^n, or None where M^n - I is nonsingular
        shifted = [[x - (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(mn)]
        return mn if len(eliminate(shifted)[1]) < rank else None

    pending = map(singular, accumulate(repeat(m), mat_mul))  # n = 1, 2, ...
    decided = []  # decided[n - 1]: the answer of singular at n

    def returns(k_el):
        v = sums(k_el)
        if not any(v):
            yield from range(1, max_period + 1)
            return
        for n in range(1, max_period + 1):
            if len(decided) < n:
                decided.append(next(pending))
            mn = decided[n - 1]
            if mn is not None and mat_vec(mn, v) == v:
                yield n

    return returns


def pcc_scan(engine, max_period: int, max_length: int) -> PccResult:
    """Look for k != e and n <= max_period with alpha^n(k) conjugate to
    k in the base.  Exact for an abelian base; a closed form, k = a^-1 at
    n = 1, for a klein base; on a free base a bounded scan whose empty
    answer only means none within bounds.  Only the abelian answer is
    flagged exact.

    On a free base the scan is over the cyclically reduced words, ordered
    by length, then lex in the unit order x, x^-1, y, y^-1, ..., and
    returns the first k, with its least n, that passes: alpha^n(k) is
    conjugate to k.  It tests only the first word of each orbit of
    rotation and inversion, which ``_orbit_words`` yields directly, in
    the same order, and the result (k, n, c, exact, note) is that of
    testing every word:

    * a rotation k' = g k g^-1 of k passes at every n where k does, since
      alpha^n(k') = alpha^n(g) alpha^n(k) alpha^n(g)^-1 is conjugate to
      alpha^n(k), hence to k, hence to k';
    * so does k^-1, since alpha^n commutes with inversion;
    * if k = r^m with m >= 2, then r is cyclically reduced and shorter,
      so it comes earlier in the stream, and r passes at the same n:
      alpha^n(r)^m = alpha^n(k) = c k c^-1 = (c r c^-1)^m, and roots in
      a free group are unique, so alpha^n(r) = c r c^-1.

    So the first word of the full stream that passes is not a proper
    power, and no rotation of it or of its inverse (all of the same
    length, all in the stream) is lex-smaller: it is the first word of
    its orbit.  The filtered scan reaches it at the same place among the
    words it keeps, tests it with the same n, and asks the same
    ``conjugacy_test``, so c is the same too; when no word passes, both
    scans end with the same note.

    alpha^n(k) is built as alpha(alpha^(n-1)(k)), one level-1 step at a
    time, so the scan holds one image per word and keeps no level of the
    engine beyond 1 (the re-check of a found certificate applies level
    n once).  On a free base it steps and tests only at the n from
    ``_abelian_returns``: conjugate words have the same exponent sums,
    so at any other n alpha^n(k) is not conjugate to k.  Skipping those
    n changes no answer.

    On F_2 a scan with max_period >= 2 and max_length >= 4 always finds
    a class.  Every automorphism of F_2 sends [x, y] to a conjugate of
    [x, y]^+-1 (Nielsen 1918).  If alpha([x, y]) = g [x, y]^e g^-1, then
    alpha^2([x, y]) = alpha(g) g [x, y]^(e^2) g^-1 alpha(g)^-1, a
    conjugate of [x, y] = x y x^-1 y^-1, a cyclically reduced word of
    length 4 that the scan reaches.  The result keeps ``exact`` False,
    as on every free base."""
    if engine.family != "semidirect":
        raise WitnessError("periodic-class scan requires a split-extension engine")
    if max_period < 1 or max_length < 1:
        raise WitnessError("scan bounds must be positive")
    base = engine.base
    if base.family == "abelian":
        d, k_vec, _ = _periodic_class(engine.level_at(1))
        if d is None or d > max_period:
            return PccResult(
                None, True,
                "exact: the action polynomial has no cyclotomic factor"
                if d is None else
                f"exact: smallest period {d} exceeds the bound")
        cert = _pcc_certificate(engine, k_vec, d, base.identity)
        return PccResult(cert, True, "exact cyclotomic test")
    if base.family == "klein":
        # <a> is characteristic in K: it is the isolator of [K, K] = <a^2>,
        # since no positive power of a^i t^j with j != 0 lies in <a>.  The
        # engine checked that alpha and its inverse send the relator to e
        # and invert each other on the generators, so alpha is an
        # automorphism and alpha(a^-1) = a^-+1.  So k = a^-1 passes at
        # n = 1, with c = e or c = t (t a^-1 t^-1 = a): the least n, and
        # the first word a^i t^j in the order of |i| + |j|, then i.
        k_el = base.invert(base.generator("a"))
        c = base.identity if engine.auto_power(k_el, 1) == k_el else base.generator("t")
        return PccResult(_pcc_certificate(engine, k_el, 1, c), False,
                         "found within bounds")
    if base.family != "free":
        raise UnsupportedFamilyError(
            f"periodic-class scan unsupported for base family {base.family!r}")
    periods = _abelian_returns(engine, max_period)
    for k_el in _orbit_words(base.rank, max_length):
        img, at = k_el, 0  # img = alpha^at(k)
        for n in periods(k_el):
            while at < n:
                img = engine.auto_power(img, 1)
                at += 1
            c = base.conjugacy_test(k_el, img)
            if c is not None:
                cert = _pcc_certificate(engine, k_el, n, c)
                return PccResult(cert, False, "found within bounds")
    return PccResult(None, False, "none within bounds (semi-decision)")
