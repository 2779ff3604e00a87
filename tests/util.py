"""Shared builders for the test suite: engines under test, seeded
random words/elements, and reference versions of library searches."""

import hashlib
import json
import math
import random
import re
import tokenize
from fractions import Fraction
from itertools import chain

from growthlab import GrowthlabError, wordops
from growthlab._exact import eliminate
from growthlab.engines import (
    AbelianEngine,
    BS1Engine,
    FreeEngine,
    KleinEngine,
    SemidirectEngine,
)
from growthlab.laurent import LaurentPoly, alexander_polynomial
from growthlab.spectra import (
    SpectraError,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_vec,
    roots_inside,
)
from growthlab.witness import (
    _EXPANSION_POWER_CAP,
    EXPANSION_MARGIN,
    INCONCLUSIVE,
    KERNEL_CHAIN_ESCAPE,
    RELATION_SEARCH_BOUND,
    VIRTUALLY_NILPOTENT_DIAGNOSIS,
    Certificate,
    PccResult,
    _case,
    _conj,
    _growth_certificate,
    _kernel_pair,
    _pcc_certificate,
    analyze,
    pcc_scan,
)
from growthlab.words import Word, WordSyntaxError

# an integer literal past Python's default int-string limit of 4,300 digits
OVER_LONG = "1" * 5000

TORUS_AUTO = ({"x": "y", "y": "x y"}, {"x": "y x^-1", "y": "x"})
ROT4_AUTO = ({"e1": "e2", "e2": "e1^-1"}, {"e1": "e2^-1", "e2": "e1"})
FIB_AUTO = ({"e1": "e1^2 e2", "e2": "e1 e2"},
            {"e1": "e1 e2^-1", "e2": "e1^-1 e2^2"})


# the letter syntax of ``Word.parse``, kept apart from the library's copy
REFERENCE_LETTER_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def reference_parse(text: str):
    """``Word.parse`` as a loop that matches each token as it comes, with
    no memo: the first bad token raises."""
    pairs = []
    for tok in text.split():
        m = REFERENCE_LETTER_RE.match(tok)
        if m is None:
            raise WordSyntaxError(f"bad letter {tok!r}")
        exp = 1 if m.group(2) is None else int(m.group(2))
        if exp == 0:
            raise WordSyntaxError(f"zero exponent in {tok!r}")
        pairs.append((m.group(1), exp))
    return Word.of(pairs)


# tokens that never make a line count as code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The code lines of a Python file: the lines that hold a token that
    is not a comment, a newline, an indent or a string standing alone as
    a statement (a docstring).  A token that spans lines, such as a
    triple-quoted string inside an expression, counts on each of them."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _NOT_CODE:
            continue
        if (tok.type == tokenize.STRING and tokens[i - 1].type in _NOT_CODE
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring, or any other string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def spec_id(engine) -> str:
    """The engine's spec as compact, key-sorted JSON: a stable test id."""
    return json.dumps(engine.spec_dict(), sort_keys=True, separators=(",", ":"))


def mat_scale(m, c):
    return [[x * c for x in row] for row in m]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def solve(cols, target):
    """Rational x with sum_j x[j] * cols[j] == target, or None, read off
    ``eliminate`` of the augmented matrix.

    Free unknowns are set to zero, so the solution is unique when the
    columns are independent."""
    k = len(cols)
    aug = [[c[i] for c in cols] + [t] for i, t in enumerate(target)]
    rows, pivots, d, _ = eliminate(aug, k)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * k
    for row, col in zip(rows, pivots):
        x[col] = Fraction(row[k], d)
    return x


def reference_lattice_coords(basis_rows, target):
    """`witness._lattice_coords` by a rational ``solve``: the integer
    coordinates of target in the lattice basis, with the same two
    errors."""
    coords = solve(basis_rows, target)
    if coords is None:
        raise AssertionError("target vector lies outside the lattice")
    if any(f.denominator != 1 for f in coords):
        raise AssertionError("lattice coordinates are not integral")
    return [int(f) for f in coords]


def at_matrix(poly, m):
    """The integer polynomial ``poly`` evaluated at the square matrix m
    by Horner's rule."""
    n = len(m)
    acc = mat_scale(mat_identity(n), poly.coeffs[-1])
    for c in reversed(poly.coeffs[:-1]):
        acc = mat_add(mat_mul(acc, m), mat_scale(mat_identity(n), c))
    return acc


def word_inverse(word):
    """The inverse of a Word: its letters reversed, exponents negated."""
    return Word(tuple((n, -e) for n, e in reversed(word.letters)))


def word_names(word) -> set:
    """The generator names a Word uses."""
    return {n for n, _ in word.letters}


def word_rename(word, mapping):
    """The Word with each name looked up in ``mapping``; names it lacks
    stay."""
    return Word(tuple((mapping.get(n, n), e) for n, e in word.letters))


def embed(base_el):
    """The base element ``base_el`` as an element of a split extension,
    at shift 0."""
    return (base_el, 0)


def laurent_shift(p, k: int):
    """p times t^k."""
    return LaurentPoly({e + k: c for e, c in p.coeffs.items()})


def laurent_normalized(p):
    """p unit-normalized: bottom exponent 0, top coefficient positive."""
    if p.is_zero():
        return LaurentPoly()
    q = laurent_shift(p, -p.min_exp)
    return -q if q.coeffs[q.max_exp] < 0 else q


def mat_det(m) -> int:
    """Determinant of a square integer matrix, read off ``eliminate``."""
    _, pivots, d, sign = eliminate(m)
    return sign * d if len(pivots) == len(m) else 0


def matrix_rank(rows) -> int:
    """Rank of an integer matrix: the pivot count of ``eliminate``."""
    return len(eliminate(rows)[1])


def mat_inv_unimodular(m):
    """Exact inverse of an integer matrix with determinant +-1: the
    right half of the eliminated [M | I], divided by d = +-1."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    rows, pivots, d, sign = eliminate(aug, n)
    det = sign * d if len(pivots) == n else 0
    if abs(det) != 1:
        raise SpectraError(f"matrix determinant {det} is not a unit")
    return [[x * d for x in row[n:]] for row in rows]


def mat_pow_signed(m, k: int):
    """M^k for any integer k; a negative k powers the unimodular inverse,
    which ``spectra.mat_pow`` (k >= 0 only) leaves to its callers."""
    return mat_pow(mat_inv_unimodular(m), -k) if k < 0 else mat_pow(m, k)


# ---------------------------------------------------------------------------
# the earlier implementations of the routines that now share one powering
# loop or reduce by floor quotients, kept as oracles: each computes a
# unique value, so the library must return the same one


def reference_power(multiply, invert, identity, a, k):
    """a**k by the engines' former loop: invert for k < 0, and take the
    first factor as it is."""
    if k < 0:
        a = invert(a)
        k = -k
    result = None
    while k:
        if k & 1:
            result = a if result is None else multiply(result, a)
        k >>= 1
        if k:
            a = multiply(a, a)
    return identity if result is None else result


def reference_pow_word(a: tuple, e) -> tuple:
    """a**e by the word kernel's former loop, which starts from the
    empty word."""
    if e == 0 or not a:
        return ()
    if e < 0:
        a = wordops.invert_word(a)
        e = -e
    if e == 1:
        return a
    result: tuple = ()
    base = a
    while True:
        if e & 1:
            result = wordops.concat_reduce(result, base)
        e >>= 1
        if not e:
            return result
        base = wordops.concat_reduce(base, base)


def reference_mat_pow(m, k: int):
    """M^k, k >= 0, by the former loop, which starts from the identity."""
    acc = mat_identity(len(m))
    base = m
    while k:
        if k & 1:
            acc = mat_mul(acc, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return acc


def _reference_ext_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def reference_hermite_rows(rows):
    """The Hermite form by the former unimodular gcd steps: each row
    below the pivot is folded into it by the extended gcd of the two
    entries."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] == 0:
                continue
            if pivot is None:
                pivot = i
                continue
            a, b = mat[pivot][c], mat[i][c]
            g, u, v = _reference_ext_gcd(a, b)
            row_p = [u * mat[pivot][k] + v * mat[i][k] for k in range(cols)]
            row_i = [(-b // g) * mat[pivot][k] + (a // g) * mat[i][k]
                     for k in range(cols)]
            mat[pivot], mat[i] = row_p, row_i
        if pivot is None or mat[pivot][c] == 0:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [mat[i][k] - q * mat[r][k] for k in range(cols)]
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r] if any(row)]


def flat_to_units(flat: tuple) -> list:
    """Expand a flat word into signed 1-based unit letters."""
    units = []
    for i in range(0, len(flat), 2):
        g = flat[i] + 1
        e = flat[i + 1]
        step = g if e > 0 else -g
        units.extend([step] * abs(e))
    return units


def units_to_flat(units) -> tuple:
    """Reduce signed 1-based unit letters to a flat word."""
    runs = Word.of((abs(u) - 1, 1 if u > 0 else -1) for u in units).letters
    return tuple(chain.from_iterable(runs))


def reference_conjugacy_test(a: tuple, b: tuple):
    """The free conjugacy test on unit letters throughout: peel inverse
    end letters, rotate, and reduce the conjugator's letters."""
    def peel(units):
        lo, hi = 0, len(units)
        while hi - lo >= 2 and units[lo] == -units[hi - 1]:
            lo += 1
            hi -= 1
        return units[:lo], units[lo:hi]

    pa, core_a = peel(flat_to_units(a))
    pb, core_b = peel(flat_to_units(b))
    n = len(core_a)
    if n != len(core_b):
        return None
    if n == 0:
        return ()
    for r in range(n):
        if core_a[r:] + core_a[:r] == core_b:
            c_units = pb + [-u for u in reversed(core_a[:r])] + [-u for u in reversed(pa)]
            return units_to_flat(c_units)
    return None


def word_length(a: tuple):
    """Letter count of a flat word: the sum of |exponent| over it."""
    return sum(abs(a[i]) for i in range(1, len(a), 2))


def elementary_product(rng, n, steps):
    """A random product of elementary matrices: row additions and sign
    flips, so the determinant is +-1."""
    m = mat_identity(n)
    for _ in range(steps):
        e = mat_identity(n)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j and rng.random() < 0.8:
            e[i][j] = rng.choice([-2, -1, 1, 2])
        else:
            e[i][i] = -1
        m = mat_mul(e, m)
    return m


def block_diag(*blocks):
    """The block-diagonal sum of square integer matrices."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def torus_engine():
    return SemidirectEngine(FreeEngine(2), *TORUS_AUTO)


def rot4_engine():
    return SemidirectEngine(AbelianEngine(2), *ROT4_AUTO)


def fib_engine():
    return SemidirectEngine(AbelianEngine(2), *FIB_AUTO)


def nested_bs1_engine():
    """Extension of bs1 (m = 2) by the involution a -> a^-1, t -> a t."""
    flip = {"a": "a^-1", "t": "a t"}
    return SemidirectEngine(BS1Engine(2), flip, flip)


def nested_torus_engine():
    """Extension of the torus group by conjugation with x."""
    return SemidirectEngine(
        torus_engine(),
        {"t": "x t x^-1", "x": "x", "y": "x y x^-1"},
        {"t": "x^-1 t x", "x": "x", "y": "x^-1 y x"})


def tower_engine():
    """A three-deep tower: the nested torus group extended by
    conjugation with x."""
    return SemidirectEngine(
        nested_torus_engine(),
        {"t": "x t x^-1", "t1": "x t1 x^-1", "x": "x", "y": "x y x^-1"},
        {"t": "x^-1 t x", "t1": "x^-1 t1 x", "x": "x", "y": "x^-1 y x"})


def klein_automorphisms():
    """The 20 automorphisms a -> a^e, t -> a^k t^f of the Klein group,
    e, f = +-1 and |k| <= 2, each as (forward, backward) with the
    inverse a -> a^e, t -> a^(-e k) t^f."""
    return [({"a": Word.of((("a", e),)), "t": Word.of((("a", k), ("t", f)))},
             {"a": Word.of((("a", e),)), "t": Word.of((("a", -e * k), ("t", f)))})
            for e in (1, -1) for f in (1, -1) for k in range(-2, 3)]


def family_engines():
    """One engine per family plus split-extension variants."""
    return [
        FreeEngine(2),
        FreeEngine(3),
        AbelianEngine(1),
        AbelianEngine(3),
        KleinEngine(),
        BS1Engine(2),
        BS1Engine(-3),
        torus_engine(),
        rot4_engine(),
        fib_engine(),
    ]


def bs1_normal_form(m, num, e, shift):
    """The BS(1, m) element num / m^e at shift, in normal form: e >= 0,
    and e = 0 or m does not divide num."""
    if num == 0:
        return (0, 0, shift)
    if e < 0:
        num *= m ** (-e)
        e = 0
    while e > 0 and num % m == 0:
        num //= m
        e -= 1
    return (num, e, shift)


def bs1_multiply_reference(m, a, b):
    """BS(1, m) product by the general formula: bring both numerators to
    the exponent max(e1, e2 - s1, 0), add them and normalise."""
    n1, e1, s1 = a
    n2, e2, s2 = b
    d1, d2 = e1, e2 - s1
    ee = max(d1, d2, 0)
    num = n1 * m ** (ee - d1) + n2 * m ** (ee - d2)
    return bs1_normal_form(m, num, ee, s1 + s2)


def reference_balls(engine, gens, radius):
    """Reference BFS for the tests, independent of `ball_sizes`: yields
    the set of elements of the ball of each radius 0..radius (one set,
    grown in place), keyed by element equality and multiplied with
    `engine.multiply` only.  Stop iterating to stop the search."""
    alphabet = []
    for g in gens:
        for el in (g, engine.invert(g)):
            if el != engine.identity and el not in alphabet:
                alphabet.append(el)
    seen = {engine.identity}
    frontier = [engine.identity]
    yield seen
    for _ in range(radius):
        nxt = []
        for el in frontier:
            for a in alphabet:
                prod = engine.multiply(el, a)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        yield seen


def random_word(rng, names, max_len=5):
    pairs = []
    for _ in range(rng.randrange(max_len + 1)):
        name = rng.choice(names)
        exp = rng.choice([-3, -2, -1, 1, 2, 3])
        pairs.append((name, exp))
    return Word.of(pairs)


def random_element(rng, engine, max_len=5):
    return engine.evaluate_word(random_word(rng, list(engine.gen_names), max_len))


def insert_trivial_pair(rng, word, names):
    """The same group element spelled with a g g^-1 stutter inserted."""
    pairs = list(word.letters)
    name = rng.choice(names)
    exp = rng.choice([-2, -1, 1, 2])
    pos = rng.randrange(len(pairs) + 1)
    noisy = pairs[:pos] + [(name, exp), (name, -exp)] + pairs[pos:]
    return Word.of(noisy)


def cyclically_reduced_words(rank: int, max_length: int):
    """Flat free words, cyclically reduced, ordered by (length, lex) in
    the unit order x, x^-1, y, y^-1, ..."""
    order = []
    for g in range(1, rank + 1):
        order.extend((g, -g))

    def emit(length):
        seq = []

        def rec():
            if len(seq) == length:
                if length == 1 or seq[-1] != -seq[0]:
                    yield tuple(seq)
                return
            for unit in order:
                if seq and unit == -seq[-1]:
                    continue
                seq.append(unit)
                yield from rec()
                seq.pop()

        yield from rec()

    for length in range(1, max_length + 1):
        for units in emit(length):
            yield units_to_flat(list(units))


def first_of_orbit(flat) -> bool:
    """True iff the cyclically reduced word ``flat`` comes first in the
    stream among its orbit: the rotations of itself and of its inverse.
    Such a word is below each of its other rotations in the unit order,
    which also rules out proper powers, since r^m equals its rotation by
    the length of r.  It is below every rotation of its inverse too;
    these never tie with it, because no element of a free group other
    than e is conjugate to its inverse."""
    # unit order x, x^-1, y, y^-1, ... as ranks 0, 1, 2, 3, ...; the
    # inverse of a unit flips the low bit of its rank
    key = [2 * u - 2 if u > 0 else -2 * u - 1 for u in flat_to_units(flat)]
    inv = [r ^ 1 for r in reversed(key)]
    n = len(key)
    for r in range(1, n):
        if key[r:] + key[:r] <= key:
            return False
    for r in range(n):
        if inv[r:] + inv[:r] < key:
            return False
    return True


def reference_commutators(engine, elems):
    """Every candidate (j, k, sj, sk, c) of the search, in search order:
    all four signs of every pair j < k, each commutator built from fresh
    inverses, kept when c != e."""
    cands = []
    for j in range(len(elems)):
        for k in range(j + 1, len(elems)):
            for sj, sk in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                aj = elems[j] if sj > 0 else engine.invert(elems[j])
                ak = elems[k] if sk > 0 else engine.invert(elems[k])
                c_el = engine.multiply(
                    engine.multiply(aj, ak),
                    engine.multiply(engine.invert(aj), engine.invert(ak)))
                if c_el != engine.identity:
                    cands.append((j, k, sj, sk, c_el))
    return cands


def reference_analyze(engine, gens, u, d):
    """`witness.analyze` as an eager search: every generator commutator
    is built before the first case runs, and every case of every row
    runs, skipped kernel pairs included.  It takes valid input only."""
    elems = [engine.evaluate_word(Word.parse(w) if isinstance(w, str) else w) for w in gens]
    cands = reference_commutators(engine, elems)
    if not cands:
        return Certificate(
            VIRTUALLY_NILPOTENT_DIAGNOSIS,
            reason="every generator commutator vanishes; the generated "
                   "group is abelian")
    diags = []
    for i in range(len(elems)):
        for cand in cands:
            cert, diag = _case(engine, elems, u, d, i, cand)
            if cert is not None:
                return cert
            if diag:
                diags.append(diag)
    uniq = list(dict.fromkeys(diags))
    return Certificate(
        INCONCLUSIVE,
        diagnostics="; ".join(uniq) if uniq else
        "no candidate case produced a certificate")


def _reference_pcc_from_stable(engine, a_el, x0, eps: int, diagnostics: str):
    """x1 = x0^eps exactly: conjugation by a fixes the class of x0, so
    the kernel part of x0 lies on a periodic conjugacy class."""
    base = engine.base
    w = engine.kernel_part(a_el)
    p = engine.shift(a_el)
    v = engine.kernel_part(x0)
    if eps == 1:
        n = abs(p)
        if p > 0:
            c = base.invert(w)
        else:
            c = engine.auto_power(w, -p)
    else:
        n = 2 * abs(p)
        cpos = base.invert(base.multiply(w, engine.auto_power(w, p)))
        if p > 0:
            c = cpos
        else:
            c = engine.auto_power(base.invert(cpos), -2 * p)
    return _pcc_certificate(engine, v, n, c, diagnostics=diagnostics)


def _reference_find_relation(engine, x0, x1):
    """Smallest relation x0^a x1^b = e with b >= 1 and gcd(|a|, b) = 1
    inside the search window, or None."""
    identity = engine.identity
    for b in range(1, RELATION_SEARCH_BOUND + 1):
        xb = engine.power(x1, b)
        for aa in range(1, RELATION_SEARCH_BOUND + 1):
            if math.gcd(aa, b) != 1:
                continue
            for a in (aa, -aa):
                if engine.multiply(engine.power(x0, a), xb) == identity:
                    return (a, b)
    return None


def reference_chain_case(engine, a_el, x0, u, d, tag):
    """`witness._chain_case` as a search of every pair: both one-step
    pairs (x0, x1) and (x0, x_-1), every pair of chain elements at each
    depth, every product x0^a x1^b of the relation window, and the
    periodic class by four branches on the sign of the shift and on
    whether conjugation fixes or inverts x0."""
    x1 = _conj(engine, a_el, x0)
    xm1 = _conj(engine, engine.invert(a_el), x0)
    for other in (x1, xm1):
        cert, diag = _kernel_pair(engine, x0, other, 6, u, tag)
        if cert or diag:
            return cert, diag
    if x1 == x0:
        return _reference_pcc_from_stable(engine, a_el, x0, 1, f"{tag}: conjugation fixes x0"), None
    if x1 == engine.invert(x0):
        return _reference_pcc_from_stable(engine, a_el, x0, -1, f"{tag}: conjugation inverts x0"), None
    # both one-step pairs commute yet x1 is not x0 or its inverse:
    # grow the conjugation chain up to depth d+1
    xs = [x0, x1]
    for s in range(2, d + 2):
        xs.append(_conj(engine, a_el, xs[-1]))
        for r in range(len(xs) - 1):
            if not engine.commute(xs[r], xs[-1]):
                if s <= d:
                    return _growth_certificate(
                        KERNEL_CHAIN_ESCAPE, u, 2 * s + 4,
                        depth=s,
                        diagnostics=(
                            f"{tag}: chain elements at offsets {r} and {s} "
                            "do not commute"),
                    ), None
                return None, (
                    f"{tag}: chain escapes only at depth {s}, beyond the "
                    f"certified window for d={d}")
    rel = _reference_find_relation(engine, x0, x1)
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

def reference_pcc_scans(engine, max_period, max_length):
    """The periodic-class scan on a free base over every word of the
    unfiltered `cyclically_reduced_words` stream, for every pair of
    bounds at once: maps (p, l) with p <= max_period and l <= max_length
    to the `PccResult` naming the first word k of length <= l, with its
    least n <= p, for which alpha^n(k) is conjugate to k.  One pass finds
    each word's least n; it stops once no open pair of bounds admits
    the next word's length."""
    base = engine.base
    bounds = [(p, l) for p in range(1, max_period + 1) for l in range(1, max_length + 1)]
    results = dict.fromkeys(bounds, PccResult(None, False, "none within bounds (semi-decision)"))
    open_bounds = set(bounds)
    for k_el in cyclically_reduced_words(base.rank, max_length):
        length = word_length(k_el)
        open_bounds = {(p, l) for p, l in open_bounds if l >= length}
        if not open_bounds:
            break
        for n in range(1, max_period + 1):
            c = base.conjugacy_test(k_el, engine.auto_power(k_el, n))
            if c is not None:
                found = PccResult(_pcc_certificate(engine, k_el, n, c), False,
                                  "found within bounds")
                for b in [b for b in open_bounds if b[0] >= n]:
                    results[b] = found
                    open_bounds.discard(b)
                break
    return results


def reference_auto_power(engine, el, k):
    """alpha^k(el) by applying the declared forward (k > 0) or backward
    (k < 0) images |k| times, each time spelling the element as a word
    with `element_to_word`, substituting the image words letter by letter
    and evaluating the result with `evaluate_word`; no level table."""
    base = engine.base
    side = "forward" if k > 0 else "backward"
    images = {g: Word.parse(w) for g, w in engine.spec_dict()["automorphism"][side].items()}
    for _ in range(abs(k)):
        pieces = []
        for name, exp in base.element_to_word(el).letters:
            img = images[name] if exp > 0 else word_inverse(images[name])
            pieces.extend(img.letters * abs(exp))
        el = base.evaluate_word(Word.of(pieces))
    return el


def reference_klein_pcc(engine, max_period, max_length):
    """The periodic-class scan on a klein base as a search: the words
    a^i t^j by |i| + |j| <= max_length, then by i, then j > 0 first, each
    tested at n = 1..max_period for a conjugator of k to alpha^n(k).  The
    conjugator is searched by brute force among a^p t^q, |p| <= 4 and
    q in {0, 1}, by |p| + q, then p, then q.  Every element is a^p t^q
    and t^2 is central, so a^p t^q conjugates (i, j) to (+-i, j) at even
    j and to (+-i + 2p, j) at odd j: the search is complete for targets
    with |i| <= 4."""
    base = engine.base
    conjugators = sorted(((p, q) for p in range(-4, 5) for q in (0, 1)),
                         key=lambda c: (abs(c[0]) + c[1], c))
    for total in range(1, max_length + 1):
        for i in range(-total, total + 1):
            js = [total - abs(i)] if abs(i) == total else [total - abs(i), abs(i) - total]
            for k_el in ((i, j) for j in js):
                for n in range(1, max_period + 1):
                    img = engine.auto_power(k_el, n)
                    for c in conjugators:
                        if base.multiply(base.multiply(c, k_el), base.invert(c)) == img:
                            return PccResult(_pcc_certificate(engine, k_el, n, c), False,
                                             "found within bounds")
    return PccResult(None, False, "none within bounds (semi-decision)")


def _krylov_annihilator(t_mat, v):
    """Primitive integer coefficients (low-to-high) of the minimal
    polynomial of v under t_mat: the first linear dependence among v,
    t_mat v, t_mat^2 v, ..., solved over the rationals."""
    vs = [list(v)]
    for _ in range(len(v)):
        vs.append(list(mat_vec(t_mat, vs[-1])))
        sol = solve(vs[:-1], vs[-1])
        if sol is not None:
            denom = math.lcm(*(f.denominator for f in sol))
            coeffs = [-int(f * denom) for f in sol] + [denom]
            g = math.gcd(*coeffs)
            return [c // g for c in coeffs]
    raise AssertionError("no dependence found within the space dimension")


def reference_expansion_power(r_mat, v_coords) -> int:
    """`witness._expansion_power` by the definition its word argument
    uses: the least K for which the minimal polynomial of v (coordinates
    v_coords) under R^K has a root outside |z| < EXPANSION_MARGIN, with
    that polynomial found by a Krylov search at every power of R."""
    r_pow = r_mat
    for k in range(1, _EXPANSION_POWER_CAP + 1):
        anni = _krylov_annihilator(r_pow, v_coords)
        assert abs(anni[-1]) == 1, "annihilator must be monic up to sign"
        if not roots_inside(anni, EXPANSION_MARGIN):
            return k
        r_pow = mat_mul(r_pow, r_mat)
    raise AssertionError("expanding action failed to clear the margin")


def reference_returns(engine, max_period):
    """`witness._abelian_returns` by stepping: for each word k, its
    exponent-sum vector v is multiplied by M once per n <= max_period,
    and every n with M^n v = v is listed."""
    base = engine.base
    rank = base.rank

    def sums(w):
        v = [0] * rank
        for i in range(0, len(w), 2):
            v[w[i]] += w[i + 1]
        return v

    cols = [sums(engine.auto_power(base.generator(g), 1)) for g in base.gen_names]

    def returns(k_el):
        v = vn = sums(k_el)
        out = []
        for n in range(1, max_period + 1):
            vn = [sum(x * col[i] for x, col in zip(vn, cols)) for i in range(rank)]
            if vn == v:
                out.append(n)
        return out

    return returns


def reference_level_at(engine, k):
    """The base's level of alpha^k by a walk from level +-1 towards k,
    alpha^j = alpha^(j - step) o alpha^step one step at a time, storing
    nothing on the engine; at k = 0 one step back from level 1 gives the
    identity level."""
    base = engine.base
    apply = base.apply_level
    step = 1 if k > 0 else -1
    j = -step if k == 0 else step
    level = engine.level_at(j)
    one = {g: apply(engine.level_at(step), base.generator(g)) for g in base.gen_names}
    while j != k:
        j += step
        level = base.level({g: apply(level, w) for g, w in one.items()})
    return level


def reference_element_word(engine, el):
    """The normal-form Word of el, built per family as a Word: the
    letters merged by `Word.of` on klein and bs1, and on a split
    extension the base's Word renamed, times the Word t^k."""
    family = engine.family
    if family == "free":
        return Word(tuple((engine.gen_names[el[i]], el[i + 1])
                          for i in range(0, len(el), 2)))
    if family == "abelian":
        return Word(tuple((engine.gen_names[i], v) for i, v in enumerate(el) if v))
    if family == "klein":
        return Word.of((("a", el[0]), ("t", el[1])))
    if family == "bs1":
        n, e, s = el
        return Word.of((("t", -e), ("a", n), ("t", e + s)))
    w, k = el
    inner = word_rename(reference_element_word(engine.base, w), engine._base_to_outer)
    return inner * Word.of((("t", k),))


def reference_apply_level(engine, el, k):
    """alpha^k(el) on a klein, bs1 or nested base from the engine's own
    level k, applied along the Word `reference_element_word` spells,
    letter by letter with the base's `power` and `multiply`."""
    base = engine.base
    if k == 0:
        return el
    level = engine.level_at(k)
    out = base.identity
    for name, exp in reference_element_word(base, el).letters:
        out = base.multiply(out, base.power(level[name], exp))
    return out


def _seeded_text(rng, names, max_letters):
    """A word as text: 1..max_letters tokens, exponents +-1 and +-2."""
    toks = []
    for _ in range(rng.randint(1, max_letters)):
        name, e = rng.choice(names), rng.choice((-2, -1, -1, 1, 1, 2))
        toks.append(name if e == 1 else f"{name}^{e}")
    return " ".join(toks)


def certify_outputs(builders, seed=24):
    """Encoded outputs of the certificate paths over a seeded corpus, one
    line per call: per engine, ``analyze`` on 16 generating sets of two
    or three words given as text (so parsing runs too) at a seeded cap d,
    and ``pcc_scan`` at 4 seeded pairs of bounds; then
    ``alexander_polynomial`` on 60 seeded relator lists in t and x.  A
    call that raises a growthlab error encodes as the error's type and
    message, so refused input is part of the record."""
    rng = random.Random(seed)

    def encode(call):
        try:
            return json.dumps(call())
        except GrowthlabError as exc:
            return f"ERR {type(exc).__name__}: {exc}"

    lines = []
    for build in builders:
        eng = build()
        names = list(eng.gen_names)
        for _ in range(16):
            gens = [_seeded_text(rng, names, 4) for _ in range(rng.randint(2, 3))]
            d = rng.randint(1, 3)
            lines.append(encode(lambda: analyze(eng, gens, 3.0, d).to_json()))
        for _ in range(4):
            bounds = rng.randint(1, 8), rng.randint(1, 4)

            def scan():
                res = pcc_scan(eng, *bounds)
                cert = res.certificate
                return [None if cert is None else cert.to_json(), res.exact, res.note]
            lines.append(encode(scan))
    for i in range(60):
        # runs x^e at seeded t-heights, closed back to height 0, with a
        # common content factor in some lists; every fifth list is plain
        # seeded text in t and x, closed the same way
        scale = rng.choice((1, 1, 2))
        relators = []
        for _ in range(rng.randint(1, 3)):
            if i % 5 == 0:
                text = _seeded_text(rng, ["t", "x"], 6)
                total = sum(e for n, e in Word.parse(text).letters if n == "t")
                relators.append(f"{text} t^{-total}" if total else text)
                continue
            toks, height = [], 0
            for _ in range(rng.randint(1, 4)):
                step = rng.randint(-2, 2)
                if step:
                    toks.append(f"t^{step}")
                    height += step
                toks.append(f"x^{scale * rng.choice((-3, -2, -1, 1, 2, 3))}")
            if height:
                toks.append(f"t^{-height}")
            relators.append(" ".join(toks))

        def delta():
            p = alexander_polynomial(relators)
            return [p.format(), sorted(p.coeffs.items())]
        lines.append(encode(delta))
    return lines


def certify_digest(builders, seed=24) -> str:
    """sha256 of the ``certify_outputs`` lines, newline-terminated."""
    text = "".join(line + "\n" for line in certify_outputs(builders, seed))
    return hashlib.sha256(text.encode()).hexdigest()
