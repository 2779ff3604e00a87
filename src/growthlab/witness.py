"""Certificate search for growth witnesses in split extensions K x| Z.

Given a finite generating set A, the analyzer walks the short subgroup
candidates ⟨a_i, [a_j, a_k]⟩ in a fixed order and tries to certify
exponential growth: a short non-cyclic pair inside the kernel, an
escaping conjugation chain, or an expanding integer-matrix action.  The
degenerate outcomes are certified too where they are decidable (a
periodic conjugacy class, an abelian generating set); anything else is
reported as inconclusive with diagnostics, never guessed.

Every certificate carries the growth bound implied by its branch,
rescaled by the word length of the witnesses in the A alphabet, and is
re-verified by an independent computation before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from growthlab import GrowthlabError
from growthlab._exact import solve
from growthlab.engines import UnsupportedFamilyError, units_to_flat
from growthlab.growth import rescale_lower_bound
from growthlab.laurent import sticking_contradiction
from growthlab.spectra import (
    EXPONENTIAL,
    SpectraError,
    char_poly,
    classify_abelian_by_cyclic,
    fixed_vector_of_power,
    hermite_rows,
    matrix_rank,
    mat_pow,
    mat_vec,
    roots_inside,
    smallest_cyclotomic_order,
)
from growthlab.subgroups import fold, is_cyclic_pair
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


class WitnessError(GrowthlabError):
    pass


# JSON names of the Certificate fields that differ from the field name
_JSON_KEYS = {"u_word": "u", "v_word": "v", "k_word": "k", "c_word": "c"}


@dataclass
class Certificate:
    variant: str
    bound: float = None
    u_word: str = None
    v_word: str = None
    max_A_length: int = None
    depth: int = None
    matrix: tuple = None
    m: float = None
    k_word: str = None
    n: int = None
    c_word: str = None
    reason: str = None
    diagnostics: str = None
    reverified: bool = None

    def to_json(self) -> dict:
        """The set fields in declaration order; the word fields print
        under their one-letter names."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "matrix":
                value = [list(row) for row in value]
            out[_JSON_KEYS.get(f.name, f.name)] = value
        return out


# witness word length of each fixed-length branch; "chain" uses 2d + 4
_BRANCH_LENGTHS = {"pair_in_kernel": 4, "conjugate_pair": 6,
                   "infinite_kernel": 4}


def _check_hypothesis(u: float) -> None:
    # NaN fails both comparisons; inf would print as non-JSON "Infinity"
    if not 1.0 < u < math.inf:
        raise WitnessError("growth hypothesis u must be finite and exceed 1")


def combined_bound(u: float, branch: str, d: int = None) -> float:
    """Exponent bookkeeping for the certified branches: u rescaled by the
    witness word length of the branch."""
    _check_hypothesis(u)
    if branch == "chain":
        if d is None or d < 1:
            raise WitnessError("chain branch needs the depth cap d")
        length = 2 * d + 4
    elif branch in _BRANCH_LENGTHS:
        length = _BRANCH_LENGTHS[branch]
    else:
        raise WitnessError(f"unknown branch {branch!r}")
    return rescale_lower_bound(u, length)


# ---------------------------------------------------------------------------
# shared helpers


def _word_str(engine, el) -> str:
    return str(engine.element_to_word(el))


def _conj(engine, a, x):
    return engine.multiply(engine.multiply(a, x), engine.invert(a))


def _reverify_noncyclic(engine, uel, vel) -> bool:
    """Independent confirmation that <u, v> is not cyclic."""
    if not engine.commute(uel, vel):
        return True
    cur, cu, cv = engine, uel, vel
    while (cur.family == "semidirect" and cur.shift(cu) == 0
           and cur.shift(cv) == 0):
        cu, cv = cur.kernel_part(cu), cur.kernel_part(cv)
        cur = cur.base
    if cur.family == "abelian":
        return matrix_rank([list(cu), list(cv)]) >= 2
    if cur.family == "free":
        return fold([cu, cv], cur.rank).rank >= 2
    if cur.family == "semidirect":
        p, q = cur.shift(cu), cur.shift(cv)
        rel = cur.multiply(cur.power(cu, q), cur.power(cv, -p))
        return rel != cur.identity
    if cur.family == "klein":
        if cu[1] % 2 == 0 and cv[1] % 2 == 0:
            return matrix_rank([[cu[0], cu[1]], [cv[0], cv[1]]]) >= 2
        p, q = cu[1], cv[1]
        rel = cur.multiply(cur.power(cu, q), cur.power(cv, -p))
        return rel != cur.identity
    return False


def _noncyclic_certificate(engine, uel, vel, max_len: int, bound: float):
    if not _reverify_noncyclic(engine, uel, vel):
        raise AssertionError("non-cyclic pair failed independent re-verification")
    return Certificate(
        NON_CYCLIC_PAIR,
        bound=bound,
        u_word=_word_str(engine, uel),
        v_word=_word_str(engine, vel),
        max_A_length=max_len,
        reverified=True,
    )


def _verify_pcc(engine, k_el, n: int, c_el) -> bool:
    base = engine.base
    lhs = engine.auto_power(k_el, n)
    rhs = base.multiply(base.multiply(c_el, k_el), base.invert(c_el))
    return lhs == rhs


def _pcc_certificate(engine, k_el, n: int, c_el, diagnostics=None):
    if k_el == engine.base.identity:
        raise AssertionError("periodic-class witness must be nontrivial")
    if not _verify_pcc(engine, k_el, n, c_el):
        raise AssertionError("periodic conjugacy failed engine re-verification")
    return Certificate(
        PERIODIC_CONJUGACY,
        k_word=str(engine.base.element_to_word(k_el)),
        n=n,
        c_word=str(engine.base.element_to_word(c_el)),
        diagnostics=diagnostics,
        reverified=True,
    )


def _pcc_from_stable(engine, a_el, x0, eps: int, diagnostics: str):
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


def _find_relation(engine, x0, x1):
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


# ---------------------------------------------------------------------------
# the abelian-kernel track


def _abelian_matrix(engine):
    """Matrix of the automorphism on the abelian base, columns = images."""
    base = engine.base
    r = base.rank
    cols = []
    for name in base.gen_names:
        cols.append(engine.auto_power(base.generator(name), 1))
    return [[cols[j][i] for j in range(r)] for i in range(r)]


def _solve_int_combo(basis_rows, target):
    """Integer coordinates of target in the given lattice basis."""
    coords = solve(basis_rows, target)
    if coords is None:
        raise AssertionError("target vector lies outside the lattice")
    if any(f.denominator != 1 for f in coords):
        raise AssertionError("lattice coordinates are not integral")
    return [int(f) for f in coords]


def _invariant_lattice(n_mat, n_inv, v):
    rows = hermite_rows([list(v)])
    while True:
        ext = [list(b) for b in rows]
        for b in rows:
            ext.append(list(mat_vec(n_mat, b)))
            ext.append(list(mat_vec(n_inv, b)))
        new = hermite_rows(ext)
        if new == rows:
            return rows
        rows = new


def _restricted_matrix(n_mat, basis_rows):
    cols = []
    for b in basis_rows:
        cols.append(_solve_int_combo(basis_rows, mat_vec(n_mat, b)))
    k = len(basis_rows)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _krylov_annihilator(t_mat, v):
    """Primitive integer coefficients (low-to-high) of the minimal
    polynomial of v under t_mat."""
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


def _expansion_power(r_mat, v_coords) -> int:
    """Least K for which the minimal polynomial of v under R^K has a
    root of modulus beyond the margin, making the 2^L sign words over
    the orbit pairwise distinct.

    The exact test "not every root in |z| < 41/20" also accepts a root
    of modulus exactly 41/20, which the strict "> 2.05" did not; no such
    root exists.  The annihilator is primitive and divides the monic
    integer characteristic polynomial of R^K, so by Gauss's lemma it is
    monic up to sign and its roots are algebraic integers.  A root z
    with |z| = 41/20 would make z * conj(z) = 1681/400 an algebraic
    integer, and a rational algebraic integer is an integer."""
    for k in range(1, _EXPANSION_POWER_CAP + 1):
        anni = _krylov_annihilator(mat_pow(r_mat, k), v_coords)
        assert abs(anni[-1]) == 1, "annihilator must be monic up to sign"
        if not roots_inside(anni, EXPANSION_MARGIN):
            return k
    raise AssertionError("expanding action failed to clear the margin")


def _abelian_case(engine, a_el, x0, tag):
    base = engine.base
    p = engine.shift(a_el)
    # the engine checked backward . forward = id on every generator, so
    # B M = I over Z and det M = +-1: no determinant check is needed
    m_mat = _abelian_matrix(engine)
    n_mat = mat_pow(m_mat, p)
    n_inv = mat_pow(m_mat, -p)
    v = list(engine.kernel_part(x0))
    basis = _invariant_lattice(n_mat, n_inv, v)
    r_mat = _restricted_matrix(n_mat, basis)
    try:
        cls = classify_abelian_by_cyclic(r_mat)
    except SpectraError as exc:
        return None, f"{tag}: {exc}"
    if cls.kind == EXPONENTIAL:
        v_coords = _solve_int_combo(basis, v)
        k_pow = _expansion_power(r_mat, v_coords)
        bound = rescale_lower_bound(2.0, 4 + k_pow)
        cert = Certificate(
            SPECTRAL_EXPONENTIAL,
            bound=bound,
            matrix=tuple(tuple(row) for row in r_mat),
            m=cls.m,
            max_A_length=4 + k_pow,
            diagnostics=(
                f"orbit lattice rank {len(basis)}; expansion power {k_pow}"),
            reverified=True,
        )
        return cert, None
    # quasi-unipotent action: produce the explicit periodic class.  R is
    # N on an N- and N^-1-invariant lattice, so char(R) divides char(N)
    # (Gauss's lemma, both monic) and the cyclotomic factors of char(R)
    # are factors of char(N): d_full is never None here
    d_full = smallest_cyclotomic_order(char_poly(n_mat))
    k_el = tuple(fixed_vector_of_power(n_mat, d_full))
    cert = _pcc_certificate(engine, k_el, d_full * abs(p), base.identity,
                            diagnostics=f"{tag}: root-of-unity action")
    return cert, None


# ---------------------------------------------------------------------------
# the conjugation chain track


def _klein_suspect(engine, x0, x1) -> bool:
    return (not engine.commute(x0, x1)
            and engine.power(x0, 2) == engine.power(x1, 2))


def _chain_case(engine, a_el, x0, u, d, tag):
    x1 = _conj(engine, a_el, x0)
    xm1 = _conj(engine, engine.invert(a_el), x0)
    try:
        for other in (x1, xm1):
            if not is_cyclic_pair(engine, x0, other):
                # a Klein-bottle shaped pair grows polynomially, so it
                # must not be certified as a growth witness
                if _klein_suspect(engine, x0, other):
                    return None, (
                        f"{tag}: KleinBottleSuspect: one-step subgroup is "
                        "non-abelian with x0^2 = x1^2")
                return _noncyclic_certificate(
                    engine, x0, other, 6,
                    combined_bound(u, "conjugate_pair")), None
    except UnsupportedFamilyError as exc:
        return None, f"{tag}: {exc}"
    if x1 == x0:
        return _pcc_from_stable(engine, a_el, x0, 1, f"{tag}: conjugation fixes x0"), None
    if x1 == engine.invert(x0):
        return _pcc_from_stable(engine, a_el, x0, -1, f"{tag}: conjugation inverts x0"), None
    # both one-step subgroups are cyclic yet x1 is not x0 or its inverse:
    # grow the conjugation chain up to depth d+1
    xs = [x0, x1]
    for s in range(2, d + 2):
        xs.append(_conj(engine, a_el, xs[-1]))
        for r in range(len(xs) - 1):
            if not engine.commute(xs[r], xs[-1]):
                if s <= d:
                    return Certificate(
                        KERNEL_CHAIN_ESCAPE,
                        bound=combined_bound(u, "chain", d),
                        depth=s,
                        max_A_length=2 * s + 4,
                        diagnostics=(
                            f"{tag}: chain elements at offsets {r} and {s} "
                            "do not commute"),
                        reverified=True,
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
        if abs(a) == 1:
            return None, f"{tag}: unexpected unit relation between x0 and x1"
        detail = (f"conjugation relation x1 = x0^{-a}: polynomial invariant "
                  f"t - {-a} is not monic at both ends, kernel not finitely "
                  "generated")
    else:
        verdict = sticking_contradiction(a, b)
        if not verdict.contradiction:
            return None, f"{tag}: sticking relation resolved without contradiction"
        detail = f"sticking relation x0^{a} x1^{b} = e: {verdict.detail}"
    cert = Certificate(
        KERNEL_CHAIN_ESCAPE,
        bound=combined_bound(2.0 ** 0.25, "infinite_kernel"),
        depth=d + 1,
        max_A_length=4,
        diagnostics=f"{tag}: {detail}",
        reverified=True,
    )
    return cert, None


# ---------------------------------------------------------------------------
# the analyzer


def _case(engine, elems, u, d, i, cand):
    j, k, sj, sk, c_el = cand
    sgn = lambda s: "" if s > 0 else "^-1"
    tag = f"(i={i}, [a{j}{sgn(sj)},a{k}{sgn(sk)}])"
    a_el = elems[i]
    p = engine.shift(a_el)
    base_fam = engine.base.family
    if p == 0:
        if base_fam in ("free", "semidirect"):
            try:
                cyc = is_cyclic_pair(engine, a_el, c_el)
            except UnsupportedFamilyError as exc:
                return None, f"{tag}: {exc}"
            if not cyc:
                return _noncyclic_certificate(
                    engine, a_el, c_el, 4,
                    combined_bound(u, "pair_in_kernel")), None
            return None, None
        return None, (f"{tag}: kernel pair skipped for {base_fam} base "
                      "(kernel may have polynomial growth)")
    if base_fam == "abelian":
        return _abelian_case(engine, a_el, c_el, tag)
    if base_fam in ("free", "semidirect"):
        return _chain_case(engine, a_el, c_el, u, d, tag)
    # klein or bs1 base: detection only
    x1 = _conj(engine, a_el, c_el)
    if _klein_suspect(engine, c_el, x1):
        return None, (f"{tag}: KleinBottleSuspect: one-step subgroup is "
                      "non-abelian with x0^2 = x1^2")
    return None, f"{tag}: no decision procedure for {base_fam} base"


def analyze(engine, gens, u: float, d: int, threads: int = 1) -> Certificate:
    """Search the candidate subgroups lexicographically and return the
    first certificate; deterministic for fixed inputs.  `threads` is
    accepted for compatibility and has no effect."""
    if engine.family != "semidirect":
        raise WitnessError("analysis requires a split-extension engine")
    _check_hypothesis(u)
    if d < 1:
        raise WitnessError("abelian cap d must be at least 1")
    words = [Word.parse(w) if isinstance(w, str) else w for w in gens]
    if not words:
        raise WitnessError("generating set is empty")
    elems = [engine.evaluate_word(w) for w in words]
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
    seen = set()
    uniq = []
    for s in diags:
        if s not in seen:
            seen.add(s)
            uniq.append(s)
    return Certificate(
        INCONCLUSIVE,
        diagnostics="; ".join(uniq) if uniq else
        "no candidate case produced a certificate")


# ---------------------------------------------------------------------------
# periodic-conjugacy scan


@dataclass
class PccResult:
    certificate: Certificate
    exact: bool
    note: str


def _cyclically_reduced_words(rank: int, max_length: int):
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


def pcc_scan(engine, max_period: int, max_length: int) -> PccResult:
    """Look for k != e and n <= max_period with alpha^n(k) conjugate to
    k in the base.  Exact for an abelian base; elsewhere a bounded scan
    whose empty answer only means none within bounds."""
    if engine.family != "semidirect":
        raise WitnessError("periodic-class scan requires a split-extension engine")
    if max_period < 1 or max_length < 1:
        raise WitnessError("scan bounds must be positive")
    base = engine.base
    if base.family == "abelian":
        m_mat = _abelian_matrix(engine)
        d = smallest_cyclotomic_order(char_poly(m_mat))
        if d is None or d > max_period:
            return PccResult(
                None, True,
                "exact: the action polynomial has no cyclotomic factor"
                if d is None else
                f"exact: smallest period {d} exceeds the bound")
        k_vec = fixed_vector_of_power(m_mat, d)
        cert = _pcc_certificate(engine, tuple(k_vec), d, base.identity)
        return PccResult(cert, True, "exact cyclotomic test")
    if base.family == "free":
        candidates = _cyclically_reduced_words(base.rank, max_length)
    elif base.family == "klein":
        candidates = (
            (i, j)
            for total in range(1, max_length + 1)
            for i in range(-total, total + 1)
            for j in ([total - abs(i)] if abs(i) == total
                      else [total - abs(i), abs(i) - total])
        )
    else:
        raise UnsupportedFamilyError(
            f"periodic-class scan unsupported for base family {base.family!r}")
    for k_el in candidates:
        for n in range(1, max_period + 1):
            img = engine.auto_power(k_el, n)
            c = base.conjugacy_test(k_el, img)
            if c is not None:
                cert = _pcc_certificate(engine, k_el, n, c)
                return PccResult(cert, False, "found within bounds")
    return PccResult(None, False, "none within bounds (semi-decision)")
