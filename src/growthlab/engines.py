"""Group engines with exact normal forms.

Families:

* free rank r: elements are reduced words, stored as flat tuples
  (g0, e0, g1, e1, ...) of 0-based generator indices and nonzero
  exponents;
* abelian rank r: integer vectors;
* klein: pairs (i, j) meaning a^i t^j in <a, t | t a t^-1 = a^-1>;
* bs1 with multiplier m, |m| >= 2: triples (num, e, shift) meaning the
  affine pair (num / m^e, shift) with e = 0 or m not dividing num, in
  <a, t | t a t^-1 = a^m>;
* semidirect K x| Z for an automorphism alpha of the base K given by
  generator images in both directions: pairs (base element, shift) with
  (w1, k1)(w2, k2) = (w1 * alpha^k1(w2), k1 + k2).

Each engine stores a power of an automorphism of itself, a level, in
its own form: ``level`` builds it from the generator images and
``apply_level`` applies it, so a split extension never reads its base's
element format.  A split extension's ``level_at(k)`` returns the
base's level for alpha^k, built by ``binary_power`` from level +-1 so
that a far k costs the bits of k; over an abelian base that is the rows
of the integer matrix of alpha^k, which the abelian-kernel searches read.
A free word is a flat tuple of runs throughout: the free conjugacy test
cuts cores at run ends and expands no exponent into letters.

Each class is its family's row in ``_FAMILIES``: ``family`` names it,
``spec_keys`` lists its group-file keys (for every family but the split
extension, its ``__init__`` arguments in order), the one ``spec_dict``
prints them back from the attributes of the same names, a ``base`` as
its own ``spec_dict``, and ``relators`` holds the defining relators
that a split extension over it checks each map against, every relator
in ``base.relators``: one on klein and bs1, none on free and abelian,
and none on a split extension, so a nested base is still unchecked.
No code here compares a family name.

Normal forms are canonical, so plain tuple equality is group equality,
and canonical_key produces an injective bytes key: one family tag byte
followed by a decimal payload (semidirect keys embed the base key, a
``|`` separator and the shift).
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mul, neg, sub

from growthlab import GrowthlabError, binary_power, wordops
from growthlab.words import Word, WordSyntaxError

TAG_FREE = b"\x01"
TAG_ABELIAN = b"\x02"
TAG_KLEIN = b"\x03"
TAG_BS1 = b"\x04"
TAG_SEMIDIRECT = b"\x05"
# the highest rank a group file may give a free or abelian group: the
# engines build tables with one entry per generator
MAX_RANK = 10_000
# the most generators the base of a split extension may have: the action
# on an abelian base is a square matrix of this dimension, whose
# characteristic polynomial has degree at most spectra.MAX_DEGREE, and
# building the extension checks the maps inverse at a cost of about r^2.8
MAX_BASE_RANK = 128


class GroupSpecError(GrowthlabError, ValueError):
    """Malformed group description or invalid automorphism."""


class UnknownGeneratorError(GrowthlabError, KeyError):
    """A word names a generator the engine does not have."""

    def __str__(self):
        return f"unknown generator {self.args[0]!r}"


class UnsupportedFamilyError(GrowthlabError, NotImplementedError):
    """The requested operation is not decidable/implemented for this family."""


def _base_rank_error(n: int) -> GroupSpecError:
    return GroupSpecError(
        f"split extension base has {n} generators, above the ceiling {MAX_BASE_RANK}")


# ---------------------------------------------------------------------------
# free-word helpers of the free engine's conjugacy test


def split_units(flat: tuple, r: int):
    """(head, tail) with head * tail = flat and r unit letters in head,
    for a reduced flat word and 0 <= r <= its sum of |e|: at most one
    run is cut."""
    i = 0
    while r and abs(flat[i + 1]) <= r:
        r -= abs(flat[i + 1])
        i += 2
    if not r:
        return flat[:i], flat[i:]
    g, e = flat[i], flat[i + 1]
    s = r if e > 0 else -r
    return flat[:i] + (g, s), (g, e - s) + flat[i + 2:]


def cyclic_peel(flat: tuple):
    """(p, core) with flat = p * core * p^-1 and the core cyclically
    reduced, for a reduced flat word.  Inverse end runs come off by
    their common unit count, so no exponent is expanded into letters."""
    lo, hi = 0, len(flat)
    while hi - lo >= 4 and flat[lo] == flat[hi - 2] and flat[lo + 1] * flat[hi - 1] < 0:
        e, f = flat[lo + 1], flat[hi - 1]
        if e + f:  # the shorter end run comes off whole, and then no more
            run = (flat[lo], e if abs(e) < abs(f) else -f)
            mid = wordops.concat_reduce(wordops.invert_word(run), flat[lo:hi])
            return flat[:lo] + run, wordops.concat_reduce(mid, run)
        lo += 2
        hi -= 2
    return flat[:lo], flat[lo:hi]


# ---------------------------------------------------------------------------


def _free_names(rank: int):
    if rank <= 3:
        return tuple("xyz"[:rank])
    return tuple(f"x{i + 1}" for i in range(rank))


def _columns(elements, width):
    """The coordinate columns of same-width tuples, each a list in the
    iteration order of ``elements``."""
    return [list(map(itemgetter(i), elements)) for i in range(width)]


def _offset(column, x, op=add):
    """``column`` with op(., x) applied to each entry (op is add or sub);
    a zero x leaves the column itself, which zip reads without a copy."""
    if x == 0:
        return column
    return map(op, column, repeat(x))


class _EngineBase:
    family = ""
    # the group-file keys besides "family", read in this order
    spec_keys = ()
    # the defining relators whose images a split extension checks
    relators = ()

    def products(self, elements, letters):
        """Every product x * a for x in ``elements`` and a in ``letters``,
        as one iterable in no particular order; a ball enumeration builds
        each sphere from it.  ``elements`` is a collection and ``letters``
        a sequence.  Abelian and klein engines compute the products a
        letter at a time over coordinate columns, split extensions make
        one base call per pair of shifts, and the others run ``multiply``
        element by element."""
        mul = self.multiply
        return (mul(x, a) for x in elements for a in letters)

    def power(self, a, k):
        """a**k: ``binary_power`` with this engine's ``multiply``, after
        inverting a for k < 0, so a**1 costs no product and is a itself."""
        if k < 0:
            a = self.invert(a)
            k = -k
        return binary_power(a, k, self.multiply, self.identity)

    def commute(self, a, b) -> bool:
        return self.multiply(a, b) == self.multiply(b, a)

    def evaluate(self, letters, image):
        """The product of image(name)**exp over the (name, exp) letters:
        the one loop behind ``evaluate_word``, the default ``apply_level``
        and a split extension's relator check.  As in ``power``, the
        first factor is taken as it is, not multiplied onto the identity."""
        out = None
        for name, exp in letters:
            x = self.power(image(name), exp)
            out = x if out is None else self.multiply(out, x)
        return self.identity if out is None else out

    def evaluate_word(self, word: Word):
        return self.evaluate(word.letters, self.generator)

    def level(self, images):
        """An automorphism level, from the images of the generators by
        name, in the form ``apply_level`` reads: here the images as
        given, applied along the element's ``word_letters`` with this
        engine's ``power`` and ``multiply``, so on a split extension the
        base's letters of w, then the image of t to the power k, with no
        Word built."""
        return images

    def apply_level(self, level, a):
        """The automorphism with this ``level`` applied to a."""
        return self.evaluate(self.word_letters(a), level.__getitem__)

    def element_to_word(self, a) -> Word:
        """The normal-form word of a, from the family's ``word_letters``:
        its (name, exponent) pairs, merged and without zero exponents."""
        return Word(tuple(self.word_letters(a)))

    def generator(self, name: str):
        """The element named ``name``, from the table ``__init__`` fills."""
        try:
            return self._gens[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None

    def spec_dict(self) -> dict:
        """The group file of this engine: its family and, in order, each
        of its ``spec_keys`` read off the attribute of the same name, a
        ``base`` printed as its own ``spec_dict``.  Every value is a
        copy, so editing the result leaves the engine as it was."""
        from copy import deepcopy
        return {"family": self.family, **{
            k: self.base.spec_dict() if k == "base" else deepcopy(getattr(self, k))
            for k in self.spec_keys}}


class FreeEngine(_EngineBase):
    family = "free"
    spec_keys = ("rank",)

    def __init__(self, rank: int):
        if rank < 1:
            raise GroupSpecError("free rank must be >= 1")
        self.rank = rank
        self.gen_names = _free_names(rank)
        self._gens = {n: (i, 1) for i, n in enumerate(self.gen_names)}
        self.identity: tuple = ()

    def multiply(self, a, b):
        return wordops.concat_reduce(a, b)

    def products(self, elements, letters):
        """The kernel's ``concat_reduce`` element by element, with no
        method call in between.  It is read from ``wordops`` on each
        call, so a rebinding of ``wordops.concat_reduce`` reaches the
        searches started after it.  The order stays element-major: a
        letter-major pass over a large sphere revisits every word once
        per letter and loses more to cache misses than it saves."""
        mul = wordops.concat_reduce
        return (mul(x, a) for x in elements for a in letters)

    def invert(self, a):
        return wordops.invert_word(a)

    def level(self, images):
        """The images of the generators and their inverses, both lists in
        generator order, for ``wordops.substitute``, so no letter of a
        word is inverted when the level is applied."""
        words = [images[n] for n in self.gen_names]
        return words, [wordops.invert_word(w) for w in words]

    def apply_level(self, level, a):
        return wordops.substitute(a, *level)

    def word_letters(self, a) -> list:
        names = self.gen_names
        return [(names[a[i]], a[i + 1]) for i in range(0, len(a), 2)]

    def canonical_key(self, a) -> bytes:
        return TAG_FREE + wordops.free_key_payload(a)

    def conjugacy_test(self, a, b):
        """Conjugator c with c a c^-1 = b, or None.  Conjugate words have
        cyclic reductions that are rotations of each other (Lyndon and
        Schupp, ch. I), and the cores' unit lengths, the sums of |e|, are
        compared first.  The rotation that turns a's core into b's starts
        b's first run (g, f), so it ends |f| units before the end of a
        run of a's core with letter g and the sign of f: only those cuts
        are tried, in ascending order, each by ``split_units``, and no
        exponent is expanded into letters."""
        concat, inv = wordops.concat_reduce, wordops.invert_word
        pa, core_a = cyclic_peel(a)
        pb, core_b = cyclic_peel(b)
        n = sum(map(abs, core_a[1::2]))
        if n != sum(map(abs, core_b[1::2])):
            return None
        if n == 0:
            return ()  # cyclic length 0: both are the identity
        g, f = core_b[0], core_b[1]
        runs = zip(core_a[::2], core_a[1::2], accumulate(map(abs, core_a[1::2])))
        for r in sorted({(end - abs(f)) % n for h, e, end in runs if h == g and e * f > 0}):
            head, tail = split_units(core_a, r)
            if concat(tail, head) == core_b:
                # b = pb (tail head) pb^-1 with a = pa (head tail) pa^-1
                return concat(concat(pb, inv(head)), inv(pa))
        return None


class AbelianEngine(_EngineBase):
    """``generator`` builds each unit vector when asked: a table would
    hold rank^2 integers, 10^10 for rank 10^5, just to build the engine."""

    family = "abelian"
    spec_keys = ("rank",)

    def __init__(self, rank: int):
        if rank < 1:
            raise GroupSpecError("abelian rank must be >= 1")
        self.rank = rank
        self.gen_names = tuple(f"e{i + 1}" for i in range(rank))
        self._index = {n: i for i, n in enumerate(self.gen_names)}
        self.identity = (0,) * rank

    def generator(self, name: str):
        try:
            i = self._index[name]
        except KeyError:
            raise UnknownGeneratorError(name) from None
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def multiply(self, a, b):
        return tuple(map(add, a, b))

    def products(self, elements, letters):
        cols = _columns(elements, self.rank)
        return chain.from_iterable(
            zip(*[_offset(col, x) for col, x in zip(cols, a)]) for a in letters)

    def invert(self, a):
        return tuple(map(neg, a))

    def level(self, images):
        """The rows of the integer matrix, the images of the generators
        as its columns: a tuple of tuples, so applying a level is one
        matrix-vector product."""
        return tuple(zip(*[images[n] for n in self.gen_names]))

    def apply_level(self, level, a):
        return tuple([sum(map(mul, row, a)) for row in level])

    def word_letters(self, a) -> list:
        names = self.gen_names
        return [(names[i], v) for i, v in enumerate(a) if v]

    def canonical_key(self, a) -> bytes:
        return TAG_ABELIAN + ",".join(str(v) for v in a).encode()


class KleinEngine(_EngineBase):
    """<a, t | t a t^-1 = a^-1> with normal form a^i t^j stored as (i, j)."""

    family = "klein"
    relators = (Word.parse("t a t^-1 a"),)

    def __init__(self):
        self._gens = {"a": (1, 0), "t": (0, 1)}
        self.gen_names = tuple(self._gens)
        self.identity = (0, 0)

    def multiply(self, a, b):
        i, j = a
        k, l = b
        return (i + k if j % 2 == 0 else i - k, j + l)

    def products(self, elements, letters):
        """The elements are split once by the parity of j: at even j the
        letter's a-exponent is added, at odd j subtracted."""
        even, odd = [], []
        for x in elements:
            (odd if x[1] & 1 else even).append(x)
        halves = [(*_columns(half, 2), op) for half, op in ((even, add), (odd, sub))]
        return chain.from_iterable(
            zip(_offset(i_col, k, op), _offset(j_col, l))
            for k, l in letters for i_col, j_col, op in halves)

    def invert(self, a):
        i, j = a
        return (-i if j % 2 == 0 else i, -j)

    def word_letters(self, a) -> list:
        return [(n, e) for n, e in (("a", a[0]), ("t", a[1])) if e]

    def canonical_key(self, a) -> bytes:
        return TAG_KLEIN + f"{a[0]},{a[1]}".encode()


class BS1Engine(_EngineBase):
    """<a, t | t a t^-1 = a^m>, elements (num, e, shift) = (num/m^e, t^shift)."""

    family = "bs1"
    spec_keys = ("m",)

    def __init__(self, m: int):
        if abs(m) < 2:
            raise GroupSpecError("bs1 multiplier must satisfy |m| >= 2")
        self.m = m
        self.relators = (Word.of((("t", 1), ("a", 1), ("t", -1), ("a", -m))),)
        self._gens = {"a": (1, 0, 0), "t": (0, 0, 1)}
        self.gen_names = tuple(self._gens)
        self.identity = (0, 0, 0)

    def multiply(self, a, b):
        # The product is (num / m^ee, s1 + s2) with ee = max(e1, d2, 0)
        # for d2 = e2 - s1.  Both factors are normalised, so m divides
        # n1 only if e1 == 0 and n2 only if e2 == 0.  If e1 > d2, then
        # ee = e1 and num = n1 + (a multiple of m): m cannot divide it
        # while e1 > 0, and at e1 == 0 there is no exponent to lower.
        # If d2 > e1 and e2 > 0, then ee = d2 and num = n2 + (a multiple
        # of m), which m cannot divide either.  Only e1 == d2, or d2 > e1
        # with e2 == 0, can leave factors m to cancel; in both ee = d2.
        # A zero numerator is scaled by no power of m, so a product with
        # a pure shift t^k costs no m^|k|.
        n1, e1, s1 = a
        n2, e2, s2 = b
        m = self.m
        d2 = e2 - s1
        if e1 > d2:
            return (n1 + n2 * m ** (e1 - d2) if n2 else n1, e1, s1 + s2)
        if d2 > e1:
            num = n1 * m ** (d2 - e1) + n2 if n1 else n2
            if e2:
                return (num, d2, s1 + s2)
        else:
            num = n1 + n2
        if num == 0:
            return (0, 0, s1 + s2)
        while d2 and num % m == 0:
            num //= m
            d2 -= 1
        return (num, d2, s1 + s2)

    def invert(self, a):
        """a = t^-e a^n t^(e+s), so a^-1 = t^-s (t^-e a^-n t^e), a
        product of two normal forms."""
        n, e, s = a
        return self.multiply((0, 0, -s), (-n, e, 0))

    def word_letters(self, a) -> list:
        # num = 0 forces e = 0, so the two t letters never meet
        n, e, s = a
        return [(g, x) for g, x in (("t", -e), ("a", n), ("t", e + s)) if x]

    def canonical_key(self, a) -> bytes:
        return TAG_BS1 + f"{a[0]},{a[1]},{a[2]}".encode()


def _bump_stable_name(name: str) -> str:
    if name == "t":
        return "t1"
    if name.startswith("t") and name[1:].isdigit():
        return f"t{int(name[1:]) + 1}"
    return name


class SemidirectEngine(_EngineBase):
    """K x| Z with stable letter t acting by a declared automorphism.

    The automorphism comes with generator images in both directions; the
    two maps are checked inverse on every generator at construction, and
    each map is checked to send every relator in ``base.relators`` to the
    identity, so that it is a homomorphism (von Dyck's theorem).  Only
    klein and bs1 list a relator: a free or abelian base needs no such
    check, and a nested base is not checked.
    The maps are kept once, as ``automorphism``: the normalized image
    words by generator, ``forward`` and ``backward``, in the given order,
    which the one ``spec_dict`` prints back.  Before any map is read the
    base's generator count is checked against ``MAX_BASE_RANK``.
    Powers of the automorphism are applied through ``level_at(k)``, a
    memo of one level per requested exponent k, filled on first use by
    ``binary_power`` of level +-1 with the composition of levels as the
    product and level 0, the identity, as its one; each level is in the
    form of the base's ``level``, so over an abelian base it is the rows
    of the matrix of alpha^k.

    ``products`` needs alpha^k(w2) once per shift k of the elements and
    letter (w2, k2), so it keeps no memo of these images: a sphere has
    far fewer (shift, letter) pairs than products, and each image comes
    from the level cache above.
    """

    family = "semidirect"
    spec_keys = ("base", "automorphism")

    def __init__(self, base, forward: dict, backward: dict):
        if len(base.gen_names) > MAX_BASE_RANK:
            raise _base_rank_error(len(base.gen_names))
        self.base = base
        need = set(base.gen_names)
        for label, mapping in (("forward", forward), ("backward", backward)):
            if set(mapping) != need:
                raise GroupSpecError(
                    f"automorphism {label} map must cover exactly the base "
                    f"generators {sorted(need)}, got {sorted(mapping)}"
                )
        words = [{g: w if isinstance(w, Word) else Word.parse(w) for g, w in m.items()}
                 for m in (forward, backward)]
        self.automorphism = {side: {g: str(w) for g, w in m.items()}
                             for side, m in zip(("forward", "backward"), words)}
        fwd, bwd = ({g: base.evaluate_word(w) for g, w in m.items()} for m in words)
        gens = {g: base.generator(g) for g in base.gen_names}
        # level 0, the identity, is binary_power's one in level_at
        self._levels = {0: base.level(gens), 1: base.level(fwd), -1: base.level(bwd)}
        for g, gen in gens.items():
            if base.apply_level(self._levels[-1], fwd[g]) != gen:
                raise GroupSpecError(f"backward(forward({g})) != {g}: maps are not inverse")
            if base.apply_level(self._levels[1], bwd[g]) != gen:
                raise GroupSpecError(f"forward(backward({g})) != {g}: maps are not inverse")
        for rel in base.relators:
            for label, images in (("forward", fwd), ("backward", bwd)):
                out = base.evaluate(rel.letters, images.__getitem__)
                if out != base.identity:
                    raise GroupSpecError(
                        f"{label} map sends the relator {rel} to "
                        f"{base.element_to_word(out)}: not a homomorphism")

        # the base names come from the families, and _bump_stable_name is
        # injective on them and never yields "t"
        rename = {n: _bump_stable_name(n) for n in base.gen_names}
        self._base_to_outer = rename
        self._gens = {"t": (base.identity, 1), **{rename[g]: (x, 0) for g, x in gens.items()}}
        self.gen_names = tuple(self._gens)
        self.identity = (base.identity, 0)

    # -- automorphism ------------------------------------------------------

    def level_at(self, k: int):
        """The base's level of alpha^k, in the form of its ``level``: the
        stored one, or ``binary_power`` of level +-1 to the power |k|
        with ``_compose`` as the product, so the cost is in the bits of
        k, not its value.  Only requested k are stored, and each is the
        same object on every call."""
        hit = self._levels.get(k)
        if hit is None:
            hit = self._levels[k] = binary_power(
                self._levels[1 if k > 0 else -1], abs(k), self._compose, self._levels[0])
        return hit

    def _compose(self, x, y):
        """The base's level of x o y, for levels x and y: y applied first."""
        base = self.base
        apply = base.apply_level
        return base.level({g: apply(x, apply(y, base.generator(g))) for g in base.gen_names})

    def auto_power(self, el, k: int):
        """alpha^k applied to a base element."""
        if k == 0 or el == self.base.identity:
            return el
        return self.base.apply_level(self.level_at(k), el)

    # -- group operations --------------------------------------------------

    def multiply(self, a, b):
        w1, k1 = a
        w2, k2 = b
        return (self.base.multiply(w1, self.auto_power(w2, k1)), k1 + k2)

    def products(self, elements, letters):
        """(w1, k1)(w2, k2) = (w1 * alpha^k1(w2), k1 + k2): the elements
        are grouped by shift k1 and the letters by shift k2, and each
        pair of groups is one call of the base engine's ``products``, so
        nested extensions and lattice bases take their bulk path too."""
        kernels = defaultdict(list)
        for w1, k1 in elements:
            kernels[k1].append(w1)
        steps = defaultdict(list)
        for w2, k2 in letters:
            steps[k2].append(w2)
        base_products, auto_power = self.base.products, self.auto_power
        return chain.from_iterable(
            zip(base_products(ws, [auto_power(w2, k1) for w2 in w2s]), repeat(k1 + k2))
            for k1, ws in kernels.items() for k2, w2s in steps.items())

    def invert(self, a):
        w, k = a
        return (self.auto_power(self.base.invert(w), -k), -k)

    def shift(self, a) -> int:
        return a[1]

    def kernel_part(self, a):
        return a[0]

    def word_letters(self, a) -> list:
        """The base's letters of w, renamed, then t^k; no renamed base
        letter is t, so nothing merges."""
        w, k = a
        outer = self._base_to_outer
        out = [(outer[n], e) for n, e in self.base.word_letters(w)]
        if k:
            out.append(("t", k))
        return out

    def canonical_key(self, a) -> bytes:
        w, k = a
        return TAG_SEMIDIRECT + self.base.canonical_key(w) + b"|" + str(k).encode()


# ---------------------------------------------------------------------------
# spec parsing

_FAMILIES = {cls.family: cls for cls in (
    FreeEngine, AbelianEngine, KleinEngine, BS1Engine, SemidirectEngine)}


def parse_group_spec(source):
    """Parse and structurally validate a group description.

    Accepts a JSON string/bytes or an already-decoded dict; returns the
    validated dict.  Deep validation of automorphisms happens in
    build_engine, which parse callers normally follow with.
    """
    return _parse(source)[-1]


def _parse(source) -> list:
    """The validated dicts of a group description and of its nested
    bases, innermost first.  The keys a family allows are its class's
    ``spec_keys``, and each key has one rule; a base is validated whole
    before the automorphism over it."""
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise GroupSpecError(f"invalid JSON: {exc}") from None
        except ValueError:  # an integer past Python's int-string digit limit
            raise GroupSpecError("invalid JSON: integer literal too long") from None
    else:
        obj = source
    if not isinstance(obj, dict):
        raise GroupSpecError("group spec must be a JSON object")
    family = obj.get("family")
    # every family name is a string, and a list or dict is unhashable
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise GroupSpecError(f"unknown family {family!r}")
    keys = cls.spec_keys
    extra = set(obj) - {"family", *keys}
    if extra:
        raise GroupSpecError(f"unexpected keys {sorted(extra)} for family {family!r}")
    if "rank" in keys:
        rank = obj.get("rank")
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise GroupSpecError("rank must be a positive integer")
        if rank > MAX_RANK:
            raise GroupSpecError(f"rank is above the ceiling {MAX_RANK}")
    if "m" in keys:
        m = obj.get("m")
        if not isinstance(m, int) or isinstance(m, bool) or abs(m) < 2:
            raise GroupSpecError("bs1 multiplier m must be an integer with |m| >= 2")
    if "base" not in keys:
        return [obj]
    if "base" not in obj:
        raise GroupSpecError("semidirect spec needs a base")
    levels = _parse(obj["base"])
    auto = obj.get("automorphism")
    if not isinstance(auto, dict) or set(auto) != {"forward", "backward"}:
        raise GroupSpecError("automorphism must have exactly forward and backward maps")
    for side in ("forward", "backward"):
        mapping = auto[side]
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise GroupSpecError(f"automorphism {side} map must be a dict of words")
    levels.append(obj)
    return levels


def build_engine(spec):
    """The engine of a group description, validated whole first: the
    innermost base from its family's ``spec_keys``, then each split
    extension over the engine below it.  Each level adds one generator,
    so over g bottom generators the top base of E extensions has
    g + E - 1; past ``MAX_BASE_RANK`` the tower is refused before any
    level is built, with the message of the first level that would fail."""
    bottom, *extensions = _parse(spec)
    cls = _FAMILIES[bottom["family"]]
    engine = cls(*[bottom[k] for k in cls.spec_keys])
    g = len(engine.gen_names)
    if extensions and g + len(extensions) - 1 > MAX_BASE_RANK:
        raise _base_rank_error(max(g, MAX_BASE_RANK + 1))
    for level in extensions:
        auto = level["automorphism"]
        try:
            engine = SemidirectEngine(engine, auto["forward"], auto["backward"])
        except UnknownGeneratorError as exc:
            raise GroupSpecError(f"automorphism references {exc}") from None
        except WordSyntaxError as exc:
            raise GroupSpecError(f"bad automorphism word: {exc}") from None
    return engine
