"""Kernel for reduced words in a free group.

A word is a flat tuple (g0, e0, g1, e1, ...) of generator indices and
nonzero exponents, with adjacent generator indices distinct.  These
functions take reduced words and return reduced words; building one
from arbitrary runs is ``words.Word.of``'s job, the one loop that merges
runs.  They are the hot path of ball enumeration and automorphism
application; a free engine's ``products`` calls ``concat_reduce``
directly for every product of a sphere.

Cancellation happens only at the seam.  Both factors of a product are
reduced, so the last pair of the left factor can meet only the first
pair of the right one; when they cancel completely, the next pair in
from each side meets, and so on.  ``concat_reduce`` walks that seam by
index and builds its result with one slice concatenation, in order of
how often products take each path:

* no merge (the seam generators differ): ``a + b``;
* one merge whose exponent sum stays nonzero: ``a[:-1] + (s,) + b[2:]``;
* a cascade of full cancellations, ending either in a partial merge
  (``a[:i-1] + (s,) + b[j+2:]``) or without one (``a[:i] + b[j:]``);
* an empty factor: the other factor, unchanged.

``substitute`` applies the same seam rule while it accumulates the image
pieces into one list.  It takes the inverse of every image along with
the image, so a letter with a negative exponent reads a stored word and
inverts nothing: a split extension over a free base keeps both lists per
automorphism level and applies that level to many words.  Its powers of
an image come from ``pow_word``, the package's one square-and-multiply
loop ``binary_power`` with ``concat_reduce`` as the product.
"""

from __future__ import annotations

from growthlab import binary_power


def concat_reduce(a: tuple, b: tuple) -> tuple:
    """Product of two reduced words, reduced (see the module docstring)."""
    if not a:
        return b
    if not b:
        return a
    i = len(a)
    if a[i - 2] != b[0]:
        return a + b
    s = a[i - 1] + b[1]
    if s:
        return a[:-1] + (s,) + b[2:]
    # the seam pairs cancel whole; a[:i] and b[j:] are what is left
    i -= 2
    j = 2
    nb = len(b)
    while i and j < nb and a[i - 2] == b[j]:
        s = a[i - 1] + b[j + 1]
        if s:
            return a[:i - 1] + (s,) + b[j + 2:]
        i -= 2
        j += 2
    return a[:i] + b[j:]


def invert_word(a: tuple) -> tuple:
    out: list = []
    for i in range(len(a) - 2, -1, -2):
        out.append(a[i])
        out.append(-a[i + 1])
    return tuple(out)


def pow_word(a: tuple, e) -> tuple:
    """a**e: ``binary_power`` with ``concat_reduce`` after inverting a
    for e < 0; powers of one word commute, and a**1 is a itself."""
    if e < 0:
        a = invert_word(a)
        e = -e
    return binary_power(a, e, concat_reduce, ())


def substitute(a: tuple, images, inverses) -> tuple:
    """Apply a generator-indexed substitution to a word.

    images[g] is the (reduced, flat) image word of generator g and
    inverses[g] its inverse; the image of a letter g^e is images[g]**e,
    read from inverses[g] when e < 0.  Accumulates into one list so the
    cost is linear in the output length, not quadratic.
    """
    out: list = []
    for i in range(0, len(a), 2):
        g = a[i]
        e = a[i + 1]
        if e == 1:
            seq = images[g]
        elif e == -1:
            seq = inverses[g]
        elif e > 0:
            seq = pow_word(images[g], e)
        else:
            seq = pow_word(inverses[g], -e)
        j = 0
        nb = len(seq)
        while j < nb and out:
            if out[-2] == seq[j]:
                s = out[-1] + seq[j + 1]
                j += 2
                if s == 0:
                    del out[-2:]
                else:
                    out[-1] = s
                    break
            else:
                break
        out.extend(seq[j:])
    return tuple(out)


def free_key_payload(a: tuple) -> bytes:
    """Run-length key payload: comma-separated 1-based index:exponent."""
    return b",".join(b"%d:%d" % (a[i] + 1, a[i + 1]) for i in range(0, len(a), 2))
