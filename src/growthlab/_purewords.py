"""Kernel for reduced words in a free group.

A word is a flat tuple (g0, e0, g1, e1, ...) of generator indices and
nonzero exponents, with adjacent generator indices distinct.  These
functions are the hot path of ball enumeration and automorphism
application.
"""

from __future__ import annotations


def normalize_pairs(pairs) -> tuple:
    """Collapse an iterable of (gen, exp) pairs into a reduced flat word."""
    out: list = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-2] == g:
            s = out[-1] + e
            if s == 0:
                del out[-2:]
            else:
                out[-1] = s
        else:
            out.append(g)
            out.append(e)
    return tuple(out)


def concat_reduce(a: tuple, b: tuple) -> tuple:
    """Product of two reduced words, reduced.

    Both inputs are reduced, so cancellation can only cascade across the
    seam between them.
    """
    if not a:
        return b
    if not b:
        return a
    la = list(a)
    i = len(la)
    j = 0
    nb = len(b)
    while j < nb and i > 0:
        g = b[j]
        if la[i - 2] == g:
            s = la[i - 1] + b[j + 1]
            j += 2
            if s == 0:
                del la[i - 2 : i]
                i -= 2
            else:
                la[i - 1] = s
                break
        else:
            break
    la.extend(b[j:])
    return tuple(la)


def invert_word(a: tuple) -> tuple:
    out: list = []
    for i in range(len(a) - 2, -1, -2):
        out.append(a[i])
        out.append(-a[i + 1])
    return tuple(out)


def pow_word(a: tuple, e) -> tuple:
    """a**e by square-and-multiply; powers of one word commute."""
    if e == 0 or not a:
        return ()
    if e < 0:
        a = invert_word(a)
        e = -e
    if e == 1:
        return a
    result: tuple = ()
    base = a
    while True:
        if e & 1:
            result = concat_reduce(result, base)
        e >>= 1
        if not e:
            return result
        base = concat_reduce(base, base)


def substitute(a: tuple, images) -> tuple:
    """Apply a generator-indexed substitution to a word.

    images[g] is the (reduced, flat) image word of generator g; the image
    of a letter g^e is images[g]**e.  Accumulates into one list so the
    cost is linear in the output length, not quadratic.
    """
    out: list = []
    for i in range(0, len(a), 2):
        e = a[i + 1]
        img = images[a[i]]
        if e == 1:
            seq = img
        elif e == -1:
            seq = invert_word(img)
        else:
            seq = pow_word(img, e)
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


def word_length(a: tuple):
    """Letter count: the sum of |exponent| over the word."""
    total = 0
    for i in range(1, len(a), 2):
        e = a[i]
        total += e if e > 0 else -e
    return total


def free_key_payload(a: tuple) -> bytes:
    """Run-length key payload: comma-separated 1-based index:exponent."""
    return b",".join(b"%d:%d" % (a[i] + 1, a[i + 1]) for i in range(0, len(a), 2))
