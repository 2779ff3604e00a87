"""The cyclic-pair decision: whether two elements generate a cyclic
subgroup.

In a free group two elements generate a cyclic subgroup iff they
commute (Lyndon-Schupp, Combinatorial Group Theory, I.2.17), so no
subgroup graph is built.  In Z^n the pair spans a cyclic group iff its
rank is at most 1, read off `_exact.eliminate`.  The other families
(klein, bs1 and split extensions) are torsion-free, and there a pair is
decided by its shifts: a finitely generated torsion-free abelian group
of rank at most 1 is cyclic.
"""

from __future__ import annotations

from growthlab._exact import eliminate
from growthlab.engines import UnsupportedFamilyError


def is_cyclic_pair(engine, u, v) -> bool:
    """Whether <u, v> is cyclic (the trivial subgroup counts as cyclic).

    Dispatches on the family; for semidirect-type and bs1 elements
    with a nonzero shift the torsion-free criterion is: the pair
    commutes and u^q v^-p is the identity, where p and q are the
    shifts.  Then u^(q/g) v^(-p/g), g = gcd(p, q), is the identity too,
    since its g-th power is, so the shift embeds <u, v> in Z.
    """
    if u == engine.identity or v == engine.identity:
        return True
    fam = engine.family
    if fam == "free":
        return engine.commute(u, v)
    if fam == "abelian":
        return len(eliminate([u, v])[1]) <= 1
    if fam in ("klein", "semidirect", "bs1"):
        shift = 2 if fam == "bs1" else 1
        p, q = u[shift], v[shift]
        if p == 0 and q == 0:
            if fam == "semidirect":
                return is_cyclic_pair(engine.base, u[0], v[0])
            # klein: both in <a>, a subgroup of Z; bs1: finitely
            # generated subgroups of Z[1/m] are cyclic
            return True
        if not engine.commute(u, v):
            return False
        rel = engine.multiply(engine.power(u, q), engine.power(v, -p))
        return rel == engine.identity
    raise UnsupportedFamilyError(f"cyclic-pair decision for family {fam!r}")
