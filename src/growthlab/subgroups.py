"""The cyclic-pair decision: whether two elements generate a cyclic
subgroup.

This is the only subgroup question the certificate search asks.  In a
free group two elements generate a cyclic subgroup iff they commute
(Lyndon-Schupp, Combinatorial Group Theory, I.2.17), so no subgroup
graph is built; the other families reduce to a rank or a relation test.
"""

from __future__ import annotations

from growthlab.engines import UnsupportedFamilyError


def _abelian_rank_le_1(u, v) -> bool:
    r = len(u)
    for i in range(r):
        for j in range(i + 1, r):
            if u[i] * v[j] - u[j] * v[i] != 0:
                return False
    return True


def is_cyclic_pair(engine, u, v) -> bool:
    """Whether <u, v> is cyclic (the trivial subgroup counts as cyclic).

    Dispatches on the family; for semidirect-type elements with a
    nonzero shift the torsion-free criterion is: the pair commutes and
    u^q v^-p is the identity, where p and q are the shifts.
    """
    if u == engine.identity or v == engine.identity:
        return True
    fam = engine.family
    if fam == "free":
        return engine.commute(u, v)
    if fam == "abelian":
        return _abelian_rank_le_1(u, v)
    if fam in ("klein", "semidirect", "bs1"):
        shift = 2 if fam == "bs1" else 1
        p, q = u[shift], v[shift]
        if p == 0 and q == 0:
            if fam == "semidirect":
                return is_cyclic_pair(engine.base, u[0], v[0])
            # klein: both in <a>, a subgroup of Z; bs1: finitely
            # generated subgroups of Z[1/m] are cyclic
            return True
        if fam == "bs1":
            raise UnsupportedFamilyError(
                "cyclic-pair decision for bs1 elements with nonzero shifts is not supported"
            )
        if not engine.commute(u, v):
            return False
        rel = engine.multiply(engine.power(u, q), engine.power(v, -p))
        return rel == engine.identity
    raise UnsupportedFamilyError(f"cyclic-pair decision for family {fam!r}")
