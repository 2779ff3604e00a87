"""Folded subgroup graphs for free groups and cyclic-pair decisions.

A subgroup of a free group given by finitely many generator words is
represented by its folded base-pointed labeled graph: vertices are
interned integers, each vertex has at most one outgoing and one incoming
edge per label, a reduced word lies in the subgroup iff it traces a loop
at the base point, and the subgroup rank is |E| - |V| + 1.
"""

from __future__ import annotations

from growthlab.engines import UnsupportedFamilyError, flat_to_units


class StallingsGraph:
    def __init__(self, base: int, vertices, edges):
        self.base = base
        self.vertices = frozenset(vertices)
        self.edges = frozenset(edges)  # (u, label, v) with 1-based labels

    @property
    def rank(self) -> int:
        return len(self.edges) - len(self.vertices) + 1


def fold(words, rank: int) -> StallingsGraph:
    """Fold the bouquet of generator loops.

    Iterates identification passes to a fixpoint; at desk scale the
    simplicity is worth more than an incremental worklist.
    """
    edges = []
    next_v = 1
    for w in words:
        units = flat_to_units(w)
        c = 0
        for idx, u in enumerate(units):
            if idx == len(units) - 1:
                d = 0
            else:
                d = next_v
                next_v += 1
            if u > 0:
                edges.append((c, u, d))
            else:
                edges.append((d, -u, c))
            c = d

    parent = list(range(next_v))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    changed = True
    while changed:
        changed = False
        seen_out: dict = {}
        seen_in: dict = {}
        for (u, g, v) in edges:
            ru, rv = find(u), find(v)
            w = seen_out.get((ru, g))
            if w is None:
                seen_out[(ru, g)] = rv
            elif find(w) != rv:
                union(w, rv)
                changed = True
            w = seen_in.get((rv, g))
            if w is None:
                seen_in[(rv, g)] = ru
            elif find(w) != ru:
                union(w, ru)
                changed = True
        edges = sorted({(find(u), g, find(v)) for (u, g, v) in edges})

    vertices = {find(0)}
    for (u, _, v) in edges:
        vertices.add(u)
        vertices.add(v)
    return StallingsGraph(find(0), vertices, edges)


# ---------------------------------------------------------------------------
# cyclic-pair decision


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
