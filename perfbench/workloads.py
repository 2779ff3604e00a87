"""Seeded inputs for the four workloads.

Nothing here imports growthlab: the program under test sees only what
this module generates (group specs, generator words, relator lists,
integer matrices and CLI argument lists).  The same seed always yields
byte-identical inputs (see ``inputs_bytes``).

Why each workload exists (see README.md for the layer map):

* ``ball_words`` -- growth tables over free groups of rank 2 and 3 and
  over split extensions of a free base (the torus automorphism and one
  extension nested over it).  The only workload where the word kernel
  (L0) and the semidirect automorphism-level cache carry the load.  Each
  pass has two deep tables: free2 r=11 visits 354,293 elements and
  free3 r=7 visits 117,187.
* ``ball_lattice`` -- the same breadth-first search over families whose
  normal forms are integer tuples (abelian rank 3, klein, bs1 with
  m = 2 and -3, extensions over an abelian base, one extension nested
  over bs1).  These never call the word kernel, so a kernel change
  predicts no move here while a BFS or key change must show on both.
  Deep tables: klein r=400 (320,801 elements) and abelian3 r=30.
* ``certify`` -- library calls into the certificate search (L3) and the
  exact algebra (L4): ``analyze`` over free, abelian (periodic, Anosov,
  Pisot) and nested bases, ``pcc_scan`` over free, klein and abelian
  bases, ``alexander_polynomial`` and spectral classification.
* ``cli`` -- fresh ``python -m growthlab.cli`` processes over all six
  subcommands; the only workload for L5 and import time.

Seeded generating sets are images of a fixed standard generating set
under a seeded automorphism (Nielsen moves, unimodular matrices, the
listed klein/bs1 automorphisms, and conjugation by a seeded element of
fixed length), permuted and partly inverted.  Ball sizes are invariant
under automorphisms, so every seed does the same amount of BFS work and
the reference counts of the standard set check every seeded table.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("ball_words", "ball_lattice", "certify", "cli")

# ---------------------------------------------------------------------------
# words as tuples of (name, exponent) pairs


def w_merge(pairs) -> tuple:
    out: list = []
    for name, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == name:
            s = out[-1][1] + e
            if s:
                out[-1] = (name, s)
            else:
                out.pop()
        else:
            out.append((name, e))
    return tuple(out)


def w_mul(*words) -> tuple:
    return w_merge(p for w in words for p in w)


def w_inv(w) -> tuple:
    return tuple((n, -e) for n, e in reversed(w))


def w_str(w) -> str:
    if not w:
        return "<identity>"
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in w)


def w_parse(text: str) -> tuple:
    pairs = []
    for tok in text.split():
        name, _, exp = tok.partition("^")
        pairs.append((name, int(exp) if exp else 1))
    return w_merge(pairs)


def random_word(rng, names, letters: int) -> tuple:
    """A reduced word of exactly ``letters`` unit letters, no two
    neighbours on the same generator."""
    out = []
    prev = None
    for _ in range(letters):
        name = rng.choice([n for n in names if n != prev])
        out.append((name, rng.choice((-1, 1))))
        prev = name
    return tuple(out)


# ---------------------------------------------------------------------------
# group specs


def semidirect(base, forward, backward) -> dict:
    return {"family": "semidirect", "base": base,
            "automorphism": {"forward": dict(forward),
                             "backward": dict(backward)}}


FREE2 = {"family": "free", "rank": 2}
FREE3 = {"family": "free", "rank": 3}
ABELIAN3 = {"family": "abelian", "rank": 3}
KLEIN = {"family": "klein"}
BS1_2 = {"family": "bs1", "m": 2}
BS1_M3 = {"family": "bs1", "m": -3}

TORUS = semidirect(FREE2, {"x": "y", "y": "x y"}, {"x": "y x^-1", "y": "x"})
UNIPOTENT_FREE = semidirect(FREE2, {"x": "x", "y": "y x"},
                            {"x": "x", "y": "y x^-1"})
# conjugation by x on the torus group; base letters t, x, y become t1, x, y
NESTED_TORUS = semidirect(
    TORUS, {"t": "x t x^-1", "x": "x", "y": "x y x^-1"},
    {"t": "x^-1 t x", "x": "x", "y": "x^-1 y x"})
# a -> a^-1 is an automorphism of BS(1, 2); base letters become a, t1
NESTED_BS1 = semidirect(BS1_2, {"a": "a^-1", "t": "t"}, {"a": "a^-1", "t": "t"})
KLEIN_IDENTITY = semidirect(KLEIN, {"a": "a", "t": "t"}, {"a": "a", "t": "t"})

# integer matrices (columns are generator images) acting on Z^n
MATRICES = {
    "anosov2": [[2, 1], [1, 1]],
    "fib2": [[0, 1], [1, 1]],
    "rot4": [[0, -1], [1, 0]],
    "rot6": [[1, -1], [1, 0]],
    "pisot3": [[0, 0, 1], [1, 0, 1], [0, 1, 0]],
    "perm3": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    "anosov3": [[2, 1, 0], [1, 1, 1], [0, 1, 1]],
}
# which matrices act with every eigenvalue a root of unity
PERIODIC = {"rot4", "rot6", "perm3"}


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_inv_unimodular(m):
    """Exact inverse of a 2x2 or 3x3 integer matrix of determinant +-1."""
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        det = a * d - b * c
        return [[d * det, -b * det], [-c * det, a * det]]
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [x for x in range(3) if x != i]
            c = [y for y in range(3) if y != j]
            minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            cof[i][j] = (-1) ** (i + j) * minor
    det = sum(m[0][j] * cof[0][j] for j in range(3))
    return [[cof[j][i] * det for j in range(3)] for i in range(3)]


def random_unimodular(rng, n: int, moves: int):
    """A product of ``moves`` elementary row operations with +-1 steps."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    return m


def matrix_spec(m) -> dict:
    """Split extension of Z^n by the automorphism with matrix m."""
    n = len(m)
    names = [f"e{i + 1}" for i in range(n)]
    inv = mat_inv_unimodular(m)

    def images(mat):
        return {names[j]: w_str(w_merge((names[i], mat[i][j]) for i in range(n)))
                for j in range(n)}

    return semidirect({"family": "abelian", "rank": n}, images(m), images(inv))


# ---------------------------------------------------------------------------
# seeded generating sets


def standard_gens(spec) -> list:
    fam = spec["family"]
    if fam == "free":
        return ["xyz"[i] for i in range(spec["rank"])]
    if fam == "abelian":
        return [f"e{i + 1}" for i in range(spec["rank"])]
    if fam in ("klein", "bs1"):
        return ["a", "t"]
    inner = standard_gens(spec["base"])
    return ["t"] + [bump_stable(n) for n in inner]


def bump_stable(name: str) -> str:
    if name == "t":
        return "t1"
    if name.startswith("t") and name[1:].isdigit():
        return f"t{int(name[1:]) + 1}"
    return name


def seeded_gens(rng, spec, conj_letters: int, nielsen: int = 0) -> list:
    """Image of the standard generating set under a seeded automorphism.

    Free groups take ``nielsen`` Nielsen moves, abelian groups a seeded
    unimodular matrix, klein and bs1 the automorphism a -> a^+-1,
    t -> a^k t; every family is then conjugated by a seeded element of
    ``conj_letters`` letters, shuffled and partly inverted.
    """
    names = standard_gens(spec)
    fam = spec["family"]
    gens = [((n, 1),) for n in names]
    if fam == "free":
        for _ in range(nielsen):
            i, j = rng.sample(range(len(gens)), 2)
            side = rng.choice((-1, 1))
            gens[i] = w_mul(gens[i], gens[j] if side > 0 else w_inv(gens[j]))
    elif fam == "abelian":
        m = random_unimodular(rng, len(names), 2 * len(names))
        gens = [w_merge((names[i], m[i][j]) for i in range(len(names)))
                for j in range(len(names))]
    elif fam in ("klein", "bs1"):
        k = rng.choice((-2, -1, 1, 2))
        gens = [(("a", rng.choice((-1, 1))),), (("a", k), ("t", 1))]
    g = random_word(rng, names, conj_letters)
    gens = [w_mul(g, s, w_inv(g)) for s in gens]
    rng.shuffle(gens)
    gens = [w_inv(s) if rng.random() < 0.5 else s for s in gens]
    return [w_str(s) for s in gens]


# ---------------------------------------------------------------------------
# workloads


def _ball_ops(rng, plan) -> list:
    """One pass: for each (spec name, spec, radius, copies, conj, nielsen)
    row, ``copies`` tables over distinct seeded generating sets."""
    ops = []
    for name, spec, radius, copies, conj, nielsen in plan:
        for _ in range(copies):
            ops.append({"kind": "ball", "spec": name, "radius": radius,
                        "gens": seeded_gens(rng, spec, conj, nielsen)})
    rng.shuffle(ops)
    return ops


BALL_WORDS_PLAN = [
    # name, spec, radius, copies per pass, conjugator letters, nielsen moves
    ("free2", FREE2, 11, 1, 0, 0),
    ("free3", FREE3, 7, 1, 0, 0),
    ("free2", FREE2, 8, 8, 2, 0),
    ("free2", FREE2, 7, 12, 2, 0),
    ("free3", FREE3, 5, 12, 2, 0),
    ("torus", TORUS, 6, 12, 1, 0),
    ("nested_torus", NESTED_TORUS, 4, 12, 1, 0),
]

BALL_LATTICE_PLAN = [
    ("klein", KLEIN, 400, 1, 2, 0),
    ("abelian3", ABELIAN3, 30, 1, 0, 0),
    ("klein", KLEIN, 100, 6, 2, 0),
    ("abelian3", ABELIAN3, 10, 8, 0, 0),
    ("bs1_2", BS1_2, 11, 10, 2, 0),
    ("bs1_m3", BS1_M3, 9, 6, 2, 0),
    ("anosov2", matrix_spec(MATRICES["anosov2"]), 7, 6, 1, 0),
    ("rot4", matrix_spec(MATRICES["rot4"]), 12, 4, 1, 0),
    ("nested_bs1", NESTED_BS1, 6, 6, 1, 0),
]


def _certify_ops(rng) -> list:
    ops = []
    analyze_specs = [
        ("torus", TORUS, 3), ("unipotent_free", UNIPOTENT_FREE, 3),
        ("nested_torus", NESTED_TORUS, 1),
        ("rot4", matrix_spec(MATRICES["rot4"]), 1),
        ("anosov2", matrix_spec(MATRICES["anosov2"]), 1),
        ("fib2", matrix_spec(MATRICES["fib2"]), 1),
        ("pisot3", matrix_spec(MATRICES["pisot3"]), 1),
        ("perm3", matrix_spec(MATRICES["perm3"]), 1),
        ("anosov3", matrix_spec(MATRICES["anosov3"]), 1),
    ]
    for name, spec, conj in analyze_specs:
        for _ in range(8):
            ops.append({"kind": "analyze", "spec": name,
                        "gens": seeded_gens(rng, spec, conj), "u": 3.0, "d": 2})
    pcc_specs = [("torus", 8, 4), ("unipotent_free", 4, 3),
                 ("klein_identity", 3, 3), ("rot4", 8, 1), ("perm3", 8, 1),
                 ("anosov3", 8, 1)]
    for name, period, length in pcc_specs:
        for _ in range(4):
            ops.append({"kind": "pcc", "spec": name, "max_period": period,
                        "max_length": length})
    for _ in range(62):
        ops.append({"kind": "alexander", "relators": seeded_relators(rng)})
    for name in sorted(MATRICES):
        for _ in range(6 if name in PERIODIC else 10):
            p = random_unimodular(rng, len(MATRICES[name]), 3)
            m = mat_mul(mat_mul(p, MATRICES[name]), mat_inv_unimodular(p))
            ops.append({"kind": "classify", "matrix": m, "source": name})
    rng.shuffle(ops)
    return ops


def seeded_relators(rng) -> list:
    """One to three relators in t and x with t-exponent sum 0, each with
    a nonzero image in Z[t, t^-1]; in a quarter of the lists every x
    exponent is even, so the gcd has content 2."""
    out = []
    count = rng.randint(1, 3)
    scale = rng.choice((1, 1, 1, 2))  # a common content factor, sometimes
    while len(out) < count:
        word = []
        height = 0
        image: dict = {}
        for _ in range(rng.randint(2, 5)):
            step = rng.choice((-1, 1))
            word.append(("t", step))
            height += step
            e = scale * rng.choice((-2, -1, 1, 1, 2))
            word.append(("x", e))
            image[height] = image.get(height, 0) + e
        word.append(("t", -height))
        if any(image.values()):
            out.append(w_str(w_merge(word)))
    return out


CERTIFY_SPECS = {
    "torus": TORUS,
    "unipotent_free": UNIPOTENT_FREE,
    "nested_torus": NESTED_TORUS,
    "klein_identity": KLEIN_IDENTITY,
    **{name: matrix_spec(m) for name, m in MATRICES.items()},
}

BALL_SPECS = {name: spec for plan in (BALL_WORDS_PLAN, BALL_LATTICE_PLAN)
              for name, spec, *_ in plan}


def _cli_ops(rng) -> list:
    """One pass of CLI invocations; group files are named by spec."""
    free_gens = ",".join(seeded_gens(rng, FREE2, 2, 1))
    torus_gens = ",".join(seeded_gens(rng, TORUS, 1))
    rot_gens = ",".join(seeded_gens(rng, CERTIFY_SPECS["rot4"], 1))
    p = random_unimodular(rng, 2, 3)
    mat = mat_mul(mat_mul(p, MATRICES["anosov2"]), mat_inv_unimodular(p))
    ops = [
        ["growth", "--group", "@free2", "--gens", free_gens, "--radius", "5"],
        ["growth", "--group", "@torus", "--gens", torus_gens, "--radius", "4",
         "--threads", "2"],
        # budget exhausted: exit 3 with the completed prefix on stdout
        ["growth", "--group", "@free2", "--gens", free_gens, "--radius", "6",
         "--budget", "200"],
        ["alexander", "--relators", "; ".join(seeded_relators(rng))],
        ["spectra", "--matrix", json.dumps(mat, separators=(",", ":"))],
        ["witness", "--group", "@torus", "--gens", torus_gens,
         "--u", "3", "--d", "2"],
        ["witness", "--group", "@rot4", "--gens", rot_gens, "--u", "3",
         "--d", "2", "--json", "--threads", "2"],
        ["pcc", "--group", "@torus", "--max-period", "6", "--max-length", "4"],
        ["rewrite", "--relator", seeded_relators(rng)[0]],
        # malformed: the t-exponent sum is 1, so exit 2 with an ERR line
        ["rewrite", "--relator", w_str(w_mul(w_parse(seeded_relators(rng)[0]),
                                             (("t", 1),)))],
    ]
    return [{"kind": "cli", "argv": argv} for argv in ops]


CLI_SPECS = {"free2": FREE2, "torus": TORUS, "rot4": CERTIFY_SPECS["rot4"]}


def make_inputs(workload: str, seed: int) -> dict:
    """The whole input of one run: the ops of one pass and the specs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ball_words":
        ops, specs = _ball_ops(rng, BALL_WORDS_PLAN), BALL_SPECS
    elif workload == "ball_lattice":
        ops, specs = _ball_ops(rng, BALL_LATTICE_PLAN), BALL_SPECS
    elif workload == "certify":
        ops, specs = _certify_ops(rng), CERTIFY_SPECS
    else:
        ops, specs = _cli_ops(rng), CLI_SPECS
    used = sorted({op["spec"] for op in ops if "spec" in op}
                  | {a[1:] for op in ops for a in op.get("argv", ())
                     if a.startswith("@")})
    return {"workload": workload, "seed": seed, "ops": ops,
            "specs": {name: specs[name] for name in used}}


def inputs_bytes(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
