"""Correctness checks for every op's output.

``Checker.check(op, output)`` returns None when the output is right and
a one-line reason when it is not.  The expected values come from outside
the timed region and, where the mathematics allows, from code that does
not use growthlab:

* ball counts: closed forms (free, abelian, klein) or reference.py;
* certificates: re-checked element by element through the engine, as
  ``reverify_certificate`` in tests/test_acceptance.py does, against the
  variants that are mathematically possible for the spec;
* Alexander polynomials: this module's own abelianization and Z[t] gcd,
  and ``divides(delta, abelianized relator)``;
* characteristic polynomials: Cayley-Hamilton, trace and determinant in
  this module's integer arithmetic; spectral radii against numpy's
  eigenvalues;
* CLI runs: exit code, the ERR line and stdout bytes against an
  in-process ``cli.main`` run whose text is itself checked as above.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import reference
from workloads import MATRICES, PERIODIC, mat_mul, w_parse

NON_CYCLIC_PAIR = "NonCyclicPair"
KERNEL_CHAIN_ESCAPE = "KernelChainEscape"
SPECTRAL_EXPONENTIAL = "SpectralExponential"
PERIODIC_CONJUGACY = "PeriodicConjugacy"
EXPONENTIAL_VARIANTS = {NON_CYCLIC_PAIR, KERNEL_CHAIN_ESCAPE, SPECTRAL_EXPONENTIAL}

# Certificates each analyzed group admits.  Free-based groups contain a
# free subgroup (exponential growth) and may also carry a periodic class;
# the periodic matrices give virtually abelian groups, where only a
# periodic class can be certified; hyperbolic matrices have no periodic
# vector.  Inconclusive is never accepted: every spec here is decided.
ANALYZE_ALLOWED = {
    "torus": EXPONENTIAL_VARIANTS | {PERIODIC_CONJUGACY},
    "unipotent_free": EXPONENTIAL_VARIANTS | {PERIODIC_CONJUGACY},
    "nested_torus": EXPONENTIAL_VARIANTS | {PERIODIC_CONJUGACY},
    **{name: ({PERIODIC_CONJUGACY} if name in PERIODIC else EXPONENTIAL_VARIANTS)
       for name in MATRICES},
}
# Whether each pcc op must find a periodic class within its bounds: the
# torus commutator class has period 2, the unipotent action fixes x, the
# klein action is the identity, rot4 and perm3 have root-of-unity
# eigenvalues, and anosov3 has none, so no vector is periodic.
PCC_FOUND = {"torus": True, "unipotent_free": True, "klein_identity": True,
             "rot4": True, "perm3": True, "anosov3": False}


# ---------------------------------------------------------------------------
# integer and polynomial arithmetic of our own


def abelianize(relator: str) -> dict:
    """Exponent -> coefficient of the relator's image in Z[t, t^-1]."""
    out: dict = {}
    h = 0
    for name, e in w_parse(relator):
        if name == "t":
            h += e
        else:
            out[h] = out.get(h, 0) + e
    return {k: v for k, v in out.items() if v}


def _as_list(poly: dict) -> list:
    lo, hi = min(poly), max(poly)
    return [poly.get(e, 0) for e in range(lo, hi + 1)]


def _qx_rem(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b) and a:
        q = a[-1] / b[-1]
        off = len(a) - len(b)
        for j, c in enumerate(b):
            a[off + j] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def zx_gcd(polys: list) -> list:
    """Low-to-high gcd in Z[t] of nonzero coefficient lists: content gcd
    times the primitive part of the Q[t] gcd, leading coefficient > 0."""
    content = 0
    for p in polys:
        for c in p:
            content = math.gcd(content, c)
    g = [Fraction(c) for c in polys[0]]
    for p in polys[1:]:
        a, b = g, [Fraction(c) for c in p]
        while b:
            a, b = b, _qx_rem(a, b)
        g = a
    den = 1
    for c in g:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in g]
    cont = 0
    for c in ints:
        cont = math.gcd(cont, c)
    sign = 1 if ints[-1] > 0 else -1
    return [sign * content * c // cont for c in ints]


def alexander_reference(relators) -> list:
    polys = [_as_list(p) for p in map(abelianize, relators) if p]
    return zx_gcd(polys)


def format_laurent(poly: dict) -> str:
    """The CLI's text form of an exponent -> coefficient map in t."""
    if not poly:
        return "0"
    parts = []
    for e, c in sorted(poly.items()):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            tpart = "t" if e == 1 else f"t^{e}"
            body = tpart if mag == 1 else f"{mag}*{tpart}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def char_poly_problem(m, coeffs) -> str | None:
    """Why ``coeffs`` is not det(tI - m), or None."""
    n = len(m)
    if len(coeffs) != n + 1 or coeffs[-1] != 1:
        return "characteristic polynomial is not monic of degree n"
    if coeffs[n - 1] != -sum(m[i][i] for i in range(n)):
        return "t^(n-1) coefficient is not -trace"
    if coeffs[0] != (-1) ** n * _det(m):
        return "constant coefficient is not (-1)^n det"
    acc = [[coeffs[-1] * int(i == j) for j in range(n)] for i in range(n)]
    for c in reversed(coeffs[:-1]):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    if any(any(row) for row in acc):
        return "Cayley-Hamilton fails"
    return None


def eig_radius(m) -> float:
    import numpy as np

    return float(max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))


def gap_threshold(d: int) -> float:
    return 1.0 + 1.0 / (30.0 * d * d * math.log(6.0 * d))


def expected_tsv(counts, radius: int) -> str:
    lines = ["n\tgamma\tupper_estimate"]
    for n in range(radius + 1):
        est = "" if n == 0 else f"{counts[n] ** (1.0 / n):.10f}"
        lines.append(f"{n}\t{counts[n]}\t{est}")
    return "\n".join(lines) + "\n"


def rewrite_reference(relator: str) -> str:
    terms = []
    h = 0
    for name, e in w_parse(relator):
        if name == "t":
            h += e
        else:
            for _ in range(abs(e)):
                terms.append(f"x_{h}" if e > 0 else f"x_{h}^-1")
    body = " ".join(terms) if terms else "<empty>"
    return f"rewritten = {body}\nabelianized = {format_laurent(abelianize(relator))}\n"


# ---------------------------------------------------------------------------


class Checker:
    def __init__(self, inputs: dict):
        from growthlab import engines, laurent, spectra, subgroups, words

        self.g = {"engines": engines, "laurent": laurent, "spectra": spectra,
                  "subgroups": subgroups, "words": words}
        self.specs = inputs["specs"]
        self._engines: dict = {}
        self._counts: dict = {}

    def engine(self, name):
        if name not in self._engines:
            self._engines[name] = self.g["engines"].build_engine(self.specs[name])
        return self._engines[name]

    def counts(self, name, radius):
        key = (name, radius)
        if key not in self._counts:
            self._counts[key] = reference.ball_counts(self.specs[name], radius)
        return self._counts[key]

    def check(self, op, output: str) -> str | None:
        try:
            out = json.loads(output)
            return getattr(self, f"_check_{op['kind']}")(op, out)
        except Exception as exc:  # a checker crash is a failed check
            return f"check raised {type(exc).__name__}: {exc}"

    # -- library ops ---------------------------------------------------------

    def _check_ball(self, op, out):
        want = self.counts(op["spec"], op["radius"])
        if out["truncated"] or out["counts"] != want:
            return f"ball counts {out['counts'][-3:]} != reference {want[-3:]}"
        if out["notes"]:
            return f"unexpected notes {out['notes']}"
        return None

    def _elem(self, grp, text):
        if text == "<identity>":
            return grp.identity
        return grp.evaluate_word(self.g["words"].Word.parse(text))

    def reverify(self, spec_name, cert):
        """Why the certificate fails an element-level re-check, or None."""
        eng = self.engine(spec_name)
        v = cert["variant"]
        if v == NON_CYCLIC_PAIR:
            u, w = self._elem(eng, cert["u"]), self._elem(eng, cert["v"])
            if self.g["subgroups"].is_cyclic_pair(eng, u, w):
                return "certified pair is cyclic"
            if not cert["bound"] > 1.0:
                return "bound is not above 1"
        elif v == PERIODIC_CONJUGACY:
            base = eng.base
            k, c = self._elem(base, cert["k"]), self._elem(base, cert["c"])
            if k == base.identity:
                return "periodic class of the identity"
            rhs = base.multiply(base.multiply(c, k), base.invert(c))
            if eng.auto_power(k, cert["n"]) != rhs:
                return "alpha^n(k) is not c k c^-1"
        elif v == SPECTRAL_EXPONENTIAL:
            spectra = self.g["spectra"]
            mat = [list(r) for r in cert["matrix"]]
            if abs(spectra.spectral_radius(spectra.char_poly(mat)) - cert["m"]) > 1e-9:
                return "m is not the spectral radius of the matrix"
            if abs(eig_radius(mat) - cert["m"]) > 1e-6 * max(1.0, cert["m"]):
                return "m disagrees with the eigenvalues"
            if not (cert["m"] > 1.0 and cert["bound"] > 1.0):
                return "m or bound is not above 1"
        elif v == KERNEL_CHAIN_ESCAPE:
            if not (cert["bound"] > 1.0 and cert["depth"] >= 1):
                return "chain certificate without a bound or depth"
        if cert.get("reverified") is not True:
            return "certificate not marked reverified"
        return None

    def _check_analyze(self, op, out):
        if out["variant"] not in ANALYZE_ALLOWED[op["spec"]]:
            return f"variant {out['variant']} impossible for {op['spec']}"
        return self.reverify(op["spec"], out)

    def _check_pcc(self, op, out):
        exact = self.specs[op["spec"]]["base"]["family"] == "abelian"
        if out["exact"] is not exact:
            return "exactness flag is wrong"
        cert = out["certificate"]
        if (cert is not None) != PCC_FOUND[op["spec"]]:
            return f"periodic class {'missing' if cert is None else 'unexpected'}"
        if cert is None:
            return None
        if cert["n"] > op["max_period"]:
            return "period beyond the scan bound"
        return self.reverify(op["spec"], cert)

    def _check_alexander(self, op, out):
        want = alexander_reference(op["relators"])
        got = dict((e, c) for e, c in out["coeffs"])
        if min(got) != 0 or _as_list(got) != want:
            return f"Delta {out['coeffs']} != reference {want}"
        laurent = self.g["laurent"]
        delta = laurent.LaurentPoly(got)
        for rel in op["relators"]:
            if not laurent.divides(delta, laurent.LaurentPoly(abelianize(rel))):
                return "Delta does not divide an abelianized relator"
        return None

    def _check_classify(self, op, out):
        m = op["matrix"]
        problem = char_poly_problem(m, out["char"])
        if problem:
            return problem
        periodic = op["source"] in PERIODIC
        if out["kind"] != ("VirtuallyNilpotent" if periodic else "Exponential"):
            return f"classified {out['kind']}"
        if abs(out["threshold"] - gap_threshold(len(m))) > 1e-12:
            return "threshold is not the Mahler gap"
        if not periodic and abs(out["m"] - eig_radius(m)) > 1e-6 * out["m"]:
            return "m disagrees with the eigenvalues"
        return None

    # -- cli -------------------------------------------------------------------

    def expected_cli(self, op, args):
        """In-process cli.main result for the op (``args`` are its CLI
        arguments with group files resolved), checked by content."""
        from growthlab import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
        result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        try:
            problem = self._cli_content(op["argv"], result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        return result, problem

    def _check_cli(self, op, out):
        want = op["expected"]
        for key in ("code", "stderr", "stdout"):
            if out[key] != want[key]:
                return f"cli {key} differs from the in-process run"
        return None

    def _cli_content(self, argv, res):
        sub = argv[0]
        opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1)
               if argv[i].startswith("--") and not argv[i + 1].startswith("--")}
        code, stdout, stderr = res["code"], res["stdout"], res["stderr"]
        if sub == "rewrite" and code == 2:
            if stdout or not stderr.startswith("ERR 2 ") or stderr.count("\n") != 1:
                return "malformed input did not end in one ERR 2 line"
            return None
        if sub == "growth":
            radius = int(opt["--radius"])
            want = self.counts(opt["--group"][1:], radius)
            budget = int(opt.get("--budget", 10 ** 18))
            done = radius
            if want[-1] > budget:
                done = max(n for n in range(radius + 1) if want[n] <= budget)
                if code != 3 or stderr != f"ERR 3 budget exhausted after radius {done}\n":
                    return "budget exhaustion not reported with exit 3"
            elif code != 0 or stderr:
                return "growth failed"
            if stdout != expected_tsv(want, done):
                return "growth table differs from the reference"
            return None
        if code != 0 or stderr:
            return f"{sub} exited {code}"
        if sub == "alexander":
            want = alexander_reference([r for r in opt["--relators"].split(";") if r.strip()])
            monic = abs(want[0]) == 1 and abs(want[-1]) == 1
            line = (f"Delta = {format_laurent({e: c for e, c in enumerate(want) if c})}; "
                    f"monic_both_ends={str(monic).lower()}; degree={len(want) - 1}; "
                    f"not_fg={str(not monic).lower()}\n")
            return None if stdout == line else "alexander line differs from the reference"
        if sub == "spectra":
            m = json.loads(opt["--matrix"])
            got = json.loads(stdout)
            coeffs = self.g["spectra"].IntPoly.parse(got["char_poly"]).coeffs
            problem = char_poly_problem(m, list(coeffs))
            if problem:
                return problem
            if got["classification"] != "Exponential" or got["roots_of_unity"]:
                return "hyperbolic matrix not classified Exponential"
            if abs(got["spectral_radius"] - eig_radius(m)) > 1e-9 * got["spectral_radius"]:
                return "spectral radius disagrees with the eigenvalues"
            if abs(got["threshold"] - gap_threshold(len(m))) > 1e-12:
                return "threshold is not the Mahler gap"
            return None
        if sub == "witness":
            if "--json" in argv:
                cert = json.loads(stdout)
            else:
                cert = dict(line.split(" = ", 1) for line in stdout.splitlines())
                for key in ("bound", "m"):
                    if key in cert:
                        cert[key] = float(cert[key])
                for key in ("n", "depth", "max_A_length"):
                    if key in cert:
                        cert[key] = int(cert[key])
                if "reverified" in cert:
                    cert["reverified"] = cert["reverified"] == "True"
            spec = opt["--group"][1:]
            if cert["variant"] not in ANALYZE_ALLOWED[spec]:
                return f"variant {cert['variant']} impossible for {spec}"
            return self.reverify(spec, cert)
        if sub == "pcc":
            got = json.loads(stdout)
            cert = got["certificate"]
            if cert is None:
                return "no periodic class found"
            return self.reverify(opt["--group"][1:], cert)
        if sub == "rewrite":
            want = rewrite_reference(opt["--relator"])
            return None if stdout == want else "rewrite differs from the reference"
        return f"unknown subcommand {sub}"


def corrupt(op, output: str) -> str:
    """The same output with one value off by one (for the self-test)."""
    out = json.loads(output)
    kind = op["kind"]
    if kind == "ball":
        out["counts"][-1] += 1
    elif kind == "alexander":
        out["coeffs"][-1][1] += 1
    elif kind == "classify":
        out["char"][0] += 1
    elif kind == "cli":
        out["code"] += 1
    elif kind == "analyze":
        out["variant"] = "Inconclusive"
    else:
        out["exact"] = not out["exact"]
    return json.dumps(out, sort_keys=True)
