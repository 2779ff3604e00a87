"""Command-line front end for the growth workbench.

Subcommands map one-to-one onto the library modules: growth tables,
Alexander polynomials, spectral classification, witness certificates,
periodic-class scans, and kernel rewriting.  Outputs are deterministic
(TSV for tables, JSON with sorted keys for structured results) so runs
diff cleanly; errors become a single stderr record `ERR <code>
<message>` with exit status 2 for bad input and 3 for an exhausted
search budget.

This module imports no library module at its top, and each subcommand
imports only the library modules it runs: `alexander`, `rewrite` and
`spectra` never load the engines or the BFS, `rewrite` never loads the
certificate search and `growth` never loads the exact algebra.  Every
input error growthlab raises derives from `growthlab.GrowthlabError`
and ends in `ERR 2`.
"""

from __future__ import annotations

import argparse
import json
import sys

from growthlab import VERSION_STRING, GrowthlabError


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse validation failures must still produce the ERR record
    def error(self, message):
        print(f"ERR 2 {message}", file=sys.stderr)
        raise SystemExit(2)


def _load_engine(path: str):
    from growthlab.engines import build_engine

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, f"cannot read group file: {exc}") from None
    return build_engine(text)


def _parse_words(text: str, sep: str) -> list:
    from growthlab.words import Word

    words = []
    for part in text.split(sep):
        part = part.strip()
        if part:
            words.append(Word.parse(part))
    if not words:
        raise CliError(2, "no words given")
    return words


def _parse_matrix(text: str):
    try:
        rows = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(2, f"bad matrix literal: {exc}") from None
    except ValueError:  # an integer past Python's int-string digit limit
        raise CliError(2, "bad matrix literal: integer literal too long") from None
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
        raise CliError(2, "matrix must be a square list of row lists")
    for r in rows:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise CliError(2, "matrix entries must be integers")
    return [list(r) for r in rows]


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(2, f"cannot write output file: {exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_growth(args) -> int:
    from growthlab.growth import DEFAULT_BUDGET, ball_sizes

    engine = _load_engine(args.group)
    words = _parse_words(args.gens, ",")
    elems = [engine.evaluate_word(w) for w in words]
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    table = ball_sizes(engine, elems, args.radius, budget=budget)
    _emit(table.to_tsv(), args.out)
    if table.truncated:
        raise CliError(3, f"budget exhausted after radius {table.radius}")
    return 0


def _cmd_alexander(args) -> int:
    from growthlab.laurent import (
        NOT_FG, alexander_polynomial, fg_kernel_obstruction, monic_both_ends)

    relators = [p.strip() for p in args.relators.split(";") if p.strip()]
    if not relators:
        raise CliError(2, "no relators given")
    delta = alexander_polynomial(relators)
    not_fg = fg_kernel_obstruction(delta) == NOT_FG
    line = (f"Delta = {delta.format()}; "
            f"monic_both_ends={str(monic_both_ends(delta)).lower()}; "
            f"degree={delta.degree}; "
            f"not_fg={str(not_fg).lower()}\n")
    _emit(line, args.out)
    return 0


def _cmd_spectra(args) -> int:
    from growthlab.spectra import (
        MAX_DEGREE, VIRTUALLY_NILPOTENT, IntPoly, classify_abelian_by_cyclic,
        classify_char_poly)

    if (args.matrix is None) == (args.poly is None):
        raise CliError(2, "give exactly one of --matrix or --poly")
    if args.matrix is not None:
        rows = _parse_matrix(args.matrix)
        # the characteristic polynomial has degree len(rows)
        if len(rows) > MAX_DEGREE:
            raise CliError(2, f"matrix dimension is above the ceiling {MAX_DEGREE}")
        cls = classify_abelian_by_cyclic(rows)
    else:
        cls = classify_char_poly(IntPoly.parse(args.poly))
    unity = cls.kind == VIRTUALLY_NILPOTENT
    payload = {
        "char_poly": cls.char.format(),
        "roots_of_unity": unity,
        "spectral_radius": 1.0 if unity else cls.m,
        "threshold": cls.threshold,
        "classification": cls.kind,
        "log_base": cls.log_base,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_witness(args) -> int:
    from growthlab.witness import analyze

    engine = _load_engine(args.group)
    words = _parse_words(args.gens, ",")
    cert = analyze(engine, words, args.u, args.d)
    payload = cert.to_json()
    if args.json:
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = "".join(f"{k} = {payload[k]}\n" for k in payload)
    _emit(text, args.out)
    return 0


def _cmd_pcc(args) -> int:
    from growthlab.witness import pcc_scan

    engine = _load_engine(args.group)
    result = pcc_scan(engine, args.max_period, args.max_length)
    payload = {
        "certificate": None if result.certificate is None
        else result.certificate.to_json(),
        "exact": result.exact,
        "note": result.note,
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_rewrite(args) -> int:
    from growthlab.laurent import abelianize, rs_rewrite

    rewritten = rs_rewrite(args.relator)
    poly = abelianize(rewritten)
    text = f"rewritten = {rewritten.format()}\nabelianized = {poly.format()}\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_common_out(sub):
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="growthlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=VERSION_STRING)
    parser.add_argument("--seed", type=int, default=0,
                        help="sampling seed for test harnesses; core "
                             "computations ignore it")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("growth", help="ball-size table for a generating set")
    p.add_argument("--group", required=True, help="group description file (JSON)")
    p.add_argument("--gens", required=True, help="comma-separated generator words")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="cap on elements counted: radius n is emitted iff "
                        "gamma(n) <= budget (exit 3 when exhausted)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    _add_common_out(p)
    p.set_defaults(func=_cmd_growth)

    p = subs.add_parser("alexander", help="Alexander polynomial of t-balanced relators")
    p.add_argument("--relators", required=True,
                   help="semicolon-separated relator words in t and x")
    _add_common_out(p)
    p.set_defaults(func=_cmd_alexander)

    p = subs.add_parser("spectra", help="spectral classification of a matrix or polynomial")
    p.add_argument("--matrix", default=None, help='integer matrix, e.g. "[[2,1],[1,1]]"')
    p.add_argument("--poly", default=None, help='monic integer polynomial, e.g. "t^2-3t+1"')
    _add_common_out(p)
    p.set_defaults(func=_cmd_spectra)

    p = subs.add_parser("witness", help="growth certificate search for a split extension")
    p.add_argument("--group", required=True, help="group description file (JSON)")
    p.add_argument("--gens", required=True, help="comma-separated generator words")
    p.add_argument("--u", type=float, required=True,
                   help="uniform growth hypothesis for kernel subgroups")
    p.add_argument("--d", type=int, required=True,
                   help="abelian small-subgroup cap")
    p.add_argument("--json", action="store_true", help="emit the certificate as JSON")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    _add_common_out(p)
    p.set_defaults(func=_cmd_witness)

    p = subs.add_parser("pcc", help="periodic conjugacy class scan")
    p.add_argument("--group", required=True, help="group description file (JSON)")
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--max-length", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(func=_cmd_pcc)

    p = subs.add_parser("rewrite", help="kernel rewriting of a single relator")
    p.add_argument("--relator", required=True, help="relator word in t and x")
    _add_common_out(p)
    p.set_defaults(func=_cmd_rewrite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("ERR 2 thread count must be positive", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"ERR {exc.code} {exc}", file=sys.stderr)
        return exc.code
    except GrowthlabError as exc:
        print(f"ERR 2 {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
