"""One workload run in a fresh process.

    python3 perfbench/worker.py RUN_DIR --seconds S [--trace]

Reads RUN_DIR/inputs.json, imports growthlab and builds the workload's
engines (set-up), then runs whole passes over the op list until S
seconds have elapsed (always at least one pass).  Each op is timed on
its own; a pass's time is the sum of its ops' times.  Every
CALIBRATE_EVERY_S, between two ops, the fixed calibration job is timed
so that the host's speed during the run is known.  With --trace the tracer is installed before set-up and
exactly one pass runs.  Writes RUN_DIR/<untraced|traced>.json with the
pass and op timings, the encoded output of every op, and peak RSS; the
spans of a traced run go to RUN_DIR/spans.bin.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CALIBRATE_EVERY_S = 0.5

# modules each library workload imports; the set-up probes import the same
IMPORTS = {
    "ball_words": ("engines", "growth", "words"),
    "ball_lattice": ("engines", "growth", "words"),
    "certify": ("engines", "witness", "laurent", "spectra"),
}


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python job that does not use growthlab:
    the reference BFS of the torus group to radius 6.  It measures how
    fast the host runs Python right now."""
    from reference import ball_counts
    from workloads import TORUS

    t0 = time.perf_counter()
    ball_counts(TORUS, 6)
    return time.perf_counter() - t0


def cli_args(argv, run_dir: Path) -> list:
    """CLI arguments with each group argument ``@name`` replaced by the
    path of RUN_DIR/name.json."""
    return [str(run_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


def cli_command(argv, run_dir: Path, spans=None) -> list:
    """The process an op of the cli workload starts."""
    args = cli_args(argv, run_dir)
    if spans is None:
        return [sys.executable, "-m", "growthlab.cli", *args]
    return [sys.executable, str(HERE / "tracecli.py"), str(spans), *args]


def encode(kind: str, result) -> str:
    """Canonical JSON text of an op's output."""
    if kind == "ball":
        out = {"counts": result.counts, "truncated": result.truncated,
               "notes": result.notes}
    elif kind == "analyze":
        out = result.to_json()
    elif kind == "pcc":
        out = {"certificate": None if result.certificate is None
               else result.certificate.to_json(),
               "exact": result.exact, "note": result.note}
    elif kind == "alexander":
        out = {"coeffs": sorted(result.coeffs.items())}
    elif kind == "classify":
        out = {"kind": result.kind, "char": list(result.char.coeffs),
               "m": result.m, "threshold": result.threshold}
    else:
        out = result
    return json.dumps(out, sort_keys=True)


class LibraryOps:
    def __init__(self, workload: str, specs: dict):
        import importlib

        self.mods = {m: importlib.import_module(f"growthlab.{m}")
                     for m in IMPORTS[workload]}
        build = self.mods["engines"].build_engine
        self.engines = {name: build(spec) for name, spec in specs.items()}

    def run(self, op):
        # module attributes are looked up per call so traced wrappers apply
        kind = op["kind"]
        m = self.mods
        if kind == "ball":
            eng = self.engines[op["spec"]]
            gens = [eng.evaluate_word(m["words"].Word.parse(g)) for g in op["gens"]]
            return m["growth"].ball_sizes(eng, gens, op["radius"], threads=1)
        if kind == "analyze":
            return m["witness"].analyze(self.engines[op["spec"]], op["gens"],
                                        op["u"], op["d"], threads=1)
        if kind == "pcc":
            return m["witness"].pcc_scan(self.engines[op["spec"]],
                                         op["max_period"], op["max_length"])
        if kind == "alexander":
            return m["laurent"].alexander_polynomial(op["relators"])
        if kind == "classify":
            return m["spectra"].classify_abelian_by_cyclic(op["matrix"])
        raise ValueError(f"unknown op kind {kind!r}")


class CliOps:
    def __init__(self, run_dir: Path, traced: bool):
        self.run_dir = run_dir
        self.traced = traced
        self.count = 0

    def run(self, op):
        spans = None
        if self.traced:
            spans = self.run_dir / "cli-spans" / f"op{self.count}.bin"
            self.count += 1
        proc = subprocess.run(cli_command(op["argv"], self.run_dir, spans),
                              capture_output=True, text=True, check=False)
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("run_dir", type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    inputs = json.loads((args.run_dir / "inputs.json").read_text())
    workload = inputs["workload"]
    ops = inputs["ops"]

    tracer = None
    t_setup = time.perf_counter()
    if workload == "cli":
        runner = CliOps(args.run_dir, args.trace)
        if args.trace:
            (args.run_dir / "cli-spans").mkdir(exist_ok=True)
    else:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        runner = LibraryOps(workload, inputs["specs"])
    setup_s = time.perf_counter() - t_setup

    clock = time.perf_counter
    latencies, pass_s, first, mismatch = [], [], None, []
    calibration_seconds()  # warm-up, not kept
    calibration = [(0, calibration_seconds())]  # (ops completed, seconds)
    last_calibration = begin = clock()
    while True:
        results = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            a = clock()
            r = runner.run(op)
            b = clock()
            latencies.append(b - a)
            results.append(r)
            if b - last_calibration >= CALIBRATE_EVERY_S:
                calibration.append((len(latencies), calibration_seconds()))
                last_calibration = clock()
        pass_s.append(sum(latencies[-len(ops):]))
        # outputs are encoded between passes, outside the timed region
        encoded = [encode(op["kind"], r) for op, r in zip(ops, results)]
        if first is None:
            first = encoded
        else:
            base = len(latencies) - len(ops)
            mismatch += [base + i for i, e in enumerate(encoded) if e != first[i]]
        if args.trace or clock() - begin >= args.seconds:
            break
    calibration.append((len(latencies), calibration_seconds()))
    if tracer is not None:
        tracer.op = -1

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss
    report = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latency_s": latencies,
        "outputs": first,
        "mismatch": mismatch,
        "peak_rss_kib": peak_kib,
        "calibration_s": calibration,
        "pid": os.getpid(),
    }
    name = "traced" if args.trace else "untraced"
    if tracer is not None:
        tracer.write(args.run_dir / "spans.bin")
    (args.run_dir / f"{name}.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
