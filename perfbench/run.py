"""End-to-end benchmark of growthlab over four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is imported
from ./src.  Workloads: ball_words, ball_lattice, certify, cli (see
workloads.py for why each exists and README.md for the layer map).

--trace 0 measures the end-to-end metrics with tracing off: set-up in
fresh probe processes, then a fresh worker process that runs whole
passes over the workload's op list for at least S seconds.  --trace 1
runs one untraced and one traced pass, each in a fresh process, and
reports the per-layer metrics.  Every op's output is checked.  Human
readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Artifacts
(inputs, raw timings, spans, the full result with the environment) are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads  # noqa: E402  (perfbench/ is on sys.path as the script dir)

# tail percentiles in per mille; the highest with >= 10 ops beyond it is used
TAIL_PER_MILLE = (500, 750, 900, 990, 999)
SETUP_PROBES = (8, 8)  # fresh set-up probes before and after the timed worker
# Time of worker.calibration_seconds() that defines the reference host
# speed: about its median on the 2-core VM the baseline was measured on.
CALIBRATION_REF_S = 0.045
CHILD_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))

SUBCOMMANDS = ("growth", "alexander", "spectra", "witness", "pcc", "rewrite")
VARIANTS = ("NonCyclicPair", "KernelChainEscape", "SpectralExponential",
            "PeriodicConjugacy", "VirtuallyNilpotentDiagnosis", "Inconclusive")
TRACED_FUNCTIONS = (
    [f"wordops.{f}" for f in ("concat_reduce", "substitute", "free_key_payload",
                              "normalize_pairs", "pow_word", "invert_word")]
    + [f"engines.{fam}.{m}" for fam in ("free", "abelian", "klein", "bs1", "semidirect")
       for m in ("multiply", "invert", "canonical_key")]
    + ["engines.semidirect.auto_power", "engines.build_engine", "growth.ball_sizes",
       "subgroups.fold", "subgroups.is_cyclic_pair", "witness.analyze",
       "witness.pcc_scan"]
    + [f"laurent.{f}" for f in ("rs_rewrite", "alexander_polynomial", "laurent_gcd",
                                "sticking_contradiction")]
    + [f"spectra.{f}" for f in ("char_poly", "hermite_rows", "mat_det", "matrix_rank",
                                "classify_abelian_by_cyclic", "max_root_modulus",
                                "spectral_radius", "smallest_cyclotomic_order",
                                "fixed_vector_of_power")]
    + ["words.Word.parse"])


def per_layer_metrics() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for fn in TRACED_FUNCTIONS:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_s", "s", "lower"))
    out.append(("engines.semidirect.auto_power.distinct_k", "count", "lower"))
    out += [("growth.products", "count", "lower"), ("growth.visited", "count", "lower"),
            ("growth.new_per_product", "ratio", "higher")]
    out += [(f"witness.variant.{v}", "count",
             "lower" if v == "Inconclusive" else "higher") for v in VARIANTS]
    out += [("cli.python_startup_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower"),
            ("cli.numpy_import_ms", "ms", "lower")]
    for sub in SUBCOMMANDS:
        out.append((f"cli.{sub}.wall_ms", "ms", "lower"))
        out.append((f"cli.{sub}.main_ms", "ms", "lower"))
    out.append(("trace_overhead_ratio", "ratio", "lower"))
    return out


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a process in its own session; on timeout kill the whole group
    and wait for it, so nothing started here outlives the benchmark."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"child timed out after {timeout}s: {cmd[:3]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_worker(run_dir: Path, seconds: float, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(run_dir),
           "--seconds", str(seconds)] + (["--trace"] if traced else [])
    proc = run_child(cmd)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    name = "traced" if traced else "untraced"
    return json.loads((run_dir / f"{name}.json").read_text())


def setup_probe_code(workload: str, run_dir: Path) -> str:
    if workload == "cli":
        return "import time\nimport growthlab.cli\nprint(time.monotonic())\n"
    from worker import IMPORTS

    mods = "\n".join(f"import growthlab.{m}" for m in IMPORTS[workload])
    return (f"import json, time\n{mods}\n"
            f"specs = json.load(open({str(run_dir / 'specs.json')!r}))\n"
            "engines = [growthlab.engines.build_engine(s) for s in specs.values()]\n"
            "print(time.monotonic())\n")


def setup_seconds(workload: str, run_dir: Path, count: int) -> list:
    """Fresh process start to ready, once per probe, each scaled to the
    reference host speed by the calibration runs just before and after."""
    from worker import calibration_seconds

    code = setup_probe_code(workload, run_dir)
    out = []
    calibration_seconds()  # warm-up, not kept
    cal = calibration_seconds()
    for _ in range(count):
        t0 = time.monotonic()
        proc = run_child([sys.executable, "-c", code], timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        seconds = float(proc.stdout.split()[-1]) - t0
        after = calibration_seconds()
        out.append((seconds, seconds * CALIBRATION_REF_S * 2 / (cal + after)))
        cal = after
    return out


def timed_process(cmd) -> float:
    t0 = time.perf_counter()
    run_child(cmd, timeout=60)
    return time.perf_counter() - t0


def reported_seconds(code: str) -> float:
    proc = run_child([sys.executable, "-c", code], timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# statistics


def tail_latency(latencies):
    """(per mille, value, n): the highest listed percentile with at least
    ten ops beyond it, by nearest rank."""
    xs = sorted(latencies)
    n = len(xs)
    for pm in reversed(TAIL_PER_MILLE):
        rank = -(-pm * n // 1000)
        if n - rank >= 10:
            return pm, xs[rank - 1], n
    return 1000, xs[-1], n


def at_reference_speed(latencies: list, calibration: list) -> list:
    """Each op's latency scaled to the reference host speed, by the mean
    of the calibration runs just before and just after it."""
    out = []
    k = 0
    for j, x in enumerate(latencies):
        while k + 1 < len(calibration) and calibration[k + 1][0] <= j:
            k += 1
        after = calibration[min(k + 1, len(calibration) - 1)][1]
        out.append(x * CALIBRATION_REF_S * 2 / (calibration[k][1] + after))
    return out


def environment() -> dict:
    from importlib import metadata

    import growthlab.wordops

    def numpy_version():
        try:
            return metadata.version("numpy")
        except metadata.PackageNotFoundError:
            return None

    def git_commit():
        if not (ROOT / ".git").exists():
            return None
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() or None

    digest = hashlib.sha256()
    for path in sorted((SRC / "growthlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "have_compiled": growthlab.wordops.HAVE_COMPILED,
        "GROWTHLAB_PURE": os.environ.get("GROWTHLAB_PURE"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "os_kernel": platform.release(),
        "cpu": cpu,
    }


COMPARABLE_ENV = ("nproc", "python", "numpy", "have_compiled", "GROWTHLAB_PURE",
                  "os_kernel", "cpu")


def baseline_differences(env: dict) -> list:
    path = HERE / "baseline.json"
    if not path.exists():
        return []
    base = json.loads(path.read_text())["env"]
    return [f"{k}: baseline {base.get(k)!r}, now {env.get(k)!r}"
            for k in COMPARABLE_ENV if base.get(k) != env.get(k)]


# ---------------------------------------------------------------------------
# checking


def check_outputs(inputs: dict, run_dir: Path, outputs: list):
    """Per-op problem (None when right), plus the checker."""
    from checks import Checker, corrupt
    from worker import cli_args

    checker = Checker(inputs)
    ops = inputs["ops"]
    if inputs["workload"] == "cli":
        expanded = []
        for op in ops:
            expected, problem = checker.expected_cli(op, cli_args(op["argv"], run_dir))
            expanded.append((dict(op, expected=expected), problem))
        ops = [op for op, _ in expanded]
        problems = [pre or checker.check(op, out)
                    for (op, pre), out in zip(expanded, outputs)]
    else:
        problems = [checker.check(op, out) for op, out in zip(ops, outputs)]
    # self-test: one output off by one must be counted as failed
    if checker.check(ops[0], corrupt(ops[0], outputs[0])) is None:
        raise SystemExit("self-test failed: a corrupted output passed the checks")
    return problems, ops


def count_failures(problems: list, report: dict, n_ops: int) -> int:
    bad = {i for i, p in enumerate(problems) if p}
    mismatch = set(report["mismatch"])
    return sum(1 for j in range(len(report["latency_s"]))
               if j % n_ops in bad or j in mismatch)


# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, trace: int) -> tuple:
    inputs = workloads.make_inputs(workload, seed)
    run_dir = OUT / f"{workload}-trace{trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    blob = workloads.inputs_bytes(inputs)
    (run_dir / "inputs.json").write_bytes(blob)
    (run_dir / "specs.json").write_text(json.dumps(inputs["specs"], sort_keys=True))
    for name, spec in inputs["specs"].items():
        (run_dir / f"{name}.json").write_text(json.dumps(spec, sort_keys=True))
    return inputs, run_dir, hashlib.sha256(blob).hexdigest()


def measure_end_to_end(workload: str, seconds: float, inputs: dict, run_dir: Path):
    before, after = SETUP_PROBES
    setups = setup_seconds(workload, run_dir, before)
    report = run_worker(run_dir, seconds, traced=False)
    setups += setup_seconds(workload, run_dir, after)
    problems, _ = check_outputs(inputs, run_dir, report["outputs"])
    n_ops = len(inputs["ops"])
    calibration = report["calibration_s"]
    raw_lat = report["latency_s"]
    # The host's speed drifts by up to 2x within seconds and minutes, so
    # every timing is reported at the reference speed, scaled by the
    # calibration runs around each op and each set-up probe (README.md).
    lat = at_reference_speed(raw_lat, calibration)
    passes = [sum(lat[i:i + n_ops]) for i in range(0, len(lat), n_ops)]
    pm, tail, n = tail_latency(lat)
    metrics = {
        "wall_s": statistics.median(passes),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000.0,
        "op_tail_ms": tail * 1000.0,
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mib": report["peak_rss_kib"] / 1024.0,
    }
    raw = {
        "wall_s": statistics.median(report["pass_s"]),
        "ops_per_s": len(raw_lat) / sum(raw_lat),
        "op_p50_ms": statistics.median(raw_lat) * 1000.0,
        "op_tail_ms": tail_latency(raw_lat)[1] * 1000.0,
        "setup_s": statistics.median(seconds for seconds, _ in setups),
    }
    failed = count_failures(problems, report, n_ops)
    detail = {
        "tail_percentile": pm / 10.0, "ops": n, "passes": len(report["pass_s"]),
        "unscaled_metrics": raw, "calibration_s": calibration,
        "pass_s": report["pass_s"], "setup_probes_s": setups,
        "fail_ratio": failed / len(lat),
        "problems": sorted({p for p in problems if p}),
        "outputs_sha256": hashlib.sha256(
            json.dumps(report["outputs"]).encode()).hexdigest(),
    }
    units = dict(END_TO_END)
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            len(lat), failed, detail)


def cli_layer_metrics(inputs: dict, run_dir: Path) -> dict:
    """Interpreter start, imports, and one fresh process versus an
    in-process cli.main call per subcommand."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from growthlab import cli

    from worker import cli_args, cli_command

    def timed_import(module):
        return reported_seconds(
            f"import time\nt = time.perf_counter()\nimport {module}\n"
            "print(time.perf_counter() - t)\n")

    out = {
        "cli.python_startup_ms": statistics.median(
            timed_process([sys.executable, "-c", "pass"]) for _ in range(5)) * 1000,
        "cli.import_ms": statistics.median(
            timed_import("growthlab.cli") for _ in range(5)) * 1000,
        "cli.numpy_import_ms": statistics.median(
            timed_import("numpy") for _ in range(5)) * 1000,
    }
    for sub in SUBCOMMANDS:
        argv = next(op["argv"] for op in inputs["ops"] if op["argv"][0] == sub)
        out[f"cli.{sub}.wall_ms"] = statistics.median(
            timed_process(cli_command(argv, run_dir)) for _ in range(3)) * 1000
        args = cli_args(argv, run_dir)
        times = []
        for _ in range(3):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(args)
                times.append(time.perf_counter() - t0)
        out[f"cli.{sub}.main_ms"] = statistics.median(times) * 1000
    return out


def measure_per_layer(workload: str, inputs: dict, run_dir: Path):
    import tracing

    plain = run_worker(run_dir, 0, traced=False)
    traced = run_worker(run_dir, 0, traced=True)
    problems, ops = check_outputs(inputs, run_dir, plain["outputs"])
    n_ops = len(ops)
    failed = count_failures(problems, plain, n_ops)
    # tracing must not change any output
    diverged = [i for i in range(n_ops) if traced["outputs"][i] != plain["outputs"][i]]
    failed += len(diverged)
    attempted = 2 * n_ops

    if workload == "cli":
        paths = sorted((run_dir / "cli-spans").glob("op*.bin"),
                       key=lambda p: int(p.stem[2:]))
    else:
        paths = [run_dir / "spans.bin"]
    summary = tracing.summarize([tracing.load(p) for p in paths])

    visited = tables = 0
    for op, text in zip(ops, plain["outputs"]):
        if op["kind"] == "ball":
            visited += json.loads(text)["counts"][-1]
            tables += 1
        elif op["kind"] == "cli" and op["argv"][0] == "growth":
            rows = json.loads(text)["stdout"].splitlines()
            if len(rows) > 1:
                visited += int(rows[-1].split("\t")[1])
                tables += 1
    values = {}
    for fn in TRACED_FUNCTIONS:
        values[f"{fn}.calls"] = summary["calls"].get(fn, 0)
        values[f"{fn}.self_s"] = summary["self_s"].get(fn, 0.0)
    values["engines.semidirect.auto_power.distinct_k"] = summary["distinct_k"]
    values["growth.products"] = summary["products"]
    values["growth.visited"] = visited
    values["growth.new_per_product"] = ((visited - tables) / summary["products"]
                                        if summary["products"] else 0.0)
    for v in VARIANTS:
        values[f"witness.variant.{v}"] = summary["variants"].get(v, 0)
    if workload == "cli":
        values.update(cli_layer_metrics(inputs, run_dir))
    values["trace_overhead_ratio"] = traced["pass_s"][0] / plain["pass_s"][0]

    metrics = {}
    for name, unit, _ in per_layer_metrics():
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
    detail = {
        "untraced_pass_s": plain["pass_s"][0], "traced_pass_s": traced["pass_s"][0],
        "diverged_ops": diverged, "problems": sorted({p for p in problems if p}),
        "spans": [str(p.relative_to(ROOT)) for p in paths],
        "all_calls": dict(summary["calls"]),
        "all_self_s": dict(summary["self_s"]),
    }
    return metrics, attempted, failed, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "growthlab" / "__init__.py").is_file():
        print(f"error: no growthlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import growthlab

    if Path(growthlab.__file__).resolve().parent != (SRC / "growthlab").resolve():
        print("error: growthlab was not imported from ./src", file=sys.stderr)
        return 2

    inputs, run_dir, inputs_sha = prepare(args.workload, args.seed, args.trace)
    if args.trace:
        metrics, attempted, failed, detail = measure_per_layer(
            args.workload, inputs, run_dir)
    else:
        metrics, attempted, failed, detail = measure_end_to_end(
            args.workload, args.seconds, inputs, run_dir)
    env = environment()
    differs = baseline_differences(env)

    print(f"growthlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in differs:
        print(f"NOTE environment differs from perfbench/baseline.json: {line}")
    print(f"inputs sha256 {inputs_sha}")
    for name, m in metrics.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{detail['tail_percentile']:g} of {detail['ops']} ops)"
        value = m["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<44} {shown} {m['unit']}{extra}")
    if not args.trace:
        print(f"  {'fail_ratio':<44} {detail['fail_ratio']:>14.6g} ratio")
        print("  unscaled, at the host speed of this run: " + ", ".join(
            f"{k}={v:.6g}" for k, v in detail["unscaled_metrics"].items()))
    for problem in detail["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"attempted {attempted} failed {failed}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "env": env,
         "env_differs_from_baseline": differs, "inputs_sha256": inputs_sha,
         "detail": detail}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
