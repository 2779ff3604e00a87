"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the repository root, that:

* the same seed yields byte-identical inputs and a different seed
  different ones, for every workload;
* two runs with one seed produce byte-identical outputs, and a second
  seed passes every check, for every workload (one pass each);
* a ball count off by one, and the corrupted output of every workload,
  is counted as failed;
* per-layer call counts repeat exactly across traced runs.

Exits 0 when all hold; prints what failed otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-trace{trace}" /
                         "result.json").read_text())
    return {**last, "record": record}


def main() -> int:
    from checks import Checker, corrupt

    problems = []

    def expect(cond, message):
        if not cond:
            problems.append(message)
            print(f"FAIL {message}", flush=True)

    for w in workloads.WORKLOADS:
        a = workloads.inputs_bytes(workloads.make_inputs(w, 7))
        b = workloads.inputs_bytes(workloads.make_inputs(w, 7))
        c = workloads.inputs_bytes(workloads.make_inputs(w, 8))
        expect(a == b, f"{w}: same seed gave different inputs")
        expect(a != c, f"{w}: different seeds gave the same inputs")

    for w in workloads.WORKLOADS:
        first, again, other = run(w, 7, 0), run(w, 7, 0), run(w, 8, 0)
        for res, label in ((first, "seed 7"), (again, "seed 7 again"),
                           (other, "seed 8")):
            expect(res["correct"] and res["failed"] == 0,
                   f"{w} {label}: {res['record']['detail']['problems']}")
        expect(first["record"]["detail"]["outputs_sha256"]
               == again["record"]["detail"]["outputs_sha256"],
               f"{w}: outputs differ between two runs of one seed")
        expect(first["record"]["inputs_sha256"] == again["record"]["inputs_sha256"],
               f"{w}: inputs differ between two runs of one seed")
        print(f"ok {w}: deterministic, second seed passes", flush=True)

    # one count off by one must be a failed op
    inputs = workloads.make_inputs("ball_lattice", 7)
    out_dir = HERE / "out" / "ball_lattice-trace0"
    run("ball_lattice", 7, 0)
    outputs = json.loads((out_dir / "untraced.json").read_text())["outputs"]
    checker = Checker(inputs)
    op = next(i for i, o in enumerate(inputs["ops"]) if o["kind"] == "ball")
    good = outputs[op]
    bad = json.loads(good)
    bad["counts"][-1] += 1
    expect(checker.check(inputs["ops"][op], good) is None, "a right count failed")
    expect(checker.check(inputs["ops"][op], json.dumps(bad)) is not None,
           "a count off by one passed")
    expect(checker.check(inputs["ops"][op], corrupt(inputs["ops"][op], good)) is not None,
           "the corrupted ball output passed")

    for w in ("certify", "cli"):
        calls = [{k: v["value"] for k, v in run(w, 7, 1)["metrics"].items()
                  if k.endswith(".calls")} for _ in range(2)]
        expect(calls[0] == calls[1], f"{w}: traced call counts differ between runs")
        expect(any(calls[0].values()), f"{w}: traced run recorded no calls")
    print("ok traced call counts repeat", flush=True)

    if problems:
        print(f"{len(problems)} self-test failure(s)")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
