"""End-to-end checks of the command-line front end: golden outputs,
exit codes, stderr records, and output-file handling."""

import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab
from growthlab import VERSION_STRING, GrowthlabError
from growthlab.cli import CliError, main
from growthlab.engines import GroupSpecError, build_engine

from util import OVER_LONG, ROT4_AUTO, TORUS_AUTO

FREE2_SPEC = {"family": "free", "rank": 2}
TORUS_SPEC = {
    "family": "semidirect",
    "base": FREE2_SPEC,
    "automorphism": {"forward": TORUS_AUTO[0], "backward": TORUS_AUTO[1]},
}
ROT4_SPEC = {
    "family": "semidirect",
    "base": {"family": "abelian", "rank": 2},
    "automorphism": {"forward": ROT4_AUTO[0], "backward": ROT4_AUTO[1]},
}
BS1_FLIP = {"a": "a^-1", "t": "a t"}
NESTED_BS1_SPEC = {
    "family": "semidirect",
    "base": {"family": "bs1", "m": 2},
    "automorphism": {"forward": BS1_FLIP, "backward": BS1_FLIP},
}


def _semidirect_spec(base, forward, backward):
    return {"family": "semidirect", "base": base,
            "automorphism": {"forward": forward, "backward": backward}}


def spec_file(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# growth


def test_growth_free2_table(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x,y", "--radius", "3"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "n\tgamma\tupper_estimate"
    assert lines[1] == "0\t1\t"
    counts = [int(line.split("\t")[1]) for line in lines[1:]]
    assert counts == [1, 5, 17, 53]


def test_growth_budget_exhaustion_still_writes_prefix(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x,y", "--radius", "6",
        "--budget", "20"])
    assert code == 3
    assert err.startswith("ERR 3 budget exhausted after radius")
    counts = [int(line.split("\t")[1]) for line in out.splitlines()[1:]]
    assert counts == [1, 5, 17]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_growth_budget_below_one(tmp_path, capsys, budget):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x,y", "--radius", "2",
        "--budget", budget])
    assert (code, out, err) == (2, "", "ERR 2 budget must be positive\n")


def test_growth_out_file(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    target = tmp_path / "table.tsv"
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x,y", "--radius", "2",
        "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").splitlines()[0] == \
        "n\tgamma\tupper_estimate"


def test_growth_threads_agree_bytewise(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    outputs = []
    for threads in ("1", "2", "8"):
        code, out, err = run(capsys, [
            "growth", "--group", group, "--gens", "x,y", "--radius", "5",
            "--threads", threads])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_growth_unknown_generator(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x,q", "--radius", "2"])
    assert code == 2
    assert err.startswith("ERR 2 ")


def test_growth_missing_group_file(tmp_path, capsys):
    code, out, err = run(capsys, [
        "growth", "--group", str(tmp_path / "absent.json"),
        "--gens", "x", "--radius", "2"])
    assert code == 2
    assert err.startswith("ERR 2 cannot read group file")


def test_growth_group_file_not_utf8(tmp_path, capsys):
    group = tmp_path / "latin1.json"
    group.write_bytes(b'{"family": "free", "rank": 2, "note": "\xe9"}')
    code, out, err = run(capsys, [
        "growth", "--group", str(group), "--gens", "x", "--radius", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("ERR 2 cannot read group file: ")
    assert err.count("\n") == 1


def test_growth_out_file_in_missing_directory(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    target = tmp_path / "absent" / "table.tsv"
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x,y", "--radius", "2",
        "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("ERR 2 cannot write output file: ")
    assert err.count("\n") == 1
    assert not target.exists()


def test_growth_negative_radius(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x,y", "--radius", "-1"])
    assert (code, out, err) == (2, "", "ERR 2 radius must be nonnegative\n")


def test_growth_bad_family_spec(tmp_path, capsys):
    group = spec_file(tmp_path, "bad.json", {"family": "dihedral"})
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x", "--radius", "2"])
    assert code == 2
    assert err.startswith("ERR 2 ")
    assert "dihedral" in err


def test_growth_bad_word_syntax(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x^", "--radius", "2"])
    assert code == 2
    assert err.startswith("ERR 2 ")


def test_growth_zero_threads_rejected(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x", "--radius", "2",
        "--threads", "0"])
    assert code == 2
    assert err.startswith("ERR 2 thread count must be positive")


# ---------------------------------------------------------------------------
# alexander and rewrite


def test_alexander_golden_lines(capsys):
    cases = [
        ("t x t^-1 x", "Delta = 1 + t; monic_both_ends=true; degree=1; "
                       "not_fg=false"),
        ("t x t^-1 x^-1", "Delta = -1 + t; monic_both_ends=true; degree=1; "
                          "not_fg=false"),
        ("t x t^-1 x^-2", "Delta = -2 + t; monic_both_ends=false; degree=1; "
                          "not_fg=true"),
    ]
    for relator, expected in cases:
        code, out, err = run(capsys, ["alexander", "--relators", relator])
        assert code == 0
        assert out.rstrip("\n") == expected


def test_alexander_empty_relators(capsys):
    code, out, err = run(capsys, ["alexander", "--relators", " ; "])
    assert code == 2
    assert err.startswith("ERR 2 no relators given")


def test_alexander_unbalanced_relator(capsys):
    code, out, err = run(capsys, ["alexander", "--relators", "t x"])
    assert code == 2
    assert err.startswith("ERR 2 ")


def test_rewrite_output(capsys):
    code, out, err = run(capsys, ["rewrite", "--relator", "t x t^-1 x"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rewritten = x_1 x_0"
    assert lines[1] == "abelianized = 1 + t"


def test_rewrite_unbalanced_relator(capsys):
    code, out, err = run(capsys, ["rewrite", "--relator", "t x"])
    assert (code, out, err) == (2, "", "ERR 2 t-exponent sum is 1, not 0\n")


# ---------------------------------------------------------------------------
# spectra


def test_spectra_matrix_exponential(capsys):
    code, out, err = run(capsys, ["spectra", "--matrix", "[[2,1],[1,1]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Exponential"
    assert payload["roots_of_unity"] is False
    assert abs(payload["spectral_radius"] - 2.618033988749895) < 1e-9
    assert payload["char_poly"] == "1 - 3*t + t^2"
    assert payload["log_base"] == "e"
    assert list(payload) == sorted(payload)


def test_spectra_rot4_virtually_nilpotent(capsys):
    code, out, err = run(capsys, ["spectra", "--matrix", "[[0,-1],[1,0]]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "VirtuallyNilpotent"
    assert payload["roots_of_unity"] is True
    assert payload["spectral_radius"] == 1.0


def test_spectra_poly_input(capsys):
    code, out, err = run(capsys, ["spectra", "--poly", "t^2-3t+1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Exponential"
    assert abs(payload["threshold"] - 1.0033535800365154) < 1e-12


def test_spectra_stdout_bytes(capsys):
    code, out, err = run(capsys, ["spectra", "--matrix", "[[2,1],[1,1]]"])
    assert code == 0 and err == ""
    assert out == (
        '{"char_poly": "1 - 3*t + t^2", "classification": "Exponential", '
        '"log_base": "e", "roots_of_unity": false, '
        '"spectral_radius": 2.618033988749895, '
        '"threshold": 1.0033535800365154}\n')
    code, out, err = run(capsys, ["spectra", "--poly", "t^2+1"])
    assert code == 0 and err == ""
    assert out == (
        '{"char_poly": "1 + t^2", "classification": "VirtuallyNilpotent", '
        '"log_base": "e", "roots_of_unity": true, "spectral_radius": 1.0, '
        '"threshold": 1.0033535800365154}\n')


@pytest.mark.parametrize("argv", [
    ["--poly", "t^2"],
    ["--poly", "t^2-t"],
    ["--poly", "t-2"],
    ["--matrix", "[[2,0],[0,1]]"],
    ["--matrix", "[[0]]"],
])
def test_spectra_non_unit_determinant(capsys, argv):
    code, out, err = run(capsys, ["spectra", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("ERR 2 ") and err.endswith(" is not a unit\n")
    assert err.count("\n") == 1


def test_spectra_argument_validation(capsys):
    code, out, err = run(capsys, ["spectra"])
    assert code == 2
    assert err.startswith("ERR 2 give exactly one of")
    code, out, err = run(capsys, [
        "spectra", "--matrix", "[[1,0],[0,1]]", "--poly", "t-1"])
    assert code == 2
    code, out, err = run(capsys, ["spectra", "--matrix", "[[1,0]]"])
    assert code == 2
    assert err.startswith("ERR 2 matrix must be a square")
    code, out, err = run(capsys, ["spectra", "--poly", "2t^2-1"])
    assert code == 2
    assert err.startswith("ERR 2 polynomial must be monic")


# ---------------------------------------------------------------------------
# witness and pcc


def test_witness_torus_json(tmp_path, capsys):
    group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    code, out, err = run(capsys, [
        "witness", "--group", group, "--gens", "t,x", "--u", "3", "--d", "2",
        "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "NonCyclicPair"
    assert payload["u"] == "y x^-1"
    assert payload["v"] == "x"
    assert payload["max_A_length"] == 6
    assert payload["reverified"] is True
    assert abs(payload["bound"] - 3.0 ** (1.0 / 6.0)) < 1e-12


def test_witness_plain_lines(tmp_path, capsys):
    group = spec_file(tmp_path, "rot4.json", ROT4_SPEC)
    code, out, err = run(capsys, [
        "witness", "--group", group, "--gens", "t,e1", "--u", "3", "--d", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "variant = PeriodicConjugacy"
    assert "k = e1" in lines
    assert "n = 4" in lines
    assert "c = <identity>" in lines


def test_witness_threads_agree_bytewise(tmp_path, capsys):
    group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    outputs = []
    for threads in ("1", "2", "8"):
        code, out, err = run(capsys, [
            "witness", "--group", group, "--gens", "t,x", "--u", "3",
            "--d", "2", "--json", "--threads", threads])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_witness_bad_hypothesis(tmp_path, capsys):
    group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    code, out, err = run(capsys, [
        "witness", "--group", group, "--gens", "t,x", "--u", "1", "--d", "2"])
    assert code == 2
    assert err.startswith("ERR 2 growth hypothesis")


@pytest.mark.parametrize("u", ["nan", "inf", "1e400"])
def test_witness_non_finite_hypothesis(tmp_path, capsys, u):
    # a bound of NaN or Infinity would not be valid JSON
    group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    code, out, err = run(capsys, [
        "witness", "--group", group, "--gens", "t,x", "--u", u, "--d", "2",
        "--json"])
    assert (code, out) == (2, "")
    assert err == "ERR 2 growth hypothesis u must be finite and exceed 1\n"


def test_witness_non_semidirect_group(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    code, out, err = run(capsys, [
        "witness", "--group", group, "--gens", "x,y", "--u", "3", "--d", "2"])
    assert code == 2
    assert err.startswith("ERR 2 analysis requires a split-extension engine")


def test_pcc_torus_json(tmp_path, capsys):
    group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    code, out, err = run(capsys, [
        "pcc", "--group", group, "--max-period", "10", "--max-length", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    assert payload["note"] == "found within bounds"
    assert payload["certificate"]["k"] == "x y x^-1 y^-1"
    assert payload["certificate"]["n"] == 2


def test_pcc_rot4_exact(tmp_path, capsys):
    group = spec_file(tmp_path, "rot4.json", ROT4_SPEC)
    code, out, err = run(capsys, [
        "pcc", "--group", group, "--max-period", "10", "--max-length", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["certificate"]["k"] == "e1"
    assert payload["certificate"]["n"] == 4


def test_pcc_unsupported_base_family(tmp_path, capsys):
    group = spec_file(tmp_path, "nested_bs1.json", NESTED_BS1_SPEC)
    code, out, err = run(capsys, [
        "pcc", "--group", group, "--max-period", "4", "--max-length", "2"])
    assert (code, out) == (2, "")
    assert err == ("ERR 2 periodic-class scan unsupported for base family "
                   "'bs1'\n")


def test_pcc_klein_swap_is_not_an_automorphism(tmp_path, capsys):
    # a <-> t passes both inverse checks but breaks t a t^-1 a = e; the
    # scan would answer k = a^-1 with n = 2, where every automorphism
    # gives n = 1, so the group file is refused before any scan
    swap = {"a": "t", "t": "a"}
    group = spec_file(tmp_path, "swap.json", _semidirect_spec(
        {"family": "klein"}, swap, dict(swap)))
    code, out, err = run(capsys, [
        "pcc", "--group", group, "--max-period", "5", "--max-length", "3"])
    assert (code, out, err) == (
        2, "", "ERR 2 forward map sends the relator t a t^-1 a to a^2 t^2: "
               "not a homomorphism\n")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def test_pcc_long_period_bound(tmp_path):
    # the scan steps each word from level 1 and, on the torus, only a
    # word with zero exponent sums is ever stepped: a bound of 40
    # periods answers at once, in a process held to 512 MiB of address
    # space (a scan that stepped x to level 40 would need gigabytes)
    group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for length, cert in (("3", None),
                         ("4", {"c": "<identity>", "k": "x y x^-1 y^-1", "n": 2,
                                "reverified": True, "variant": "PeriodicConjugacy"})):
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab.cli", "pcc", "--group", group,
             "--max-period", "40", "--max-length", length],
            capture_output=True, text=True, env=env, timeout=60, check=False,
            preexec_fn=_limit_memory)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["certificate"] == cert


def test_pcc_expands_no_large_exponent(tmp_path):
    # alpha(x) = y^N x y^-N is conjugate to x by y^N: the conjugacy test
    # peels the y runs whole and compares the cores' lengths before it
    # expands a core, so N = 10^8 costs no 10^8 letters, in a process
    # held to 512 MiB of address space
    big = "100000000"
    spec = _semidirect_spec(FREE2_SPEC, {"x": f"y^{big} x y^-{big}", "y": "y"},
                            {"x": f"y^-{big} x y^{big}", "y": "y"})
    group = spec_file(tmp_path, "conj.json", spec)
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", "pcc", "--group", group,
         "--max-period", "2", "--max-length", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60, check=False, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["certificate"] == {
        "c": f"y^{big}", "k": "x", "n": 1, "reverified": True,
        "variant": "PeriodicConjugacy"}


def test_free_conjugacy_of_long_runs_in_a_fresh_process():
    # x^N y against y x^N with N = 10^8: the cores are cut at run ends,
    # not spelled as N unit letters, in a process held to 512 MiB
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    script = ("from growthlab.engines import FreeEngine\n"
              "n = 10 ** 8\n"
              "print(FreeEngine(2).conjugacy_test((0, n, 1, 1), (1, 1, 0, n)))")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60, check=False,
        preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(0, -100000000)\n", "")


# F2 x| (x -> x, y -> y x), where alpha^k(y) = y x^k, and Z^2 x| [[1, 1], [0, 1]]
UNIPOTENT_SPEC = _semidirect_spec(FREE2_SPEC, {"x": "x", "y": "y x"},
                                  {"x": "x", "y": "y x^-1"})
SHEAR_SPEC = _semidirect_spec({"family": "abelian", "rank": 2},
                              {"e1": "e1", "e2": "e1 e2"}, {"e1": "e1", "e2": "e1^-1 e2"})


@pytest.mark.parametrize("spec, argv, expected", [
    (UNIPOTENT_SPEC, ["witness", "--gens", "t^10000000,y", "--u", "3", "--d", "2"],
     ["variant = PeriodicConjugacy", "k = y x^10000000 y^-1", "n = 10000000"]),
    (UNIPOTENT_SPEC, ["growth", "--gens", "t^3000000,y", "--radius", "2"],
     ["0\t1\t", "1\t5\t5.0000000000", "2\t17\t4.1231056256"]),
    (SHEAR_SPEC, ["witness", "--gens", "t^1000000,e2", "--u", "3", "--d", "2"],
     ["variant = PeriodicConjugacy", "k = e1", "n = 1000000"]),
    (UNIPOTENT_SPEC, ["growth", "--gens", "t^1000000000000,y", "--radius", "3"],
     ["0\t1\t", "1\t5\t5.0000000000", "2\t17\t4.1231056256",
      "3\t53\t3.7562857542"]),
], ids=["witness-free", "growth-free", "witness-abelian", "growth-free-far"])
def test_far_powers_of_t_cost_their_bits(tmp_path, spec, argv, expected):
    # a generator t^N needs level N of the automorphism, which
    # binary_power builds from level +-1 in about 2 log2(N) compositions
    # and stores alone; a walk that stored every level up to N would
    # need more than 512 MiB, or more than a minute at N = 10^12
    group = spec_file(tmp_path, "group.json", spec)
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", argv[0], "--group", group, *argv[1:]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60, check=False, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line in expected] == expected


def test_bs1_pure_shift_costs_no_power_of_m(tmp_path):
    # t^k with a 400-digit k: a product of pure shifts scales only zero
    # numerators, so it forms no 3^|k|, and the ball is a path; in a
    # fresh process held to 512 MiB of address space
    group = spec_file(tmp_path, "bs1.json", {"family": "bs1", "m": 3})
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", "growth", "--group", group,
         "--gens", f"t^{'7' * 400}", "--radius", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60, check=False, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [int(line.split("\t")[1]) for line in proc.stdout.splitlines()[1:]] \
        == [1, 3, 5, 7]


def test_growth_and_witness_take_deep_shifts(tmp_path, capsys):
    # generators of shift 26 need automorphism level 26, whose images
    # run to ~300 k flat entries; both commands answer as before
    group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x t^26, y", "--radius", "1"])
    assert (code, err) == (0, "")
    assert out == "n\tgamma\tupper_estimate\n0\t1\t\n1\t5\t5.0000000000\n"
    code, out, err = run(capsys, [
        "witness", "--group", group, "--gens", "y, t^26", "--u", "3", "--d", "2"])
    assert (code, err) == (0, "")
    assert out.startswith("variant = NonCyclicPair\nbound = 1.3160740129524924\nu = y\n")
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        1214026, "5718068955ae238db8c37395216a34073f24ad3268e5827f78ccb2c871e72c9f")


# ---------------------------------------------------------------------------
# input errors: every one ends in one ERR 2 record and no stdout


@pytest.mark.parametrize("argv, message", [
    (["growth", "--gens", " , ", "--radius", "2"], "no words given"),
    (["witness", "--gens", ",", "--u", "3", "--d", "2"], "no words given"),
    (["spectra", "--matrix", "[[1,"],
     "bad matrix literal: Expecting value: line 1 column 5 (char 4)"),
    (["spectra", "--matrix", "[[1.5]]"], "matrix entries must be integers"),
    (["spectra", "--matrix", "[[true]]"], "matrix entries must be integers"),
    (["witness", "--gens", "t,q", "--u", "3", "--d", "2"],
     "unknown generator 'q'"),
    (["spectra", "--matrix", f"[[{OVER_LONG},1],[1,1]]"],
     "bad matrix literal: integer literal too long"),
])
def test_cli_input_errors(tmp_path, capsys, argv, message):
    if "--gens" in argv:
        group = spec_file(tmp_path, "torus.json", TORUS_SPEC)
        argv = argv[:1] + ["--group", group] + argv[1:]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"ERR 2 {message}\n")


# deeper than the JSON decoder's recursion limit
DEEP_JSON = "[" * 5000 + "]" * 5000


def assert_single_err2(code, out, err, prefix):
    assert (code, out) == (2, "")
    assert err.startswith(f"ERR 2 {prefix}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_deeply_nested_group_file(tmp_path, capsys):
    group = tmp_path / "deep.json"
    group.write_text(DEEP_JSON, encoding="utf-8")
    assert_single_err2(*run(capsys, [
        "growth", "--group", str(group), "--gens", "x", "--radius", "1"]),
        "invalid JSON: ")


def test_deeply_nested_matrix_literal(capsys):
    assert_single_err2(*run(capsys, ["spectra", "--matrix", DEEP_JSON]),
                       "bad matrix literal: ")


@pytest.mark.parametrize("argv, message", [
    (["spectra", "--poly", f"t^2+{OVER_LONG}t+1"], "integer literal too long in polynomial"),
    (["spectra", "--matrix", f"[[{OVER_LONG},1],[1,1]]"],
     "bad matrix literal: integer literal too long"),
    (["witness", "--group", "torus", "--gens", f"x^{OVER_LONG},y", "--u", "3", "--d", "2"],
     "exponent of 'x' is too long"),
    (["alexander", "--relators", f"t x t^-1 x; t x^{OVER_LONG} t^-1 x"],
     "exponent of 'x' is too long"),
    (["rewrite", "--relator", f"t x^-{OVER_LONG} t^-1 x"], "exponent of 'x' is too long"),
    (["growth", "--group", "rank", "--gens", "x", "--radius", "1"],
     "invalid JSON: integer literal too long"),
    (["growth", "--group", "auto", "--gens", "x", "--radius", "1"],
     "bad automorphism word: exponent of 'x' is too long"),
], ids=["poly", "matrix", "gens", "relators", "relator", "rank", "automorphism"])
def test_over_long_integer_literals_end_in_err2(tmp_path, argv, message):
    # int() refuses more than 4,300 digits with a ValueError; each parser
    # turns it into its own input error, in a fresh process
    groups = {
        "torus": json.dumps(TORUS_SPEC),
        "rank": f'{{"family": "free", "rank": {OVER_LONG}}}',
        "auto": json.dumps({**TORUS_SPEC, "automorphism": {
            "forward": {"x": f"x^{OVER_LONG}", "y": "y"},
            "backward": {"x": "x", "y": "y"}}}),
    }
    if "--group" in argv:
        i = argv.index("--group") + 1
        path = tmp_path / "group.json"
        path.write_text(groups[argv[i]], encoding="utf-8")
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"ERR 2 {message}\n")


# 3,000 nines: a legal integer literal, past the float range
NINES = "9" * 3000


@pytest.mark.parametrize("matrix, message", [
    (f"[[{NINES},1],[1,0]]", "coefficients too large for the float root iteration"),
    (f"[[{NINES},{NINES}],[1,{NINES}]]", "determinant is not a unit"),
], ids=["root-bound", "determinant"])
def test_huge_matrix_entries_end_in_err2(matrix, message):
    # the first is unimodular with char t^2 - N t - 1, whose root bound
    # overflows a float; the second has a 6,000-digit determinant, which
    # the message does not echo
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", "spectra", "--matrix", matrix],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"ERR 2 {message}\n")


def test_spectral_radius_refuted_by_an_exact_bound_ends_in_err2(capsys):
    # char t^2 - 10^15 t - 1: the roots sum to 10^15, so the radius is at
    # least 5 * 10^14, and the 1.5 the root iteration stops at is refused
    code, out, err = run(capsys, [
        "spectra", "--matrix", "[[1000000000000000,1],[1,0]]"])
    assert (code, out, err) == (
        2, "", "ERR 2 radius estimate is below the exact lower bound\n")
    code, out, err = run(capsys, [
        "spectra", "--matrix", "[[10000000000000,1],[1,0]]"])
    assert (code, err) == (0, "")
    assert json.loads(out)["spectral_radius"] == 1e13


@pytest.mark.parametrize("argv, message", [
    (["growth", "--group", '{"family": "free", "rank": 100000000000000000000}',
      "--gens", "x", "--radius", "1"], "rank is above the ceiling 10000"),
    (["growth", "--group", '{"family": "abelian", "rank": 100000000000000000000}',
      "--gens", "e1", "--radius", "1"], "rank is above the ceiling 10000"),
    (["spectra", "--poly", "t^1000000000+1"],
     "polynomial degree is above the ceiling 128"),
    (["rewrite", "--relator", "t x^100000000 t^-1 x"],
     "rewritten relator has more letters than the print ceiling 1000000"),
    (["spectra", "--matrix", json.dumps([[int(i == j) for j in range(129)]
                                         for i in range(129)])],
     "matrix dimension is above the ceiling 128"),
    (["growth", "--group", json.dumps(_semidirect_spec(
        {"family": "abelian", "rank": 10_000}, *[{f"e{i}": f"e{i}" for i in range(1, 10_001)}] * 2)),
      "--gens", "t", "--radius", "1"],
     "split extension base has 10000 generators, above the ceiling 128"),
], ids=["free-rank", "abelian-rank", "degree", "letters", "matrix-dimension",
        "split-base-rank"])
def test_inputs_past_a_size_ceiling_end_in_err2(tmp_path, argv, message):
    # each input asks for a table, a coefficient list or a string of its
    # own size; past the ceiling it is one ERR 2 line, in a fresh process
    # held to 512 MiB of address space.  The split extension over Z^10000
    # would hold each of its two levels as 10^8 matrix entries
    if "--group" in argv:
        i = argv.index("--group") + 1
        path = tmp_path / "group.json"
        path.write_text(argv[i], encoding="utf-8")
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "growthlab.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60, check=False,
        preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"ERR 2 {message}\n")


@pytest.mark.parametrize("spec, message", [
    ([FREE2_SPEC], "group spec must be a JSON object"),
    ({"family": "semidirect", "automorphism": TORUS_SPEC["automorphism"]},
     "semidirect spec needs a base"),
    ({"family": "semidirect", "base": FREE2_SPEC,
      "automorphism": {"forward": TORUS_AUTO[0]}},
     "automorphism must have exactly forward and backward maps"),
    (_semidirect_spec(FREE2_SPEC, {"x": 1, "y": "x"}, TORUS_AUTO[1]),
     "automorphism forward map must be a dict of words"),
    (_semidirect_spec(FREE2_SPEC, {"x": "y"}, TORUS_AUTO[1]),
     "automorphism forward map must cover exactly the base generators "
     "['x', 'y'], got ['x']"),
    # not a homomorphism of the klein group, so backward . forward = id
    # on the generators does not force forward . backward = id
    (_semidirect_spec({"family": "klein"}, {"a": "t", "t": "a"},
                      {"a": "a", "t": "a"}),
     "forward(backward(a)) != a: maps are not inverse"),
    (_semidirect_spec(FREE2_SPEC, {"x": "q", "y": "x"}, TORUS_AUTO[1]),
     "automorphism references unknown generator 'q'"),
    (_semidirect_spec(FREE2_SPEC, {"x": "y^", "y": "x y"}, TORUS_AUTO[1]),
     "bad automorphism word: bad letter 'y^'"),
    # the swap a <-> t is its own inverse on the generators, but it
    # breaks the defining relator, so it is not a homomorphism
    (_semidirect_spec({"family": "klein"}, {"a": "t", "t": "a"},
                      {"a": "t", "t": "a"}),
     "forward map sends the relator t a t^-1 a to a^2 t^2: not a "
     "homomorphism"),
    (_semidirect_spec({"family": "bs1", "m": 2}, {"a": "t", "t": "a"},
                      {"a": "t", "t": "a"}),
     "forward map sends the relator t a t^-1 a^-2 to a^-1 t^-1: not a "
     "homomorphism"),
    # an unhashable family is no family, not a TypeError
    ({"family": []}, "unknown family []"),
])
def test_group_spec_errors(tmp_path, capsys, spec, message):
    with pytest.raises(GroupSpecError) as info:
        build_engine(spec)
    assert str(info.value) == message
    group = spec_file(tmp_path, "bad.json", spec)
    code, out, err = run(capsys, [
        "growth", "--group", group, "--gens", "x", "--radius", "1"])
    assert (code, out, err) == (2, "", f"ERR 2 {message}\n")


# ---------------------------------------------------------------------------
# top-level behavior


_NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from growthlab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({"code": code, "stdout": out.getvalue()})
print(json.dumps(results))
"""


def test_all_subcommands_run_without_numpy(tmp_path):
    free2 = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    torus = spec_file(tmp_path, "torus.json", TORUS_SPEC)
    cases = [
        ["growth", "--group", free2, "--gens", "x,y", "--radius", "3"],
        ["alexander", "--relators", "t x t^-1 x"],
        ["spectra", "--matrix", "[[2,1],[1,1]]"],
        ["witness", "--group", torus, "--gens", "t,x", "--u", "3", "--d", "2",
         "--json"],
        ["pcc", "--group", torus, "--max-period", "10", "--max-length", "6"],
        ["rewrite", "--relator", "t x t^-1 x"],
    ]
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, json.dumps(cases)],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert [r["code"] for r in results] == [0] * len(cases)
    growth, alexander, spectra, witness, pcc, rewrite = \
        [r["stdout"] for r in results]
    assert [int(line.split("\t")[1]) for line in growth.splitlines()[1:]] \
        == [1, 5, 17, 53]
    assert alexander.startswith("Delta = 1 + t; ")
    assert json.loads(spectra)["spectral_radius"] == 2.618033988749895
    assert json.loads(witness)["variant"] == "NonCyclicPair"
    assert json.loads(pcc)["certificate"]["k"] == "x y x^-1 y^-1"
    assert rewrite == "rewritten = x_1 x_0\nabelianized = 1 + t\n"


# builtin base each library error class keeps beside GrowthlabError
_ERROR_BASES = {
    "GroupSpecError": ValueError,
    "UnknownGeneratorError": KeyError,
    "UnsupportedFamilyError": NotImplementedError,
    "WordSyntaxError": ValueError,
    "GrowthError": Exception,
    "LaurentError": Exception,
    "RewriteError": Exception,
    "SpectraError": Exception,
    "WitnessError": Exception,
}


def test_every_library_error_is_a_growthlab_error():
    found = {}
    for info in pkgutil.iter_modules(growthlab.__path__):
        mod = importlib.import_module(f"growthlab.{info.name}")
        for name, obj in vars(mod).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__):
                found[name] = obj
    assert found.pop("CliError") is CliError
    assert not issubclass(CliError, GrowthlabError)
    assert sorted(found) == sorted(_ERROR_BASES)
    for name, cls in found.items():
        assert issubclass(cls, GrowthlabError), name
        assert issubclass(cls, _ERROR_BASES[name]), name


_FOOTPRINT_SCRIPT = """
import contextlib, io, json, sys
from growthlab import cli
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("growthlab."))))
"""

# cli.py imports no library module at its top
_BASE_MODULES = ["cli"]
# a search over a free base never reaches laurent or spectra
_SEARCH_MODULES = ["_exact", "_purewords", "cli", "engines", "growth",
                   "witness", "wordops", "words"]


@pytest.mark.parametrize("argv, loaded", [
    ([], _BASE_MODULES),
    (["growth", "--group", "{free2}", "--gens", "x,y", "--radius", "3"],
     _BASE_MODULES + ["growth", "engines", "words", "wordops", "_purewords"]),
    (["alexander", "--relators", "t x t^-1 x"],
     _BASE_MODULES + ["laurent", "_exact", "words"]),
    (["rewrite", "--relator", "t x t^-1 x"],
     _BASE_MODULES + ["laurent", "_exact", "words"]),
    (["spectra", "--matrix", "[[2,1],[1,1]]"],
     _BASE_MODULES + ["spectra", "_exact"]),
    (["witness", "--group", "{torus}", "--gens", "t,x", "--u", "3", "--d",
      "2"], _SEARCH_MODULES),
    (["pcc", "--group", "{torus}", "--max-period", "4", "--max-length", "3"],
     _SEARCH_MODULES),
], ids=["import", "growth", "alexander", "rewrite", "spectra", "witness",
        "pcc"])
def test_subcommand_import_footprint(tmp_path, argv, loaded):
    files = {"{free2}": spec_file(tmp_path, "free2.json", FREE2_SPEC),
             "{torus}": spec_file(tmp_path, "torus.json", TORUS_SPEC)}
    argv = [files.get(a, a) for a in argv]
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(f"growthlab.{m}" for m in loaded)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == VERSION_STRING


def test_missing_subcommand_uses_err_record(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("ERR 2 ")


def test_unknown_flag_uses_err_record(capsys):
    with pytest.raises(SystemExit) as info:
        main(["growth", "--nope"])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("ERR 2 ")


def test_seed_flag_is_inert(tmp_path, capsys):
    group = spec_file(tmp_path, "free2.json", FREE2_SPEC)
    runs = []
    for seed in ("0", "1", "12345"):
        code, out, err = run(capsys, [
            "--seed", seed, "growth", "--group", group, "--gens", "x,y",
            "--radius", "4"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
