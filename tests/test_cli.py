"""End-to-end checks of the command-line front end: golden outputs,
exit codes, stderr records, and output-file handling."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab
from growthlab import VERSION_STRING, GrowthlabError
from growthlab.cli import CliError, main

from util import ROT4_AUTO, TORUS_AUTO

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

_BASE_MODULES = ["cli", "growth"]
_ALL_MODULES = ["_exact", "_purewords", "cli", "engines", "growth", "laurent",
                "spectra", "subgroups", "witness", "wordops", "words"]


@pytest.mark.parametrize("argv, loaded", [
    ([], _BASE_MODULES),
    (["growth", "--group", "{free2}", "--gens", "x,y", "--radius", "3"],
     _BASE_MODULES + ["engines", "words", "wordops", "_purewords"]),
    (["alexander", "--relators", "t x t^-1 x"],
     _BASE_MODULES + ["laurent", "_exact", "words"]),
    (["rewrite", "--relator", "t x t^-1 x"],
     _BASE_MODULES + ["laurent", "_exact", "words"]),
    (["spectra", "--matrix", "[[2,1],[1,1]]"],
     _BASE_MODULES + ["spectra", "_exact"]),
    (["witness", "--group", "{torus}", "--gens", "t,x", "--u", "3", "--d",
      "2"], _ALL_MODULES),
    (["pcc", "--group", "{torus}", "--max-period", "4", "--max-length", "3"],
     _ALL_MODULES),
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
