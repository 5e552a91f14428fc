"""CLI contract: subcommands, exit codes, JSON schema."""

import json
import os
import re
import subprocess
import sys

import pytest

import crysref
from crysref import cli
from crysref.cli import main
from crysref.presentations import build_group_presentation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_verify_all_pass(capsys):
    code, rep = run_json(capsys, "verify", "C_alpha", "3", "--what", "all")
    assert code == 0
    assert rep["schema"] == 1
    assert rep["pass"] is True
    assert rep["exit_code"] == 0


def test_verify_x_relation(capsys):
    code, rep = run_json(capsys, "verify", "A_alpha", "4", "--what", "x-relation")
    assert code == 0
    assert len(rep["relators"]) == 1


def test_verify_extra_order(capsys):
    code, rep = run_json(capsys, "verify", "C_alpha", "2", "--what", "extra-order")
    assert code == 0
    assert rep["extra_order"]["order"] == 2


def test_verify_presentation_leaves_out_the_x_relator(capsys):
    _, full = run_json(capsys, "verify", "C_alpha", "3")
    code, rep = run_json(capsys, "verify", "C_alpha", "3", "--what", "presentation")
    assert code == 0 and rep["pass"] is True and "extra_order" not in rep
    x = build_group_presentation("C_alpha", 3).x_relator_index
    assert x is not None
    assert rep["relators"] == full["relators"][:x] + full["relators"][x + 1:]


@pytest.mark.parametrize("command", ["verify", "classes"])
def test_verify_invalid_rank_is_usage_error(capsys, command):
    code, out, err = run(capsys, command, "C_alpha", "0")
    assert code == 64
    assert out == ""
    assert err == "error: rank must be positive, got 0\n"


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "Z_gamma", "2")
    assert code == 64


@pytest.mark.parametrize("argv", [
    ("frobnicate",),
    ("verify", "C_alpha", "abc"),
    ("verify",),
    (),
], ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_argparse_error_is_usage_error(capsys, argv):
    # argparse's own errors take the same one-line path as the library's
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--help",), ("hecke", "--help"),
                                  ("hecke", "tripledot", "--help")], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: crysref") and err == ""


def test_abelianize_output(capsys):
    code, out, _ = run(capsys, "abelianize", "C_alpha", "2")
    assert code == 0
    assert out.strip() == "2 2 2 2"


def test_classes_json(capsys):
    code, rep = run_json(capsys, "classes", "C_alpha", "1")
    assert code == 0
    assert rep["count"] == 4


def test_classes_negative_bound_is_usage_error(capsys):
    # a negative bound gives an empty window: "count: 0, pass: True"
    code, out, err = run(capsys, "classes", "C_alpha", "2", "--bound", "-1")
    assert code == 64
    assert out == ""
    assert err == "error: --bound must be >= 0, got -1\n"


@pytest.mark.parametrize("family,n,bound,count", [
    ("A_alpha", "3", "99999", 3 * 200_003 ** 2),
    ("C_alpha", "2", "61", 4 * 127 ** 2),
    ("A_alpha", "38", "0", 17_575),
])
def test_classes_over_the_candidate_cap_is_usage_error(capsys, family, n,
                                                       bound, count):
    code, out, err = run(capsys, "classes", family, n, "--bound", bound)
    assert code == 64
    assert out == ""
    assert err == (f"error: bound {bound} needs {count} candidate reflections "
                   f"for {family} n={n}, over the cap of 16000\n")


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    code, out, err = run(capsys, "verify", "A_alpha", "3")
    assert code == 70
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("family", ["G311", "G411", "G611"])
def test_classes_without_enumeration_is_usage_error(capsys, family):
    # these families have matrices but no reflection candidates
    code, out, err = run(capsys, "classes", family, "2")
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("tripledot", "4", "5"),
    ("tripledot",),
    ("rank-one", "D4", "3"),
    ("rank-one", "D4"),
    ("gdaha-check", "D9", "2"),
    ("tripledot", "x"),
], ids=" ".join)
def test_hecke_wrong_argument_count_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "hecke", *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--max-len", "--max-depth"])
@pytest.mark.parametrize("value", ["0", "-1", "-5"])
def test_prove_budget_flag_below_one_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "prove", "C_alpha", "1", "s1 s1", flag, value)
    assert code == 64
    assert out == ""
    assert err == f"error: {flag} must be >= 1, got {value}\n"


@pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf", "1e308"])
def test_bad_budget_scale_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("CRYSREF_BUDGET_SCALE", value)
    code, out, err = run(capsys, "prove", "C_alpha", "1", "s1 s1")
    assert code == 64
    assert out == ""
    assert err.startswith("error: CRYSREF_BUDGET_SCALE") and err.count("\n") == 1


def test_good_budget_scale_is_accepted(capsys, monkeypatch):
    monkeypatch.setenv("CRYSREF_BUDGET_SCALE", "0.5")
    code, rep = run_json(capsys, "prove", "C_alpha", "1", "s1 s1")
    assert code == 0 and rep["status"] == "proved"


def _src_env():
    """The environment with this checkout's source first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(crysref.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_closed_stdout_gives_no_traceback():
    # the report goes to a pipe whose reader is already gone, as in
    # `crysref --json ... | head -c 10`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "crysref.cli", "--json", "verify", "C_alpha", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_src_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 0


IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "crysref")
import crysref.words
words = loaded()
import crysref.prover
print(json.dumps([words, loaded(), crysref.__version__]))
"""


def test_a_submodule_loads_only_its_own_imports():
    # the package re-exports nothing, so it imports no submodule itself
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    words, prover, version = json.loads(proc.stdout)
    assert words == ["crysref", "crysref.words"]
    assert prover == ["crysref", "crysref.prover", "crysref.snf", "crysref.words"]
    assert version == "0.1.0"


def test_braid_replay_mode(capsys):
    code, rep = run_json(capsys, "braid", "C_alpha", "3", "--mode", "replay")
    assert code == 0
    assert rep["pass"] is True
    assert rep["space"] == "PuncturedSphere4"


def test_braid_rank_one_routes_to_free_group(capsys):
    code, rep = run_json(capsys, "braid", "A_alpha", "2")
    assert code == 0
    assert rep["space"] == "FreeRank3"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_braid_c_alpha_rank_below_one_is_usage_error(capsys, n):
    # the message names C_alpha's own bound, not the sphere space's n >= 2
    code, out, err = run(capsys, "braid", "C_alpha", n)
    assert code == 64
    assert out == ""
    assert err == "error: C_alpha needs n >= 1\n"


def test_braid_replay_unavailable_elsewhere(capsys):
    code, _, err = run(capsys, "braid", "A_alpha", "3", "--mode", "replay")
    assert code == 64


def test_hecke_gdaha(capsys):
    code, rep = run_json(capsys, "hecke", "gdaha-check", "D4", "2")
    assert code == 0
    assert rep["pass"] is True
    assert rep["legs"] == [2, 2, 2, 2]


def test_hecke_rank_one(capsys):
    code, rep = run_json(capsys, "hecke", "rank-one")
    assert code == 0 and rep["pass"] is True


def test_hecke_tripledot(capsys):
    code, rep = run_json(capsys, "hecke", "tripledot", "3")
    assert code == 0 and rep["pass"] is True


def test_prove_and_replay_round_trip(capsys, tmp_path):
    code, rep = run_json(capsys, "prove", "C_alpha", "2", "s1 s1")
    assert code == 0 and rep["status"] == "proved"
    cert = tmp_path / "cert.txt"
    cert.write_text(rep["certificate"])
    code2, rep2 = run_json(capsys, "replay", "C_alpha", "2", "s1 s1", str(cert))
    assert code2 == 0 and rep2["pass"] is True
    # same certificate against a different word fails
    code3, rep3 = run_json(capsys, "replay", "C_alpha", "2", "s2 s2", str(cert))
    assert code3 == 1 and rep3["pass"] is False


@pytest.mark.parametrize("text", ["step 0: insert R1@0 at 0\nstep 1: swap\n", None],
                         ids=["malformed", "missing"])
def test_unreadable_certificate_is_usage_error(capsys, tmp_path, text):
    cert = tmp_path / "cert.txt"
    if text is not None:
        cert.write_text(text)
    code, out, err = run(capsys, "replay", "C_alpha", "2", "s1 s1", str(cert))
    assert code == 64
    assert out == ""
    assert err.startswith("error: cannot read certificate: ") and err.count("\n") == 1


def test_prove_nontrivial_exits_one(capsys):
    code, rep = run_json(capsys, "prove", "C_alpha", "2", "s1")
    assert code == 1 and rep["status"] == "disproved"


def test_prove_unknown_exits_two(capsys):
    # commutator of free generators: no obstruction, no proof
    code, rep = run_json(capsys, "prove", "C_alpha", "1", "s1 s2 s1^-1 s2^-1",
                         "--artin", "--max-depth", "3")
    assert code == 2 and rep["status"] == "unknown"


def test_export_dot_and_text(capsys):
    code, out, _ = run(capsys, "export", "A_alpha", "3", "--dot")
    assert code == 0 and out.startswith("graph") and out.endswith("}\n")
    code2, out2, _ = run(capsys, "export", "A_alpha", "3")
    assert code2 == 0 and out2.startswith("gens:")


def test_json_round_trips(capsys):
    _, rep = run_json(capsys, "verify", "G611", "2")
    assert json.loads(json.dumps(rep)) == rep


EXIT_MATRIX = (
    [("C_alpha", n) for n in (1, 2, 3, 4)]
    + [("A_alpha", n) for n in (2, 3, 4)]
    + [(f, n) for f in ("G311", "G411", "G611") for n in (1, 2, 3)]
)


@pytest.mark.parametrize("family,n", EXIT_MATRIX, ids=str)
def test_exit_code_contract_verify_matrix(capsys, family, n):
    code, rep = run_json(capsys, "verify", family, str(n))
    assert code == 0 and rep["pass"] is True
    code2, rep2 = run_json(capsys, "abelianize", family, str(n))
    assert code2 == 0


def _proof_statuses(value):
    """The status of every proof in a JSON report."""
    if isinstance(value, dict):
        if "status" in value:
            yield value["status"]
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _proof_statuses(item)


# proves s1 s1 in C_alpha 2, so it does not replay for s2 s2
WRONG_CERTIFICATE = ("step 0: insert R1@0 at 0\nstep 1: cancel at 1\n"
                     "step 2: cancel at 0\n")


@pytest.mark.parametrize("scale,argv,expected", [
    (None, ("verify", "C_alpha", "2"), 0),
    (None, ("prove", "C_alpha", "2", "s1"), 1),
    (None, ("prove", "C_alpha", "1", "s1 s2 s1^-1 s2^-1", "--artin"), 2),
    (None, ("replay", "C_alpha", "2", "s2 s2", "CERT"), 1),
    ("0.0001", ("hecke", "gdaha-check", "D4", "2"), 2),
    ("0.0001", ("braid", "C_alpha", "2"), 2),
    ("0.0001", ("hecke", "tripledot", "4"), 2),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_exit_code_rule(capsys, monkeypatch, tmp_path, scale, argv, expected):
    # 1 if a proof is disproved, else 2 if one is Unknown, else 1 if the
    # report fails, else 0
    if scale is not None:
        monkeypatch.setenv("CRYSREF_BUDGET_SCALE", scale)
    cert = tmp_path / "cert.txt"
    cert.write_text(WRONG_CERTIFICATE)
    code, rep = run_json(capsys, *(str(cert) if a == "CERT" else a for a in argv))
    statuses = set(_proof_statuses(rep))
    rule = (1 if "disproved" in statuses else 2 if "unknown" in statuses
            else 0 if rep.get("pass", True) else 1)
    assert code == rep["exit_code"] == rule == expected


def test_braid_direction_is_gone(capsys):
    code, out, err = run(capsys, "braid", "C_alpha", "2", "--direction", "fwd")
    assert code == 64
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# plain stdout, recorded with the wall_time line masked; classes prints
# the representatives, so this guards the matrix printer end to end
PLAIN_CLASSES_C2 = """\
schema: 1
command: classes
count: 5
classes:
  representative: ([-1 0; 0 1] | [-1 0])
  size_in_window: 12
  linear_class: sign
  residue: [1, 0]

  representative: ([-1 0; 0 1] | [-1*α 0])
  size_in_window: 12
  linear_class: sign
  residue: [0, 1]

  representative: ([-1 0; 0 1] | [-1+1*α 0])
  size_in_window: 8
  linear_class: sign
  residue: [1, 1]

  representative: ([-1 0; 0 1] | [-2 0])
  size_in_window: 18
  linear_class: sign
  residue: [0, 0]

  representative: ([0 -1; -1 0] | [-1 -1])
  size_in_window: 50
  linear_class: transposition
  residue: None

pass: True
wall_time: *
exit_code: 0
"""

PLAIN_RANK_ONE = """\
schema: 1
command: hecke
pass: True
results:
  generator: S0
  target: T1
  pass: True
  unit_factor: -T1^-2 q^2
  difference: None

  generator: S1
  target: T2
  pass: True
  unit_factor: 1
  difference: None

  generator: S2
  target: T3
  pass: True
  unit_factor: 1
  difference: None

  generator: S3
  target: T4
  pass: True
  unit_factor: 1
  difference: None

wall_time: *
exit_code: 0
"""


@pytest.mark.parametrize("argv,expected", [
    (("classes", "C_alpha", "2"), PLAIN_CLASSES_C2),
    (("hecke", "rank-one"), PLAIN_RANK_ONE),
], ids=["classes", "rank-one"])
def test_plain_output_is_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert re.sub(r"(?m)^wall_time: .*$", "wall_time: *", out) == expected
