"""Command line behaviour and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import metsymp
from metsymp.catalog import catalog_load
from metsymp.cli import main
from metsymp.suite import SuiteConfig, run_suite

# phi is NaN wherever x < 0: the report holds non-finite residuals
NAN_PHI_PATH = Path(__file__).parent / "data" / "nan_phi_r3.txt"
# eta is NaN wherever x < 0: the least-squares solves meet non-finite samples
NAN_ETA_PATH = Path(__file__).parent / "data" / "nan_eta_r3.txt"
# the standard Sasakian R^5 of test_dimension_five.py: a six-dimensional symplectization
SASAKIAN_R5_PATH = Path(__file__).parent / "data" / "sasakian_r5.txt"

GOOD_FILE = """
chart x [-1.5, 1.5]
chart y [-1.5, 1.5]
chart z [-1.5, 1.5]
eta x = -y
eta z = 1
g x x = 1/2 + y^2
g x z = -y
g y y = 1/2
g z z = 1
phi x y = 1
phi y x = -1
phi z y = y
"""

# the same structure with its third coordinate named t, the line coordinate's default name
T_COORDINATE_FILE = re.sub(r"\bz\b", "t", GOOD_FILE)

INCOMPATIBLE_FILE = GOOD_FILE.replace("g y y = 1/2", "g y y = 1")

# NaN wherever x < 0
NAN_PHI_FILE = GOOD_FILE.replace("phi x y = 1", "phi x y = sqrt(x)/sqrt(x)")
NAN_METRIC_FILE = GOOD_FILE.replace("g y y = 1/2", "g y y = 1/2*sqrt(x)/sqrt(x)")

BROKEN_FILE = GOOD_FILE.replace("eta x = -y", "eta x = -y +")

# eta = dz: eta ^ (d eta)^n vanishes identically
NOT_CONTACT_FILE = GOOD_FILE.replace("eta x = -y\n", "")


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "darboux-sasakian-r3" in out
    assert "unit-tangent-flat-plane" in out


def test_check_text(capsys):
    assert main(["check", "darboux-sasakian-r3", "--samples", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 16
    assert "[FAIL]" not in out


def test_check_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["check", "unit-tangent-flat-plane", "--samples", "10",
                 "--format", "json", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["entry"] == "unit-tangent-flat-plane"
    assert payload["summary"]["failed"] == 0
    assert {c["id"] for c in payload["checks"]} >= {"compatibility", "ricci_rows"}


def test_check_unknown_entry(capsys):
    assert main(["check", "missing-entry"]) == 2
    assert "unknown entry" in capsys.readouterr().err


def test_check_bad_t_range(capsys):
    assert main(["check", "darboux-sasakian-r3", "--t-range", "1;2"]) == 2


def test_a_negative_t_range_start_is_written_with_an_equals_sign(capsys):
    """argparse reads a separate "-0.5,0.5" as an option; "--t-range=-0.5,0.5"
    is the range, as the option's help says."""
    assert main(["check", "darboux-sasakian-r3", "--samples", "10", "--t-range=-0.5,0.5",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["t_range"] == [-0.5, 0.5]


@pytest.mark.parametrize("command", [["check", "darboux-sasakian-r3"],
                                     ["symplectize", "darboux-sasakian-r3", "--verify"]])
@pytest.mark.parametrize("t_range", ["-inf,inf", "0,inf", "-1e308,1e308"])
def test_a_non_finite_t_range_is_bad_input(capsys, command, t_range):
    assert main(command + [f"--t-range={t_range}"]) == 2
    assert "t_range must have finite ends and width" in capsys.readouterr().err


def test_check_bad_samples(capsys):
    assert main(["check", "darboux-sasakian-r3", "--samples", "0"]) == 2


@pytest.mark.parametrize("command", [["check", "unit-tangent-flat-plane"],
                                     ["fit-kmu", "unit-tangent-flat-plane"],
                                     ["symplectize", "unit-tangent-flat-plane", "--verify"],
                                     ["dhomothety", "unit-tangent-flat-plane", "--a", "2"]])
def test_a_negative_seed_is_bad_input(capsys, command):
    """numpy takes only non-negative seeds: bad input, not a failed check."""
    assert main(command + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "seed must be non-negative, got -1" in err


def test_a_negative_seed_in_a_structure_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(GOOD_FILE.replace("chart z [-1.5, 1.5]\n", "chart z [-1.5, 1.5]\nseed -5\n"))
    for command in ("check", "fit-kmu"):
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "line 5: seed must be non-negative, got -5" in err


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_check_structure_file(tmp_path, capsys):
    """A file runs as an entry with no expected constants; failures exit 1."""
    path = tmp_path / "s.txt"
    path.write_text(GOOD_FILE)
    assert main(["check", str(path), "--samples", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"entry: {path} ") and out.count("[PASS]") == 16
    assert main(["check", str(NAN_PHI_PATH), "--samples", "10", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["failed"] > 0
    by_id = {c["id"]: c for c in payload["checks"]}
    assert by_id["compatibility"]["residual"] == float("inf")


def test_fit_entry(capsys):
    assert main(["fit-kmu", "unit-tangent-flat-plane", "--samples", "15"]) == 0
    out = capsys.readouterr().out
    assert "kappa=0" in out and "mu=0" in out and "index=1" in out


def test_fit_file(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(GOOD_FILE)
    assert main(["fit-kmu", str(path), "--samples", "15"]) == 0
    out = capsys.readouterr().out
    assert "kappa=1" in out and "mu=undefined" in out


def test_fit_refuses_a_residual_at_the_fit_tolerance(monkeypatch, capsys):
    import dataclasses

    import metsymp.suite
    from metsymp.contact import FIT_TOL

    # the command prints the run's (kappa, mu) fit
    real_fit = metsymp.suite.fit_kappa_mu
    monkeypatch.setattr(metsymp.suite, "fit_kappa_mu", lambda *args, **kwargs: dataclasses.replace(
        real_fit(*args, **kwargs), residual=FIT_TOL))
    assert main(["fit-kmu", "unit-tangent-flat-plane", "--samples", "10"]) == 1
    assert "fit residual above 1.0e-06;" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_incompatible_file_fails(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    for text in (INCOMPATIBLE_FILE, NAN_PHI_FILE):
        path.write_text(text)
        assert main(["fit-kmu", str(path), "--samples", "15"]) == 1
        assert "compatibility" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fit_non_finite_metric_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text(NAN_METRIC_FILE)
    assert main(["fit-kmu", str(path)]) == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "fit-kmu"])
def test_a_nowhere_contact_file_is_bad_input(tmp_path, capsys, command):
    path = tmp_path / "dz.txt"
    path.write_text(NOT_CONTACT_FILE)
    assert main([command, str(path), "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eta ^ (d eta)^n vanishes identically" in err


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """``metsymp <args>`` in a fresh interpreter, capturing both streams."""
    src = Path(metsymp.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "metsymp.cli", *args],
                          capture_output=True, text=True, env=env, timeout=300)


# The checks of nan_phi_r3.txt that read phi, h or the J built from phi.
# fundamental_tensor, ricci_rows, symplectization_nullity and
# translation_isomorphism read only gbar = g_t + dt^2, eta_t and xi_t, and pass.
NAN_PHI_FAILING = ["compatibility", "h_tensor", "h_eigenstructure", "rescale_equivariance",
                   "symplectization_build", "curvature_relations", "integrability"]


def test_check_of_the_nan_phi_file_fails_exactly_the_checks_that_read_phi(capsys):
    """The structure fails the compatibility axioms, so its summary reports
    no (kappa, mu) and no index, though the nullity fit passes."""
    assert main(["check", str(NAN_PHI_PATH), "--format", "json", "--seed", "42"]) == 1
    payload = json.loads(capsys.readouterr().out)
    failing = [c for c in payload["checks"] if not c["pass"]]
    assert [c["id"] for c in failing] == NAN_PHI_FAILING
    assert all(c["residual"] == float("inf") for c in failing)
    assert payload["summary"] == {"passed": 9, "failed": 7, "kappa": None, "mu": None,
                                  "index": None}
    assert main(["check", str(NAN_PHI_PATH), "--seed", "42"]) == 1
    summary = capsys.readouterr().out.splitlines()[-1]
    assert "passed=9 failed=7 kappa=none mu=undefined index=undefined" in summary


def test_check_of_a_nan_file_writes_nothing_to_stderr():
    """The NaN defects are in the report as inf; numpy's warnings are not printed."""
    proc = _run_cli("check", str(NAN_PHI_PATH), "--samples", "10")
    assert proc.returncode == 1
    assert "[FAIL]" in proc.stdout
    assert proc.stderr == ""


def test_check_of_a_nan_eta_file_names_samples_and_keeps_lapack_off_stdout():
    """Every least-squares solve rejects a non-finite sample, by name, before
    LAPACK sees it.  LAPACK prints its complaints to file descriptor 1, which
    capsys does not capture, so the command runs in a subprocess."""
    proc = _run_cli("check", str(NAN_ETA_PATH), "--format", "json")
    assert proc.returncode == 1
    assert "DLASCL" not in proc.stdout
    checks = json.loads(proc.stdout)["checks"]
    json_errors = {c["id"]: c["error"] for c in checks if c["error"] is not None}
    proc = _run_cli("check", str(NAN_ETA_PATH))
    assert proc.returncode == 1
    errors = dict(re.findall(r"^\[FAIL\] (\w+) .*\[error: (.*)\]$", proc.stdout, re.M))
    # the checks that read the (kappa, mu) fit, and the unique-metric witness
    assert {"nullity_fit", "h_eigenstructure", "eigenspace_curvature", "rescale_equivariance",
            "index_invariance", "symplectization_build", "symplectization_nullity",
            "integrability"} <= set(errors)
    # the JSON records carry the same errors as the text lines
    assert json_errors == errors
    for check_id, error in json_errors.items():
        assert re.search(r"sample \d+ \[", error), (check_id, error)
        assert "LinAlgError" not in error, (check_id, error)


@pytest.mark.parametrize("command", [["fit-kmu"], ["dhomothety", "--a", "2"]])
def test_fitting_commands_refuse_a_nan_file_without_warnings(command):
    """Both commands stop at the compatibility gate, which prints no numpy warning."""
    proc = _run_cli(command[0], str(NAN_PHI_PATH), *command[1:], "--samples", "10")
    assert proc.returncode == 1
    assert "fails the compatibility axioms (residual inf)" in proc.stdout
    assert proc.stderr == ""


def test_symplectize_verify_refuses_the_nan_phi_file_without_warnings():
    """gbar = g_t + dt^2 does not read phi, but J does: the file is refused
    through symplectization_build, and the curvature relations that read
    phi fail too."""
    proc = _run_cli("symplectize", str(NAN_PHI_PATH), "--verify", "--samples", "10")
    assert proc.returncode == 1
    assert re.findall(r"^\[FAIL\] (\w+)", proc.stdout, re.M) == ["symplectization_build",
                                                              "curvature_relations"]
    assert proc.stderr == ""


def test_symplectize_verify_refuses_the_nan_eta_file_without_warnings():
    """omega = d(exp(2t) eta) and gbar are NaN where eta is: every line
    fails, and numpy's invalid-value warnings are not printed."""
    proc = _run_cli("symplectize", str(NAN_ETA_PATH), "--verify", "--samples", "10")
    assert proc.returncode == 1
    assert re.findall(r"^\[FAIL\] (\w+)", proc.stdout, re.M) == [
        "closed", "nondegenerate", "symplectization_build", "liouville",
        "fundamental_tensor", "curvature_relations", "ricci_rows"]
    assert proc.stderr == ""


def test_fit_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text(BROKEN_FILE)
    assert main(["fit-kmu", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 5" in err


@pytest.mark.parametrize("constant", ["exp(1000)", "10^400"])
def test_fit_a_constant_out_of_range_is_a_parse_error(tmp_path, capsys, constant):
    """Folding the constant overflows: exit 2 naming the line, not a traceback."""
    text = (NAN_PHI_PATH.read_text(encoding="utf-8")
            .replace("g z z = 1\n", f"g z z = 1 + 0*{constant}\n")
            .replace("phi x y = sqrt(x)/sqrt(x)", "phi x y = 1"))
    path = tmp_path / "overflow.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["fit-kmu", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 12, column ") and "math range error" in err


def test_fit_an_overflowing_literal_is_a_parse_error(tmp_path, capsys):
    """``1e400*0`` would fold to NaN and fail the compatibility gate (exit 1);
    the literal itself is the error, so the exit is 2 and names the line."""
    text = (NAN_PHI_PATH.read_text(encoding="utf-8")
            .replace("eta x = -y\n", "eta x = -y + 1e400*0\n")
            .replace("phi x y = sqrt(x)/sqrt(x)", "phi x y = 1"))
    path = tmp_path / "overflow.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["fit-kmu", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 7, column 14: numeric literal '1e400' overflows")
    assert "Traceback" not in err


def test_fit_missing_path(capsys):
    assert main(["fit-kmu", "no-such-entry-or-file"]) == 2


def test_symplectize(capsys):
    assert main(["symplectize", "darboux-sasakian-r3"]) == 0
    out = capsys.readouterr().out
    assert "product chart" in out


def test_symplectize_verify(capsys):
    assert main(["symplectize", "unit-tangent-flat-plane", "--verify",
                 "--samples", "15"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7


def test_symplectize_verify_prints_the_suite_residuals(capsys):
    """The symplectization lines of --verify are the suite's records for the same config."""
    assert main(["symplectize", "unit-tangent-flat-plane", "--verify", "--samples", "12",
                 "--seed", "5", "--t-range=-0.5,0.8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = run_suite(catalog_load("unit-tangent-flat-plane"),
                       SuiteConfig(samples=12, seed=5, t_range=(-0.5, 0.8)))
    ids = ("symplectization_build", "liouville", "fundamental_tensor",
           "curvature_relations", "ricci_rows")
    expected = [f"[PASS] {c.id:<24} residual={c.residual:.3e} threshold={c.threshold:.1e}"
                for c in report.checks if c.id in ids]
    assert len(expected) == 5
    assert lines[-5:] == expected


def test_symplectize_structure_file(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(GOOD_FILE)
    assert main(["symplectize", str(path)]) == 0
    assert "product chart (x, y, z, t)" in capsys.readouterr().out


def test_a_base_coordinate_named_t_moves_the_line_coordinate(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text(T_COORDINATE_FILE)
    assert main(["check", str(path), "--samples", "12"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 16
    assert main(["symplectize", str(path), "--verify", "--samples", "12"]) == 0
    out = capsys.readouterr().out
    assert "product chart (x, y, t, t1), t1 in [-1.0, 1.0]" in out
    assert out.count("[PASS]") == 7


def test_symplectize_verify_in_dimension_six(capsys):
    assert main(["symplectize", str(SASAKIAN_R5_PATH), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "product chart (x1, x2, y1, y2, z, t)" in out
    assert out.count("[PASS]") == 7


def test_dhomothety_verify(capsys):
    assert main(["dhomothety", "unit-tangent-flat-plane", "--a", "2",
                 "--verify", "--samples", "15"]) == 0
    out = capsys.readouterr().out
    assert "(0.75, 1)" in out
    assert "[PASS]" in out


def test_dhomothety_bad_factor(capsys):
    assert main(["dhomothety", "unit-tangent-flat-plane", "--a", "-1"]) == 2


@pytest.mark.parametrize("factor", ["nan", "inf"])
def test_dhomothety_factor_must_be_finite(capsys, factor):
    assert main(["dhomothety", "unit-tangent-flat-plane", "--a", factor, "--verify"]) == 2
    err = capsys.readouterr().err
    assert "--a must be finite and positive" in err and factor in err


def test_dhomothety_verify_fails_when_mu_is_defined_on_one_side_only(monkeypatch, capsys):
    import dataclasses

    import metsymp.suite

    import numpy as np

    records, fits = [], []
    real_records, real_fit = metsymp.suite.structure_records, metsymp.suite.kmu_fit

    def family(structures, points):
        records.extend(real_records(structures, points))
        return records[-len(structures):]

    def fit(data, eta, xi, h):
        rep = real_fit(data, eta, xi, h)
        fits.append(rep)
        # the Sasakian model has no mu; give the refit of the rescale's record one
        return dataclasses.replace(rep, mu=0.5) if np.shares_memory(xi, records[-1].xi) else rep

    # the run's first record is the structure's, its second the rescaled
    # structure's, both from one family walk; the refit reads the rows of
    # that record, the command prints the refit and the rescale law reads it
    monkeypatch.setattr(metsymp.suite, "structure_records", family)
    monkeypatch.setattr(metsymp.suite, "kmu_fit", fit)
    assert main(["dhomothety", "darboux-sasakian-r3", "--a", "2",
                 "--verify", "--samples", "10"]) == 1
    out = capsys.readouterr().out
    assert len(records) == 2 and len(fits) == 1
    assert ", 0.5), law predicts (1, undefined)" in out
    assert "[FAIL] rescale verification residual=inf" in out


def test_dhomothety_verify_evaluates_and_fits_the_rescaled_structure_once(monkeypatch, capsys):
    """The printed refit and the rescale law read one record of D_a(S) on the
    run's points: each of its fields is walked once (xi at order 1, with
    phi, for h), and D_a(S) is fitted once.  (phi is S's own tree, shared by
    D_a(S), so it is not counted.)"""
    from metsymp import contact, curvature

    from inputs import evaluate_calls, field_walks

    made, walked = [], []
    real_rescale, real_walk = contact.d_homothety, curvature.christoffel_batch

    def rescale(S, a):
        made.append(real_rescale(S, a))
        return made[-1]

    def walk(g, points):
        walked.append(g)
        return real_walk(g, points)

    for module in [m for name, m in sys.modules.items() if name.startswith("metsymp")]:
        for name, real, spy in [("d_homothety", real_rescale, rescale),
                                ("christoffel_batch", real_walk, walk)]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    walks, calls = field_walks(monkeypatch), evaluate_calls(monkeypatch)
    assert main(["dhomothety", "unit-tangent-flat-plane", "--a", "2",
                 "--verify", "--samples", "15"]) == 0
    assert "[PASS] rescale verification" in capsys.readouterr().out
    evaluated = [(field, order) for field, order, _ in walks]
    # S and D_a(S) in one family walk per order, the fit's three walks of S,
    # and the refit's connection
    assert sorted(calls) == [(15, 0)] * 2 + [(15, 1)] * 2 + [(15, 2)] * 2
    (S2,) = made
    assert [[order for e, order in evaluated if e is f] for f in (S2.eta, S2.xi)] == [[0], [1]]
    # g once for the record, once as jets for the refit's connection
    assert sorted(order for e, order in evaluated if e is S2.g) == [0, 2]
    assert sum(g is S2.g for g in walked) == 1


@pytest.mark.parametrize("argv", [["fit-kmu", "unit-tangent-flat-plane"],
                                  ["symplectize", "unit-tangent-flat-plane", "--verify"]])
def test_a_command_that_reads_no_rescale_builds_none(monkeypatch, argv):
    from metsymp import contact

    from inputs import spy_everywhere

    made = []
    real = contact.d_homothety
    spy_everywhere(monkeypatch, real, lambda S, a: made.append(a) or real(S, a))
    assert main(argv + ["--samples", "10"]) == 0
    assert made == []


def test_an_overflowing_factor_is_bad_input_with_one_error_line():
    """a = 1e300 overflows the rescaled metric: exit 2, nothing on stdout and
    one line on stderr, with no numpy warning before it.  The line names
    the factor, so it does not read as a fault of the input structure."""
    proc = _run_cli("dhomothety", "darboux-sasakian-r3", "--a", "1e300", "--samples", "10")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(r"error: rescale by a=1e\+300: [^\n]*not finite[^\n]*\n",
                        proc.stderr), proc.stderr


@pytest.mark.parametrize("factor", ["1e300", "1e-200"])
def test_a_factor_that_breaks_the_rescaled_metric_prints_only_its_error_line(factor):
    """On the flat bundle a = 1e300 overflows the rescaled metric and
    a = 1e-200 divides by zero on the way to a singular one: exit 2,
    nothing on stdout and one "error: " line on stderr, with no numpy
    overflow or divide-by-zero warning before it."""
    proc = _run_cli("dhomothety", "unit-tangent-flat-plane", "--a", factor, "--samples", "10")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


def test_an_overflowing_t_range_fails_without_warnings():
    """exp(2t) overflows on the slices near t = 400: checks fail with inf
    residuals, and numpy's overflow warnings are not printed."""
    proc = _run_cli("check", "darboux-sasakian-r3", "--samples", "10", "--t-range=0,400")
    assert proc.returncode == 1
    assert "[FAIL]" in proc.stdout
    assert proc.stderr == ""


@pytest.mark.parametrize("case", ["directory", "not utf-8", "out is a directory"])
def test_a_path_that_cannot_be_read_or_written_is_bad_input(tmp_path, capsys, case):
    """Exit 2 with the reason on stderr and nothing on stdout, not a traceback."""
    if case == "directory":
        argv, reason = ["check", str(NAN_PHI_PATH.parent)], "Is a directory"
    elif case == "not utf-8":
        path = tmp_path / "latin1.txt"
        path.write_bytes(GOOD_FILE.replace("chart z", "# caf\xe9\nchart z").encode("latin-1"))
        argv, reason = ["check", str(path)], "line 4: not UTF-8 text"
    else:
        argv = ["check", "darboux-sasakian-r3", "--samples", "5", "--out", str(tmp_path)]
        reason = "Is a directory"
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and reason in err
