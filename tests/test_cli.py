"""Command-line driver: config parsing, exit codes, output stability."""

import contextlib
import errno
import functools
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from eitfwm import (cli, entanglement, langevin, propagation, sweeps,
                    verification)
from eitfwm.params import derive, reference_params
from eitfwm.steady_state import solve


# --- config parsing -------------------------------------------------------

def test_empty_config_is_reference_point():
    rc = cli.parse_config("")
    assert rc.params == reference_params()
    assert rc.model.coupling == "parametric"
    assert rc.model.sideband == "mirrored"
    assert rc.model.spinwave_definition == "endpoint"
    assert rc.model.two_pair is False
    assert (rc.omega_min, rc.omega_max, rc.n_points) == (-3000.0, 1000.0,
                                                         2001)


def test_config_overrides_and_comments():
    text = """
    # full-line comment
    gamma0 = 0.5
    delta1 = -800   # inline comment
    sideband = same
    two_pair = yes
    n_points = 11
    """
    rc = cli.parse_config(text)
    assert rc.params.gamma0 == 0.5
    assert rc.params.delta1 == -800.0
    assert rc.model.sideband == "same"
    assert rc.model.two_pair is True
    assert rc.n_points == 11
    # untouched fields keep the reference values
    assert rc.params.omega_p == reference_params().omega_p


@pytest.mark.parametrize("text,fragment", [
    ("bogus = 1", "line 1: unknown key 'bogus'"),
    ("\n\ngamma0 = abc", "line 3: gamma0 expects a number"),
    ("n_points = 1", "n_points must be at least 2"),
    ("two_pair = maybe", "two_pair expects true/false"),
    ("coupling = resonant", "coupling"),
    ("gamma0", "line 1"),
])
def test_config_errors_carry_line_numbers(text, fragment):
    with pytest.raises(cli.ConfigError, match=fragment):
        cli.parse_config(text)


# --- exit codes -----------------------------------------------------------

def test_steady_runs_clean(tmp_path, capsys):
    out = tmp_path / "steady.json"
    code = cli.main(["--experiment", "steady", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) >= {"version", "params", "config", "rho_re",
                            "rho_im", "populations"}
    assert payload["populations"][2] == pytest.approx(0.0158730017,
                                                      rel=1e-6)


def test_noise_dump(tmp_path):
    out = tmp_path / "noise.json"
    assert cli.main(["--experiment", "noise", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["channels"]) == 6
    assert len(payload["matrix_re"]) == 6
    assert len(payload["matrix_re"][0]) == 6


#: sha256 of the default steady and noise outputs, which print the
#: set-up layer's state and diffusion table; no figure digest pins them
SET_UP_DIGESTS = {
    "steady": ("d341c177e582d54b2182881ce6832798"
               "894f15b4c3da8ab5481cf185b1aa975c"),
    "noise": ("379c820ac058b9c1fc6abd1e1e0bb89e"
              "96463f3745b7ce0b92aa2340d74b3e94"),
}


@pytest.mark.parametrize("experiment", sorted(SET_UP_DIGESTS))
def test_set_up_outputs_are_byte_stable(tmp_path, experiment):
    out = tmp_path / f"{experiment}.json"
    assert cli.main(["--experiment", experiment, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        SET_UP_DIGESTS[experiment]


@pytest.mark.parametrize("line", ["gamma0 = -1", "delta1 = nan"],
                         ids=["negative_gamma0", "nan_delta1"])
def test_bad_config_line_exits_1(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = cli.main(["--experiment", "steady", "--config", str(cfg)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = cli.main(["--experiment", "steady",
                     "--config", str(tmp_path / "absent.cfg")])
    assert code == 1


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"gamma0 = 0.1\n\xff\n")
    out = tmp_path / "out.json"
    code = cli.main(["--experiment", "steady", "--config", str(cfg),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("eitfwm: error: cannot read config: ")
    assert "can't decode byte 0xff" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["steady", "fig4", "verify"])
def test_unwritable_output_exits_1(tmp_path, capsys, monkeypatch,
                                   experiment):
    # the directory of the output file does not exist; verify reports
    # no check, so that it fails before streaming a report
    monkeypatch.setattr(verification, "run_all", lambda p: [])
    out = tmp_path / "absent" / "out"
    code = cli.main(["--experiment", experiment, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("eitfwm: error: cannot write output: ")
    assert str(out) in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.parent.exists()


def test_failed_write_leaves_no_partial_output(tmp_path, capsys,
                                               monkeypatch):
    real_open = open

    class DiskFull:
        """A file that takes a few characters, then runs out of space."""

        def __init__(self, path, mode):
            self.fh = real_open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sweeps, "open", DiskFull, raising=False)
    out = tmp_path / "steady.json"
    assert cli.main(["--experiment", "steady", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("eitfwm: error: cannot write output: [Errno 28] "
                   f"{os.strerror(errno.ENOSPC)}\n")
    assert not out.exists()


def test_unknown_flag_exits_1(capsys):
    assert cli.main(["--experiment", "steady", "--frobnicate"]) == 1


def test_unknown_experiment_exits_1(capsys):
    assert cli.main(["--experiment", "fig9"]) == 1


def test_threads_must_be_positive(capsys):
    code = cli.main(["--experiment", "steady", "--threads", "0"])
    assert code == 1


@pytest.mark.parametrize("lines,failure", [
    ("sideband = same", "transfer gain 2.487e+07 exceeds ceiling 1e+06"),
    ("coupling_scale = 1e300", "drift matrix is not finite"),
    ("sideband = same\ncoupling_scale = 300\nlength = 1",
     "transfer matrix overflowed"),
], ids=["gain", "infinite_coupling", "overflow"])
def test_overflow_exits_2_and_names_frequency(tmp_path, capsys, lines,
                                              failure):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(lines + "\n"
                   "omega_min = -2150\n"
                   "omega_max = -2050\n"
                   "n_points = 3\n")
    # overflow is detected and reported, never left to float warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--experiment", "spectrum", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("eitfwm: numerical failure: "
                   f"{failure} at omega = -2150 MHz\n")


@pytest.mark.parametrize("experiment,lines,fragment", [
    ("spectrum", "n_points = 100000000", "n_points = 100000000"),
    ("fig2", "gamma1 = 1e-6\ngamma2 = 1e-6",
     "refinement patch around -1000 MHz needs 1.8e+08 points"),
    # 72001 points a patch: the second one crosses the cap
    ("fig3", "gamma1 = 0.0025\ngamma2 = 0.0025",
     "refinement patch around 1000 MHz needs 7.2e+04 points"),
    # a third of so narrow a linewidth underflows to a step of 0
    ("fig2", "gamma1 = 5e-324\ngamma2 = 5e-324",
     "refinement patch around -1000 MHz needs inf points at a step of 0 "
     "MHz"),
], ids=["n_points", "patch", "second_patch", "step_underflows"])
def test_oversized_grid_exits_1_before_allocating(tmp_path, capsys,
                                                  monkeypatch, experiment,
                                                  lines, fragment):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(sweeps.np, "linspace", no_grid)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(lines + "\n")
    assert cli.main(["--experiment", experiment, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("eitfwm: error:")
    assert fragment in err
    assert f"grid cap of {sweeps.MAX_GRID_POINTS} points" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("experiment,line,message", [
    ("fig2", "delta1 = 5000",
     "delta1 = 5000 MHz: its resonance window (4700, 5300) holds no point "
     "of the grid, which spans (-3000, 1000) MHz"),
    ("fig3", "delta2 = 5000",
     "delta2 = 5000 MHz: its resonance window (4700, 5300) holds no point "
     "of the grid, which spans (-3000, 3000) MHz"),
    ("fig2", "delta1 = 1e300",
     "delta1 = 1e+300 MHz: its resonance window (1e+300, 1e+300) holds no "
     "point of the grid, which spans (-3000, 1000) MHz"),
], ids=["fig2", "fig3", "fig2_huge"])
def test_detuning_outside_the_figure_grid_exits_1_before_sweeping(
        tmp_path, capsys, monkeypatch, experiment, line, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(sweeps, "sweep_omega", no_sweep)
    cfg = tmp_path / "far.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out.csv"
    code = cli.main(["--experiment", experiment, "--config", str(cfg),
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"eitfwm: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment,line,message", [
    # the drift norm times the cell length passes float range, so no
    # stage count exists there
    ("fig2", "length = 1e300",
     "drift norm times length 1.814e+305 is past the range of the "
     "interval doubling at omega = -1030 MHz"),
    ("fig5", "length = 1e300",
     "drift norm times length 1.799e+306 is past the range of the "
     "interval doubling at omega = -1000 MHz, alpha = 0"),
    # with the coupling off the drift vanishes at omega = 0, so the whole
    # cell is one Taylor step, whose cube passes float range
    ("fig4", "length = 1e300\ncoupling_scale = 0",
     "extended covariance is not finite at omega = 0 MHz, gamma0 = 0.01"),
    # the couplings g^2 N pass float range
    ("fig2", "wavelength = 1e300",
     "drift matrix is not finite at omega = -3000 MHz"),
    ("fig4", "wavelength = 1e300",
     "drift matrix is not finite at omega = 0 MHz, gamma0 = 0.01"),
    # the level-3 decay gamma1 + gamma2 passes float range
    ("steady", "gamma1 = 1.7e308\ngamma2 = 1.7e308",
     "Bloch drift is not finite"),
    ("fig4", "gamma1 = 1.7e308\ngamma2 = 1.7e308",
     "Bloch drift is not finite, gamma0 = 0.01"),
    # the self-checks name the frequency of their first failing matrix
    ("verify", "length = 1e300",
     "transfer matrix overflowed at omega = -2000 MHz"),
    ("verify", "coupling_scale = 1e308",
     "drift matrix is not finite at omega = -2000 MHz"),
], ids=["length_fig2", "length_fig5", "length_uncoupled_fig4",
        "wavelength_fig2", "wavelength_fig4", "decay_steady", "decay_fig4",
        "length_verify", "coupling_verify"])
def test_huge_finite_input_exits_2(tmp_path, capsys, experiment, line,
                                   message):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--experiment", experiment, "--config", str(cfg),
                         "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"eitfwm: numerical failure: {message}\n")
    assert not out.exists()


def test_huge_beam_radius_runs(tmp_path):
    # radius ** 2 passes float range: the atom number is inf, which the
    # endpoint witnesses never use
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("radius = 1e300\n"
                   "omega_min = -1\nomega_max = 1\nn_points = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--experiment", "spectrum", "--config", str(cfg),
                         "--out", str(tmp_path / "out.csv")])
    assert code == 0


def test_degenerate_drives_exit_2(tmp_path, capsys):
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("omega_p = 0\nomega_c = 0\n")
    assert cli.main(["--experiment", "steady", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eitfwm: numerical failure:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("experiment,where", [
    ("fig4", "gamma0 = 0.01"),
    ("fig5", "alpha = 0"),
])
def test_degenerate_set_up_in_a_parameter_sweep_names_the_swept_value(
        tmp_path, capsys, experiment, where):
    # with both drives off the first point of the sweep has no unique
    # steady state; the failure names that point's value of the axis
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("omega_p = 0\nomega_c = 0\n")
    out = tmp_path / "out"
    code = cli.main(["--experiment", experiment, "--config", str(cfg),
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "eitfwm: numerical failure: stationary subspace has dimension 2, "
        f"{where}\n")
    assert not out.exists()


@pytest.mark.parametrize("experiment,lines", [
    ("fig2", ""),
    ("calibrate", ""),
    ("spectrum", "omega_min = -1\nomega_max = 1\nn_points = 3\n"),
    ("spectrum", "omega_min = -1\nomega_max = 1\nn_points = 3\n"
                 "two_pair = true\nspinwave_definition = z-averaged\n"),
], ids=["fig2", "calibrate", "spectrum", "two_pair_z_averaged"])
def test_vanishing_coherence_response_exits_2(tmp_path, capsys, experiment,
                                              lines):
    # without dephasing the coherence response gamma0 + i*omega is zero
    # at omega = 0, a point of every one of these grids
    cfg = tmp_path / "undephased.cfg"
    cfg.write_text("gamma0 = 0\n" + lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--experiment", experiment, "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "eitfwm: numerical failure: coherence response gamma0 + i*omega "
        "vanishes at omega = 0 MHz\n")


@pytest.mark.parametrize("experiment,lines,where", [
    ("spectrum", "omega_min = -1\nomega_max = 1\nn_points = 3\n",
     "at omega = 0 MHz"),
    ("fig5", "delta1 = 0\n", "at omega = 0 MHz, alpha = 0"),
    ("calibrate", "", "at omega = 0 MHz"),
], ids=["spectrum", "alpha_sweep", "calibrate"])
def test_non_finite_extended_covariance_exits_2(tmp_path, capsys,
                                                experiment, lines, where):
    # a coherence response of 1e-300 at omega = 0 puts the S rows beyond
    # float range: the run fails there instead of writing nan witnesses;
    # calibrate's coupling fit reads the fields alone, so its spin-wave
    # samples fail
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("gamma0 = 1e-300\n" + lines)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--experiment", experiment, "--config", str(cfg),
                         "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "eitfwm: numerical failure: extended covariance is not finite "
        f"{where}\n")
    assert not out.exists()


_FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300"]),
    st.floats(-1e6, 1e6).map(repr))


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.sampled_from(cli.FIELDS), _FUZZ_VALUES,
                       min_size=1, max_size=3))
def test_any_numeric_config_ends_in_an_exit_code(tmp_path_factory, config):
    # noise runs the steady state and the diffusion table only
    cfg = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    code = cli.main(["--experiment", "noise", "--config", str(cfg),
                     "--out", str(cfg.with_suffix(".json"))])
    assert code in (0, 1, 2)


@settings(deadline=None, max_examples=40)
@given(st.dictionaries(st.sampled_from(cli.FIELDS), _FUZZ_VALUES,
                       min_size=1, max_size=3))
def test_any_numeric_config_ends_a_parameter_sweep_in_an_exit_code(
        tmp_path_factory, config):
    # fig4 solves the steady state and the diffusion table at each of
    # its 101 dephasing rates, then propagates every point
    cfg = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--experiment", "fig4", "--config", str(cfg),
                         "--out", str(cfg.with_suffix(".csv"))])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(deadline=None, max_examples=60)
@given(st.dictionaries(st.sampled_from(cli.FIELDS), _FUZZ_VALUES,
                       min_size=1, max_size=3))
@example({"gamma0": "0"})
def test_any_numeric_config_ends_a_spectrum_through_zero_in_an_exit_code(
        tmp_path_factory, config):
    # a 3-point grid through omega = 0, where the coherence response
    # gamma0 + i*omega vanishes when there is no dephasing
    cfg = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items())
                   + "omega_min = -1\nomega_max = 1\nn_points = 3\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--experiment", "spectrum", "--config", str(cfg),
                         "--out", str(cfg.with_suffix(".csv"))])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("lines,fragment", [
    ("omega_min = 10\nomega_max = -10\n",
     "omega_min must be below omega_max"),
    ("omega_min = -inf\n", "got omega_min = -inf, omega_max = 1000"),
    ("omega_max = inf\n", "got omega_min = -3000, omega_max = inf"),
    # a finite window whose span overflows
    ("omega_min = -1e308\nomega_max = 1e308\n",
     "got omega_min = -1e+308, omega_max = 1e+308"),
], ids=["inverted", "minus_inf", "plus_inf", "span_overflow"])
def test_inverted_window_rejected(tmp_path, capsys, lines, fragment):
    cfg = tmp_path / "win.cfg"
    cfg.write_text(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--experiment", "spectrum", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("eitfwm: error: ")
    assert fragment in err
    assert err.count("\n") == 1


# --- spectrum output ------------------------------------------------------

SMALL_SPECTRUM = "omega_min = -400\nomega_max = 0\nn_points = 9\n"


def test_spectrum_csv_is_byte_stable(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPECTRUM)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert cli.main(["--experiment", "spectrum", "--config", str(cfg),
                         "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "# params_hash = " in text
    assert "V_a1_b1" in text


def test_spectrum_json_echoes_config(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPECTRUM + "gamma0 = 0.2\n")
    out = tmp_path / "spec.json"
    assert cli.main(["--experiment", "spectrum", "--config", str(cfg),
                     "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config_echo"]["gamma0"] == "0.20000000000000001"
    assert payload["config_echo"]["sideband"] == "mirrored"
    assert payload["params"]["gamma0"] == 0.2
    assert payload["curves"]["omega"][0] == -400.0
    assert len(payload["dips"]) >= 1


@pytest.mark.parametrize("args", [
    ["--experiment", "spectrum"],
    ["--experiment", "spectrum", "--format", "json"],
    ["--experiment", "steady"],
    ["--experiment", "noise"],
    ["--experiment", "calibrate"],
], ids=["spectrum_csv", "spectrum_json", "steady", "noise", "calibrate"])
def test_spectrum_stdout_matches_file(tmp_path, capsys, args):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPECTRUM)
    out = tmp_path / "out"
    assert cli.main(args + ["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(args + ["--config", str(cfg)]) == 0
    streamed = capsys.readouterr().out
    assert streamed == out.read_text()


def test_uncoupled_medium_spectrum_is_flat_vacuum(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(SMALL_SPECTRUM + "coupling_scale = 0\n")
    out = tmp_path / "flat.csv"
    assert cli.main(["--experiment", "spectrum", "--config", str(cfg),
                     "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("omega")]
    assert len(rows) == 9
    for row in rows:
        v = float(row.split(",")[1])
        assert v == pytest.approx(4.0, abs=1e-9)


def test_threads_do_not_change_bytes(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SPECTRUM)
    serial, threaded = tmp_path / "s.csv", tmp_path / "t.csv"
    assert cli.main(["--experiment", "spectrum", "--config", str(cfg),
                     "--out", str(serial)]) == 0
    assert cli.main(["--experiment", "spectrum", "--config", str(cfg),
                     "--threads", "4", "--out", str(threaded)]) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def _env_with_this_source() -> dict:
    """The environment of a subprocess that imports this eitfwm."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


_HEAP_PROBE = """
import resource, sys
from eitfwm import cli
assert cli.main(sys.argv[1:]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting is glibc's mallopt")
def test_repeated_run_reuses_the_heap_it_grew(tmp_path):
    # by default glibc trims the heap after each sweep block frees its
    # arrays, and the next block faults the same pages back in (about
    # 2,800 minor faults on this 201-point grid); the command line keeps
    # them, so a second run finds its working memory resident.  A fresh
    # process, because glibc's defaults move with what the process
    # allocated and freed before
    cfg = tmp_path / "zavg.cfg"
    cfg.write_text("two_pair = true\nspinwave_definition = z-averaged\n"
                   "n_points = 201\n")
    run = subprocess.run(
        [sys.executable, "-c", _HEAP_PROBE, "--experiment", "spectrum",
         "--config", str(cfg), "--out", str(tmp_path / "zavg.csv")],
        env=_env_with_this_source(), capture_output=True, text=True,
        timeout=300, check=True)
    assert int(run.stdout) < 100


def _no_libc(name):
    raise OSError("cannot load the C library")


def _no_mallopt(name):
    # a C library without mallopt: its attribute lookup raises
    return object()


@pytest.mark.parametrize("cdll", [_no_libc, _no_mallopt],
                         ids=["no_library", "no_mallopt"])
def test_a_run_without_mallopt_writes_the_same_bytes(tmp_path, monkeypatch,
                                                     cdll):
    # keep_freed_heap leaves the allocator alone when the C library or
    # its mallopt is missing; the run is the same
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_points = 11\n")
    args = ["--experiment", "spectrum", "--config", str(cfg), "--out"]
    assert cli.main(args + [str(tmp_path / "set.csv")]) == 0
    loaded = []

    def load(name):
        loaded.append(name)
        return cdll(name)

    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    assert cli.main(args + [str(tmp_path / "unset.csv")]) == 0
    assert loaded == [None]
    assert (tmp_path / "unset.csv").read_bytes() \
        == (tmp_path / "set.csv").read_bytes()


# --- calibration ----------------------------------------------------------

def test_calibrate_artifact(tmp_path):
    out = tmp_path / "cal.json"
    assert cli.main(["--experiment", "calibrate", "--out", str(out)]) == 0
    art = json.loads(out.read_text())
    assert set(art) >= {"version", "config", "coupling_scale",
                        "spinwave_scale", "targets", "achieved", "signs",
                        "target_met", "spinwave_fit", "params_hash"}
    # the pair anchor is reachable, the atom-field anchor is not; the
    # artifact must say so rather than pretend
    assert art["target_met"]["V_a1_b1"] is True
    assert art["target_met"]["V_a1_S"] is False
    assert art["achieved"]["V_a1_b1"] == pytest.approx(2.0, rel=0.15)
    assert art["coupling_scale"] == pytest.approx(1.6462819213179591,
                                                  rel=1e-6)
    assert art["spinwave_scale"] > 0.0
    assert set(art["spinwave_fit"]) == {"primary", "alternate"}


@pytest.mark.parametrize("line,coupling_scale,spinwave_scale,digest", [
    ("coupling = as_printed", "0x1.99999a6819d59p-3",
     0.00025228778768242717, "d96048788a93"),
    ("sideband = same", "0x1.a572bb640e829p+0", 0.007228895687294551,
     "b103c9323b9b"),
    ("spinwave_definition = z-averaged", "0x1.a572bb640e829p+0",
     0.009394541594993614, "2132a025ed68"),
], ids=["as_printed", "same", "z_averaged"])
def test_calibrate_artifact_under_each_switch(tmp_path, line, coupling_scale,
                                              spinwave_scale, digest):
    # the coupling fit runs the field chain at the configured coupling and
    # sideband, the spin-wave fit the configured definition
    cfg = tmp_path / "switch.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "cal.json"
    assert cli.main(["--experiment", "calibrate", "--config", str(cfg),
                     "--out", str(out)]) == 0
    art = json.loads(out.read_text())
    assert art["coupling_scale"].hex() == coupling_scale
    assert art["spinwave_scale"].hex() == spinwave_scale.hex()
    assert art["params_hash"] == digest


def _evaluations(minimize, func, a, b, xatol):
    """The x that ``minimize`` returns for ``func`` on [a, b] and every x
    it evaluates, in order, as ``float.hex`` strings.  ``func`` sees each
    x as a Python float, so both minimizers get the same values back."""
    seen = []

    def recorded(x):
        seen.append(float(x).hex())
        return func(float(x))

    return float(minimize(recorded, a, b, xatol)).hex(), seen


def _scipy_minimum(func, a, b, xatol):
    return scipy.optimize.minimize_scalar(
        func, bounds=(a, b), method="bounded", options={"xatol": xatol}).x


#: smooth objectives of a shape parameter c, a centre x0 and a level t
_OBJECTIVES = {
    "quadratic": lambda c, x0, t: lambda x: c * (x - x0) ** 2 + t,
    "quartic": lambda c, x0, t: lambda x: c * (x - x0) ** 4 - t,
    # a distance to a target, like calibrate's |V_a1_b1 - 2|
    "abs_target": lambda c, x0, t: lambda x: abs(math.exp(c * (x - x0)) - t),
    # flat within t of x0: equal values reject every parabolic step there
    "flat": lambda c, x0, t: lambda x: c * max(abs(x - x0) - t, 0.0) ** 2,
}


@settings(deadline=None, max_examples=300)
@given(shape=st.sampled_from(sorted(_OBJECTIVES)),
       a=st.floats(-20.0, 20.0), width=st.floats(0.0, 40.0),
       x0=st.floats(-30.0, 30.0), c=st.floats(0.1, 3.0),
       t=st.floats(0.1, 10.0),
       xatol=st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e))
# no tolerance around a minimum at zero: the fit stops at 500 evaluations
@example(shape="quadratic", a=-1.0, width=2.0, x0=0.0, c=1.0, t=0.0,
         xatol=0.0)
def test_bounded_minimum_is_scipys_step_for_step(shape, a, width, x0, c, t,
                                                 xatol):
    func = _OBJECTIVES[shape](c, x0, t)
    b = a + width
    assert _evaluations(cli._bounded_minimum, func, a, b, xatol) == \
        _evaluations(_scipy_minimum, func, a, b, xatol)


def test_calibrate_fit_is_scipys_step_for_step(monkeypatch):
    port = cli._bounded_minimum
    runs = []

    def both(func, a, b, xatol):
        runs.append([_evaluations(minimize, func, a, b, xatol)
                     for minimize in (port, _scipy_minimum)])
        return port(func, a, b, xatol)

    monkeypatch.setattr(cli, "_bounded_minimum", both)
    art = cli.calibrate(cli.RunConfig(params=reference_params()))
    ((ours, scipys),) = runs
    assert ours == scipys
    assert art["coupling_scale"].hex() == (1.6462819213179591).hex()


@pytest.mark.kernel_bits
def test_each_fit_step_has_the_bits_of_its_row_in_a_stack(monkeypatch):
    # every step of the coupling fit runs the field chain on a stack of
    # one; at every scale the default fit evaluates, under both couplings
    # and both sidebands, that stack gets exactly the bits of its row in
    # one stack of all the steps, whose stage counts differ
    port, scales = cli._bounded_minimum, []

    def recorded(func, a, b, xatol):
        def step(x):
            scales.append(math.exp(x))
            return func(x)
        return port(step, a, b, xatol)

    monkeypatch.setattr(cli, "_bounded_minimum", recorded)
    p = reference_params()
    cli.calibrate(cli.RunConfig(params=p))
    # 27 distinct scales on OpenBLAS's SkylakeX zgemm, 29 on Haswell's
    assert len(set(scales)) == len(scales) >= 20
    states, tables = solve([p])
    for coupling in propagation.COUPLINGS:
        for sideband in propagation.SIDEBANDS:
            controls = [(p.with_(coupling_scale=s), states, tables, [0.0],
                         coupling) for s in scales]
            stack = entanglement.field_quadratures(controls, p.length,
                                                   sideband)
            for control, row in zip(controls, stack):
                (alone,) = entanglement.field_quadratures(
                    [control], p.length, sideband)
                assert alone.tobytes() == row.tobytes()


@pytest.mark.parametrize("switches,rel", [
    ({}, 0.0),
    ({"coupling": "as_printed"}, 0.0),
    ({"sideband": "same"}, 0.0),
    # the z-averaged state doubles its own larger drift, whose field
    # block agrees with the field chain's to roundoff
    ({"spinwave_definition": "z-averaged"}, 1e-9),
], ids=["default", "as_printed", "same", "z_averaged"])
def test_calibrate_fits_the_coupling_the_extended_chain_fits(switches, rel):
    # the coupling fit reads V(a1, b1) off the field chain: the scale is
    # the one a fit on the extended covariance finds at the same switches
    p, model = reference_params(), sweeps.SweepConfig(**switches)
    states, tables = solve([p])
    modes = model.modes()

    def extended(q):
        set_up = entanglement.witness_set_up([q], states, tables, modes,
                                             [derive(q)])
        return entanglement.extended_quadratures(
            set_up, [0.0], q.length, model.coupling, model.sideband,
            model.spinwave_definition)

    eta = cli._fit_coupling(p, extended, entanglement.extended_labels(modes),
                            cli.CALIBRATION_TARGETS["V_a1_b1"])
    art = cli.calibrate(cli.RunConfig(params=p, model=model))
    assert art["coupling_scale"] == pytest.approx(eta, rel=rel, abs=0.0)


def test_calibrate_solves_the_set_up_once(monkeypatch):
    calls = {"solve": 0, "diffusion_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    solve = counted("solve", cli.solve)
    monkeypatch.setattr(cli, "solve", solve)
    monkeypatch.setattr(sweeps, "solve", solve)
    monkeypatch.setattr(langevin, "diffusion_matrix",
                        counted("diffusion_matrix",
                                langevin.diffusion_matrix))
    cli.calibrate(cli.RunConfig(params=reference_params()))
    assert calls == {"solve": 1, "diffusion_matrix": 1}


def test_calibrate_runs_each_witness_block_as_one_kernel_call(monkeypatch):
    # every call in order: the coupling of each derived set of the
    # extended chain, the coupling and frequencies of each control of the
    # field chain, each block of the extended chain, and each kernel call
    events = []

    def record(module, name, tag, what):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append((tag, what(*args)))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    record(cli, "derive", "derive", lambda q: q.coupling_scale)
    record(entanglement, "witness_set_up", "set_up", lambda points, *rest: [
        (q.coupling_scale, q.spinwave_scale) for q in points])
    record(entanglement, "field_quadratures", "fields",
           lambda controls, *rest: [(q.coupling_scale, len(omegas))
                                    for q, _, _, omegas, _ in controls])
    record(entanglement, "extended_quadratures", "extended",
           lambda set_up, omegas, *rest: len(omegas))
    record(propagation, "second_moment_transfer_stack", "kernel",
           lambda m, *rest: len(m))
    art = cli.calibrate(cli.RunConfig(params=reference_params()))
    eta, kappa = art["coupling_scale"], art["spinwave_scale"]
    fit = [events[i:i + 2] for i in range(0, len(events) - 8, 2)]
    samples, final = events[-8:-4], events[-4:]
    # the coupling fit: the field chain alone, one one-matrix kernel call
    # a step, each step at a new coupling
    couplings = [step[0][1][0][0] for step in fit]
    assert fit == [[("fields", [(c, 1)]), ("kernel", 1)] for c in couplings]
    assert len(set(couplings)) == len(couplings) and eta in couplings
    # the spin-wave samples and the final witness run the extended chain,
    # each block one set-up and one kernel call over all of its points
    assert samples == [("derive", eta),
                       ("set_up", [(eta, 0.0), (eta, 1.0), (eta, 2.0)]),
                       ("extended", 3), ("kernel", 3)]
    assert final == [("derive", eta), ("set_up", [(eta, kappa)]),
                     ("extended", 1), ("kernel", 1)]


def test_spinwave_vertex_at_zero_exits_2(tmp_path, capsys):
    # so weak a decay puts the primary fit's vertex at scale -0.0, which
    # no sign flip turns into a usable normalization
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("gamma1 = 1e-300\n")
    out = tmp_path / "cal.json"
    assert cli.main(["--experiment", "calibrate", "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "eitfwm: numerical failure: spin-wave fit of pair a1_S: the witness "
        "is least at scale -0, which is no usable normalization\n")
    assert not out.exists()


# --- import graph ---------------------------------------------------------

_NO_SCIPY_PROBE = """
import os, sys
sys.modules["scipy"] = None  # any import of scipy now fails
from eitfwm import cli

zavg, calibration = sys.argv[1:]
for args in (["fig2"], ["steady"], ["noise"], ["spectrum", "--config", zavg],
             ["fig4"], ["fig5"]):
    assert cli.main(["--experiment", *args, "--out", os.devnull]) == 0, args
assert cli.main(["--experiment", "calibrate", "--out", calibration]) == 0
"""


def test_experiments_run_without_scipy(tmp_path):
    # numpy is the only run-time dependency: with every scipy import
    # made to fail, the experiments still run, and calibrate writes the
    # same artifact as where scipy is there to be loaded
    cfg = tmp_path / "zavg.cfg"
    cfg.write_text("two_pair = true\nspinwave_definition = z-averaged\n")
    without, with_scipy = tmp_path / "without.json", tmp_path / "with.json"
    subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, str(cfg), str(without)],
        env=_env_with_this_source(), capture_output=True, text=True,
        timeout=300, check=True)
    assert cli.main(["--experiment", "calibrate",
                     "--out", str(with_scipy)]) == 0
    assert without.read_bytes() == with_scipy.read_bytes()


# --- verification ---------------------------------------------------------

#: the whole report of a verify run with 2000 oracle steps, line by line
VERIFY_2000_STEPS = [
    "CHECK commutators_free_propagation residual=5.007106e-14 "
    "tol=1.0e-13 PASS (expected PASS) "
    "[coupling off, 5 frequencies]",
    "CHECK commutators_undriven_balance residual=6.042684e-09 "
    "tol=1.0e-06 PASS (expected PASS) "
    "[direct coupling, no dephasing, 5 frequencies]",
    "CHECK commutators_fault_injection residual=5.000000e-01 "
    "tol=1.0e-06 FAIL (expected FAIL) "
    "[same limit with the diffusion table doubled]",
    "CHECK commutators_reference residual=3.466230e+01 "
    "tol=1.0e-06 FAIL (expected FAIL) "
    "[anomalous coupling, reference point, 64-point grid]",
    "CHECK oracle_equivalence residual=3.747293e-03 "
    "tol=1.0e-08 FAIL (expected PASS) UNEXPECTED "
    "[16 frequencies, 2000 oracle steps]",
    "CHECK limit_uncoupled_pair_vacuum residual=5.870682e-10 "
    "tol=1.0e-09 PASS (expected PASS) "
    "[pump drive off, 3 benign frequencies]",
    "CHECK limit_dark_state residual=1.287861e-14 "
    "tol=1.0e-06 PASS (expected PASS) "
    "[no dephasing, symmetric drives]",
    "CHECK limit_input_amplitude_independence residual=0.000000e+00 "
    "tol=1.0e-09 PASS (expected PASS) "
    "[coherent amplitudes 0, 1, 1000]",
    "CHECK symplectic_positivity residual=1.424750e+00 "
    "tol=1.0e-08 FAIL (expected FAIL) "
    "[field quadrature covariance, 64-point grid]",
]


#: the whole report of the default verify run, 100 000 oracle steps
VERIFY_DEFAULT = [
    "CHECK commutators_free_propagation residual=5.007106e-14 "
    "tol=1.0e-13 PASS (expected PASS) "
    "[coupling off, 5 frequencies]",
    "CHECK commutators_undriven_balance residual=6.042684e-09 "
    "tol=1.0e-06 PASS (expected PASS) "
    "[direct coupling, no dephasing, 5 frequencies]",
    "CHECK commutators_fault_injection residual=5.000000e-01 "
    "tol=1.0e-06 FAIL (expected FAIL) "
    "[same limit with the diffusion table doubled]",
    "CHECK commutators_reference residual=3.466230e+01 "
    "tol=1.0e-06 FAIL (expected FAIL) "
    "[anomalous coupling, reference point, 64-point grid]",
    "CHECK oracle_equivalence residual=9.556738e-09 "
    "tol=1.0e-08 PASS (expected PASS) "
    "[16 frequencies, 100000 oracle steps]",
    "CHECK limit_uncoupled_pair_vacuum residual=5.870682e-10 "
    "tol=1.0e-09 PASS (expected PASS) "
    "[pump drive off, 3 benign frequencies]",
    "CHECK limit_dark_state residual=1.287861e-14 "
    "tol=1.0e-06 PASS (expected PASS) "
    "[no dephasing, symmetric drives]",
    "CHECK limit_input_amplitude_independence residual=0.000000e+00 "
    "tol=1.0e-09 PASS (expected PASS) "
    "[coherent amplitudes 0, 1, 1000]",
    "CHECK symplectic_positivity residual=1.424750e+00 "
    "tol=1.0e-08 FAIL (expected FAIL) "
    "[field quadrature covariance, 64-point grid]",
]


def test_verify_reports_nine_checks_and_exits_3_on_a_surprise(
        tmp_path, capsys, monkeypatch):
    # 2000 oracle steps leave the integrator cross-check far above its
    # tolerance: the one surprising outcome of the run
    monkeypatch.setattr(verification, "check_oracle_equivalence",
                        functools.partial(
                            verification.check_oracle_equivalence,
                            n_steps=2000))
    out = tmp_path / "verify.txt"
    # at 2000 steps RK4 itself overflows at 1000 MHz, to nan
    with pytest.warns(RuntimeWarning) as caught:
        assert cli.main(["--experiment", "verify", "--out", str(out)]) == 3
    assert any("overflow" in str(w.message) for w in caught)
    streamed = capsys.readouterr().out
    assert streamed == out.read_text()
    lines = streamed.splitlines()
    assert len(lines) == 9
    assert all(line.startswith("CHECK ") for line in lines)
    unexpected = [line for line in lines if " UNEXPECTED" in line]
    assert len(unexpected) == 1
    assert unexpected[0].startswith(
        "CHECK oracle_equivalence residual=3.747293e-03 ")
    assert lines == VERIFY_2000_STEPS


def test_default_verify_report_is_pinned_and_exits_0(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert cli.main(["--experiment", "verify", "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert out.read_text().splitlines() == VERIFY_DEFAULT


@pytest.mark.parametrize("text,point,oracle_overflows", [
    # without the coupling drive, the pump-off control of check_limits
    # has both drives off: its ground manifold holds a family of states;
    # the RK4 oracle of the check before it overflows at this point too
    ("omega_c = 0\n", "pump-off control (omega_p = 0)", True),
    # both drives off: the configured point itself, in the first check
    ("omega_c = 0\nomega_p = 0\n", "reference point", False),
], ids=["pump_off_control", "reference_point"])
def test_verify_names_the_point_without_a_steady_state(
        tmp_path, capsys, text, point, oracle_overflows):
    cfg = tmp_path / "undriven.cfg"
    cfg.write_text(text)
    with (pytest.warns(RuntimeWarning) if oracle_overflows
          else contextlib.nullcontext()):
        code = cli.main(["--experiment", "verify", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err == (
        "eitfwm: numerical failure: stationary subspace has dimension 2 "
        f"at the {point}\n")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="max() in check_oracle_equivalence drops the nan "
                          "of an overflowing oracle: a false PASS")
@pytest.mark.parametrize("text", [
    "coupling_scale = 1e5\n",
    "coupling_scale = 1.6462819213179591\n"
    "spinwave_scale = 0.007228895687294551\n",
    "omega_p = 0\n",
], ids=["strong", "calibrated", "pump_off"])
def test_verify_fails_the_oracle_check_when_the_oracle_overflows(
        tmp_path, capsys, text):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(text)
    # the RK4 oracle overflows at each of these points: at the calibrated
    # scales and with the pump off its C is not finite at 1000 MHz, while
    # its T is; with the pump off other checks surprise too
    with pytest.warns(RuntimeWarning):
        assert cli.main(["--experiment", "verify", "--config", str(cfg)]) == 3
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("CHECK oracle_equivalence ")]
    assert " FAIL (expected PASS) UNEXPECTED " in line
