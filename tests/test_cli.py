import csv
import json
import math
import sys

import numpy as np
import pytest

from gaborkit import operators, zak
from gaborkit.cli import main
from gaborkit.operators import Chirp, Dilation, SampledFunction, apply_frft
from gaborkit.windows import realize, window


def run(args):
    return main(args)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_zak_surface_h2(tmp_path):
    out = tmp_path / "h2.csv"
    meta = tmp_path / "h2.meta.json"
    assert run(["zak-surface", "--hermite", "2", "--n", "64",
                "--out", str(out), "--meta", str(meta)]) == 0
    rows = read_rows(out)
    assert len(rows) == 4096
    low = min(rows, key=lambda r: float(r["abs"]))
    assert (float(low["x"]), float(low["omega"])) in [(0.0, 0.0), (0.5, 0.5)]
    sidecar = json.loads(meta.read_text())
    assert sidecar["resolution"] == 64
    assert sidecar["window"]["hermite"] == 2


def test_zak_surface_dilated_minima(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["zak-surface", "--hermite", "2",
                "--dilate", "0.7071067811865476", "--n", "64",
                "--out", str(out)]) == 0
    rows = sorted(read_rows(out), key=lambda r: float(r["abs"]))
    nodes = sorted((float(r["x"]), float(r["omega"])) for r in rows[:3])
    assert nodes == [(0.25, 0.5), (0.5, 0.5), (0.75, 0.5)]


def test_zak_surface_minimal_run(tmp_path):
    out = tmp_path / "tiny.csv"
    assert run(["zak-surface", "--hermite", "0", "--n", "8",
                "--out", str(out)]) == 0
    assert len(read_rows(out)) == 64


def test_zak_surface_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["zak-surface", "--hermite", "3", "--shift", "0.3,0.7", "--n", "16"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_frame_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["frame-bounds", "--hermite", "2", "--set", "Z2-union-half"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_frame_bounds_verdicts(tmp_path):
    out = tmp_path / "report.json"
    assert run(["frame-bounds", "--hermite", "2", "--set", "Z2-union-half",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "NotFrame"
    nodes = sorted((z["x"], z["omega"]) for z in report["zeros"])
    assert nodes == [(0.0, 0.0), (0.5, 0.5)]
    assert run(["frame-bounds", "--hermite", "0", "--set", "Z2",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "NotFrame"
    assert report["zeros"][0]["x"] == 0.5
    assert report["zeros"][0]["omega"] == 0.5


def test_frame_bounds_outlook_extra_shift(tmp_path):
    out = tmp_path / "outlook.json"
    assert run(["frame-bounds", "--hermite", "2", "--set", "Z2",
                "--extra-shift", "0.25,0.25", "--n", "1024",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "LikelyFrame"
    assert report["A_est"] > 0.0


def test_frame_bounds_irreducible_exit_code(tmp_path):
    code = run(["frame-bounds", "--hermite", "0",
                "--generator", "2,0,0,1", "--out", str(tmp_path / "x.json")])
    assert code == 4


def test_find_zeros_json(tmp_path):
    out = tmp_path / "zeros.json"
    assert run(["find-zeros", "--hermite", "0", "--n", "64",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["zeros"]) == 1
    assert payload["zeros"][0]["x"] == 0.5


def test_verify_suites_pass(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--suite", "theta", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"]
    assert run(["verify", "--suite", "zak", "--hermite", "3",
                "--out", str(out)]) == 0
    assert run(["verify", "--suite", "frft", "--hermite", "4",
                "--angle", "0.6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert max(payload["defects"].values()) <= 1e-7


def test_verify_failure_exit_code(tmp_path):
    # truncating the series to a single term breaks quasi-periodicity
    out = tmp_path / "broken.json"
    code = run(["verify", "--suite", "zak", "--hermite", "2",
                "--truncation", "1", "--out", str(out)])
    assert code == 5
    assert not json.loads(out.read_text())["passed"]


def test_frft_apply_outputs(tmp_path):
    out = tmp_path / "frft.csv"
    meta = tmp_path / "frft.json"
    assert run(["frft-apply", "--hermite", "1", "--angle", "0.9",
                "--method", "quadrature", "--out", str(out),
                "--meta", str(meta)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3072
    assert json.loads(meta.read_text())["angle"] == 0.9


def test_frft_apply_csv_bytes_match_per_element_rule(tmp_path):
    out = tmp_path / "frft.csv"
    assert run(["frft-apply", "--hermite", "2", "--dilate", "1.3", "--chirp",
                "0.2", "--angle", "2.1", "--out", str(out)]) == 0
    f = realize(window(2, (Chirp(0.2), Dilation(1.3))))
    g = apply_frft(2.1, f)
    expected = "t,re,im,abs\n" + "".join(
        f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r},{float(abs(v))!r}\n"
        for t, v in zip(f.points, g.values))
    assert out.read_bytes() == expected.encode()


def test_frft_apply_singular_angle_exit_code(tmp_path):
    code = run(["frft-apply", "--hermite", "0", "--angle", "0.0005",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_frft_apply_angle_via_config(tmp_path):
    conf = tmp_path / "job.json"
    conf.write_text(json.dumps({"angle": 0.7, "hermite": 1}))
    out = tmp_path / "g.csv"
    assert run(["--config", str(conf), "frft-apply", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 3072
    assert run(["frft-apply", "--hermite", "1",
                "--out", str(tmp_path / "y.csv")]) == 2


def test_config_file_merging(tmp_path):
    conf = tmp_path / "job.json"
    conf.write_text(json.dumps({"hermite": 2, "n": 8}))
    out = tmp_path / "from_config.csv"
    assert run(["--config", str(conf), "zak-surface", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 64
    # explicit flags win over the config file
    out2 = tmp_path / "flag_wins.csv"
    assert run(["--config", str(conf), "zak-surface", "--n", "16",
                "--out", str(out2)]) == 0
    assert len(read_rows(out2)) == 256


def test_explicit_flag_at_its_default_wins_over_config(tmp_path):
    conf = tmp_path / "job.json"
    conf.write_text(json.dumps({"n": 16, "hermite": 1}))
    out = tmp_path / "flag_wins.csv"
    # 64 is --n's own default, but given on the command line it still wins
    assert run(["--config", str(conf), "zak-surface", "--n", "64",
                "--out", str(out)]) == 0
    assert len(read_rows(out)) == 4096
    # the config still fills the flag that was not given
    direct = tmp_path / "direct.csv"
    assert run(["zak-surface", "--hermite", "1", "--n", "64",
                "--out", str(direct)]) == 0
    assert out.read_bytes() == direct.read_bytes()
    # a bad config value is an error even when an explicit flag would override it
    conf.write_text(json.dumps({"n": "sixteen"}))
    assert run(["--config", str(conf), "zak-surface", "--n", "64",
                "--out", str(out)]) == 2


def test_bad_config_exit_code(tmp_path):
    conf = tmp_path / "broken.json"
    conf.write_text("{not json")
    assert run(["--config", str(conf), "zak-surface"]) == 2
    conf.write_text(json.dumps({"no-such-key": 1}))
    assert run(["--config", str(conf), "zak-surface"]) == 2


@pytest.mark.parametrize("command, conf", [
    ("frame-bounds", {"n": None}),
    ("frame-bounds", {"hermite": [2]}),
    ("frame-bounds", {"handler": "x"}),
    ("verify", {"suite": "bogus"}),
])
def test_bad_config_value_exit_code(tmp_path, capsys, command, conf):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(conf))
    assert run(["--config", str(path), command,
                "--out", str(tmp_path / "out.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unwritable_output_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "zeros.json"
    assert run(["find-zeros", "--n", "32", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_preset_exit_code():
    assert run(["frame-bounds", "--hermite", "0", "--set", "Z2",
                "--extra-shift", "bogus"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--chain", '[{"op":"bogus"}]'], "'bogus'} is not one of the operators"),
    (["--chain", '[{"op":"dilation"}]'], "'dilation' needs the numeric fields a"),
    (["--chain", '{"op":"chirp","q":1}'], "operator chain must be a list"),
    (["--hermite", "200"], "the largest supported order is 150"),
    (["--chain", '[{"op":"chirp","q":"1.5"}]'], "'chirp' needs the numeric fields q"),
    (["--chain", '[{"op":"chirp","q":"x"}]'], "'chirp' needs the numeric fields q"),
    (["--chain", '[{"op":"chirp","q":true}]'], "'chirp' needs the numeric fields q"),
    (["--chain", '[{"op":"chirp","q":1' + "0" * 400 + '}]'],
     "'chirp' needs the numeric fields q"),
], ids=["unknown-op", "missing-field", "chain-not-a-list", "hermite-order",
        "numeric-string-field", "string-field", "bool-field", "int-beyond-floats"])
def test_malformed_window_exit_code(tmp_path, capsys, flags, message):
    argv = ["zak-surface", "--n", "8", *flags, "--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, value", [
    (["zak-surface", "--hermite", "1", "--n", "16"], "--shift", "-0.5,0.3"),
    (["frame-bounds", "--hermite", "1", "--set", "Z2", "--n", "32"],
     "--extra-shift", "-.25,-0.25"),
    (["frame-bounds", "--hermite", "1", "--generator", "1,0,0,1", "--n", "32"],
     "--shifts", "-0.25,0.5;0,0"),
], ids=["shift", "extra-shift", "shifts"])
def test_negative_pair_value_forms_agree(tmp_path, monkeypatch, argv, flag, value):
    joined, separated, script = (tmp_path / name for name in ("a", "b", "c"))
    assert run(argv + [f"{flag}={value}", "--out", str(joined)]) == 0
    assert run(argv + [flag, value, "--out", str(separated)]) == 0
    # the console script reads sys.argv
    monkeypatch.setattr(sys, "argv", ["gaborkit", *argv, flag, value,
                                      "--out", str(script)])
    assert main() == 0
    assert joined.read_bytes() == separated.read_bytes() == script.read_bytes()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["zak-surface", "frame-bounds"])
def test_invalid_dilation_exit_code(tmp_path, capsys, command, value):
    message = f"dilation requires a > 0, got {float(value)!r}"
    argv = [command, "--n", "8", "--out", str(tmp_path / "x")]
    assert run(argv + [f"--dilate={value}"]) == 2
    assert message in capsys.readouterr().err
    chain = json.dumps([{"op": "dilation", "a": float(value)}])
    assert run(argv + ["--chain", chain]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--chirp", "nan"], "chirp requires a finite q, got nan"),
    (["--frft", "inf", "--chirp", "0.3"], "frft requires a finite r, got inf"),
    (["--shift=nan,0"], "tfshift requires a finite x, got nan"),
    (["--chain", '[{"op": "chirp", "q": NaN}]'], "chirp requires a finite q, got nan"),
    (["--chain", '[{"op": "tfshift", "x": 0, "omega": -Infinity}]'],
     "tfshift requires a finite omega, got -inf"),
], ids=["chirp", "frft", "shift", "chain-nan", "chain-infinity"])
def test_non_finite_operator_field_exit_code(tmp_path, capsys, flags, message):
    out = tmp_path / "x.csv"
    assert run(["zak-surface", "--n", "8", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["zak-surface", "frame-bounds"])
@pytest.mark.parametrize("chain, message", [
    ('[{"op": "dilation", "a": 2.0, "omgea": 1.0}]', "'dilation' has no field 'omgea'"),
    ('[{"op": "fourier", "r": 3.0}]', "'fourier' has no field 'r'"),
], ids=["misspelt-key", "fourier-angle"])
def test_unknown_chain_key_exit_code(tmp_path, capsys, command, chain, message):
    out = tmp_path / "x"
    assert run([command, "--n", "8", "--chain", chain, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["zak-surface", "frame-bounds"])
def test_non_finite_closed_form_values_exit_code(tmp_path, capsys, command):
    # the chirp after the dilation folds to Chirp(1 / a^2), which overflows;
    # a canonical window whose chirp phase pi q t^2 overflows reaches the Zak
    # sum with non-finite values.  One whose modulation phase 2 pi omega t
    # overflows is summed on the torus (see
    # test_window_shifted_past_float_integers_exit_code)
    chains = [('[{"op": "dilation", "a": 4e-210}, {"op": "chirp", "q": 1.0}]',
               "normal form of the window over- or underflows"),
              ('[{"op": "chirp", "q": 1e308}]', "non-finite values")]
    for chain, message in chains:
        out = tmp_path / "x"
        # warning-free: numpy RuntimeWarnings fail the suite
        assert run([command, "--n", "8", "--chain", chain, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["zak-surface", "frame-bounds", "frft-apply"])
def test_dilation_under_frft_that_overflows_exit_code(tmp_path, capsys, command):
    # the FrFT acts on h_2(t / a), which the normal form c pi(x, omega)
    # Chirp(q) Dilation(a') h_2 cannot hold: 1 / a overflows a float
    chain = '[{"op": "frft", "r": 0.5}, {"op": "dilation", "a": 5e-324}]'
    out = tmp_path / "x"
    argv = [command, "--hermite", "2", "--chain", chain, "--out", str(out)]
    argv += ["--angle", "0.4"] if command == "frft-apply" else ["--n", "8"]
    assert run(argv) == 3
    assert "normal form of the window over- or underflows" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_closed_form_window_exit_code_in_frft_apply(tmp_path, capsys):
    # the FrFT collapses into the Hermite phase, so the window is closed-form,
    # and h_2(t / a) is NaN wherever t / a overflows
    chain = '[{"op": "dilation", "a": 5e-324}, {"op": "frft", "r": 0.5}]'
    out = tmp_path / "x.csv"
    assert run(["frft-apply", "--hermite", "2", "--angle", "0.4",
                "--chain", chain, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite samples" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--extra-shift", "nan,0"], "point set shift (nan, 0.0) must be finite"),
    (["--extra-shift", "inf,0"], "point set shift (inf, 0.0) must be finite"),
    (["--generator", "1,0,0,1", "--shifts", "0,0;nan,0.5"],
     "point set shift (nan, 0.5) must be finite"),
    (["--generator", "inf,0,0,1"],
     "point set generator entry (0, 0) must be finite, got inf"),
], ids=["extra-shift-nan", "extra-shift-inf", "shifts-nan", "generator-inf"])
def test_non_finite_point_set_exit_code(tmp_path, capsys, flags, message):
    out = tmp_path / "x.json"
    assert run(["frame-bounds", "--n", "8", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["frft-apply", "--angle", "inf"], "frft requires a finite r, got inf"),
    (["frft-apply", "--angle", "nan"], "frft requires a finite r, got nan"),
    (["frft-apply", "--angle", "inf", "--method", "hermite"],
     "frft requires a finite r, got inf"),
    (["verify", "--suite", "frft", "--angle", "inf"], "frft requires a finite r, got inf"),
    (["find-zeros", "--n", "32", "--tol", "nan"], "zero search needs a finite tol, got nan"),
    (["find-zeros", "--n", "32", "--tol", "inf"], "zero search needs a finite tol, got inf"),
    (["zak-surface", "--n", "8", "--truncation", "-5"],
     "truncation must be at least 1, got -5"),
], ids=["frft-inf", "frft-nan", "frft-hermite-inf", "verify-frft-inf",
        "find-zeros-tol-nan", "find-zeros-tol-inf", "zak-surface-truncation"])
def test_non_finite_angle_tol_and_low_truncation_exit_code(tmp_path, capsys, argv,
                                                            message):
    out = tmp_path / "x"
    assert run([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "x.meta.json").exists()


def test_tilted_valley_job_reports_zeros_in_unit_square(tmp_path, capsys):
    out = tmp_path / "report.json"
    chain = '[{"op": "frft", "r": 0.3}, {"op": "chirp", "q": 0.64}]'
    assert run(["frame-bounds", "--hermite", "1", "--chain", chain, "--set", "Z2",
                "--n", "64", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "NotFrame"
    zeros = json.loads(out.read_text())["zeros"]
    assert len(zeros) == 5
    assert all(0.0 <= z[k] < 1.0 for z in zeros for k in ("x", "omega"))


def test_tilted_valley_job_reports_parity_zeros_at_the_rationals(tmp_path):
    # the odd window's three parity zeros are reported exactly at the
    # rationals, not just off them
    out = tmp_path / "report.json"
    chain = '[{"op": "frft", "r": 0.3}, {"op": "chirp", "q": 0.64}]'
    assert run(["frame-bounds", "--hermite", "1", "--chain", chain, "--set", "Z2",
                "--n", "64", "--out", str(out)]) == 0
    zeros = {(z["x"], z["omega"]) for z in json.loads(out.read_text())["zeros"]}
    assert {(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)} <= zeros


@pytest.mark.parametrize("flags, conf", [
    (["--samples", "0"], None),
    (["--samples", "-1"], None),
    ([], {"samples": 0}),
], ids=["flag-0", "flag-negative", "config-0"])
def test_verify_samples_below_one_exit_code(tmp_path, capsys, flags, conf):
    out = tmp_path / "x.json"
    argv = ["verify", "--suite", "intertwine", *flags, "--out", str(out)]
    if conf is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(conf))
        argv = ["--config", str(path), *argv]
    assert run(argv) == 2
    value = flags[-1] if flags else conf["samples"]
    assert f"--samples must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_intertwine_suite_sees_a_constant_phase(tmp_path, capsys, monkeypatch):
    # a sampled chirp off by the phase exp(0.1i) is off the closed form by
    # |exp(0.1i) - 1| = 2 sin(0.05) at every shift, however well a fitted
    # phase would match it
    chirp = operators.apply_chirp
    monkeypatch.setattr(operators, "apply_chirp",
                        lambda q, f: chirp(q, SampledFunction(
                            np.exp(0.1j) * f.values, f.step, f.extent)))
    out = tmp_path / "x.json"
    assert run(["verify", "--suite", "intertwine", "--out", str(out)]) == 5
    assert "identity failures: intertwine.chirp\n" in capsys.readouterr().err
    defects = json.loads(out.read_text())["defects"]
    assert abs(defects["intertwine.chirp"] - 2.0 * math.sin(0.05)) < 1e-12


def test_intertwine_suite_against_the_closed_form(tmp_path):
    out = tmp_path / "x.json"
    assert run(["verify", "--suite", "intertwine", "--samples", "64",
                "--out", str(out)]) == 0
    defects = json.loads(out.read_text())["defects"]
    assert sorted(defects) == ["intertwine.chirp", "intertwine.dilation",
                               "intertwine.fourier", "intertwine.frft"]
    assert max(defects.values()) <= 1e-13


def test_frft_suite_next_to_pi_against_the_closed_form(tmp_path):
    # the quadrature's phases are reduced exactly, so at r = 3.1 its defects
    # are rounding of the samples, not of phases of 1e3 rad
    out = tmp_path / "x.json"
    assert run(["verify", "--suite", "frft", "--hermite", "4", "--angle", "3.1",
                "--out", str(out)]) == 0
    defects = json.loads(out.read_text())["defects"]
    assert max(defects["frft.eigenvalue_quadrature"], defects["frft.semigroup"]) <= 1e-13


def test_find_zeros_negative_tol_exit_code(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["find-zeros", "--n", "32", "--tol", "-1", "--out", str(out)]) == 2
    assert "zero search needs tol >= 0, got -1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shift", ["1e17", "8e15"])
@pytest.mark.parametrize("command", ["frame-bounds", "zak-surface"])
def test_window_shifted_past_float_integers_exit_code(tmp_path, capsys, command, shift):
    # h_0 over Z2 is no frame.  Past 2**52 floats skip k - x, so the Zak sums
    # take the whole parts of the shift off (and carry their phase): the
    # surface is |Z h_0| again, and the zero search finds the zero
    out = tmp_path / "x"
    code = run([command, "--hermite", "0", "--shift", f"{shift},0", "--n", "32",
                "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    if command == "zak-surface":
        assert run([command, "--hermite", "0", "--n", "32", "--out", str(tmp_path / "h0")]) == 0
        far, h0 = read_rows(out), read_rows(tmp_path / "h0")
        assert [(r["x"], r["omega"]) for r in far] == [(r["x"], r["omega"]) for r in h0]
        assert max(abs(float(a["abs"]) - float(b["abs"])) for a, b in zip(far, h0)) <= 1e-15
    else:
        assert captured.out.strip() == "NotFrame"


@pytest.mark.parametrize("command", ["zak-surface", "frame-bounds"])
def test_links_that_cancel_only_as_a_product_exit_code(tmp_path, capsys, command):
    # the dilations are kept as given, and the fold of the pair overflows
    chain = '[{"op": "dilation", "a": 1e200}, {"op": "dilation", "a": 1e-200}]'
    out = tmp_path / "x"
    assert run([command, "--n", "8", "--chain", chain, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "normal form of the window over- or underflows" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("chain", [
    '[{"op": "dilation", "a": 1.4142135623730951}, {"op": "tfshift", "x": 1e17, "omega": 0}]',
    '[{"op": "tfshift", "x": 0.3, "omega": 0}, {"op": "tfshift", "x": 1e17, "omega": 0}]',
])
def test_fold_that_moves_a_shift_past_float_integers_exit_code(tmp_path, capsys, chain):
    # a link that changes a shift of 2**52 or more drops its fraction, which
    # would translate the surface by the wrong amount
    out = tmp_path / "x"
    assert run(["zak-surface", "--n", "8", "--chain", chain, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "a link changes a shift of 2**52 or more: its fraction is lost" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_point_set_shifts_that_are_not_pairs_exit_code(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["frame-bounds", "--generator", "1,0,0,1", "--shifts", ";",
                "--n", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "point set shifts must be one or more pairs (x, omega), got shape (0,)" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("shift", ["1e7,0", "4e15,0", "1e17,0", "1e300,0", "0,1e308"])
def test_window_shifted_far_is_not_a_frame(tmp_path, capsys, shift):
    # |Z pi(x, omega) h_0| is |Z h_0| translated on the torus, so the zero
    # at (1/2, 1/2) stays however far h_0 is shifted by a whole number
    out = tmp_path / "report.json"
    assert run(["frame-bounds", "--hermite", "0", "--shift", shift, "--n", "32",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "NotFrame"
    report = json.loads(out.read_text())
    assert [(z["x"], z["omega"]) for z in report["zeros"]] == [(0.5, 0.5)]
    assert report["zeros"][0]["residual"] <= 1e-10


@pytest.mark.parametrize("shift", ["5e6,0.3", "1e17,0.3"])
@pytest.mark.parametrize("command", ["frame-bounds", "find-zeros"])
def test_far_shifted_zero_off_the_grid_is_polished(tmp_path, capsys, command, shift):
    # the zero of pi(x, 0.3) h_0 sits at (1/2, 1/5), between the nodes of
    # N = 32, so the local model's finite differences place it; on the torus
    # they carry no shift phase exp(2 pi i eta m), which at m = 5e6 turns by
    # half a turn across the model's first difference
    out = tmp_path / "report.json"
    assert run([command, "--hermite", "0", "--shift", shift, "--n", "32",
                "--out", str(out)]) == 0
    if command == "frame-bounds":
        assert capsys.readouterr().out.strip() == "NotFrame"
    zeros = json.loads(out.read_text())["zeros"]
    assert [(z["x"], round(z["omega"], 12)) for z in zeros] == [(0.5, 0.2)]
    assert zeros[0]["residual"] <= 1e-10


@pytest.mark.parametrize("omega", [0.5, 0.25])
def test_find_zeros_of_a_far_shifted_window_are_translated(tmp_path, omega):
    # the zeros of pi(1e17, omega) h_3 are those of h_3 translated by (0, -omega)
    zeros = {}
    for shift in ("0,0", f"1e17,{omega}"):
        out = tmp_path / "zeros.json"
        assert run(["find-zeros", "--hermite", "3", "--shift", shift, "--n", "64",
                    "--out", str(out)]) == 0
        zeros[shift] = json.loads(out.read_text())["zeros"]
    assert len(zeros["0,0"]) == 4
    assert all(z["residual"] <= 1e-10 for found in zeros.values() for z in found)
    assert sorted((z["x"], (z["omega"] - omega) % 1.0) for z in zeros["0,0"]) \
        == sorted((z["x"], z["omega"]) for z in zeros[f"1e17,{omega}"])


def strict_json(path):
    """The JSON file at path, refusing NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_surface_sidecar_of_a_high_order_is_strict_json(tmp_path, capsys):
    # (1 + j)^150 overflows a float in the envelope tail; the sidecar's
    # tail bound is summed in log space and stays finite
    out = tmp_path / "s.csv"
    assert run(["zak-surface", "--hermite", "150", "--n", "8", "--truncation", "300",
                "--out", str(out)]) == 0
    assert "Warning" not in capsys.readouterr().err
    meta = strict_json(tmp_path / "s.csv.meta.json")
    assert meta["truncation"] == 300 and 0.0 <= meta["tail_bound"] < 1e-300


def test_surface_with_an_infinite_tail_bound_exit_code(tmp_path, capsys):
    # D_1000 h_1 still rises at the end of the envelope's summed terms, so
    # truncation 10 has no finite tail bound: nothing is written
    out = tmp_path / "s.csv"
    assert run(["zak-surface", "--hermite", "1", "--dilate", "1000", "--n", "8",
                "--truncation", "10", "--out", str(out)]) == 3
    assert "envelope tail of truncation 10 is not finite" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "s.csv.meta.json").exists()


def test_window_shifted_far_in_time_is_not_a_frame(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["frame-bounds", "--hermite", "0", "--shift", "1e6,0", "--n", "32",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "NotFrame"


@pytest.mark.parametrize("command", ["frame-bounds", "zak-surface"])
@pytest.mark.parametrize("n", ["-3", "7"])
def test_surface_resolution_below_8_exit_code(tmp_path, capsys, command, n):
    out = tmp_path / "x"
    assert run([command, "--n", n, "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"configuration error: surface resolution must be at least 8, got {n}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["frame-bounds", "find-zeros", "zak-surface"])
def test_grid_too_large_to_allocate_exit_code(tmp_path, capsys, monkeypatch, command):
    # the zero search refuses N above 2**16, and zak-surface's N x N values
    # at 1.6e17 bytes fail to allocate at once; either way the Zak sum's
    # factors, which grow with N, must not be reached
    def reached(k_lo, k_hi):
        raise AssertionError("the Zak sum's factors were built before the grid")
    monkeypatch.setattr(zak, "_indices", reached)
    out = tmp_path / "x"
    assert run([command, "--n", "100000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fourier_window_of_h1_is_not_a_frame_over_z2(tmp_path, capsys, source):
    # F h_1 = -i h_1: the Fourier link becomes the phase -i, and the odd
    # window keeps its parity zeros at (0, 0), (1/2, 0) and (0, 1/2); a
    # config file sets the store_true flag with a JSON boolean
    conf = tmp_path / "job.json"
    conf.write_text(json.dumps({"fourier": True, "hermite": 1}))

    def job(*argv):
        if source == "flag":
            return run([*argv, "--hermite", "1", "--fourier"])
        return run(["--config", str(conf), *argv])

    report, zeros = tmp_path / "report.json", tmp_path / "zeros.json"
    assert job("frame-bounds", "--set", "Z2", "--n", "32", "--out", str(report)) == 0
    assert capsys.readouterr().out == "NotFrame\n"
    found = {(z["x"], z["omega"]) for z in json.loads(report.read_text())["zeros"]}
    assert found == {(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)}
    assert job("find-zeros", "--n", "32", "--out", str(zeros)) == 0
    assert json.loads(zeros.read_text())["window"] == {
        "hermite": 1, "chain": [], "phase": [0.0, -1.0]}


def test_generator_of_three_entries_exit_code(capsys):
    assert run(["frame-bounds", "--generator", "1,0,1"]) == 2
    assert "--generator takes 4 comma-separated entries" in capsys.readouterr().err


def test_config_file_that_is_not_an_object_exit_code(tmp_path, capsys):
    conf = tmp_path / "job.json"
    conf.write_text("[1, 2]")
    assert run(["--config", str(conf), "frame-bounds"]) == 2
    assert "config file must hold a JSON object" in capsys.readouterr().err


def test_frame_report_without_out_is_strict_json_on_stdout(tmp_path, capsys):
    # the report, then the verdict line; the same bytes as the --out file
    def refuse(name):
        raise ValueError(f"stdout holds {name}")

    argv = ["frame-bounds", "--hermite", "1", "--set", "Z2", "--n", "32"]
    assert run(argv) == 0
    *report, verdict, end = capsys.readouterr().out.split("\n")
    assert (verdict, end) == ("NotFrame", "")
    text = "\n".join(report) + "\n"
    assert json.loads(text, parse_constant=refuse)["verdict"] == "NotFrame"
    assert run([*argv, "--out", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").read_text() == text


@pytest.mark.parametrize("source", ["flag", "config"])
def test_shifts_without_generator_exit_code(tmp_path, capsys, source):
    # coset shifts belong to an explicit generator; next to a preset they
    # would be dropped, and the verdict would be the preset's
    out = tmp_path / "x.json"
    argv = ["frame-bounds", "--set", "Z2", "--n", "32", "--out", str(out)]
    if source == "flag":
        argv += ["--shifts", "0.5,0.5"]
    else:
        conf = tmp_path / "job.json"
        conf.write_text(json.dumps({"shifts": "0.5,0.5"}))
        argv = ["--config", str(conf), *argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error: --shifts needs --generator" in err
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_with_nothing_on_stderr(unbuffered):
    # the read end of the child's stdout is closed before the child writes
    import os
    import subprocess
    import gaborkit
    src = os.path.dirname(os.path.dirname(gaborkit.__file__))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaborkit.cli", "frame-bounds", "--hermite", "1",
             "--set", "Z2", "--n", "32"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
