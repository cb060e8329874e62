"""Command-line interface: exit codes, deterministic output, flag validation.

All invocations but one go through ``cli.run`` in-process so that
stdout/stderr and exit codes can be asserted without spawning an
interpreter; the one spawns it to see stderr exactly as a shell does.
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from besselsum import applications as ap
from besselsum import cli

MODEL_FILE = """\
# comment line
D 2
alpha 1.0 4
alpha 1.4142135623730951 4
alpha 2.0 4
A 0 3.141592653589793
A 1 -1.0
"""


def run_cli(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, f"exit {code}, stderr: {err}"
    return json.loads(out)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class TestEval:
    def test_h0_closed_form(self, capsys):
        doc = run_json(capsys, ["eval", "--series", "h0", "--s", "0.5", "--beta", "1.0"])
        want = (math.sqrt(math.pi) / 2.0) / math.expm1(2.0)
        assert abs(doc["result"]["value"] - want) < 1e-12
        assert doc["request"]["subcommand"] == "eval"
        assert doc["request"]["series"] == "h0"
        assert doc["result"]["method"].startswith("direct")

    def test_h_with_phase(self, capsys):
        doc = run_json(
            capsys,
            ["eval", "--series", "h", "--s", "0.7", "--beta", "0.8", "--B", "0.3"],
        )
        assert math.isfinite(doc["result"]["value"])
        assert doc["request"]["B"] == 0.3

    def test_g_requires_d(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--series", "g", "--s", "0.7", "--beta", "0.8"])
        assert code == 2
        assert "requires --d" in err

    def test_g_with_d(self, capsys):
        doc = run_json(
            capsys, ["eval", "--series", "g", "--s", "0.7", "--beta", "0.8", "--d", "2"]
        )
        assert math.isfinite(doc["result"]["value"])

    def test_f_requires_model(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--series", "f", "--s", "0.5", "--beta", "0.5"])
        assert code == 2
        assert "requires --model" in err

    @pytest.mark.parametrize("model", ["circle", "torus:2"])
    def test_f_models(self, capsys, model):
        doc = run_json(
            capsys,
            ["eval", "--series", "f", "--s", "0.5", "--beta", "0.5", "--model", model],
        )
        assert math.isfinite(doc["result"]["value"])

    def test_f_circle_closed_form(self, capsys):
        doc = run_json(
            capsys,
            ["eval", "--series", "f", "--s", "0.5", "--beta", "0.5", "--model", "circle"],
        )
        # Half-integer order collapses each inner Bessel sum to a geometric
        # series: sum_n (1/n) q_n / (1 - q_n) with q_n = exp(-2 n beta).
        tot = 0.0
        for n in range(1, 60):
            q = math.exp(-2.0 * n * 0.5)
            tot += q / (1.0 - q) / n
        want = (math.sqrt(math.pi) / 2.0) * tot
        assert abs(doc["result"]["value"] - want) < 1e-12

    def test_file_model(self, capsys, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text(MODEL_FILE, encoding="utf-8")
        doc = run_json(
            capsys,
            ["eval", "--series", "f0", "--s", "0.9", "--beta", "0.6", "--model", str(p)],
        )
        assert math.isfinite(doc["result"]["value"])
        assert doc["result"]["method"] == "direct_f_truncated"
        assert doc["result"]["error_estimate"] > 0.0

    def test_flag_cross_contamination(self, capsys):
        code, _, err = run_cli(
            capsys, ["eval", "--series", "h0", "--s", "0.5", "--beta", "1.0", "--B", "0.2"]
        )
        assert code == 2 and "takes no --B" in err
        code, _, err = run_cli(
            capsys, ["eval", "--series", "h", "--s", "0.5", "--beta", "1.0", "--d", "2"]
        )
        assert code == 2 and "takes no --d" in err
        code, _, err = run_cli(
            capsys,
            ["eval", "--series", "g", "--s", "0.5", "--beta", "1.0", "--d", "2",
             "--model", "circle"],
        )
        assert code == 2 and "takes no --model" in err

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--series", "h0", "--s", "0.5", "--beta", "-1.0"])
        assert code == 2
        assert err.startswith("besselsum: DomainError")

    def test_nonfinite_terms_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--series", "h0", "--s", "200",
                                        "--beta", "0.01"])
        assert code == 2
        assert "ConvergenceError" in err

    def test_over_budget_refused_at_once(self, capsys):
        t0 = time.perf_counter()
        code, _, err = run_cli(capsys, ["eval", "--series", "h0", "--s", "0.5",
                                        "--beta", "1e-9"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "ConvergenceError" in err and "expand" in err

    def test_bad_torus_spec(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["eval", "--series", "f", "--s", "0.5", "--beta", "0.5", "--model", "torus:x"],
        )
        assert code == 2
        assert "torus" in err


# ---------------------------------------------------------------------------
# usage errors -> exit 1
# ---------------------------------------------------------------------------


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nonsense"],
            ["eval"],
            ["eval", "--series", "h0"],
            ["eval", "--series", "nope", "--s", "1.0", "--beta", "1.0"],
            ["expand", "--series", "h0", "--s", "1.0"],
            ["eval", "--series", "h0", "--s", "abc", "--beta", "1.0"],
        ],
    )
    def test_usage_error_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.run(argv)
        assert info.value.code == 1
        assert capsys.readouterr().err != ""


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


class TestExpand:
    def test_term_table_without_beta(self, capsys):
        doc = run_json(capsys, ["expand", "--series", "h0", "--s", "-0.5", "--order", "4"])
        res = doc["result"]
        assert res["value"] is None
        assert res["case_tag"] == "neg_half"
        powers = [t["power"] for t in res["terms"]]
        assert powers == sorted(powers)
        # Log channel of the leading term: coefficient -sqrt(pi)/2.
        log_terms = [t for t in res["terms"] if abs(t["power"] + 1.0) < 1e-12]
        assert abs(log_terms[0]["log_coeff"] + math.sqrt(math.pi) / 2.0) < 1e-13

    def test_value_with_beta(self, capsys):
        doc = run_json(
            capsys,
            ["expand", "--series", "h0", "--s", "0.9", "--beta", "0.1", "--order", "6"],
        )
        assert math.isfinite(doc["result"]["value"])
        assert doc["result"]["remainder_power"] is not None

    def test_terminating_expansion_serializes_null(self, capsys):
        doc = run_json(
            capsys,
            ["expand", "--series", "f0", "--s", "0.5", "--order", "12",
             "--model", "circle"],
        )
        assert doc["result"]["remainder_power"] is None

    def test_pole_order_exit_2(self, capsys):
        # s this close to (but not exactly at) an integer makes contour poles
        # nearly collide, which the engine refuses rather than losing digits.
        code, _, err = run_cli(capsys, ["expand", "--series", "h0", "--s", "1e-9",
                                        "--order", "4"])
        assert code == 2
        assert err.startswith("besselsum: PoleError")

    def test_order_above_cap_exit_2(self, capsys):
        code, out, err = run_cli(capsys, ["expand", "--series", "h0", "--s", "0.5",
                                          "--order", "1e9"])
        assert code == 2
        assert out == ""
        assert err.startswith("besselsum: DomainError")

    def test_far_negative_s_exit_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["expand", "--series", "h0", "--s=-1e12",
                                          "--order", "2"])
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err.startswith("besselsum: DomainError")

    def test_far_negative_s_polylog_table_exit_0(self, capsys):
        doc = run_json(capsys, ["expand", "--series", "h", "--s=-60.15", "--B", "0.3",
                                "--order", "2"])
        terms = doc["result"]["terms"]
        assert terms
        assert all(math.isfinite(t["const_coeff"]) and math.isfinite(t["log_coeff"])
                   for t in terms)

    def test_coefficient_past_double_range_exit_2(self, capsys):
        # zeta(2s) passes 1.8e308 at the beta^0 term of the circle table
        code, out, err = run_cli(capsys, ["expand", "--series", "f", "--model", "circle",
                                          "--s=-140.3", "--B", "0.3", "--order", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("besselsum: DomainError")

    def test_epstein_past_double_range_prints_only_the_error(self):
        # the Epstein zeta of the beta^0 term overflows; no warning may leak
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "besselsum.cli", "expand", "--series", "g", "--d", "2",
             "--s=-130.1", "--order", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("besselsum: DomainError")


# ---------------------------------------------------------------------------
# compare / oracle (exit 3 on tolerance failure)
# ---------------------------------------------------------------------------


class TestCompare:
    def test_ratio_pass(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["compare", "--series", "h0", "--s", "0.9", "--beta", "0.1", "--order", "4"],
        )
        assert code == 0, err
        doc = json.loads(out)
        res = doc["result"]
        assert res["ratio_status"] == "pass"
        assert res["abs_diff"] < 1e-4
        assert res["ratio_expected"] == 2.0 ** (-res["remainder_power"])

    def test_terminating_expansion_skips_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["compare", "--series", "f0", "--s", "0.5", "--beta", "0.1", "--order", "12",
             "--model", "circle"],
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["ratio_status"] == "skip"
        assert res["ratio"] is None
        # Only direct-summation noise remains for a terminating expansion.
        assert res["abs_diff"] < 1e-10


    def test_skip_when_remainder_below_direct_error(self, capsys):
        # At order 6 the remainder at this beta is below the direct sum's own
        # error bound, so the ratio cannot be measured and must not fail.
        code, out, err = run_cli(
            capsys,
            ["compare", "--series", "h0", "--s", "0.9264914101293081",
             "--beta", "0.0763730417301593", "--order", "6"],
        )
        assert code == 0, err
        assert json.loads(out)["result"]["ratio_status"] == "skip"


class TestOracle:
    def test_h0_agrees(self, capsys):
        code, out, err = run_cli(capsys, ["oracle", "--series", "h0", "--s", "0.9",
                                          "--beta", "0.5"])
        assert code == 0, err
        res = json.loads(out)["result"]
        assert res["status"] == "pass"
        assert res["abs_diff"] < 1e-10

    def test_h_with_phase_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--series", "h", "--s", "0.4", "--beta", "0.7", "--B", "0.3",
             "--c", "1.5"],
        )
        assert code == 0
        assert json.loads(out)["result"]["status"] == "pass"

    def test_impossible_bound_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--series", "h0", "--s", "0.9", "--beta", "0.5",
             "--bound", "1e-18"],
        )
        assert code == 3
        assert json.loads(out)["result"]["status"] == "fail"

    def test_bad_abscissa_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["oracle", "--series", "h0", "--s", "0.9", "--beta", "0.5", "--c", "0.3"],
        )
        assert code == 2
        assert err.startswith("besselsum: ConfigError")

    def test_h0_rejects_phase(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["oracle", "--series", "h0", "--s", "0.9", "--beta", "0.5", "--B", "0.2"],
        )
        assert code == 2
        assert "takes no --B" in err


# ---------------------------------------------------------------------------
# casimir / mass
# ---------------------------------------------------------------------------


class TestCasimir:
    def test_matches_library(self, capsys):
        doc = run_json(
            capsys,
            ["casimir", "--D", "1", "--model", "torus:1", "--beta", "0.3", "--L", "2.0"],
        )
        res = doc["result"]
        from besselsum.manifolds import torus_model

        cfg = ap.PistonConfig(
            geometry=ap.ProductGeometry(d=0, model=torus_model(1), beta=0.3, B=0.5),
            L=2.0,
        )
        pole, finite = ap.casimir_energy(cfg)
        force = ap.casimir_force(cfg)
        assert res["pole_coeff"] == pole
        assert abs(res["value"] - finite) < 1e-15
        assert abs(res["force"] - force) < 1e-15

    def test_invalid_dimension(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["casimir", "--D", "0", "--model", "circle", "--beta", "0.3", "--L", "2.0"],
        )
        assert code == 2
        assert "D must be >= 1" in err

    def test_chamber_longer_than_piston(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["casimir", "--D", "1", "--model", "circle", "--beta", "3.0", "--L", "2.0"],
        )
        assert code == 2
        assert err.startswith("besselsum: ConfigError")


class TestMass:
    def test_direct_and_expansion_agree(self, capsys):
        doc = run_json(capsys, ["mass", "--m", "0.2", "--L", "1.0", "--D", "4"])
        res = doc["result"]
        assert math.isfinite(res["value"])
        assert res["abs_diff"] < 1e-6
        assert res["case_tag"]

    def test_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, ["mass", "--m", "-0.2", "--L", "1.0", "--D", "4"])
        assert code == 2

    def test_mass_past_the_term_budget_refused(self, capsys):
        code, out, err = run_cli(capsys, ["mass", "--m", "1e-9", "--L", "1", "--D", "4"])
        assert code == 2
        assert out == ""
        assert err.startswith("besselsum: ConvergenceError")

    def test_mass_past_double_range_refused(self, capsys):
        code, out, err = run_cli(capsys, ["mass", "--m", "1", "--L", "1", "--D", "340"])
        assert (code, out) == (2, "")
        assert err.startswith("besselsum: ConvergenceError")


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


class TestModels:
    def test_builtins_listing(self, capsys):
        doc = run_json(capsys, ["models"])
        assert "circle" in doc["result"]["builtins"][0]

    def test_validate_good_file(self, capsys, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text(MODEL_FILE, encoding="utf-8")
        doc = run_json(capsys, ["models", "--file", str(p)])
        res = doc["result"]
        assert res["status"] == "valid"
        assert res["D"] == 2
        assert res["eigenvalues"] == 3

    def test_validate_bad_file(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("D 2\nalpha 2.0\nalpha 1.0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, ["models", "--file", str(p)])
        assert code == 2
        assert err.startswith("besselsum: ParseError")

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["models", "--file", str(tmp_path / "nope.txt")])
        assert code == 2


# ---------------------------------------------------------------------------
# Output contract: determinism, key order, float formatting, CSV shape
# ---------------------------------------------------------------------------


ARGV_DETERMINISM = [
    "compare", "--series", "h", "--s", "0.7", "--beta", "0.1", "--B", "0.3",
    "--order", "6",
]


class TestOutputContract:
    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, ARGV_DETERMINISM)
        _, out2, _ = run_cli(capsys, ARGV_DETERMINISM)
        assert out1 == out2
        for fmt in ("csv",):
            _, c1, _ = run_cli(capsys, ARGV_DETERMINISM + ["--format", fmt])
            _, c2, _ = run_cli(capsys, ARGV_DETERMINISM + ["--format", fmt])
            assert c1 == c2

    def test_json_key_order(self, capsys):
        doc = run_json(
            capsys,
            ["expand", "--series", "h0", "--s", "0.9", "--beta", "0.1", "--order", "6"],
        )
        assert list(doc.keys()) == ["request", "result"]
        assert list(doc["result"].keys())[:5] == [
            "value", "error_estimate", "terms", "case_tag", "method",
        ]
        for term in doc["result"]["terms"]:
            assert list(term.keys()) == ["power", "const_coeff", "log_coeff"]

    def test_float_formatting_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--series", "h0", "--s", "0.5",
                                        "--beta", "1.0"])
        assert code == 0
        # The printed string is the %.17g rendering of the computed double,
        # so parsing it back reproduces that double bit-for-bit.
        value = json.loads(out)["result"]["value"]
        assert f'"value":{value:.17g}' in out
        closed = (math.sqrt(math.pi) / 2.0) / math.expm1(2.0)
        assert abs(value - closed) < 1e-12

    def test_negative_zero_normalized(self):
        assert cli._fmt_json(-0.0) == "0"
        assert cli._fmt_json(float("inf")) == "null"
        assert cli._fmt_json(float("nan")) == "null"

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["expand", "--series", "h0", "--s", "0.9", "--beta", "0.1", "--order", "6",
             "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        req_lines = [l for l in lines if l.startswith("request.")]
        res_lines = [l for l in lines if l.startswith("result.")]
        term_lines = [l for l in lines if l.startswith("term,")]
        assert req_lines and res_lines and term_lines
        assert lines == req_lines + res_lines + term_lines
        for line in term_lines:
            assert len(line.split(",")) == 4
        doc = run_json(
            capsys,
            ["expand", "--series", "h0", "--s", "0.9", "--beta", "0.1", "--order", "6"],
        )
        assert len(term_lines) == len(doc["result"]["terms"])

    def test_csv_lists_use_semicolons(self, capsys):
        code, out, _ = run_cli(capsys, ["models", "--format", "csv"])
        assert code == 0
        builtin_line = [l for l in out.splitlines() if l.startswith("result.builtins")][0]
        assert builtin_line.count(",") == 1


# ---------------------------------------------------------------------------
# Environment tolerance override
# ---------------------------------------------------------------------------


class TestEnvTol:
    def test_env_loosens_tolerance(self, capsys, monkeypatch):
        monkeypatch.delenv("BESSELSUM_TOL", raising=False)
        tight = run_json(capsys, ["eval", "--series", "h0", "--s", "0.5", "--beta", "0.2"])
        monkeypatch.setenv("BESSELSUM_TOL", "1e-3")
        loose = run_json(capsys, ["eval", "--series", "h0", "--s", "0.5", "--beta", "0.2"])
        assert loose["result"]["terms_used"] < tight["result"]["terms_used"]

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BESSELSUM_TOL", "1e-3")
        doc = run_json(
            capsys,
            ["eval", "--series", "h0", "--s", "0.5", "--beta", "0.2", "--tol", "1e-14"],
        )
        assert doc["request"]["tol"] == 1e-14
        monkeypatch.delenv("BESSELSUM_TOL")
        tight = run_json(
            capsys,
            ["eval", "--series", "h0", "--s", "0.5", "--beta", "0.2", "--tol", "1e-14"],
        )
        assert doc["result"]["terms_used"] == tight["result"]["terms_used"]

    def test_invalid_env_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("BESSELSUM_TOL", "not-a-float")
        code, _, err = run_cli(capsys, ["eval", "--series", "h0", "--s", "0.5",
                                        "--beta", "0.2"])
        assert code == 2
        assert "BESSELSUM_TOL" in err
