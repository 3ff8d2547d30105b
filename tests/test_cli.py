"""Command-line interface: CSV output, config handling, exit codes."""

import json
import math
import re
from pathlib import Path

import pytest

from oscistep.cli import main, parse_complex, fmt_complex

COMPLEX_RE = re.compile(r"^-?[0-9.e+-]+[+-][0-9.e+-]+j$")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_c(text):
    return complex(text.replace("j", "j").strip())


class TestSerialization:
    def test_complex_format(self):
        s = fmt_complex(1 / 3 - 2j / 7)
        assert COMPLEX_RE.match(s)
        assert s == "0.33333333333333331-0.2857142857142857j"
        assert complex(s) == pytest.approx(1 / 3 - 2j / 7)

    def test_parse_complex(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("1.5,-2") == 1.5 - 2j
        from oscistep import ConfigError
        with pytest.raises(ConfigError):
            parse_complex("abc")


class TestStepCommand:
    ARGS = ("step", "--problem", "linear", "--kappa", "4", "--rho", "2",
            "--h", "0.1", "--omega", "100", "--mu", "10", "--u0", "1")

    def test_linear_step_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        u = parse_c(cols["u_next"])
        h, om, mu = 0.1, 100.0, 10.0
        want = 1 + h * h / 2 + h ** 4 / 8 + mu * math.sin(om * h) / om
        assert u == pytest.approx(want, rel=1e-13)

    def test_no_oscillation_reduces_to_taylor(self, capsys):
        code, out, _ = run(capsys, *self.ARGS[:-4], "--mu", "0", "--u0", "1",
                           "--emit-contributions")
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        h = 0.1
        assert parse_c(cols["u_next"]) == pytest.approx(1 + h * h / 2 + h ** 4 / 8,
                                                        rel=1e-14)
        for name in ("term_V", "term_VV", "term_TV", "term_VT"):
            assert parse_c(cols[name]) == 0

    def test_oracle_error_column(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--oracle", "exact")
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        err = float(cols["abs_error"])
        assert err == pytest.approx(abs(parse_c(cols["u_next"]) - parse_c(cols["oracle"])),
                                    rel=1e-12)
        assert err < 1e-3

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS, "--emit-contributions")
        _, out2, _ = run(capsys, *self.ARGS, "--emit-contributions")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, out, _ = run(capsys, *self.ARGS, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("t_next,u_next")


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": "linear", "omega": 100.0, "mu": 10.0, "u0": "1",
            "h": 0.1, "kappa": 4.0, "rho": 2.0}))
        code1, out1, _ = run(capsys, "step", "--config", str(cfg))
        code2, out2, _ = run(capsys, "step", "--config", str(cfg), "--h", "0.05")
        assert code1 == code2 == 0
        assert out1 != out2  # the flag overrode the file value

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": "linear", "stepsize": 0.1}))
        code, _, err = run(capsys, "step", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys" in err

    def test_missing_policy_is_config_error(self, capsys):
        code, _, err = run(capsys, "step", "--problem", "linear", "--h", "0.1")
        assert code == 2
        assert "kappa" in err

    def test_bad_interval_is_config_error(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "linear", "--kappa", "4",
                           "--rho", "2", "--h", "0.1", "--t0", "1.0", "--tend", "0.5")
        assert code == 2

    def test_custom_fourier_requires_table(self, capsys):
        code, _, err = run(capsys, "step", "--problem", "custom-fourier",
                           "--kappa", "2", "--rho", "1", "--h", "0.1")
        assert code == 2
        assert "fourier" in err


    @pytest.mark.parametrize("command", [["solve"], ["bounds"],
                                         ["converge", "--h-list", "0.2,0.1,0.05"]],
                             ids=["solve", "bounds", "converge"])
    def test_step_only_options_rejected(self, capsys, tmp_path, command):
        args = command + ["--problem", "linear", "--kappa", "4", "--rho", "2"]
        for flag in ("--phase-averaged", "--emit-contributions"):
            code, out, err = run(capsys, *args, flag)
            assert code == 2 and out == ""
            assert "'step' only" in err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"phase_averaged": True}))
        code, _, err = run(capsys, *args, "--config", str(cfg))
        assert code == 2 and "'step' only" in err


class TestErrorBoundary:
    """Every rejected input exits 2 and a numeric failure exits 3, each with
    one stderr line, no traceback and nothing on stdout."""

    POLICY = ("--kappa", "4", "--rho", "2")
    REJECTED = {
        "step-kappa-zero": (("step", "--kappa", "0", "--rho", "2"), None),
        "step-words-too-long": (("step", "--kappa", "30", "--rho", "1"), None),
        "termcount-kappa-zero": (("termcount", "--kappa", "0", "--rho", "1"), None),
        "termcount-kappa-not-integer": (("termcount", "--kappa", "1.5", "--rho", "2"), None),
        "termcount-rho-past-float-integers": (("termcount", "--kappa", "1", "--rho", "1e300"),
                                              None),
        "termcount-rho-rounds-as-float": (("termcount", "--kappa", "1",
                                           "--rho", "9007199254740993"), None),
        "solve-h-not-dividing": (("solve", *POLICY, "--h", "0.3", "--tend", "1"), None),
        "converge-negative-h": (("converge", *POLICY, "--h-list", "0.1,0.05,-0.02"),
                                None),
        "bounds-empty-h-list": (("bounds", *POLICY, "--h-list", ""), None),
        "stochastic-rho-prime-zero": (("stochastic-check", "--kappa", "1",
                                       "--rho-prime", "0", "--scheme", "euler"), None),
        "stochastic-kappa-not-a-number": (("stochastic-check", "--kappa", "abc",
                                           "--rho-prime", "1", "--scheme", "euler"), None),
        "step-omega-zero": (("step", *POLICY, "--omega", "0"), None),
        "fourier-mean-only": (("step",), {"problem": "custom-fourier", "kappa": 2,
                                          "rho": 1, "fourier": {"0": 1}}),
        "json-bool-as-string": (("step", *POLICY), {"phase_averaged": "no"}),
        "gamma-flag-not-integer": (("step", *POLICY, "--gamma", "1.5"), None),
        "gamma-json-not-integer": (("step", *POLICY), {"gamma": 1.5}),
        "h-not-finite": (("step", *POLICY, "--h", "nan"), None),
        "json-number-overflows": (("step", *POLICY), {"h": 10 ** 400}),
        "config-not-an-object": (("step", *POLICY), ["h"]),
        "bounds-K-not-finite": (("bounds", *POLICY, "--K", "nan"), None),
        "bounds-h-list-not-finite": (("bounds", *POLICY, "--h-list", "0.1,nan"), None),
        "bounds-box-t-not-finite": (("bounds", *POLICY, "--box-t", "nan"), None),
        "bounds-box-radius-not-finite": (("bounds", *POLICY, "--box-radius", "nan"), None),
        "bounds-box-radius-negative": (("bounds", *POLICY, "--box-radius", "-0.5"), None),
        "converge-couple-c-not-finite": (("converge", *POLICY, "--h-list", "0.2,0.1,0.05",
                                          "--couple-c", "nan"), None),
        "converge-couple-c-zero": (("converge", *POLICY, "--h-list", "0.2,0.1,0.05",
                                    "--couple-c", "0"), None),
        "converge-coupled-zero-h": (("converge", *POLICY, "--h-list", "0.2,0,0.05",
                                     "--couple-c", "1"), None),
        "problem-unknown": (("step", *POLICY, "--problem", "bogus"), None),
        "converge-two-h": (("converge", *POLICY, "--h-list", "0.2,0.1"), None),
        "converge-one-distinct-h": (("converge", *POLICY, "--h-list", "0.1,0.1,0.1"), None),
        "step-h-zero": (("step", *POLICY, "--h", "0"), None),
        "h-list-not-a-number": (("converge", *POLICY, "--h-list", "0.2,abc,0.1"), None),
    }

    @staticmethod
    def assert_one_line_error(code, out, err, want_code):
        assert code == want_code and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv,config", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected_input_exits_2(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv += ("--config", str(path))
        self.assert_one_line_error(*run(capsys, *argv), 2)

    def test_numeric_failure_exits_3(self, capsys):
        # b = u^-1 has no jet at u0 = 0
        self.assert_one_line_error(*run(capsys, "step", "--problem", "power", "--gamma",
                                        "2", "--u0", "0", *self.POLICY), 3)

    def test_overflowing_bound_estimate_exits_3(self, capsys):
        # the norm of the partial t of a = u t overflows at t = 1.25e307
        self.assert_one_line_error(*run(capsys, "bounds", "--problem", "linear", *self.POLICY,
                                        "--box-t", "1e308"), 3)

    def test_step_ignores_tend(self, capsys):
        code, out, _ = run(capsys, "step", *self.POLICY, "--t0", "2", "--oracle", "rk4")
        assert code == 0 and out.startswith("t_next,u_next")

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "step", *self.POLICY, "--config", str(path))
        self.assert_one_line_error(code, out, err, 2)
        assert "cannot read config" in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "row.csv"
        self.assert_one_line_error(*run(capsys, "step", *self.POLICY, "--out", str(target)), 2)
        assert not target.exists()

    @pytest.mark.parametrize("argv", [("converge", "--h-list", "0.2,0.1,0.05"),
                                      ("bounds", "--h-list", "0.2,0.1", "--omega-list", "50")],
                             ids=["converge", "bounds"])
    def test_h_unused_by_list_commands(self, capsys, argv):
        # converge and bounds step by --h-list, so --h 0 is not an error there
        code, out, err = run(capsys, argv[0], *self.POLICY, "--h", "0", *argv[1:])
        assert code == 0 and err == "" and out

    def test_json_out_writes_file(self, capsys, tmp_path):
        path, cfg = tmp_path / "row.csv", tmp_path / "run.json"
        cfg.write_text(json.dumps({"kappa": 4, "rho": 2, "out": str(path)}))
        code, out, _ = run(capsys, "step", "--config", str(cfg))
        assert code == 0 and out == ""
        assert path.read_text().startswith("t_next,u_next")


class TestParser:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{step,solve,converge,termcount,bounds,stochastic-check}" in out

    def test_only_the_chosen_command_is_built(self, capsys, monkeypatch):
        import oscistep.cli as cli

        def refuse(parser):
            raise AssertionError("arguments of an unused command were built")

        for name, (_, runner) in list(cli.COMMANDS.items()):
            if name != "termcount":
                monkeypatch.setitem(cli.COMMANDS, name, (refuse, runner))
        code, out, _ = run(capsys, "termcount", "--kappa", "4", "--rho", "2")
        assert code == 0 and out.startswith("kappa,rho")

    def test_usage_errors_exit_2(self, capsys):
        for argv in ([], ["no-such-command"], ["termcount", "--kappa", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "usage: oscistep" in capsys.readouterr().err


class TestSolveCommand:
    def test_trajectory_row_count(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "linear", "--kappa", "4",
                           "--rho", "2", "--h", "0.02", "--omega", "100",
                           "--mu", "10", "--u0", "1", "--tend", "1.0",
                           "--oracle", "exact")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,u,oracle,abs_error"
        assert len(lines) == 52  # header + 51 trajectory points
        final_err = float(lines[-1].split(",")[-1])
        assert final_err < 2e-3


    def test_rk4_oracle_integrates_the_interval_once(self, capsys, monkeypatch):
        import numpy as np
        import oscistep.cli
        from oscistep import builtin_field, make_oscillator, rk4_micro_solve
        spans = []

        def recording(field, osc, t0, u0, t_end, dt):
            spans.append((t0, t_end))
            return rk4_micro_solve(field, osc, t0, u0, t_end, dt)

        monkeypatch.setattr(oscistep.cli, "rk4_micro_solve", recording)
        code, out, _ = run(capsys, "solve", "--problem", "linear", "--kappa", "4",
                           "--rho", "2", "--omega", "100", "--mu", "10", "--u0", "1",
                           "--h", "0.02", "--t0", "0.1", "--tend", "0.3",
                           "--oracle", "rk4")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 11
        assert sum(b - a for a, b in spans) == pytest.approx(0.2, rel=1e-12)
        # each row's reference matches one RK4 run from t0 to that row
        field, osc = builtin_field("linear", mu=10.0), make_oscillator("cos", 100.0)
        assert parse_c(rows[0][2]) == 1
        for t, _u, oracle, _err in rows[1:]:
            want = rk4_micro_solve(field, osc, 0.1, np.array([1 + 0j]), float(t),
                                   osc.period / 200.0)[-1][1][0]
            assert parse_c(oracle) == pytest.approx(want, rel=1e-10)


class TestConvergeCommand:
    def test_slope_footer_drift_only(self, capsys):
        # kappa0 = 2 truncated Taylor on du/dt = u-ish linear problem with
        # mu = 0: local error is third order
        code, out, _ = run(capsys, "converge", "--problem", "linear",
                           "--kappa0", "2", "--kappa1", "2", "--mu", "0",
                           "--u0", "1", "--omega", "100",
                           "--h-list", "0.4,0.2,0.1,0.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,omega,abs_error"
        footer = lines[-1].split(",")
        assert footer[0] == "slope"
        assert float(footer[1]) == pytest.approx(4.0, abs=0.35)

    def test_coupled_omega_column(self, capsys):
        code, out, _ = run(capsys, "converge", "--problem", "linear",
                           "--kappa", "4", "--rho", "2", "--mu", "10",
                           "--u0", "1", "--couple-c", "1.0",
                           "--h-list", "0.2,0.1,0.05")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:-1]]
        for h, om, _err in rows:
            assert float(om) == pytest.approx(1.0 / float(h) ** 2, rel=1e-12)


class TestTermcountCommand:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "termcount", "--kappa", "3", "--rho", "1")
        assert code == 0
        assert out.strip().splitlines()[1] == "3,1,14"

    def test_matches_enumeration(self, capsys):
        from oscistep import TruncationPolicy, enumerate_words
        code, out, _ = run(capsys, "termcount", "--kappa", "3", "--rho", "2")
        n = int(out.strip().splitlines()[1].split(",")[2])
        assert n == len(enumerate_words(TruncationPolicy.from_order(3, 2)))


class TestStochasticCheckCommand:
    def test_euler_match(self, capsys):
        code, out, _ = run(capsys, "stochastic-check", "--kappa", "1.2",
                           "--rho-prime", "0.75", "--scheme", "euler")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[-1] == "true"
        assert row[4] == "T;V"

    def test_milstein_match_and_mismatch(self, capsys):
        _, out, _ = run(capsys, "stochastic-check", "--kappa", "1",
                        "--rho-prime", "0.5", "--scheme", "milstein")
        assert out.strip().splitlines()[1].split(",")[-1] == "true"
        _, out, _ = run(capsys, "stochastic-check", "--kappa", "3",
                        "--rho-prime", "0.9", "--scheme", "euler")
        assert out.strip().splitlines()[1].split(",")[-1] == "false"


class TestBoundsCommand:
    def test_linear_grid_all_satisfied(self, capsys):
        code, out, _ = run(capsys, "bounds", "--problem", "linear", "--kappa", "4",
                           "--rho", "2", "--mu", "10", "--u0", "1",
                           "--h-list", "0.2,0.1", "--omega-list", "50,200",
                           "--box-t", "0.2", "--box-radius", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith("satisfied")
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.endswith("true")

    def test_violated_bound_sets_exit_code(self, capsys):
        # an absurdly small explicit K makes the bounds fail
        code, out, _ = run(capsys, "bounds", "--problem", "linear", "--kappa", "4",
                           "--rho", "2", "--mu", "10", "--u0", "1",
                           "--h-list", "0.2", "--omega-list", "50", "--K", "1e-6")
        assert code == 1
        assert out.strip().splitlines()[1].endswith("false")

    @pytest.mark.parametrize("nu,calls", [(None, 2), (0.0, 2), (-0.5, 6)],
                             ids=["readme", "custom-fourier-nu0", "custom-fourier-nu-half"])
    def test_bound_estimated_once_per_field(self, capsys, monkeypatch, tmp_path, nu, calls):
        # three omegas; the field depends on omega only through
        # custom-fourier's absorbed mean, c_0 omega^-nu, and each field
        # takes one estimate per order
        import oscistep.cli
        estimate, seen = oscistep.cli.estimate_coefficient_bound, []

        def counting(*args):
            seen.append(args)
            return estimate(*args)

        monkeypatch.setattr(oscistep.cli, "estimate_coefficient_bound", counting)
        if nu is None:
            argv = ("--problem", "linear", "--mu", "10", "--u0", "1")
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({
                "problem": "custom-fourier", "fourier": {"1": 0.5, "-1": [0.2, 0.3], "0": 0.2},
                "nu": nu, "u0": 1}))
            argv = ("--config", str(cfg))
        code, _, _ = run(capsys, "bounds", *argv, "--kappa", "4", "--rho", "2",
                         "--box-t", "0.2", "--box-radius", "0.5")
        assert code == 0
        assert len(seen) == calls

    BOUNDS_OFF_ORIGIN = ("bounds", "--problem", "linear", "--kappa", "4", "--rho", "2",
                         "--mu", "10", "--u0", "1", "--t0", "0.5",
                         "--h-list", "0.1", "--omega-list", "50")

    def test_exact_oracle_rejects_nonzero_t0(self, capsys):
        code, out, err = run(capsys, *self.BOUNDS_OFF_ORIGIN)
        assert code == 2 and out == ""
        assert "closed forms anchor at t0 = 0" in err

    def test_rk4_oracle_used_off_origin(self, capsys):
        import numpy as np
        from oscistep import (TruncationPolicy, build_scheme, builtin_field,
                              make_oscillator, rk4_micro_solve, step)
        code, out, _ = run(capsys, *self.BOUNDS_OFF_ORIGIN, "--oracle", "rk4")
        assert code == 0
        cols = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
        field, osc = builtin_field("linear", mu=10.0), make_oscillator("cos", 50.0)
        u0 = np.array([1 + 0j])
        ref = rk4_micro_solve(field, osc, 0.5, u0, 0.6, osc.period / 200.0)[-1][1][0]
        for k, name in ((1, "error_first"), (2, "error_second")):
            s = step(build_scheme(osc, TruncationPolicy(k, k)), field, 0.5, u0, 0.1)
            assert float(cols[name]) == pytest.approx(abs(s.u_next[0] - ref), rel=1e-9)


class TestOtherProblems:
    def test_phase_averaged_step_matches_library(self, capsys):
        import numpy as np
        from oscistep import (TruncationPolicy, build_scheme, builtin_field,
                              make_oscillator, step_phase_averaged)
        code, out, _ = run(capsys, "step", "--problem", "nonlinear",
                           "--alpha", "0.3", "--mu", "2", "--u0", "1",
                           "--omega", "100", "--h", "0.1",
                           "--kappa", "4", "--rho", "2", "--phase-averaged")
        assert code == 0
        got = parse_c(dict(zip(*[l.split(",") for l in
                                 out.strip().splitlines()]))["u_next"])
        sch = build_scheme(make_oscillator("exp", 100.0),
                           TruncationPolicy.from_order(4, 2))
        want = step_phase_averaged(sch, builtin_field("nonlinear", alpha=0.3, mu=2.0),
                                   0.0, np.array([1.0 + 0j]), 0.1).u_next[0]
        assert got == pytest.approx(want, rel=1e-15)

    def test_freqdep_step_matches_reference(self, capsys):
        from references import freqdep_reference
        code, out, _ = run(capsys, "step", "--problem", "freqdep",
                           "--alpha", "0.7", "--mu", "1", "--u0", "1",
                           "--omega", "100", "--h", "0.1",
                           "--kappa", "4", "--rho", "2")
        assert code == 0
        header, row = out.strip().splitlines()
        got = parse_c(dict(zip(header.split(","), row.split(",")))["u_next"])
        assert got == pytest.approx(freqdep_reference(1.0, 1.0, 0.7, 100.0, 0.1),
                                    rel=1e-12)

    def test_power_problem_with_exact_oracle(self, capsys):
        # truncation error of the 8-term series at dV = sin(0.3) is ~1e-4
        code, out, _ = run(capsys, "step", "--problem", "power", "--gamma", "2",
                           "--omega", "1", "--u0", "1", "--h", "0.3",
                           "--kappa0", "1", "--kappa1", "8", "--oracle", "exact")
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["abs_error"]) < 1e-3

    def test_custom_fourier_exact_oracle_matches_rk4(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": "custom-fourier", "fourier": {"1": 0.5, "-1": [0.2, 0.3], "0": 0.2},
            "nu": -0.5, "kappa": 4, "rho": 2, "omega": 100, "u0": 1, "h": 0.1}))
        oracle = {}
        for name in ("exact", "rk4"):
            code, out, _ = run(capsys, "step", "--config", str(cfg), "--oracle", name)
            assert code == 0
            header, row = out.strip().splitlines()
            oracle[name] = parse_c(dict(zip(header.split(","), row.split(",")))["oracle"])
        assert abs(oracle["exact"] - oracle["rk4"]) < 1e-8

    def test_custom_fourier_with_mean_absorption(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": "custom-fourier", "omega": 80.0, "mu": 1.0,
            "alpha": 0.4, "gamma": -1, "u0": "1", "h": 0.05,
            "kappa": 3.0, "rho": 2.0,
            "fourier": {"0": [0.5, 0.0], "1": [0.5, 0.0], "-1": [0.5, 0.0]},
            "oracle": "rk4"}))
        code, out, _ = run(capsys, "step", "--config", str(cfg))
        assert code == 0
        header, row = out.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["abs_error"]) < 1e-4


class TestReadmeGolden:
    """The README's command-line examples print exactly the bytes recorded
    in ``readme_cli_golden.txt``; refactors must keep stdout identical."""

    COMMANDS = (
        "step --problem linear --kappa 4 --rho 2 --omega 100 --mu 10 "
        "--u0 1 --h 0.1 --oracle exact --emit-contributions",
        "solve --problem nonlinear --alpha 0,2 --mu 10 --kappa 4 --rho 2 "
        "--omega 100 --u0 1 --h 0.02 --tend 1 --oracle exact",
        "converge --problem linear --kappa 4 --rho 2 --mu 10 --u0 1 "
        "--h-list 0.2,0.14,0.1,0.07,0.05 --couple-c 1.0",
        "termcount --kappa 3 --rho 2",
        "bounds --problem linear --kappa 4 --rho 2 --mu 10 --u0 1 "
        "--box-t 0.2 --box-radius 0.5",
        "stochastic-check --kappa 1.2 --rho-prime 0.75 --scheme euler",
    )
    GOLDEN = Path(__file__).with_name("readme_cli_golden.txt")

    @classmethod
    def transcript(cls, capsys) -> str:
        parts = []
        for command in cls.COMMANDS:
            code, out, _ = run(capsys, *command.split())
            parts.append(f"$ oscistep {command}\n# exit {code}\n{out}")
        return "".join(parts)

    def test_commands_match_readme(self):
        # the README's examples, continuation lines joined, prefix dropped
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = readme.replace("\\\n", " ").splitlines()
        documented = tuple(" ".join(line.split()[1:]) for line in lines
                           if line.startswith("oscistep "))
        assert documented == self.COMMANDS

    def test_readme_commands_byte_identical(self, capsys):
        assert self.transcript(capsys) == self.GOLDEN.read_text()
