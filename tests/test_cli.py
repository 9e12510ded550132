import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from algebroid_mech import (Curve, DualSection, HamiltonianSystem, MorphismEndpoint, ScalarField, algebroid, cli, hamilton,
                            hamilton_jacobi, integrate_rk4, io)
from algebroid_mech.errors import NumericFailure
from algebroid_mech.cli import main
from algebroid_mech.gallery import GALLERY_IDS, instantiate


def run_cli(args):
    return main(list(args))


class TestGalleryList:
    def test_lists_all_systems(self, tmp_path):
        out = tmp_path / "gallery.json"
        assert run_cli(["gallery", "list", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert sorted(e["id"] for e in data) == sorted(GALLERY_IDS)

    def test_stdout(self, capsys):
        assert run_cli(["gallery", "list"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == len(GALLERY_IDS)


class TestSimulate:
    def test_disk_phi_column_matches_closed_form(self, tmp_path, disk):
        out = tmp_path / "disk.csv"
        q0 = ",".join(format(v, ".17g") for v in disk.default_q0)
        x0 = q0 + ",1,0"  # reference momenta at phi0 = pi/2: (k, -K sin(pi/2)/sqrt(J))
        alpha = disk.reference_sections["reference"]
        x0 = ",".join(
            format(v, ".17g")
            for v in list(disk.default_q0) + list(alpha(np.array(disk.default_q0)))
        )
        code = run_cli(
            ["simulate", "vertical_disk", "--x0", x0, "--t0", "0", "--t1", "1",
             "--dt", "1e-3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,q1,q2,q3,q4,p1,p2"
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[0] - 1.0) < 1e-12
        assert abs(last[4] - disk.reference_solutions["phi"](1.0)) < 1e-6

    def test_section_based_start_and_json(self, tmp_path):
        out = tmp_path / "ball.json"
        code = run_cli(
            ["simulate", "rolling_ball", "--section", "reference", "--t1", "0.5",
             "--dt", "1e-2", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["trajectory"]["columns"][0] == "t"
        assert "config" in data

    def test_bad_state_length(self):
        assert run_cli(["simulate", "vertical_disk", "--x0", "1,2,3", "--t1", "1"]) == 2

    def test_unknown_system(self, capsys):
        assert run_cli(["simulate", "unknown_system", "--t1", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_numeric_failure_exit_code(self):
        # start at a primary body: the potential is singular there
        gs = instantiate("three_body_drag")
        x0 = f"{gs.params['mu1']},0,0,0"
        assert run_cli(["simulate", "three_body_drag", "--x0", x0, "--t1", "1"]) == 3

    def test_negative_dt_is_usage_error(self):
        assert run_cli(
            ["simulate", "vertical_disk", "--x0", "0,0,0,0,1,0", "--t1", "1", "--dt", "-1"]
        ) == 2


class TestHJCheck:
    def test_ball_reference_passes(self, tmp_path):
        out = tmp_path / "hj.json"
        code = run_cli(
            ["hj-check", "rolling_ball", "--section", "reference", "--resolution", "3",
             "--tol", "1e-9", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["report"]["pass"] is True
        assert data["config"]["tol"] == 1e-9

    def test_probe_section_fails_with_report(self, tmp_path):
        out = tmp_path / "hj_fail.json"
        code = run_cli(
            ["hj-check", "three_body_drag", "--section", "dS", "--resolution", "3",
             "--tol", "1e-9", "--out", str(out)]
        )
        assert code == 1
        data = json.loads(out.read_text())
        assert data["report"]["pass"] is False

    def test_custom_box(self, tmp_path):
        out = tmp_path / "hj_box.json"
        code = run_cli(
            ["hj-check", "time_dependent_free", "--box", "1:2,-1:1", "--resolution", "3,4",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["report"]["grid"]["points"] == 12

    def test_nan_residual_exits_numeric(self, monkeypatch, capsys):
        # a NaN at the last grid point used to be dropped and the check passed
        gs = instantiate("time_dependent_free")
        alpha = gs.reference_sections["reference"]

        def jac(q):
            return np.full((1, 2), np.nan) if q[0] == 3.5 and q[1] == 2.0 else alpha.jac(q)

        broken = dataclasses.replace(
            gs, reference_sections={"reference": DualSection(alpha.components, "V*", jac)}
        )
        monkeypatch.setattr(cli, "instantiate", lambda *args, **kw: broken)
        assert run_cli(["hj-check", "time_dependent_free", "--resolution", "3"]) == 3
        assert "non-finite at q=[3.5, 2.0]" in capsys.readouterr().err


    def test_cylinder_branch_point_is_a_domain_error(self, tmp_path, capsys):
        # x_max = 0 is a grid point; S1'' = -m K1 W / (1 + W) divided by zero there (exit 1, no report)
        out = tmp_path / "hj.json"
        assert run_cli(["hj-check", "cylinder_friction", "--box=-0.5:0.5,-0.3:0.7", "--resolution", "3",
                        "--out", str(out)]) == 3
        assert "x=0 at the Lambert branch point" in capsys.readouterr().err
        assert not out.exists()

    def test_a_grid_product_past_int64_is_still_capped(self, tmp_path, capsys, monkeypatch):
        # 65536^4 = 2^64 wrapped to 0 in int64 and passed the cap; the sweep then built the grid
        def no_grid(*axes):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(hamilton_jacobi.itertools, "product", no_grid)
        out = tmp_path / "hj.json"
        assert run_cli(["hj-check", "vertical_disk", "--resolution", "65536,65536,65536,65536",
                        "--out", str(out)]) == 2
        assert f"grid of {2 ** 64} points exceeds the cap 100000" in capsys.readouterr().err
        assert not out.exists()

    def test_disk_reference_at_the_exact_frame_floor(self, tmp_path):
        # the disk's frame derivative is analytic; the stencil left 3.1e-11 on this 11^4 grid
        out = tmp_path / "hj.json"
        assert run_cli(["hj-check", "vertical_disk", "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["grid"]["points"] == 11 ** 4
        assert report["max_norm"] <= 1e-14


class TestBoxBounds:
    @pytest.mark.parametrize("argv,message", [
        (["hj-check", "riemannian_flat", "--box=nan:1,0:1", "--resolution", "3"], "box bounds must be finite, got nan:1"),
        (["hj-check", "riemannian_flat", "--box=1:0,0:1", "--resolution", "3"],
         "box bounds must satisfy lo < hi, got 1:0"),
        (["cocycle-check", "riemannian_flat", "--box=-inf:1,0:1"], "box bounds must be finite, got -inf:1"),
    ])
    def test_usage_error_and_no_report(self, argv, message, tmp_path, capsys):
        # these were a numeric failure with an array repr, a reversed grid,
        # and NaN samples (exit 3) after sample_box accepted an infinite bound
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBoxAxes:
    @pytest.mark.parametrize("command", [["hj-check", "--resolution", "3"], ["cocycle-check", "--samples", "2"],
                                         ["morphism-check", "--samples", "2"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("system,box,dim", [("rolling_ball", "0:1,0:1", 3), ("riemannian_flat", "0:1,0:1,0:1", 2)],
                             ids=["short", "long"])
    def test_wrong_axis_count_is_usage_error(self, command, system, box, dim, tmp_path, capsys):
        # a short box used to die with an IndexError (exit 1) and a long one
        # with numpy's unpack or matmul message
        out = tmp_path / "out"
        assert run_cli([command[0], system, *command[1:], f"--box={box}", "--out", str(out)]) == 2
        assert f"--box needs {dim} axes for {system}" in capsys.readouterr().err
        assert not out.exists()


class TestVectorArguments:
    @pytest.mark.parametrize(
        "argv,option,value",
        [
            (["hj-check", "vertical_disk", "--resolution", "2"], "--box", "-0.5:0.5,-0.5:0.5,-1:1,-1:1"),
            (["simulate", "vertical_disk", "--t1", "0.01"], "--q0", "-0.1,0.2,-0.3,0.4"),
            (["simulate", "vertical_disk", "--t1", "0.01"], "--x0", "-0.1,0.2,-0.3,0.4,1,-.5"),
            (["flag-rank", "vertical_disk", "--depth", "2"], "--point", "-0.1,0.2,-0.3,0.4"),
        ],
    )
    def test_separated_negative_vector_matches_attached(self, tmp_path, argv, option, value):
        outs = []
        for name, form in (("sep", [option, value]), ("eq", [f"{option}={value}"])):
            out = tmp_path / name
            assert run_cli(argv + form + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv,option,value,code,message",
        [
            (["simulate", "cylinder_friction"], "--x0", "-inf,0,1,1", 3, "initial state non-finite"),
            (["simulate", "cylinder_friction"], "--q0", "-inf,0", 3, "initial state non-finite"),
            (["hj-check", "rolling_ball"], "--box", "-inf:0,0:1,0:1", 2, "box bounds must be finite, got -inf:0"),
            (["hj-check", "rolling_ball"], "--box", "-Infinity:0,0:1,0:1", 2, "box bounds must be finite, got -inf:0"),
            (["flag-rank", "vertical_disk"], "--point", "-nan,0,0,0", 3, "flag depth 2: "),
            (["flag-rank", "vertical_disk"], "--point", "-NaN,0,0,0", 3, "flag depth 2: "),
        ],
    )
    def test_separated_non_finite_vector_matches_attached(self, tmp_path, capsys, argv, option, value, code,
                                                          message):
        # a separated leading -inf or -nan used to die in argparse with
        # "expected one argument"
        errs = []
        for name, form in (("sep", [option, value]), ("eq", [f"{option}={value}"])):
            out = tmp_path / name
            assert run_cli(argv + form + ["--out", str(out)]) == code
            errs.append(capsys.readouterr().err)
            assert not out.exists()
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: " + message)

    @pytest.mark.parametrize(
        "argv,option,value,code,err",
        [
            (["simulate", "cylinder_friction", "--t1", "0.01"], "--t0", "-1e-3", 0, ""),
            (["morphism-check", "vertical_disk", "--morphism", "momentum-scale", "--samples", "4"], "--factor",
             "-1e-3", 1, ""),
            (["simulate", "cylinder_friction", "--t1", "0.01"], "--dt", "-1e-3", 2, "error: dt must be positive\n"),
        ],
        ids=["t0", "factor", "dt"],
    )
    def test_separated_negative_number_matches_attached(self, tmp_path, capsys, argv, option, value, code, err):
        # a separated value in scientific notation used to die in argparse with
        # "expected one argument" after any option but the five vector ones
        results = []
        for name, form in (("sep", [option, value]), ("eq", [f"{option}={value}"])):
            out = tmp_path / name
            code_ = run_cli(argv + form + ["--out", str(out)])
            results.append((code_, out.read_bytes() if out.exists() else None, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == code and results[0][2] == err


class TestParamValues:
    @pytest.mark.parametrize("value", ["abc", "", "1,2"])
    def test_non_number_names_the_flag_and_parameter(self, value, tmp_path, capsys):
        # this was Python's bare "could not convert string to float"
        out = tmp_path / "out"
        assert run_cli(["simulate", "cylinder_friction", "--param", f"m={value}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --param m expects a number, got {value!r}\n"
        assert not out.exists()

    def test_missing_equals_sign_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["simulate", "cylinder_friction", "--param", "m", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --param expects name=value, got 'm'\n"
        assert not out.exists()


class TestZeroParameters:
    # the unforced disk and a still table used to raise ZeroDivisionError at construction
    @pytest.mark.parametrize("system,param", [("vertical_disk", "K=0"), ("rolling_ball", "Omega0=0")])
    @pytest.mark.parametrize("argv", [["simulate", "--t1", "1", "--dt", "1e-2"], ["hj-check"],
                                      ["lift-verify", "--t1", "1", "--dt", "1e-2"]],
                             ids=["simulate", "hj-check", "lift-verify"])
    def test_commands_exit_zero(self, system, param, argv, tmp_path):
        out = tmp_path / "out"
        assert run_cli([argv[0], system, "--param", param, *argv[1:], "--out", str(out)]) == 0
        if argv[0] != "simulate":
            assert json.loads(out.read_text())["report"]["pass"] is True


class TestValueParseErrors:
    @pytest.mark.parametrize("argv,flag,value,expects", [
        (["hj-check", "vertical_disk"], "--resolution", "abc", "an integer or comma-separated integers"),
        (["hj-check", "vertical_disk"], "--resolution", "2.5", "an integer or comma-separated integers"),
        (["hj-check", "vertical_disk"], "--resolution", "3,x", "an integer or comma-separated integers"),
        (["hj-check", "vertical_disk"], "--box", "a:b,0:1,0:1,0:1", "comma-separated lo:hi numbers"),
        (["hj-check", "vertical_disk"], "--box", "0:1,0,0:1,0:1", "comma-separated lo:hi numbers"),
        (["simulate", "vertical_disk"], "--q0", "1,a", "comma-separated decimals"),
        (["simulate", "vertical_disk"], "--x0", "1,a", "comma-separated decimals"),
        (["flag-rank", "vertical_disk"], "--point", "0,x,0,0", "comma-separated decimals"),
    ], ids=["resolution-abc", "resolution-2.5", "resolution-3,x", "box-a:b", "box-no-colon", "q0", "x0", "point"])
    def test_message_names_the_flag(self, argv, flag, value, expects, tmp_path, capsys):
        # these were Python's bare int() / float() messages, or named no flag
        out = tmp_path / "out"
        assert run_cli(argv + [flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} expects {expects}, got {value!r}\n"
        assert not out.exists()


class TestLiftVerify:
    def test_disk_reference(self, tmp_path):
        out = tmp_path / "lift.json"
        code = run_cli(
            ["lift-verify", "vertical_disk", "--t1", "1", "--dt", "1e-2", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["report"]["max_deviation"] < 1e-8


class TestCocycleCheck:
    def test_adapted_frame_cocycle(self, tmp_path):
        out = tmp_path / "coc.json"
        code = run_cli(
            ["cocycle-check", "rolling_ball", "--samples", "16", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["report"]["max_violation"] == 0.0

    def test_ball_section_fails_on_kernel(self, tmp_path):
        out = tmp_path / "coc_v.json"
        code = run_cli(
            ["cocycle-check", "rolling_ball", "--on", "v", "--section", "reference",
             "--samples", "16", "--out", str(out)]
        )
        assert code == 1
        data = json.loads(out.read_text())
        assert data["report"]["max_violation"] > 0.1

    def test_on_v_requires_section(self):
        assert run_cli(["cocycle-check", "rolling_ball", "--on", "v"]) == 2

    @pytest.mark.parametrize("system", ["cylinder_friction", "rolling_ball"])
    def test_on_e_reads_the_morphism_endpoints_e0(self, system, monkeypatch, tmp_path):
        # one e^0 builder serves the cocycle check and the morphism check
        checked = []
        check = cli.check_cocycle
        monkeypatch.setattr(cli, "check_cocycle",
                            lambda A, phi, *args, **kw: checked.append(phi) or check(A, phi, *args, **kw))
        assert run_cli(["cocycle-check", system, "--samples", "2", "--out", str(tmp_path / "out")]) == 0
        endpoint = MorphismEndpoint.from_system(instantiate(system).system)
        q = np.zeros(endpoint.algebroid.chart.dim)
        e0 = np.eye(endpoint.algebroid.rank)[0]
        for phi in (checked[0], endpoint.cocycle):
            assert type(phi.components) is algebroid._Constant
            assert phi(q).tobytes() == e0.tobytes()
            assert not phi(q).flags.writeable


class TestFlagRank:
    def test_disk_reaches_full_rank(self, tmp_path):
        out = tmp_path / "flag.json"
        code = run_cli(
            ["flag-rank", "vertical_disk", "--point", "0,0,0,0", "--depth", "4",
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["report"]["ranks"][-1] == 4
        assert data["report"]["full_rank"] is True

    def test_wrong_point_dim(self):
        assert run_cli(["flag-rank", "vertical_disk", "--point", "0,0"]) == 2

    @pytest.mark.parametrize("depth", ["0", "257", "1000000", "abc"])
    def test_depth_outside_the_field_cap_is_usage_error(self, depth, tmp_path, capsys):
        # depth 0 named no flag, and a depth of 1e6 exited 0 after padding a 9 MB report
        out = tmp_path / "flag.json"
        assert run_cli(["flag-rank", "vertical_disk", "--point", "0,0,0,0", "--depth", depth, "--out", str(out)]) == 2
        assert f"argument --depth: expected an integer in 1..256, got {depth!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_at_the_field_cap(self, tmp_path):
        out = tmp_path / "flag.json"
        assert run_cli(["flag-rank", "vertical_disk", "--point", "0,0,0,0", "--depth", "256", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["ranks"] == [2, 3, 4] + [4] * 253

    def test_non_finite_point_is_numeric_failure(self, tmp_path, capsys):
        # used to exit 2 with numpy's "SVD did not converge", naming no point
        out = tmp_path / "flag.json"
        assert run_cli(["flag-rank", "vertical_disk", "--point=nan,0,0,0", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "flag depth 2" in err and "non-finite at q=[nan, 0.0, 0.0, 0.0]" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_point_names_it_as_a_list(self, tmp_path, capsys):
        # the Lie brackets' stencil used to subtract inf - inf with a numpy
        # warning and name q=array([...])
        out = tmp_path / "flag.json"
        assert run_cli(["flag-rank", "vertical_disk", "--point=0,0,inf,0", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "flag depth 2: finite-difference base point non-finite at q=[0.0, 0.0, inf, 0.0]" in err
        assert not out.exists()


class TestMorphismCheck:
    def test_identity_passes(self, tmp_path):
        out = tmp_path / "mor.json"
        code = run_cli(
            ["morphism-check", "cylinder_friction", "--morphism", "identity",
             "--samples", "8", "--out", str(out)]
        )
        assert code == 0

    def test_momentum_scale_fails(self, tmp_path):
        out = tmp_path / "mor2.json"
        code = run_cli(
            ["morphism-check", "cylinder_friction", "--morphism", "momentum-scale",
             "--samples", "8", "--out", str(out)]
        )
        assert code == 1
        data = json.loads(out.read_text())
        assert data["reports"]["hamiltonian_pullback"]["pass"] is False


SAMPLED_CHECKS = [
    ["cocycle-check", "cylinder_friction"],
    ["morphism-check", "cylinder_friction", "--morphism", "momentum-scale"],
]


class TestSampleCount:
    @pytest.mark.parametrize("samples", ["0", "-3", "100001"])
    @pytest.mark.parametrize("argv", SAMPLED_CHECKS)
    def test_no_samples_is_usage_error(self, argv, samples, tmp_path, capsys):
        # a sampled check with no samples would pass vacuously; more than the
        # cap used to allocate them all first, and a MemoryError exited 1
        message = {"100001": "100001 samples exceed the cap 100000"}.get(samples, "samples must be >= 1")
        out = tmp_path / "out"
        assert run_cli(argv + ["--samples", samples, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSeed:
    @pytest.mark.parametrize("argv", SAMPLED_CHECKS)
    def test_negative_seed_is_usage_error_naming_the_flag(self, argv, tmp_path, capsys):
        # numpy's own message named no flag
        out = tmp_path / "out"
        assert run_cli(argv + ["--seed", "-1", "--out", str(out)]) == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteArguments:
    @pytest.mark.parametrize("argv,message", [
        (["simulate", "cylinder_friction", "--t1", "inf"], "t0, t1 and dt must be finite"),
        (["simulate", "cylinder_friction", "--t1", "1e300", "--dt", "1e-10"], "(t1 - t0) / dt must be finite"),
        (["dissipation", "cylinder_friction", "--t1", "1", "--dt", "inf"], "t0, t1 and dt must be finite"),
        (["lift-verify", "time_dependent_free", "--t1", "inf"], "t0, t1 and dt must be finite"),
        (["hj-check", "cylinder_friction", "--tol", "nan"], "expected a finite number"),
        (["cocycle-check", "cylinder_friction", "--tol", "inf"], "expected a finite number"),
        (["morphism-check", "cylinder_friction", "--tol", "nan"], "expected a finite number"),
        (["hj-check", "vertical_disk", "--param", "m=nan"], "parameter m must be finite, got nan"),
        (["simulate", "rolling_ball", "--param", "m=nan"], "parameter m must be finite, got nan"),
        (["cocycle-check", "cylinder_friction", "--param", "K1=nan"], "parameter K1 must be finite, got nan"),
        (["lift-verify", "vertical_disk", "--param", "K=-inf"], "parameter K must be finite, got -inf"),
        (["morphism-check", "cylinder_friction", "--morphism", "momentum-scale", "--factor", "nan"],
         "expected a finite number, got 'nan'"),
        (["morphism-check", "cylinder_friction", "--morphism", "momentum-scale", "--factor", "inf"],
         "expected a finite number, got 'inf'"),
        (["hj-check", "riemannian_flat", "--resolution", "3", "--tol", "-1"],
         "argument --tol: expected a non-negative number, got '-1'"),
        (["lift-verify", "time_dependent_free", "--tol", "-1e-9"],
         "argument --tol: expected a non-negative number, got '-1e-9'"),
        (["cocycle-check", "cylinder_friction", "--tol", "-1"], "argument --tol: expected a non-negative number"),
        (["morphism-check", "cylinder_friction", "--tol", "-0.5"], "argument --tol: expected a non-negative number"),
    ])
    def test_usage_error_and_no_report(self, argv, message, tmp_path, capsys):
        # an infinite time used to crash with OverflowError (exit 1), an
        # infinite tolerance passed every check in a report that is not JSON,
        # a NaN parameter or factor failed later with an unrelated message,
        # and a negative tolerance wrote a report that could never pass
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_zero_tolerance_is_valid(self, tmp_path):
        # max_norm is 6e-17 here, so the check runs and fails against 0
        out = tmp_path / "out"
        assert run_cli(["hj-check", "riemannian_flat", "--resolution", "3", "--tol", "0", "--out", str(out)]) == 1
        report = json.loads(out.read_text())["report"]
        assert report["tol"] == 0.0 and 0.0 < report["max_norm"] < 1e-15


class TestLiftVerifyQ0:
    @pytest.mark.parametrize("q0", ["--q0=0,1", "--q0=0,1,2,3"])
    def test_wrong_length_is_usage_error_and_no_report(self, q0, tmp_path, capsys):
        # a short q0 used to die with IndexError (exit 1), a long one with numpy's broadcast message
        out = tmp_path / "out"
        assert run_cli(["lift-verify", "rolling_ball", q0, "--t1", "0.1", "--out", str(out)]) == 2
        assert "--q0 needs 3 components for rolling_ball" in capsys.readouterr().err
        assert not out.exists()


class TestStepCap:
    @pytest.mark.parametrize("argv", [
        ["simulate", "time_dependent_free", "--t1", "1e9", "--dt", "1e-3"],
        ["dissipation", "cylinder_friction", "--t1", "1e9"],
        ["lift-verify", "time_dependent_free", "--t1", "1e4", "--dt", "1e-3"],
    ])
    def test_over_the_cap_is_usage_error_and_no_report(self, argv, tmp_path, capsys):
        # 10^12 steps used to be accepted and ran until killed, writing nothing
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert "RK4 steps exceed the cap 1000000" in capsys.readouterr().err
        assert not out.exists()


class TestParserCache:
    def test_usage_error_then_valid_command(self, tmp_path):
        argv = ["simulate", "cylinder_friction", "--t1", "0.1", "--dt", "1e-2", "--format", "json"]
        cli.build_parser.cache_clear()
        assert run_cli(["simulate", "cylinder_friction", "--dt", "abc"]) == 2
        after = tmp_path / "after.json"
        assert run_cli(argv + ["--out", str(after)]) == 0
        assert cli.build_parser() is cli.build_parser()
        cli.build_parser.cache_clear()
        fresh = tmp_path / "fresh.json"
        assert run_cli(argv + ["--out", str(fresh)]) == 0
        assert after.read_bytes() == fresh.read_bytes()


class TestDissipation:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "diss.csv"
        code = run_cli(
            ["dissipation", "vertical_disk", "--t1", "0.2", "--dt", "1e-2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,H,rate"
        assert len(lines) == 22

    @pytest.mark.parametrize("system", ["vertical_disk", "cylinder_friction"])
    def test_rows_across_a_chunk_boundary_are_the_per_row_bytes(self, system, tmp_path):
        # 1,101 rows: a full sweep chunk of 1,024, then a short one
        out = tmp_path / "diss.csv"
        argv = ["dissipation", system, "--t0", "0", "--t1", "1.1", "--dt", "1e-3"]
        assert run_cli(argv + ["--out", str(out)]) == 0
        gs, curve = cli._integrate(cli.build_parser().parse_args(argv))
        assert len(curve) > algebroid.PREFETCH_CHUNK
        rows = [(t, gs.system.H(x), hamilton.dissipation_rate(gs.system, x)) for t, x in zip(curve.times, curve.points)]
        assert out.read_text() == io.table_csv(["t", "H", "rate"], rows)

    @staticmethod
    def failing_at(monkeypatch, h_row=None, grad_row=None):
        """cylinder_friction whose H value raises at row ``h_row`` of the trajectory and whose gradient raises at
        row ``grad_row``, both only once the trajectory is integrated."""
        gs = instantiate("cylinder_friction")
        H, rows = gs.system.H, []

        def at(x, row):
            return row is not None and bool(rows) and np.array_equal(x, rows[0][row])

        def value(x):
            if at(x, h_row):
                raise NumericFailure(f"H fails at row {h_row}")
            return H.eval(x)

        def grad(x):
            if at(x, grad_row):
                raise NumericFailure(f"dH fails at row {grad_row}")
            return H.grad(x)

        system = HamiltonianSystem(algebroid=gs.system.algebroid, H=ScalarField(eval=value, grad=grad))
        monkeypatch.setattr(cli, "instantiate", lambda *args, **kw: dataclasses.replace(gs, system=system))
        integrate = cli.integrate_hamilton

        def integrate_then_arm(*args):
            curve = integrate(*args)
            rows.append(curve.points)
            return curve

        monkeypatch.setattr(cli, "integrate_hamilton", integrate_then_arm)

    @pytest.mark.parametrize("h_row,grad_row,error", [
        (3, None, "H fails at row 3"),  # the stacked rates pass; H raises at its row
        (None, 5, "dH fails at row 5"),  # the stacked pass raises, the rerun at the same row
        (3, 5, "H fails at row 3"),  # the rerun meets H's earlier row first
        (5, 5, "H fails at row 5"),  # within a row, H before the rate
        (6, 5, "dH fails at row 5"),
    ])
    def test_the_error_is_the_first_failing_rows(self, h_row, grad_row, error, monkeypatch, tmp_path, capsys):
        self.failing_at(monkeypatch, h_row, grad_row)
        out = tmp_path / "diss.csv"
        assert run_cli(["dissipation", "cylinder_friction", "--t1", "0.02", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("x0,scaled,error", [
        ("0,0,1e200,0", False, "H non-finite at q=[0.0, 0.0], p=[1e+200, 0.0]"),  # the rate is -inf too: H comes first
        ("0,0,1e5,0", True, "dissipation rate non-finite at q=[0.0, 0.0], p=[100000.0, 0.0]"),  # H is 5e9
    ])
    def test_a_non_finite_row_fails_naming_its_state(self, x0, scaled, error, monkeypatch, tmp_path, capsys):
        if scaled:  # every rate, stacked or not, 1e300 times the cylinder's -p_x^2: -inf from the first row on
            rate = cli.dissipation_rate
            monkeypatch.setattr(cli, "dissipation_rate", lambda sys_, x: rate(sys_, x) * 1e300)
        out = tmp_path / "diss.csv"
        argv = ["dissipation", "cylinder_friction", "--x0", x0, "--t1", "2e-3", "--dt", "1e-3", "--out", str(out)]
        assert run_cli(argv) == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_a_non_finite_start_prints_only_its_error(self, tmp_path):
        # numpy's overflow warnings, which named the package's source lines, no longer precede the error
        argv = ["dissipation", "cylinder_friction", "--x0", "0,0,1e200,0", "--t1", "2e-3", "--dt", "1e-3",
                "--out", str(tmp_path / "diss.csv")]
        proc = subprocess.run([sys.executable, "-m", "algebroid_mech", *argv], capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr == "error: H non-finite at q=[0.0, 0.0], p=[1e+200, 0.0]\n"

    def test_a_user_callable_error_names_the_state(self, monkeypatch, tmp_path, capsys):
        # math's domain error in every rate, stacked or not: the sweep's rerun names the first row's q and p apart
        monkeypatch.setattr(cli, "dissipation_rate", lambda sys_, x: math.sqrt(-1.0))
        out = tmp_path / "diss.csv"
        argv = ["dissipation", "cylinder_friction", "--x0", "0.5,0,1.5,-0.25", "--t1", "2e-3", "--dt", "1e-3",
                "--out", str(out)]
        assert run_cli(argv) == 3
        assert capsys.readouterr().err == "error: math domain error at q=[0.5, 0.0], p=[1.5, -0.25]\n"
        assert not out.exists()


class TestCsvWriters:
    VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -3.0, 1e16, 0.1, 1 / 3, -2.5e-7]

    @staticmethod
    def _per_value(header, rows):  # the writers' text, one format(float(v), ".17g") per field
        return "\n".join([",".join(header)] + [",".join(format(float(v), ".17g") for v in row) for row in rows]) + "\n"

    def test_table_csv_matches_the_per_value_text(self):
        rows = [(np.float64(v), v, float(i)) for i, v in enumerate(self.VALUES)]
        text = io.table_csv(["t", "H", "rate"], rows)
        assert text == self._per_value(["t", "H", "rate"], rows)
        assert text.splitlines()[1:4] == ["-0,-0,0", "0,0,1", "4.9406564584124654e-324,4.9406564584124654e-324,2"]

    def test_trajectory_csv_matches_the_per_value_text(self):
        times = np.arange(len(self.VALUES), dtype=float)
        points = np.column_stack([self.VALUES, self.VALUES[::-1]])
        header = ["t", "q1", "p1"]
        text = io.trajectory_csv(Curve(times, points), header)
        assert text == self._per_value(header, [[t, *row] for t, row in zip(times, points)])
        assert text.splitlines()[1] == "0,-0,-2.4999999999999999e-07"


class TestDeterminism:
    def test_hj_check_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                ["hj-check", "rolling_ball", "--section", "reference", "--resolution", "3",
                 "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_cocycle_check_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(
                ["cocycle-check", "vertical_disk", "--samples", "16", "--seed", "7",
                 "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestOmegaOffTheBall:
    def test_linear_omega_is_a_usage_error_without_a_report(self, tmp_path):
        out = tmp_path / "hj.json"
        argv = ["hj-check", "vertical_disk", "--omega", "linear", "--resolution", "3", "--out", str(out)]
        assert run_cli(argv) == 2
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "algebroid_mech", "gallery", "list"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli([]) == 2

    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0


SYSTEM_FLAGS = {"param": None, "omega": "constant"}
HORIZON = {"t0": None, "t1": None, "dt": 1e-3}
START = {"x0": None, "q0": None, "section": None, **HORIZON}
# each subcommand: the argv that parses to its defaults, the namespace it
# parses to (beyond command, out and handler), and for the JSON reports the
# flags of a short run with their parsed values
SUBCOMMANDS = {
    "gallery": (["list"], {"action": "list"}, None),
    "simulate": (["riemannian_flat"], {**SYSTEM_FLAGS, "system": "riemannian_flat", **START, "format": "csv"},
                 {"--format": "json", "--t1": 0.01}),
    "dissipation": (["riemannian_flat"], {**SYSTEM_FLAGS, "system": "riemannian_flat", **START}, None),
    "hj-check": (["riemannian_flat"], {**SYSTEM_FLAGS, "system": "riemannian_flat", "section": "reference",
                                      "box": None, "resolution": "11", "tol": 1e-9}, {"--resolution": "2"}),
    "lift-verify": (["riemannian_flat"], {**SYSTEM_FLAGS, "system": "riemannian_flat", "section": "reference",
                                         "q0": None, **HORIZON, "tol": 1e-6}, {"--t1": 0.01}),
    "cocycle-check": (["riemannian_flat"], {**SYSTEM_FLAGS, "system": "riemannian_flat", "on": "e", "section": None,
                                           "box": None, "samples": 128, "seed": 42, "tol": 1e-9}, {"--samples": 2}),
    "flag-rank": (["vertical_disk", "--point", "0,0,0,0"], {**SYSTEM_FLAGS, "system": "vertical_disk",
                                                            "point": "0,0,0,0", "depth": 4}, {"--depth": 1}),
    "morphism-check": (["riemannian_flat"], {**SYSTEM_FLAGS, "system": "riemannian_flat", "morphism": "identity",
                                            "factor": None, "box": None, "samples": 64, "seed": 42, "tol": 1e-6},
                       {"--samples": 2}),
}
# the report's config records a value its handler resolves from an unset flag
RESOLVED = {"morphism-check": {"factor": 2.0}}


class TestSubcommandDeclarations:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_namespace_dests_and_defaults(self, command):
        argv, expected, _ = SUBCOMMANDS[command]
        ns = vars(cli.build_parser().parse_args([command, *argv]))
        assert ns.pop("handler") is getattr(cli, "_cmd_" + command.replace("-", "_"))
        expected = {"command": command, "out": None, **expected}
        assert ns == expected
        assert {k: type(v) for k, v in ns.items()} == {k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("command", [c for c, (_, _, run) in SUBCOMMANDS.items() if run])
    def test_report_config(self, command, tmp_path):
        argv, defaults, run = SUBCOMMANDS[command]
        out = tmp_path / "report.json"
        flags = [tok for flag, val in run.items() for tok in (flag, str(val))]
        assert run_cli([command, *argv, *flags, "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        extra = {"checked"} if command == "cocycle-check" else set()
        assert set(config) == set(defaults) | {"system_params", "version"} | extra
        expected = {**defaults, **RESOLVED.get(command, {}), **{flag[2:]: val for flag, val in run.items()}}
        assert {k: config[k] for k in expected} == expected

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_zero(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: algebroid-mech {command} ")


class TestConflictingFlags:
    @pytest.mark.parametrize("argv,message", [
        (["cocycle-check", "riemannian_flat", "--on", "e", "--section", "reference", "--samples", "4"],
         "error: --section applies only to --on v"),
        (["cocycle-check", "riemannian_flat", "--section", "reference", "--samples", "4"],
         "error: --section applies only to --on v"),
        (["simulate", "riemannian_flat", "--x0", "1,0.3,0.1,0.2", "--q0", "2,0", "--section", "reference"],
         "error: --x0 gives the whole initial state; it excludes --q0 and --section"),
        (["simulate", "riemannian_flat", "--x0", "1,0.3,0.1,0.2", "--section", "reference"],
         "excludes --q0 and --section"),
        (["dissipation", "riemannian_flat", "--x0", "1,0.3,0.1,0.2", "--q0", "2,0"], "excludes --q0 and --section"),
    ], ids=["cocycle-on-e", "cocycle-default-on", "simulate-x0-q0-section", "simulate-x0-section",
            "dissipation-x0-q0"])
    def test_usage_error_and_no_report(self, argv, message, tmp_path, capsys):
        # each exited 0 and ignored a flag: --section, or --q0 and --section
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEmptyAndUnreadValues:
    @pytest.mark.parametrize("argv,message", [
        (["simulate", "riemannian_flat", "--x0=", "--t1", "0.01"],
         "error: --x0 expects comma-separated decimals, got ''"),
        (["simulate", "riemannian_flat", "--section=", "--t1", "0.01"], "error: unknown section ''; known:"),
        (["lift-verify", "riemannian_flat", "--q0=", "--t1", "0.01"],
         "error: --q0 expects comma-separated decimals, got ''"),
        (["hj-check", "time_dependent_free", "--box=", "--resolution", "3"],
         "error: --box expects comma-separated lo:hi numbers, got ''"),
        (["cocycle-check", "riemannian_flat", "--box=", "--samples", "4"],
         "error: --box expects comma-separated lo:hi numbers, got ''"),
        (["morphism-check", "vertical_disk", "--samples", "4", "--factor", "3"],
         "error: --factor applies only to --morphism momentum-scale, not identity"),
        (["morphism-check", "vertical_disk", "--samples", "4", "--morphism", "mu-projection", "--factor", "2"],
         "error: --factor applies only to --morphism momentum-scale, not mu-projection"),
    ], ids=["simulate-x0", "simulate-section", "lift-verify-q0", "hj-check-box", "cocycle-check-box",
            "factor-identity", "factor-mu-projection"])
    def test_usage_error_and_no_report(self, argv, message, tmp_path, capsys):
        # each exited 0: an empty value ran from the default, and --factor was ignored
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


class TestSectionSpace:
    """Every command that reads a named section reads it on V*: a section on E* is a usage error naming the
    section and the space, raised before any point is read; it writes no report."""

    @pytest.mark.parametrize("argv", [
        ["cocycle-check", "three_body_drag", "--on", "v", "--section", "beta_probe"],
        ["hj-check", "three_body_drag", "--section", "beta_probe"],
        ["lift-verify", "three_body_drag", "--section", "beta_probe"],
        ["simulate", "three_body_drag", "--section", "beta_probe"],  # it failed on the state's length
        ["dissipation", "three_body_drag", "--section", "beta_probe"],
    ], ids=lambda argv: argv[0])
    def test_an_e_star_section_is_a_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: section 'beta_probe' of three_body_drag is on E*; a V* section is needed\n"
        assert not out.exists()

    def test_the_same_section_on_its_own_space_passes(self, tmp_path):
        assert run_cli(["cocycle-check", "three_body_drag", "--on", "v", "--section", "dS",
                        "--out", str(tmp_path / "report.json")]) == 0


class TestNumericFailureInAUserCallable:
    def test_a_math_domain_error_names_its_grid_point(self, tmp_path, capsys):
        # the reference section's sin(phase(t)) at t = -1e200, where the linear law's phase overflows to inf
        out = tmp_path / "report.json"
        argv = ["hj-check", "rolling_ball", "--omega", "linear", "--box=-1e200:1e200,-1:1,-1:1", "--resolution", "3"]
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: math domain error at q=[-1e+200, -1.0, -1.0]\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc", [ValueError("bad value"), OverflowError("math range error")], ids=str)
    def test_a_sampled_check_names_the_first_failing_sample(self, exc, monkeypatch, tmp_path, capsys):
        # a user callable's ValueError or ArithmeticError at the fourth sample, in the sweep's pointwise rerun
        gs = instantiate("cylinder_friction")
        bad = algebroid.sample_box(gs.default_box, 16, 7)[3]
        inner = gs.section("reference")

        def components(q):
            if np.array_equal(q, bad):
                raise exc
            return inner(q)

        section = DualSection(components=components, space="V*", jacobian=inner.jacobian)
        monkeypatch.setattr(cli, "_load_system", lambda args: dataclasses.replace(
            gs, reference_sections={"reference": section}))
        assert run_cli(["cocycle-check", "cylinder_friction", "--on", "v", "--section", "reference", "--samples", "16",
                        "--seed", "7", "--out", str(tmp_path / "report.json")]) == 3
        assert capsys.readouterr().err == f"error: {exc} at q={bad.tolist()}\n"

    def test_a_morphism_check_names_the_sample_point_without_its_momenta(self, monkeypatch, tmp_path, capsys):
        # the sweep's rows are (q, p) and the fiber map raises at the fourth sample's q (at its p-stencil points
        # too): the error names that q, as the check's non-finite values do
        gs = instantiate("cylinder_friction")
        bad = algebroid.sample_box(gs.default_box, 16, 7)[3]

        def fiber_map(q, p):
            if (np.atleast_2d(q) == bad).all(axis=1).any():
                raise ValueError("bad value")
            return p

        monkeypatch.setitem(cli._FIBER_MAPS, "identity", lambda factor: fiber_map)
        assert run_cli(["morphism-check", "cylinder_friction", "--samples", "16", "--seed", "7",
                        "--out", str(tmp_path / "report.json")]) == 3
        assert capsys.readouterr().err == f"error: bad value at q={bad.tolist()}\n"

    @pytest.mark.parametrize("command", ["simulate", "dissipation"])
    def test_a_math_domain_error_at_the_start_names_its_base_point(self, command, tmp_path, capsys):
        # the reference section's sin(phase(t)) at the start q0, where the linear law's phase overflows to inf
        out = tmp_path / "rows.csv"
        argv = [command, "rolling_ball", "--omega", "linear", "--q0=-1e200,0,0", "--t1", "0.01", "--dt", "1e-3"]
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: math domain error at q=[-1e+200, 0.0, 0.0]\n"
        assert not out.exists()

    def test_a_math_domain_error_inside_rk4_names_its_step(self, tmp_path, capsys):
        # the base flow's first stage reads the section at q0, where the linear law's phase overflows to inf
        out = tmp_path / "report.json"
        assert run_cli(["lift-verify", "rolling_ball", "--omega", "linear", "--q0=-1e200,0,0",
                        "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: math domain error in the step from t=0\n"
        assert not out.exists()

    def test_a_lifted_section_error_names_its_base_point(self, monkeypatch, tmp_path, capsys):
        # the section raises only at the base curve's final point, which RK4 never reads; before, the lift's
        # read of it exited 2, the usage code, naming no point
        gs = instantiate("cylinder_friction")
        inner = gs.section("reference")
        q0 = np.array(gs.default_q0)
        final = integrate_rk4(lambda t, q: hamilton.projected_field(gs.system, inner, q), q0, 0.0, 0.1, 1e-2).points[-1]

        def components(q):
            if q.tobytes() == final.tobytes():
                raise ValueError("math domain error")
            return inner(q)

        section = DualSection(components=components, space="V*")
        monkeypatch.setattr(cli, "_load_system", lambda args: dataclasses.replace(
            gs, reference_sections={"reference": section}))
        out = tmp_path / "report.json"
        assert run_cli(["lift-verify", "cylinder_friction", "--t1", "0.1", "--dt", "1e-2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: math domain error at q={final.tolist()}\n"
        assert not out.exists()

    def test_an_argument_check_keeps_the_usage_code(self, tmp_path, capsys):
        assert run_cli(["simulate", "rolling_ball", "--omega", "linear", "--q0=-1e200,0", "--out",
                        str(tmp_path / "rows.csv")]) == 2
        assert capsys.readouterr().err == "error: --q0 needs 3 components for rolling_ball\n"
