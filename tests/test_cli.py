import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from algebroid_mech import DualSection, cli
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


class TestSampleCount:
    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["cocycle-check", "cylinder_friction"],
        ["morphism-check", "cylinder_friction", "--morphism", "momentum-scale"],
    ])
    def test_no_samples_is_usage_error(self, argv, samples, capsys):
        # a sampled check with no samples would pass vacuously
        assert run_cli(argv + ["--samples", samples]) == 2
        assert "samples must be >= 1" in capsys.readouterr().err


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
    ])
    def test_usage_error_and_no_report(self, argv, message, tmp_path, capsys):
        # an infinite time used to crash with OverflowError (exit 1), an
        # infinite tolerance passed every check in a report that is not JSON,
        # and a NaN parameter or factor failed later with an unrelated message
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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
