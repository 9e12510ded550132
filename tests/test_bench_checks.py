"""``benchmarks/bench_checks.py``: its exit code says whether every tree gave
the same outputs, and its JSON is written either way; its constrained-flow
commands are the benchmark workload's ops."""

import importlib.util
import json
import locale
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "benchmarks" / "bench_checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "commands", lambda seed: [["gallery", "list"], ["cocycle-check", "rolling_ball"]])
    monkeypatch.setattr(module, "CONSTRUCTIONS", ())
    monkeypatch.setattr(module, "STAGES", ())
    return module


@pytest.mark.parametrize("differ", [False, True])
def test_exit_code_says_whether_the_outputs_are_equal(bench, differ, tmp_path, monkeypatch, capsys):
    def run_once(src, argv, out):  # the cocycle check's output differs between the trees when ``differ``
        digest = src.name if differ and argv[0] == "cocycle-check" else "same"
        return {"exit": 0, "run_s": 0.1, "wall_s": 0.2, "max_violation": {}, "max_norm": None,
                "max_deviation": None, "output_sha256": digest, "stderr_sha256": "same"}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    code = bench.main(["--tree", f"parent={tmp_path / 'a'}", "--tree", f"change={tmp_path / 'b'}", "--k", "1",
                       "--out", str(out)])
    data = json.loads(out.read_text())
    assert code == (1 if differ else 0)
    assert data["outputs_equal"] is not differ
    assert data["outputs_differ"] == (["cocycle-check rolling_ball"] if differ else [])
    assert ("differs: cocycle-check rolling_ball" in capsys.readouterr().out) is differ


def test_each_tree_is_compiled_before_its_first_timed_run(bench, tmp_path, monkeypatch):
    # a tree without bytecode used to read wall_s 20-30 ms high on every command; the bytecode goes to a
    # temporary cache prefix that every child reads, so no measured tree gets a __pycache__.  The untimed
    # warm-up also writes there the bytecode of numpy, which the CLI imports, and of locale, which a command's
    # run imports, where PYTHONDONTWRITEBYTECODE left the prefix with the tree's alone
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = {label: tmp_path / label for label in ("parent", "change")}
    for src in trees.values():
        (src / "algebroid_mech").mkdir(parents=True)
        (src / "algebroid_mech" / "__init__.py").write_text("X = 1\n")
        (src / "algebroid_mech" / "cli.py").write_text("import numpy\n\n\ndef main(argv):\n    import locale\n")
    compiled_at_run, prefixes = [], set()
    saved = sys.pycache_prefix

    def run_once(src, argv, out):
        prefix = bench.child_env(src)["PYTHONPYCACHEPREFIX"]
        prefixes.add(prefix)
        pyc = Path(importlib.util.cache_from_source(str(src / "algebroid_mech" / "__init__.py")))
        warm = [Path(importlib.util.cache_from_source(module.__file__)) for module in (np, locale)]
        compiled_at_run.append(prefix == sys.pycache_prefix and pyc.is_relative_to(prefix) and pyc.exists()
                               and all(p.is_relative_to(prefix) and p.exists() for p in warm)
                               and bench.child_env(src)["PYTHONDONTWRITEBYTECODE"] == "1"
                               and not (src / "algebroid_mech" / "__pycache__").exists())
        return {"exit": 0, "run_s": 0.1, "wall_s": 0.2, "max_violation": {}, "max_norm": None,
                "max_deviation": None, "output_sha256": "same", "stderr_sha256": "same"}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench.main([arg for label, src in trees.items() for arg in ("--tree", f"{label}={src}")]
                      + ["--k", "1", "--out", str(out)]) == 0
    assert compiled_at_run == [True] * 4  # two commands in each of two trees
    entries = json.loads(out.read_text())["entries"]
    assert {label: e["bytecode_compiled"] for label, e in entries.items()} == {"parent": True, "change": True}
    assert {label: e["src_code_lines"] for label, e in entries.items()} == {"parent": 4, "change": 4}
    assert sys.pycache_prefix == saved and len(prefixes) == 1 and not Path(prefixes.pop()).exists()
    assert [p for src in trees.values() for p in src.rglob("__pycache__")] == []


@pytest.fixture
def bench_and_workloads(monkeypatch):
    """``bench_checks.py`` and ``perfbench/workloads.py``, loaded from their files."""
    modules = {}
    for name, path in (("bench_checks", "benchmarks/bench_checks.py"), ("perfbench_workloads", "perfbench/workloads.py")):
        spec = importlib.util.spec_from_file_location(name, ROOT / path)
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])  # its dataclasses resolve their annotations here
        spec.loader.exec_module(modules[name])
    return modules["bench_checks"], modules["perfbench_workloads"]


def test_constrained_flows_commands_are_the_workload_ops_at_their_sizes(bench_and_workloads):
    bench, workloads = bench_and_workloads
    # the workload draws each op's start; the commands take the default one
    ops = workloads.constrained_flows(np.random.default_rng(0))
    expect = [[a for a in op.argv if not a.startswith("--q0=")] for op in ops]
    assert [list(argv) for argv in bench.CONSTRAINED_FLOWS] == expect
    assert all(argv in bench.commands(11) for argv in expect)


def test_point_check_grids_are_the_workload_hj_checks_at_their_resolutions(bench_and_workloads):
    bench, workloads = bench_and_workloads
    # the workload draws each grid's box; the commands take the default one
    ops = [op for op in workloads.point_checks(np.random.default_rng(0)) if op.kind == "hj-check"]
    expect = sorted([op.argv[0], op.system, "--resolution", op.argv[op.argv.index("--resolution") + 1]] for op in ops)
    assert sorted(list(argv) for argv in bench.POINT_CHECK_GRIDS) == expect
    assert all(list(argv) in bench.commands(11) for argv in bench.POINT_CHECK_GRIDS)


def test_a_flag_rank_command_has_a_coordinate_beyond_one(bench_and_workloads):
    # below |q_i| = 1 every flag step is 1e-3, as at the README's origin; the workload draws from [-pi, pi]^4
    bench, _ = bench_and_workloads
    points = [argv[argv.index("--point") + 1] for argv in bench.commands(11) if argv[0] == "flag-rank"]
    assert any(abs(float(x)) > 1.0 for point in points for x in point.split(","))


def test_disk_commands_read_non_zero_force_rows(bench_and_workloads):
    # the disk's force F = K cos(phi) / J is ~6e-17 at its default start phi = pi/2
    bench, _ = bench_and_workloads
    disk = [argv for argv in bench.commands(11) if argv[:2] in (["dissipation", "vertical_disk"],
                                                               ["lift-verify", "vertical_disk"])]
    starts = [next((a for a in argv if a.startswith("--q0=")), None) for argv in disk]
    forced = [argv for argv, q0 in zip(disk, starts) if q0 and abs(np.cos(float(q0.split(",")[3]))) > 0.5]
    assert forced == [list(argv) for argv in bench.FORCED_DISK]
    assert {argv[0] for argv in forced} == {"dissipation", "lift-verify"}
    assert all("K=2.5" in argv for argv in forced)


def test_the_linear_law_ball_runs_its_stacked_kernel_build(bench_and_workloads):
    # no README command, workload op or other command sweeps the kernel over a C_E that varies with q
    bench, _ = bench_and_workloads
    linear = [argv for argv in bench.commands(11) if argv[:2] != ["lift-verify", "rolling_ball"]
              and argv not in bench.HANDLER_PATHS and "--omega" in argv and argv[argv.index("--omega") + 1] == "linear"]
    assert linear == [["hj-check", "rolling_ball", "--omega", "linear", "--resolution", "4"],
                      ["cocycle-check", "rolling_ball", "--omega", "linear", "--samples", "16", "--seed", "11"]]


def test_three_checks_sweep_more_than_one_chunk(bench_and_workloads):
    # the stack forms of the disk's and the morphisms' declared callables, over a full chunk and a short one
    bench, _ = bench_and_workloads
    from algebroid_mech.algebroid import PREFETCH_CHUNK

    long = [argv for argv in bench.commands(11) if "--samples" in argv
            and int(argv[argv.index("--samples") + 1]) > PREFETCH_CHUNK]
    assert long == [["cocycle-check", "vertical_disk", "--samples", "1100", "--seed", "11"],
                    ["morphism-check", "vertical_disk", "--samples", "1100", "--seed", "11"],
                    ["morphism-check", "rolling_ball", "--morphism", "mu-projection", "--samples", "1100",
                     "--seed", "11"]]
    assert int(bench.CHUNK_BOUNDARY_SAMPLES) < 2 * PREFETCH_CHUNK


def test_stages_are_every_gallery_system_and_the_linear_law_ball(bench_and_workloads):
    bench, _ = bench_and_workloads
    assert bench.STAGES == tuple((g, "constant") for g in bench.GALLERY) + (("rolling_ball", "linear"),)
    assert bench.STAGE_OPS == ("hamilton_rhs", "projected_field", "hj_residual", "rk4_step")
    assert bench.STAGE_POINTS == 200 and bench.STAGE_STEPS == 200 and bench.STAGE_ROUNDS == 20
    # the timed run of STAGE_STEPS steps of 1e-3 takes exactly that many full steps
    from algebroid_mech.calculus import integrate_rk4

    assert len(integrate_rk4(lambda t, x: -x, [1.0], 0.0, bench.STAGE_STEPS * 1e-3, 1e-3)) == bench.STAGE_STEPS + 1


def fake_run_once(src, argv, out):
    return {"exit": 0, "run_s": 0.1, "wall_s": 0.2, "max_violation": {}, "max_norm": None, "max_deviation": None,
            "output_sha256": "same", "stderr_sha256": "same"}


def test_stages_are_timed_side_by_side_in_one_child_per_round(bench, tmp_path, monkeypatch):
    # the real stage child on two copies of this tree, at k = 2 over a few points and steps, for a constant system
    # and the linear-law ball; the child raises unless every timed function is read from its own tree's src, so
    # the second import must not find the first tree's modules
    trees = {}
    for label in ("parent", "change"):
        trees[label] = tmp_path / label
        shutil.copytree(ROOT / "src" / "algebroid_mech", trees[label] / "algebroid_mech",
                        ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(bench, "STAGES", (("three_body_drag", "constant"), ("rolling_ball", "linear")))
    monkeypatch.setattr(bench, "STAGE_POINTS", 5)
    monkeypatch.setattr(bench, "STAGE_STEPS", 3)
    monkeypatch.setattr(bench, "STAGE_ROUNDS", 2)
    monkeypatch.setattr(bench, "run_once", fake_run_once)
    calls = []
    stage_round = bench.stage_round
    monkeypatch.setattr(bench, "stage_round", lambda trees_, rnd: calls.append(rnd) or stage_round(trees_, rnd))
    out = tmp_path / "bench.json"
    assert bench.main([arg for label, src in trees.items() for arg in ("--tree", f"{label}={src}")]
                      + ["--k", "2", "--out", str(out)]) == 0
    assert calls == [0, 1]  # one child per round, for every stage
    data = json.loads(out.read_text())
    for e in data["entries"].values():
        assert [(s["system"], s["omega"]) for s in e["stages"]] == [("three_body_drag", "constant"),
                                                                  ("rolling_ball", "linear")]
        assert all(0.0 < s[op] < 1e6 for s in e["stages"] for op in bench.STAGE_OPS)
    for s in data["run_s_ratio"]["stages"]:
        assert all(s[op]["rounds"] == 4 and 0 <= s[op]["wins"] <= 4 and s[op]["q1"] <= s[op]["median"] <= s[op]["q3"]
                   for op in bench.STAGE_OPS)


def test_a_tree_without_its_own_package_fails_the_stage_child(bench, tmp_path, monkeypatch):
    # an empty src would import the package from elsewhere on the path, here this repository's src
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setattr(bench, "STAGES", (("three_body_drag", "constant"),))
    (tmp_path / "empty").mkdir()
    with bench.bytecode_outside_the_trees(), pytest.raises(RuntimeError, match=r"instantiate read from .*, not from "):
        bench.stage_round({"only": tmp_path / "empty"}, 0)


def test_medians_and_per_round_ratios_are_recorded(bench, tmp_path, monkeypatch):
    # run_s by tree and round; the rounds alternate which tree runs first
    times = {"parent": [1.0, 3.0, 2.0], "change": [2.0, 3.0, 1.0]}
    calls = {}

    def run_once(src, argv, out):
        rnd = calls[src.name, tuple(argv)] = calls.get((src.name, tuple(argv)), -1) + 1
        return {"exit": 0, "run_s": times[src.name][rnd], "wall_s": 0.5, "max_violation": {}, "max_norm": None,
                "max_deviation": None, "output_sha256": "same", "stderr_sha256": "same"}

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench.main(["--tree", f"parent={tmp_path / 'parent'}", "--tree", f"change={tmp_path / 'change'}",
                       "--k", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    for e in data["entries"].values():  # the best of k stays beside the median
        assert [(r["run_s"], r["median_run_s"]) for r in e["commands"]] == [(1.0, 2.0)] * 2
    ratio = data["run_s_ratio"]
    assert ratio["of"] == "change/parent"
    # per-round ratios 2, 1 and 0.5, for each command and for the round's total
    expect = {"q1": 0.75, "median": 1.0, "q3": 1.5}
    assert ratio["total"] == expect
    assert ratio["commands"] == [{"argv": argv, **expect} for argv in (["gallery", "list"], ["cocycle-check", "rolling_ball"])]


def test_stage_ratios_are_per_round(bench, tmp_path, monkeypatch):
    # rk4_step by tree and child, one inner round each, the other layers constant; the medians alone would read 1.0
    steps = {"parent": [10.0, 30.0, 20.0], "change": [20.0, 30.0, 10.0]}
    monkeypatch.setattr(bench, "STAGES", (("three_body_drag", "constant"),))
    monkeypatch.setattr(bench, "stage_round", lambda trees, rnd: [
        {label: [[5.0], [5.0], [5.0], [steps[label][rnd]]] for label in trees}])
    monkeypatch.setattr(bench, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench.main(["--tree", f"parent={tmp_path / 'parent'}", "--tree", f"change={tmp_path / 'change'}",
                       "--k", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [e["stages"][0]["rk4_step"] for e in data["entries"].values()] == [20.0, 20.0]
    same = {"q1": 1.0, "median": 1.0, "q3": 1.0, "wins": 0, "rounds": 3}
    assert data["run_s_ratio"]["stages"] == [{
        "system": "three_body_drag", "omega": "constant", "hamilton_rhs": same, "projected_field": same,
        "hj_residual": same, "rk4_step": {"q1": 0.75, "median": 1.0, "q3": 1.5, "wins": 1, "rounds": 3}}]


def test_one_tree_records_no_ratio(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench.main(["--tree", f"only={tmp_path / 'only'}", "--k", "2", "--out", str(out)]) == 0
    assert "run_s_ratio" not in json.loads(out.read_text())


CODE_LINES_FIXTURE = '''"""A module docstring,
over two lines."""

# a comment alone
import math  # a comment after code


class A:
    """A class docstring."""

    x = """a string over two lines,
not a docstring"""

    def f(self):
        """A function docstring."""
        # another comment alone
        return (math.pi +
                2)
'''


def test_code_lines_skip_blank_comment_and_docstring_lines(bench, tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(CODE_LINES_FIXTURE)
    # import, class, the two lines of x, def and the two lines of return
    assert bench.code_lines(path) == 7
    (tmp_path / "algebroid_mech").mkdir()
    for name in ("a.py", "b.py"):
        (tmp_path / "algebroid_mech" / name).write_text(CODE_LINES_FIXTURE)
    assert bench.src_code_lines(tmp_path) == 14 and bench.src_lines(tmp_path) == 2 * 18
