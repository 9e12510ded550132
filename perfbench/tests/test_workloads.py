"""Seeded inputs and the correctness gate."""

import json

import pytest

import gate
import worker
import workloads
from algebroid_mech import cli

VECTOR_FLAGS = ("--box", "--q0", "--x0", "--point")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_fixed_mix(workload):
    a = workloads.round_ops(workload, 7, 3)
    assert a == workloads.round_ops(workload, 7, 3)
    b = workloads.round_ops(workload, 8, 3)
    assert [op.argv for op in a] != [op.argv for op in b]
    assert [op.label for op in a] == [op.label for op in b]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_vector_flags_are_joined_with_equals(workload):
    for op in workloads.round_ops(workload, 3, 0):
        assert not any(tok in VECTOR_FLAGS for tok in op.argv), op.argv


def _run(op, tmp_path):
    path = tmp_path / "out"
    code = cli.main(list(op.argv) + ["--out", str(path)])
    return code, path.read_text() if path.exists() else ""


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_round_passes_the_gate(workload, tmp_path):
    sections = worker.setup(workload)[1]
    for op in workloads.round_ops(workload, 5, 0):
        code, text = _run(op, tmp_path)
        assert gate.check_op(op, code, text, sections) == [], op.argv


def _first(workload, label):
    return next(op for op in workloads.round_ops(workload, 5, 0) if op.label == label)


def test_non_finite_report_fails_even_when_it_passes(tmp_path):
    op = _first("point_checks", "hj-check time_dependent_free")
    code, text = _run(op, tmp_path)
    data = json.loads(text)
    data["report"]["worst"][-1]["residual"][0] = float("nan")
    problems = gate.check_op(op, code, json.dumps(data), {})
    assert problems and "non-finite" in problems[0]


def test_wrong_exit_code_fails():
    op = _first("point_checks", "cocycle-check-v rolling_ball/constant")
    assert gate.check_op(op, 0, "", {}) == ["exit code 0, expected 1"]


def test_expected_failure_must_fail_for_real(tmp_path):
    op = _first("point_checks", "cocycle-check-v rolling_ball/constant")
    code, text = _run(op, tmp_path)
    data = json.loads(text)
    data["report"]["max_violation"] = 0.0
    assert gate.check_op(op, code, json.dumps(data), {})


def test_broken_lift_property_fails(tmp_path):
    op = _first("trajectories", "simulate riemannian_flat")
    sections = worker.setup("trajectories")[1]
    code, text = _run(op, tmp_path)
    lines = text.strip().split("\n")
    row = lines[-1].split(",")
    row[-1] = repr(float(row[-1]) + 1e-6)
    lines[-1] = ",".join(row)
    problems = gate.check_op(op, code, "\n".join(lines) + "\n", sections)
    assert problems and "lift property" in problems[0]


def test_rate_that_does_not_integrate_to_h_fails(tmp_path):
    op = _first("trajectories", "dissipation three_body_drag")
    code, text = _run(op, tmp_path)
    lines = text.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[2] = repr(float(row[2]) + 1e-3)
    bad = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    problems = gate.check_op(op, code, bad, {})
    assert problems and "integrate" in problems[0]
