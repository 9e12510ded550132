"""Span counts of the tracer against counts known independently."""

import numpy as np
import pytest

from algebroid_mech import calculus, cli, gallery, hamilton, hamilton_jacobi
import tracer
from tracer import Tracer


@pytest.mark.parametrize("system,res", [("time_dependent_free", 5), ("vertical_disk", 3)])
def test_grid_gives_one_residual_span_per_point(tmp_path, system, res):
    gs = gallery.instantiate(system)
    k = len(gs.default_box)
    with Tracer() as tr:
        code = cli.main(["hj-check", system, "--resolution", str(res), "--out", str(tmp_path / "hj.json")])
    assert code == 0
    stats, _ = tr.totals()
    assert stats["hamilton_jacobi.hj_residual"][0] == res**k
    # hamilton_jacobi holds its own reference to projected_field
    assert stats["hamilton.projected_field"][0] == res**k
    assert stats["hamilton_jacobi.hj_grid_check"][0] == 1
    assert stats["cli.main"][0] == 1


def test_grid_counts_hold_with_worker_threads(monkeypatch):
    monkeypatch.setenv("ALGEBROID_MECH_THREADS", "2")
    gs = gallery.instantiate("riemannian_flat")
    alpha = gs.reference_sections["reference"]
    with Tracer() as tr:
        hamilton_jacobi.hj_grid_check(gs.system, alpha, gs.default_box, resolution=6)
    stats, _ = tr.totals()
    assert stats["hamilton_jacobi.hj_residual"][0] == 36
    assert stats["util.parallel_map"][0] == 1


@pytest.mark.parametrize("system", ["rolling_ball", "time_dependent_free"])
def test_n_step_lift_gives_4n_field_and_rhs_spans(system):
    gs = gallery.instantiate(system)
    alpha = gs.reference_sections["reference"]
    n = 10
    with Tracer() as tr:
        hamilton_jacobi.verify_lift(gs.system, alpha, np.array(gs.default_q0), 0.0, n * 1e-2, 1e-2)
    stats, counters = tr.totals()
    assert stats["hamilton.projected_field"][0] == 4 * n
    assert stats["hamilton.hamilton_rhs"][0] == 4 * n
    assert stats["calculus.integrate_rk4"][0] == 2
    assert counters["rk4_steps"] == 2 * n
    if system == "rolling_ball":
        assert counters["kernel_builds"] > 0
    else:
        assert counters["kernel_builds"] == 0


def test_self_times_add_up_to_the_root_span(tmp_path):
    with Tracer() as tr:
        cli.main(["lift-verify", "vertical_disk", "--t1", "0.05", "--dt", "1e-2",
                  "--out", str(tmp_path / "lift.json")])
    stats, _ = tr.totals()
    root = stats["cli.main"][1]
    assert sum(rec[2] for rec in stats.values()) == pytest.approx(root, rel=1e-9)
    for calls, total, self_s in stats.values():
        assert 0.0 <= self_s <= total + 1e-12 or calls == 0
    # anchor_at re-enters itself through the force extension; total time
    # counts only the outermost span, so it cannot exceed the root
    assert stats["algebroid.SkewAlgebroid.anchor_at"][1] <= root


def test_fd_evals_count_two_per_coordinate():
    q = np.zeros(3)
    with Tracer() as tr:
        calculus.fd_jacobian(lambda x: x * 2.0, q)
        calculus.fd_gradient(lambda x: float(x @ x), q)
        calculus.fd_gradient(calculus.ScalarField(eval=lambda x: 0.0, grad=lambda x: np.zeros(3)), q)
    _, counters = tr.totals()
    assert counters["fd_evals"] == 12


def test_uninstall_restores_every_namespace():
    originals = (hamilton.projected_field, hamilton_jacobi.projected_field, cli.hj_grid_check,
                 gallery.DualSection.__call__)
    with Tracer():
        assert hamilton_jacobi.projected_field is hamilton.projected_field
        assert hamilton.projected_field is not originals[0]
    assert (hamilton.projected_field, hamilton_jacobi.projected_field, cli.hj_grid_check,
            gallery.DualSection.__call__) == originals


def test_missing_functions_are_reported_absent(monkeypatch):
    missing = (("algebroid", "SkewAlgebroid.at"), ("no_such_module", "f"), ("io", "nothing"))
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + missing)
    tr = Tracer()
    with tr:
        gallery.instantiate("vertical_disk")
    assert tr.absent == ["algebroid.SkewAlgebroid.at", "no_such_module.f", "io.nothing"]
    layers = tr.layer_metrics()
    assert layers["trace.absent_layers"] == 3
    assert layers["algebroid.SkewAlgebroid.at.calls"] == 0
    assert layers["gallery.instantiate.calls"] == 1


def test_paused_calls_are_not_counted():
    gs = gallery.instantiate("riemannian_flat")
    alpha = gs.reference_sections["reference"]
    with Tracer() as tr:
        with tr.paused():
            alpha(np.array([1.0, 0.2]))
        alpha(np.array([1.0, 0.2]))
    stats, _ = tr.totals()
    assert stats["algebroid.DualSection.__call__"][0] == 1
