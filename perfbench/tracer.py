"""Per-layer tracer that wraps the library's public functions from outside.

``Tracer`` replaces each target function with a timing wrapper in every
``algebroid_mech`` module namespace that holds a reference to it (a
``from .hamilton import projected_field`` in ``hamilton_jacobi`` is a
second reference that must be patched too), and on the owning class for
methods.  Targets that no longer exist are reported as absent.

Each thread keeps its own span stack.  A span's self time is its duration
minus the durations of its direct child spans in the same thread.  Total
time is counted only for the outermost span of a function, so a function
that re-enters itself (a force extension's ``anchor_at`` calling the base
algebroid's ``anchor_at``) is not counted twice.  Spans are aggregated
as they close; none are kept.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "algebroid_mech"

# (module, qualified name) of every wrapped function
TARGETS = (
    ("cli", "main"),
    ("gallery", "instantiate"),
    ("io", "trajectory_csv"),
    ("io", "table_csv"),
    ("io", "dump_json"),
    ("hamilton_jacobi", "hj_grid_check"),
    ("hamilton_jacobi", "verify_lift"),
    ("hamilton_jacobi", "hj_residual"),
    ("hamilton", "hamilton_rhs"),
    ("hamilton", "projected_field"),
    ("hamilton", "_pdot_rhs"),
    ("hamilton", "poisson_bracket_eval"),
    ("hamilton", "dissipation_rate"),
    ("hamilton", "HamiltonianSystem.h_partials"),
    ("algebroid", "SkewAlgebroid.anchor_at"),
    ("algebroid", "SkewAlgebroid.structure_at"),
    ("algebroid", "check_cocycle"),
    ("algebroid", "d_oneform_eval"),
    ("algebroid", "flag_rank"),
    ("algebroid", "DualSection.__call__"),
    ("algebroid", "DualSection.jac"),
    ("constructions", "morphism_check"),
    ("calculus", "integrate_rk4"),
    ("calculus", "fd_jacobian"),
    ("calculus", "fd_gradient"),
    ("util", "parallel_map"),
    ("lambertw", "lambert_w"),
)

# An fd_jacobian span inside one of these is a construction-kernel build:
# the only caller there is the kernel's cold per-point ``compute``.
KERNEL_SCOPES = ("algebroid.SkewAlgebroid.anchor_at", "algebroid.SkewAlgebroid.structure_at")
IO_FUNCTIONS = ("io.trajectory_csv", "io.table_csv", "io.dump_json")

COUNTERS = ("rk4_steps", "fd_evals", "kernel_builds", "kernel_s", "scope_calls", "io_bytes")


class _ThreadState:
    __slots__ = ("stack", "depth", "stats", "scope", "counters")

    def __init__(self):
        self.stack = []  # per open span: [time covered by its child spans]
        self.depth = {}  # function name -> open spans of it
        self.stats = {}  # function name -> [calls, total_s, self_s]
        self.scope = 0  # open kernel-scope spans
        self.counters = dict.fromkeys(COUNTERS, 0)


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.totals()``."""

    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in TARGETS]
        self.absent = []
        self.active = False
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self):
        importlib.import_module(PACKAGE)
        for (mod_name, qual), name in zip(TARGETS, self.names):
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            if "." in qual:
                cls_name, attr = qual.split(".", 1)
                cls = getattr(module, cls_name, None)
                orig = vars(cls).get(attr) if isinstance(cls, type) else None
                if not callable(orig):
                    self.absent.append(name)
                    continue
                self._patch(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(module, qual, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for mod in list(sys.modules.values()):
                mod_id = getattr(mod, "__name__", "")
                if mod_id != PACKAGE and not mod_id.startswith(PACKAGE + "."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, wrapper)
        self.active = True
        return self

    def uninstall(self):
        self.active = False
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (used by the correctness gate)."""
        prev, self.active = self.active, False
        try:
            yield
        finally:
            self.active = prev

    # -- spans ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name, fn):
        tracer = self
        scope = name in KERNEL_SCOPES
        fd = name in ("calculus.fd_jacobian", "calculus.fd_gradient")
        jacobian = name == "calculus.fd_jacobian"
        rk4 = name == "calculus.integrate_rk4"
        io = name in IO_FUNCTIONS
        if fd:
            ScalarField = importlib.import_module(f"{PACKAGE}.calculus").ScalarField

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            rec = st.stats.get(name)
            if rec is None:
                rec = st.stats[name] = [0, 0.0, 0.0]
            depth = st.depth.get(name, 0)
            st.depth[name] = depth + 1
            kernel = False
            if scope:
                if st.scope == 0:
                    st.counters["scope_calls"] += 1
                st.scope += 1
            elif fd:
                f = args[0] if args else kwargs.get("f")
                q = args[1] if len(args) > 1 else kwargs["q"]
                analytic = not jacobian and isinstance(f, ScalarField) and f.grad is not None
                st.counters["fd_evals"] += 0 if analytic else 2 * len(q)
                kernel = jacobian and st.scope > 0
            frame = [0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                st.depth[name] = depth
                rec[0] += 1
                rec[2] += dt - frame[0]
                if depth == 0:
                    rec[1] += dt
                if scope:
                    st.scope -= 1
                if kernel:
                    st.counters["kernel_builds"] += 1
                    st.counters["kernel_s"] += dt
            if rk4:
                st.counters["rk4_steps"] += len(result) - 1
            elif io:
                st.counters["io_bytes"] += len(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- results --------------------------------------------------------

    def totals(self):
        """(stats, counters) summed over threads; stats maps each target
        name to [calls, total_s, self_s]."""
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        counters = dict.fromkeys(COUNTERS, 0)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.stats.items():
                for i in range(3):
                    stats[name][i] += rec[i]
            for key, val in st.counters.items():
                counters[key] += val
        return stats, counters

    def layer_metrics(self, per: float = 1.0) -> dict:
        """Per-layer metrics divided by ``per`` (the number of rounds).

        Absent targets read 0 and are counted in ``trace.absent_layers``.
        """
        stats, c = self.totals()
        out = {}
        for name in self.names:
            calls, total, self_s = stats[name]
            out[f"{name}.calls"] = calls / per
            out[f"{name}.total_s"] = total / per
            out[f"{name}.self_s"] = self_s / per
        out["io.bytes"] = c["io_bytes"] / per
        out["calculus.rk4_steps"] = c["rk4_steps"] / per
        out["calculus.fd_evals"] = c["fd_evals"] / per
        out["constructions.kernel_builds"] = c["kernel_builds"] / per
        out["constructions.kernel_s"] = c["kernel_s"] / per
        out["constructions.kernel_reuse"] = (
            1.0 - c["kernel_builds"] / c["scope_calls"] if c["scope_calls"] else 1.0
        )
        out["trace.absent_layers"] = float(len(self.absent))
        return out
