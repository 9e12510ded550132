"""Small shared utilities: the grid sweep's map."""

from __future__ import annotations


def parallel_map(fn, items):
    """Sequential, order-preserving map: ``[fn(x) for x in items]``.

    Grid sweeps run sequentially, in grid order, on the calling thread.  The
    name is kept only because the benchmark's tracer wraps this function and
    counts one call per chunk of an ``hj_grid_check``.
    """
    return [fn(x) for x in items]
