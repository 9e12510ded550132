"""Serialization helpers: diff-stable JSON and trajectory CSV.

CSV is RFC-4180 style with a header row, '.' decimal separator and 17
significant digits per float.  JSON is pretty-printed with sorted keys so
reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .calculus import Curve


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def trajectory_header(chart, n_momenta: int) -> list:
    return ["t"] + [f"q{i+1}" for i in range(chart.dim)] + [f"p{a+1}" for a in range(n_momenta)]


def trajectory_csv(curve: Curve, header) -> str:
    return _csv(header, np.column_stack([curve.times, curve.points]))


def table_csv(header, rows) -> str:
    return _csv(header, rows)


def _csv(header, rows) -> str:
    values = np.asarray(rows, dtype=float)
    fmt = ",".join(["{:.17g}"] * values.shape[-1]).format  # each field the text of format(float(v), ".17g")
    return "\n".join([",".join(header)] + [fmt(*row) for row in values.tolist()]) + "\n"


def curve_json_dict(curve: Curve, header) -> dict:
    return {
        "columns": list(header),
        "rows": [
            [float(t)] + [float(v) for v in row] for t, row in zip(curve.times, curve.points)
        ],
    }
