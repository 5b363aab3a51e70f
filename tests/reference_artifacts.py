"""Reference row builders of a run's artifacts, as they were before the rows were
built from arrays: the decay-bound rows with every bound curve evaluated per
record, the ``time_series.csv`` rows formatted value by value, and the
containment monitor with one ``phi`` per checkpoint, kept verbatim as test
oracles.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from graphflow.app import CSV_COLUMNS
from graphflow.barrier import BarrierFunction
from graphflow.errors import ConfigurationError
from graphflow.flow import FlowRecord
from graphflow.verify import BoundConstants


def check_decay_bounds(series, constants: BoundConstants, h_grid: float,
                       condition_a: Optional[bool] = True) -> dict:
    if not condition_a:
        return {"applicable": False,
                "reason": "curvature condition (A) not certified for this scenario"}
    tol = 1e-6 + 10 * h_grid**2
    rows = []
    ok = True
    for rec in series:
        t = rec.t
        margins = {
            "p": rec.min_p - (constants.bound_p(t) - tol),
            "df2": (constants.bound_df2(t) + tol) - rec.max_df2,
            "h2": (constants.bound_h2(t) + tol) - rec.max_h2,
            "theta": (constants.bound_theta(t) + tol) - rec.max_theta,
        }
        row_ok = all(v >= 0 for v in margins.values())
        ok = ok and row_ok
        rows.append({"t": t, "margins": margins, "pass": row_ok})
    worst = {k: min(r["margins"][k] for r in rows) for k in ("p", "df2", "h2", "theta")}
    return {"applicable": True, "pass": ok, "tol": tol, "worst_margins": worst, "rows": rows}


def csv_row(rec: FlowRecord, constants: Optional[BoundConstants]) -> tuple:
    nan = float("nan")
    bounds = ((constants.bound_p(rec.t), constants.bound_df2(rec.t), constants.bound_h2(rec.t))
              if constants else (nan, nan, nan))
    return (rec.t, rec.min_p, rec.max_lambda, rec.max_mu, rec.max_h2, rec.max_a2,
            rec.max_theta, rec.volume, rec.diameter, *bounds, rec.residual_l2, rec.residual_linf)


def csv_text(rows: list) -> str:
    return "".join(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in [CSV_COLUMNS, *rows])


def containment_monitor(checkpoints: Iterable, barrier: BarrierFunction) -> dict:
    rows = []
    for i, (t, pts) in enumerate(checkpoints):
        mx = float(np.max(barrier.phi(np.asarray(pts, dtype=float))))
        if i == 0 and mx >= barrier.level:
            raise ConfigurationError(
                f"initial datum not inside the sublevel set (max phi = {mx:.6g} >= c = {barrier.level:.6g})"
            )
        rows.append({"t": float(t), "max_phi": mx, "margin": barrier.level - mx,
                     "pass": mx < barrier.level})
    return {"pass": all(r["pass"] for r in rows), "level": barrier.level, "rows": rows}
