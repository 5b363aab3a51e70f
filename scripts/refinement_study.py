#!/usr/bin/env python3
"""Grid-refinement study of the discrete operators on the equivariant scenario.

Prints the L2 norms and refinement ratios of
  (a) the normal projection of the continuum velocity against the discrete
      mean curvature (spatial consistency), and
  (b) the evolution residual of p along short flow segments (space-time
      consistency; the time step scales with the square of the grid spacing).
Second-order discretizations give ratios near 4 under halving.

Usage: python3 scripts/refinement_study.py [--levels 16 32 64 128] [--amplitude 0.8]
"""

import argparse
import math
import sys

import numpy as np

from graphflow.flow import EquivariantFlow
from graphflow.immersion import field_geometry
from graphflow.verify import residual_p_evolution


def velocity_residual(J: int, amplitude: float) -> float:
    def v_exact(th):
        h = amplitude * np.sin(th)
        d1 = amplitude * np.cos(th)
        d2 = -amplitude * np.sin(th)
        return d2 / (1 + d1**2) + (np.sin(th) * np.cos(th) * d1
                                   - np.sin(h) * np.cos(h)) / (np.sin(th)**2 + np.sin(h)**2)

    eq = EquivariantFlow(J, lambda th: amplitude * np.sin(th))
    fld = eq.expand_field(eq.h)
    m = fld.M.dim
    sel = (eq.theta >= 0.5) & (eq.theta <= math.pi - 0.5)
    geo = field_geometry(fld)
    v = v_exact(eq.theta[sel])
    g_n = fld.g_n_field()[sel, 0]

    def normal_component(normal):  # <(0, V), normal> in the product metric
        return v * np.sum(g_n[:, 0, :] * normal[sel, 0, m:], axis=-1)

    vals = np.concatenate([normal_component(geo.frame.xi) - geo.h_xi[sel, 0],
                           normal_component(geo.frame.eta) - geo.h_eta[sel, 0]])
    return float(np.sqrt(np.mean(np.square(vals))))


def p_residual(J: int, amplitude: float, base_cadence: int = 60) -> float:
    eq = EquivariantFlow(J, lambda th: amplitude * np.sin(th))
    cadence = base_cadence * (J // 32) ** 2 if J >= 32 else base_cadence
    run = eq.run(t_end=0.3, record_every=max(cadence, 1))
    triples = [eq.stencil_fields(s) for s in run.states if s.stencil]
    rows = residual_p_evolution(triples)
    return rows[0]["l2"] if rows else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, nargs="+", default=[16, 32, 64, 128])
    parser.add_argument("--amplitude", type=float, default=0.8)
    args = parser.parse_args(argv)

    print(f"{'nodes':>6} {'velocity L2':>14} {'ratio':>7} {'p-residual L2':>14} {'ratio':>7}")
    prev_v = prev_p = None
    for J in args.levels:
        rv = velocity_residual(J, args.amplitude)
        rp = p_residual(J, args.amplitude) if J >= 32 else float("nan")
        rat_v = f"{prev_v / rv:7.2f}" if prev_v else "      -"
        rat_p = f"{prev_p / rp:7.2f}" if prev_p and rp == rp else "      -"
        print(f"{J:>6} {rv:14.4e} {rat_v} {rp:14.4e} {rat_p}")
        prev_v, prev_p = rv, (rp if rp == rp else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
