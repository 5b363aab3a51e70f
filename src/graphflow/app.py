"""Scenario catalog, configuration, run recording, and report emission.

Config files are flat key/value INI text with section headers.  Unknown keys
are rejected; builtin scenarios fill defaults.  A run emits a time-series CSV
with a fixed column schema, verification and classification JSON (schema
validated), a manifest listing every file, and a log with wall-clock times
(kept out of the JSON so re-runs byte-reproduce all CSV/JSON outputs).
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import jsonschema

from . import __version__
from .errors import ConfigurationError, NotAreaDecreasingError, SolverAbort
from .barrier import certify_convexity, containment_monitor, diameter_series, waist_tube_barrier
from .classify import classify_from_observables, classify_limit
from .flow import (EquivariantFlow, FlowParams, FlowRecord, FlowState, drift_velocity,
                   h2_field, reduce_circle_drift, step)
from .frames import DifferentialSample, singular_values
from .geometry import (WarpedSurface, builtin_warp, curvature_conditions_report,
                       flat_torus, hopf_map, product_s1_s2, round_sphere, s3_hopf_chart)
from .immersion import GraphMapField, field_geometry
from .verify import (BoundConstants, check_H_and_theta_inequalities, check_decay_bounds,
                     check_volume_budget, compute_bound_constants, decay_rates,
                     residual_p_evolution)

CSV_COLUMNS = [
    "t", "min_p", "max_lambda", "max_mu", "max_H2", "max_A2", "max_theta",
    "total_volume", "image_diameter", "bound_p", "bound_df2", "bound_H2",
    "residual_p_L2", "residual_p_Linf",
]

# section -> key -> (parser, default[, bound]); None default means scenario-dependent.
# A bound is (check of the value and all values, what a valid value is).
_SCHEMA = {
    "scenario": {
        "name": (str, None),
        "seed": (int, 0),
        "output_dir": (str, "runs"),
    },
    "grid": {
        "nodes": (int, 256,         # 1D profile resolution; needs interior nodes
                  (lambda v, vals: v > 2 * vals[("verify", "margin")],
                   "must exceed 2 * [verify] margin")),
        "n_phi": (int, 8),          # azimuthal width of expanded 2D fields
        "shape": (str, "8,8,8"),    # full-grid scenarios
    },
    "flow": {
        "cfl": (float, 0.4, (lambda v, vals: 0 < v <= 1, "must lie in (0, 1]")),
        "t_end": (float, 5.0, (lambda v, vals: v > 0, "must be positive")),
        "record_every": (int, 400, (lambda v, vals: v >= 1, "must be at least 1")),
        "h_tol": (float, 1e-6),
        "integrator": (str, "RK2"),
        "ode_dt": (float, 1e-3),
    },
    "initial": {
        "amplitude": (float, 0.8),
        "z0": (float, 0.0),
        "r": (float, 0.5),
    },
    "verify": {
        "decay_bounds": (lambda s: s.lower() == "true", True),
        "residuals": (lambda s: s.lower() == "true", True),
        "inequalities": (lambda s: s.lower() == "true", True),
        "margin": (int, 4),
    },
    "barrier": {
        "kind": (str, "none"),
        "level": (float, 1.0),
    },
}


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    output_dir: str
    values: dict  # (section, key) -> parsed value

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def flow_params(self) -> FlowParams:
        return FlowParams(
            cfl=self.get("flow", "cfl"), t_end=self.get("flow", "t_end"),
            record_every=self.get("flow", "record_every"),
            h_tol=self.get("flow", "h_tol"),
            integrator=self.get("flow", "integrator"),
        )

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(_SCHEMA):
            lines.append(f"[{section}]")
            for key in sorted(_SCHEMA[section]):
                lines.append(f"{key} = {self.values[(section, key)]}")
            lines.append("")
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a config file; fill scenario defaults; reject unknowns."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    return _validate(parser)


def builtin_config(name: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """A fully defaulted config for a builtin scenario (overrides: (sec,key)->val)."""
    parser = configparser.ConfigParser()
    parser.add_section("scenario")
    parser.set("scenario", "name", name)
    return _validate(parser, overrides)


def _validate(parser: configparser.ConfigParser,
              overrides: Optional[dict] = None) -> ScenarioConfig:
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown key '{key}' in section [{section}]")
    if not parser.has_option("scenario", "name"):
        raise ConfigurationError("missing required key 'name' in section [scenario]")
    name = parser.get("scenario", "name")
    if name not in BUILTIN_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario '{name}' (builtins: {', '.join(BUILTIN_SCENARIOS)})")
    values = {}
    defaults = SCENARIOS[name].defaults
    for section, keys in _SCHEMA.items():
        for key, (parse, default, *_) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[(section, key)] = parse(raw)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"invalid value for [{section}] {key}: {raw!r}") from exc
            else:
                values[(section, key)] = defaults.get((section, key), default)
    values[("scenario", "name")] = name
    values.update(overrides or {})
    for section, keys in _SCHEMA.items():
        for key, (_, _, *bound) in keys.items():
            value = values[(section, key)]
            if bound and not bound[0][0](value, values):
                raise ConfigurationError(f"[{section}] {key} = {value!r} {bound[0][1]}")
    cfg = ScenarioConfig(name=name, seed=values[("scenario", "seed")],
                         output_dir=values[("scenario", "output_dir")], values=values)
    if cfg.get("flow", "integrator") not in ("RK2", "Euler"):
        raise ConfigurationError("flow.integrator must be RK2 or Euler")
    return cfg


# ---------------------------------------------------------------------------
# JSON schemas

VERIFICATION_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "scenario", "overall_pass", "curvature_conditions"],
    "properties": {
        "schema_version": {"const": 1},
        "scenario": {"type": "string"},
        "overall_pass": {"type": "boolean"},
        "constants": {"type": ["object", "null"]},
        "curvature_conditions": {"type": "object"},
        "decay_bounds": {"type": ["object", "null"]},
        "residual_p": {"type": ["object", "null"]},
        "inequalities": {"type": ["object", "null"]},
        "volume_budget": {"type": ["object", "null"]},
        "barrier": {"type": ["object", "null"]},
        "pointwise": {"type": ["object", "null"]},
    },
}

CLASSIFICATION_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "scenario", "class"],
    "properties": {
        "schema_version": {"const": 1},
        "scenario": {"type": "string"},
        "class": {"type": ["string", "null"]},
    },
}


@dataclass
class RunManifest:
    config_hash: str
    version: str
    status: str
    files: list
    out_dir: str

    def as_dict(self) -> dict:
        return {"config_hash": self.config_hash, "version": self.version,
                "status": self.status, "files": sorted(self.files)}


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _csv_row(rec: FlowRecord, constants: Optional[BoundConstants]) -> tuple:
    """One ``time_series.csv`` row, in CSV_COLUMNS order; no constants: NaN bounds."""
    nan = float("nan")
    bounds = ((constants.bound_p(rec.t), constants.bound_df2(rec.t), constants.bound_h2(rec.t))
              if constants else (nan, nan, nan))
    return (rec.t, rec.min_p, rec.max_lambda, rec.max_mu, rec.max_h2, rec.max_a2,
            rec.max_theta, rec.volume, rec.diameter, *bounds, rec.residual_l2, rec.residual_linf)


def _write_csv(path: str, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# Scenario skeleton: a table entry per builtin scenario, one shared assembler


@dataclass
class Evolution:
    """What a scenario's evolve step hands to the assembler in ``run_scenario``."""

    records: list         # FlowRecord per CSV row; records[0] is the initial state
    status: str
    classification: dict
    sections: dict        # the scenario's own verification sections
    checks: list          # verdicts of those sections; all feed overall_pass
    dissipation: Optional[float] = None  # None: no flow, so no constants, bounds or budget
    h_grid: float = 0.0   # spacing behind the decay-bound tolerance


@dataclass(frozen=True)
class Scenario:
    """A builtin scenario: its manifolds, its config defaults and its evolve step."""

    manifolds: Callable   # cfg -> (M, N)
    evolve: Callable      # (cfg, M, N, curvature report) -> Evolution
    defaults: dict = field(default_factory=dict)  # (section, key) -> value


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> RunManifest:
    """Execute a scenario end to end and write all artifacts."""
    out = out_dir or os.path.join(cfg.output_dir, cfg.name)
    os.makedirs(out, exist_ok=True)
    t_start = datetime.datetime.now(datetime.timezone.utc).isoformat()
    scenario = SCENARIOS[cfg.name]
    m_manifold, n_manifold = scenario.manifolds(cfg)
    report = curvature_conditions_report(m_manifold, n_manifold, seed=cfg.seed)
    ev = scenario.evolve(cfg, m_manifold, n_manifold, report)

    verification = {"curvature_conditions": report.as_dict(), "constants": None, **ev.sections}
    checks = list(ev.checks)
    constants = None
    if ev.dissipation is not None:
        rec0 = ev.records[0]
        constants = compute_bound_constants(rec0.min_p, rec0.max_theta, min_ric=report.min_ric,
                                            sup_sigma_n=report.sup_sigma_n)
        verification["constants"] = {k: getattr(constants, k) for k in (
            "rho0", "c0", "c1", "eps0", "eps1", "a0", "a0_reconstructed")}
        if cfg.get("verify", "decay_bounds"):
            decay = check_decay_bounds(ev.records, constants, h_grid=ev.h_grid,
                                       condition_a=report.cond_a)
            verification["decay_bounds"] = decay
            checks.append(decay.get("pass", True))
        budget = check_volume_budget(rec0.volume, ev.records[-1].volume, ev.dissipation)
        verification["volume_budget"] = budget
        checks.append(budget["pass"])
    verification.update(overall_pass=all(checks), schema_version=1, scenario=cfg.name)
    jsonschema.validate(verification, VERIFICATION_SCHEMA)
    classification = {**ev.classification, "schema_version": 1, "scenario": cfg.name}
    jsonschema.validate(classification, CLASSIFICATION_SCHEMA)

    with open(os.path.join(out, "config.ini"), "w") as fh:
        fh.write(cfg.canonical_text())
    _write_csv(os.path.join(out, "time_series.csv"),
               [_csv_row(rec, constants) for rec in ev.records])
    _write_json(os.path.join(out, "verification.json"), verification)
    _write_json(os.path.join(out, "classification.json"), classification)
    files = ["config.ini", "time_series.csv", "verification.json", "classification.json"]
    manifest = RunManifest(config_hash=cfg.config_hash(), version=__version__,
                           status=ev.status, files=files + ["manifest.json", "run.log"],
                           out_dir=out)
    _write_json(os.path.join(out, "manifest.json"), manifest.as_dict())
    t_end = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(os.path.join(out, "run.log"), "w") as fh:
        fh.write(f"scenario: {cfg.name}\nstart: {t_start}\nend: {t_end}\nstatus: {ev.status}\n")
    return manifest


def _evolve_tsui_wang(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    amp = cfg.get("initial", "amplitude")
    eq = EquivariantFlow(cfg.get("grid", "nodes"), lambda th: amp * np.sin(th),
                         kappa=1.0, cfl=cfg.get("flow", "cfl"))
    run = eq.run(cfg.get("flow", "t_end"), record_every=cfg.get("flow", "record_every"),
                 h_tol=cfg.get("flow", "h_tol"), integrator=cfg.get("flow", "integrator"))
    if run.status == "Aborted":
        raise SolverAbort("equivariant run aborted")
    eps0, eps1 = decay_rates(report.min_ric, report.sup_sigma_n)
    margin = cfg.get("verify", "margin")
    n_phi = cfg.get("grid", "n_phi")
    sections: dict = {"barrier": None}
    checks = []

    residuals = []
    triples = eq.expand_triples(run, n_phi=n_phi)
    if cfg.get("verify", "residuals") and triples:
        residuals = residual_p_evolution(triples, margin=margin)
    if residuals:
        sections["residual_p"] = {"checkpoints": residuals}
    res_by_t = {round(r["t"], 12): r for r in residuals}
    # per-record |A|^2 from expanded 2D fields (interior maximum); run()
    # appends a record and a snapshot at the same moments
    for rec, (_, h) in zip(run.records, run.snapshots):
        a_sq = field_geometry(eq.expand_field(h, n_phi=4)).a_sq
        rec.max_a2 = float(a_sq[margin:a_sq.shape[0] - margin, 0].max(initial=0.0))
        res = res_by_t.get(round(rec.t, 12))
        if res:
            rec.residual_l2, rec.residual_linf = res["l2"], res["linf"]

    if cfg.get("verify", "inequalities") and triples:
        ineq = check_H_and_theta_inequalities(triples, eps1=eps1, margin=margin)
        sections["inequalities"] = ineq
        checks.append(ineq["pass"])
    diam = diameter_series([(r.t, r.diameter) for r in run.records], eps0=eps0)
    sections["diameter"] = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                            for k, v in diam.items()}

    final = eq.expand_field(run.h_final, n_phi=n_phi)
    rep = classify_limit(final, run.status, ricci_positive=report.min_ric > 0, margin=margin)
    return Evolution(run.records, run.status, rep.as_dict(), sections, checks,
                     dissipation=run.dissipation, h_grid=eq.dtheta)


def _evolve_cylinder(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    dt = cfg.get("flow", "ode_dt")
    run = reduce_circle_drift(n_manifold, cfg.get("initial", "z0"), cfg.get("flow", "t_end"),
                              dt=dt)
    idx = list(range(0, len(run.t), cfg.get("flow", "record_every")))
    if idx[-1] != len(run.t) - 1:
        idx.append(len(run.t) - 1)
    records = []
    for i in idx:  # observables of the symmetric circle: |A| = |H| = |Phi|
        z = float(run.z[i])
        w = float(n_manifold.warp.w(z))
        phi = drift_velocity(n_manifold, z)
        p = 2.0 / (1.0 + w * w)
        h2 = phi * phi
        records.append(FlowRecord(
            t=float(run.t[i]), min_p=p, max_lambda=w, max_mu=0.0, max_df2=w**2, max_h2=h2,
            max_a2=h2, max_theta=h2 / p, volume=8 * math.pi**2 * math.sqrt(1 + w * w),
            diameter=math.pi * w))  # chart half-circumference proxy

    final_z = float(run.z[-1])
    final_h2 = drift_velocity(n_manifold, final_z) ** 2
    if cfg.name == "cylinder_waist":
        status = "Converged" if final_h2 < cfg.get("flow", "h_tol") ** 2 else "Finished"
    else:
        monotone = bool(np.all(np.diff(run.z) > 0))
        vol_dec = bool(np.all(np.diff(run.volume) < 0))
        status = "Drifting" if (monotone and vol_dec) else "Finished"

    sections: dict = {"barrier": None}
    checks = []
    if cfg.get("barrier", "kind") == "waist_tube":
        level = cfg.get("barrier", "level")
        bar = waist_tube_barrier(level)
        sample_s = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        zs = np.linspace(-math.sqrt(level) * 0.99, math.sqrt(level) * 0.99, 9)
        pts = [np.array([s, 1.0, 2.0, sv, zv]) for s in sample_s[:2] for sv in (0.5, 2.0)
               for zv in zs]
        cert = certify_convexity(bar, m_manifold, n_manifold, pts, m=m_manifold.dim)
        cps = [(float(run.t[i]), [np.array([0.0, 1.0, 2.0, 0.0, float(run.z[i])])])
               for i in idx]
        contain = containment_monitor(cps, bar)
        sections["barrier"] = {
            "kind": "waist_tube", "level": level,
            "certificate": {"verdict": cert.verdict, "worst_value": cert.worst_value,
                            "n_samples": cert.n_samples, "m": cert.m,
                            "note": "sampled audit, not a proof"},
            "containment": contain,
        }
        checks.append(cert.verdict and contain["pass"])

    lam_final = float(n_manifold.warp.w(final_z))
    sig_final = n_manifold.gauss_curvature(final_z)
    rep = classify_from_observables(
        status, math.sqrt(final_h2),
        max_a=math.sqrt(final_h2),  # |A| = |H| on the circle reduction
        lam=np.full(8, lam_final), mu=np.zeros(8),
        sigma_n_values=np.full(8, sig_final),
        ricci_positive=report.min_ric > 0)
    return Evolution(records, status, rep.as_dict(), sections, checks,
                     dissipation=run.dissipation, h_grid=dt)


def _evolve_torus_projection(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    shape = tuple(int(s) for s in cfg.get("grid", "shape").split(","))
    coords = [np.arange(n) * ax.length / n for n, ax in zip(shape, m_manifold.axes)]
    mesh = np.meshgrid(*coords, indexing="ij")
    f0 = np.stack([mesh[0], mesh[1]], axis=-1)
    field0 = GraphMapField(m_manifold, n_manifold, shape, f0)
    if field0.min_p() <= 0:
        raise NotAreaDecreasingError(f"initial min p = {field0.min_p():.3e}")
    state = FlowState(field=field0, min_p=field0.min_p())
    params = cfg.flow_params()
    drift_max = 0.0
    snapshots = [state]
    while state.status == "Running" and state.t < params.t_end - 1e-14:
        prev_f = state.field.f
        state = step(state, params)
        drift_max = max(drift_max, float(np.abs(state.field.f - prev_f).max()))
        snapshots.append(state)
    diam = cfg.get("initial", "r") * math.sqrt(2) * math.pi
    records = []
    for st in snapshots:
        lam, mu = st.field.singular_value_fields()
        h2 = h2_field(st.field)
        p = st.field.p_field()
        records.append(FlowRecord(
            t=st.t, min_p=float(p.min()), max_lambda=float(lam.max()),
            max_mu=float(mu.max()), max_df2=float((lam**2 + mu**2).max()),
            max_h2=float(h2.max()), max_a2=float(h2.max()), max_theta=float((h2 / p).max()),
            volume=st.field.volume(), diameter=diam))

    stationary = drift_max <= 1e-12
    sections: dict = {"stationarity": {"max_step_drift": drift_max, "pass": stationary}}
    checks = [stationary]
    if cfg.get("verify", "residuals"):
        res = residual_p_evolution([(0.0, 1.0, 1.0, field0, field0, field0)], margin=0)
        sections["residual_p"] = {"checkpoints": res}
        checks.append(res[0]["linf"] <= 1e-10)
    rep = classify_limit(snapshots[-1].field, "Stationary",
                         ricci_positive=report.min_ric > 0, margin=0)
    return Evolution(records, "Stationary", rep.as_dict(), sections, checks,
                     dissipation=snapshots[-1].dissipation, h_grid=float(field0.h.max()))


def _evolve_hopf_pointwise(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    n = max(13, int(round(cfg.get("grid", "nodes") ** (1 / 3))))
    eta = (np.arange(n) + 0.5) * (math.pi / 2) / n
    xi = np.arange(n) * 2 * math.pi / n
    x = np.stack(np.meshgrid(eta, xi, xi[:max(1, n // 2)], indexing="ij"), axis=-1)
    x = x.reshape(-1, 3)
    sample = DifferentialSample(df=np.broadcast_to(_hopf_differential(), x.shape[:1] + (3, 2)),
                                g_m=m_manifold.metric_many(x),
                                g_n=n_manifold.metric_many(hopf_map(x.T).T))
    lam, mu = singular_values(sample)
    worst = float(max(np.abs(lam - 2.0).max(), np.abs(mu - 2.0).max()))
    nan = float("nan")
    record = FlowRecord(t=0.0, min_p=-1.2, max_lambda=2.0, max_mu=2.0, max_df2=nan,
                        max_h2=nan, max_theta=nan, volume=nan, diameter=nan)
    pointwise = {"samples": len(x), "max_deviation_from_2": worst, "pass": worst <= 1e-10}
    return Evolution([record], "Pointwise", {"class": None, "notes": ["no flow in this scenario"]},
                     {"pointwise": pointwise}, [pointwise["pass"]])


def _hopf_differential() -> np.ndarray:
    # chart differential of (eta, xi1, xi2) -> (2 eta, xi2 - xi1)
    return np.array([[2.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


def _evolve_identity_edge(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    n = 16
    xs = np.arange(n) * 2 * math.pi / n
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    field0 = GraphMapField(m_manifold, n_manifold, (n, n), np.stack([xg, yg], -1))
    raise ConfigurationError(
        f"scenario 'torus_identity_edge' is not strictly area decreasing: "
        f"min p = {field0.min_p():.3e} (lambda mu = 1 on the boundary of the admissible regime)")


def _warped_cylinder(warp: str):
    return lambda cfg: (product_s1_s2(), WarpedSurface(builtin_warp(warp)))


SCENARIOS = {
    "tsui_wang_s2": Scenario(
        lambda cfg: (round_sphere(2), round_sphere(2, curvature=1.0)), _evolve_tsui_wang,
        {("flow", "t_end"): 5.0, ("initial", "amplitude"): 0.8}),
    "cylinder_drift": Scenario(
        _warped_cylinder("exp_neg"), _evolve_cylinder,
        {("initial", "z0"): 0.0, ("flow", "t_end"): 5.0}),
    "cylinder_waist": Scenario(
        _warped_cylinder("cosh"), _evolve_cylinder,
        {("initial", "z0"): 0.5, ("flow", "t_end"): 30.0,
         ("barrier", "kind"): "waist_tube", ("barrier", "level"): 1.0}),
    "torus_projection": Scenario(
        lambda cfg: (flat_torus(3), flat_torus(2, scale=cfg.get("initial", "r"))),
        _evolve_torus_projection, {("flow", "t_end"): 0.05, ("flow", "record_every"): 1}),
    "hopf_pointwise": Scenario(
        lambda cfg: (s3_hopf_chart(), round_sphere(2)), _evolve_hopf_pointwise),
    "torus_identity_edge": Scenario(
        lambda cfg: (flat_torus(2), flat_torus(2)), _evolve_identity_edge),
}

BUILTIN_SCENARIOS = tuple(SCENARIOS)


# ---------------------------------------------------------------------------
# Randomized algebraic identity suite


def run_identities(samples: int = 10_000, seed: int = 0) -> dict:
    """Max absolute errors of the frame/scalar identities over random samples.

    Every sample is drawn first, in one fixed order per sample; the samples
    of each dimension m are then evaluated as one batch.
    """
    import time
    from types import SimpleNamespace

    from .frames import build_svd_frame, quad_form
    from .immersion import quantity_R_vw, w_norm_sq

    def worst_dev(a, target):
        return np.abs(a - target).max(axis=tuple(range(1, a.ndim)))

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    drawn: dict = {}
    for _ in range(samples):
        m = int(rng.integers(2, 6))
        a = rng.standard_normal((m, m))
        b = rng.standard_normal((2, 2))
        df = rng.standard_normal((m, 2)) * rng.uniform(0.0, 1.5)
        h_xi, h_eta = rng.standard_normal(2)
        ric_raw = rng.standard_normal((m, m))
        drawn.setdefault(m, []).append((a @ a.T + m * np.eye(m), b @ b.T + 2 * np.eye(2), df,
                                        h_xi, h_eta, (ric_raw + ric_raw.T) / 2))
    errs = {k: 0.0 for k in (
        "s2_plus_t2", "s_diag_oracle", "t_oracle", "frame_orthonormality",
        "normal_frame", "tangency", "p_formula", "est2", "w_norm", "ric_vw")}
    for m, rows in drawn.items():
        g_m, g_n, df, h_xi, h_eta, ric = (np.array(col) for col in zip(*rows))
        dft = np.swapaxes(df, -1, -2)
        fr = build_svd_frame(DifferentialSample(df=df, g_m=g_m, g_n=g_n))
        sv = np.stack([fr.lam, fr.mu], axis=-1)
        found = {
            "s2_plus_t2": np.maximum(abs(fr.s_diag[:, 0] ** 2 + fr.t11 ** 2 - 1),
                                     abs(fr.s_diag[:, 1] ** 2 + fr.t22 ** 2 - 1)),
        }
        # independent S oracle: S_ii = <alpha_i, alpha_i>_{g_M} - <df alpha_i, df alpha_i>_{g_N},
        # normalized by 1 + s_i^2
        al = fr.alpha[:, :2]                                   # (n, 2, m)
        dal = al @ df                                          # rows df^T alpha_i
        raw = np.stack([quad_form(al[:, i], g_m, al[:, i])
                        - quad_form(dal[:, i], g_n, dal[:, i]) for i in range(2)], axis=-1)
        found["s_diag_oracle"] = np.abs(raw / (1 + sv * sv) - fr.s_diag[:, :2]).max(axis=-1)
        # independent singular values of g_N^{1/2} df^T g_M^{-1/2}, whitened by
        # symmetric square roots (the frame whitens by Cholesky factors); the
        # square root of a tiny pullback eigenvalue would lose half the digits
        wm, vm = np.linalg.eigh(g_m)
        wn, vn = np.linalg.eigh(g_n)
        whitened = ((vn * np.sqrt(wn)[:, None, :]) @ np.swapaxes(vn, -1, -2) @ dft
                    @ (vm / np.sqrt(wm)[:, None, :]) @ np.swapaxes(vm, -1, -2))
        s12 = np.linalg.svd(whitened, compute_uv=False)
        t = np.stack([fr.t11, fr.t22], axis=-1)
        found["t_oracle"] = np.abs(t - (-2 * s12 / (1 + s12 * s12))).max(axis=-1)

        g_ind = g_m + df @ g_n @ dft
        gp = np.zeros((len(rows), m + 2, m + 2))
        gp[:, :m, :m] = g_m
        gp[:, m:, m:] = g_n
        dfe = np.concatenate([fr.e, fr.e @ df], axis=-1)
        found["frame_orthonormality"] = np.maximum.reduce([
            worst_dev(fr.alpha @ g_m @ np.swapaxes(fr.alpha, -1, -2), np.eye(m)),
            worst_dev(fr.beta @ g_n @ np.swapaxes(fr.beta, -1, -2), np.eye(2)),
            worst_dev(fr.e @ g_ind @ np.swapaxes(fr.e, -1, -2), np.eye(m))])
        nrm = np.stack([quad_form(fr.xi, gp, fr.xi) - 1, quad_form(fr.eta, gp, fr.eta) - 1,
                        quad_form(fr.xi, gp, fr.eta)], axis=-1)
        found["normal_frame"] = np.abs(nrm).max(axis=-1)
        normals = np.stack([fr.xi, fr.eta], axis=-1)           # (n, m+2, 2)
        found["tangency"] = np.abs(dfe @ gp @ normals).max(axis=(-2, -1))
        lam, mu = fr.lam, fr.mu
        den = (1 + lam**2) * (1 + mu**2)
        found["p_formula"] = abs(fr.p - 2 * (1 - lam**2 * mu**2) / den)
        mid = 2 * (lam**2 + mu**2) / den
        lo, hi = 1 - fr.p**2 / 4, 2 * (1 - fr.p**2 / 4)
        found["est2"] = np.where(lam * mu < 1, np.maximum(np.maximum(0.0, lo - mid), mid - hi),
                                 0.0)

        pg = SimpleNamespace(frame=fr, h_xi=h_xi, h_eta=h_eta, h_sq=h_xi**2 + h_eta**2)
        _, v, w = quantity_R_vw(pg, ric, 0.0, 0.0)
        found["w_norm"] = abs(quad_form(w, g_m, w) - w_norm_sq(pg))
        lhs = quad_form(v, ric, v) + quad_form(w, ric, w)
        rhs = (lam**2 / (1 + lam**2) * quad_form(fr.alpha[:, 0], ric, fr.alpha[:, 0])
               + mu**2 / (1 + mu**2) * quad_form(fr.alpha[:, 1], ric, fr.alpha[:, 1])) * pg.h_sq
        found["ric_vw"] = abs(lhs - rhs)
        for key, vals in found.items():
            errs[key] = max(errs[key], float(vals.max()))
    elapsed = time.perf_counter() - t0
    return {"samples": samples, "seed": seed, "elapsed_seconds": elapsed,
            "max_errors": errs, "max_error": max(errs.values()),
            "pass": max(errs.values()) <= 1e-10}
