"""Scenario catalog, configuration, run recording, and report emission.

Config files are flat key/value INI text with section headers.  Each builtin
scenario names the keys it reads, with their defaults; any other key is
rejected.  A run emits a time-series CSV with a fixed column schema,
verification and classification JSON (schema validated), a manifest listing
every file, and a log with wall-clock times (kept out of the JSON so re-runs
byte-reproduce all CSV/JSON outputs).
"""

from __future__ import annotations

import configparser
import datetime
import functools
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import ConfigurationError, NotAreaDecreasingError, SolverAbort
from .barrier import certify_convexity, containment_monitor, diameter_series, waist_tube_barrier
from .classify import classify_from_observables, classify_limit
from .flow import (DRIFT_DT, EquivariantFlow, FlowParams, FlowRecord, FlowState, h2_field,
                   reduce_circle_drift, step)
from .frames import build_svd_frame, singular_value_invariants
from .geometry import (WARP_Z_MAX, WarpedSurface, builtin_warp, curvature_conditions_report,
                       flat_torus, hopf_map, product_s1_s2, round_sphere, s3_hopf_chart)
from .immersion import SEAM_MARGIN, GraphMapField, field_geometry, quantity_R_vw, w_norm_sq
from .verify import (check_H_and_theta_inequalities, check_decay_bounds, check_volume_budget,
                     compute_bound_constants, decay_rates, inequality_section,
                     residual_p_evolution)

CSV_COLUMNS = [
    "t", "min_p", "max_lambda", "max_mu", "max_H2", "max_A2", "max_theta",
    "total_volume", "image_diameter", "bound_p", "bound_df2", "bound_H2",
    "residual_p_L2", "residual_p_Linf",
]


def _boolean(text: str) -> bool:  # 1/yes/true/on or 0/no/false/off, any case; else KeyError
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# Upper bounds that keep a run's arrays allocatable: the circle drift holds
# t_end / DRIFT_DT samples, a grid flow one tensor per node.
T_END_MAX = 1e3
NODES_MAX = 4096
AXIS_NODES_MAX = 32

# section -> key -> (parser[, bound]); a bound is (check of the value, what a valid
# value is).  Which keys outside [scenario] a scenario reads, and their defaults,
# is its entry in SCENARIOS.
_SCHEMA = {
    "scenario": {"name": (str,), "seed": (int,), "output_dir": (str,)},
    "grid": {
        "nodes": (int, (lambda v: 2 * SEAM_MARGIN < v <= NODES_MAX,  # tsui_wang_s2 profile
                        f"must exceed {2 * SEAM_MARGIN}, twice the seam margin, "
                        f"and be at most {NODES_MAX}")),
        # read by torus_projection only, whose M = T^3 has 3 axes
        "shape": (str, (lambda v: len(v.split(",")) == 3 and all(
                            s.strip().isdecimal() and 3 <= int(s) <= AXIS_NODES_MAX
                            for s in v.split(",")),  # at least two ±1 neighbours
                        "must be 3 comma-separated integers, one per axis of M, "
                        f"each from 3 to {AXIS_NODES_MAX}")),
    },
    "flow": {
        "t_end": (float, (lambda v: 0 < v <= T_END_MAX, f"must lie in (0, {T_END_MAX:g}]")),
        "record_every": (int, (lambda v: v >= 1, "must be at least 1")),
        "h_tol": (float, (lambda v: 0 < v <= 1, "must lie in (0, 1]")),
    },
    "initial": {
        "amplitude": (float, (lambda v: abs(v) <= math.pi,  # amplitude * sin(theta) is an angle
                              "must lie in [-pi, pi]")),
        "z0": (float, (lambda v: abs(v) <= WARP_Z_MAX,  # also keeps cosh/exp finite
                       f"must lie in [-{WARP_Z_MAX:g}, {WARP_Z_MAX:g}], the cylinder's chart")),
    },
    "verify": {"residuals": (_boolean,), "inequalities": (_boolean,)},
}
_SCENARIO_DEFAULTS = {("scenario", "seed"): 0, ("scenario", "output_dir"): "runs"}


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    output_dir: str
    values: dict  # (section, key) -> parsed value: [scenario] and the scenario's settings

    def get(self, section: str, key: str):
        return self.values[(section, key)]

    def canonical_text(self) -> str:
        lines = []
        for section, items in itertools.groupby(sorted(self.values.items()),
                                                key=lambda item: item[0][0]):
            lines += [f"[{section}]", *(f"{key} = {value}" for (_, key), value in items), ""]
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a config file; fill scenario defaults; reject unread keys."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)  # flat text: '%' is literal
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    return _validate(parser)


def builtin_config(name: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """A fully defaulted config for a builtin scenario (overrides: (sec,key)->val)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.add_section("scenario")
    parser.set("scenario", "name", name)
    return _validate(parser, overrides)


def _validate(parser: configparser.ConfigParser,
              overrides: Optional[dict] = None) -> ScenarioConfig:
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
    if not parser.has_option("scenario", "name"):
        raise ConfigurationError("missing required key 'name' in section [scenario]")
    name = parser.get("scenario", "name")
    if name not in BUILTIN_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario '{name}' (builtins: {', '.join(BUILTIN_SCENARIOS)})")
    values = {("scenario", "name"): name, **_SCENARIO_DEFAULTS, **SCENARIOS[name].settings}
    given = {(section, key): parser.get(section, key)
             for section in parser.sections() for key in parser[section]}
    for section, key in [*given, *(overrides or {})]:
        if (section, key) not in values:
            raise ConfigurationError(f"unknown key '{key}' in section [{section}]: "
                                     f"scenario '{name}' does not read it")
    for (section, key), raw in given.items():
        try:
            values[(section, key)] = _SCHEMA[section][key][0](raw)
        except (ValueError, KeyError) as exc:
            raise ConfigurationError(f"invalid value for [{section}] {key}: {raw!r}") from exc
    values.update(overrides or {})
    for (section, key), value in values.items():
        _, *bound = _SCHEMA[section][key]
        if bound and not bound[0][0](value):
            raise ConfigurationError(f"[{section}] {key} = {value!r} {bound[0][1]}")
    return ScenarioConfig(name=name, seed=values[("scenario", "seed")],
                          output_dir=values[("scenario", "output_dir")], values=values)


# ---------------------------------------------------------------------------
# JSON schemas

# the sections of verification.json that may carry a verdict, in `graphflow verify` order
VERDICT_SECTIONS = ("decay_bounds", "residual_p", "inequalities", "volume_budget", "barrier",
                    "pointwise", "stationarity")
_SECTION = {"type": ["object", "null"], "properties": {"pass": {"type": "boolean"}}}
_BARRIER = {"type": ["object", "null"], "required": ["certificate", "containment"],
            "properties": {half: {"type": "object", "required": [key],
                                  "properties": {key: {"type": "boolean"}}}
                           for half, key in (("certificate", "verdict"), ("containment", "pass"))}}
VERIFICATION_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "scenario", "overall_pass", "curvature_conditions"],
    "properties": {
        "schema_version": {"const": 1},
        "scenario": {"type": "string"},
        "overall_pass": {"type": "boolean"},
        "constants": {"type": ["object", "null"]},
        "curvature_conditions": {"type": "object"},
        **{name: _BARRIER if name == "barrier" else _SECTION for name in VERDICT_SECTIONS},
    },
}


def verdicts(verification: dict) -> dict:
    """Section -> verdict of each of VERDICT_SECTIONS that carries one: its ``pass``, or for
    the barrier its certificate and its containment together.  overall_pass and `graphflow
    verify` both read this; decay bounds that do not apply and the residuals carry none (the
    torus residual is part of stationarity)."""
    found = {}
    for name in VERDICT_SECTIONS:
        section = verification.get(name) or {}
        if name == "barrier" and section:  # the schema requires both halves
            verdict = bool(section["certificate"]["verdict"] and section["containment"]["pass"])
        else:
            verdict = section.get("pass")
        if verdict is not None:
            found[name] = verdict
    return found


CLASSIFICATION_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "scenario", "class"],
    "properties": {
        "schema_version": {"const": 1},
        "scenario": {"type": "string"},
        "class": {"type": ["string", "null"]},
    },
}

_JSON_TYPES = {"object": dict, "string": str, "boolean": bool, "null": type(None)}


def _schema_errors(instance, schema: dict, at: tuple = ()):
    """(path, preferred, message) of each defect, in jsonschema's order; an error is
    preferred unless its instance matches its schema's type."""
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", ())
    typed = isinstance(instance, tuple(_JSON_TYPES[name] for name in types))
    for keyword, value in schema.items():  # jsonschema checks the keywords in this order
        if keyword == "type" and not typed:
            yield at, True, f"{instance!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "const" and (isinstance(instance, bool) != isinstance(value, bool)
                                     or instance != value):  # 1.0 is 1, True is not
            yield at, not typed, f"{value!r} was expected"
        elif keyword == "required" and isinstance(instance, dict):
            yield from ((at, not typed, f"{key!r} is a required property")
                        for key in value if key not in instance)
        elif keyword == "properties" and isinstance(instance, dict):
            for key, sub in value.items():
                if key in instance:
                    yield from _schema_errors(instance[key], sub, (*at, key))


def validate(instance, schema: dict, path: Optional[str] = None) -> None:
    """Raise jsonschema's best_match: the shallowest defect, then the greatest path, then a
    preferred one; a ConfigurationError naming the file at ``path``, else a ValueError."""
    best = max(_schema_errors(instance, schema), key=lambda e: (-len(e[0]), *e[:2]), default=None)
    if best is not None:
        message = "$" + "".join(f".{key}" for key in best[0]) + f": {best[2]}"
        raise ValueError(message) if path is None else ConfigurationError(f"{path}: {message}")


@dataclass
class RunManifest:
    config_hash: str
    version: str
    status: str
    files: list
    out_dir: str
    overall_pass: bool  # the verdict written to verification.json; not in manifest.json

    def as_dict(self) -> dict:
        return {"config_hash": self.config_hash, "version": self.version,
                "status": self.status, "files": sorted(self.files)}


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _replace_file(path: str, text: str) -> None:
    """Write ``text`` as a new file at ``path``, removing any file there first.

    A rerun thus never truncates an artifact in place (ext4 flushes a file
    replaced by truncation on close, 140-300 us each) and never writes through
    a hard link into an earlier run's copy of it."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)


_json_str = json.encoder.encode_basestring_ascii  # C code; it adds the quotes
# a subclass is written as its base, as json writes it (np.float64 is a float)
_JSON_BASES = ((str, str.__str__), (int, int.__pos__), (float, float.__pos__), (dict, dict),
               ((list, tuple), list))


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\\n"``, byte
    for byte: json runs its encoder in pure Python whenever it indents.  Keys must be str."""
    out: list = []
    _json_write(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _json_write(o, out: list, nl: str) -> None:
    """Append the JSON text of ``o`` to ``out``; ``nl`` is a newline and the indent of
    the line ``o`` starts on."""
    t = type(o)
    if t is float:
        out.append(float.__repr__(o) if math.isfinite(o) else
                   "NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
    elif t is str:
        out.append(_json_str(o))
    elif t is dict or t is list or t is tuple:
        inner = nl + "  "
        out.append("{" if t is dict else "[")
        for item in sorted(o) if t is dict else o:  # a dict's items sort by key alone
            out += (inner, _json_str(item), ": ") if t is dict else (inner,)
            _json_write(o[item] if t is dict else item, out, inner)
            out.append(",")  # the closing bracket overwrites the last comma
        out[-1] = (nl if o else out[-1]) + ("}" if t is dict else "]")
    elif o is None or t is bool:
        out.append("null" if o is None else "true" if o else "false")
    elif t is int:
        out.append(int.__repr__(o))
    else:
        cast = next((cast for base, cast in _JSON_BASES if isinstance(o, base)), _json_default)
        _json_write(cast(o), out, nl)


_CSV_ROW = ",".join(["%.12g"] * len(CSV_COLUMNS)) + "\n"


def _csv_text(records: list, curves: Optional[list]) -> str:
    """``time_series.csv``: the header, then each record in CSV_COLUMNS order; ``curves``:
    ``BoundConstants.curves(<record times>).tolist()``, or None for NaN bounds."""
    bounds = zip(*curves[:3]) if curves else itertools.repeat((math.nan,) * 3)
    return ",".join(CSV_COLUMNS) + "\n" + "".join(
        _CSV_ROW % (rec.t, rec.min_p, rec.max_lambda, rec.max_mu, rec.max_h2, rec.max_a2,
                    rec.max_theta, rec.volume, rec.diameter, *bound, rec.residual_l2,
                    rec.residual_linf)
        for rec, bound in zip(records, bounds))


# ---------------------------------------------------------------------------
# Scenario skeleton: a table entry per builtin scenario, one shared assembler


@dataclass
class Evolution:
    """What a scenario's evolve step hands to the assembler in ``run_scenario``."""

    records: list         # FlowRecord per CSV row; records[0] is the initial state
    status: str
    classification: dict
    sections: dict        # the scenario's own verification sections
    dissipation: Optional[float] = None  # None: no flow, so no constants, bounds or budget
    h_grid: float = 0.0   # spacing behind the decay-bound tolerance
    counters: dict = field(default_factory=dict)  # run.log lines under status: steps, dt range


@dataclass(frozen=True)
class Scenario:
    """A builtin scenario: its manifolds, its evolve step and the settings that step reads."""

    manifolds: Callable   # () -> (M, N)
    evolve: Callable      # (cfg, M, N, curvature report) -> Evolution
    settings: dict = field(default_factory=dict)  # (section, key) -> default; no other key


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> RunManifest:
    """Execute a scenario end to end and write all artifacts."""
    out = out_dir or os.path.join(cfg.output_dir, cfg.name)
    t_start = datetime.datetime.now(datetime.timezone.utc).isoformat()
    scenario = SCENARIOS[cfg.name]
    m_manifold, n_manifold = scenario.manifolds()
    report = curvature_conditions_report(m_manifold, n_manifold, seed=cfg.seed)
    ev = scenario.evolve(cfg, m_manifold, n_manifold, report)
    if ev.dissipation is not None and not ev.records[-1].t > ev.records[0].t:
        raise ConfigurationError(f"[flow] t_end = {cfg.get('flow', 't_end')!r}: the flow takes "
                                 "no step, so there is nothing to verify")

    verification = {"curvature_conditions": asdict(report), "constants": None, **ev.sections}
    curves = None  # the four bound curves at the record times, shared by both artifacts
    if ev.dissipation is not None:
        rec0 = ev.records[0]
        constants = compute_bound_constants(rec0.min_p, rec0.max_theta, min_ric=report.min_ric,
                                            sup_sigma_n=report.sup_sigma_n)
        verification["constants"] = {k: getattr(constants, k) for k in (
            "rho0", "c0", "c1", "eps0", "eps1", "a0", "a0_reconstructed")}
        curves = constants.curves([rec.t for rec in ev.records]).tolist()
        verification["decay_bounds"] = check_decay_bounds(
            ev.records, constants, h_grid=ev.h_grid, condition_a=report.cond_a, curves=curves)
        verification["volume_budget"] = check_volume_budget(
            rec0.volume, ev.records[-1].volume, ev.dissipation)
    verification.update(overall_pass=all(verdicts(verification).values()),
                        schema_version=1, scenario=cfg.name)
    validate(verification, VERIFICATION_SCHEMA)
    classification = {**ev.classification, "schema_version": 1, "scenario": cfg.name}
    validate(classification, CLASSIFICATION_SCHEMA)

    texts = {
        "config.ini": cfg.canonical_text(),
        "time_series.csv": _csv_text(ev.records, curves),
        "verification.json": _json_text(verification),
        "classification.json": _json_text(classification),
    }
    manifest = RunManifest(config_hash=cfg.config_hash(), version=__version__,
                           status=ev.status, files=[*texts, "manifest.json", "run.log"],
                           out_dir=out, overall_pass=verification["overall_pass"])
    texts["manifest.json"] = _json_text(manifest.as_dict())
    os.makedirs(out, exist_ok=True)  # only now: a rejected run leaves no directory behind
    for name, text in texts.items():
        _replace_file(os.path.join(out, name), text)
    t_end = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _replace_file(os.path.join(out, "run.log"),
                  f"scenario: {cfg.name}\nstart: {t_start}\nend: {t_end}\nstatus: {ev.status}\n"
                  + "".join(f"{key}: {value}\n" for key, value in ev.counters.items()))
    return manifest


def _evolve_tsui_wang(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    amp = cfg.get("initial", "amplitude")
    eq = EquivariantFlow(cfg.get("grid", "nodes"), lambda th: amp * np.sin(th))
    run = eq.run(cfg.get("flow", "t_end"), record_every=cfg.get("flow", "record_every"),
                 h_tol=cfg.get("flow", "h_tol"))
    if run.status == "Aborted":
        raise SolverAbort("equivariant run aborted")
    eps0, eps1 = decay_rates(report.min_ric, report.sup_sigma_n)
    residuals_on = cfg.get("verify", "residuals")
    inequalities_on = cfg.get("verify", "inequalities")
    if (residuals_on or inequalities_on) and all(st.stencil is None for st in run.states):
        raise ConfigurationError(
            "[verify] residuals and inequalities need a recorded state with a step on each "
            f"side: the flow took {run.steps} steps with [flow] record_every = "
            f"{cfg.get('flow', 'record_every')}")
    residuals, checkpoints = [], []
    # one lift per recorded state, and its stencil neighbours' with a monitor on, in batches
    lifted = eq.lift_states(run.states, stencils=residuals_on or inequalities_on)
    for rec, (fld, triple) in zip(run.records, lifted):
        rec.max_a2 = float(field_geometry(fld).a_sq[fld.interior_mask()].max())
        if triple is None:
            continue
        if residuals_on:
            (row,) = residual_p_evolution([triple])
            rec.residual_l2, rec.residual_linf = row["l2"], row["linf"]
            residuals.append(row)
        if inequalities_on:
            checkpoints += check_H_and_theta_inequalities([triple], eps1=eps1)["checkpoints"]

    sections: dict = {"barrier": None}
    if residuals:
        sections["residual_p"] = {"checkpoints": residuals}
    if checkpoints:
        sections["inequalities"] = inequality_section(checkpoints)
    sections["diameter"] = diameter_series([(r.t, r.diameter) for r in run.records], eps0=eps0)
    rep = classify_limit(fld, run.status, h_tol=cfg.get("flow", "h_tol"),  # the last lift
                         ricci_positive=report.min_ric > 0)
    return Evolution(run.records, run.status, rep, sections,
                     dissipation=run.dissipation, h_grid=eq.dtheta,
                     counters={"steps": run.steps, "dt_min": run.dt_min, "dt_max": run.dt_max})


def _evolve_cylinder(cfg: ScenarioConfig, m_manifold, n_manifold, report,
                     waist_level: Optional[float] = None) -> Evolution:
    """The symmetric circle on a warped cylinder: it drifts, or, given a waist
    level, converges to the waist inside the waist-tube barrier of that level."""
    run = reduce_circle_drift(n_manifold, cfg.get("initial", "z0"), cfg.get("flow", "t_end"))
    idx = sorted({*range(0, len(run.t), cfg.get("flow", "record_every")), len(run.t) - 1})
    records = []  # observables of the symmetric circle: |A| = |H| = |Phi|
    for t, w, h2, volume in zip(*(a[idx].tolist() for a in (run.t, run.w, run.h2, run.volume))):
        p = 2.0 / (1.0 + w * w)
        records.append(FlowRecord(
            t=t, min_p=p, max_lambda=w, max_mu=0.0, max_df2=w**2, max_h2=h2, max_a2=h2,
            max_theta=h2 / p, volume=volume,
            diameter=math.pi * w))  # chart half-circumference proxy

    final_h2 = float(run.h2[-1])
    sections: dict = {"barrier": None}
    if waist_level is None:
        monotone = bool(np.all(np.diff(run.z) > 0))
        vol_dec = bool(np.all(np.diff(run.volume) < 0))
        status = "Drifting" if (monotone and vol_dec) else "Finished"
    else:
        status = "Converged" if final_h2 < cfg.get("flow", "h_tol") ** 2 else "Finished"
        bar = waist_tube_barrier(waist_level)
        zs = np.linspace(-math.sqrt(waist_level) * 0.99, math.sqrt(waist_level) * 0.99, 9)
        pts = np.stack(np.meshgrid([0.0, math.pi / 4], [1.0], [2.0], [0.5, 2.0], zs,
                                   indexing="ij"), axis=-1)  # 36 audit points
        cert = certify_convexity(bar, m_manifold, n_manifold, pts)
        # the graph at each checkpoint, as one point (0, 1, 2, 0, z)
        circle = np.stack(np.broadcast_arrays(0.0, 1.0, 2.0, 0.0, run.z[idx]), axis=-1)
        contain = containment_monitor(zip(run.t[idx], circle[:, None]), bar)
        sections["barrier"] = {
            "kind": "waist_tube", "level": waist_level,
            "certificate": {"verdict": cert.verdict, "worst_value": cert.worst_value,
                            "n_samples": cert.n_samples, "m": cert.m,
                            "note": "sampled audit, not a proof"},
            "containment": contain,
        }

    rep = classify_from_observables(
        status, math.sqrt(final_h2),
        max_a=math.sqrt(final_h2),  # |A| = |H| on the circle reduction
        lam=np.full(8, float(run.w[-1])), mu=np.zeros(8),
        sigma_n_values=np.full(8, n_manifold.gauss_curvature(float(run.z[-1]))),
        h_tol=cfg.get("flow", "h_tol"), ricci_positive=report.min_ric > 0)
    return Evolution(records, status, rep, sections,
                     dissipation=run.dissipation, h_grid=DRIFT_DT)


def _evolve_torus_projection(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    shape = tuple(int(s) for s in cfg.get("grid", "shape").split(","))
    coords = [np.arange(n) * ax.length / n for n, ax in zip(shape, m_manifold.axes)]
    mesh = np.meshgrid(*coords, indexing="ij")
    f0 = np.stack([mesh[0], mesh[1]], axis=-1)
    field0 = GraphMapField(m_manifold, n_manifold, shape, f0)
    if field0.min_p() <= 0:
        raise NotAreaDecreasingError(f"initial min p = {field0.min_p():.3e}")
    state = FlowState(field=field0, min_p=field0.min_p())
    params = FlowParams(t_end=cfg.get("flow", "t_end"), h_tol=cfg.get("flow", "h_tol"))
    every = cfg.get("flow", "record_every")
    periods = np.array([ax.length for ax in n_manifold.axes])  # N = T^2: every axis wraps
    drift_max = 0.0
    snapshots = [state]  # every record_every-th step and the last
    while state.status == "Running" and state.t < params.t_end - 1e-14:
        prev_f = state.field.f
        state = step(state, params)
        move = state.field.f - prev_f  # a node wrapped from 0 to 2 pi has not moved
        drift_max = max(drift_max, float(np.abs(move - periods * np.round(move / periods)).max()))
        if state.step_count % every == 0:
            snapshots.append(state)
    if state.status == "Aborted":
        raise SolverAbort(state.diagnostic)
    if snapshots[-1] is not state:
        snapshots.append(state)
    # the image is all of N, a flat square torus: its diameter is half the chart diagonal
    diam = math.pi * math.sqrt(2 * n_manifold.metric_many(np.zeros(2))[0, 0])
    records = []
    for st in snapshots:
        lam, mu = st.field.singular_value_fields()
        h2 = h2_field(st.field)
        p = st.field.p_field()
        records.append(FlowRecord(
            t=st.t, min_p=float(p.min()), max_lambda=float(lam.max()),
            max_mu=float(mu.max()), max_df2=float((lam**2 + mu**2).max()),
            max_h2=float(h2.max()), max_a2=float(field_geometry(st.field).a_sq.max()),
            max_theta=float((h2 / p).max()),
            volume=st.field.volume(), diameter=diam))

    # a stationary map neither moves nor leaves a residual in the evolution of p
    res = residual_p_evolution([(0.0, 1.0, 1.0, field0, field0, field0)])
    sections: dict = {"stationarity": {"max_step_drift": drift_max,
                                       "pass": drift_max <= 1e-12 and res[0]["linf"] <= 1e-10},
                      "residual_p": {"checkpoints": res}}
    rep = classify_limit(snapshots[-1].field, "Stationary", h_tol=cfg.get("flow", "h_tol"),
                         ricci_positive=report.min_ric > 0)
    return Evolution(records, "Stationary", rep, sections,
                     dissipation=snapshots[-1].dissipation, h_grid=float(field0.h.max()))


HOPF_NODES = 13  # per axis of the (eta, xi1, xi2) sample grid: 13 x 13 x 6 = 1014 samples


def _evolve_hopf_pointwise(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    n = HOPF_NODES
    eta = (np.arange(n) + 0.5) * (math.pi / 2) / n
    xi = np.arange(n) * 2 * math.pi / n
    x = np.stack(np.meshgrid(eta, xi, xi[:max(1, n // 2)], indexing="ij"), axis=-1)
    x = x.reshape(-1, 3)
    df = np.array([[2.0, 0.0], [0.0, -1.0], [0.0, 1.0]])  # of (eta, xi1, xi2) -> (2 eta, xi2 - xi1)
    g_m = m_manifold.metric_many(x)
    lam, mu, _, _ = singular_value_invariants(m_manifold.inverse_metric(x, g_m),
                                              n_manifold.metric_many(hopf_map(x.T).T), df)
    worst = float(max(np.abs(lam - 2.0).max(), np.abs(mu - 2.0).max()))
    nan = float("nan")
    record = FlowRecord(t=0.0, min_p=-1.2, max_lambda=2.0, max_mu=2.0, max_df2=nan,
                        max_h2=nan, max_theta=nan, volume=nan, diameter=nan)
    pointwise = {"samples": len(x), "max_deviation_from_2": worst, "pass": worst <= 1e-10}
    return Evolution([record], "Pointwise", {"class": None, "notes": ["no flow in this scenario"]},
                     {"pointwise": pointwise})


def _evolve_identity_edge(cfg: ScenarioConfig, m_manifold, n_manifold, report) -> Evolution:
    n = 16
    xs = np.arange(n) * 2 * math.pi / n
    xg, yg = np.meshgrid(xs, xs, indexing="ij")
    field0 = GraphMapField(m_manifold, n_manifold, (n, n), np.stack([xg, yg], -1))
    raise ConfigurationError(
        f"scenario 'torus_identity_edge' is not strictly area decreasing: "
        f"min p = {field0.min_p():.3e} (lambda mu = 1 on the boundary of the admissible regime)")


def _warped_cylinder(warp: str):
    return lambda: (product_s1_s2(), WarpedSurface(builtin_warp(warp)))


SCENARIOS = {
    "tsui_wang_s2": Scenario(
        lambda: (round_sphere(2), round_sphere(2, curvature=1.0)), _evolve_tsui_wang,
        {("grid", "nodes"): 256, ("flow", "t_end"): 8.0, ("flow", "record_every"): 400,
         ("flow", "h_tol"): 1e-6, ("initial", "amplitude"): 0.8, ("verify", "residuals"): True,
         ("verify", "inequalities"): True}),
    "cylinder_drift": Scenario(
        _warped_cylinder("exp_neg"), _evolve_cylinder,
        {("flow", "t_end"): 5.0, ("flow", "record_every"): 400, ("flow", "h_tol"): 1e-6,
         ("initial", "z0"): 0.0}),
    "cylinder_waist": Scenario(
        _warped_cylinder("cosh"), functools.partial(_evolve_cylinder, waist_level=1.0),
        {("flow", "t_end"): 30.0, ("flow", "record_every"): 400, ("flow", "h_tol"): 1e-6,
         ("initial", "z0"): 0.5}),
    "torus_projection": Scenario(
        lambda: (flat_torus(3), flat_torus(2, scale=0.5)), _evolve_torus_projection,
        {("grid", "shape"): "8,8,8", ("flow", "t_end"): 0.05, ("flow", "record_every"): 1,
         ("flow", "h_tol"): 1e-6}),
    "hopf_pointwise": Scenario(
        lambda: (s3_hopf_chart(), round_sphere(2)), _evolve_hopf_pointwise),
    "torus_identity_edge": Scenario(
        lambda: (flat_torus(2), flat_torus(2)), _evolve_identity_edge),
}

BUILTIN_SCENARIOS = tuple(SCENARIOS)


# ---------------------------------------------------------------------------
# Randomized algebraic identity suite


def _identity_samples(samples: int, seed: int) -> dict:
    """m -> (g_m, g_n, df, h_xi, h_eta, ric), each stacked over the samples of dim m.

    The dimension of every sample is drawn first.  Then, for m = 2, ..., 5 in
    turn, one block per quantity over the samples of that dimension: a, b, df
    and its scale, h_xi and h_eta, then the raw Ricci matrix r.  The metrics
    are a a^T + m I and b b^T + 2 I, the Ricci matrix (r + r^T) / 2."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 6, samples)
    batches = {}
    for m in range(2, 6):
        n = int(np.count_nonzero(dims == m))
        if not n:
            continue
        a = rng.standard_normal((n, m, m))
        b = rng.standard_normal((n, 2, 2))
        df = rng.standard_normal((n, m, 2)) * rng.uniform(0.0, 1.5, (n, 1, 1))
        h_xi, h_eta = rng.standard_normal((2, n))
        r = rng.standard_normal((n, m, m))
        batches[m] = (a @ np.swapaxes(a, -1, -2) + m * np.eye(m),
                      b @ np.swapaxes(b, -1, -2) + 2 * np.eye(2), df, h_xi, h_eta,
                      (r + np.swapaxes(r, -1, -2)) / 2)
    return batches


def run_identities(samples: int = 10_000, seed: int = 0) -> dict:
    """Max absolute errors of the frame/scalar identities over random samples.

    The samples of each dimension m are drawn and evaluated as one batch.
    """
    def worst_dev(a, target):
        return np.abs(a - target).max(axis=tuple(range(1, a.ndim)))

    def quad(u, a, v):  # u^T a v over the samples
        return np.einsum("...i,...ij,...j->...", u, a, v)

    t0 = time.perf_counter()
    errs = {k: 0.0 for k in (
        "s2_plus_t2", "s_diag_oracle", "t_oracle", "frame_orthonormality",
        "normal_frame", "tangency", "p_formula", "est2", "w_norm", "ric_vw")}
    for m, (g_m, g_n, df, h_xi, h_eta, ric) in _identity_samples(samples, seed).items():
        dft = np.swapaxes(df, -1, -2)
        fr = build_svd_frame(df, g_m, g_n)
        sv = np.stack([fr.lam, fr.mu], axis=-1)
        found = {
            "s2_plus_t2": np.maximum(abs(fr.s_diag[:, 0] ** 2 + fr.t11 ** 2 - 1),
                                     abs(fr.s_diag[:, 1] ** 2 + fr.t22 ** 2 - 1)),
        }
        # independent S oracle: S_ii = <alpha_i, alpha_i>_{g_M} - <df alpha_i, df alpha_i>_{g_N},
        # normalized by 1 + s_i^2
        al = fr.alpha[:, :2]                                   # (n, 2, m)
        dal = al @ df                                          # rows df^T alpha_i
        raw = np.stack([quad(al[:, i], g_m, al[:, i]) - quad(dal[:, i], g_n, dal[:, i])
                        for i in range(2)], axis=-1)
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
        gp = np.zeros((len(g_m), m + 2, m + 2))
        gp[:, :m, :m] = g_m
        gp[:, m:, m:] = g_n
        dfe = np.concatenate([fr.e, fr.e @ df], axis=-1)
        found["frame_orthonormality"] = np.maximum.reduce([
            worst_dev(fr.alpha @ g_m @ np.swapaxes(fr.alpha, -1, -2), np.eye(m)),
            worst_dev(fr.beta @ g_n @ np.swapaxes(fr.beta, -1, -2), np.eye(2)),
            worst_dev(fr.e @ g_ind @ np.swapaxes(fr.e, -1, -2), np.eye(m))])
        nrm = np.stack([quad(fr.xi, gp, fr.xi) - 1, quad(fr.eta, gp, fr.eta) - 1,
                        quad(fr.xi, gp, fr.eta)], axis=-1)
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

        ric11, ric22 = (quad(fr.alpha[:, i], ric, fr.alpha[:, i]) for i in range(2))
        _, v, w = quantity_R_vw(fr, h_xi, h_eta, ric, ric11, ric22, 0.0, 0.0)
        found["w_norm"] = abs(quad(w, g_m, w) - w_norm_sq(fr, h_xi, h_eta))
        lhs = quad(v, ric, v) + quad(w, ric, w)
        rhs = (lam**2 / (1 + lam**2) * ric11 + mu**2 / (1 + mu**2) * ric22) * (h_xi**2 + h_eta**2)
        found["ric_vw"] = abs(lhs - rhs)
        for key, vals in found.items():
            errs[key] = max(errs[key], float(vals.max()))
    elapsed = time.perf_counter() - t0
    return {"samples": samples, "seed": seed, "elapsed_seconds": elapsed,
            "max_errors": errs, "max_error": max(errs.values()),
            "pass": max(errs.values()) <= 1e-10}
