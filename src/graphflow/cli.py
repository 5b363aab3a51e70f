"""Command-line interface.

Subcommands: check-curvature, run, verify, classify, identities.
Exit codes: 0 pass, 1 verification failure, 2 usage/config error (also a config,
run directory or artifact path that cannot be read or written), 3 solver abort
or any other package error (``ERROR_EXITS``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from .app import (CLASSIFICATION_SCHEMA, SCENARIOS, VERIFICATION_SCHEMA, _json_text,
                  load_config, run_identities, run_scenario, validate, verdicts)
from .errors import (ConfigurationError, DegenerateMetricError, DomainError, GraphflowError,
                     NotAreaDecreasingError, SolverAbort)
from .geometry import curvature_conditions_report

EXIT_PASS = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_ABORT = 3

# about 1.3 KB of peak memory per sample, all allocated up front: 1.3 GB at the bound
IDENTITY_SAMPLES_MAX = 1_000_000

# exit code and message prefix of each package or file error; exit 1 is kept for a FAIL verdict
ERROR_EXITS = {
    ConfigurationError: (EXIT_CONFIG_ERROR, "config error"),
    NotAreaDecreasingError: (EXIT_CONFIG_ERROR, "config error"),
    SolverAbort: (EXIT_SOLVER_ABORT, "solver abort"),
    DomainError: (EXIT_SOLVER_ABORT, "domain error"),
    DegenerateMetricError: (EXIT_SOLVER_ABORT, "degenerate metric"),
    GraphflowError: (EXIT_SOLVER_ABORT, "error"),
    OSError: (EXIT_CONFIG_ERROR, "file error"),  # e.g. a directory where a file should be
}


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-curvature", help="evaluate the curvature conditions of a scenario")
    p.add_argument("config")

    p = sub.add_parser("run", help="run a scenario and write all artifacts")
    p.add_argument("config")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="validate and summarize a recorded run")
    p.add_argument("run_dir")

    p = sub.add_parser("classify", help="print the limit classification of a recorded run")
    p.add_argument("run_dir")

    p = sub.add_parser("identities", help="randomized algebraic identity suite")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_check_curvature(args) -> int:
    cfg = load_config(args.config)
    m_manifold, n_manifold = SCENARIOS[cfg.name].manifolds()
    report = curvature_conditions_report(m_manifold, n_manifold, seed=cfg.seed)
    print(_json_text(asdict(report)), end="")
    return EXIT_PASS if (report.cond_a and report.cond_b and report.cond_c) \
        else EXIT_VERIFICATION_FAILURE


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    manifest = run_scenario(cfg, out_dir=args.out)
    print(f"run complete: {manifest.out_dir} (status {manifest.status})")
    print(f"verification: {'PASS' if manifest.overall_pass else 'FAIL'}")
    return EXIT_PASS if manifest.overall_pass else EXIT_VERIFICATION_FAILURE


def _read_json(run_dir: str, name: str, schema: dict) -> dict:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise ConfigurationError(f"missing file: {path}")
    with open(path) as fh:
        try:
            instance = json.load(fh)
        except ValueError as exc:  # malformed JSON, or not text at all
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    validate(instance, schema, path)
    return instance


def _cmd_verify(args) -> int:
    verification = _read_json(args.run_dir, "verification.json", VERIFICATION_SCHEMA)
    found = verdicts(verification)
    for key, verdict in found.items():
        print(f"{key}: {'PASS' if verdict else 'FAIL'}")
    ok = verification["overall_pass"] and all(found.values())  # a FAIL line fails the run
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return EXIT_PASS if ok else EXIT_VERIFICATION_FAILURE


def _cmd_classify(args) -> int:
    classification = _read_json(args.run_dir, "classification.json", CLASSIFICATION_SCHEMA)
    print(_json_text(classification), end="")
    return EXIT_PASS


def _cmd_identities(args) -> int:
    # no sample is no evidence; rng seeds are >= 0
    if not 1 <= args.samples <= IDENTITY_SAMPLES_MAX or args.seed < 0:
        raise ConfigurationError(f"identities needs 1 <= --samples <= {IDENTITY_SAMPLES_MAX} "
                                 f"and --seed >= 0, got {args.samples} and {args.seed}")
    report = run_identities(samples=args.samples, seed=args.seed)
    for name, err in sorted(report["max_errors"].items()):
        print(f"{name}: {err:.3e}")
    print(f"max error: {report['max_error']:.3e} over {report['samples']} samples "
          f"in {report['elapsed_seconds']:.2f}s")
    print(f"identities: {'PASS' if report['pass'] else 'FAIL'}")
    return EXIT_PASS if report["pass"] else EXIT_VERIFICATION_FAILURE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "check-curvature": _cmd_check_curvature,
        "run": _cmd_run,
        "verify": _cmd_verify,
        "classify": _cmd_classify,
        "identities": _cmd_identities,
    }
    try:
        return handlers[args.command](args)
    except (GraphflowError, OSError) as exc:
        code, label = next(ERROR_EXITS[c] for c in type(exc).__mro__ if c in ERROR_EXITS)
        message = " ".join(str(exc).split())  # one line, whatever the message holds
        print(f"{label}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
