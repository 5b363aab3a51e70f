#!/usr/bin/env python3
"""Run builtin scenarios end to end and summarize their artifacts.

Usage:
    python3 scripts/run_scenarios.py                     # all runnable scenarios
    python3 scripts/run_scenarios.py cylinder_waist ...  # a chosen subset
    python3 scripts/run_scenarios.py --out-root runs --nodes 128
"""

import argparse
import json
import os
import sys
import time

from graphflow.app import BUILTIN_SCENARIOS, SCENARIOS, builtin_config, run_scenario
from graphflow.errors import ConfigurationError

DEFAULT = [s for s in BUILTIN_SCENARIOS if s != "torus_identity_edge"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenarios", nargs="*", default=None)
    parser.add_argument("--out-root", default="runs")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the 1D resolution of tsui_wang_s2")
    parser.add_argument("--t-end", type=float, default=None,
                        help="override the end time of the scenarios that flow")
    args = parser.parse_args(argv)

    given = {("grid", "nodes"): args.nodes, ("flow", "t_end"): args.t_end}
    names = args.scenarios or DEFAULT
    failures = 0
    for name in names:
        # each override goes only to a scenario that reads its key; an unknown name
        # is rejected by builtin_config below
        reads = SCENARIOS[name].settings if name in SCENARIOS else {}
        overrides = {key: value for key, value in given.items()
                     if value is not None and key in reads}
        out = os.path.join(args.out_root, name)
        t0 = time.perf_counter()
        try:
            cfg = builtin_config(name, overrides or None)
            manifest = run_scenario(cfg, out_dir=out)
        except ConfigurationError as exc:
            print(f"{name}: rejected by configuration checks ({exc})")
            failures += name not in ("torus_identity_edge",)
            continue
        elapsed = time.perf_counter() - t0
        with open(os.path.join(out, "verification.json")) as fh:
            verification = json.load(fh)
        with open(os.path.join(out, "classification.json")) as fh:
            classification = json.load(fh)
        ok = verification.get("overall_pass", False)
        failures += not ok
        print(f"{name}: status {manifest.status}, verification "
              f"{'PASS' if ok else 'FAIL'}, class {classification.get('class')}, "
              f"{elapsed:.1f}s -> {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
