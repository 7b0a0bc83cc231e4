#!/usr/bin/env python
"""Produce and gate the compositional-topogen run-manifest artifact for CI.

Runs the generate → validate → prune → size funnel over a seed-stable
sample of the composed structure space with tracing on, writes
``manifest.json`` + ``trace.jsonl`` to ``--out``, and fails loudly when
the contract drifts:

* the manifest no longer validates against its JSON Schema (the
  ``topogen`` section and ``topogen_*`` rollups included);
* the symbolic pruning pass cuts the sized set by less than 5x;
* the funnel's best sized design stops being feasible, or falls behind
  the legacy ``select_enumerate`` reference over the canned registry on
  the same Table 1-style specs (modest tolerance — the funnel sizes by
  simulation, the reference by equations).

Exit code 0 prints the structural manifest digest; any contract
violation exits 1.

Usage::

    PYTHONPATH=src python scripts/topogen_smoke.py --out topogen-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.specs import Spec, SpecSet
from repro.engine import (
    EngineConfig,
    EvaluationEngine,
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    SchemaError,
    manifest_digest,
    validate_manifest,
)
from repro.engine.trace import finish_run
from repro.opt.anneal import AnnealSchedule
from repro.synthesis.compose import TopologyFunnel
from repro.synthesis.topology import default_candidates, select_enumerate

TABLE1_SPECS = SpecSet([Spec.at_least("gain_db", 60.0),
                        Spec.at_least("gbw", 5e6),
                        Spec.minimize("power", good=1e-4)])

MIN_PRUNE_RATIO = 5.0
#: The funnel sizes real netlists by simulation with a breadth-first
#: budget; the reference optimizes analytic equations.  It must land in
#: the same cost regime, with a little slack for the model gap.
REFERENCE_TOLERANCE = 1.10
REFERENCE_SLACK = 0.05


def _fail(message: str) -> None:
    print(f"TOPOGEN GATE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def _gate_manifest(manifest: dict, sample: int, keep: int) -> None:
    try:
        validate_manifest(manifest)
    except SchemaError as exc:
        _fail(f"manifest does not validate: {exc}")
    if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
        _fail(f"manifest schema_version {manifest['schema_version']} != "
              f"pinned {MANIFEST_SCHEMA_VERSION}")
    report = manifest["report"]
    if report["schema_version"] != REPORT_SCHEMA_VERSION:
        _fail(f"report schema_version {report['schema_version']} != "
              f"pinned {REPORT_SCHEMA_VERSION}")
    topogen = report["topogen"]
    if topogen["generated"] != sample:
        _fail(f"expected {sample} generated structures, rollup says "
              f"{topogen['generated']}")
    if topogen["valid"] + topogen["invalid"] != topogen["generated"]:
        _fail("valid + invalid != generated in the topogen rollup")
    if topogen["sized"] != keep:
        _fail(f"expected {keep} sized survivors, rollup says "
              f"{topogen['sized']}")
    ratio = topogen["prune_ratio"]
    if ratio is None or ratio < MIN_PRUNE_RATIO:
        _fail(f"symbolic pruning ratio {ratio} < {MIN_PRUNE_RATIO}x")
    rollups = manifest["rollups"]
    for key in ("generated", "valid", "survivors", "sized", "prune_ratio"):
        if rollups[f"topogen_{key}"] != topogen[key]:
            _fail(f"manifest rollup topogen_{key} disagrees with the "
                  f"report section")
    if not any(s["name"] == "topogen" for s in report["spans"]):
        _fail("topogen root span missing from the trace")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("topogen-artifacts"),
                        help="directory for manifest.json + trace.jsonl")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--sample", type=int, default=30,
                        help="structures drawn from the grammar")
    parser.add_argument("--keep", type=int, default=5,
                        help="survivors of the symbolic pruning pass")
    args = parser.parse_args(argv)
    if args.sample < args.keep * MIN_PRUNE_RATIO:
        _fail(f"--sample {args.sample} cannot satisfy the {MIN_PRUNE_RATIO}x"
              f" prune gate with --keep {args.keep}")

    config = EngineConfig(cache=True, trace=True, trace_dir=args.out)
    engine = EvaluationEngine.from_config(config)
    try:
        funnel = TopologyFunnel(
            TABLE1_SPECS, engine=engine, seed=args.seed,
            sample=args.sample, keep=args.keep,
            schedule=AnnealSchedule(moves_per_temperature=16, cooling=0.7,
                                    max_evaluations=160))
        result = funnel.run()
        manifest = finish_run("topogen_funnel", engine, seed=args.seed,
                              config=config)
    finally:
        engine.close()

    if manifest is None:
        _fail("traced run produced no manifest")
    manifest_path = args.out / "manifest.json"
    if not manifest_path.is_file():
        _fail(f"{manifest_path} was not written")
    manifest = json.loads(manifest_path.read_text())
    _gate_manifest(manifest, args.sample, args.keep)

    if result.best is None:
        _fail("funnel sized no structure at all")
    if not result.best.sizing.feasible:
        _fail(f"funnel best {result.best.topology} is not feasible")
    reference = select_enumerate(TABLE1_SPECS, default_candidates(), seed=1)
    bound = reference.sizing.cost * REFERENCE_TOLERANCE + REFERENCE_SLACK
    if not result.best.sizing.cost <= bound:
        _fail(f"funnel best cost {result.best.sizing.cost:.4g} worse than "
              f"legacy enumerate reference {reference.sizing.cost:.4g} "
              f"(bound {bound:.4g})")

    digest = manifest_digest(manifest)
    print(f"manifest: {manifest_path}")
    print(f"topogen: "
          f"{json.dumps(manifest['report']['topogen'], sort_keys=True)}")
    print(f"funnel best: {result.best.topology} "
          f"cost={result.best.sizing.cost:.4g} "
          f"(reference {reference.topology} "
          f"cost={reference.sizing.cost:.4g})")
    print(f"prune: {len(result.ranked)} ranked -> "
          f"{len(result.survivors)} sized ({result.prune_ratio:.1f}x)")
    print(f"structural digest: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
