#!/usr/bin/env python
"""Produce and gate the pulse-detector run-manifest artifact for CI.

Runs the Table 1 pulse-detector flow (synthesize → verify → check) with
tracing on, writes ``manifest.json`` + ``trace.jsonl`` to ``--out``, and
fails loudly when the observability contract drifts:

* the manifest no longer validates against its JSON Schema
  (``repro.engine.schema.manifest_schema()``);
* ``schema_version`` / report ``schema_version`` moved without this
  gate being updated;
* a required report key disappeared;
* a JobGraph stage is missing from the span tree.

Exit code 0 prints the structural manifest digest — stable across
reruns of the same seed + config (``--out`` is part of the config, so
compare digests produced with the same output directory); any contract
violation exits 1.

Usage::

    PYTHONPATH=src python scripts/pulse_detector_manifest.py --out run-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.engine import (
    EngineConfig,
    MANIFEST_SCHEMA_VERSION,
    SchemaError,
    check_report,
    manifest_digest,
    validate_manifest,
)
from repro.opt.anneal import AnnealSchedule
from repro.synthesis.pulse_detector import pulse_detector_flow

EXPECTED_STAGES = ("synthesize", "verify", "check")


def _fail(message: str) -> None:
    print(f"MANIFEST GATE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def _gate(manifest: dict) -> None:
    """The drift gate: schema, versions, required keys, stage coverage."""
    try:
        validate_manifest(manifest)
    except SchemaError as exc:
        _fail(f"manifest does not validate: {exc}")
    if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
        _fail(f"manifest schema_version {manifest['schema_version']} != "
              f"pinned {MANIFEST_SCHEMA_VERSION}")
    report = manifest["report"]
    try:
        check_report(report)  # report schema_version and required keys
    except SchemaError as exc:
        _fail(f"engine report drifted: {exc}")

    flow_spans = [s for s in report["spans"]
                  if s["name"] == "pulse_detector_flow"]
    if len(flow_spans) != 1:
        _fail("expected exactly one pulse_detector_flow root span")
    stages = {child["name"]: child for child in flow_spans[0]["children"]}
    for name in EXPECTED_STAGES:
        span = stages.get(name)
        if span is None:
            _fail(f"stage span {name!r} missing from the trace")
        if span["duration_s"] < 0.0:
            _fail(f"stage {name!r} has a negative duration")
    timers = report["timers"]
    for name in EXPECTED_STAGES:
        if f"stage.{name}" not in timers:
            _fail(f"stage timer stage.{name} missing from the report")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("run-artifacts"),
                        help="directory for manifest.json + trace.jsonl")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="small annealing schedule (smoke runs)")
    args = parser.parse_args(argv)

    schedule = AnnealSchedule(moves_per_temperature=60, cooling=0.8,
                              max_evaluations=4000) if args.quick else None
    config = EngineConfig(trace=True, trace_dir=args.out)
    run = pulse_detector_flow(seed=args.seed, schedule=schedule,
                              config=config)

    manifest_path = args.out / "manifest.json"
    if not manifest_path.is_file():
        _fail(f"{manifest_path} was not written")
    manifest = json.loads(manifest_path.read_text())
    _gate(manifest)

    events_path = args.out / "trace.jsonl"
    if not events_path.is_file():
        _fail(f"{events_path} was not written")
    n_events = sum(1 for line in events_path.read_text().splitlines()
                   if json.loads(line))

    digest = manifest_digest(manifest)
    print(f"manifest: {manifest_path}")
    print(f"trace events: {n_events} ({events_path})")
    print(f"rollups: {json.dumps(manifest['rollups'], sort_keys=True)}")
    print("solver: "
          f"{json.dumps(manifest['report']['solver'], sort_keys=True)}")
    print("kernel: "
          f"{json.dumps(manifest['report']['kernel'], sort_keys=True)}")
    print("surrogate: "
          f"{json.dumps(manifest['report']['surrogate'], sort_keys=True)}")
    print(f"check: specs_met={run.check['specs_met']:.0f} "
          f"feasible={run.check['feasible']:.0f} "
          f"peaking_time_rel_err={run.check['peaking_time_rel_err']:.4f}")
    print(f"structural digest: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
