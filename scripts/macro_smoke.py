#!/usr/bin/env python
"""Produce and gate the memory-macro run-manifest artifact for CI.

Runs the tile → route → signoff flow over a 32x32 bitcell macro with
tracing on, writes ``manifest.json`` + ``trace.jsonl`` to ``--out``, and
fails loudly when the contract drifts:

* the routed mesh is illegal — blockage violations, unstitched rails,
  or a missing ``macro_flow`` root span;
* signoff leaves the IR/EM/droop envelope, or the annealed mesh stops
  beating the uniform-width reference on rail metal area at equal
  constraints;
* the manifest no longer validates against its JSON Schema (the
  ``macro`` section and ``macro_*`` rollups included);
* ``macro_workload()`` fails to round-trip through a shard fleet
  (``--shards 2``) with the zero-silent-drops accounting invariant.

Exit code 0 prints the structural manifest digest; any contract
violation exits 1.

Usage::

    PYTHONPATH=src python scripts/macro_smoke.py --out macro-artifacts \
        --shards 2
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.engine import (
    EngineConfig,
    EvaluationEngine,
    MANIFEST_SCHEMA_VERSION,
    REPORT_SCHEMA_VERSION,
    SchemaError,
    ServeConfig,
    manifest_digest,
    validate_manifest,
)
from repro.engine.schema import check_report
from repro.engine.trace import finish_run
from repro.macro import (
    MacroSpec,
    SignoffSpec,
    macro_workload,
    optimize_mesh,
    tile_macro,
    uniform_mesh,
)
from repro.serve import ShardRouter


def _fail(message: str) -> None:
    print(f"MACRO GATE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def _find_span(spans: list, name: str) -> dict | None:
    for span in spans:
        if span["name"] == name:
            return span
        hit = _find_span(span.get("children", []), name)
        if hit is not None:
            return hit
    return None


def _gate_manifest(manifest: dict, rows: int, cols: int) -> None:
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
    macro = report["macro"]
    if macro["tiled"] < 1:
        _fail(f"macro rollup recorded no tilings: {macro}")
    if macro["units"] < rows * cols:
        _fail(f"expected >= {rows * cols} tiled units, rollup says "
              f"{macro['units']}")
    if macro["blockage_violations"] != 0:
        _fail(f"routed mesh crossed {macro['blockage_violations']} "
              f"blocked crossings")
    if macro["signoffs"] < 1:
        _fail("macro rollup recorded no signoffs")
    if macro["rails"] < 4:
        _fail(f"macro rollup recorded only {macro['rails']} rails")
    if macro["vias"] < 1:
        _fail("macro rollup recorded no via stitches")
    for key in ("tiled", "units", "rails", "vias", "signoffs",
                "blockage_violations"):
        if manifest["rollups"][f"macro_{key}"] != macro[key]:
            _fail(f"manifest rollup macro_{key} disagrees with the "
                  f"report section")
    if _find_span(report["spans"], "macro_flow") is None:
        _fail("macro_flow root span missing from the trace")


def _gate_fleet(shards: int, store_dir: Path) -> dict:
    serve = ServeConfig(shards=shards, shared_store_dir=str(store_dir))
    router = ShardRouter(EngineConfig(executor="thread", workers=2,
                                      serve=serve))
    router.register(macro_workload())
    points = [{"array": {"rows": 8, "cols": 8, "strap_every": 4},
               "mesh": {"h_rails": h, "v_rails": v,
                        "h_width_nm": 3_000, "v_width_nm": 3_000}}
              for h in (2, 3) for v in (2, 3)]
    points.append(dict(points[0]))  # fleet-wide dedup through the store
    with router:
        handles = [router.submit("macro", p) for p in points]
        results = [h.result(timeout=300) for h in handles]
        report = router.report()
    if results[0] != results[-1]:
        _fail("duplicate macro request returned a different result")
    if not all(r["feasible"] for r in results):
        _fail(f"fleet-served macros went infeasible: "
              f"{[r['feasible'] for r in results]}")
    serve_section = report["serve"]
    if serve_section["requests"] != (serve_section["admitted"]
                                     + serve_section["rejected"]):
        _fail(f"requests != admitted + rejected: {serve_section}")
    settled = (serve_section["completed"] + serve_section["expired"]
               + serve_section["cancelled"] + serve_section["errored"])
    if serve_section["admitted"] != settled:
        _fail(f"admitted != completed + expired + cancelled + errored: "
              f"{serve_section}")
    if len(serve_section["shards"]) != shards:
        _fail(f"expected {shards} shard entries: {serve_section}")
    try:
        check_report(report)
    except SchemaError as exc:
        _fail(f"fleet report does not validate: {exc}")
    return serve_section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("macro-artifacts"),
                        help="directory for manifest.json + trace.jsonl")
    parser.add_argument("--rows", type=int, default=32)
    parser.add_argument("--cols", type=int, default=32)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--shards", type=int, default=2,
                        help="fleet width for the workload round trip")
    args = parser.parse_args(argv)

    spec = MacroSpec(rows=args.rows, cols=args.cols, strap_every=8,
                     name=f"m{args.rows}x{args.cols}")
    signoff = SignoffSpec()
    config = EngineConfig(trace=True, trace_dir=args.out)
    engine = EvaluationEngine.from_config(config)
    try:
        with engine.tracer.span("macro_flow"):
            with engine.tracer.span("tile"):
                macro = tile_macro(spec)
            with engine.tracer.span("uniform"):
                uniform = uniform_mesh(macro, signoff)
            with engine.tracer.span("optimize"):
                annealed = optimize_mesh(macro, signoff, seed=args.seed)
        manifest = finish_run("macro_flow", engine, seed=args.seed,
                              config=config)
    finally:
        engine.close()

    mesh = annealed.mesh
    if mesh.blockage_violations != 0:
        _fail(f"annealed mesh has {mesh.blockage_violations} blockage "
              f"violations")
    if not mesh.is_fully_stitched():
        _fail("annealed mesh is not fully stitched")
    if not annealed.feasible:
        _fail(f"annealed mesh fails signoff: ir={annealed.worst_ir_drop:.4g}"
              f" droop={annealed.worst_droop:.4g} "
              f"em={len(annealed.em_violations)}")
    if annealed.worst_ir_drop > signoff.max_ir_drop:
        _fail(f"IR drop {annealed.worst_ir_drop:.4g} V > limit "
              f"{signoff.max_ir_drop} V")
    if annealed.worst_droop > signoff.max_droop:
        _fail(f"droop {annealed.worst_droop:.4g} V > limit "
              f"{signoff.max_droop} V")
    if annealed.em_violations:
        _fail(f"EM violations: {annealed.em_violations}")
    if uniform.feasible and annealed.metal_area >= uniform.metal_area:
        _fail(f"annealed metal area {annealed.metal_area} did not beat "
              f"uniform {uniform.metal_area}")

    if manifest is None:
        _fail("traced run produced no manifest")
    manifest_path = args.out / "manifest.json"
    if not manifest_path.is_file():
        _fail(f"{manifest_path} was not written")
    manifest = json.loads(manifest_path.read_text())
    _gate_manifest(manifest, args.rows, args.cols)

    with tempfile.TemporaryDirectory() as tmp:
        serve_section = _gate_fleet(args.shards, Path(tmp) / "store")

    digest = manifest_digest(manifest)
    print(f"manifest: {manifest_path}")
    print(f"macro: {json.dumps(manifest['report']['macro'], sort_keys=True)}")
    print(f"uniform: area={uniform.metal_area} "
          f"feasible={uniform.feasible} (mesh {uniform.mesh.spec.describe()})")
    print(f"annealed: area={annealed.metal_area} "
          f"ir={annealed.worst_ir_drop:.4g} V "
          f"droop={annealed.worst_droop:.4g} V em=0 "
          f"(mesh {mesh.spec.describe()}, {annealed.evaluations} evals)")
    if uniform.feasible:
        print(f"area win: {uniform.metal_area / annealed.metal_area:.2f}x "
              f"less rail metal than the uniform reference")
    print(f"fleet: {serve_section['completed']} completed over "
          f"{len(serve_section['shards'])} shards, invariant ok")
    print(f"structural digest: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
