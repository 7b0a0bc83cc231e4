"""Versioned schemas for ``engine.report()`` and the run manifest.

The report and the manifest are machine-read surfaces: CI gates on them,
benchmarks harvest them, and future BENCH_*.json tooling will parse them.
Both therefore carry an explicit ``schema_version`` and this module is the
single place the contract lives:

* :data:`SECTIONS` — the one declaration of every report section: each
  field once (a counter, a ratio of counter sums, a nearest-rank
  percentile of a sample, a counter-prefix histogram, or the fleet's
  shard list) plus the fields that roll up into the manifest.
  :func:`render_report` (the single renderer behind
  :meth:`repro.engine.EvaluationEngine.report` and
  :meth:`repro.serve.ShardRouter.report`), :func:`check_report`,
  :func:`section_rollups` and :func:`manifest_schema` are all generated
  from it;
* :data:`REPORT_SCHEMA_VERSION` / :data:`REQUIRED_REPORT_KEYS` — the shape
  of the report;
* :data:`MANIFEST_SCHEMA_VERSION` and ``run_manifest_schema.json`` (checked
  in next to this module: the parts no section declares) — the shape of
  the per-run manifest;
* :func:`validate` — a dependency-free validator for the JSON-Schema subset
  the manifest schema uses (no third-party ``jsonschema`` in the image).

A new section is one :class:`Section` entry in :data:`SECTIONS`, a bump of
both versions and one history line each below.  Bumping either version is
a deliberate, reviewed act: change the constant, the registry or schema
file and the consumers in one commit, or CI's drift gate fails.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

#: Version of the dict returned by ``EvaluationEngine.report()``.
#: v1 was the implicit pre-versioning shape (counters/timers/failures/
#: executor/cache); v2 adds ``schema_version`` and ``spans``; v3 adds
#: ``solver`` (rollup of the shared linear-solver layer's counters);
#: v4 adds ``serve`` (rollup of the serving layer's ``serve.*`` counters
#: and latency samples); v5 adds ``surrogate`` (rollup of the surrogate
#: screening layer's ``surrogate.*`` counters and fit/predict latency
#: samples); v6 adds ``kernel`` (rollup of the batched-evaluation
#: kernel's ``kernel.*`` counters and per-group latency samples); v7
#: adds ``serve.shards`` (per-shard outcome breakdown of a sharded
#: fleet — ``[]`` for a single unsharded broker) so merged fleet
#: reports carry the fleet-wide sums *and* who did what; v8 adds
#: ``topogen`` (rollup of the compositional topology-generation
#: funnel's ``topogen.*`` counters plus the interval selector's
#: unproven-pass count); v9 adds ``macro`` (rollup of the memory-macro
#: flow's ``macrogen.*`` counters plus the power grid's width-rejection
#: count).
REPORT_SCHEMA_VERSION = 9

#: Version of the per-run manifest written by traced flows.
#: v2 adds the ``solver_*`` rollups sourced from report["solver"];
#: v3 adds the ``serve_*`` rollups sourced from report["serve"];
#: v4 adds the ``surrogate_*`` rollups sourced from report["surrogate"];
#: v5 adds the ``kernel_*`` rollups sourced from report["kernel"];
#: v6 adds ``serve_shards`` (fleet width, 0 when unsharded) alongside
#: the report's v7 per-shard serve breakdown; v7 adds the ``topogen_*``
#: rollups sourced from report["topogen"]; v8 adds the ``macro_*``
#: rollups sourced from report["macro"].
MANIFEST_SCHEMA_VERSION = 8

_SCHEMA_PATH = Path(__file__).with_name("run_manifest_schema.json")


class SchemaError(ValueError):
    """An instance does not match its declared schema."""


def _nearest_rank(values: list, q: float) -> float | None:
    """Nearest-rank percentile of raw samples (no numpy on this path)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))  # nearest-rank definition
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _total(counters: dict, names: tuple[str, ...]) -> int:
    return sum(int(counters.get(name, 0)) for name in names)


_INT = {"type": "integer"}
_NUMBER_OR_NULL = {"type": ["number", "null"]}


@dataclass(frozen=True)
class Field:
    """One key of a report section: its JSON Schema and its value.

    ``value(counters, samples, shards)`` computes the field from the
    telemetry counters, a sample-name → observations lookup and the
    fleet's per-shard breakdown.  A field in its section's ``rollups``
    becomes the manifest rollup ``<section>_<field>``: ``rollup(value)``
    of type ``rollup_schema`` (default: the field's own).  ``check``
    gates the value beyond key presence in :func:`check_report`.
    """

    name: str
    schema: dict
    value: Callable[[dict, Callable[[str], list], list], Any]
    rollup: Callable[[Any], Any] = lambda value: value
    rollup_schema: dict | None = None
    check: Callable[[Any, str], None] | None = None


def _counter(name: str, source: str) -> Field:
    """The integer counter ``source`` (0 when never bumped)."""
    return Field(name, _INT, lambda c, _s, _sh: int(c.get(source, 0)))


def _counters(prefix: str, *names: str) -> tuple[Field, ...]:
    """One :func:`_counter` per name, read from ``prefix + name``."""
    return tuple(_counter(name, prefix + name) for name in names)


def _ratio(name: str, num: tuple[str, ...], den: tuple[str, ...]) -> Field:
    """Sum of the ``num`` counters over sum of the ``den`` counters;
    None while the denominator is 0."""
    def value(c, _s, _sh):
        d = _total(c, den)
        return _total(c, num) / d if d else None
    return Field(name, _NUMBER_OR_NULL, value)


def _percentile(name: str, sample: str, q: float) -> Field:
    """Nearest-rank ``q`` percentile of the ``sample`` observations.

    Name it ``*_s``: wall-clock values are volatile and stripped from
    structural digests.
    """
    return Field(name, _NUMBER_OR_NULL,
                 lambda _c, s, _sh: _nearest_rank(s(sample), q))


def _histogram(name: str, prefix: str) -> Field:
    """``{suffix: n}`` over the counters named ``prefix + suffix``."""
    return Field(name, {"type": "object"}, lambda c, _s, _sh: {
        key[len(prefix):]: int(n) for key, n in sorted(c.items())
        if key.startswith(prefix)})


#: Keys and JSON types of each entry of a fleet's shard list.  The
#: outcome counters are router-observed (every settle crosses the
#: router), so they stay correct even when the shard itself crashed.
SHARD_FIELDS = {"shard": "integer", "condemned": "boolean",
                **dict.fromkeys(("restarts", "routed", "rerouted", "completed",
                                 "expired", "cancelled", "errored"),
                                "integer")}


def _check_shards(value: Any, where: str) -> None:
    if not isinstance(value, list):
        raise SchemaError(
            f"{where} must be a list, got {type(value).__name__}")
    for i, entry in enumerate(value):
        _require(entry, SHARD_FIELDS, f"{where}[{i}]")


def _shard_list(name: str) -> Field:
    """The per-shard breakdown of a :class:`repro.serve.ShardRouter`
    fleet — ``[]`` for one engine, so ``sum over shards == fleet
    total`` is checkable whenever it is non-empty.  Rolls up as the
    fleet width."""
    return Field(name, {"type": "array", "items": {"$ref": "#/$defs/shard"}},
                 lambda _c, _s, shards: list(shards), rollup=len,
                 rollup_schema=_INT, check=_check_shards)


@dataclass(frozen=True)
class Section:
    """One report section, always present (all-zero, ratios and
    percentiles None, when a run never touched its layer) so consumers
    never need an existence check.

    ``fields`` are in report order.  ``rollups`` maps a manifest schema
    version to the fields that version added as ``<section>_<field>``
    rollups; the version orders the manifest's rollups.
    """

    name: str
    fields: tuple[Field, ...]
    rollups: Mapping[int, tuple[str, ...]]

    def field(self, name: str) -> Field:
        return next(f for f in self.fields if f.name == name)

    def render(self, counters: dict, samples: Callable[[str], list],
               shards: Sequence[dict]) -> dict:
        return {f.name: f.value(counters, samples, shards)
                for f in self.fields}

    def schema(self) -> dict:
        return {"type": "object", "required": [f.name for f in self.fields],
                "properties": {f.name: f.schema for f in self.fields}}


#: Every report section, in report order (schema version that added it).
SECTIONS = (
    # v3: the shared factor-once/solve-many layer (repro.analysis.solver).
    Section("solver", (
        _counter("factorizations", "solver.factorizations"),
        _counter("dense", "solver.factor_dense"),
        _counter("sparse", "solver.factor_sparse"),
        *_counters("solver.", "solves", "cache_hits", "cache_misses"),
        _ratio("hit_rate", ("solver.cache_hits",),
               ("solver.cache_hits", "solver.cache_misses")),
    ), rollups={2: ("factorizations", "solves", "hit_rate")}),
    # v4: the serving layer (repro.serve); the histogram is bumped once
    # per dispatched batch, the latencies are per request; v7: shards.
    Section("serve", (
        *_counters("serve.", "requests", "admitted", "rejected", "expired",
                   "cancelled", "errored", "completed", "batches",
                   "batched"),
        _ratio("mean_batch_size", ("serve.batched",), ("serve.batches",)),
        _histogram("batch_size_hist", "serve.batch_size."),
        _percentile("latency_p50_s", "serve.latency_s", 0.50),
        _percentile("latency_p95_s", "serve.latency_s", 0.95),
        _percentile("latency_p99_s", "serve.latency_s", 0.99),
        _shard_list("shards"),
    ), rollups={3: ("requests", "rejected", "expired", "batches",
                    "mean_batch_size"),
                6: ("shards",)}),
    # v5: surrogate screening (repro.surrogate).
    Section("surrogate", (
        *_counters("surrogate.", "fits", "predictions", "screened",
                   "simulated", "sims_avoided", "verify_misses", "fallbacks"),
        _ratio("avoid_rate", ("surrogate.sims_avoided",),
               ("surrogate.screened",)),
        _percentile("fit_latency_p50_s", "surrogate.fit_s", 0.50),
        _percentile("predict_latency_p50_s", "surrogate.predict_s", 0.50),
    ), rollups={4: ("fits", "predictions", "sims_avoided", "verify_misses",
                    "avoid_rate")}),
    # v6: batched group evaluation in EvaluationEngine.map_evaluate.
    # That path is gone (every point goes through the executor), so no
    # code bumps kernel.* and every field reads 0 or None.  The section
    # and its kernel_* rollups stay declared, with both schema versions
    # unchanged, because perfbench's serve workload reads
    # report["kernel"] on every run; dropping the section is a schema
    # bump once that read goes.
    Section("kernel", (
        *_counters("kernel.", "groups", "batches", "batched_points",
                   "scalar_points", "member_fallbacks", "group_fallbacks",
                   "fault_exclusions"),
        _ratio("mean_batch_points", ("kernel.batched_points",),
               ("kernel.batches",)),
        _percentile("batch_latency_p50_s", "kernel.batch_s", 0.50),
    ), rollups={5: ("batches", "batched_points", "scalar_points",
                    "mean_batch_points")}),
    # v8: the topology-generation funnel (repro.synthesis.compose).
    # interval_unproven: candidates the interval selector let through
    # unproven; prune_ratio: ranked structures per sized survivor, the
    # cut symbolic pruning made before any simulation ran.
    Section("topogen", (
        *_counters("topogen.", "generated", "valid", "invalid"),
        _counter("interval_unproven", "topology.interval_unproven"),
        *_counters("topogen.", "symbolic_ranked", "symbolic_fallbacks",
                   "pruned_out", "survivors", "sized"),
        _ratio("prune_ratio",
               ("topogen.symbolic_ranked", "topogen.symbolic_fallbacks"),
               ("topogen.survivors",)),
    ), rollups={7: ("generated", "valid", "survivors", "sized",
                    "prune_ratio")}),
    # v9: the memory-macro flow (repro.macro).  width_rejected: the
    # power grid's non-positive-width rejections; detour_rate: share of
    # routed rails the mesh router's A* jogged around a keepout.
    Section("macro", (
        *_counters("macrogen.", "tiled", "units"),
        _counter("rails", "macrogen.rails_routed"),
        _counter("detours", "macrogen.rail_detours"),
        *_counters("macrogen.", "vias", "blockage_violations", "signoffs",
                   "em_violations"),
        _counter("width_rejected", "powergrid.width_rejected"),
        _ratio("detour_rate", ("macrogen.rail_detours",),
               ("macrogen.rails_routed",)),
    ), rollups={8: ("tiled", "units", "rails", "vias", "signoffs",
                    "blockage_violations")}),
)

#: Keys every ``report()`` dict must contain: telemetry, executor, cache
#: and spans, then one per section.
REQUIRED_REPORT_KEYS = ("schema_version", "counters", "timers", "failures",
                        "executor", "cache", "spans",
                        *(section.name for section in SECTIONS))


def render_report(telemetry, *, executor: dict, cache: dict | None,
                  spans: list, shards: Sequence[dict] = ()) -> dict:
    """The versioned report of one engine or of a whole fleet.

    ``telemetry`` (a :class:`~repro.engine.telemetry.Telemetry`) supplies
    counters, timers, failures and the samples behind the percentiles;
    ``shards`` is a fleet's per-shard breakdown (empty for one engine).
    """
    out = telemetry.report()
    out["schema_version"] = REPORT_SCHEMA_VERSION
    out["executor"] = executor
    out["cache"] = cache
    out["spans"] = spans
    for section in SECTIONS:
        out[section.name] = section.render(
            out["counters"], telemetry.sample_values, shards)
    return out


def _rollup_fields() -> list[tuple[Section, Field]]:
    """Every rolled-up ``(section, field)`` in manifest order: by the
    manifest version that added it, then registry order."""
    added = [(version, section, section.field(name))
             for section in SECTIONS
             for version, names in section.rollups.items()
             for name in names]
    return [(section, f)
            for _, section, f in sorted(added, key=lambda a: a[0])]


def section_rollups(report: dict) -> dict:
    """The manifest's ``<section>_<field>`` rollups of a report."""
    return {f"{section.name}_{f.name}": f.rollup(report[section.name][f.name])
            for section, f in _rollup_fields()}


def check_report(report: dict) -> None:
    """Gate an ``engine.report()`` dict against the current contract.

    Raises :class:`SchemaError` on version or required-key drift — the
    check CI runs on the pulse-detector manifest so that a report-shape
    change can never land silently.
    """
    if not isinstance(report, dict):
        raise SchemaError(f"report must be a dict, got {type(report).__name__}")
    missing = [k for k in REQUIRED_REPORT_KEYS if k not in report]
    if missing:
        raise SchemaError(f"report is missing required keys: {missing}")
    version = report["schema_version"]
    if version != REPORT_SCHEMA_VERSION:
        raise SchemaError(
            f"report schema_version {version!r} != expected "
            f"{REPORT_SCHEMA_VERSION!r} (bump REPORT_SCHEMA_VERSION and the "
            f"consumers together if this change is intentional)")
    failures = report["failures"]
    for key in ("total", "by_type", "records"):
        if key not in failures:
            raise SchemaError(f"report['failures'] missing {key!r}")
    for section in SECTIONS:
        body = report[section.name]
        where = f"report[{section.name!r}]"
        _require(body, [f.name for f in section.fields], where)
        for f in section.fields:
            if f.check is not None:
                f.check(body[f.name], f"{where}[{f.name!r}]")


def _require(obj: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where} missing keys: {missing}")


def manifest_schema() -> dict:
    """The run manifest's JSON Schema.

    The checked-in ``run_manifest_schema.json`` holds the parts no
    section declares; every section's schema, its rollups and the shard
    entry are generated from :data:`SECTIONS` here.
    """
    with open(_SCHEMA_PATH) as fh:
        schema = json.load(fh)
    report = schema["properties"]["report"]
    for section in SECTIONS:
        report["required"].append(section.name)
        report["properties"][section.name] = copy.deepcopy(section.schema())
    rollups = schema["properties"]["rollups"]
    for section, f in _rollup_fields():
        name = f"{section.name}_{f.name}"
        rollups["required"].append(name)
        rollups["properties"][name] = copy.deepcopy(
            f.rollup_schema or f.schema)
    schema["$defs"]["shard"] = {
        "type": "object", "required": list(SHARD_FIELDS),
        "properties": {k: {"type": t} for k, t in SHARD_FIELDS.items()}}
    return schema


def validate_manifest(manifest: dict) -> None:
    """Validate a run manifest against :func:`manifest_schema`."""
    validate(manifest, manifest_schema())
    check_report(manifest["report"])


# ----------------------------------------------------------------------
# Minimal JSON-Schema validator
# ----------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value: Any, name: str) -> bool:
    expected = _TYPES[name]
    if name in ("integer", "number") and isinstance(value, bool):
        return False  # bool is an int subclass; schemas mean real numbers
    return isinstance(value, expected)


def validate(instance: Any, schema: dict, root: dict | None = None,
             path: str = "$") -> None:
    """Validate ``instance`` against the JSON-Schema subset we use.

    Supported keywords: ``type`` (string or list), ``properties``,
    ``required``, ``items``, ``enum``, ``const`` and ``$ref`` into
    ``#/$defs/...``.  Raises :class:`SchemaError` naming the offending
    path.  Deliberately not a general validator — it covers exactly what
    ``run_manifest_schema.json`` needs, with zero dependencies.
    """
    root = root if root is not None else schema
    ref = schema.get("$ref")
    if ref is not None:
        target: Any = root
        for part in ref.lstrip("#/").split("/"):
            target = target[part]
        validate(instance, target, root, path)
        return
    if "const" in schema and instance != schema["const"]:
        raise SchemaError(
            f"{path}: expected const {schema['const']!r}, got {instance!r}")
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(
            f"{path}: {instance!r} not in enum {schema['enum']!r}")
    type_spec = schema.get("type")
    if type_spec is not None:
        names = [type_spec] if isinstance(type_spec, str) else list(type_spec)
        if not any(_type_ok(instance, n) for n in names):
            raise SchemaError(
                f"{path}: expected type {'|'.join(names)}, got "
                f"{type(instance).__name__}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise SchemaError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                validate(instance[key], sub, root, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate(item, schema["items"], root, f"{path}[{i}]")
