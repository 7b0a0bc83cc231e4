"""Hierarchical tracing: spans, a structured event log, and run manifests.

The paper's core quantitative claims are *cost* claims — 4x-10x CPU
overhead for manufacturability-aware synthesis (§2.2), exponential vs.
O(n) stack extraction (§3.1) — and the ROADMAP's "as fast as the hardware
allows" goal needs every perf PR to prove itself.  Both require the same
primitive: attributing wall time and simulator calls to a synthesis
stage.  This module is that primitive.

Three layers, cheapest first:

* **Spans** — ``tracer.span("size")`` context managers with monotonic
  durations and parent/child nesting.  Span *paths* follow the flow
  hierarchy (``cell_flow/iteration_1/size``).  On exit a span captures
  the delta of the engine's :class:`~repro.engine.telemetry.Telemetry`
  counters, so every span knows exactly how many evaluations, cache hits,
  simulator calls and failures happened inside it.
* **Events** — flat, structured records (``batch``, ``failure``,
  ``retry``, ``anneal_temperature``, ...) appended per occurrence and
  dumped as JSONL.  Events carry the current span path, a sequence
  number, and a relative timestamp.
* **Manifest** — one JSON document per flow run: seed, engine config,
  the full versioned ``engine.report()`` (span tree included) and a
  rollup block (wall time, simulator calls, failures, cache hit rate).

Determinism contract: the *structure* of a trace — span names, nesting,
order, statuses, counters, and the structural fields of every event — is
a pure function of (seed, config).  Wall-clock fields (any key ending in
``_s``, plus the ``timers`` section) are volatile by convention;
:func:`strip_volatile` removes them, which is what the differential tests
compare and what :func:`manifest_digest` hashes.  A serial and a parallel
run of the same seeded flow therefore produce byte-identical structures.

The **active tracer** is module state: entering a span pushes its tracer,
and each analysis entry point (``dc_operating_point``, ``ac_analysis``,
``noise_analysis``, ``transient``) counts ``analysis.<kind>`` once per
call on whatever tracer is active.  The engine *suspends* the active
tracer around executor dispatch (:func:`suspended`) so in-process
(serial) evaluations are not counted where pool workers could not count
them, and its ``engine.evaluations`` is the one count of dispatched
simulations: serial and parallel runs attribute identically, with
worker-side cost reported through the executor's shipped-back timings
instead.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.engine.schema import MANIFEST_SCHEMA_VERSION, section_rollups
from repro.engine.telemetry import Telemetry

# ----------------------------------------------------------------------
# Active-tracer stack
# ----------------------------------------------------------------------

# Entries are Tracer instances (pushed by Tracer.span) or None (pushed by
# suspended()); the top entry wins.  Module-level on purpose: the analysis
# layer must reach the tracer without threading it through every call.
_ACTIVE: list["Tracer | None"] = []


def current_tracer() -> "Tracer | None":
    """The innermost active tracer, or None (also None when suspended)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def suspended() -> Iterator[None]:
    """Mask the active tracer for the duration of the block.

    The engine wraps executor dispatch in this so that analysis-level
    counters fire identically under serial (in-process) and parallel
    (worker-process) executors — workers never see the parent's tracer,
    so the serial path must not count what they cannot.
    """
    _ACTIVE.append(None)
    try:
        yield
    finally:
        _ACTIVE.pop()


def span_if(tracer: "Tracer | None", name: str):
    """``tracer.span(name)`` or a no-op context when there is no tracer."""
    return tracer.span(name) if tracer is not None else nullcontext()


def count(name: str, n: int = 1) -> None:
    """Bump counter ``name`` on the active tracer; a no-op without one.

    The single gate for layer counters (``solver.*``, ``analysis.*``,
    ``macrogen.*``, ``powergrid.*``) that no engine is passed down to.
    """
    tracer = current_tracer()
    if tracer is not None:
        tracer.count(name, n)


# ----------------------------------------------------------------------
# Volatile-field stripping (the determinism boundary)
# ----------------------------------------------------------------------

#: Dict keys that are wall-clock-dependent and excluded from structural
#: comparison: everything ending in ``_s`` plus these exact names.
VOLATILE_KEYS = frozenset({"timers", "t_rel"})


def _is_volatile(key: str) -> bool:
    return key in VOLATILE_KEYS or key.endswith("_s")


def strip_volatile(obj: Any) -> Any:
    """Recursively drop wall-clock fields, keeping structure and counts."""
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items()
                if not _is_volatile(k)}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    """One timed, counted region of a run.

    ``counters`` holds the *inclusive* telemetry counter deltas observed
    between span entry and exit (children's work is included in their
    parents — sum leaves, not the whole tree).  ``index`` is the global
    start order, which makes flattened span lists comparable across runs.
    """

    name: str
    path: str
    index: int
    status: str = "ok"
    duration_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def simulator_calls(self) -> int:
        """Simulator work attributed to this span (inclusive).

        Engine-routed evaluations (``engine.evaluations``, each one
        simulator run dispatched to an executor) plus direct parent-side
        analysis calls (``analysis.<kind>``, counted once per call by
        each analysis entry point).
        """
        return (self.counters.get("engine.evaluations", 0)
                + sum(n for key, n in self.counters.items()
                      if key.startswith("analysis.")))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "index": self.index,
            "status": self.status,
            "duration_s": self.duration_s,
            "counters": dict(sorted(self.counters.items())),
            "children": [c.as_dict() for c in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class Tracer:
    """Span tree + event log bound to one :class:`Telemetry` instance.

    Created standalone (it builds its own telemetry) or attached to an
    :class:`~repro.engine.core.EvaluationEngine`, which rebinds
    ``telemetry`` so span counter deltas observe the engine's counters.
    Events accumulate in memory (flows emit tens to hundreds, not
    millions) and are dumped with :meth:`write_events`; spans are
    rendered with :meth:`span_tree` / :meth:`structure`.
    """

    def __init__(self, telemetry: Telemetry | None = None):
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.roots: list[Span] = []
        self.events: list[dict] = []
        self._stack: list[Span] = []
        self._seq = 0
        self._span_index = 0
        self._t0 = time.perf_counter()

    # -- counters ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Bump a telemetry counter (and thereby the enclosing spans)."""
        self.telemetry.count(name, n)

    @property
    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str, *,
             duration_s: float | None = None) -> Iterator[Span]:
        """Open a child span of the current span (or a new root span).

        Naming convention: lowercase, ``_``-separated component names;
        the hierarchy, not the name, encodes context (``size``, not
        ``cell_flow_size``).  Paths join names with ``/``.

        ``duration_s`` records a *pre-timed* span: the given duration is
        used instead of the measured wall time, on both the span and its
        ``span_end`` event.  Use it to attribute work that already
        happened elsewhere (e.g. the serving layer re-attributing one
        batch's wall time to the requests inside it) without the event
        log and the span tree disagreeing about the duration.
        """
        parent = self.current_span
        path = f"{parent.path}/{name}" if parent is not None else name
        sp = Span(name=name, path=path, index=self._span_index)
        self._span_index += 1
        (parent.children if parent is not None else self.roots).append(sp)
        before = dict(self.telemetry.counters)
        self._stack.append(sp)
        _ACTIVE.append(self)
        self.event("span_start", span=path)
        t0 = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.status = "error"
            raise
        finally:
            sp.duration_s = duration_s if duration_s is not None \
                else time.perf_counter() - t0
            sp.counters = {
                k: v - before.get(k, 0)
                for k, v in self.telemetry.counters.items()
                if v != before.get(k, 0)
            }
            _ACTIVE.pop()
            self._stack.pop()
            self.event("span_end", span=path, status=sp.status,
                       duration_s=sp.duration_s,
                       counters=dict(sorted(sp.counters.items())))

    # -- events --------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> dict:
        """Append one structured event (JSONL record) to the log.

        ``seq`` and ``span`` are structural; ``t_rel`` is volatile.
        Callers put wall-clock payload fields under ``*_s`` names so
        :func:`strip_volatile` removes them uniformly.
        """
        record = {
            "seq": self._seq,
            "kind": kind,
            "span": self._stack[-1].path if self._stack else None,
            "t_rel": time.perf_counter() - self._t0,
            **fields,
        }
        self._seq += 1
        self.events.append(record)
        return record

    # -- rendering -----------------------------------------------------
    def span_tree(self) -> list[dict]:
        """The full span forest, durations included."""
        return [sp.as_dict() for sp in self.roots]

    def structure(self) -> list[dict]:
        """The span forest with volatile (wall-clock) fields stripped.

        This is the object the differential tests compare: identical for
        serial and parallel executors at the same seed and fault rate.
        """
        return strip_volatile(self.span_tree())

    def event_structure(self) -> list[dict]:
        """The event log with volatile fields stripped."""
        return strip_volatile(self.events)

    def write_events(self, path: str | Path) -> Path:
        """Dump the event log as JSONL (one sorted-key JSON object/line)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.events:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------

def build_manifest(flow: str, engine, seed: int | None = None,
                   config=None, status: str = "ok") -> dict:
    """Assemble the per-run manifest for a traced flow run.

    ``engine`` is an :class:`~repro.engine.core.EvaluationEngine` (its
    versioned ``report()`` — spans included — is embedded verbatim);
    ``config`` is an :class:`~repro.engine.config.EngineConfig` or
    anything with a JSON-safe ``describe()``.
    """
    report = engine.report()
    spans: list[Span] = engine.tracer.roots if engine.tracer else []
    all_spans = [s for root in spans for s in root.walk()]
    cache = report.get("cache")
    return {
        "kind": "repro.run_manifest",
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "run": {
            "flow": flow,
            "seed": seed,
            "status": status,
            "config": config.describe() if config is not None else None,
        },
        "report": report,
        "rollups": {
            "wall_s": sum(root.duration_s for root in spans),
            "simulator_calls": sum(root.simulator_calls() for root in spans),
            "span_count": len(all_spans),
            "failures": report["failures"]["total"],
            "retries": int(report["executor"].get("retries", 0)),
            "cache_hit_rate": (cache or {}).get("hit_rate")
            if cache is not None else None,
            **section_rollups(report),
        },
    }


def write_manifest(manifest: dict, path: str | Path) -> Path:
    """Write a manifest as stable JSON (sorted keys, indented)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def manifest_digest(manifest: dict) -> str:
    """SHA-256 over the manifest's structural (non-wall-clock) content.

    Byte-stable across reruns of the same seeded flow — the regression
    handle for "did anything about this run's *shape* change".
    """
    stable = json.dumps(strip_volatile(manifest), sort_keys=True)
    return hashlib.sha256(stable.encode()).hexdigest()


def finish_run(flow: str, engine, seed: int | None = None, config=None,
               status: str = "ok") -> dict | None:
    """Build the manifest for a finished flow run and persist the trace.

    Returns the manifest (or None when the engine has no tracer).  When
    ``config.trace_dir`` is set, writes ``<trace_dir>/manifest.json`` and
    ``<trace_dir>/trace.jsonl``.
    """
    tracer = getattr(engine, "tracer", None)
    if tracer is None:
        return None
    manifest = build_manifest(flow, engine, seed=seed, config=config,
                              status=status)
    trace_dir = getattr(config, "trace_dir", None) if config is not None \
        else None
    if trace_dir:
        trace_dir = Path(trace_dir)
        manifest["events_path"] = str(trace_dir / "trace.jsonl")
        write_manifest(manifest, trace_dir / "manifest.json")
        tracer.write_events(trace_dir / "trace.jsonl")
    return manifest
