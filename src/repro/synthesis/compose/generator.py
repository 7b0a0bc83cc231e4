"""Deterministic, seed-stable generation of composed opamp topologies.

:func:`generate_topologies` enumerates (or seed-stably samples) the valid
block compositions of :mod:`repro.synthesis.compose.blocks` and lowers
each one to a :class:`ComposedTopology`: a netlist builder over the
library's block stamps, an auto-derived :class:`DesignSpace` (the union
of the chosen blocks' variables), an interval-safe analytic performance
model, and a :meth:`ComposedTopology.as_candidate` bridge that makes the
generated structure a first-class :class:`TopologyCandidate` for all four
existing selectors.

:func:`validate_topology` is the electrical gate each generated structure
must pass before entering a funnel: the netlist serializes and re-parses
byte-identically, the parsed circuit DC-solves, and the converged
operating point satisfies KCL to solver tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.analysis.dcop import ConvergenceError, dc_operating_point
from repro.analysis.mna import SingularCircuitError
from repro.circuits.library import (
    VSS,
    stamp_bias_reference,
    stamp_cascode_mirror_load,
    stamp_class_a_stage,
    stamp_class_ab_stage,
    stamp_diff_pair,
    stamp_diode_load,
    stamp_miller_comp,
    stamp_mirror_load,
    stamp_resistive_load,
    stamp_resistor_tail,
    stamp_supply,
    stamp_tail_source,
)
from repro.circuits.netlist import Circuit
from repro.circuits.parser import parse_netlist
from repro.circuits.writer import write_netlist
from repro.opt.interval import Interval, IntervalError
from repro.synthesis.compose.blocks import (
    FIXED,
    REGISTRIES,
    ROLES,
    enumerate_choices,
)
from repro.synthesis.compose.model import composed_performance
from repro.synthesis.equation_based import DesignSpace
from repro.synthesis.topology import TopologyCandidate

# Input common-mode the testbench and the analytic model agree on.
INPUT_BIAS = 1.5

# ``i_bias`` re-added when a resistor tail meets a class-A second stage
# (the sink mirror still needs a current reference).
_I_BIAS_BOUNDS = (1e-6, 2e-3)
_I_BIAS_DEFAULT = 20e-6

KCL_TOL = 1e-6


@dataclass(frozen=True)
class StructureSpec:
    """The block choice tuple naming one generated structure."""

    pair: str
    load: str
    tail: str
    stage2: str
    comp: str

    @property
    def structure_id(self) -> str:
        return ".".join((f"{self.pair}pair", self.load, f"{self.tail}tail",
                         self.stage2, self.comp))

    @property
    def stages(self) -> int:
        return 1 if self.stage2 == "none" else 2

    def blocks(self):
        choices = (self.pair, self.load, self.tail, self.stage2, self.comp)
        return [REGISTRIES[role][name] for role, name in zip(ROLES, choices)]


class ComposedTopology:
    """One generated structure: builder + design space + analytic model."""

    def __init__(self, spec: StructureSpec):
        self.spec = spec
        variables: dict[str, tuple[float, float]] = {}
        defaults: dict[str, float] = {}
        for block in spec.blocks():
            variables.update(block.variables)
            defaults.update(block.defaults)
        if self._needs_bias_reference() and "i_bias" not in variables:
            variables["i_bias"] = _I_BIAS_BOUNDS
            defaults["i_bias"] = _I_BIAS_DEFAULT
        self.space = DesignSpace(variables=variables, fixed=dict(FIXED))
        self._defaults = defaults

    # -- identity ------------------------------------------------------
    @property
    def structure_id(self) -> str:
        return self.spec.structure_id

    def __repr__(self) -> str:
        return f"ComposedTopology({self.structure_id})"

    def default_sizes(self) -> dict[str, float]:
        """Hand-reasonable starting sizes (the blocks' defaults)."""
        return self.space.complete(dict(self._defaults))

    def _needs_bias_reference(self) -> bool:
        """Mirror tails always mirror a reference; a resistor tail only
        needs one when a class-A output sink must be biased."""
        return self.spec.tail != "resistor" or self.spec.stage2 == "class_a"

    # -- netlist construction ------------------------------------------
    def build(self, sizes: dict[str, float]) -> Circuit:
        """Lower the block composition to a transistor netlist.

        ``sizes`` must cover every design variable (missing keys raise
        ``KeyError``, the evaluator's unbuildable-point contract).  Ports:
        ``inp``/``inn`` (floating gates for the testbench to bias),
        ``out``, and the supply rails.
        """
        spec = self.spec
        p = self.space.complete(dict(sizes))
        vdd = p["vdd"]
        pair, load_pol = (("n", "p") if spec.pair == "n" else ("p", "n"))
        c = Circuit(self.structure_id)
        stamp_supply(c, vdd)

        bias = None
        if self._needs_bias_reference():
            # The reference diode matches the tail mirror when there is
            # one; with a resistor tail it matches the class-A sink so
            # the output stage mirrors the reference 1:1.
            if spec.tail == "resistor":
                w_ref, l_ref = self._sink_dims(p)
            else:
                w_ref, l_ref = p["w_tail"], p["l_tail"]
            bias = stamp_bias_reference(c, pair, w_ref, l_ref, p["i_bias"])

        if spec.tail == "resistor":
            tail = stamp_resistor_tail(c, pair, p["r_tail"])
        else:
            tail = stamp_tail_source(c, pair, bias, p["w_tail"], p["l_tail"],
                                     vdd, cascode=(spec.tail == "cascode"))

        out1 = "out" if spec.stage2 == "none" else "x2"
        stamp_diff_pair(c, pair, tail, "x1", out1, p["w_in"], p["l_in"])

        if spec.load == "mirror":
            stamp_mirror_load(c, load_pol, "x1", out1,
                              p["w_load"], p["l_load"])
        elif spec.load == "cascode_mirror":
            stamp_cascode_mirror_load(c, load_pol, "x1", out1,
                                      p["w_load"], p["l_load"], vdd)
        elif spec.load == "diode":
            stamp_diode_load(c, load_pol, "x1", out1,
                             p["w_load"], p["l_load"])
        else:
            stamp_resistive_load(c, load_pol, "x1", out1, p["r_load"])

        if spec.stage2 == "class_a":
            # The driver is the opposite polarity of the input pair (its
            # gate sits near the load rail); the sink mirrors the bias.
            drv = load_pol
            if drv == "p":
                w_drv, l_drv = p["w_p2"], p["l_p2"]
                w_snk, l_snk = p["w_n2"], p["l_n2"]
            else:
                w_drv, l_drv = p["w_n2"], p["l_n2"]
                w_snk, l_snk = p["w_p2"], p["l_p2"]
            stamp_class_a_stage(c, drv, out1, bias, "out",
                                w_drv, l_drv, w_snk, l_snk)
        elif spec.stage2 == "class_ab":
            stamp_class_ab_stage(c, out1, "out", p["w_p2"], p["l_p2"],
                                 p["w_n2"], p["l_n2"])

        if spec.comp == "miller":
            stamp_miller_comp(c, out1, "out", p["c_comp"])
        elif spec.comp == "miller_rz":
            stamp_miller_comp(c, out1, "out", p["c_comp"], p["r_zero"])

        c.capacitor("c_l", "out", VSS, p["c_load"])
        return c

    def _sink_dims(self, p: dict[str, float]) -> tuple[float, float]:
        """Dimensions of the class-A sink device (polarity-dependent)."""
        if self.spec.pair == "n":
            return p["w_n2"], p["l_n2"]
        return p["w_p2"], p["l_p2"]

    def testbench(self, sizes: dict[str, float] | None = None) -> Circuit:
        """The built structure plus input bias/AC drive sources."""
        c = self.build(sizes if sizes is not None else self.default_sizes())
        c.vsource("vip_tb", "inp", VSS, dc=INPUT_BIAS, ac=1.0)
        c.vsource("vin_tb", "inn", VSS, dc=INPUT_BIAS)
        return c

    # -- performance model ---------------------------------------------
    def model(self, sizes: dict) -> dict:
        """Interval-safe analytic performance (selector-compatible)."""
        return composed_performance(self.spec, sizes)

    # -- candidate bridge ----------------------------------------------
    @cached_property
    def max_gain_db(self) -> float:
        """Achievable-gain bound from interval evaluation of the model."""
        point: dict[str, object] = {
            name: Interval(lo, hi)
            for name, (lo, hi) in self.space.variables.items()}
        point.update(self.space.fixed)
        try:
            hi = self.model(point)["gain_db"].hi
        except (IntervalError, TypeError, ValueError, KeyError,
                AttributeError):
            # Not interval-provable: fall back to a structural heuristic.
            hi = 40.0 + 25.0 * (self.spec.stages - 1) \
                + (20.0 if self.spec.load == "cascode_mirror" else 0.0)
        return min(float(hi), 140.0)

    @property
    def relative_power(self) -> float:
        """Deterministic power rank mirroring the legacy registry."""
        rank = 1.0
        if self.spec.stage2 != "none":
            rank += 1.0
        if self.spec.load == "cascode_mirror":
            rank += 0.5
        if self.spec.tail == "cascode":
            rank += 0.2
        if self.spec.load == "resistor":
            rank -= 0.1
        return rank

    def as_candidate(self) -> TopologyCandidate:
        """Register the generated structure for the existing selectors."""
        return TopologyCandidate(
            name=self.structure_id, model=self.model, space=self.space,
            stages=self.spec.stages, max_gain_db=self.max_gain_db,
            relative_power=self.relative_power)


def generate_topologies(seed: int = 0,
                        sample: int | None = None) -> list[ComposedTopology]:
    """Enumerate (or seed-stably subsample) the composed structure space.

    The full enumeration is deterministic and independent of ``seed``;
    with ``sample`` < the grammar size, a ``random.Random(seed)`` draw
    picks a stable subset (same seed → byte-identical netlists).
    """
    specs = [StructureSpec(*choice) for choice in enumerate_choices()]
    if sample is not None and sample < len(specs):
        rng = random.Random(seed)
        specs = sorted(rng.sample(specs, sample),
                       key=lambda s: s.structure_id)
    return [ComposedTopology(spec) for spec in specs]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the electrical validity gate for one structure."""

    structure_id: str
    ok: bool
    reason: str = ""
    kcl_residual: float = float("nan")


def validate_topology(topo: ComposedTopology,
                      kcl_tol: float = KCL_TOL) -> ValidationReport:
    """Parse round-trip + DC solve + KCL residual at the default sizes.

    The DC solve runs on the *re-parsed* netlist, proving the serialized
    form is complete, not merely that the in-memory object simulates.
    """
    sid = topo.structure_id
    try:
        tb = topo.testbench()
        text = write_netlist(tb)
        parsed = parse_netlist(text, name=tb.name)
        if write_netlist(parsed) != text:
            return ValidationReport(sid, False, "netlist round-trip mismatch")
        op = dc_operating_point(parsed)
    except (ConvergenceError, SingularCircuitError, ValueError,
            KeyError) as exc:
        return ValidationReport(sid, False, f"{type(exc).__name__}: {exc}")
    system = op.system
    g_mat, _c_mat, b_dc, _b_ac = system.linear_stamps()
    residual = float(np.max(np.abs(
        g_mat @ op.x + system.nonlinear_currents(op.x) - b_dc)))
    if not residual < kcl_tol:
        return ValidationReport(sid, False,
                                f"KCL residual {residual:.3e} > {kcl_tol:g}",
                                kcl_residual=residual)
    return ValidationReport(sid, True, kcl_residual=residual)
