"""Bitwise differential tests for the compiled backend anneals.

KOAN's placement cost, WRIGHT's floorplan cost and the mesh anneal's
route-and-signoff loop each compile, once per problem, what their
candidates share.  None of that may change a single bit of any result,
so every test here compares against a reference: a verbatim copy, kept
below, of the object-based code the compiled tables replaced.

* KOAN: the cost, the symmetry pass and the move generator are checked
  on every state the real anneal visits (OTA placements at seeds 1-6,
  Miller placements at seeds 1, 2 and 5002, an ablated ``merge_bonus=0``
  placement, a simultaneous place-and-route run) and on Hypothesis-drawn
  placements; each search returns what the reference search returns.
* WRIGHT: the cost is checked on every state of demo-system floorplans at
  seeds 1, 2, 3 and 7, with and without the noise term, under the
  chip-flow and perfbench schedules, and on Hypothesis-drawn systems and
  Polish expressions.
* Mesh: ``optimize_mesh`` and ``uniform_mesh`` give the verdicts, costs
  and results of the per-spec route-and-signoff loop, and route each
  distinct track set once, drawing no cell and building no segment
  object while they search.

Equality is on the bytes of every float, so signed zeros count.
"""

from __future__ import annotations

import copy
import math
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.macro.mesh as mesh_module
from repro.circuits.library import five_transistor_ota, two_stage_miller
from repro.flows.cell_flow import PLACE_SCHEDULE
from repro.layout.constraints import extract_constraints
from repro.layout.devicegen import generate_device, generate_stack_layout
from repro.layout.geometry import Orientation, bounding_box
from repro.layout.placer import (
    KoanPlacer,
    Placement,
    PlacedObject,
    PlacementResult,
    has_overlaps,
)
from repro.layout.simultaneous import SimultaneousPlaceRoute
from repro.layout.stacking import extract_stacks
from repro.macro import MacroSpec, MeshSpec, SignoffSpec, tile_macro
from repro.macro import signoff
from repro.macro.mesh import MeshRoutingError, assign_rail_tracks, route_mesh
from repro.macro.signoff import MacroSignoff, signoff_mesh
from repro.msystem.blocks import (
    Block,
    BlockKind,
    PlacedBlock,
    SignalNet,
    demo_mixed_signal_system,
)
from repro.msystem.floorplan import (
    FloorplanResult,
    H,
    V,
    WrightFloorplanner,
    evaluate_polish,
)
from repro.msystem.substrate import DECAY_LENGTH_NM, coupling_kernel
from repro.opt.anneal import (
    AnnealSchedule,
    Annealer,
    ContinuousSpace,
    anneal_continuous,
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# ----------------------------------------------------------------------
# KOAN: the object-based cost and moves, copied verbatim
# ----------------------------------------------------------------------

_MIRROR = {
    Orientation.R0: Orientation.MY,
    Orientation.MY: Orientation.R0,
    Orientation.R180: Orientation.MX,
    Orientation.MX: Orientation.R180,
    Orientation.R90: Orientation.MY90,
    Orientation.MY90: Orientation.R90,
    Orientation.R270: Orientation.MX90,
    Orientation.MX90: Orientation.R270,
}


class _ReferenceKoan:
    """``KoanPlacer``'s cost, symmetry pass, moves and run as they were
    before the per-orientation tables, over one placer's layouts and
    constraints.  Legalization is unchanged and borrowed."""

    _legalize = KoanPlacer._legalize
    _legalize_y_only = KoanPlacer._legalize_y_only
    _sweep_up = KoanPlacer._sweep_up
    _partner = KoanPlacer._partner

    def __init__(self, placer: KoanPlacer):
        self.layouts = placer.layouts
        self.constraints = placer.constraints
        self.tech = placer.tech
        self.wirelength_weight = placer.wirelength_weight
        self.overlap_weight = placer.overlap_weight
        self.merge_bonus = placer.merge_bonus
        self.seed = placer.seed
        self.total_area = placer.total_area
        self.scale = placer.scale
        self._slave_of = placer._slave_of
        self._nets = self._collect_nets()
        self.evaluations = 0

    def _collect_nets(self) -> dict[str, list[tuple[str, str]]]:
        """net -> [(device, port)] over signal ports."""
        nets: dict[str, list[tuple[str, str]]] = {}
        for name, lay in self.layouts.items():
            for port, net in lay.port_nets.items():
                if port not in lay.cell.ports:
                    continue  # e.g. bulk without a physical port
                nets.setdefault(net, []).append((name, port))
        # Single-pin nets contribute nothing to wirelength.
        return {n: pins for n, pins in nets.items() if len(pins) > 1}

    def _apply_symmetry(self, pl: Placement) -> None:
        for slave, master in self._slave_of.items():
            m = pl.objects[master]
            s = pl.objects[slave]
            # Mirror the master's bbox about the axis.
            m_box = m.bbox()
            s.orientation = _MIRROR[m.orientation]
            target_x1 = 2 * pl.axis_x - m_box.x2
            s_box_now = s.layout.bbox().transformed(s.orientation, 0, 0)
            s.x = target_x1 - s_box_now.x1
            s.y = m_box.y1 - s_box_now.y1

    def cost(self, pl: Placement) -> float:
        self.evaluations += 1
        self._apply_symmetry(pl)
        boxes = {name: o.bbox() for name, o in pl.objects.items()}
        area = bounding_box(list(boxes.values())).area
        overlap = 0
        names = list(boxes)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                inter = boxes[a].intersection(boxes[b])
                if inter is not None:
                    overlap += inter.area
        wirelength = self._wirelength(pl)
        merges = self._abutment_merges(pl, boxes)
        return (area / self.total_area
                + self.wirelength_weight * wirelength / (4 * self.scale)
                + self.overlap_weight * overlap / self.total_area
                - self.merge_bonus * merges)

    def _wirelength(self, pl: Placement) -> int:
        total = 0
        for pins in self._nets.values():
            xs, ys = [], []
            for device, port in pins:
                x, y = pl.objects[device].port_position(port)
                xs.append(x)
                ys.append(y)
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    @staticmethod
    def _edge_nets(obj: PlacedObject) -> tuple[str | None, str | None]:
        """(left, right) diffusion nets of a placed object, accounting for
        orientations that mirror or rotate the x axis."""
        lay = obj.layout
        left, right = lay.left_net, lay.right_net
        o = obj.orientation
        if o in (Orientation.MY, Orientation.R180):
            return right, left
        if o.swaps_axes:
            return None, None  # vertical diffusion: no x-abutment
        return left, right

    def _abutment_merges(self, pl: Placement, boxes) -> int:
        """Count adjacent device pairs whose facing diffusions share a net."""
        merges = 0
        names = list(boxes)
        near = 2 * self.tech.min_space_diff
        for i, a in enumerate(names):
            la = self.layouts[a]
            if la.kind != "mos":
                continue
            for b in names[i + 1:]:
                lb = self.layouts[b]
                if lb.kind != "mos":
                    continue
                box_a, box_b = boxes[a], boxes[b]
                if box_a.distance_to(box_b) > near:
                    continue
                # Vertical alignment required for diffusion abutment.
                y_overlap = (min(box_a.y2, box_b.y2)
                             - max(box_a.y1, box_b.y1))
                if y_overlap < min(box_a.height, box_b.height) // 2:
                    continue
                if box_a.x1 <= box_b.x1:
                    left_obj, right_obj = pl.objects[a], pl.objects[b]
                else:
                    left_obj, right_obj = pl.objects[b], pl.objects[a]
                _, left_facing = self._edge_nets(left_obj)
                right_facing, _ = self._edge_nets(right_obj)
                if left_facing is not None and left_facing == right_facing:
                    merges += 1
        return merges

    def _movable(self) -> list[str]:
        return [n for n in self.layouts if n not in self._slave_of]

    def propose(self, pl: Placement, rng: np.random.Generator,
                frac: float) -> Placement:
        movable = self._movable()
        kind = rng.random()
        span = max(int(self.scale * (0.1 + 0.9 * frac)), self.tech.L(2))
        if kind < 0.5:  # translate
            name = movable[rng.integers(len(movable))]
            obj = pl.objects[name]
            obj.x += int(rng.normal(0, span))
            obj.y += int(rng.normal(0, span))
        elif kind < 0.62:  # reorient
            name = movable[rng.integers(len(movable))]
            obj = pl.objects[name]
            choices = [Orientation.R0, Orientation.R180, Orientation.MY,
                       Orientation.MX]
            obj.orientation = choices[rng.integers(len(choices))]
        elif kind < 0.75 and len(movable) >= 2:  # swap
            i, j = rng.choice(len(movable), size=2, replace=False)
            a, b = pl.objects[movable[i]], pl.objects[movable[j]]
            a.x, b.x = b.x, a.x
            a.y, b.y = b.y, a.y
        elif kind < 0.88 and len(movable) >= 2:  # directed abut move
            self._abut_move(pl, movable, rng)
        else:  # move the symmetry axis
            pl.axis_x += int(rng.normal(0, span))
        return pl

    def _abut_move(self, pl: Placement, movable: list[str],
                   rng: np.random.Generator) -> None:
        """KOAN's merge move: snap a device flush against a compatible
        neighbour so their shared diffusion edges abut."""
        if self.merge_bonus <= 0:
            return  # ablated: no directed merging
        mos = [n for n in movable if self.layouts[n].kind == "mos"]
        if len(mos) < 2:
            return
        mover = mos[rng.integers(len(mos))]
        targets = [n for n in mos if n != mover]
        rng.shuffle(targets)
        gap = self.tech.min_space_diff
        for target in targets:
            t_obj = pl.objects[target]
            m_obj = pl.objects[mover]
            t_left, t_right = self._edge_nets(t_obj)
            m_left, m_right = self._edge_nets(m_obj)
            t_box = t_obj.bbox()
            m_box = m_obj.bbox()
            if t_right is not None and t_right == m_left:
                m_obj.x += (t_box.x2 + gap) - m_box.x1
                m_obj.y += t_box.y1 - m_box.y1
                return
            if t_left is not None and t_left == m_right:
                m_obj.x += (t_box.x1 - gap) - m_box.x2
                m_obj.y += t_box.y1 - m_box.y1
                return

    def initial_placement(self, rng: np.random.Generator) -> Placement:
        """Row seeding: objects side by side, slaves mirrored."""
        objects: dict[str, PlacedObject] = {}
        x = 0
        for name in self._movable():
            lay = self.layouts[name]
            obj = PlacedObject(lay)
            box = lay.bbox()
            obj.x = x - box.x1
            obj.y = -box.y1
            x += box.width + self.tech.min_space_diff * 3
            objects[name] = obj
        for slave in self._slave_of:
            objects[slave] = PlacedObject(self.layouts[slave])
        pl = Placement(objects, axis_x=x // 2)
        self._apply_symmetry(pl)
        return pl

    def run(self, schedule: AnnealSchedule | None = None) -> PlacementResult:
        self.evaluations = 0
        rng = np.random.default_rng(self.seed)
        start = self.initial_placement(rng)
        schedule = schedule or AnnealSchedule(
            moves_per_temperature=220, cooling=0.92,
            max_evaluations=40000, stop_after_stale=10)
        annealer = Annealer(self.cost, self.propose, schedule=schedule,
                            copy_state=lambda p: p.copy(), seed=self.seed)
        result = annealer.run(start)
        best = result.best_state
        self._apply_symmetry(best)
        self._legalize(best)
        self._apply_symmetry(best)
        self._legalize_y_only(best)
        if has_overlaps(best):
            self._sweep_up(best)
        boxes = {n: o.bbox() for n, o in best.objects.items()}
        final_cost = self.cost(best)
        return PlacementResult(
            placement=best,
            cost=final_cost,
            area=best.bbox().area,
            wirelength=self._wirelength(best),
            merged_abutments=self._abutment_merges(best, boxes),
            evaluations=self.evaluations,
        )


def _state(pl: Placement) -> tuple:
    return pl.axis_x, [(name, o.x, o.y, o.orientation)
                       for name, o in pl.objects.items()]


def _placement_record(result: PlacementResult) -> tuple:
    return (_bits(result.cost), result.area, result.wirelength,
            result.merged_abutments, result.evaluations,
            _state(result.placement))


def _audit_koan(placer: KoanPlacer) -> Counter:
    """Check the placer's cost, symmetry pass and moves against the
    reference on every call from now on; returns the call counts."""
    ref = _ReferenceKoan(placer)
    calls: Counter = Counter()
    cost, propose = placer.cost, placer.propose
    symmetry = placer._apply_symmetry

    def checked_cost(pl):
        twin = pl.copy()
        want = ref.cost(twin)
        got = cost(pl)
        assert _bits(got) == _bits(want)
        assert _state(pl) == _state(twin)
        calls["cost"] += 1
        return got

    def checked_symmetry(pl):
        twin = pl.copy()
        ref._apply_symmetry(twin)
        symmetry(pl)
        assert _state(pl) == _state(twin)
        calls["symmetry"] += 1

    def checked_propose(pl, rng, frac):
        twin, twin_rng = pl.copy(), copy.deepcopy(rng)
        ref.propose(twin, twin_rng, frac)
        out = propose(pl, rng, frac)
        assert _state(out) == _state(twin)
        assert rng.bit_generator.state == twin_rng.bit_generator.state
        calls["propose"] += 1
        return out

    # Instance attributes shadow the methods for every caller, run()
    # and the legalizers included.
    placer.cost = checked_cost
    placer._apply_symmetry = checked_symmetry
    placer.propose = checked_propose
    return calls


_CIRCUITS = {"ota": five_transistor_ota, "miller": two_stage_miller}


def _cell_placer(circuit: str, seed: int, **kwargs) -> KoanPlacer:
    """The placer ``layout_cell`` builds for one library cell."""
    built = _CIRCUITS[circuit]()
    layouts = []
    for dev in built.devices:
        try:
            layouts.append(generate_device(dev))
        except TypeError:
            continue
    return KoanPlacer(layouts, extract_constraints(built), seed=seed,
                      **kwargs)


KOAN_CASES = ([("ota", seed, {}) for seed in range(1, 7)]
              + [("miller", seed, {}) for seed in (1, 2, 5002)]
              + [("ota", 1, {"merge_bonus": 0.0})])


class TestKoan:
    @pytest.mark.parametrize(
        "circuit, seed, kwargs", KOAN_CASES,
        ids=[f"{c}-{s}{'-nomerge' if k else ''}" for c, s, k in KOAN_CASES])
    def test_every_visited_state(self, circuit, seed, kwargs):
        placer = _cell_placer(circuit, seed, **kwargs)
        calls = _audit_koan(placer)
        result = placer.run(schedule=PLACE_SCHEDULE)
        assert calls["cost"] == result.evaluations
        assert calls["propose"] > 0
        ref = _ReferenceKoan(_cell_placer(circuit, seed, **kwargs))
        assert _placement_record(result) == \
            _placement_record(ref.run(schedule=PLACE_SCHEDULE))

    def test_simultaneous_place_route(self):
        def spr():
            ota = five_transistor_ota()
            return SimultaneousPlaceRoute(
                [generate_device(d) for d in ota.mosfets],
                extract_constraints(ota), sensitive_nets=("inp", "inn"),
                seed=2)

        audited = spr()
        calls = _audit_koan(audited.placer)
        got = audited.run(rounds=6)
        assert calls["propose"] == 6 and calls["symmetry"] > 0

        reference = spr()
        ref = _ReferenceKoan(reference.placer)
        for name in ("_apply_symmetry", "propose", "initial_placement"):
            setattr(reference.placer, name, getattr(ref, name))
        want = reference.run(rounds=6)
        assert ((_bits(got.cost), got.routed_area, got.wire_length,
                 _bits(got.wire_cap), got.improved_rounds,
                 _state(got.placement))
                == (_bits(want.cost), want.routed_area, want.wire_length,
                    _bits(want.wire_cap), want.improved_rounds,
                    _state(want.placement)))


@lru_cache(maxsize=None)
def _drawn_placer(name: str) -> KoanPlacer:
    """Placers for drawn states: the two library cells, and the OTA as
    stacks (non-MOS layouts with edge nets) beside a plain device."""
    if name == "stacks":
        ota = five_transistor_ota()
        layouts = [generate_stack_layout(s, name=f"stk{i}")
                   for i, s in enumerate(extract_stacks(ota).stacks)]
        layouts.append(generate_device(ota.mosfets[0]))
        return KoanPlacer(layouts, seed=1)
    return _cell_placer(name, 1, merge_bonus=0.4)


@st.composite
def _placements(draw):
    placer = _drawn_placer(draw(st.sampled_from(["ota", "miller",
                                                 "stacks"])))
    coord = st.integers(-40_000, 40_000)
    objects = {
        name: PlacedObject(lay, draw(coord), draw(coord),
                           draw(st.sampled_from(list(Orientation))))
        for name, lay in placer.layouts.items()}
    return placer, Placement(objects, axis_x=draw(coord))


def _abutment_cases():
    """Pairs of MOS devices whose facing diffusions share a net, placed
    at the edges of the abutment test: a gap of 0, of exactly the reach
    and one past it; a vertical overlap one under, at and one over half
    the shorter height; and the tie where both boxes share a left edge.
    The placer has no symmetry pairs, so nothing else moves."""
    ota = five_transistor_ota()
    placer = KoanPlacer([generate_device(d) for d in ota.mosfets],
                        merge_bonus=0.4, seed=1)
    near = 2 * placer.tech.min_space_diff
    turns = [Orientation.R0, Orientation.MY, Orientation.R180,
             Orientation.MX]
    names = list(placer.layouts)
    far = {name: 10_000_000 * (k + 1) for k, name in enumerate(names)}
    for a in names:
        for b in names:
            for oa in turns:
                for ob in turns:
                    pa = PlacedObject(placer.layouts[a], 0, 0, oa)
                    pb = PlacedObject(placer.layouts[b], 0, 0, ob)
                    _, facing = _ReferenceKoan._edge_nets(pa)
                    other, _ = _ReferenceKoan._edge_nets(pb)
                    if a == b or facing is None or facing != other:
                        continue
                    box_a, box_b = pa.bbox(), pb.bbox()
                    half = min(box_a.height, box_b.height) // 2
                    for gap in (0, near, near + 1, -box_b.width):
                        for slack in (-1, 0, 1):
                            # b's box sits `gap` right of a's box (or on
                            # its left edge), overlapping it vertically
                            # by `half + slack`.
                            dy = box_a.height - (half + slack)
                            objects = {
                                n: PlacedObject(placer.layouts[n], far[n],
                                                far[n])
                                for n in names}
                            objects[a] = PlacedObject(
                                placer.layouts[a], -box_a.x1, -box_a.y1,
                                oa)
                            left = (box_a.width + gap if gap >= 0 else 0)
                            objects[b] = PlacedObject(
                                placer.layouts[b], left - box_b.x1,
                                dy - box_b.y1, ob)
                            yield placer, Placement(objects)


class TestKoanDrawn:
    def test_abutment_boundaries(self):
        merged = Counter()
        for placer, pl in _abutment_cases():
            ref = _ReferenceKoan(placer)
            twin = pl.copy()
            assert _bits(placer.cost(pl)) == _bits(ref.cost(twin))
            boxes = {n: o.bbox() for n, o in twin.objects.items()}
            merged[ref._abutment_merges(twin, boxes)] += 1
        # The cases straddle the test: some merge, some do not.
        assert merged[0] and merged[1]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_placements(), seed=st.integers(0, 2**32 - 1),
           frac=st.floats(0.0, 1.0))
    def test_cost_and_moves(self, case, seed, frac):
        placer, pl = case
        ref = _ReferenceKoan(placer)
        twin = pl.copy()
        assert _bits(placer.cost(pl)) == _bits(ref.cost(twin))
        assert _state(pl) == _state(twin)
        # A run of moves from the drawn state, the abut move included.
        rng, twin_rng = (np.random.default_rng(seed),
                         np.random.default_rng(seed))
        for _ in range(8):
            placer.propose(pl, rng, frac)
            ref.propose(twin, twin_rng, frac)
            assert _state(pl) == _state(twin)
            assert _bits(placer.cost(pl)) == _bits(ref.cost(twin))


# ----------------------------------------------------------------------
# WRIGHT: the object-based cost, copied verbatim
# ----------------------------------------------------------------------

def _ref_evaluate_polish(expr: list[str], blocks: dict[str, Block],
                         rotated: dict[str, bool],
                         spacing: int = 0) -> dict[str, PlacedBlock]:
    """Pack the slicing tree; returns placed blocks at (0,0)-anchored
    coordinates."""
    stack: list[tuple[int, int, list]] = []
    for tok in expr:
        if tok not in (H, V):
            block = blocks[tok]
            rot = rotated.get(tok, False)
            w = (block.height if rot else block.width) + spacing
            h = (block.width if rot else block.height) + spacing
            stack.append((w, h, [(tok, 0, 0, rot)]))
        else:
            w2, h2, items2 = stack.pop()
            w1, h1, items1 = stack.pop()
            if tok == V:  # side by side
                moved = [(n, x + w1, y, r) for n, x, y, r in items2]
                stack.append((w1 + w2, max(h1, h2), items1 + moved))
            else:         # stacked
                moved = [(n, x, y + h1, r) for n, x, y, r in items2]
                stack.append((max(w1, w2), h1 + h2, items1 + moved))
    if len(stack) != 1:
        raise ValueError("malformed Polish expression")
    _, _, items = stack[0]
    return {
        name: PlacedBlock(blocks[name], x, y, rot)
        for name, x, y, rot in items
    }


def _ref_floorplan_noise(placed: list[PlacedBlock],
                         decay_nm: float = DECAY_LENGTH_NM) -> float:
    """WRIGHT's scalar substrate-noise figure of a candidate floorplan.

    Sum over (injector, victim) pairs of injection · sensitivity ·
    kernel(separation).  Lower is better.
    """
    injectors = [p for p in placed if p.block.noise_injection > 0]
    victims = [p for p in placed if p.block.noise_sensitivity > 0]
    total = 0.0
    for src in injectors:
        for dst in victims:
            if src.block.name == dst.block.name:
                continue
            d = src.rect().distance_to(dst.rect())
            total += (src.block.noise_injection
                      * dst.block.noise_sensitivity
                      * coupling_kernel(d, decay_nm))
    return total


class _ReferenceWright:
    """``WrightFloorplanner``'s cost and run as they were before the
    compiled footprints, over one floorplanner's blocks and nets.  The
    moves are unchanged and borrowed."""

    initial_state = WrightFloorplanner.initial_state
    propose = WrightFloorplanner.propose
    _operand_positions = WrightFloorplanner.__dict__["_operand_positions"]
    _swap_adjacent_operands = WrightFloorplanner._swap_adjacent_operands
    _complement_chain = WrightFloorplanner._complement_chain
    _swap_operand_operator = WrightFloorplanner._swap_operand_operator

    def __init__(self, fp: WrightFloorplanner):
        self.blocks = fp.blocks
        self.nets = fp.nets
        self.noise_weight = fp.noise_weight
        self.wirelength_weight = fp.wirelength_weight
        self.spacing = fp.spacing
        self.seed = fp.seed
        self.total_area = fp.total_area
        self.scale = fp.scale
        self.noise_norm = fp.noise_norm
        self.evaluations = 0

    def cost(self, state) -> float:
        self.evaluations += 1
        placed = _ref_evaluate_polish(state.expression, self.blocks,
                                      state.rotated, self.spacing)
        plist = list(placed.values())
        width = max(p.x + p.width for p in plist)
        height = max(p.y + p.height for p in plist)
        area = width * height
        wl = self._wirelength(placed)
        noise = _ref_floorplan_noise(plist)
        return (area / self.total_area
                + self.wirelength_weight * wl / (4 * self.scale)
                + self.noise_weight * noise / self.noise_norm)

    def _wirelength(self, placed: dict[str, PlacedBlock]) -> int:
        total = 0
        for net in self.nets:
            xs, ys = [], []
            for block_name, pin in net.terminals:
                if block_name not in placed:
                    continue
                x, y = placed[block_name].pin_position(pin)
                xs.append(x)
                ys.append(y)
            if len(xs) >= 2:
                total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def run(self, schedule: AnnealSchedule | None = None) -> FloorplanResult:
        self.evaluations = 0
        schedule = schedule or AnnealSchedule(
            moves_per_temperature=150, cooling=0.9, max_evaluations=25000)
        annealer = Annealer(self.cost, self.propose, schedule=schedule,
                            copy_state=lambda s: s.copy(), seed=self.seed)
        result = annealer.run(self.initial_state())
        state = result.best_state
        placed = _ref_evaluate_polish(state.expression, self.blocks,
                                      state.rotated, self.spacing)
        plist = list(placed.values())
        width = max(p.x + p.width for p in plist)
        height = max(p.y + p.height for p in plist)
        return FloorplanResult(
            placed=placed,
            width=width,
            height=height,
            area=width * height,
            wirelength=self._wirelength(placed),
            noise=_ref_floorplan_noise(plist),
            cost=result.best_cost,
            evaluations=self.evaluations,
        )


def _placed_record(placed: dict[str, PlacedBlock]) -> list:
    return [(name, p.block.name, p.x, p.y, p.rotated)
            for name, p in placed.items()]


def _floorplan_record(result: FloorplanResult) -> tuple:
    return (_placed_record(result.placed), result.width, result.height,
            result.area, result.wirelength, _bits(result.noise),
            _bits(result.cost), result.evaluations)


#: The chip flow's default floorplan schedule and the perfbench one.
FLOORPLAN_SCHEDULES = {
    "chip_flow": AnnealSchedule(moves_per_temperature=120, cooling=0.88,
                                max_evaluations=10000),
    "perfbench": AnnealSchedule(moves_per_temperature=80, cooling=0.85,
                                max_evaluations=6000),
}


class TestWright:
    @pytest.mark.parametrize("schedule", sorted(FLOORPLAN_SCHEDULES))
    @pytest.mark.parametrize("noise_weight", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_every_visited_state(self, seed, noise_weight, schedule):
        blocks, nets = demo_mixed_signal_system()
        fp = WrightFloorplanner(blocks, nets, noise_weight=noise_weight,
                                seed=seed)
        ref = _ReferenceWright(fp)
        cost = fp.cost
        calls = [0]

        def checked_cost(state):
            want = ref.cost(state)
            got = cost(state)
            assert _bits(got) == _bits(want)
            calls[0] += 1
            return got

        fp.cost = checked_cost
        result = fp.run(FLOORPLAN_SCHEDULES[schedule])
        assert calls[0] == result.evaluations
        fresh = WrightFloorplanner(blocks, nets, noise_weight=noise_weight,
                                   seed=seed)
        want = _ReferenceWright(fresh).run(FLOORPLAN_SCHEDULES[schedule])
        assert _floorplan_record(result) == _floorplan_record(want)


@st.composite
def _systems(draw):
    """A drawn block system, its nets, and a Polish expression with
    rotations over it."""
    n = draw(st.integers(2, 6))
    names = [f"b{k}" for k in range(n)]
    size = st.integers(1, 3_000_000)
    magnitude = st.sampled_from([0.0, 0.5, 1.0, 4.0, 10.0])
    pin_names = ["p", "q", "r"]
    blocks = []
    for name in names:
        pins = {pin: (draw(st.integers(0, 4_000_000)),
                      draw(st.integers(0, 4_000_000)))
                for pin in draw(st.lists(st.sampled_from(pin_names),
                                         unique=True))}
        blocks.append(Block(name, draw(size), draw(size),
                            draw(st.sampled_from(list(BlockKind))),
                            noise_injection=draw(magnitude),
                            noise_sensitivity=draw(magnitude), pins=pins))
    terminal = st.tuples(st.sampled_from(names),
                         st.sampled_from(pin_names + ["missing"]))
    nets = [SignalNet(f"n{k}", draw(st.lists(terminal, min_size=1,
                                             max_size=4)))
            for k in range(draw(st.integers(0, 6)))]
    # A random postfix expression: operands in a drawn order, an
    # operator wherever the stack allows one and the draw asks for it.
    operands = draw(st.permutations(names))
    expr, depth = [], 0
    while operands or depth > 1:
        if depth >= 2 and (not operands or draw(st.booleans())):
            expr.append(draw(st.sampled_from([H, V])))
            depth -= 1
        else:
            expr.append(operands[0])
            operands = operands[1:]
            depth += 1
    rotated = {name: draw(st.booleans()) for name in names}
    spacing = draw(st.sampled_from([0, 1, 120_000]))
    return blocks, nets, expr, rotated, spacing


class TestWrightDrawn:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(system=_systems(), noise_weight=st.sampled_from([0.0, 1.0, 1.5]))
    def test_cost_and_packing(self, system, noise_weight):
        blocks, nets, expr, rotated, spacing = system
        fp = WrightFloorplanner(blocks, nets, noise_weight=noise_weight,
                                spacing=spacing)
        state = fp.initial_state()
        state.expression, state.rotated = expr, rotated
        assert _bits(fp.cost(state)) == _bits(_ReferenceWright(fp).cost(state))
        by_name = {b.name: b for b in blocks}
        assert (_placed_record(evaluate_polish(expr, by_name, rotated,
                                               spacing))
                == _placed_record(_ref_evaluate_polish(expr, by_name,
                                                       rotated, spacing)))


# ----------------------------------------------------------------------
# mesh: the per-spec route-and-signoff search, copied verbatim
# ----------------------------------------------------------------------

def _evaluate(macro, mesh_spec: MeshSpec, spec: SignoffSpec) -> MacroSignoff:
    return signoff_mesh(macro, route_mesh(macro, mesh_spec), spec)


@dataclass(frozen=True)
class _Verdict:
    """What :func:`optimize_mesh` reads of one signoff: its metrics, not
    the mesh, grid or layout cell behind them."""

    metal_area: int
    worst_ir_drop: float
    worst_droop: float
    em_violations: list[str]
    feasible: bool


def _ref_uniform_mesh(macro, spec: SignoffSpec | None = None,
                      ) -> MacroSignoff:
    """Reference mesh: every strap corridor railed, one width for all.

    Scans widths geometrically from ``min_width_nm`` and returns the
    first feasible signoff (or the widest attempt, marked infeasible) —
    the 'before' picture the density optimizer has to beat.
    """
    spec = spec or SignoffSpec()
    h_all = len(macro.blockages.free_h_tracks)
    v_all = len(macro.blockages.free_v_tracks)
    width = spec.min_width_nm
    attempts = 0
    last = None
    while width <= spec.max_width_nm:
        mesh_spec = MeshSpec(h_all, v_all, width, width)
        last = _evaluate(macro, mesh_spec, spec)
        attempts += 1
        if last.feasible:
            break
        width = int(math.ceil(width * 1.3))
    last.evaluations = attempts
    return last


def _ref_optimize_mesh(macro, spec: SignoffSpec | None = None,
                       seed: int = 1,
                       schedule: AnnealSchedule | None = None,
                       ) -> MacroSignoff:
    """Minimize rail metal area over mesh density, subject to signoff.

    Anneals the four :class:`MeshSpec` knobs (log-scale, rails rounded
    to integers), then repairs any residual violation by widening /
    densifying, then greedily shrinks widths while feasibility holds —
    the same anneal/repair/shrink shape as the rail synthesizer.

    The three phases propose the same integer specs again and again;
    each distinct spec is routed and signed off once per call, and the
    returned ``evaluations`` counts proposals.
    """
    spec = spec or SignoffSpec()
    schedule = schedule or AnnealSchedule(moves_per_temperature=24,
                                          cooling=0.85,
                                          max_evaluations=400)
    h_max = len(macro.blockages.free_h_tracks)
    v_max = len(macro.blockages.free_v_tracks)
    space = ContinuousSpace(
        ["h_rails", "v_rails", "h_width_nm", "v_width_nm"],
        np.array([2.0, 2.0, float(spec.min_width_nm),
                  float(spec.min_width_nm)]),
        np.array([float(h_max), float(v_max), float(spec.max_width_nm),
                  float(spec.max_width_nm)]),
        log_scale=True)
    evaluations = [0]
    area_norm = ((macro.width_nm + macro.height_nm)
                 * (h_max + v_max) * spec.min_width_nm)
    # The memo keeps verdicts (or the routing error), never a mesh, grid
    # or cell; only the last signoff run is held whole.
    verdicts: dict[MeshSpec, _Verdict | MeshRoutingError] = {}
    latest: list[MacroSignoff] = []

    def evaluate(mesh_spec: MeshSpec) -> _Verdict:
        evaluations[0] += 1
        verdict = verdicts.get(mesh_spec)
        if verdict is None:
            try:
                result = _evaluate(macro, mesh_spec, spec)
            except MeshRoutingError as exc:
                verdict = exc
            else:
                latest[:] = [result]
                verdict = _Verdict(result.metal_area, result.worst_ir_drop,
                                   result.worst_droop, result.em_violations,
                                   result.feasible)
            verdicts[mesh_spec] = verdict
        if isinstance(verdict, MeshRoutingError):
            raise verdict
        return verdict

    def held(mesh_spec: MeshSpec) -> MacroSignoff | None:
        """The full signoff of ``mesh_spec``, if it is the last one run."""
        return latest[0] if latest and latest[0].mesh.spec == mesh_spec \
            else None

    def to_mesh_spec(point: dict[str, float]) -> MeshSpec:
        return MeshSpec(int(round(point["h_rails"])),
                        int(round(point["v_rails"])),
                        int(round(point["h_width_nm"])),
                        int(round(point["v_width_nm"])))

    def cost(point: dict[str, float]) -> float:
        try:
            result = evaluate(to_mesh_spec(point))
        except MeshRoutingError:
            return float("inf")
        value = result.metal_area / area_norm
        if result.worst_ir_drop > spec.max_ir_drop:
            value += 20.0 * (result.worst_ir_drop / spec.max_ir_drop - 1.0)
        if result.worst_droop > spec.max_droop:
            value += 20.0 * (result.worst_droop / spec.max_droop - 1.0)
        if result.em_violations:
            value += 30.0 * len(result.em_violations)
        return value

    x0 = np.array([float(h_max), float(v_max),
                   float(spec.max_width_nm) * 0.25,
                   float(spec.max_width_nm) * 0.25])
    anneal = anneal_continuous(cost, space, schedule=schedule, seed=seed,
                               x0=x0)
    best = to_mesh_spec(space.to_dict(anneal.best_state))

    # Repair: widen (and densify on droop) until feasible.
    current = evaluate(best)
    kept = held(best)
    for _ in range(12):
        if current.feasible:
            break
        h_rails, v_rails = best.h_rails, best.v_rails
        h_w, v_w = best.h_width_nm, best.v_width_nm
        if current.em_violations or \
                current.worst_ir_drop > spec.max_ir_drop:
            h_w = min(int(h_w * 1.4), spec.max_width_nm)
            v_w = min(int(v_w * 1.4), spec.max_width_nm)
        if current.worst_droop > spec.max_droop:
            h_rails = min(h_rails + 1, h_max)
            v_rails = min(v_rails + 1, v_max)
            h_w = min(int(h_w * 1.2), spec.max_width_nm)
            v_w = min(int(v_w * 1.2), spec.max_width_nm)
        trial = MeshSpec(h_rails, v_rails, h_w, v_w)
        if trial == best:
            break
        best = trial
        current = evaluate(best)
        kept = held(best)

    # Shrink: greedily narrow each width while signoff holds.
    if current.feasible:
        changed = True
        while changed:
            changed = False
            for knob in ("h_width_nm", "v_width_nm"):
                params = best.describe()
                narrower = max(int(params[knob] * 0.8), spec.min_width_nm)
                if narrower >= params[knob]:
                    continue
                params[knob] = narrower
                trial_spec = MeshSpec(**params)
                trial = evaluate(trial_spec)
                if trial.feasible:
                    best, current, changed = trial_spec, trial, True
                    kept = held(best)

    # The final spec's signoff is kept whenever it was run when accepted;
    # otherwise (the memo answered for it) it is run again, and that run
    # is not an evaluation.
    result = kept if kept is not None else _evaluate(macro, best, spec)
    result.evaluations = evaluations[0]
    return result


MESH_SCHEDULE = AnnealSchedule(moves_per_temperature=12, cooling=0.7,
                               max_evaluations=60,
                               stop_after_stale=1_000_000)


@dataclass
class _Search:
    result: MacroSignoff
    verdicts: list      # (spec, metrics) of each signoff run, in order
    costs: list         # the bytes of each anneal cost value, in order
    routes: list        # the spec of each route_mesh call, in order
    drawn: Counter      # cells and segment objects built in the search


def _typed(value) -> list:
    return [type(value).__name__, value]


def _verdict(result: MacroSignoff) -> tuple:
    return (result.mesh.spec, result.metal_area,
            _bits(result.worst_ir_drop), _bits(result.worst_droop),
            result.em_violations, result.feasible)


def _search(monkeypatch, search, *args, **kwargs) -> _Search:
    """Run one mesh search with its signoffs, routes, anneal costs and
    cell and segment construction recorded."""
    verdicts, costs, routes, drawn = [], [], [], Counter()
    real_signoff, real_route = signoff.signoff_mesh, signoff.route_mesh
    real_anneal = signoff.anneal_continuous
    real_cell, real_segment = mesh_module.Cell, mesh_module.GridSegment

    def recorded_signoff(macro, mesh, spec=None):
        result = real_signoff(macro, mesh, spec)
        verdicts.append(_verdict(result))
        return result

    def recorded_route(macro, mesh_spec):
        routes.append(mesh_spec)
        return real_route(macro, mesh_spec)

    def recorded_anneal(cost, space, **kw):
        def recorded_cost(point):
            value = cost(point)
            costs.append(_bits(value))
            return value
        return real_anneal(recorded_cost, space, **kw)

    def counted(kind, make):
        def build(*a, **kw):
            drawn[kind] += 1
            return make(*a, **kw)
        return build

    with monkeypatch.context() as m:
        for module in (signoff, sys.modules[__name__]):
            m.setattr(module, "signoff_mesh", recorded_signoff)
            m.setattr(module, "route_mesh", recorded_route)
            m.setattr(module, "anneal_continuous", recorded_anneal)
        m.setattr(mesh_module, "Cell", counted("cells", real_cell))
        m.setattr(mesh_module, "GridSegment",
                  counted("segments", real_segment))
        result = search(*args, **kwargs)
    return _Search(result, verdicts, costs, routes, drawn)


def _signoff_record(result: MacroSignoff) -> dict:
    mesh, grid = result.mesh, result.grid
    return {
        "summary": [[k, _typed(v)] for k, v in result.summary().items()],
        "em": result.em_violations,
        "rails": [(r.name, r.orientation, r.track, r.path, r.detoured)
                  for r in mesh.rails],
        "nodes": [mesh.node_names, mesh.node_pos, mesh.pad_nodes],
        "segments": [(s.name, s.node_a, s.node_b, s.length_nm, s.width_nm)
                     for s in mesh.segments],
        "vias": mesh.vias,
        "cell": [(s.layer, s.rect, s.net) for s in mesh.cell.shapes],
        "v": [_bits(v) for v in grid.dc_solve().tolist()],
        "currents": [(k, _bits(v))
                     for k, v in grid.segment_currents().items()],
        "grid_area": _typed(grid.metal_area()),
    }


def _track_sets(macro, specs) -> set:
    b = macro.blockages
    return {(tuple(assign_rail_tracks(b.free_h_tracks, s.h_rails)),
             tuple(assign_rail_tracks(b.free_v_tracks, s.v_rails)))
            for s in specs}


MESH_SEARCHES = {
    "32x32-1001": (MacroSpec(32, 32), {"seed": 1001,
                                       "schedule": MESH_SCHEDULE}),
    "32x32-7001": (MacroSpec(32, 32), {"seed": 7001,
                                       "schedule": MESH_SCHEDULE}),
    "64x64-default": (MacroSpec(64, 64), {}),
}


class TestMeshSearch:
    @pytest.mark.parametrize("case", sorted(MESH_SEARCHES))
    def test_optimize_mesh_matches_per_spec_signoff(self, case,
                                                    monkeypatch):
        spec, kwargs = MESH_SEARCHES[case]
        got = _search(monkeypatch, signoff.optimize_mesh, tile_macro(spec),
                      **kwargs)
        want = _search(monkeypatch, _ref_optimize_mesh, tile_macro(spec),
                       **kwargs)
        assert got.verdicts == want.verdicts
        assert got.costs == want.costs
        assert _signoff_record(got.result) == _signoff_record(want.result)

    @pytest.mark.parametrize("spec", [MacroSpec(32, 32), MacroSpec(64, 64)],
                             ids=["32x32", "64x64"])
    def test_uniform_mesh_matches_per_spec_signoff(self, spec, monkeypatch):
        got = _search(monkeypatch, signoff.uniform_mesh, tile_macro(spec))
        want = _search(monkeypatch, _ref_uniform_mesh, tile_macro(spec))
        assert got.verdicts == want.verdicts
        assert _signoff_record(got.result) == _signoff_record(want.result)

    @pytest.mark.parametrize("seed, track_sets", [(1001, 11), (7001, 7)])
    def test_optimize_mesh_routes_each_track_set_once(self, seed,
                                                      track_sets,
                                                      monkeypatch):
        macro = tile_macro(MacroSpec(32, 32))
        got = _search(monkeypatch, signoff.optimize_mesh, macro, seed=seed,
                      schedule=MESH_SCHEDULE)
        signed = [spec for spec, *_ in got.verdicts]
        assert len(_track_sets(macro, signed)) == track_sets
        assert len(got.routes) == track_sets
        assert len(_track_sets(macro, got.routes)) == track_sets
        # The search draws no cell and builds no segment object.
        assert got.drawn == Counter()

    def test_signoff_of_one_mesh_under_other_loads(self):
        """One routed mesh signed off again and again, under other load
        models and another (equal) tiling, gives what a fresh route and
        signoff gives each time."""
        macro = tile_macro(MacroSpec(32, 32))
        specs = [SignoffSpec(), SignoffSpec(cell_avg_a=3e-5),
                 SignoffSpec(peak_ratio=40.0)]
        mesh_spec = MeshSpec(5, 5, 2_000, 3_000)
        mesh = route_mesh(macro, mesh_spec)
        for spec in specs + specs[::-1]:
            for tiling in (macro, tile_macro(MacroSpec(32, 32))):
                got = signoff_mesh(tiling, mesh, spec)
                want = signoff_mesh(tiling, route_mesh(tiling, mesh_spec),
                                    spec)
                assert _signoff_record(got) == _signoff_record(want)

    def test_uniform_mesh_routes_once(self, monkeypatch):
        got = _search(monkeypatch, signoff.uniform_mesh,
                      tile_macro(MacroSpec(32, 32)))
        assert len(got.verdicts) == got.result.evaluations > 1
        assert len(got.routes) == 1
        assert got.drawn == Counter()
