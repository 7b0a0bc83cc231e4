"""KOAN-style analog device placement by simulated annealing.

The placer arranges generated device (or stack) layouts with the moves
and objectives of KOAN [Cohn et al., JSSC'91]:

* translate / rotate / mirror / swap moves with temperature-scaled range;
* *enforced* symmetry — devices in a symmetry pair share one vertical
  axis; the slave's position and orientation are always the mirror of the
  master's, so every visited configuration is exactly symmetric (KOAN's
  symmetry groups);
* dynamic diffusion-merge reward — abutting devices whose facing
  diffusion edges carry the same net earn a bonus, which is how KOAN
  "discovers desirable optimizations to minimize parasitic capacitance
  during placement";
* cost = packed area + half-perimeter wirelength + overlap penalty.

After annealing, a constraint-graph legalization pass removes residual
overlaps while preserving relative order and re-centres symmetry pairs;
when its bounded rounds leave an overlap, a bottom-up sweep that always
terminates lifts the remaining offenders clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.layout.constraints import ConstraintSet
from repro.layout.devicegen import DeviceLayout
from repro.layout.geometry import Cell, Orientation, Rect, bounding_box
from repro.layout.technology import DEFAULT_TECH, Technology
from repro.opt.anneal import Annealer, AnnealSchedule

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


def _frame(layout: DeviceLayout, orientation: Orientation) -> tuple:
    """A layout's geometry in one orientation, placed at the origin:
    ``(x1, y1, x2, y2, ports, left_net, right_net)``.

    A placed object's box is the frame's box shifted by its position, and
    a pin is the frame's port-rect centre shifted the same way: the
    centre is ``(x1 + x2) // 2``, and shifting both ends by an integer
    shifts that floor by exactly the same amount.  The facing diffusion nets
    follow orientations that mirror the x axis; rotated diffusion has
    none, and only single MOS devices abut.
    """
    box = layout.bbox().transformed(orientation)
    ports = {name: port.rect.transformed(orientation).center
             for name, port in layout.cell.ports.items()}
    left, right = layout.left_net, layout.right_net
    if layout.kind != "mos" or orientation.swaps_axes:
        left = right = None
    elif orientation in (Orientation.MY, Orientation.R180):
        left, right = right, left
    return box.x1, box.y1, box.x2, box.y2, ports, left, right


@dataclass
class PlacedObject:
    """One placeable layout with its transform."""

    layout: DeviceLayout
    x: int = 0
    y: int = 0
    orientation: Orientation = Orientation.R0

    def bbox(self) -> Rect:
        return self.layout.bbox().transformed(self.orientation,
                                              self.x, self.y)

    def port_position(self, port: str) -> tuple[int, int]:
        p = self.layout.cell.ports[port]
        r = p.rect.transformed(self.orientation, self.x, self.y)
        return r.center

    def transformed_cell(self) -> Cell:
        return self.layout.cell.transformed(self.orientation, self.x,
                                            self.y, self.layout.device_name)

    def copy(self) -> "PlacedObject":
        return PlacedObject(self.layout, self.x, self.y, self.orientation)


@dataclass
class Placement:
    """A full placement: objects by device name plus the symmetry axis."""

    objects: dict[str, PlacedObject]
    axis_x: int = 0

    def copy(self) -> "Placement":
        return Placement({k: o.copy() for k, o in self.objects.items()},
                         self.axis_x)

    def bbox(self) -> Rect:
        return bounding_box([o.bbox() for o in self.objects.values()])

    def cells(self) -> list[Cell]:
        return [o.transformed_cell() for o in self.objects.values()]


@dataclass
class PlacementResult:
    placement: Placement
    cost: float
    area: int
    wirelength: int
    merged_abutments: int
    evaluations: int


class KoanPlacer:
    """Annealing placement of device layouts under analog constraints.

    The constructor compiles what every candidate shares: each layout's
    frame in all eight orientations (:func:`_frame`), the multi-pin nets
    and the movable devices.  A candidate is then scored with integer
    arithmetic on its objects' positions.
    """

    def __init__(self, layouts: list[DeviceLayout],
                 constraints: ConstraintSet | None = None,
                 tech: Technology = DEFAULT_TECH,
                 wirelength_weight: float = 0.5,
                 overlap_weight: float = 30.0,
                 merge_bonus: float = 0.05,
                 seed: int = 1):
        if not layouts:
            raise ValueError("nothing to place")
        self.layouts = {lay.device_name: lay for lay in layouts}
        if len(self.layouts) != len(layouts):
            raise ValueError("duplicate device names in layouts")
        self.constraints = constraints or ConstraintSet()
        self.tech = tech
        self.wirelength_weight = wirelength_weight
        self.overlap_weight = overlap_weight
        self.merge_bonus = merge_bonus
        self.seed = seed
        self.total_area = sum(lay.bbox().area for lay in layouts)
        self.scale = int(math.sqrt(self.total_area)) or 1
        self._slave_of: dict[str, str] = {}
        for pair in self.constraints.symmetry_pairs:
            if (pair.device_a in self.layouts
                    and pair.device_b in self.layouts):
                self._slave_of[pair.device_b] = pair.device_a
        self._movable = [n for n in self.layouts if n not in self._slave_of]
        self._mos_movable = [n for n in self._movable
                             if self.layouts[n].kind == "mos"]
        self._frames = {name: {o: _frame(lay, o) for o in Orientation}
                        for name, lay in self.layouts.items()}
        self._nets = self._collect_nets()
        self.evaluations = 0

    # ------------------------------------------------------------------
    def _collect_nets(self) -> list[list[tuple[str, str]]]:
        """The multi-pin nets, each as its [(device, port)] signal pins."""
        nets: dict[str, list[tuple[str, str]]] = {}
        for name, lay in self.layouts.items():
            for port, net in lay.port_nets.items():
                if port not in lay.cell.ports:
                    continue  # e.g. bulk without a physical port
                nets.setdefault(net, []).append((name, port))
        # Single-pin nets contribute nothing to wirelength.
        return [pins for pins in nets.values() if len(pins) > 1]

    # ------------------------------------------------------------------
    # cost
    # ------------------------------------------------------------------
    def _apply_symmetry(self, pl: Placement) -> None:
        frames = self._frames
        for slave, master in self._slave_of.items():
            m = pl.objects[master]
            s = pl.objects[slave]
            # Mirror the master's bbox about the axis.
            _, m_y1, m_x2, _, _, _, _ = frames[master][m.orientation]
            s.orientation = _MIRROR[m.orientation]
            s_x1, s_y1, _, _, _, _, _ = frames[slave][s.orientation]
            s.x = 2 * pl.axis_x - (m.x + m_x2) - s_x1
            s.y = m.y + m_y1 - s_y1

    def cost(self, pl: Placement) -> float:
        self.evaluations += 1
        self._apply_symmetry(pl)
        area, overlap, wirelength, merges = self._measure(pl)
        return (area / self.total_area
                + self.wirelength_weight * wirelength / (4 * self.scale)
                + self.overlap_weight * overlap / self.total_area
                - self.merge_bonus * merges)

    def _measure(self, pl: Placement) -> tuple[int, int, int, int]:
        """(bounding-box area, pairwise overlap area, half-perimeter
        wirelength, diffusion-abutment merges) of a placement.

        Each object's box, pins and facing diffusion nets are its
        layout's frame for its orientation, shifted by its position.
        Pairs are visited in ``pl.objects`` order: of two boxes with the
        same left edge, the earlier object is the left one.
        """
        frames = self._frames
        placed = {}
        boxes = []
        for name, obj in pl.objects.items():
            x1, y1, x2, y2, ports, left, right = \
                frames[name][obj.orientation]
            x, y = obj.x, obj.y
            placed[name] = (x, y, ports)
            boxes.append((x + x1, y + y1, x + x2, y + y2, left, right))
        x1s, y1s, x2s, y2s, _, _ = zip(*boxes)
        area = (max(x2s) - min(x1s)) * (max(y2s) - min(y1s))

        overlap = merges = 0
        near = 2 * self.tech.min_space_diff
        for i, (ax1, ay1, ax2, ay2, a_left, a_right) in enumerate(boxes):
            for bx1, by1, bx2, by2, b_left, b_right in boxes[i + 1:]:
                if ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2:
                    overlap += ((min(ax2, bx2) - max(ax1, bx1))
                                * (min(ay2, by2) - max(ay1, by1)))
                # Diffusion abutment: the facing edges share a net, and
                # the boxes are near and vertically aligned.
                if ax1 <= bx1:
                    facing, other = a_right, b_left
                else:
                    facing, other = b_right, a_left
                if facing is None or facing != other:
                    continue
                if (max(bx1 - ax2, ax1 - bx2, 0)
                        + max(by1 - ay2, ay1 - by2, 0)) > near:
                    continue
                if (min(ay2, by2) - max(ay1, by1)
                        >= min(ay2 - ay1, by2 - by1) // 2):
                    merges += 1

        wirelength = 0
        for pins in self._nets:
            xs, ys = [], []
            for device, port in pins:
                x, y, ports = placed[device]
                px, py = ports[port]
                xs.append(x + px)
                ys.append(y + py)
            wirelength += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return area, overlap, wirelength, merges

    # ------------------------------------------------------------------
    # moves
    # ------------------------------------------------------------------
    def propose(self, pl: Placement, rng: np.random.Generator,
                frac: float) -> Placement:
        movable = self._movable
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
            self._abut_move(pl, rng)
        else:  # move the symmetry axis
            pl.axis_x += int(rng.normal(0, span))
        return pl

    def _abut_move(self, pl: Placement, rng: np.random.Generator) -> None:
        """KOAN's merge move: snap a device flush against a compatible
        neighbour so their shared diffusion edges abut."""
        if self.merge_bonus <= 0:
            return  # ablated: no directed merging
        mos = self._mos_movable
        if len(mos) < 2:
            return
        mover = mos[rng.integers(len(mos))]
        targets = [n for n in mos if n != mover]
        rng.shuffle(targets)
        gap = self.tech.min_space_diff
        for target in targets:
            t_obj = pl.objects[target]
            m_obj = pl.objects[mover]
            t_x1, t_y1, t_x2, _, _, t_left, t_right = \
                self._frames[target][t_obj.orientation]
            m_x1, m_y1, m_x2, _, _, m_left, m_right = \
                self._frames[mover][m_obj.orientation]
            if t_right is not None and t_right == m_left:
                m_obj.x += (t_obj.x + t_x2 + gap) - (m_obj.x + m_x1)
                m_obj.y += (t_obj.y + t_y1) - (m_obj.y + m_y1)
                return
            if t_left is not None and t_left == m_right:
                m_obj.x += (t_obj.x + t_x1 - gap) - (m_obj.x + m_x2)
                m_obj.y += (t_obj.y + t_y1) - (m_obj.y + m_y1)
                return

    # ------------------------------------------------------------------
    def initial_placement(self, rng: np.random.Generator) -> Placement:
        """Row seeding: objects side by side, slaves mirrored."""
        objects: dict[str, PlacedObject] = {}
        x = 0
        for name in self._movable:
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
        # The merges are counted before the final symmetry pass, the
        # area and wirelength after it.
        merges = self._measure(best)[3]
        final_cost = self.cost(best)
        area, _, wirelength, _ = self._measure(best)
        return PlacementResult(
            placement=best,
            cost=final_cost,
            area=area,
            wirelength=wirelength,
            merged_abutments=merges,
            evaluations=self.evaluations,
        )

    # ------------------------------------------------------------------
    # legalization
    # ------------------------------------------------------------------
    def _legalize(self, pl: Placement, max_rounds: int = 40) -> None:
        """Push overlapping objects apart along the smaller-overlap axis."""
        spacing = self.tech.min_space_diff
        for _ in range(max_rounds):
            moved = False
            names = list(pl.objects)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    box_a = pl.objects[a].bbox()
                    box_b = pl.objects[b].bbox()
                    inter = box_a.intersection(box_b)
                    if inter is None:
                        continue
                    moved = True
                    dx = inter.width + spacing
                    dy = inter.height + spacing
                    mover = b if b not in self._slave_of else a
                    other = a if mover == b else b
                    obj = pl.objects[mover]
                    ref = pl.objects[other].bbox()
                    if dx <= dy:
                        direction = 1 if obj.bbox().center[0] >= \
                            ref.center[0] else -1
                        obj.x += direction * dx
                    else:
                        direction = 1 if obj.bbox().center[1] >= \
                            ref.center[1] else -1
                        obj.y += direction * dy
            if not moved:
                return

    def _legalize_y_only(self, pl: Placement, max_rounds: int = 40) -> None:
        """Resolve any overlap reintroduced by symmetry using y pushes
        (which preserve mirror symmetry about the vertical axis)."""
        spacing = self.tech.min_space_diff
        for _ in range(max_rounds):
            moved = False
            names = list(pl.objects)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    box_a = pl.objects[a].bbox()
                    box_b = pl.objects[b].bbox()
                    inter = box_a.intersection(box_b)
                    if inter is None:
                        continue
                    moved = True
                    mover_name = b if b not in self._slave_of else a
                    obj = pl.objects[mover_name]
                    partner = self._partner(mover_name)
                    dy = inter.height + spacing
                    direction = 1 if box_b.center[1] >= box_a.center[1] \
                        else -1
                    obj.y += direction * dy
                    if partner is not None and partner in pl.objects:
                        pl.objects[partner].y += direction * dy
            if not moved:
                return

    def _sweep_up(self, pl: Placement) -> None:
        """Legalize for certain, keeping every symmetry pair mirrored.

        Twins that overlap each other first move apart about the axis.
        Then, from the lowest box up, each object and its twin are lifted
        above every already-swept box they overlap.  A lift clears for
        good each box it was computed from, since objects only move up,
        so each object settles after at most as many lifts as there are
        swept boxes.
        """
        spacing = self.tech.min_space_diff
        for slave, master in self._slave_of.items():
            while True:
                m_box = pl.objects[master].bbox()
                inter = m_box.intersection(pl.objects[slave].bbox())
                if inter is None:
                    break
                away = -1 if m_box.center[0] <= pl.axis_x else 1
                pl.objects[master].x += away * (inter.width + spacing)
                self._apply_symmetry(pl)
        swept: list[Rect] = []
        done: set[str] = set()
        for name in sorted(pl.objects,
                           key=lambda n: (pl.objects[n].bbox().y1, n)):
            if name in done:
                continue
            partner = self._partner(name)
            group = [name] + ([partner] if partner in pl.objects else [])
            while True:
                lift = max((s.y2 + spacing - b.y1
                            for b in (pl.objects[g].bbox() for g in group)
                            for s in swept if b.intersects(s)), default=0)
                if lift <= 0:
                    break
                for g in group:
                    pl.objects[g].y += lift
            swept.extend(pl.objects[g].bbox() for g in group)
            done.update(group)

    def _partner(self, name: str) -> str | None:
        if name in self._slave_of:
            return self._slave_of[name]
        for slave, master in self._slave_of.items():
            if master == name:
                return slave
        return None


def has_overlaps(pl: Placement) -> bool:
    boxes = [o.bbox() for o in pl.objects.values()]
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            if a.intersection(b) is not None:
                return True
    return False


def symmetry_error(pl: Placement, constraints: ConstraintSet) -> int:
    """Total Manhattan asymmetry of all pairs (0 for exact symmetry)."""
    err = 0
    for pair in constraints.symmetry_pairs:
        if (pair.device_a not in pl.objects
                or pair.device_b not in pl.objects):
            continue
        a = pl.objects[pair.device_a].bbox()
        b = pl.objects[pair.device_b].bbox()
        err += abs((a.x1 + a.x2 + b.x1 + b.x2) // 2 - 2 * pl.axis_x)
        err += abs(a.y1 - b.y1)
    return err
