"""WRIGHT-style mixed-signal floorplanning: slicing-tree annealing with a
substrate-noise term.

"WRIGHT uses a KOAN-style annealer to floorplan the blocks, but with a
fast substrate noise coupling evaluator so that a simplified view of
substrate noise influences the floorplan" (§3.2, [57]).

The floorplan representation is the classic normalized Polish expression
of Wong & Liu with their three move types (plus block rotation); the cost
adds the :func:`~repro.msystem.substrate.floorplan_noise` kernel to the
usual area + wirelength objectives, so noisy digital blocks migrate away
from sensitive analog ones exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.layout.geometry import Rect
from repro.msystem.blocks import Block, PlacedBlock, SignalNet
from repro.msystem.substrate import substrate_noise
from repro.opt.anneal import Annealer, AnnealSchedule

H, V = "H", "V"  # horizontal cut (stack), vertical cut (side by side)


@dataclass
class FloorplanState:
    expression: list[str]            # normalized Polish expression
    rotated: dict[str, bool]

    def copy(self) -> "FloorplanState":
        return FloorplanState(list(self.expression), dict(self.rotated))


@dataclass
class FloorplanResult:
    placed: dict[str, PlacedBlock]
    width: int
    height: int
    area: int
    wirelength: int
    noise: float
    cost: float
    evaluations: int

    def placed_list(self) -> list[PlacedBlock]:
        return list(self.placed.values())

    def chip_rect(self) -> Rect:
        return Rect(0, 0, self.width, self.height)


def _is_valid_polish(expr: list[str]) -> bool:
    count = 0
    for tok in expr:
        if tok in (H, V):
            count -= 1
        else:
            count += 1
        if count < 1:
            return False
    return count == 1


def _pack(expr: list[str], rotated: dict[str, bool],
          footprints: dict[str, tuple[tuple[int, int], tuple[int, int]]],
          ) -> list[tuple[str, int, int, bool]]:
    """Pack a slicing tree: its leaves in expression order, each as
    ``(block, x, y, rotated)`` at (0,0)-anchored coordinates.

    ``footprints[name][rot]`` is a block's packed (width, height) unrotated
    and rotated.  A postfix subtree's leaves are contiguous, so a cut
    shifts the range of its second operand's leaves.
    """
    leaves: list[str] = []
    turned: list[bool] = []
    xs: list[int] = []
    ys: list[int] = []
    stack: list[tuple[int, int, int]] = []   # (w, h, first leaf)
    for tok in expr:
        if tok not in (H, V):
            rot = rotated.get(tok, False)
            w, h = footprints[tok][rot]
            stack.append((w, h, len(leaves)))
            leaves.append(tok)
            turned.append(rot)
            xs.append(0)
            ys.append(0)
        else:
            w2, h2, first2 = stack.pop()
            w1, h1, first1 = stack.pop()
            if tok == V:  # side by side
                for k in range(first2, len(leaves)):
                    xs[k] += w1
                stack.append((w1 + w2, max(h1, h2), first1))
            else:         # stacked
                for k in range(first2, len(leaves)):
                    ys[k] += h1
                stack.append((max(w1, w2), h1 + h2, first1))
    if len(stack) != 1:
        raise ValueError("malformed Polish expression")
    return list(zip(leaves, xs, ys, turned))


def _footprints(blocks: dict[str, Block], spacing: int) -> dict:
    """Each block's (width, height) plus ``spacing``, unrotated and
    rotated."""
    return {name: ((b.width + spacing, b.height + spacing),
                   (b.height + spacing, b.width + spacing))
            for name, b in blocks.items()}


def evaluate_polish(expr: list[str], blocks: dict[str, Block],
                    rotated: dict[str, bool],
                    spacing: int = 0) -> dict[str, PlacedBlock]:
    """Pack the slicing tree; returns placed blocks at (0,0)-anchored
    coordinates."""
    return {name: PlacedBlock(blocks[name], x, y, rot)
            for name, x, y, rot in _pack(expr, rotated,
                                         _footprints(blocks, spacing))}


class WrightFloorplanner:
    """Annealing slicing floorplanner with substrate-noise awareness.

    The constructor compiles what every candidate shares: each block's
    packed and bare footprint in both rotations, each net terminal's pin
    offset (clamped to the footprint) in both rotations, and each
    block's noise injection and sensitivity.  A candidate is then scored
    from the packing's coordinates alone.
    """

    def __init__(self, blocks: list[Block], nets: list[SignalNet],
                 noise_weight: float = 1.0,
                 wirelength_weight: float = 0.3,
                 spacing: int = 120_000,
                 seed: int = 1):
        if len(blocks) < 2:
            raise ValueError("floorplanning needs at least two blocks")
        self.blocks = {b.name: b for b in blocks}
        for net in nets:
            for block_name, _ in net.terminals:
                if block_name not in self.blocks:
                    raise ValueError(
                        f"net {net.name!r} has a terminal on unknown "
                        f"block {block_name!r}")
        self.nets = nets
        self.noise_weight = noise_weight
        self.wirelength_weight = wirelength_weight
        self.spacing = spacing
        self.seed = seed
        self.total_area = sum(b.area for b in blocks)
        self.scale = int(np.sqrt(self.total_area))
        # Normalize the noise term against the worst case: everything
        # adjacent (kernel=1).
        worst = sum(
            a.noise_injection * b.noise_sensitivity
            for a in blocks for b in blocks if a.name != b.name)
        self.noise_norm = max(worst, 1e-9)
        self.evaluations = 0

        self._packed = _footprints(self.blocks, spacing)
        self._bare = _footprints(self.blocks, 0)
        self._terminals = [
            [(name, _pin_offsets(self.blocks[name], pin))
             for name, pin in net.terminals]
            for net in nets]
        self._noise = {n: (b.noise_injection, b.noise_sensitivity)
                       for n, b in self.blocks.items()}

    # ------------------------------------------------------------------
    def initial_state(self) -> FloorplanState:
        names = list(self.blocks)
        expr = [names[0]]
        for i, name in enumerate(names[1:]):
            expr += [name, V if i % 2 == 0 else H]
        return FloorplanState(expr, {n: False for n in names})

    # ------------------------------------------------------------------
    def cost(self, state: FloorplanState) -> float:
        self.evaluations += 1
        width, height, wl, noise = self._measure(
            _pack(state.expression, state.rotated, self._packed))
        return (width * height / self.total_area
                + self.wirelength_weight * wl / (4 * self.scale)
                + self.noise_weight * noise / self.noise_norm)

    def _measure(self, packing: list[tuple[str, int, int, bool]],
                 ) -> tuple[int, int, int, float]:
        """(chip width, chip height, wirelength, substrate noise) of a
        packing, from the compiled footprints and pin offsets; the noise
        sums over the blocks in packing order (:func:`substrate_noise`)."""
        bare = self._bare
        placed = {}
        for name, x, y, rot in packing:
            w, h = bare[name][rot]
            placed[name] = (x, y, x + w, y + h, rot)
        width = max(p[2] for p in placed.values())
        height = max(p[3] for p in placed.values())

        wl = 0
        for terminals in self._terminals:
            xs, ys = [], []
            for name, offsets in terminals:
                x, y, _, _, rot = placed[name]
                dx, dy = offsets[rot]
                xs.append(x + dx)
                ys.append(y + dy)
            if len(xs) >= 2:
                wl += (max(xs) - min(xs)) + (max(ys) - min(ys))
        noise = substrate_noise([(name, *self._noise[name], *p[:4])
                                 for name, p in placed.items()])
        return width, height, wl, noise

    # ------------------------------------------------------------------
    def propose(self, state: FloorplanState, rng: np.random.Generator,
                frac: float) -> FloorplanState:
        expr = state.expression
        move = rng.random()
        if move < 0.3:
            self._swap_adjacent_operands(expr, rng)
        elif move < 0.55:
            self._complement_chain(expr, rng)
        elif move < 0.8:
            self._swap_operand_operator(expr, rng)
        else:
            names = list(state.rotated)
            name = names[rng.integers(len(names))]
            state.rotated[name] = not state.rotated[name]
        return state

    @staticmethod
    def _operand_positions(expr: list[str]) -> list[int]:
        return [i for i, tok in enumerate(expr) if tok not in (H, V)]

    def _swap_adjacent_operands(self, expr: list[str],
                                rng: np.random.Generator) -> None:
        ops = self._operand_positions(expr)
        if len(ops) < 2:
            return
        k = rng.integers(len(ops) - 1)
        i, j = ops[k], ops[k + 1]
        expr[i], expr[j] = expr[j], expr[i]

    def _complement_chain(self, expr: list[str],
                          rng: np.random.Generator) -> None:
        chains = [i for i, tok in enumerate(expr) if tok in (H, V)]
        if not chains:
            return
        start = chains[rng.integers(len(chains))]
        i = start
        while i < len(expr) and expr[i] in (H, V):
            expr[i] = H if expr[i] == V else V
            i += 1

    def _swap_operand_operator(self, expr: list[str],
                               rng: np.random.Generator) -> None:
        candidates = [
            i for i in range(len(expr) - 1)
            if (expr[i] in (H, V)) != (expr[i + 1] in (H, V))
        ]
        rng.shuffle(candidates)
        for i in candidates:
            expr[i], expr[i + 1] = expr[i + 1], expr[i]
            if _is_valid_polish(expr) and _no_double_operator(expr, i):
                return
            expr[i], expr[i + 1] = expr[i + 1], expr[i]

    # ------------------------------------------------------------------
    def run(self, schedule: AnnealSchedule | None = None) -> FloorplanResult:
        self.evaluations = 0
        schedule = schedule or AnnealSchedule(
            moves_per_temperature=150, cooling=0.9, max_evaluations=25000)
        annealer = Annealer(self.cost, self.propose, schedule=schedule,
                            copy_state=lambda s: s.copy(), seed=self.seed)
        result = annealer.run(self.initial_state())
        state = result.best_state
        packing = _pack(state.expression, state.rotated, self._packed)
        width, height, wl, noise = self._measure(packing)
        return FloorplanResult(
            placed={name: PlacedBlock(self.blocks[name], x, y, rot)
                    for name, x, y, rot in packing},
            width=width,
            height=height,
            area=width * height,
            wirelength=wl,
            noise=noise,
            cost=result.best_cost,
            evaluations=self.evaluations,
        )


def _pin_offsets(block: Block, pin: str) -> tuple[tuple[int, int], ...]:
    """A pin's offset from its block's corner, unrotated and rotated:
    :meth:`PlacedBlock.pin_position` less the block's position."""
    return tuple(PlacedBlock(block, 0, 0, rot).pin_position(pin)
                 for rot in (False, True))


def _no_double_operator(expr: list[str], pos: int) -> bool:
    """Normalized Polish expressions forbid identical adjacent operators."""
    for i in range(max(0, pos - 1), min(len(expr) - 1, pos + 2)):
        if expr[i] in (H, V) and expr[i + 1] == expr[i]:
            return False
    return True
