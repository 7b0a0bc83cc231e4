"""Tests for blocks, substrate models and WRIGHT floorplanning."""

import pytest

from repro.msystem.blocks import (
    Block,
    BlockKind,
    PlacedBlock,
    demo_mixed_signal_system,
)
from repro.msystem.floorplan import (
    FloorplanState,
    WrightFloorplanner,
    _is_valid_polish,
    evaluate_polish,
)
from repro.msystem.substrate import (
    SubstrateMesh,
    coupling_kernel,
    floorplan_noise,
)
from repro.opt.anneal import AnnealSchedule

FAST = AnnealSchedule(moves_per_temperature=80, cooling=0.85,
                      max_evaluations=6000)


def _two_blocks():
    return [
        Block("dig", 1000, 1000, BlockKind.DIGITAL, noise_injection=5.0),
        Block("ana", 1000, 1000, BlockKind.ANALOG, noise_sensitivity=5.0),
    ]


class TestBlocks:
    def test_rotation_swaps_dims(self):
        b = Block("b", 200, 100, BlockKind.DIGITAL)
        r = b.rotated()
        assert (r.width, r.height) == (100, 200)

    def test_placed_rect(self):
        b = Block("b", 200, 100, BlockKind.DIGITAL)
        p = PlacedBlock(b, 10, 20)
        assert p.rect().x2 == 210 and p.rect().y2 == 120

    def test_placed_rotated_dims(self):
        b = Block("b", 200, 100, BlockKind.DIGITAL)
        p = PlacedBlock(b, 0, 0, rotated=True)
        assert p.width == 100 and p.height == 200

    def test_pin_position_default_center(self):
        b = Block("b", 200, 100, BlockKind.DIGITAL)
        assert PlacedBlock(b, 0, 0).pin_position("any") == (100, 50)

    def test_demo_system_sane(self):
        blocks, nets = demo_mixed_signal_system()
        names = {b.name for b in blocks}
        for net in nets:
            for block, _ in net.terminals:
                assert block in names


class TestSubstrate:
    def test_kernel_decays(self):
        assert coupling_kernel(0) == 1.0
        assert coupling_kernel(100_000) > coupling_kernel(1_000_000)

    def test_floorplan_noise_distance(self):
        dig, ana = _two_blocks()
        near = [PlacedBlock(dig, 0, 0), PlacedBlock(ana, 1100, 0)]
        far = [PlacedBlock(dig, 0, 0), PlacedBlock(ana, 3_000_000, 0)]
        assert floorplan_noise(near) > 10 * floorplan_noise(far)

    def test_mesh_transfer_reciprocal(self):
        mesh = SubstrateMesh(2_000_000, 2_000_000, nx=15, ny=15)
        a, b = (300_000.0, 300_000.0), (1_500_000.0, 1_200_000.0)
        assert mesh.transfer(a, b) == pytest.approx(mesh.transfer(b, a),
                                                    rel=1e-9)

    def test_mesh_transfer_decays_with_distance(self):
        mesh = SubstrateMesh(4_000_000, 4_000_000, nx=25, ny=25)
        src = (200_000.0, 200_000.0)
        near = mesh.transfer(src, (600_000.0, 200_000.0))
        far = mesh.transfer(src, (3_800_000.0, 3_800_000.0))
        assert near > far > 0

    def test_mesh_agrees_with_kernel_ordering(self):
        """The fast kernel and the mesh must rank floorplans identically."""
        dig, ana = _two_blocks()
        near = [PlacedBlock(dig, 0, 0), PlacedBlock(ana, 1_100, 0)]
        far = [PlacedBlock(dig, 0, 0), PlacedBlock(ana, 1_500_000, 0)]
        mesh = SubstrateMesh(3_000_000, 1_200_000, nx=20, ny=10)
        assert (mesh.floorplan_noise(near) > mesh.floorplan_noise(far)) \
            == (floorplan_noise(near) > floorplan_noise(far))


class TestPolish:
    def test_valid_expression(self):
        assert _is_valid_polish(["a", "b", "V"])
        assert _is_valid_polish(["a", "b", "V", "c", "H"])
        assert not _is_valid_polish(["a", "V", "b"])
        assert not _is_valid_polish(["a", "b"])

    def test_evaluate_side_by_side(self):
        blocks = {"a": Block("a", 100, 50, BlockKind.DIGITAL),
                  "b": Block("b", 200, 80, BlockKind.DIGITAL)}
        placed = evaluate_polish(["a", "b", "V"], blocks, {})
        assert placed["b"].x == 100
        assert placed["a"].y == placed["b"].y == 0

    def test_evaluate_stacked(self):
        blocks = {"a": Block("a", 100, 50, BlockKind.DIGITAL),
                  "b": Block("b", 200, 80, BlockKind.DIGITAL)}
        placed = evaluate_polish(["a", "b", "H"], blocks, {})
        assert placed["b"].y == 50

    def test_rotation_in_eval(self):
        blocks = {"a": Block("a", 100, 50, BlockKind.DIGITAL),
                  "b": Block("b", 100, 50, BlockKind.DIGITAL)}
        placed = evaluate_polish(["a", "b", "V"], blocks, {"b": True})
        assert placed["b"].width == 50

    def test_no_overlap_in_any_tree(self):
        blocks = {n: Block(n, 100 + 30 * i, 70 + 20 * i, BlockKind.DIGITAL)
                  for i, n in enumerate("abcd")}
        placed = evaluate_polish(
            ["a", "b", "V", "c", "H", "d", "V"], blocks, {})
        rects = [p.rect() for p in placed.values()]
        for i, r1 in enumerate(rects):
            for r2 in rects[i + 1:]:
                assert r1.intersection(r2) is None


class TestWrightFloorplanner:
    def test_result_has_no_overlaps(self):
        blocks, nets = demo_mixed_signal_system()
        result = WrightFloorplanner(blocks, nets, seed=1).run(FAST)
        rects = [p.rect() for p in result.placed.values()]
        for i, r1 in enumerate(rects):
            for r2 in rects[i + 1:]:
                assert r1.intersection(r2) is None

    def test_area_reasonable(self):
        blocks, nets = demo_mixed_signal_system()
        result = WrightFloorplanner(blocks, nets, seed=1).run(FAST)
        total = sum(b.area for b in blocks)
        assert result.area < 4 * total

    def test_noise_aware_beats_noise_blind(self):
        """WRIGHT's claim: the substrate term separates noisy and
        sensitive blocks."""
        blocks, nets = demo_mixed_signal_system()
        aware = WrightFloorplanner(blocks, nets, noise_weight=1.5,
                                   seed=3).run(FAST)
        blind = WrightFloorplanner(blocks, nets, noise_weight=0.0,
                                   seed=3).run(FAST)
        assert aware.noise < blind.noise

    def test_deterministic(self):
        blocks, nets = demo_mixed_signal_system()
        r1 = WrightFloorplanner(blocks, nets, seed=7).run(FAST)
        r2 = WrightFloorplanner(blocks, nets, seed=7).run(FAST)
        assert r1.area == r2.area

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError):
            WrightFloorplanner([_two_blocks()[0]], [])

    def test_rejects_a_terminal_on_an_unknown_block(self):
        """A net naming a block the floorplan does not have fails at
        construction, naming the net and the block, instead of being
        skipped by the cost and failing in global routing later."""
        from repro.msystem.blocks import SignalNet
        nets = [SignalNet("ok", [("dig", "a"), ("ana", "b")]),
                SignalNet("stray", [("dig", "a"), ("dsp", "b")])]
        with pytest.raises(ValueError, match="'stray'.*'dsp'"):
            WrightFloorplanner(_two_blocks(), nets)

    def test_demo_system_constructs(self):
        blocks, nets = demo_mixed_signal_system()
        fp = WrightFloorplanner(blocks, nets)
        assert fp.nets == nets

    def test_moves_preserve_validity(self):
        import numpy as np
        blocks, nets = demo_mixed_signal_system()
        fp = WrightFloorplanner(blocks, nets, seed=1)
        state = fp.initial_state()
        rng = np.random.default_rng(0)
        for _ in range(300):
            state = fp.propose(state, rng, 0.5)
            assert _is_valid_polish(state.expression)
            # Every block appears exactly once.
            operands = [t for t in state.expression if t not in "HV"]
            assert sorted(operands) == sorted(fp.blocks)
