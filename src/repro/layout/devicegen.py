"""Procedural device generators: MOS fingers, resistors, capacitors.

These are the module generators every macrocell-style system needs
(ILAC's "large sophisticated library" vs. KOAN's "very small library" —
ours is small and parametric, KOAN-style).  The MOS generator supports
*folding* (splitting a wide device into fingers) which is the degree of
freedom KOAN's placer exploits dynamically.

Layout convention: gates run vertically, diffusion grows horizontally as
``S G D G S ...``; a folded device with an even finger count has the same
terminal on both outer edges, which is what enables diffusion abutment
merges between neighbouring devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.devices import Capacitor, Mosfet, Resistor
from repro.layout.geometry import Cell, Rect
from repro.layout.technology import (
    DEFAULT_TECH,
    LAYER_CAPTOP,
    LAYER_CONTACT,
    LAYER_HIRES,
    LAYER_METAL1,
    LAYER_NDIFF,
    LAYER_NWELL,
    LAYER_PDIFF,
    LAYER_POLY,
    Technology,
)


@dataclass
class DeviceLayout:
    """A generated device: its cell plus connectivity metadata."""

    cell: Cell
    device_name: str
    kind: str                       # "mos" | "resistor" | "capacitor"
    port_nets: dict[str, str]       # port name -> net name
    left_net: str | None = None     # net exposed on the left diffusion edge
    right_net: str | None = None    # net on the right diffusion edge
    fingers: int = 1

    def __post_init__(self) -> None:
        # Generated cells are never edited afterwards, and the placer
        # asks for every device's box on every move.
        self._bbox = self.cell.bbox()

    def bbox(self) -> Rect:
        return self._bbox

    @property
    def width(self) -> int:
        return self.bbox().width

    @property
    def height(self) -> int:
        return self.bbox().height


def generate_mosfet(dev: Mosfet, tech: Technology = DEFAULT_TECH,
                    fingers: int = 1) -> DeviceLayout:
    """Multi-finger MOS layout with contacted source/drain regions.

    ``fingers`` splits the channel width into that many parallel gates
    (folding).  Odd finger counts expose source on one edge and drain on
    the other; even counts expose the source on both edges.
    """
    if fingers < 1:
        raise ValueError("fingers must be >= 1")
    total_w_nm = int(round(dev.w * dev.m * 1e9))
    l_nm = max(int(round(dev.l * 1e9)), tech.min_width_poly)
    finger_w = max(total_w_nm // fingers, tech.min_width_diff)
    diff_layer = LAYER_NDIFF if dev.model.is_nmos else LAYER_PDIFF

    cell = Cell(f"{dev.name}_layout")
    sd_w = tech.diff_contact_pitch
    pitch = sd_w + l_nm
    n_regions = fingers + 1
    diff_width = n_regions * sd_w + fingers * l_nm
    diff = Rect(0, 0, diff_width, finger_w)
    cell.add_shape(diff_layer, diff)

    # Source/drain regions alternate starting with source.
    nets = {}
    for i in range(n_regions):
        x1 = i * pitch
        region = Rect(x1, 0, x1 + sd_w, finger_w)
        terminal = "s" if i % 2 == 0 else "d"
        net = dev.source if terminal == "s" else dev.drain
        nets[i] = (terminal, net)
        _contact_stack(cell, tech, region, net)

    # Gates: vertical poly strips joined by a horizontal poly head.
    overhang = tech.gate_overhang
    head_y1 = finger_w + overhang
    head_y2 = head_y1 + tech.min_width_poly
    for i in range(fingers):
        x1 = sd_w + i * pitch
        cell.add_shape(LAYER_POLY,
                       Rect(x1, -overhang, x1 + l_nm, head_y2), dev.gate)
    if fingers > 1:
        cell.add_shape(LAYER_POLY,
                       Rect(sd_w, head_y1, sd_w + (fingers - 1) * pitch
                            + l_nm, head_y2), dev.gate)

    # Ports: gate on poly head, source/drain on the metal1 of their first
    # contacted regions.
    first_gate_x = sd_w
    cell.add_port("g", LAYER_POLY,
                  Rect(first_gate_x, head_y1, first_gate_x + l_nm, head_y2),
                  dev.gate)
    s_region = Rect(0, 0, sd_w, finger_w)
    cell.add_port("s", LAYER_METAL1, s_region, dev.source)
    d_region = Rect(pitch, 0, pitch + sd_w, finger_w)
    cell.add_port("d", LAYER_METAL1, d_region, dev.drain)

    if not dev.model.is_nmos:
        cell.add_shape(LAYER_NWELL, diff.expanded(tech.well_margin))

    last_terminal, last_net = nets[n_regions - 1]
    return DeviceLayout(
        cell=cell, device_name=dev.name, kind="mos",
        port_nets={"g": dev.gate, "s": dev.source, "d": dev.drain,
                   "b": dev.bulk},
        left_net=dev.source,
        right_net=last_net,
        fingers=fingers,
    )


def _contact_stack(cell: Cell, tech: Technology, region: Rect,
                   net: str) -> None:
    """Contacts + metal1 strap over one S/D region."""
    cell.add_shape(LAYER_METAL1, region, net)
    size = tech.contact_size
    enc = tech.contact_enclosure
    n_contacts = max(1, (region.height - 2 * enc) // (2 * size))
    x1 = region.x1 + (region.width - size) // 2
    for k in range(n_contacts):
        y1 = region.y1 + enc + k * 2 * size
        cell.add_shape(LAYER_CONTACT, Rect(x1, y1, x1 + size, y1 + size), net)


def good_finger_count(dev: Mosfet, tech: Technology = DEFAULT_TECH,
                      max_aspect: float = 4.0) -> int:
    """Pick a finger count keeping the device bbox near-square-ish."""
    total_w = dev.w * dev.m * 1e9
    for fingers in (1, 2, 4, 6, 8, 12, 16, 24, 32):
        finger_w = total_w / fingers
        body_w = (fingers + 1) * tech.diff_contact_pitch \
            + fingers * max(dev.l * 1e9, tech.min_width_poly)
        if finger_w <= max_aspect * body_w:
            return fingers
    return 32


def generate_resistor(dev: Resistor, tech: Technology = DEFAULT_TECH,
                      max_strip_squares: int = 50) -> DeviceLayout:
    """Serpentine high-resistivity poly resistor."""
    squares = dev.value / (dev.sheet_res or tech.hires_sheet_ohm)
    if squares <= 0:
        raise ValueError("resistor needs positive square count")
    w = tech.min_width_poly * 2
    n_strips = max(1, math.ceil(squares / max_strip_squares))
    squares_per_strip = squares / n_strips
    strip_len = max(int(round(squares_per_strip * w)), w)
    gap = tech.min_space_poly * 2

    cell = Cell(f"{dev.name}_layout")
    for i in range(n_strips):
        y1 = i * (w + gap)
        cell.add_shape(LAYER_HIRES, Rect(0, y1, strip_len, y1 + w),
                       dev.name)
        if i + 1 < n_strips:  # hairpin connecting to the next strip
            x1 = strip_len - w if i % 2 == 0 else 0
            cell.add_shape(LAYER_HIRES,
                           Rect(x1, y1 + w, x1 + w, y1 + w + gap), dev.name)
    # Terminals: metal1 pads at the free ends of first and last strips.
    pad = tech.diff_contact_pitch
    a_rect = Rect(0, 0, pad, w)
    last_y = (n_strips - 1) * (w + gap)
    b_x1 = 0 if n_strips % 2 == 0 else strip_len - pad
    b_rect = Rect(b_x1, last_y, b_x1 + pad, last_y + w)
    cell.add_shape(LAYER_METAL1, a_rect, dev.nodes[0])
    cell.add_shape(LAYER_METAL1, b_rect, dev.nodes[1])
    cell.add_port("a", LAYER_METAL1, a_rect, dev.nodes[0])
    cell.add_port("b", LAYER_METAL1, b_rect, dev.nodes[1])
    return DeviceLayout(cell, dev.name, "resistor",
                        {"a": dev.nodes[0], "b": dev.nodes[1]})


def generate_capacitor(dev: Capacitor,
                       tech: Technology = DEFAULT_TECH) -> DeviceLayout:
    """Square double-poly capacitor; bottom plate is the first node."""
    if dev.value <= 0:
        raise ValueError("capacitor needs positive value")
    area_m2 = dev.value / tech.cap_density
    side = max(int(round(math.sqrt(area_m2) * 1e9)), tech.L(8))
    margin = tech.L(2)
    cell = Cell(f"{dev.name}_layout")
    bottom = Rect(0, 0, side + 2 * margin, side + 2 * margin)
    top = Rect(margin, margin, margin + side, margin + side)
    cell.add_shape(LAYER_POLY, bottom, dev.nodes[1])
    cell.add_shape(LAYER_CAPTOP, top, dev.nodes[0])
    pad = tech.diff_contact_pitch
    top_pad = Rect(margin, margin, margin + pad, margin + pad)
    bot_pad = Rect(bottom.x2 - pad, 0, bottom.x2, pad)
    cell.add_shape(LAYER_METAL1, top_pad, dev.nodes[0])
    cell.add_shape(LAYER_METAL1, bot_pad, dev.nodes[1])
    cell.add_port("top", LAYER_METAL1, top_pad, dev.nodes[0])
    cell.add_port("bot", LAYER_METAL1, bot_pad, dev.nodes[1])
    return DeviceLayout(cell, dev.name, "capacitor",
                        {"top": dev.nodes[0], "bot": dev.nodes[1]})


def generate_device(dev, tech: Technology = DEFAULT_TECH,
                    fingers: int | None = None) -> DeviceLayout:
    """Dispatch a circuit device to its generator."""
    if isinstance(dev, Mosfet):
        n = fingers if fingers is not None else good_finger_count(dev, tech)
        return generate_mosfet(dev, tech, n)
    if isinstance(dev, Resistor):
        return generate_resistor(dev, tech)
    if isinstance(dev, Capacitor):
        return generate_capacitor(dev, tech)
    raise TypeError(
        f"no layout generator for device type {type(dev).__name__}")


def generate_stack_layout(stack, tech: Technology = DEFAULT_TECH,
                          name: str | None = None) -> DeviceLayout:
    """Merged layout of a diffusion-sharing stack (§3.1 stacking phase).

    The devices of a :class:`~repro.layout.stacking.Stack` share their
    adjacent source/drain regions: an n-device stack has n+1 contacted
    regions instead of 2n — the junction-capacitance saving that motivates
    stacking.  Gates get per-device ports (``g_<device>``); each junction
    region carries a port named after its net (first occurrence).
    """
    devices = stack.devices
    if not devices:
        raise ValueError("empty stack")
    first = devices[0]
    total_w_nm = int(round(first.w * first.m * 1e9))
    finger_w = max(total_w_nm, tech.min_width_diff)
    diff_layer = LAYER_NDIFF if first.model.is_nmos else LAYER_PDIFF
    cell = Cell(name or f"stack_{'_'.join(d.name for d in devices)}")
    sd_w = tech.diff_contact_pitch
    x = 0
    region_ports: dict[str, Rect] = {}
    gate_rects: list[tuple[str, Rect]] = []
    for i, dev in enumerate(devices):
        l_nm = max(int(round(dev.l * 1e9)), tech.min_width_poly)
        region = Rect(x, 0, x + sd_w, finger_w)
        net = stack.nets[i]
        _contact_stack(cell, tech, region, net)
        region_ports.setdefault(net, region)
        x += sd_w
        overhang = tech.gate_overhang
        gate = Rect(x, -overhang, x + l_nm, finger_w + overhang)
        cell.add_shape(LAYER_POLY, gate, dev.gate)
        gate_rects.append((dev.name, Rect(x, finger_w, x + l_nm,
                                          finger_w + overhang)))
        x += l_nm
    last_region = Rect(x, 0, x + sd_w, finger_w)
    last_net = stack.nets[-1]
    _contact_stack(cell, tech, last_region, last_net)
    region_ports.setdefault(last_net, last_region)
    x += sd_w
    cell.add_shape(diff_layer, Rect(0, 0, x, finger_w))
    if not first.model.is_nmos:
        cell.add_shape(LAYER_NWELL,
                       Rect(0, 0, x, finger_w).expanded(tech.well_margin))

    port_nets: dict[str, str] = {}
    for dev_name, rect in gate_rects:
        dev = next(d for d in devices if d.name == dev_name)
        cell.add_port(f"g_{dev_name}", LAYER_POLY, rect, dev.gate)
        port_nets[f"g_{dev_name}"] = dev.gate
    for net, rect in region_ports.items():
        port_name = f"n_{net}".replace(".", "_")
        if port_name not in cell.ports:
            cell.add_port(port_name, LAYER_METAL1, rect, net)
            port_nets[port_name] = net
    return DeviceLayout(
        cell=cell,
        device_name=cell.name,
        kind="stack",
        port_nets=port_nets,
        left_net=stack.nets[0],
        right_net=stack.nets[-1],
        fingers=len(devices),
    )


def matched_pair(dev_a: Mosfet, dev_b: Mosfet,
                 tech: Technology = DEFAULT_TECH,
                 fingers: int = 2) -> tuple[DeviceLayout, DeviceLayout]:
    """Generate two devices with identical geometry for matching.

    Both get the same finger count and finger width (taken from the first
    device), the precondition for symmetric placement.
    """
    la = generate_mosfet(dev_a, tech, fingers)
    lb = generate_mosfet(dev_b, tech, fingers)
    return la, lb
