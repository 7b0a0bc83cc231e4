"""Modified nodal analysis: matrix construction for the circuit simulator.

The builder assigns one unknown per non-ground net plus one branch-current
unknown per voltage-defined element (independent V sources, VCVS, CCVS and
inductors).  Linear elements stamp into a conductance matrix ``G``, a
susceptance/storage matrix ``C`` (so the s-domain system is ``(G + sC)x =
b``), and source vectors.  Nonlinear devices (MOSFETs, diodes) are evaluated
per Newton iteration through :meth:`MnaSystem.stamp_nonlinear`.

Matrices are dense numpy arrays: cell-level analog circuits have tens of
nodes, for which dense LU is faster than sparse bookkeeping.  The power-grid
tool, which needs thousands of nodes, builds its own sparse system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.circuits.devices import (
    BOLTZMANN,
    Q_ELECTRON,
    ROOM_TEMP_K,
    THERMAL_VOLTAGE,
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    Resistor,
    SubcktInstance,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuits.netlist import GROUND, Circuit, NetlistError

GMIN_DEFAULT = 1e-12


class SingularCircuitError(NetlistError):
    """Raised when the MNA matrix is structurally or numerically singular."""


@dataclass
class MosOperatingPoint:
    """Small-signal view of one MOSFET at a DC operating point."""

    name: str
    region: str           # "cutoff" | "triode" | "saturation"
    ids: float            # drain current (positive into drain for NMOS)
    vgs: float
    vds: float
    vbs: float
    vth: float
    vov: float            # overdrive vgs - vth
    gm: float
    gds: float
    gmb: float
    cgs: float
    cgd: float
    cgb: float

    @property
    def vdsat(self) -> float:
        return max(self.vov, 0.0)


class MnaSystem:
    """Index assignment plus stamping for one flattened circuit."""

    def __init__(self, circuit: Circuit, gmin: float = GMIN_DEFAULT):
        flat = circuit.flattened() if circuit.subckts else circuit
        if any(isinstance(d, SubcktInstance) for d in flat.devices):
            raise NetlistError("circuit contains unresolved subckt instances")
        self.circuit = flat
        self.gmin = gmin
        nets = flat.nets()
        if GROUND not in nets:
            raise NetlistError(
                "circuit has no ground net '0'; analyses need a reference")
        self.node_names = [n for n in nets if n != GROUND]
        self.node_index = {n: i for i, n in enumerate(self.node_names)}
        # Branch-current unknowns.
        self.branch_devices = [
            d for d in flat.devices
            if isinstance(d, (VoltageSource, Vcvs, Ccvs, Inductor))
        ]
        self.branch_index = {
            d.name: len(self.node_names) + k
            for k, d in enumerate(self.branch_devices)
        }
        self.size = len(self.node_names) + len(self.branch_devices)
        self.nonlinear = [
            d for d in flat.devices if isinstance(d, (Mosfet, Diode))
        ]
        self._validate_controls(flat)

    def _validate_controls(self, flat: Circuit) -> None:
        for d in flat.devices:
            if isinstance(d, (Cccs, Ccvs)):
                if d.control not in self.branch_index:
                    # CCVS defines its own branch; its *control* must be a V source.
                    names = {b.name for b in self.branch_devices
                             if isinstance(b, VoltageSource)}
                    if d.control not in names:
                        raise NetlistError(
                            f"{d.name}: control source {d.control!r} is not a "
                            "voltage source in the circuit")

    # ------------------------------------------------------------------
    def node(self, net: str) -> int:
        """Index of a net, or -1 for ground."""
        if net == GROUND:
            return -1
        return self.node_index[net]

    def _add(self, mat: np.ndarray, i: int, j: int, value: float) -> None:
        if i >= 0 and j >= 0:
            mat[i, j] += value

    def _add_rhs(self, vec: np.ndarray, i: int, value: float) -> None:
        if i >= 0:
            vec[i] += value

    # ------------------------------------------------------------------
    def linear_stamps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return (G, C, b_dc, b_ac) for all linear elements.

        ``b_ac`` is complex: AC magnitudes are stamped with zero phase.
        """
        n = self.size
        G = np.zeros((n, n))
        C = np.zeros((n, n))
        b_dc = np.zeros(n)
        b_ac = np.zeros(n, dtype=complex)
        for dev in self.circuit.devices:
            self._stamp_linear_device(dev, G, C, b_dc, b_ac)
        # gmin from every node to ground aids DC convergence and makes
        # floating nodes solvable.
        for i in range(len(self.node_names)):
            G[i, i] += self.gmin
        return G, C, b_dc, b_ac

    def _stamp_linear_device(self, dev, G, C, b_dc, b_ac) -> None:
        if isinstance(dev, Resistor):
            g = 1.0 / dev.value
            a, b = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            self._stamp_conductance(G, a, b, g)
        elif isinstance(dev, Capacitor):
            a, b = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            self._stamp_conductance(C, a, b, dev.value)
        elif isinstance(dev, Inductor):
            a, b = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            k = self.branch_index[dev.name]
            self._add(G, a, k, 1.0)
            self._add(G, b, k, -1.0)
            self._add(G, k, a, 1.0)
            self._add(G, k, b, -1.0)
            C[k, k] -= dev.value  # v = sL·i  →  row: v_a - v_b - sL·i = 0
        elif isinstance(dev, VoltageSource):
            a, b = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            k = self.branch_index[dev.name]
            self._add(G, a, k, 1.0)
            self._add(G, b, k, -1.0)
            self._add(G, k, a, 1.0)
            self._add(G, k, b, -1.0)
            b_dc[k] += dev.dc
            b_ac[k] += dev.ac
        elif isinstance(dev, CurrentSource):
            a, b = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            # Positive current flows from node[0] through the source to node[1].
            self._add_rhs(b_dc, a, -dev.dc)
            self._add_rhs(b_dc, b, dev.dc)
            if dev.ac:
                if a >= 0:
                    b_ac[a] += -dev.ac
                if b >= 0:
                    b_ac[b] += dev.ac
        elif isinstance(dev, Vcvs):
            op, om, cp, cm = (self.node(n) for n in dev.nodes)
            k = self.branch_index[dev.name]
            self._add(G, op, k, 1.0)
            self._add(G, om, k, -1.0)
            self._add(G, k, op, 1.0)
            self._add(G, k, om, -1.0)
            self._add(G, k, cp, -dev.gain)
            self._add(G, k, cm, dev.gain)
        elif isinstance(dev, Vccs):
            op, om, cp, cm = (self.node(n) for n in dev.nodes)
            self._add(G, op, cp, dev.gm)
            self._add(G, op, cm, -dev.gm)
            self._add(G, om, cp, -dev.gm)
            self._add(G, om, cm, dev.gm)
        elif isinstance(dev, Cccs):
            a, b = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            kc = self.branch_index[dev.control]
            self._add(G, a, kc, dev.gain)
            self._add(G, b, kc, -dev.gain)
        elif isinstance(dev, Ccvs):
            a, b = self.node(dev.nodes[0]), self.node(dev.nodes[1])
            k = self.branch_index[dev.name]
            kc = self.branch_index[dev.control]
            self._add(G, a, k, 1.0)
            self._add(G, b, k, -1.0)
            self._add(G, k, a, 1.0)
            self._add(G, k, b, -1.0)
            self._add(G, k, kc, -dev.transres)
        elif isinstance(dev, (Mosfet, Diode)):
            pass  # handled per Newton iteration
        else:
            raise NetlistError(f"cannot stamp device type {type(dev).__name__}")

    def _stamp_conductance(self, mat, a: int, b: int, g: float) -> None:
        self._add(mat, a, a, g)
        self._add(mat, b, b, g)
        self._add(mat, a, b, -g)
        self._add(mat, b, a, -g)

    # ------------------------------------------------------------------
    # Nonlinear device evaluation
    # ------------------------------------------------------------------
    def voltage(self, x: np.ndarray, net: str) -> float:
        i = self.node(net)
        return 0.0 if i < 0 else float(x[i])

    def stamp_nonlinear(self, x: np.ndarray, G: np.ndarray,
                        rhs: np.ndarray, gmin: float | None = None) -> None:
        """Add companion-model stamps of all nonlinear devices at point ``x``.

        ``rhs`` receives the Newton linearization sources so that solving
        ``(G_lin + G_nl) x_new = b + rhs`` performs one NR step.

        ``x``/``G``/``rhs`` must be the scalar per-circuit arrays: one
        solution vector of length ``size`` and one ``(size, size)``
        matrix.  Stacked ``(K, ...)`` batch tensors are rejected —
        the per-device stamping below indexes scalars and would silently
        produce garbage on a batch axis; batched evaluation stamps each
        member on its own and stacks only the assembled matrices for
        :func:`repro.analysis.solver.solve_stack`.
        """
        x = np.asarray(x)
        if x.ndim != 1 or x.shape[0] != self.size:
            raise ValueError(
                f"stamp_nonlinear expects a 1-D solution vector of length "
                f"{self.size}, got shape {x.shape}; stamp one member at a "
                f"time and stack the assembled systems for "
                f"repro.analysis.solver.solve_stack")
        if not np.issubdtype(x.dtype, np.floating):
            raise TypeError(
                f"stamp_nonlinear expects a real float solution vector, "
                f"got dtype {x.dtype}")
        if np.asarray(G).shape != (self.size, self.size):
            raise ValueError(
                f"stamp_nonlinear expects a ({self.size}, {self.size}) "
                f"Jacobian, got shape {np.asarray(G).shape}; stamp one "
                f"member at a time and stack the assembled systems for "
                f"repro.analysis.solver.solve_stack")
        gmin = self.gmin if gmin is None else gmin
        for dev in self.nonlinear:
            if isinstance(dev, Mosfet):
                self._stamp_mosfet(dev, x, G, rhs, gmin)
            else:
                self._stamp_diode(dev, x, G, rhs, gmin)

    def _stamp_mosfet(self, dev: Mosfet, x, G, rhs, gmin: float) -> None:
        d, g, s, b = (self.node(n) for n in dev.nodes)
        vd = 0.0 if d < 0 else x[d]
        vg = 0.0 if g < 0 else x[g]
        vs = 0.0 if s < 0 else x[s]
        vb = 0.0 if b < 0 else x[b]
        # Level-1 devices are symmetric: if vds < 0 in device polarity,
        # stamp with drain and source exchanged.
        if dev.model.sign * (vd - vs) < 0:
            d, s = s, d
            vd, vs = vs, vd
        ids, gm, gds, gmb, _ = mos_level1(dev, vd, vg, vs, vb)
        gds = gds + gmin
        # Newton companion: i_eq = ids - gm·vgs - gds·vds - gmb·vbs.
        ieq = ids - gm * (vg - vs) - gds * (vd - vs) - gmb * (vb - vs)
        # ids flows from drain node to source node through the device.
        self._add(G, d, g, gm)
        self._add(G, d, d, gds)
        self._add(G, d, b, gmb)
        self._add(G, d, s, -(gm + gds + gmb))
        self._add(G, s, g, -gm)
        self._add(G, s, d, -gds)
        self._add(G, s, b, -gmb)
        self._add(G, s, s, gm + gds + gmb)
        self._add_rhs(rhs, d, -ieq)
        self._add_rhs(rhs, s, ieq)

    def _stamp_diode(self, dev: Diode, x, G, rhs, gmin: float) -> None:
        a, c = self.node(dev.nodes[0]), self.node(dev.nodes[1])
        va = 0.0 if a < 0 else x[a]
        vc = 0.0 if c < 0 else x[c]
        vd = va - vc
        i_s = dev.model.i_sat * dev.area
        n_vt = dev.model.emission * THERMAL_VOLTAGE
        # Limit the exponent for numeric safety (SPICE-style pnjlim).
        vcrit = n_vt * math.log(n_vt / (math.sqrt(2.0) * i_s))
        vd_lim = min(vd, vcrit + 5 * n_vt)
        ex = math.exp(vd_lim / n_vt)
        idio = i_s * (ex - 1.0)
        gd = i_s * ex / n_vt + gmin
        ieq = idio - gd * vd
        self._add(G, a, a, gd)
        self._add(G, c, c, gd)
        self._add(G, a, c, -gd)
        self._add(G, c, a, -gd)
        self._add_rhs(rhs, a, -ieq)
        self._add_rhs(rhs, c, ieq)

    def nonlinear_currents(self, x: np.ndarray) -> np.ndarray:
        """Vector of nonlinear device currents flowing *into* each node.

        This is f_nl(x) in the residual form ``G·x + f_nl(x) + C·ẋ = b``;
        the transient integrator needs it for the trapezoidal history term.
        """
        f = np.zeros(self.size)
        for dev in self.nonlinear:
            if isinstance(dev, Mosfet):
                d, g, s, b = (self.node(n) for n in dev.nodes)
                vd = 0.0 if d < 0 else x[d]
                vg = 0.0 if g < 0 else x[g]
                vs = 0.0 if s < 0 else x[s]
                vb = 0.0 if b < 0 else x[b]
                if dev.model.sign * (vd - vs) < 0:
                    d, s = s, d
                    vd, vs = vs, vd
                ids, _, _, _, _ = mos_level1(dev, vd, vg, vs, vb)
                self._add_rhs(f, d, ids)
                self._add_rhs(f, s, -ids)
            else:
                a, c = self.node(dev.nodes[0]), self.node(dev.nodes[1])
                va = 0.0 if a < 0 else x[a]
                vc = 0.0 if c < 0 else x[c]
                n_vt = dev.model.emission * THERMAL_VOLTAGE
                i_s = dev.model.i_sat * dev.area
                idio = i_s * (math.exp(min((va - vc) / n_vt, 40.0)) - 1.0)
                self._add_rhs(f, a, idio)
                self._add_rhs(f, c, -idio)
        return f

    # ------------------------------------------------------------------
    def mos_op(self, dev: Mosfet, x: np.ndarray) -> MosOperatingPoint:
        """Full operating-point record for one MOSFET at solution ``x``."""
        vd = self.voltage(x, dev.drain)
        vg = self.voltage(x, dev.gate)
        vs = self.voltage(x, dev.source)
        vb = self.voltage(x, dev.bulk)
        flipped = dev.model.sign * (vd - vs) < 0
        if flipped:
            vd, vs = vs, vd
        ids, gm, gds, gmb, info = mos_level1(dev, vd, vg, vs, vb)
        if flipped:
            ids = -ids
            region, vth, vov, vgs, vds, vbs = info
            info = (region, vth, vov, vgs, -vds, vbs)
        region, vth, vov, vgs_eff, vds_eff, vbs_eff = info
        cgs, cgd, cgb = mos_capacitances(dev, region)
        return MosOperatingPoint(
            name=dev.name, region=region, ids=ids,
            vgs=vgs_eff, vds=vds_eff, vbs=vbs_eff, vth=vth, vov=vov,
            gm=gm, gds=gds, gmb=gmb, cgs=cgs, cgd=cgd, cgb=cgb)


def mos_level1(dev: Mosfet, vd: float, vg: float, vs: float, vb: float):
    """Level-1 MOS evaluation at given terminal voltages.

    The caller must orient the device so that ``vds >= 0`` in device
    polarity (level-1 devices are symmetric; :class:`MnaSystem` swaps the
    terminal indices when needed).

    Returns ``(ids, gm, gds, gmb, info)``: ``ids`` is the current flowing
    from the drain node to the source node through the channel (negative
    for PMOS conduction), the conductances are small-signal derivatives
    w.r.t. the circuit terminal voltages (always >= 0), and ``info`` is
    ``(region, vth, vov, vgs, vds, vbs)`` in device polarity.
    """
    model = dev.model
    sign = model.sign
    vgs = sign * (vg - vs)
    vds = sign * (vd - vs)
    vbs = sign * (vb - vs)
    vth = threshold_voltage(model, vbs)
    vov = vgs - vth
    beta = dev.beta
    # Body-effect transconductance factor dVth/dVbs.
    sq = math.sqrt(max(model.phi - vbs, 0.05))
    dvth_dvbs = -model.gamma / (2.0 * sq)
    lam = model.lambda_
    if vov <= 0:
        region = "cutoff"
        ids = 0.0
        gm = gds = gmb = 0.0
    elif vds >= vov:
        region = "saturation"
        ids = 0.5 * beta * vov * vov * (1.0 + lam * vds)
        gm = beta * vov * (1.0 + lam * vds)
        gds = 0.5 * beta * vov * vov * lam
        gmb = -gm * dvth_dvbs
    else:
        region = "triode"
        core = vov * vds - 0.5 * vds * vds
        ids = beta * core * (1.0 + lam * vds)
        gm = beta * vds * (1.0 + lam * vds)
        gds = beta * ((vov - vds) * (1.0 + lam * vds) + core * lam)
        gmb = -gm * dvth_dvbs
    # In circuit polarity the PMOS channel current flows source -> drain.
    info = (region, vth, vov, vgs, vds, vbs)
    return sign * ids, gm, gds, gmb, info


def threshold_voltage(model, vbs: float) -> float:
    """Body-effect-adjusted threshold: Vt = Vto + γ(√(φ−Vbs) − √φ)."""
    sq = math.sqrt(max(model.phi - vbs, 0.05))
    return model.vto + model.gamma * (sq - math.sqrt(model.phi))


def mos_capacitances(dev: Mosfet, region: str) -> tuple[float, float, float]:
    """Meyer-style gate capacitances (cgs, cgd, cgb) by operating region.

    Scalar-only: ``dev.w``/``dev.l`` must be plain floats.  A device
    carrying batched parameter arrays would silently produce array-valued
    capacitances that downstream stamping cannot index, so it is rejected
    here: build one circuit per sizing instead.
    """
    if np.ndim(dev.w) != 0 or np.ndim(dev.l) != 0 or np.ndim(dev.m) != 0:
        raise TypeError(
            f"mos_capacitances({dev.name!r}) expects scalar W/L/m, got "
            f"shapes {np.shape(dev.w)}/{np.shape(dev.l)}/{np.shape(dev.m)}; "
            f"build one circuit per sizing")
    if region not in ("saturation", "triode", "cutoff"):
        raise ValueError(
            f"mos_capacitances({dev.name!r}): unknown operating region "
            f"{region!r} (expected 'saturation', 'triode' or 'cutoff')")
    model = dev.model
    cox_total = model.cox * dev.w * dev.l * dev.m
    cov = model.cgdo * dev.w * dev.m
    if region == "saturation":
        return (2.0 / 3.0) * cox_total + cov, cov, 0.1 * cox_total
    if region == "triode":
        return 0.5 * cox_total + cov, 0.5 * cox_total + cov, 0.0
    return cov, cov, cox_total  # cutoff: gate sees bulk
