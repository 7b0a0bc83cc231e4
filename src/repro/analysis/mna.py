"""Modified nodal analysis: matrix construction for the circuit simulator.

The builder assigns one unknown per non-ground net plus one branch-current
unknown per voltage-defined element (independent V sources, VCVS, CCVS and
inductors).  Linear elements stamp into a conductance matrix ``G``, a
susceptance/storage matrix ``C`` (so the s-domain system is ``(G + sC)x =
b``), and source vectors.  Nonlinear devices (MOSFETs, diodes) are compiled
once per system into a stamp plan of node indices, matrix targets and
model constants; DC and transient Newton (:meth:`MnaSystem.stamp_nonlinear`),
the residual currents, the MOS operating-point records and the AC
small-signal stamps all read it.

Matrices are dense numpy arrays: cell-level analog circuits have tens of
nodes, for which dense LU is faster than sparse bookkeeping.  The power-grid
tool, which needs thousands of nodes, builds its own sparse system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.circuits.devices import (
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
        self._compile_plan()
        self._linear: tuple[np.ndarray, ...] | None = None

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

        The stamps are assembled once per system; every call returns
        fresh copies, which the caller may stamp into.  ``b_ac`` is
        complex: AC magnitudes are stamped with zero phase.
        """
        if self._linear is None:
            self._linear = self._assemble_linear()
        G, C, b_dc, b_ac = self._linear
        return G.copy(), C.copy(), b_dc.copy(), b_ac.copy()

    def _assemble_linear(self) -> tuple[np.ndarray, ...]:
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
    # Nonlinear devices: one stamp plan, compiled with the system
    # ------------------------------------------------------------------
    def _compile_plan(self) -> None:
        """Compile every nonlinear device into ``self._plan``, once.

        The plan holds one tuple per device of ``self.nonlinear``, in that
        order: entries of ``G``/``C``/``rhs`` accumulate their stamps in
        device order, so the order is part of the result.  Terminals are
        node indices with ground at -1; every stamp reads and writes
        Python lists with a 0.0 slot appended, so a grounded terminal
        lands in that padding slot and no stamp needs a branch.

        * MOSFET: ``(True, d, g, s, b, sign, vto, gamma, phi, sqrt_phi,
          lambda_, beta, dev)``, the level-1 kernel's arguments.
        * Diode: ``(False, a, c, i_s, n_vt, v_lim, cj0, dev)``.

        Scalar floats, not arrays: at cell sizes the per-call overhead of
        numpy exceeds the arithmetic of a few devices.  The matrix
        targets follow on the first matrix stamp (:meth:`_targets`);
        the residual currents and operating-point records need none.
        """
        index = self.node_index
        plan: list[tuple] = []
        for dev in self.nonlinear:
            terms = [-1 if net == GROUND else index[net] for net in dev.nodes]
            if isinstance(dev, Mosfet):
                _require_scalar_size(dev)
                plan.append((True, *terms, *_mos_params(dev), dev))
            else:
                i_s = dev.model.i_sat * dev.area
                n_vt = dev.model.emission * THERMAL_VOLTAGE
                # Limit the exponent for numeric safety (SPICE-style pnjlim).
                vcrit = n_vt * math.log(n_vt / (math.sqrt(2.0) * i_s))
                plan.append((False, *terms, i_s, n_vt, vcrit + 5 * n_vt,
                             dev.model.cj0 * dev.area, dev))
        self._plan = plan
        self._matrix_targets: tuple[list, np.ndarray] | None = None
        self._mos_entries = {e[-1].name: e for e in plan if e[0]}

    def _targets(self) -> tuple[list, np.ndarray]:
        """The plan's matrix targets, compiled on first use.

        Returns ``(targets, slots)``: ``slots`` holds the flat indices
        of the ``G``/``C`` entries that nonlinear stamps touch, and
        ``targets`` one entry per plan device of positions in ``slots``
        (-1 where a terminal is ground, the padding slot).  A MOSFET has
        ``(fwd, rev, caps)``: the eight conductance targets (d,g),
        (d,d), (d,b), (d,s), (s,g), (s,d), (s,b), (s,s); the same with
        drain and source exchanged; and the (a,a), (b,b), (a,b), (b,a)
        targets of the g-s, g-d, g-b, d-b and s-b capacitors, four
        after four.  A diode has the (a,a), (c,c), (a,c), (c,a)
        targets.
        """
        if self._matrix_targets is None:
            n = self.size
            slots: dict[int, int] = {}
            position = slots.setdefault
            targets = []
            for e in self._plan:
                terms = e[1:5] if e[0] else e[1:3]
                # Position of every (row, column) terminal pair,
                # row-major in terminal order.
                pairs = [position(i * n + j, len(slots))
                         if i >= 0 and j >= 0 else -1
                         for i in terms for j in terms]
                targets.append((_FORWARD(pairs), _REVERSE(pairs),
                                _CAPACITORS(pairs)) if e[0]
                               else _QUAD(pairs))
            self._matrix_targets = (targets, np.fromiter(
                slots, dtype=np.intp, count=len(slots)))
        return self._matrix_targets

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
        targets, slots = self._targets()
        v = _padded(x)
        acc = G.take(slots).tolist()
        acc.append(0.0)
        r = rhs.tolist()
        r.append(0.0)
        for e, t in zip(self._plan, targets):
            if e[0]:
                _, d, g, s, b, sign, vto, gamma, phi, sqrt_phi, lam, beta, _ = e
                vd = v[d]
                vs = v[s]
                # Level-1 devices are symmetric: if vds < 0 in device
                # polarity, stamp with drain and source exchanged.
                if sign * (vd - vs) < 0:
                    d, s, vd, vs, t = s, d, vs, vd, t[1]
                else:
                    t = t[0]
                vg = v[g]
                vb = v[b]
                ids, gm, gds, gmb, _ = _level1(sign, vto, gamma, phi, sqrt_phi,
                                               lam, beta, vd, vg, vs, vb)
                gds = gds + gmin
                # Newton companion: i_eq = ids - gm·vgs - gds·vds - gmb·vbs.
                ieq = ids - gm * (vg - vs) - gds * (vd - vs) - gmb * (vb - vs)
                # ids flows from drain node to source node through the device.
                _add_transconductances(acc, t, gm, gds, gmb)
                r[d] += -ieq
                r[s] += ieq
            else:
                _, a, c, i_s, n_vt, v_lim, _, _ = e
                vdio = v[a] - v[c]
                ex = math.exp(min(vdio, v_lim) / n_vt)
                idio = i_s * (ex - 1.0)
                gd = i_s * ex / n_vt + gmin
                ieq = idio - gd * vdio
                _add_conductance(acc, t, gd)
                r[a] += -ieq
                r[c] += ieq
        acc.pop()
        G.put(slots, acc)
        r.pop()
        rhs[:] = r

    def nonlinear_currents(self, x: np.ndarray) -> np.ndarray:
        """Vector of nonlinear device currents flowing *into* each node.

        This is f_nl(x) in the residual form ``G·x + f_nl(x) + C·ẋ = b``;
        the transient integrator needs it for the trapezoidal history term.
        """
        v = _padded(x)
        f = [0.0] * (self.size + 1)
        for e in self._plan:
            if e[0]:
                _, d, g, s, b, sign, vto, gamma, phi, sqrt_phi, lam, beta, _ = e
                vd = v[d]
                vs = v[s]
                if sign * (vd - vs) < 0:
                    d, s, vd, vs = s, d, vs, vd
                ids = _level1(sign, vto, gamma, phi, sqrt_phi, lam, beta,
                              vd, v[g], vs, v[b])[0]
                f[d] += ids
                f[s] += -ids
            else:
                _, a, c, i_s, n_vt, _, _, _ = e
                idio = i_s * (math.exp(min((v[a] - v[c]) / n_vt, 40.0)) - 1.0)
                f[a] += idio
                f[c] += -idio
        f.pop()
        return np.array(f)

    # ------------------------------------------------------------------
    def mos_op(self, dev: Mosfet, x: np.ndarray) -> MosOperatingPoint:
        """Full operating-point record for one MOSFET at solution ``x``."""
        entry = self._mos_entries.get(dev.name)
        if entry is None or (entry[-1] is not dev and entry[-1] != dev):
            raise KeyError(f"{dev.name!r} is not a MOSFET of this system")
        _, d, g, s, b, sign, vto, gamma, phi, sqrt_phi, lam, beta, _ = entry
        v = _padded(x)
        vd, vg, vs, vb = v[d], v[g], v[s], v[b]
        flipped = sign * (vd - vs) < 0
        if flipped:
            vd, vs = vs, vd
        ids, gm, gds, gmb, (region, vth, vov, vgs, vds, vbs) = _level1(
            sign, vto, gamma, phi, sqrt_phi, lam, beta, vd, vg, vs, vb)
        if flipped:
            ids = -ids
            vds = -vds
        cgs, cgd, cgb = mos_capacitances(dev, region)
        return MosOperatingPoint(
            name=dev.name, region=region, ids=ids,
            vgs=vgs, vds=vds, vbs=vbs, vth=vth, vov=vov,
            gm=gm, gds=gds, gmb=gmb, cgs=cgs, cgd=cgd, cgb=cgb)

    def stamp_small_signal(self, mos: dict[str, MosOperatingPoint],
                           x: np.ndarray | None, G: np.ndarray,
                           C: np.ndarray) -> None:
        """Add the linearized nonlinear devices to ``G`` and ``C``.

        A MOSFET stamps the gm/gds/gmb of its record in ``mos`` (keyed
        by device name), its Meyer gate capacitances and its drain/source
        junction capacitances; a record with ``vds < 0`` conducts in
        reverse and stamps with drain and source exchanged.  A diode
        stamps its conductance at solution ``x`` and its junction
        capacitance.
        """
        targets, slots = self._targets()
        g_acc = G.take(slots).tolist()
        g_acc.append(0.0)
        c_acc = C.take(slots).tolist()
        c_acc.append(0.0)
        v = None
        for e, t in zip(self._plan, targets):
            if e[0]:
                fwd, rev, caps = t
                dev = e[-1]
                cap_gs, cap_gd, cap_gb, cap_db, cap_sb = (
                    caps[0:4], caps[4:8], caps[8:12], caps[12:16], caps[16:20])
                mop = mos[dev.name]
                if mop.vds < 0:  # device conducting in reverse: swap roles
                    fwd = rev
                    cap_gs, cap_gd = cap_gd, cap_gs
                    cap_db, cap_sb = cap_sb, cap_db
                _add_transconductances(g_acc, fwd, mop.gm, mop.gds, mop.gmb)
                # Meyer capacitances between gate and each terminal, and
                # drain/source junctions to bulk (area ~ W * 2.5 L_diff).
                cgs, cgd, cgb = mos_capacitances(dev, mop.region)
                cj = (dev.model.cj * (dev.w * dev.m * 2.5 * dev.l)
                      + dev.model.cjsw * 2 * (dev.w * dev.m))
                for quad, value in ((cap_gs, cgs), (cap_gd, cgd),
                                    (cap_gb, cgb), (cap_db, cj), (cap_sb, cj)):
                    if value != 0.0:
                        _add_conductance(c_acc, quad, value)
            else:
                if v is None:
                    v = _padded(x)
                _, a, c, i_s, n_vt, _, cj0, _ = e
                gd = i_s * math.exp(min((v[a] - v[c]) / n_vt, 40.0)) / n_vt
                _add_conductance(g_acc, t, gd)
                if cj0 != 0.0:
                    _add_conductance(c_acc, t, cj0)
        g_acc.pop()
        G.put(slots, g_acc)
        c_acc.pop()
        C.put(slots, c_acc)


# Plan targets picked from a device's row-major terminal pairs: for a
# MOSFET (d, g, s, b) = 0..3, pair (i, j) is at 4 * i + j; for a diode
# (a, c) = 0..1, at 2 * i + j.
_FORWARD = itemgetter(1, 0, 3, 2, 9, 8, 11, 10)
_REVERSE = itemgetter(9, 10, 11, 8, 1, 2, 3, 0)
_CAPACITORS = itemgetter(5, 10, 6, 9,  5, 0, 4, 1,  5, 15, 7, 13,
                         0, 15, 3, 12,  10, 15, 11, 14)
_QUAD = itemgetter(0, 3, 1, 2)


def _padded(x) -> list[float]:
    """``x`` as a list of floats plus the 0.0 slot that ground (-1) reads."""
    v = np.asarray(x, dtype=float).tolist()
    v.append(0.0)
    return v


def _add_transconductances(acc: list[float], t: tuple, gm: float,
                           gds: float, gmb: float) -> None:
    """Stamp gm/gds/gmb at the eight plan targets ``t`` (see the plan)."""
    total = gm + gds + gmb
    acc[t[0]] += gm
    acc[t[1]] += gds
    acc[t[2]] += gmb
    acc[t[3]] += -total
    acc[t[4]] += -gm
    acc[t[5]] += -gds
    acc[t[6]] += -gmb
    acc[t[7]] += total


def _add_conductance(acc: list[float], quad: tuple, value: float) -> None:
    """Stamp a two-terminal element at its (a,a), (b,b), (a,b), (b,a)."""
    acc[quad[0]] += value
    acc[quad[1]] += value
    acc[quad[2]] += -value
    acc[quad[3]] += -value


def _mos_params(dev: Mosfet) -> tuple[float, ...]:
    """The level-1 kernel's device arguments, ``sign`` to ``beta``."""
    model = dev.model
    return (model.sign, model.vto, model.gamma, model.phi,
            math.sqrt(model.phi), model.lambda_, dev.beta)


def _level1(sign: float, vto: float, gamma: float, phi: float,
            sqrt_phi: float, lam: float, beta: float,
            vd: float, vg: float, vs: float, vb: float):
    """The level-1 square law: the one implementation every caller uses.

    Arguments are :func:`_mos_params` plus the oriented terminal
    voltages; returns what :func:`mos_level1` documents.
    """
    vgs = sign * (vg - vs)
    vds = sign * (vd - vs)
    vbs = sign * (vb - vs)
    # Body effect: Vt = Vto + γ(√(φ−Vbs) − √φ).
    sq = math.sqrt(max(phi - vbs, 0.05))
    vth = vto + gamma * (sq - sqrt_phi)
    vov = vgs - vth
    if vov <= 0:
        # In circuit polarity the PMOS channel current flows source ->
        # drain, so cutoff reports a signed zero.
        return sign * 0.0, 0.0, 0.0, 0.0, ("cutoff", vth, vov, vgs, vds, vbs)
    if vds >= vov:
        region = "saturation"
        ids = 0.5 * beta * vov * vov * (1.0 + lam * vds)
        gm = beta * vov * (1.0 + lam * vds)
        gds = 0.5 * beta * vov * vov * lam
    else:
        region = "triode"
        core = vov * vds - 0.5 * vds * vds
        ids = beta * core * (1.0 + lam * vds)
        gm = beta * vds * (1.0 + lam * vds)
        gds = beta * ((vov - vds) * (1.0 + lam * vds) + core * lam)
    # Body-effect transconductance factor dVth/dVbs.
    gmb = -gm * (-gamma / (2.0 * sq))
    return sign * ids, gm, gds, gmb, (region, vth, vov, vgs, vds, vbs)


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
    return _level1(*_mos_params(dev), vd, vg, vs, vb)


def threshold_voltage(model, vbs: float) -> float:
    """Body-effect-adjusted threshold: Vt = Vto + γ(√(φ−Vbs) − √φ)."""
    # The kernel's threshold of an NMOS-oriented device at vgs = vds = 0.
    return _level1(1.0, model.vto, model.gamma, model.phi,
                   math.sqrt(model.phi), 0.0, 0.0,
                   0.0, 0.0, 0.0, vbs)[4][1]


def _require_scalar_size(dev: Mosfet) -> None:
    """Reject a device carrying batched W/L/m arrays.

    Such a device would silently produce array-valued stamps and
    capacitances that downstream stamping cannot index: build one
    circuit per sizing instead.
    """
    if isinstance(dev.w, float) and isinstance(dev.l, float) \
            and isinstance(dev.m, int):
        return  # the common case, without numpy's per-call cost
    if np.ndim(dev.w) != 0 or np.ndim(dev.l) != 0 or np.ndim(dev.m) != 0:
        raise TypeError(
            f"MOSFET {dev.name!r} expects scalar W/L/m, got "
            f"shapes {np.shape(dev.w)}/{np.shape(dev.l)}/{np.shape(dev.m)}; "
            f"build one circuit per sizing")


def mos_capacitances(dev: Mosfet, region: str) -> tuple[float, float, float]:
    """Meyer-style gate capacitances (cgs, cgd, cgb) by operating region.

    Scalar-only: ``dev.w``/``dev.l``/``dev.m`` must be plain numbers
    (a ``TypeError`` otherwise, as when an :class:`MnaSystem` compiles
    the device).
    """
    _require_scalar_size(dev)
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
