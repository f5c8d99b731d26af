"""Radial low-voltage network model and backward/forward sweep power flow.

Single-phase positive-sequence equivalent with constant-power injections
(loads positive, generation negative). Voltages are reported in per-unit
of the network base voltage, currents in ampere.

The sweep is the direct radial load flow of Teng ("A direct approach for
distribution system load flow solutions", IEEE Trans. Power Delivery
18(3), 2003): a line carries the sum of the bus currents in the subtree
below it, and a bus voltage is the slack voltage minus the drops along its
path to the slack. Both maps are segment sums over index lists fixed by
the topology, so one sweep costs a few numpy calls at any feeder depth.

`certainly_within_limits` proves, from one product of |p| with a matrix
built from the same index lists, that a sweep converges inside every limit
without running it (the fixed-point
conditions of Wang, Bernstein, Le Boudec & Paolone, "Explicit conditions
on existence and uniqueness of load-flow solutions in distribution
networks", IEEE Trans. Smart Grid 9(2), 2018).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Bus",
    "Line",
    "FeederSpec",
    "NetworkTopology",
    "PowerFlowSolution",
    "TopologyError",
    "build_replicated_feeder",
    "solve_power_flow",
    "certainly_within_limits",
    "pv_power",
]

# The sweep's stopping rule, which the certificate assumes.
SWEEP_TOL = 1e-8
SWEEP_MAX_ITER = 50
# The certificate's relative margin on every limit it tests.
CERTIFICATE_MARGIN = 1e-9


class TopologyError(ValueError):
    """Raised when a bus/line set does not form a valid radial network."""


@dataclass(frozen=True)
class Bus:
    id: str
    v_min: float = 0.95
    v_max: float = 1.05
    devices: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.v_min < self.v_max):
            raise TopologyError(
                f"bus {self.id!r}: need 0 < v_min < v_max, got "
                f"v_min={self.v_min}, v_max={self.v_max}"
            )


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    resistance: float  # ohm
    reactance: float   # ohm
    i_rated: float     # ampere

    def __post_init__(self):
        for name in ("resistance", "reactance", "i_rated"):
            if not math.isfinite(getattr(self, name)):
                raise TopologyError(f"line {self.id!r}: {name} must be "
                                    f"finite, got {getattr(self, name)}")
        if self.i_rated <= 0.0:
            raise TopologyError(f"line {self.id!r}: i_rated must be > 0")
        if self.resistance < 0.0:
            raise TopologyError(f"line {self.id!r}: resistance must be >= 0")
        if abs(complex(self.resistance, self.reactance)) <= 0.0:
            raise TopologyError(f"line {self.id!r}: impedance magnitude must be > 0")


@dataclass
class PowerFlowSolution:
    bus_voltages: np.ndarray    # per-unit magnitude, indexed like topology.buses
    line_currents: np.ndarray   # ampere magnitude, indexed like topology.lines
    converged: bool
    iterations: int
    v_complex: np.ndarray = field(repr=False, default=None)  # volts


class NetworkTopology:
    """Radial tree of buses and lines rooted at the slack bus.

    Validates the tree property on construction, orients every line
    parent->child by a breadth-first search from the slack, and precomputes
    the sweep solver's index lists: for each line (in line order) the buses
    of its child's subtree, `_below` with segment starts `_below_start`;
    for each non-slack bus `_non_slack` the lines on its path to the slack,
    `_above` with starts `_above_start`. Building them costs O(sum of bus
    depths). `certificate_matrix` is the certificate's bound map, built
    from the same pairs.
    """

    def __init__(self, buses, lines, slack_bus_id, v_base=230.0):
        self.buses = list(buses)
        self.lines = list(lines)
        self.slack_bus_id = slack_bus_id
        self.v_base = float(v_base)

        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate bus ids")
        if slack_bus_id not in ids:
            raise TopologyError(f"slack bus {slack_bus_id!r} not among buses")
        self.bus_index = {b.id: i for i, b in enumerate(self.buses)}
        self.line_index = {l.id: i for i, l in enumerate(self.lines)}
        if len(self.line_index) != len(self.lines):
            raise TopologyError("duplicate line ids")
        for l in self.lines:
            if l.from_bus not in self.bus_index or l.to_bus not in self.bus_index:
                raise TopologyError(f"line {l.id!r} references unknown bus")

        n = len(self.buses)
        if len(self.lines) != n - 1:
            raise TopologyError(
                f"not a tree: {len(self.lines)} lines for {n} buses"
            )

        # Orient lines parent->child by BFS from the slack bus.
        adj = {i: [] for i in range(n)}
        for li, l in enumerate(self.lines):
            a, b = self.bus_index[l.from_bus], self.bus_index[l.to_bus]
            adj[a].append((b, li))
            adj[b].append((a, li))

        root = self.bus_index[slack_bus_id]
        self.parent_bus = np.full(n, -1, dtype=np.int64)
        self.parent_line = np.full(n, -1, dtype=np.int64)
        self.bus_depth = np.full(n, -1, dtype=np.int64)
        self.line_from = np.zeros(len(self.lines), dtype=np.int64)  # parent side
        self.line_to = np.zeros(len(self.lines), dtype=np.int64)    # child side

        self.bus_depth[root] = 0
        queue = [root]
        seen_lines = set()
        while queue:
            u = queue.pop(0)
            for v, li in adj[u]:
                if li in seen_lines:
                    continue
                if self.bus_depth[v] >= 0:
                    raise TopologyError("cycle detected in line graph")
                seen_lines.add(li)
                self.bus_depth[v] = self.bus_depth[u] + 1
                self.parent_bus[v] = u
                self.parent_line[v] = li
                self.line_from[li] = u
                self.line_to[li] = v
                queue.append(v)
        if (self.bus_depth < 0).any():
            raise TopologyError("line graph is not connected")

        # Segment-sum index lists (Teng 2003): walk every non-slack bus up to
        # the slack once, collecting (bus, line on its path) pairs. Grouped by
        # line they list each line's downstream subtree (backward sweep);
        # grouped by bus they list each bus's path to the slack (forward).
        self._non_slack = np.flatnonzero(self.parent_line >= 0)
        no_pairs = np.zeros(0, dtype=np.int64)
        pair_bus, pair_line = [no_pairs], [no_pairs]
        bus = node = self._non_slack
        while node.size:
            pair_bus.append(bus)
            pair_line.append(self.parent_line[node])
            node = self.parent_bus[node]
            keep = self.parent_line[node] >= 0
            bus, node = bus[keep], node[keep]
        pair_bus, pair_line = np.concatenate(pair_bus), np.concatenate(pair_line)
        by_line = np.argsort(pair_line, kind="stable")
        self._below = pair_bus[by_line]
        self._below_start = np.searchsorted(pair_line[by_line],
                                            np.arange(len(self.lines)))
        by_bus = np.argsort(pair_bus, kind="stable")
        self._above = pair_line[by_bus]
        self._above_start = np.searchsorted(pair_bus[by_bus], self._non_slack)

        self.impedance = np.array(
            [complex(l.resistance, l.reactance) for l in self.lines]
        )
        self.i_rated = np.array([l.i_rated for l in self.lines])
        self.v_min = np.array([b.v_min for b in self.buses])
        self.v_max = np.array([b.v_max for b in self.buses])
        # What `certainly_within_limits` tests, in volt and watt.
        self._v_lo = float(self.v_min.max() * self.v_base)
        self._slack_band = (self.v_min[root], self.v_max[root])
        # The certificate's bounds are linear in |p|: stacked, one row per
        # line, [l, b] = 1 where bus b lies below line l, so the product
        # is S_l; then one row per non-slack bus, [b, b'] = the summed |Z|
        # of the lines on both b's and b''s path to the slack, over v_lo,
        # so the product is d_b.
        below = np.zeros((len(self.lines), n))
        below[pair_line, pair_bus] = 1.0
        shared = below[:, self._non_slack].T @ (
            np.abs(self.impedance)[:, None] * below)
        self.certificate_matrix = np.vstack((below, shared / self._v_lo))
        self.certificate_matrix.flags.writeable = False
        self._certificate_limits = _certificate_limits(self)

    @property
    def n_buses(self):
        return len(self.buses)

    @property
    def n_lines(self):
        return len(self.lines)

    def injection_array(self, injections):
        """The injections, watt per bus index, as a checked float array."""
        p = np.asarray(injections, dtype=float)
        if p.shape != (self.n_buses,):
            raise ValueError(
                f"injection shape {p.shape}: expected (n_buses,) with "
                f"n_buses = {self.n_buses}"
            )
        if not np.isfinite(p).all():
            raise ValueError("injections must be finite")
        return p


@dataclass(frozen=True)
class FeederSpec:
    """Parameters for the replicated sub-district feeder generator.

    One trunk junction hangs off the slack bus when there are two or more
    sub-districts; a single sub-district chains directly from the slack.
    Each sub-district is a line-per-bus chain.
    """
    sub_districts: int = 1
    buses_per_feeder: int = 11
    households_per_bus: int = 5
    line_resistance: float = 0.001   # ohm per chain segment
    line_reactance: float = 0.0005
    line_rating: float = 1300.0      # ampere, per chain segment
    trunk_resistance: float = 0.0003
    trunk_reactance: float = 0.0001
    trunk_rating: float | None = None  # defaults to sub_districts * line_rating
    v_min: float = 0.95
    v_max: float = 1.05
    v_base: float = 230.0


def build_replicated_feeder(spec: FeederSpec) -> NetworkTopology:
    """Build a radial network of identical sub-district chains.

    Layout: slack -> (trunk junction, only when sub_districts >= 2) ->
    per sub-district a chain of `buses_per_feeder` buses, each carrying
    `households_per_bus` household device ids.
    """
    if spec.sub_districts < 1:
        raise TopologyError("sub_districts must be >= 1")
    if spec.buses_per_feeder < 1:
        raise TopologyError("buses_per_feeder must be >= 1")
    if spec.households_per_bus < 0:
        raise TopologyError("households_per_bus must be >= 0")

    lim = dict(v_min=spec.v_min, v_max=spec.v_max)
    buses = [Bus("slack", **lim)]
    lines = []

    if spec.sub_districts >= 2:
        trunk_rating = spec.trunk_rating
        if trunk_rating is None:
            trunk_rating = spec.sub_districts * spec.line_rating
        buses.append(Bus("trunk", **lim))
        lines.append(Line("l_trunk", "slack", "trunk",
                          spec.trunk_resistance, spec.trunk_reactance,
                          trunk_rating))
        feeder_root = "trunk"
    else:
        feeder_root = "slack"

    for d in range(spec.sub_districts):
        prev = feeder_root
        for b in range(spec.buses_per_feeder):
            devices = tuple(
                f"d{d}b{b}h{h}" for h in range(spec.households_per_bus)
            )
            bus_id = f"d{d}b{b}"
            buses.append(Bus(bus_id, devices=devices, **lim))
            lines.append(Line(f"l_{bus_id}", prev, bus_id,
                              spec.line_resistance, spec.line_reactance,
                              spec.line_rating))
            prev = bus_id

    return NetworkTopology(buses, lines, "slack", v_base=spec.v_base)


def solve_power_flow(net: NetworkTopology, injections) -> PowerFlowSolution:
    """Backward/forward sweep for constant-power injections on a radial tree.

    `injections` is signed active power in watt per bus, in bus index order
    (positive = load); the slack bus holds 1 per unit.
    Convergence: max per-unit voltage change < `SWEEP_TOL`, within
    `SWEEP_MAX_ITER` sweeps. A non-convergent case is returned with
    converged=False rather than raised; the caller decides how to score
    that instant.
    """
    p = net.injection_array(injections)
    v_slack = complex(net.v_base)
    v = np.full(net.n_buses, v_slack, dtype=complex)
    i_line = np.zeros(net.n_lines, dtype=complex)
    below, below_start = net._below, net._below_start
    above, above_start = net._above, net._above_start
    non_slack = net._non_slack
    converged = False
    iterations = 0
    tol_v = SWEEP_TOL * net.v_base

    for iterations in range(1, SWEEP_MAX_ITER + 1):
        # np.add.reduceat rejects empty index lists: a lone slack bus has
        # no line, so its voltage stays at v_slack.
        if not net.n_lines:
            converged = True
            break
        # Backward: each line carries the current drawn by its subtree.
        i_line = np.add.reduceat(np.conj(p / v)[below], below_start)
        # Forward: each bus sits below the drops along its slack path; the
        # slack bus keeps v_slack.
        v_new = v_slack - np.add.reduceat((net.impedance * i_line)[above],
                                          above_start)
        # Compared in volt: the change over a tiny v_base could overflow.
        dv = np.abs(v_new - v[non_slack]).max()
        if dv < tol_v:
            v[non_slack] = v_new
            converged = True
            break
        # A non-finite voltage makes dv non-finite, so only a failed test
        # needs the finiteness pass.
        if not math.isfinite(dv):
            finite = np.isfinite(v_new)
            if not finite.all():
                v[non_slack[finite]] = v_new[finite]
                break
        v[non_slack] = v_new

    return PowerFlowSolution(
        bus_voltages=np.abs(v) / net.v_base,
        line_currents=np.abs(i_line),
        converged=converged,
        iterations=iterations,
        v_complex=v,
    )


def certainly_within_limits(net: NetworkTopology, injections) -> bool:
    """Whether `solve_power_flow(net, injections)` surely converges with no
    line above its rating and every bus inside its voltage band.

    True is a proof; False only means "not proven", and the caller solves.
    Input is checked as the solve checks it, so a wrong shape or a
    non-finite injection raises the same `ValueError`.

    Proof. Let S_l be the sum of |p_b| over the buses below line l,
    v_lo = max(v_min) * v_base, and d_b the sum of |Z_l| * S_l / v_lo over
    the lines above bus b; v_s = v_base is the slack voltage in volt. Both
    are linear in |p|: d_b sums |p_b'| times the |Z| of the lines that the
    paths of b and b' to the slack share, over v_lo, and
    `net.certificate_matrix` stacks the two maps, so one product gives
    every S_l and d_b. The sweep iterates T(v) = v_s - D conj(p / v) from
    the flat start v = v_s, where D sums the impedances of the lines two
    buses share on their paths to the slack. Take the ball
    B = {v : |v_b - v_s| <= d_b for every b} and let max d <= v_s - v_lo.
    On B every |v_b| >= v_lo, so line l carries at most S_l / v_lo and
    T(v) lies in B again: every iterate stays in B, and every line current
    computed from one is at most S_l / v_lo. On B also
    |conj(p/v) - conj(p/w)| <= |p| |v - w| / v_lo^2, so T contracts the
    max-norm by q = max d / v_lo, and the k-th sweep changes the voltages
    by at most q^(k-1) * max d. So when, besides
    max d <= v_s - v_lo,
      - q <= 1/2,
      - q^(SWEEP_MAX_ITER - 1) * max d < SWEEP_TOL * v_base,
      - S_l <= v_lo * i_rated for every line,
      - v_s + d_b <= v_max_b * v_base for every bus (v_s - d_b >= v_lo >=
        v_min_b * v_base holds already),
      - and the slack voltage, 1 per unit, lies inside the slack bus's band,
    the sweep stops within `SWEEP_MAX_ITER` sweeps at a point of B, where no
    line is above its rating and no bus outside its band.

    Margin. One sweep's rounding moves the voltages by about 1e-14 of v_s
    on a feeder of a few dozen buses, and with q <= 1/2 the rounding of
    successive sweeps adds up to at most twice that. Each test but
    q <= 1/2 keeps a margin of `CERTIFICATE_MARGIN` (1e-9) of v_s, or of
    the rating or band edge it tests, far above the rounding, so the
    floating-point sweep meets the limits that the exact map meets; the
    product's own rounding, a few units in the last place of each S_l and
    d_b, is as far below it. Every test is written so that a NaN fails
    it.
    """
    p = net.injection_array(injections)
    margin = CERTIFICATE_MARGIN
    lo, hi = net._slack_band
    if not lo * (1.0 + margin) <= 1.0 <= hi * (1.0 - margin):
        return False
    if not net.n_lines:
        return True
    v_s, v_lo = net.v_base, net._v_lo
    room = margin * v_s
    # Every S_l, then every d_b, in one product (see `NetworkTopology`).
    bounds = net.certificate_matrix @ np.abs(p)
    d = float(np.maximum.reduce(bounds[net.n_lines:]))
    q = d / v_lo
    return bool(q <= 0.5
                and v_s - d >= v_lo + room
                and (q ** (SWEEP_MAX_ITER - 1) * d + room
                     < SWEEP_TOL * net.v_base)
                and np.count_nonzero(bounds <= net._certificate_limits)
                == len(bounds))


def _certificate_limits(net: NetworkTopology) -> np.ndarray:
    """The right-hand sides of the certificate's per-line and per-bus
    tests, stacked like `certificate_matrix`, with their margins:
    S_l <= v_lo * i_rated * (1 - margin) and d_b <= v_max_b * v_base -
    v_s * (1 + margin). Built once per topology."""
    margin = CERTIFICATE_MARGIN
    v_s = net.v_base
    room = margin * v_s
    return np.concatenate((net._v_lo * net.i_rated * (1.0 - margin),
                           net.v_max[net._non_slack] * net.v_base
                           - (v_s + room)))


def pv_power(area, efficiency, irradiance):
    """Instantaneous PV output in watt: panel area x efficiency x irradiance.

    Elementwise over arrays, which broadcast: one call gives a whole
    (instant, site) table.
    """
    a, e, irr = np.asarray(area), np.asarray(efficiency), np.asarray(irradiance)
    if (a < 0.0).any():
        raise ValueError("area must be >= 0")
    if ((e < 0.0) | (e > 1.0)).any():
        raise ValueError("efficiency must be within [0, 1]")
    if (irr < 0.0).any():
        raise ValueError("irradiance must be >= 0")
    return area * efficiency * irradiance
