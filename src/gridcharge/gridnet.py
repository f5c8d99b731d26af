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
"""
from __future__ import annotations

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
    "pv_power",
]


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
    depths).
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

    @property
    def n_buses(self):
        return len(self.buses)

    @property
    def n_lines(self):
        return len(self.lines)

    def injection_array(self, injections):
        """Accept a dict bus_id -> watt or a dense array over bus indices."""
        if isinstance(injections, dict):
            p = np.zeros(self.n_buses)
            for bus_id, watt in injections.items():
                p[self.bus_index[bus_id]] = watt
        else:
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


def solve_power_flow(net: NetworkTopology, injections, slack_voltage=1.0,
                     tol=1e-8, max_iter=50) -> PowerFlowSolution:
    """Backward/forward sweep for constant-power injections on a radial tree.

    `injections` is signed active power in watt per bus (positive = load).
    Convergence: max per-unit voltage change < `tol`. A non-convergent case
    is returned with converged=False rather than raised; the caller decides
    how to score that instant.
    """
    p = net.injection_array(injections)
    n = net.n_buses
    v_slack = complex(slack_voltage * net.v_base)
    v = np.full(n, v_slack, dtype=complex)
    i_line = np.zeros(net.n_lines, dtype=complex)
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        v_new = np.full(n, v_slack, dtype=complex)
        # np.add.reduceat rejects empty index lists: a lone slack bus has
        # no line, so its voltage stays at v_slack.
        if net.n_lines:
            # Backward: each line carries the current drawn by its subtree.
            i_acc = np.conj(p / v)
            i_line = np.add.reduceat(i_acc[net._below], net._below_start)
            # Forward: each bus sits below the drops along its slack path.
            drop = net.impedance * i_line
            v_new[net._non_slack] -= np.add.reduceat(drop[net._above],
                                                      net._above_start)
        if not np.isfinite(v_new).all():
            v = np.where(np.isfinite(v_new), v_new, v)
            break
        dv = np.abs(v_new - v).max() / net.v_base
        v = v_new
        if dv < tol:
            converged = True
            break

    return PowerFlowSolution(
        bus_voltages=np.abs(v) / net.v_base,
        line_currents=np.abs(i_line),
        converged=converged,
        iterations=iterations,
        v_complex=v,
    )


def power_mismatch(net: NetworkTopology, solution: PowerFlowSolution,
                   injections) -> float:
    """Worst per-unit complex-power residual of a solution (base v_base^2 VA).

    Recomputes each non-slack bus's net injection from the complex voltages
    and compares against the specified active powers (reactive spec is 0).
    """
    p = net.injection_array(injections)
    v = solution.v_complex
    i_line = (v[net.line_from] - v[net.line_to]) / net.impedance
    i_net = np.zeros(net.n_buses, dtype=complex)
    np.add.at(i_net, net.line_to, i_line)
    np.subtract.at(i_net, net.line_from, i_line)
    s = v * np.conj(i_net)
    mismatch = s - p
    root = net.bus_index[net.slack_bus_id]
    mismatch[root] = 0.0
    return float(np.max(np.abs(mismatch)) / net.v_base**2)


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
