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

`certainly_within_limits` proves, from segment sums of |p| over the same
index lists, that a sweep converges inside every limit without running it
(the fixed-point conditions of Wang, Bernstein, Le Boudec & Paolone,
"Explicit conditions on existence and uniqueness of load-flow solutions in
distribution networks", IEEE Trans. Smart Grid 9(2), 2018). A lightly
loaded vector it clears from the total sum of |p| alone, against one limit
the topology computes once; `bound_below_limit` clears such a vector from
its parts' totals, before it is built.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

__all__ = [
    "Bus",
    "Line",
    "NetworkTopology",
    "PowerFlowSolution",
    "TopologyError",
    "build_replicated_feeder",
    "solve_power_flow",
    "total_bounds",
    "bound_below_limit",
    "certainly_within_limits",
    "pv_power",
]

# The sweep's stopping rule, which the certificate assumes.
SWEEP_TOL = 1e-8
SWEEP_MAX_ITER = 50
# The certificate's relative margin on every limit it tests.
CERTIFICATE_MARGIN = 1e-9
# The total-load tier sums |p| times this power of two, which scales every
# term and every rounding exactly, so that no sum of finite injections on a
# feeder of fewer than 2^32 buses overflows.
TIER_SCALE = 2.0 ** -32
# `total_bounds` takes at most this many terms per vector into its slack,
# and `bound_below_limit` clears no bound of this much or more.
MAX_BOUND_TERMS = 2 ** 23
BOUND_CAP = 2.0 ** 942
_FLOAT = np.dtype(float)


class TopologyError(ValueError):
    """Raised when a bus/line set does not form a valid radial network."""


class Bus(namedtuple("Bus", "id v_min v_max devices")):
    __slots__ = ()

    def __new__(cls, id, v_min=0.95, v_max=1.05, devices=()):
        if not (0.0 < v_min < v_max):
            raise TopologyError(
                f"bus {id!r}: need 0 < v_min < v_max, got "
                f"v_min={v_min}, v_max={v_max}"
            )
        return super().__new__(cls, id, v_min, v_max, devices)

    @classmethod
    def _make(cls, values):
        # `_replace` builds through `_make`: a variant is checked too.
        return cls(*values)


class Line(namedtuple("Line", "id from_bus to_bus resistance reactance "
                              "i_rated")):
    """A line; `resistance` and `reactance` in ohm, `i_rated` in ampere."""
    __slots__ = ()

    def __new__(cls, id, from_bus, to_bus, resistance, reactance, i_rated):
        for name, value in (("resistance", resistance),
                            ("reactance", reactance), ("i_rated", i_rated)):
            if not math.isfinite(value):
                raise TopologyError(f"line {id!r}: {name} must be "
                                    f"finite, got {value}")
        if i_rated <= 0.0:
            raise TopologyError(f"line {id!r}: i_rated must be > 0")
        if resistance < 0.0:
            raise TopologyError(f"line {id!r}: resistance must be >= 0")
        if abs(complex(resistance, reactance)) <= 0.0:
            raise TopologyError(f"line {id!r}: impedance magnitude must be > 0")
        return super().__new__(cls, id, from_bus, to_bus, resistance,
                               reactance, i_rated)

    @classmethod
    def _make(cls, values):
        return cls(*values)


class PowerFlowSolution(namedtuple(
        "PowerFlowSolution",
        "bus_voltages line_currents converged iterations v_complex",
        defaults=(None,))):
    """`bus_voltages` in per unit, indexed like `topology.buses`;
    `line_currents` in ampere, indexed like `topology.lines`; `v_complex`
    in volt."""
    __slots__ = ()


class NetworkTopology:
    """Radial tree of buses and lines rooted at the slack bus.

    Validates the tree property on construction, orients every line
    parent->child by a breadth-first search from the slack, and precomputes
    the sweep solver's index lists: for each line (in line order) the buses
    of its child's subtree, `_below` with segment starts `_below_start`;
    for each non-slack bus `_non_slack` the lines on its path to the slack,
    `_above` with starts `_above_start`. Building them costs O(sum of bus
    depths), and so does each sweep and each certificate over them.
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
        if len({l.id for l in self.lines}) != len(self.lines):
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
        self._drop_per_watt = np.abs(self.impedance) / self._v_lo
        self._line_limits, self._bus_limits = _certificate_limits(self)
        self._total_limit = _total_limit(self)
        self._tier_scale = np.full(n, TIER_SCALE)
        # A scaled limit below the least normal float would round; it
        # reads as 0.
        tier_limit = self._total_limit * TIER_SCALE
        self._tier_limit = tier_limit if tier_limit >= 2.0 ** -1022 else 0.0
        self._bound_limit = min(self._tier_limit, BOUND_CAP)

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


def build_replicated_feeder(topology: dict) -> NetworkTopology:
    """Build a radial network of identical sub-district chains from a
    `scenario.topology` tree of the config (every key given).

    Layout: slack -> (trunk junction, only when sub_districts >= 2) ->
    per sub-district a chain of `buses_per_feeder` buses, each carrying
    `households_per_bus` household device ids. The trunk is rated
    `trunk_rating`, or `sub_districts * line_rating` when that is None.
    """
    t = topology
    districts, per_feeder = t["sub_districts"], t["buses_per_feeder"]
    if districts < 1:
        raise TopologyError("sub_districts must be >= 1")
    if per_feeder < 1:
        raise TopologyError("buses_per_feeder must be >= 1")
    if t["households_per_bus"] < 1:
        raise TopologyError("households_per_bus must be >= 1")

    lim = dict(v_min=t["v_min"], v_max=t["v_max"])
    buses = [Bus("slack", **lim)]
    lines = []

    if districts >= 2:
        trunk_rating = t["trunk_rating"]
        if trunk_rating is None:
            trunk_rating = districts * t["line_rating"]
        buses.append(Bus("trunk", **lim))
        lines.append(Line("l_trunk", "slack", "trunk", t["trunk_resistance"],
                          t["trunk_reactance"], trunk_rating))
        feeder_root = "trunk"
    else:
        feeder_root = "slack"

    for d in range(districts):
        prev = feeder_root
        for b in range(per_feeder):
            devices = tuple(
                f"d{d}b{b}h{h}" for h in range(t["households_per_bus"])
            )
            bus_id = f"d{d}b{b}"
            buses.append(Bus(bus_id, devices=devices, **lim))
            lines.append(Line(f"l_{bus_id}", prev, bus_id,
                              t["line_resistance"], t["line_reactance"],
                              t["line_rating"]))
            prev = bus_id

    return NetworkTopology(buses, lines, "slack", v_base=t["v_base"])


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
    are segment sums over the sweep's own index lists (see
    `NetworkTopology`). The sweep iterates T(v) = v_s - D conj(p / v) from
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

    Margin. Summed in any order, k floating-point terms are off by at most
    (k - 1) * 2^-53 of the sum of their magnitudes, to first order
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    2002, section 4.2). On a feeder of n buses a sweep's line current and
    S_l each sum at most n - 1 bus terms, and a sweep's voltage drop and
    d_b each sum at most depth-many line terms, each carrying its line's
    error. So one sweep's voltages, and each S_l and d_b, are off by at
    most about 2n * 2^-53 of v_s or of the rating or band edge they are
    tested against: under 3e-11 up to 10^5 buses. With q <= 1/2 the
    rounding of successive sweeps adds up to at most twice that. Each test
    but q <= 1/2 keeps a margin of `CERTIFICATE_MARGIN` (1e-9) of v_s, or
    of the rating or band edge it tests, far above the rounding, so the
    floating-point sweep meets the limits that the exact map meets. Every
    test is written so that a NaN fails it.

    Tier. First, a vector whose `_tier_total` lies below `net._tier_limit`
    is cleared at once: its S_l and d_b meet every test above (see
    `_total_limit`). Both are taken times `TIER_SCALE`, a power of two, so
    that the sum of finite injections cannot overflow; the scaling is
    exact but for terms below 2^-990 W, whose rounding (2^-1075 each) the
    margin of `_total_limit` covers. A finite sum also proves every
    injection finite; a non-finite injection makes the sum NaN or
    infinite, and any input but a float array of one entry per bus makes
    it NaN, so such a vector still reaches the input check. A bound past
    the float range fails its test, which is the verdict; it warns of
    nothing.
    """
    total = _tier_total(net, injections)
    if total < net._tier_limit:
        return True
    if math.isfinite(total):            # so is every injection
        return _segment_certificate(net, injections)
    return _segment_certificate(net, net.injection_array(injections))


def _tier_total(net: NetworkTopology, injections) -> float:
    """`TIER_SCALE` times the sum of |p_b| of `injections`, a float array
    of one entry per bus; NaN for any other input."""
    if (type(injections) is np.ndarray and injections.dtype is _FLOAT
            and injections.shape == net._tier_scale.shape):
        return np.abs(injections).dot(net._tier_scale)
    return math.nan


def _segment_certificate(net: NetworkTopology, p: np.ndarray) -> bool:
    """The segment-sum certificate of `certainly_within_limits`, for
    checked injections `p`."""
    margin = CERTIFICATE_MARGIN
    lo, hi = net._slack_band
    if not lo * (1.0 + margin) <= 1.0 <= hi * (1.0 - margin):
        return False
    if not net.n_lines:
        return True
    v_s, v_lo = net.v_base, net._v_lo
    room = margin * v_s
    load, drop = _certificate_bounds(net, p)
    d = float(np.maximum.reduce(drop))
    q = d / v_lo
    return bool(q <= 0.5
                and v_s - d >= v_lo + room
                and (q ** (SWEEP_MAX_ITER - 1) * d + room
                     < SWEEP_TOL * net.v_base)
                and np.count_nonzero(load <= net._line_limits) == len(load)
                and np.count_nonzero(drop <= net._bus_limits) == len(drop))


def _certificate_bounds(net: NetworkTopology, p: np.ndarray):
    """The certificate's bounds for injections `p`, by the sweep's segment
    sums: S_l for every line, in line order, and d_b for every non-slack
    bus, in `net._non_slack` order. A sum past the float range reads as
    infinite (or NaN, times a zero drop per watt), and fails every test
    it meets."""
    with np.errstate(over="ignore", invalid="ignore"):
        load = np.add.reduceat(np.abs(p)[net._below], net._below_start)
        drop = np.add.reduceat((net._drop_per_watt * load)[net._above],
                               net._above_start)
    return load, drop


def _certificate_limits(net: NetworkTopology, margin=CERTIFICATE_MARGIN):
    """The right-hand sides of the certificate's per-line and per-bus
    tests, in the order of `_certificate_bounds`, with their margins:
    S_l <= v_lo * i_rated * (1 - margin) and d_b <= v_max_b * v_base -
    v_s * (1 + margin). Built once per topology."""
    v_s = net.v_base
    room = margin * v_s
    return (net._v_lo * net.i_rated * (1.0 - margin),
            net.v_max[net._non_slack] * net.v_base - (v_s + room))


def _total_limit(net: NetworkTopology) -> float:
    """The total load below which `certainly_within_limits` clears
    injections at once: a limit on P, the sum of |p_b| over all buses.
    0 when the slack bus's band excludes 1 per unit; infinite on a lone
    slack bus, where every finite vector is certified. Built once per
    topology.

    Proof. In the notation of `certainly_within_limits`, and with
    m = `CERTIFICATE_MARGIN`: S_l sums |p_b| over some of the buses, so
    S_l <= P, and d_b = sum of |Z_l| * S_l / v_lo over the lines above b
    is at most P * D_b, where D_b sums |Z_l| / v_lo over those lines;
    let D = max D_b, so max d <= P * D. Each of the certificate's tests
    holds for all S_l and d_b up to some bound, so it holds whenever P
    is below the bound divided by 1, D_b or D. Written with 2 m where
    the certificate has m, and with a margin of 2 m on q <= 1/2, the
    tests ask P to be at most
      - v_lo * i_rated_l * (1 - 2 m) for every line l,
      - (v_max_b * v_base - v_s * (1 + 2 m)) / D_b for every bus b,
      - (v_s - v_lo - 2 m * v_s) / D,
      - (1 - 2 m) * v_lo / (2 D),
      - (1 - 2 m) * v_lo * ((SWEEP_TOL * v_base - 2 m * v_s) / v_lo)^(1/K)
        / D, with K = `SWEEP_MAX_ITER`: the d at which
        q^(K - 1) * d + 2 m * v_s reaches SWEEP_TOL * v_base,
    and the limit is the least of these, or 0 when that is not positive.
    So below the limit every test of the certificate holds with twice
    its margin.

    Margin. P and each D_b sum at most n nonnegative terms on a feeder of
    n buses, in any order, so each is off by at most n * 2^-53 of itself
    (see `certainly_within_limits`). The differences inside the bounds
    are off by a few 2^-53 of the rating, band edge or v_s their test
    compares against, and each quotient, the root and the product with
    1 - 2 m add one 2^-53 more. So when the computed P lies below the
    computed limit, the exact S_l and d_b exceed each bound above by at
    most about 3n * 2^-53 of what its test compares against: under 4e-11
    up to 10^5 buses. They stay inside every test of the certificate,
    its margin m included, by m - 4e-11 of what the test compares
    against, and q stays below 1/2 by as much: far more than the
    certificate's own rounding (under 3e-11). So the exact conditions of
    the certificate hold, and the certificate computed in floating point
    clears the vector too.

    A line of tiny impedance can round to a zero D_b; its bus then bounds
    nothing (an infinite quotient), or leaves the limit NaN, which reads
    as 0.
    """
    margin = CERTIFICATE_MARGIN
    lo, hi = net._slack_band
    if not (lo * (1.0 + margin) <= 1.0 <= hi * (1.0 - margin)
            and 0.0 < net._v_lo < math.inf):
        return 0.0
    if not net.n_lines:
        return math.inf
    wide = 2.0 * margin
    v_s, v_lo = net.v_base, net._v_lo
    room = wide * v_s
    line_limits, bus_limits = _certificate_limits(net, wide)
    path = np.add.reduceat(net._drop_per_watt[net._above], net._above_start)
    settle = v_lo * ((SWEEP_TOL * net.v_base - room) / v_lo) ** (
        1.0 / SWEEP_MAX_ITER)
    d = min(v_s - v_lo - room, (1.0 - wide) * min(v_lo / 2.0, settle))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        limit = float(np.concatenate(
            (line_limits, bus_limits / path, [d / path.max()])).min())
    return limit if limit > 0.0 else 0.0


def total_bounds(net: NetworkTopology, base, parts, terms: int):
    """What `bound_below_limit` reads for the rows of `base`, a (rows,
    n_buses) table of base vectors, each summed from the terms in its row
    of the tables `parts`. `terms` is the most float terms that a vector
    built on one of these rows sums in all. Built once per table.

    Returns, per row, TIER_SCALE * (sum of |q_b| + slack * M) as a list of
    floats, where q is the row's vector and M the sum of |term| over its
    parts; and the factor TIER_SCALE * (1 + slack), which takes each total
    of a vector's extra terms, in watt, into its bound. The slack is
    (8 * terms + 64) * 2^-53. Every term is scaled before it is summed, so
    that finite terms never overflow. Past `MAX_BOUND_TERMS` terms every
    bound is infinite, and clears nothing.
    """
    if terms > MAX_BOUND_TERMS:
        return [math.inf] * len(base), TIER_SCALE
    slack = (8 * terms + 64) * 2.0 ** -53
    magnitude = sum(np.abs(part).dot(np.full(part.shape[1], TIER_SCALE))
                    for part in parts)
    bound = np.abs(base).dot(net._tier_scale) + slack * magnitude
    return bound.tolist(), TIER_SCALE * (1.0 + slack)


def bound_below_limit(net: NetworkTopology, base_bound, added,
                      absorbed) -> bool:
    """Whether the total-load tier would clear a vector p, summed from a
    base vector q and nonnegative extra terms, from their totals alone,
    without p being built. `base_bound` is q's entry of `total_bounds`;
    `added` and `absorbed` are the totals G and A of the two kinds of
    extra terms below, in watt, each times that factor and read low by
    at most a relative (K + 8) * 2^-53, with K the `terms` of
    `total_bounds`. True proves what the certificate proves; False only
    means "not proven". A NaN or infinite term makes its total NaN or
    infinite, which clears nothing, and so does a limit of 0.

    The vector. Entry b of p is a float sum, from 0 and in a fixed order,
    of at most K terms: the base terms of entry b (the terms its row of
    the parts holds for it), added terms e >= 0, and, in place of some
    base terms -y (y >= 0), the float difference x - y of an absorbed
    term x >= 0 and y. q_b is a float sum, in any order, of entry b's
    base terms alone. M sums |term| over the base terms, and E = G + A.

    Proof. Summed exactly, p_b = q_b + r_b with r_b >= 0 the sum of b's
    extra terms, so |p_b| <= |q_b| + r_b (the triangle inequality), and
    the sum of |p_b| is at most the sum of |q_b| plus E. That is all the
    tier needs, up to rounding.

    Rounding. With u = 2^-53, a float sum of k terms, in any order, is off
    by at most (k - 1) u of the sum of their magnitudes, to first order
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    2002, section 4.2), and x - y by at most u (x + y). So p and q, each
    summed from at most K terms, give a sum of |p_b| of at most the sum of
    |q_b| plus E plus (2K + 2) u (M + E). The tier's own sum of |p_b| reads
    at most K u of it more, and the bound's sum of |q_b| at most K u of it
    less, where the sum of |q_b| is at most (1 + K u) M. So the tier's sum
    is at most TIER_SCALE times: the sum of |q_b| as the bound reads it,
    plus (4K + 4) u M, plus (1 + (3K + 2) u) E. The bound adds slack * M
    and (1 + slack) E, each less the rounding of its sums, its factor and
    its totals: at most (K + 12) u of it. With the slack (8K + 64) u that is
    still over twice what the tier's sum needs. Every product and sum is
    scaled by TIER_SCALE, a power of two, exactly; K is at most
    `MAX_BOUND_TERMS`, so K u <= 2^-30 keeps the second-order terms far
    below the slack.

    The bound is also below `BOUND_CAP`, 2^942. It is at least
    TIER_SCALE * E and TIER_SCALE * slack * M, where the slack is at least
    2^-47, so E < 2^974 and M < 2^1021: no partial sum of p or q passes
    the float range, as the rounding above assumes.

    So when the bound lies below the scaled limit, so does the tier's sum
    of p, built or not: the tier, and so the certificate, clears p, and
    the judge would give it the all-clear state. As with the tier, terms
    below 2^-990 W round by an absolute 2^-1075 each once scaled, which
    the margin of `_total_limit` covers.
    """
    return base_bound + added + absorbed < net._bound_limit


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
