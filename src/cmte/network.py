"""Network representation, route enumeration and flow bookkeeping.

A :class:`Network` is a directed graph with per-link free-flow time,
design capacity and capacity degradation degree, plus a list of OD pairs
with demands.  A :class:`RouteSet` holds simple directed paths per OD
pair (the MAX_ROUTES_PER_OD with the lowest free-flow time, or the
network's explicit routes) and carries the two incidence structures
everything downstream needs: the link-route 0/1 matrix ``delta``
(|A| x m) and the OD-route 0/1 matrix ``lambda_inc`` (w x m).

Networks are parsed from a small line-oriented text format::

    # comment
    [links]
    # id  tail  head  t0_min  cap_pcu_h  theta
    1  1  2  10  1000  0.8

    [od]
    # origin  destination  demand_pcu_h
    1  10  4000

    [routes]           # optional: explicit link-id sequences
    1 3 7 11 13

Fields are whitespace- or comma-separated; ``#`` starts a comment.
When a ``[routes]`` section is present it overrides enumeration.  Each
row lists one or more contiguous links of ``[links]`` that visit no node
twice, and serves every OD pair whose end nodes are the route's: an OD
pair listed twice gets a copy of it for each listing, as enumeration
gives each listing its own routes.  Routes are ordered by OD pair, then
by row, as enumeration orders them by OD pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "Link",
    "ODPair",
    "Network",
    "Route",
    "RouteSet",
    "FeasibilityReport",
    "NetworkParseError",
    "NetworkValidationError",
    "load_network",
    "enumerate_routes",
    "build_route_set",
    "link_flows",
    "check_feasible",
]

MAX_ROUTES_PER_OD = 50  # enumeration keeps this many routes per OD pair


class NetworkParseError(ValueError):
    """Malformed network document (message carries line context)."""


class NetworkValidationError(ValueError):
    """Structurally parsed but invalid network."""


@dataclass(frozen=True)
class Link:
    id: int
    tail: int
    head: int
    t0: float            # free-flow travel time, minutes
    cap_design: float    # design capacity, pcu/h
    theta: float         # degradation degree; realized cap ~ U(theta*cap, cap)

    def __post_init__(self):
        if not 0 < self.t0 < math.inf:  # NaN fails this too
            raise NetworkValidationError(
                f"link {self.id}: t0 must be finite and > 0, got {self.t0}")
        if not 0 < self.cap_design < math.inf:
            raise NetworkValidationError(
                f"link {self.id}: cap_design must be finite and > 0, got {self.cap_design}")
        if not 0.0 < self.theta <= 1.0:
            raise NetworkValidationError(
                f"link {self.id}: theta must be in (0, 1], got {self.theta}")


@dataclass(frozen=True)
class ODPair:
    origin: int
    destination: int
    demand: float  # pcu/h

    def __post_init__(self):
        if self.origin == self.destination:
            raise NetworkValidationError(f"OD {self.origin}->{self.destination}: "
                                         "origin and destination must differ")
        if not 0 <= self.demand < math.inf:
            raise NetworkValidationError(
                f"OD {self.origin}->{self.destination}: demand must be finite and >= 0, "
                f"got {self.demand}")


@dataclass(frozen=True)
class Network:
    links: tuple[Link, ...]
    od_pairs: tuple[ODPair, ...]
    preset_routes: tuple[tuple[int, ...], ...] = ()  # explicit link-id sequences

    def __post_init__(self):
        ids = [l.id for l in self.links]
        if len(set(ids)) != len(ids):
            raise NetworkValidationError("duplicate link ids")
        for seq in self.preset_routes:
            if not seq:
                raise NetworkValidationError("explicit route names no link")
            missing = set(seq).difference(ids)
            if missing:
                raise NetworkValidationError(
                    f"explicit route {seq} names link {min(missing)}, which the "
                    f"network lacks")
        for od in self.od_pairs:
            if not self._has_path(od.origin, od.destination):
                raise NetworkValidationError(
                    f"no directed path from {od.origin} to {od.destination}")

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link_by_id(self, link_id: int) -> Link:
        try:
            return self._links_by_id[link_id]
        except KeyError:
            raise KeyError(f"no link with id {link_id}") from None

    @cached_property
    def _links_by_id(self) -> dict[int, Link]:
        return {l.id: l for l in self.links}

    def total_demand(self) -> float:
        return sum(od.demand for od in self.od_pairs)

    def with_uniform_theta(self, theta: float) -> "Network":
        """Copy with every link's degradation degree replaced by theta."""
        return replace(self, links=tuple(replace(l, theta=theta) for l in self.links))

    def with_scaled_demand(self, factor: float) -> "Network":
        """Copy with every OD demand multiplied by factor."""
        return replace(self, od_pairs=tuple(
            replace(od, demand=od.demand * factor) for od in self.od_pairs))

    def _has_path(self, src: int, dst: int) -> bool:
        out = {}
        for l in self.links:
            out.setdefault(l.tail, []).append(l.head)
        seen, stack = {src}, [src]
        while stack:
            n = stack.pop()
            for m in out.get(n, ()):
                if m == dst:
                    return True
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return False


@dataclass(frozen=True)
class Route:
    od_index: int
    link_ids: tuple[int, ...]


@dataclass(frozen=True)
class RouteSet:
    routes: tuple[Route, ...]
    delta: np.ndarray       # (|A|, m) link-route incidence
    lambda_inc: np.ndarray  # (w, m) OD-route incidence

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    @cached_property
    def od_routes(self) -> tuple[np.ndarray, ...]:
        """Route indices of each OD pair (rows of ``lambda_inc``), read-only."""
        out = tuple(np.flatnonzero(row) for row in self.lambda_inc)
        for ks in out:
            ks.flags.writeable = False
        return out


@dataclass(frozen=True)
class FeasibilityReport:
    demand_residuals: np.ndarray  # |sum_k f_k - q| per OD
    min_flow: float
    feasible: bool


# ---------------------------------------------------------------------------
# parsing

def load_network(text: str) -> Network:
    """Parse a network document and return a validated Network."""
    links: list[Link] = []
    ods: list[ODPair] = []
    routes: list[tuple[int, ...]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("links", "od", "routes"):
                raise NetworkParseError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise NetworkParseError(f"line {lineno}: data before any section header")
        fields = line.replace(",", " ").split()
        try:
            if section == "links":
                if len(fields) != 6:
                    raise NetworkParseError(
                        f"line {lineno}: [links] rows need 6 fields "
                        f"(id tail head t0 cap theta), got {len(fields)}")
                links.append(Link(int(fields[0]), int(fields[1]), int(fields[2]),
                                  float(fields[3]), float(fields[4]), float(fields[5])))
            elif section == "od":
                if len(fields) != 3:
                    raise NetworkParseError(
                        f"line {lineno}: [od] rows need 3 fields "
                        f"(origin destination demand), got {len(fields)}")
                ods.append(ODPair(int(fields[0]), int(fields[1]), float(fields[2])))
            else:
                routes.append(tuple(int(f) for f in fields))
        except NetworkParseError:
            raise
        except NetworkValidationError as exc:
            raise NetworkValidationError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise NetworkParseError(f"line {lineno}: {exc}") from exc
    if not links:
        raise NetworkParseError("no [links] section or no links defined")
    return Network(tuple(links), tuple(ods), tuple(routes))


# ---------------------------------------------------------------------------
# routes

def enumerate_routes(net: Network) -> RouteSet:
    """Enumerate simple directed paths per OD pair.

    Depth-first search from the origin to unvisited nodes, so each route
    is a simple path to the destination by construction, ranked by
    free-flow time with the link-id sequence as tie-break, and truncated
    to MAX_ROUTES_PER_OD (read at call time).  Deterministic: the same
    network always yields the same RouteSet.
    """
    out: dict[int, list[Link]] = {}
    for l in net.links:
        out.setdefault(l.tail, []).append(l)
    for succs in out.values():
        succs.sort(key=lambda l: l.id)

    routes: list[Route] = []
    for oi, od in enumerate(net.od_pairs):
        found: list[tuple[float, tuple[int, ...]]] = []

        def dfs(node, visited, path_ids, t0_sum):
            if node == od.destination:
                found.append((t0_sum, tuple(path_ids)))
                return
            for l in out.get(node, ()):
                if l.head not in visited:
                    visited.add(l.head)
                    path_ids.append(l.id)
                    dfs(l.head, visited, path_ids, t0_sum + l.t0)
                    path_ids.pop()
                    visited.remove(l.head)

        dfs(od.origin, {od.origin}, [], 0.0)
        found.sort(key=lambda fr: (fr[0], fr[1]))
        routes.extend(Route(oi, ids) for _, ids in found[:MAX_ROUTES_PER_OD])
    return _assemble_route_set(net, routes)


def build_route_set(net: Network) -> RouteSet:
    """RouteSet from the network's explicit routes if present, else enumeration;
    NetworkValidationError if an OD pair with positive demand gets no route.

    Each OD pair listed, even twice, gets its own copy of every explicit
    route with its end nodes, in row order, as enumeration gives it its own
    routes; so rows equal to the enumerated routes give the same RouteSet."""
    if net.preset_routes:
        ends = [_explicit_route_ends(net, seq) for seq in net.preset_routes]
        return _assemble_route_set(net, [
            Route(oi, seq) for oi, od in enumerate(net.od_pairs)
            for seq, end in zip(net.preset_routes, ends)
            if end == (od.origin, od.destination)])
    return enumerate_routes(net)


def _explicit_route_ends(net: Network, seq: tuple[int, ...]) -> tuple[int, int]:
    """The end nodes of an explicit link-id sequence; NetworkValidationError
    unless they are a listed OD pair's, its links are contiguous and no node
    repeats."""
    links = [net.link_by_id(lid) for lid in seq]
    origin, dest = links[0].tail, links[-1].head
    if not any(od.origin == origin and od.destination == dest for od in net.od_pairs):
        raise NetworkValidationError(
            f"explicit route {seq} connects {origin}->{dest}, not a listed OD pair")
    if any(prev.head != nxt.tail for prev, nxt in zip(links, links[1:])):
        raise NetworkValidationError(f"route {seq} is not contiguous")
    nodes = [origin] + [l.head for l in links]
    if len(set(nodes)) != len(nodes):
        raise NetworkValidationError(f"route {seq} repeats a node")
    return origin, dest


def _assemble_route_set(net: Network, routes: list[Route]) -> RouteSet:
    m = len(routes)
    row = {l.id: i for i, l in enumerate(net.links)}
    delta = np.zeros((net.n_links, m))
    lam = np.zeros((len(net.od_pairs), m))
    for k, r in enumerate(routes):
        for lid in r.link_ids:
            delta[row[lid], k] = 1.0
        lam[r.od_index, k] = 1.0
    for od, n_routes in zip(net.od_pairs, lam.sum(axis=1)):
        if od.demand > 0 and n_routes == 0:
            raise NetworkValidationError(
                f"OD {od.origin}->{od.destination} has demand {od.demand} but no route")
    return RouteSet(tuple(routes), delta, lam)


# ---------------------------------------------------------------------------
# flows

def link_flows(rs: RouteSet, f: np.ndarray) -> np.ndarray:
    """Aggregate route flows to link flows: v_a = sum_k f_k * delta[a, k]."""
    f = np.asarray(f, dtype=float)
    if f.shape != (rs.n_routes,):
        raise ValueError(f"flow vector has shape {f.shape}, expected ({rs.n_routes},)")
    return rs.delta @ f


def check_feasible(rs: RouteSet, f: np.ndarray, net: Network,
                   tol: float = 1e-9) -> FeasibilityReport:
    """Demand-conservation and nonnegativity report for a route-flow vector."""
    f = np.asarray(f, dtype=float)
    q = np.array([od.demand for od in net.od_pairs])
    residuals = np.abs(rs.lambda_inc @ f - q)
    min_flow = float(f.min()) if f.size else 0.0
    feasible = bool(np.all(residuals <= tol) and min_flow >= -tol)
    return FeasibilityReport(residuals, min_flow, feasible)
