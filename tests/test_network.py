from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmte import network
from cmte.network import (Link, Network, NetworkParseError, NetworkValidationError,
                          ODPair, build_route_set, check_feasible, enumerate_routes,
                          link_flows, load_network)
from cmte.presets import (parallel_links_network, standin_network,
                          standin_network_text)

SINGLE_LINK_DOC = """
[links]
1 1 2 10 1000 1
[od]
1 2 100
"""


class TestLoadNetwork:
    def test_minimal(self):
        net = load_network(SINGLE_LINK_DOC)
        assert net.n_links == 1
        assert net.od_pairs[0].demand == 100.0
        assert net.links[0].theta == 1.0

    def test_standin_roundtrip(self):
        # the serialized stand-in parses back to the programmatic builder
        net = load_network(standin_network_text())
        ref = standin_network()
        assert net.links == ref.links
        assert net.od_pairs == ref.od_pairs

    def test_standin_shape(self):
        net = load_network(standin_network_text())
        assert net.n_links == 13
        assert all(l.theta == 0.8 for l in net.links)

    def test_comments_and_commas(self):
        net = load_network("[links]\n1, 1, 2, 10, 1000, 0.8  # a link\n[od]\n1 2 50\n")
        assert net.links[0].cap_design == 1000.0

    def test_theta_zero_rejected(self):
        doc = SINGLE_LINK_DOC.replace("10 1000 1", "10 1000 0")
        with pytest.raises(NetworkValidationError, match="theta"):
            load_network(doc)

    def test_parse_error_carries_line(self):
        with pytest.raises(NetworkParseError, match="line 3"):
            load_network("[links]\n1 1 2 10 1000 1\nbogus row here\n")

    def test_data_before_section(self):
        with pytest.raises(NetworkParseError, match="section"):
            load_network("1 1 2 10 1000 1\n")

    def test_negative_demand(self):
        with pytest.raises(NetworkValidationError, match="demand"):
            load_network("[links]\n1 1 2 10 1000 1\n[od]\n1 2 -5\n")

    def test_unreachable_od(self):
        with pytest.raises(NetworkValidationError, match="no directed path"):
            load_network("[links]\n1 1 2 10 1000 1\n[od]\n2 1 100\n")

    def test_od_to_itself_rejected(self):
        with pytest.raises(NetworkValidationError, match="line 4: OD 1->1: origin and"):
            load_network("[links]\n1 1 2 10 1000 1\n[od]\n1 1 100\n")

    def test_explicit_route_naming_a_missing_link(self):
        doc = ("[links]\n1 1 2 10 1000 0.8\n2 1 2 12 1000 0.8\n"
               "[od]\n1 2 500\n[routes]\n1\n7\n")
        with pytest.raises(NetworkValidationError, match="names link 7"):
            load_network(doc)

    def test_empty_explicit_route(self):
        with pytest.raises(NetworkValidationError, match="names no link"):
            load_network("[links]\n1 1 2 10 1000 0.8\n[od]\n1 2 100\n[routes]\n,\n")

    def test_explicit_routes_must_cover_every_od_with_demand(self):
        doc = ("[links]\n1 1 2 10 1000 0.8\n2 1 2 12 1000 0.8\n3 3 2 10 1000 0.8\n"
               "[od]\n1 2 500\n3 2 400\n[routes]\n1\n2\n")
        with pytest.raises(NetworkValidationError, match="3->2 has demand 400.0 but no route"):
            build_route_set(load_network(doc))
        # an OD pair without demand needs no route
        rs = build_route_set(load_network(doc.replace("3 2 400", "3 2 0")))
        assert rs.n_routes == 2

    def test_explicit_routes_section(self):
        doc = standin_network_text() + "\n[routes]\n1 4 9 12 13\n2 6 10 12 13\n"
        net = load_network(doc)
        rs = build_route_set(net)
        assert [r.link_ids for r in rs.routes] == [(1, 4, 9, 12, 13), (2, 6, 10, 12, 13)]

    def test_od_pair_listed_twice_gets_each_explicit_route_twice(self):
        # each listing has its own routes, with or without [routes]
        doc = ("[links]\n1 1 2 10 1000 0.8\n2 1 2 12 1000 0.8\n"
               "[od]\n1 2 500\n1 2 300\n")
        explicit = build_route_set(load_network(doc + "[routes]\n1\n2\n"))
        assert [(r.od_index, r.link_ids) for r in explicit.routes] == [
            (0, (1,)), (0, (2,)), (1, (1,)), (1, (2,))]
        assert_same_route_set(explicit, enumerate_routes(load_network(doc)))


@st.composite
def small_networks(draw):
    """A multigraph on at most 5 nodes and OD pairs drawn among its connected
    node pairs, one of them sometimes listed twice."""
    n_nodes = draw(st.integers(2, 5))
    node = st.integers(1, n_nodes)
    arcs = draw(st.lists(st.tuples(node, node).filter(lambda a: a[0] != a[1]),
                         min_size=1, max_size=10))
    links = tuple(Link(i, t, h, draw(st.floats(1.0, 20.0)), 1000.0, 0.8)
                  for i, (t, h) in enumerate(arcs, start=1))
    reach = set(arcs)
    for k in range(1, n_nodes + 1):  # transitive closure (Warshall)
        reach |= {(i, j) for i, a in reach if a == k for b, j in reach if b == k}
    pairs = sorted((o, d) for o, d in reach if o != d)
    ods = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    ods += ods[:draw(st.integers(0, 1))]
    return Network(links, tuple(ODPair(o, d, 100.0) for o, d in ods))


def assert_same_route_set(a, b):
    assert a.routes == b.routes
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.lambda_inc, b.lambda_inc)


class TestEnumerateRoutes:
    @given(small_networks())
    def test_explicit_enumerated_routes_give_the_same_route_set(self, net):
        # the enumerated link sequences as [routes] rows, each row once
        rs = enumerate_routes(net)
        rows = tuple(dict.fromkeys(r.link_ids for r in rs.routes))
        assert_same_route_set(build_route_set(replace(net, preset_routes=rows)), rs)

    @given(small_networks())
    def test_every_route_is_a_simple_path_of_its_od_pair(self, net):
        # what build_route_set relies on instead of checking each route again
        rs = enumerate_routes(net)
        assert {r.od_index for r in rs.routes} == set(range(len(net.od_pairs)))
        for r in rs.routes:
            od = net.od_pairs[r.od_index]
            links = [net.link_by_id(lid) for lid in r.link_ids]
            assert links[0].tail == od.origin and links[-1].head == od.destination
            assert all(a.head == b.tail for a, b in zip(links, links[1:]))
            nodes = [od.origin] + [l.head for l in links]
            assert len(set(nodes)) == len(nodes)

    def test_parallel_links(self):
        net = parallel_links_network(n_links=2)
        rs = enumerate_routes(net)
        assert rs.n_routes == 2

    def test_standin_has_six_routes(self):
        # oracle: exhaustive DFS over the stand-in graph finds exactly 6 paths
        net = standin_network()
        rs = enumerate_routes(net)
        assert rs.n_routes == 6
        assert {r.link_ids for r in rs.routes} == {
            (1, 3, 7, 11, 13), (1, 4, 8, 11, 13), (1, 4, 9, 12, 13),
            (2, 5, 8, 11, 13), (2, 5, 9, 12, 13), (2, 6, 10, 12, 13)}

    def test_ranked_by_free_flow_time(self):
        net = standin_network()
        rs = enumerate_routes(net)
        t0s = [sum(net.link_by_id(l).t0 for l in r.link_ids) for r in rs.routes]
        assert t0s == sorted(t0s)

    def test_truncation(self, monkeypatch):
        # the limit is read at call time and keeps the fastest routes
        full = enumerate_routes(standin_network())
        monkeypatch.setattr(network, "MAX_ROUTES_PER_OD", 3)
        rs = enumerate_routes(standin_network())
        assert rs.n_routes == 3
        assert rs.routes == full.routes[:3]

    def test_deterministic(self):
        a = enumerate_routes(standin_network())
        b = enumerate_routes(standin_network())
        assert a.routes == b.routes
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.lambda_inc, b.lambda_inc)

    def test_incidence_structure(self):
        rs = enumerate_routes(standin_network())
        # each route column has a 1 per traversed link, one OD row each
        assert rs.delta.shape == (13, 6)
        assert np.all(rs.lambda_inc.sum(axis=0) == 1.0)

    def test_od_routes_cached_per_route_set(self):
        rs = build_route_set(load_network(standin_network_text() + "\n[od]\n3 9 800\n"))
        assert [ks.tolist() for ks in rs.od_routes] == [
            np.flatnonzero(row).tolist() for row in rs.lambda_inc]
        assert rs.od_routes is rs.od_routes
        swapped = replace(rs, lambda_inc=rs.lambda_inc[::-1])
        assert swapped.od_routes is not rs.od_routes
        assert [ks.tolist() for ks in swapped.od_routes] == [
            ks.tolist() for ks in rs.od_routes[::-1]]


class TestLinkById:
    def test_finds_every_link(self):
        net = standin_network()
        assert all(net.link_by_id(l.id) is l for l in net.links)

    def test_missing_id(self):
        with pytest.raises(KeyError, match="no link with id 99"):
            standin_network().link_by_id(99)


class TestLinkFlows:
    def setup_method(self):
        self.net = standin_network()
        self.rs = build_route_set(self.net)
        self.row = {l.id: i for i, l in enumerate(self.net.links)}

    def test_zero(self):
        assert np.all(link_flows(self.rs, np.zeros(6)) == 0.0)

    def test_single_route(self):
        f = np.zeros(6)
        f[0] = 100.0  # route (1, 4, 9, 12, 13)
        v = link_flows(self.rs, f)
        for lid in (1, 4, 9, 12, 13):
            assert v[self.row[lid]] == 100.0
        assert v.sum() == 500.0

    def test_shared_link_additivity(self):
        f = np.zeros(6)
        f[0], f[1] = 50.0, 70.0  # both traverse links 9, 12, 13
        v = link_flows(self.rs, f)
        assert v[self.row[13]] == 120.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            link_flows(self.rs, np.zeros(5))

    @given(st.lists(st.floats(0, 1000), min_size=6, max_size=6),
           st.lists(st.floats(0, 1000), min_size=6, max_size=6),
           st.floats(0, 5), st.floats(0, 5))
    def test_linearity(self, f1, f2, a, b):
        f1, f2 = np.array(f1), np.array(f2)
        lhs = link_flows(self.rs, a * f1 + b * f2)
        rhs = a * link_flows(self.rs, f1) + b * link_flows(self.rs, f2)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
        assert np.all(link_flows(self.rs, f1) >= 0.0)


class TestCheckFeasible:
    def setup_method(self):
        self.net = standin_network()
        self.rs = build_route_set(self.net)

    def test_equal_split_feasible(self):
        f = np.full(6, 4000.0 / 6)
        rep = check_feasible(self.rs, f, self.net, tol=1e-9)
        assert rep.feasible
        assert rep.demand_residuals[0] < 1e-9

    def test_demand_shortfall(self):
        f = np.full(6, 3999.0 / 6)
        rep = check_feasible(self.rs, f, self.net, tol=1e-6)
        assert not rep.feasible
        assert rep.demand_residuals[0] == pytest.approx(1.0)

    def test_tiny_negative_within_tol(self):
        f = np.full(6, 4000.0 / 6)
        f[0] += f[3] + 1e-12
        f[3] = -1e-12
        rep = check_feasible(self.rs, f, self.net, tol=1e-9)
        assert rep.feasible
        assert rep.min_flow == pytest.approx(-1e-12)
