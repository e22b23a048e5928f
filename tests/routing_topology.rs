//! Routing and topology behaviour: ECMP spreading, reroute around links
//! removed before the build, fat-tree reachability, and the port table
//! the routes are computed from.

mod common;

use common::raw_params;
use dsh_bench::fabric::{self, FctExperiment};
use dsh_bench::fig17::{self, Cell, Fig17Experiment};
use dsh_core::Scheme;
use dsh_net::topology::{fat_tree, leaf_spine, FatTree, LeafSpine, LeafSpineShape};
use dsh_net::{EgressPort, FlowSpec, Network, NodeId};
use dsh_simcore::{Bandwidth, Delta, Time};
use dsh_transport::CcKind;
use std::collections::VecDeque;

#[test]
fn ecmp_spreads_flows_across_spines() {
    // 2 racks x 1 host, 4 spines: many flows between the racks must use
    // more than one spine (per-flow hashing).
    let shape = LeafSpineShape {
        leaves: 2,
        spines: 4,
        hosts_per_leaf: 1,
        downlink: Bandwidth::from_gbps(100),
        uplink: Bandwidth::from_gbps(100),
        link_delay: Delta::from_us(2),
    };
    let ls = leaf_spine(raw_params(Scheme::Dsh), shape);
    let src = ls.hosts[0][0];
    let dst = ls.hosts[1][0];
    let mut net = ls.builder.build();
    // 64 one-packet flows; if ECMP hashed them all to one spine the
    // completion span collapses to serial transmission on one uplink.
    for i in 0..64 {
        net.add_flow(FlowSpec {
            src,
            dst,
            size: 1500,
            class: (i % 7) as u8,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
    }
    let mut sim = net.into_sim();
    sim.run_until(Time::from_ms(5));
    let net = sim.into_model();
    assert_eq!(net.fct_records().len(), 64);
    assert_eq!(net.data_drops(), 0);
}

#[test]
fn traffic_reroutes_around_a_failed_spine_link() {
    let shape = LeafSpineShape {
        leaves: 2,
        spines: 2,
        hosts_per_leaf: 2,
        downlink: Bandwidth::from_gbps(100),
        uplink: Bandwidth::from_gbps(100),
        link_delay: Delta::from_us(2),
    };
    let mut ls = leaf_spine(raw_params(Scheme::Dsh), shape);
    // Fail L0-S0: everything L0<->L1 must go via S1.
    let (l0, s0) = (ls.leaves[0], ls.spines[0]);
    ls.builder.remove_link(l0, s0);
    let src = ls.hosts[0][0];
    let dst = ls.hosts[1][0];
    let mut net = ls.builder.build();
    net.add_flow(FlowSpec {
        src,
        dst,
        size: 500_000,
        class: 0,
        start: Time::ZERO,
        cc: CcKind::Uncontrolled,
    });
    let mut sim = net.into_sim();
    sim.run_until(Time::from_ms(5));
    let net = sim.into_model();
    assert_eq!(net.fct_records().len(), 1, "flow must complete via the surviving spine");
    assert_eq!(net.data_drops(), 0);
}

#[test]
fn bounce_paths_form_after_the_fig12_failures() {
    // With S0-L3 and S1-L0 failed, L0->L3 must take a 4-hop bounce path
    // (L0 -> S0 -> L1|L2 -> S1 -> L3). The flow still completes, and its
    // FCT reflects the extra hops.
    let mut ls = leaf_spine(raw_params(Scheme::Dsh), LeafSpineShape::paper_deadlock());
    let (s0, s1) = (ls.spines[0], ls.spines[1]);
    let (l0, l3) = (ls.leaves[0], ls.leaves[3]);
    ls.builder.remove_link(s0, l3);
    ls.builder.remove_link(s1, l0);
    let src = ls.hosts[0][0];
    let dst = ls.hosts[3][0];
    let mut net = ls.builder.build();
    net.add_flow(FlowSpec {
        src,
        dst,
        size: 1500,
        class: 0,
        start: Time::ZERO,
        cc: CcKind::Uncontrolled,
    });
    let mut sim = net.into_sim();
    sim.run_until(Time::from_ms(5));
    let net = sim.into_model();
    assert_eq!(net.fct_records().len(), 1);
    let fct = net.fct_records()[0].fct();
    // Five links (host->L0->S0->Lx->S1->L3->host is 6 links): at least
    // 6 propagation delays of 2 us.
    assert!(fct >= Delta::from_us(12), "bounce path too short: {fct}");
}

#[test]
fn fat_tree_all_pairs_reachable_across_pods() {
    let ft = fat_tree(raw_params(Scheme::Dsh), 4, Bandwidth::from_gbps(100), Delta::from_us(2));
    let hosts = ft.all_hosts();
    let mut net = ft.builder.build();
    // One flow from every pod to the next pod.
    let per_pod = hosts.len() / 4;
    for pod in 0..4 {
        let src = hosts[pod * per_pod];
        let dst = hosts[((pod + 1) % 4) * per_pod + 1];
        net.add_flow(FlowSpec {
            src,
            dst,
            size: 64_000,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
    }
    let mut sim = net.into_sim();
    sim.run_until(Time::from_ms(5));
    let net = sim.into_model();
    assert_eq!(net.fct_records().len(), 4, "cross-pod flows must complete");
    assert_eq!(net.data_drops(), 0);
}

#[test]
fn intra_pod_and_intra_rack_paths_work() {
    let ft = fat_tree(raw_params(Scheme::Dsh), 4, Bandwidth::from_gbps(100), Delta::from_us(2));
    let hosts = ft.all_hosts();
    let mut net = ft.builder.build();
    // Same edge switch (hosts 0,1) and same pod different edge (0, 2).
    net.add_flow(FlowSpec {
        src: hosts[0],
        dst: hosts[1],
        size: 1500,
        class: 0,
        start: Time::ZERO,
        cc: CcKind::Uncontrolled,
    });
    net.add_flow(FlowSpec {
        src: hosts[0],
        dst: hosts[2],
        size: 1500,
        class: 1,
        start: Time::ZERO,
        cc: CcKind::Uncontrolled,
    });
    let mut sim = net.into_sim();
    sim.run_until(Time::from_ms(2));
    let net = sim.into_model();
    let recs = net.fct_records();
    assert_eq!(recs.len(), 2);
    // Intra-rack (2 links) is faster than intra-pod (4 links).
    let same_edge = recs.iter().find(|r| r.flow.0 == 0).unwrap().fct();
    let same_pod = recs.iter().find(|r| r.flow.0 == 1).unwrap().fct();
    assert!(same_edge < same_pod, "{same_edge} !< {same_pod}");
}

/// The reference routing rule, one BFS per destination host: switch `s`
/// forwards toward host `h` on every port whose switch neighbour is one
/// hop closer to `h`'s ToR, in port order, and the ToR delivers on the
/// access port. A host without a link has no candidates.
fn reference_candidates(net: &Network, s: NodeId, h: NodeId) -> Vec<usize> {
    let is_switch = |n: NodeId| net.route_table(n).is_some();
    let ports = |n: NodeId| net.ports(n).iter().enumerate();
    let Some((_, up)) = ports(h).next() else { return Vec::new() };
    let tor = up.peer;
    if s == tor {
        return ports(s).filter(|(_, p)| p.peer == h).map(|(i, _)| i).take(1).collect();
    }
    let mut dist = vec![usize::MAX; net.node_count()];
    dist[tor.0] = 0;
    let mut queue = VecDeque::from([tor]);
    while let Some(u) = queue.pop_front() {
        for (_, p) in ports(u) {
            if is_switch(p.peer) && dist[p.peer.0] == usize::MAX {
                dist[p.peer.0] = dist[u.0] + 1;
                queue.push_back(p.peer);
            }
        }
    }
    if dist[s.0] == usize::MAX {
        return Vec::new();
    }
    ports(s)
        .filter(|(_, p)| is_switch(p.peer) && dist[p.peer.0].checked_add(1) == Some(dist[s.0]))
        .map(|(i, _)| i)
        .collect()
}

/// Checks every (switch, destination host) pair of the topology against
/// the reference rule; returns how many pairs have a route.
fn assert_routes_match_reference(net: &Network, what: &str) -> usize {
    let nodes: Vec<NodeId> = (0..net.node_count()).map(NodeId).collect();
    let hosts: Vec<NodeId> =
        nodes.iter().copied().filter(|&n| net.route_table(n).is_none()).collect();
    let mut routed = 0;
    for &s in &nodes {
        let Some(table) = net.route_table(s) else { continue };
        for &h in &hosts {
            let flat: Vec<usize> = table.candidates(h.0).collect();
            assert_eq!(flat, reference_candidates(net, s, h), "{what}: switch {s} toward host {h}");
            routed += usize::from(!flat.is_empty());
        }
    }
    routed
}

/// Checks the port table's layout against `links`, the fabric's links in
/// the order they were added: every node's ports are one contiguous slice
/// of a single table, node after node, each port's `index()` is its
/// position in that table, a node's ports face its neighbours in link
/// order, and every port's peer port points back at it.
fn assert_port_table(net: &Network, links: &[(NodeId, NodeId)], what: &str) {
    let entry = std::mem::size_of::<EgressPort>();
    let mut position = 0;
    let mut table = None;
    for n in (0..net.node_count()).map(NodeId) {
        let ports = net.ports(n);
        let linked: Vec<NodeId> = links
            .iter()
            .filter_map(|&(a, b)| (a == n).then_some(b).or((b == n).then_some(a)))
            .collect();
        let peers: Vec<NodeId> = ports.iter().map(|p| p.peer).collect();
        assert_eq!(peers, linked, "{what}: {n}'s ports in link order");
        for (i, p) in ports.iter().enumerate() {
            assert_eq!(p.index() as usize, position, "{what}: index of port {i} of {n}");
            let addr = std::ptr::from_ref(p) as usize;
            let start = *table.get_or_insert(addr - position * entry);
            assert_eq!(addr, start + position * entry, "{what}: port {i} of {n} is in the table");
            let back = &net.ports(p.peer)[p.peer_port];
            assert_eq!((back.peer, back.peer_port), (n, i), "{what}: peer of port {i} of {n}");
            position += 1;
        }
    }
    assert_eq!(position, 2 * links.len(), "{what}: two ports per link");
}

/// A leaf-spine's links in the order `leaf_spine` adds them, less the
/// `removed` ones.
fn leaf_spine_links(ls: &LeafSpine, removed: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let access =
        ls.leaves.iter().zip(&ls.hosts).flat_map(|(&l, rack)| rack.iter().map(move |&h| (h, l)));
    let fabric = ls.leaves.iter().flat_map(|&l| ls.spines.iter().map(move |&s| (l, s)));
    access
        .chain(fabric)
        .filter(|&(a, b)| !removed.iter().any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a)))
        .collect()
}

/// A fat-tree's links in the order `fat_tree` adds them.
fn fat_tree_links(ft: &FatTree) -> Vec<(NodeId, NodeId)> {
    let half = ft.edges[0].len();
    let mut links = Vec::new();
    for pod in 0..ft.edges.len() {
        let (edges, aggs) = (&ft.edges[pod], &ft.aggs[pod]);
        for (e, &edge) in edges.iter().enumerate() {
            links.extend(ft.hosts[pod][e * half..][..half].iter().map(|&h| (h, edge)));
        }
        links.extend(edges.iter().flat_map(|&e| aggs.iter().map(move |&a| (e, a))));
        for (i, &a) in aggs.iter().enumerate() {
            links.extend(ft.cores[i * half..][..half].iter().map(|&c| (a, c)));
        }
    }
    links
}

#[test]
fn flat_route_tables_match_a_per_host_bfs() {
    // The fig. 14 and fig. 17 leaf-spines and a k=4 fat-tree, as built.
    let (fig14, _, _) = fabric::loaded(&FctExperiment::small(Scheme::Dsh, CcKind::Dcqcn));
    assert!(assert_routes_match_reference(&fig14, "fig14 leaf-spine") > 0);
    let (fig17, _) = fig17::loaded(&Fig17Experiment::small(Cell::Dsh));
    assert!(assert_routes_match_reference(&fig17, "fig17 leaf-spine") > 0);
    let ft = fat_tree(raw_params(Scheme::Dsh), 4, Bandwidth::from_gbps(100), Delta::from_us(2));
    let links = fat_tree_links(&ft);
    let ft = ft.builder.build();
    assert_port_table(&ft, &links, "k=4 fat-tree");
    assert!(assert_routes_match_reference(&ft, "k=4 fat-tree") > 0);
    // The fig. 12 fabric with its two links removed at build time.
    let mut ls = leaf_spine(raw_params(Scheme::Dsh), LeafSpineShape::paper_deadlock());
    let (s0, s1, l0, l3) = (ls.spines[0], ls.spines[1], ls.leaves[0], ls.leaves[3]);
    let removed = [(s0, l3), (s1, l0)];
    for (a, b) in removed {
        ls.builder.remove_link(a, b);
    }
    let links = leaf_spine_links(&ls, &removed);
    let fig12 = ls.builder.build();
    assert_port_table(&fig12, &links, "fig12 as built");
    assert!(assert_routes_match_reference(&fig12, "fig12 as built") > 0);
}

#[test]
fn flat_route_tables_match_a_per_host_bfs_after_every_fault() {
    // Link failures are links removed before the build. First fig. 12's
    // two failures and then one host access link cut (an unreachable
    // destination, whose host keeps no port), applied cumulatively.
    let fig12 = || leaf_spine(raw_params(Scheme::Dsh), LeafSpineShape::paper_deadlock());
    let ls = fig12();
    let (s0, s1, l0, l3) = (ls.spines[0], ls.spines[1], ls.leaves[0], ls.leaves[3]);
    let faults = [(s0, l3), (s1, l0), (ls.hosts[3][5], l3)];
    let routed: Vec<usize> = (0..=faults.len())
        .map(|n| {
            let mut ls = fig12();
            for &(a, b) in &faults[..n] {
                ls.builder.remove_link(a, b);
            }
            let links = leaf_spine_links(&ls, &faults[..n]);
            let (net, what) = (ls.builder.build(), format!("after {n} faults"));
            assert_port_table(&net, &links, &what);
            assert_routes_match_reference(&net, &what)
        })
        .collect();
    // Bounce paths keep every host reachable after the two fabric
    // failures; the access cut removes one destination from each of the
    // six switches.
    let full = routed[0];
    assert_eq!(routed, [full, full, full, full - 6]);

    // Then every single link of the fabric failing on its own: an uplink
    // failure leaves every host routed, an access link failure cuts off
    // exactly its host.
    let intact = ls.builder.build();
    let is_switch = |n: NodeId| intact.route_table(n).is_some();
    let mut links = Vec::new();
    for a in (0..intact.node_count()).map(NodeId).filter(|&a| is_switch(a)) {
        for p in intact.ports(a) {
            if a.0 < p.peer.0 || !is_switch(p.peer) {
                links.push((a, p.peer));
            }
        }
    }
    for (a, b) in links {
        let mut ls = fig12();
        ls.builder.remove_link(a, b);
        let cut = 6 * usize::from(!is_switch(a) || !is_switch(b));
        let what = format!("with link {a}-{b} failed");
        assert_eq!(assert_routes_match_reference(&ls.builder.build(), &what), full - cut, "{what}");
    }
}
