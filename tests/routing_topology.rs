//! Routing and topology behaviour: ECMP spreading, reroute around failed
//! links, fat-tree reachability.

mod common;

use common::raw_params;
use dsh_bench::fabric::{self, FctExperiment};
use dsh_bench::fig17::{self, Cell, Fig17Experiment};
use dsh_core::Scheme;
use dsh_net::topology::{fat_tree, leaf_spine, LeafSpineShape};
use dsh_net::{FaultPlan, FlowSpec, Network, NodeId};
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
/// forwards toward host `h` on every live port whose switch neighbour is
/// one hop closer to `h`'s ToR, in port order, and the ToR delivers on
/// the access port. An unreachable host has no candidates.
fn reference_candidates(net: &Network, s: NodeId, h: NodeId) -> Vec<usize> {
    let is_switch = |n: NodeId| net.route_table(n).is_some();
    let live = |n: NodeId| net.ports(n).iter().enumerate().filter(|(_, p)| p.is_link_up());
    let Some((_, up)) = live(h).next() else { return Vec::new() };
    let tor = up.peer;
    if s == tor {
        return live(s).filter(|(_, p)| p.peer == h).map(|(i, _)| i).take(1).collect();
    }
    let mut dist = vec![usize::MAX; net.node_count()];
    dist[tor.0] = 0;
    let mut queue = VecDeque::from([tor]);
    while let Some(u) = queue.pop_front() {
        for (_, p) in live(u) {
            if is_switch(p.peer) && dist[p.peer.0] == usize::MAX {
                dist[p.peer.0] = dist[u.0] + 1;
                queue.push_back(p.peer);
            }
        }
    }
    if dist[s.0] == usize::MAX {
        return Vec::new();
    }
    live(s)
        .filter(|(_, p)| is_switch(p.peer) && dist[p.peer.0].checked_add(1) == Some(dist[s.0]))
        .map(|(i, _)| i)
        .collect()
}

/// Checks every (switch, destination host) pair of the live topology
/// against the reference rule; returns how many pairs have a route.
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

#[test]
fn flat_route_tables_match_a_per_host_bfs() {
    // The fig. 14 and fig. 17 leaf-spines and a k=4 fat-tree, as built.
    let (fig14, _, _) = fabric::loaded(&FctExperiment::small(Scheme::Dsh, CcKind::Dcqcn));
    assert!(assert_routes_match_reference(&fig14, "fig14 leaf-spine") > 0);
    let (fig17, _) = fig17::loaded(&Fig17Experiment::small(Cell::Dsh));
    assert!(assert_routes_match_reference(&fig17, "fig17 leaf-spine") > 0);
    let ft = fat_tree(raw_params(Scheme::Dsh), 4, Bandwidth::from_gbps(100), Delta::from_us(2));
    assert!(assert_routes_match_reference(&ft.builder.build(), "k=4 fat-tree") > 0);
    // The fig. 12 fabric with its two links removed at build time.
    let mut ls = leaf_spine(raw_params(Scheme::Dsh), LeafSpineShape::paper_deadlock());
    let (s0, s1, l0, l3) = (ls.spines[0], ls.spines[1], ls.leaves[0], ls.leaves[3]);
    ls.builder.remove_link(s0, l3);
    ls.builder.remove_link(s1, l0);
    assert!(assert_routes_match_reference(&ls.builder.build(), "fig12 as built") > 0);
}

#[test]
fn flat_route_tables_match_a_per_host_bfs_after_every_fault() {
    // Fig. 12's two failures injected at run time, one host access link
    // cut (an unreachable destination), then every link repaired.
    let ls = leaf_spine(raw_params(Scheme::Dsh), LeafSpineShape::paper_deadlock());
    let (s0, s1, l0, l3) = (ls.spines[0], ls.spines[1], ls.leaves[0], ls.leaves[3]);
    let host = ls.hosts[3][5];
    let mut net = ls.builder.build();
    let us = Time::from_us;
    let plan = FaultPlan::new(1)
        .link_down(us(10), s0, l3)
        .link_down(us(20), s1, l0)
        .link_down(us(30), host, l3)
        .link_up(us(40), s0, l3)
        .link_up(us(50), host, l3)
        .link_up(us(60), s1, l0);
    let times: Vec<Time> = plan.events().iter().map(|e| e.at).collect();
    net.set_fault_plan(plan);
    let mut sim = net.into_sim();
    let full = assert_routes_match_reference(sim.model(), "before the faults");
    let mut routed = Vec::new();
    for t in times {
        sim.run_until(t);
        routed.push(assert_routes_match_reference(sim.model(), &format!("after the fault at {t}")));
    }
    // The access cut removes one destination from every switch; every
    // repair restores the full table.
    assert_eq!(routed[2], routed[1] - 6, "{routed:?}");
    assert_eq!(routed[5], full, "{routed:?}");
}
