//! Shortest-path ECMP routing over the switch graph.
//!
//! For every destination ToR we run a BFS over the (possibly degraded)
//! switch topology; each switch's next hops toward a host are the
//! neighbours strictly closer to the host's ToR. ECMP selection hashes the
//! flow id so a flow stays on one path (per-flow ECMP, as in the paper's
//! setup).
//!
//! After link failures this "local shortest path" rule produces detour
//! (leaf-bounce) paths — e.g. the paper's Fig. 12 scenario, where two
//! failures force `S0→L1→S1` style bounces and create the cyclic buffer
//! dependency that deadlocks SIH.

use crate::ids::{FlowId, NodeId};
use std::collections::VecDeque;

/// Per-switch routing table: `routes[host] -> candidate egress ports`.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    routes: Vec<Vec<usize>>,
}

impl RouteTable {
    /// Builds an empty table sized for `num_hosts` destinations.
    #[must_use]
    pub fn new(num_hosts: usize) -> Self {
        RouteTable { routes: vec![Vec::new(); num_hosts] }
    }

    /// Sets the candidate egress ports toward `host`.
    pub fn set(&mut self, host: usize, ports: Vec<usize>) {
        self.routes[host] = ports;
    }

    /// All candidate ports toward `host`.
    #[must_use]
    pub fn candidates(&self, host: usize) -> &[usize] {
        &self.routes[host]
    }

    /// Picks the ECMP port for `flow` toward `host`.
    ///
    /// # Panics
    ///
    /// Panics if the destination is unreachable (empty candidate set) —
    /// a topology construction bug.
    #[must_use]
    pub fn pick(&self, host: usize, flow: FlowId, node: NodeId) -> usize {
        self.try_pick(host, flow, node)
            .unwrap_or_else(|| panic!("no route from {node} to host {host}"))
    }

    /// Picks the ECMP port for `flow` toward `host`, or `None` when the
    /// destination is unreachable. Runtime link failures legitimately
    /// partition the fabric, so under an active fault plan an empty
    /// candidate set is a drop, not a bug.
    #[must_use]
    #[inline]
    pub fn try_pick(&self, host: usize, flow: FlowId, node: NodeId) -> Option<usize> {
        let c = &self.routes[host];
        match c.len() {
            0 => None,
            // A sole candidate needs no hash.
            1 => Some(c[0]),
            n => Some(c[ecmp_index(ecmp_hash(flow.0 as u64, node.0 as u64), n)]),
        }
    }
}

/// The candidate `hash` selects among `n`: `hash mod n`, taken as a mask
/// when `n` is a power of two.
#[inline]
fn ecmp_index(hash: u64, n: usize) -> usize {
    // Truncating to usize keeps the low bits, which is all a mask uses;
    // on 64-bit targets nothing is truncated.
    let h = hash as usize;
    if n.is_power_of_two() {
        h & (n - 1)
    } else {
        h % n
    }
}

/// Computes every node's routing table from the *live* topology.
///
/// `adj[n]` lists `(neighbour, egress port index)` pairs for each alive
/// link out of node `n` (insertion order = port order); `is_switch[n]`
/// marks switches. Hosts get empty tables. A host whose access link is
/// down (no live adjacency into a switch) is simply unreachable: every
/// switch's candidate set toward it stays empty until the link returns.
///
/// Shared by the topology builder (full adjacency at build time) and the
/// runtime fault handler (recompute after each `LinkDown`/`LinkUp`), so
/// build-time and post-repair routes are computed by one rule.
#[must_use]
pub fn compute_route_tables(is_switch: &[bool], adj: &[Vec<(usize, usize)>]) -> Vec<RouteTable> {
    let n = is_switch.len();
    // Switch-only adjacency for the BFS (hosts never transit traffic).
    let switch_adj: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            if !is_switch[u] {
                return Vec::new();
            }
            adj[u].iter().filter(|&&(v, _)| is_switch[v]).map(|&(v, _)| v).collect()
        })
        .collect();

    let mut tables: Vec<RouteTable> = (0..n).map(|_| RouteTable::new(n)).collect();
    for h in 0..n {
        if is_switch[h] {
            continue;
        }
        // The host's ToR is its (single-homed) live uplink peer.
        let Some(&(t, _)) = adj[h].iter().find(|&&(v, _)| is_switch[v]) else {
            continue; // access link down: unreachable until repaired
        };
        let dist = bfs_distances(&switch_adj, t);
        for s in 0..n {
            if !is_switch[s] {
                continue;
            }
            if s == t {
                // The ToR delivers on the access port itself.
                if let Some(&(_, p)) = adj[s].iter().find(|&&(v, _)| v == h) {
                    tables[s].set(h, vec![p]);
                }
            } else if dist[s] != usize::MAX {
                let cands: Vec<usize> = adj[s]
                    .iter()
                    // The reachability guard matters at runtime: a severed
                    // neighbour has dist MAX and `MAX + 1` would overflow.
                    .filter(|&&(v, _)| {
                        is_switch[v] && dist[v] != usize::MAX && dist[v] + 1 == dist[s]
                    })
                    .map(|&(_, p)| p)
                    .collect();
                tables[s].set(h, cands);
            }
        }
    }
    tables
}

/// Longest route the given live topology can produce, measured in switch
/// egress stamps (the unit [`dsh_transport::HOP_CAPACITY`] budgets): a
/// frame from a host behind ToR `t_src` to a host behind ToR `t_dst`
/// crosses `dist(t_src, t_dst) + 1` switches, and every one stamps the
/// frame once at dequeue. Returns 0 when no host pair is mutually
/// reachable.
///
/// Shared by `NetworkBuilder::build` and the runtime fault handler so a
/// topology (or a post-fault detour) whose diameter exceeds the inline
/// telemetry capacity fails loudly at (re)route time instead of panicking
/// mid-flight in `HopList::push`.
#[must_use]
pub fn max_route_hops(is_switch: &[bool], adj: &[Vec<(usize, usize)>]) -> usize {
    let n = is_switch.len();
    let switch_adj: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            if !is_switch[u] {
                return Vec::new();
            }
            adj[u].iter().filter(|&&(v, _)| is_switch[v]).map(|&(v, _)| v).collect()
        })
        .collect();
    // Only ToRs (switches with a live host behind them) terminate routes.
    let mut tors: Vec<usize> = (0..n)
        .filter(|&h| !is_switch[h])
        .filter_map(|h| adj[h].iter().find(|&&(v, _)| is_switch[v]).map(|&(t, _)| t))
        .collect();
    tors.sort_unstable();
    tors.dedup();
    let mut worst = 0;
    for &t in &tors {
        let dist = bfs_distances(&switch_adj, t);
        for &t2 in &tors {
            if dist[t2] != usize::MAX {
                worst = worst.max(dist[t2] + 1);
            }
        }
    }
    worst
}

/// Deterministic ECMP hash (SplitMix64 finalizer over flow ⊕ node).
#[must_use]
pub fn ecmp_hash(flow: u64, node: u64) -> u64 {
    let mut z = flow.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(node);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// BFS distances from `src` over an adjacency list; `usize::MAX` marks
/// unreachable nodes.
#[must_use]
pub fn bfs_distances(adj: &[Vec<usize>], src: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; adj.len()];
    dist[src] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_simple_line() {
        // 0 - 1 - 2
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        assert_eq!(bfs_distances(&adj, 0), vec![0, 1, 2]);
        assert_eq!(bfs_distances(&adj, 2), vec![2, 1, 0]);
    }

    #[test]
    fn bfs_unreachable() {
        let adj = vec![vec![1], vec![0], vec![]];
        assert_eq!(bfs_distances(&adj, 0)[2], usize::MAX);
    }

    #[test]
    fn ecmp_hash_spreads_flows() {
        let mut counts = [0usize; 4];
        for f in 0..4000u64 {
            counts[(ecmp_hash(f, 7) % 4) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn pick_is_stable_per_flow() {
        let mut t = RouteTable::new(1);
        t.set(0, vec![10, 11, 12]);
        let p1 = t.pick(0, FlowId(42), NodeId(3));
        let p2 = t.pick(0, FlowId(42), NodeId(3));
        assert_eq!(p1, p2);
        assert!(t.candidates(0).contains(&p1));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_pick_panics() {
        let t = RouteTable::new(1);
        let _ = t.pick(0, FlowId(0), NodeId(0));
    }

    #[test]
    fn ecmp_index_is_the_hash_modulo_the_candidate_count() {
        for f in 0..500u64 {
            let h = ecmp_hash(f, 3);
            for n in 1..=9 {
                assert_eq!(ecmp_index(h, n), (h as usize) % n, "flow {f}, {n} candidates");
            }
        }
    }

    #[test]
    fn try_pick_returns_none_instead_of_panicking() {
        let mut t = RouteTable::new(2);
        t.set(1, vec![4]);
        assert_eq!(t.try_pick(0, FlowId(0), NodeId(0)), None);
        assert_eq!(t.try_pick(1, FlowId(0), NodeId(0)), Some(4));
    }

    /// Two hosts (0, 1) under ToRs (2, 3) joined by spines (4, 5):
    /// classic 2x2 leaf-spine in miniature.
    fn leaf_spine_adj() -> (Vec<bool>, Vec<Vec<(usize, usize)>>) {
        let is_switch = vec![false, false, true, true, true, true];
        let adj = vec![
            vec![(2, 0)],                 // h0 -> ToR 2
            vec![(3, 0)],                 // h1 -> ToR 3
            vec![(0, 0), (4, 1), (5, 2)], // ToR 2
            vec![(1, 0), (4, 1), (5, 2)], // ToR 3
            vec![(2, 0), (3, 1)],         // spine 4
            vec![(2, 0), (3, 1)],         // spine 5
        ];
        (is_switch, adj)
    }

    #[test]
    fn compute_route_tables_ecmp_up_and_access_down() {
        let (is_switch, adj) = leaf_spine_adj();
        let tables = compute_route_tables(&is_switch, &adj);
        // ToR 2 reaches h0 on the access port and h1 via both spines.
        assert_eq!(tables[2].candidates(0), &[0]);
        assert_eq!(tables[2].candidates(1), &[1, 2]);
        // Spines deliver h1 straight down to ToR 3.
        assert_eq!(tables[4].candidates(1), &[1]);
        assert_eq!(tables[5].candidates(1), &[1]);
        // Hosts have no routes of their own.
        assert!(tables[0].candidates(1).is_empty());
    }

    #[test]
    fn compute_route_tables_reroutes_around_dead_spine_link() {
        let (is_switch, mut adj) = leaf_spine_adj();
        // Kill ToR 2 <-> spine 4 (both directions).
        adj[2].retain(|&(v, _)| v != 4);
        adj[4].retain(|&(v, _)| v != 2);
        let tables = compute_route_tables(&is_switch, &adj);
        // ToR 2 now reaches h1 only via spine 5 (port 2).
        assert_eq!(tables[2].candidates(1), &[2]);
        // Spine 4 lost its only edge toward ToR 2, so it reaches h0 by
        // the leaf bounce through ToR 3 (then spine 5, then ToR 2).
        assert_eq!(tables[4].candidates(0), &[1]);
    }

    #[test]
    fn max_route_hops_counts_switch_stamps() {
        let (is_switch, adj) = leaf_spine_adj();
        // h0 -> ToR 2 -> spine -> ToR 3 -> h1: three egress stamps.
        assert_eq!(max_route_hops(&is_switch, &adj), 3);
    }

    #[test]
    fn max_route_hops_grows_on_reroute_lengthened_path() {
        // Hosts 0/1 behind ToRs 2/3; the ToRs are joined directly and via
        // a three-switch detour (4-5-6): a ring in miniature.
        let is_switch = vec![false, false, true, true, true, true, true];
        let mut adj = vec![
            vec![(2, 0)],                 // h0 -> ToR 2
            vec![(3, 0)],                 // h1 -> ToR 3
            vec![(0, 0), (3, 1), (4, 2)], // ToR 2
            vec![(1, 0), (2, 1), (6, 2)], // ToR 3
            vec![(2, 0), (5, 1)],         // detour
            vec![(4, 0), (6, 1)],
            vec![(5, 0), (3, 1)],
        ];
        // Direct ToR-ToR link up: two stamps.
        assert_eq!(max_route_hops(&is_switch, &adj), 2);
        // Kill the direct link; the reroute goes 2-4-5-6-3: five stamps,
        // still within the inline HopList capacity.
        adj[2].retain(|&(v, _)| v != 3);
        adj[3].retain(|&(v, _)| v != 2);
        let lengthened = max_route_hops(&is_switch, &adj);
        assert_eq!(lengthened, 5);
        assert!(lengthened <= dsh_transport::HOP_CAPACITY);
    }

    #[test]
    fn compute_route_tables_tolerates_dead_access_link() {
        let (is_switch, mut adj) = leaf_spine_adj();
        adj[0].clear();
        adj[2].retain(|&(v, _)| v != 0);
        let tables = compute_route_tables(&is_switch, &adj);
        for t in &tables {
            assert!(t.candidates(0).is_empty(), "severed host must be unreachable");
        }
        // The rest of the fabric still routes.
        assert_eq!(tables[2].candidates(1), &[1, 2]);
    }
}
