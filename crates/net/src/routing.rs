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

/// One switch's routing table: the ECMP candidate egress ports toward
/// every destination node, in one flat array.
///
/// The candidates toward node `d` are `ports[offsets[d]..offsets[d + 1]]`,
/// in port order ([`RouteTable::try_pick`] indexes into that order). A
/// destination that is a switch, or a host the switch cannot reach, has
/// none.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    offsets: Vec<u32>,
    ports: Vec<u16>,
}

impl RouteTable {
    /// The candidate egress ports toward node `dst`, in port order.
    #[inline]
    fn slice(&self, dst: usize) -> &[u16] {
        &self.ports[self.offsets[dst] as usize..self.offsets[dst + 1] as usize]
    }

    /// All candidate ports toward node `dst`, in port order.
    pub fn candidates(&self, dst: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.slice(dst).iter().map(|&p| usize::from(p))
    }

    /// Picks the ECMP port for `flow` toward node `dst`, or `None` when the
    /// destination is unreachable. Runtime link failures legitimately
    /// partition the fabric, so under an active fault plan an empty
    /// candidate set is a drop, not a bug.
    #[must_use]
    #[inline]
    pub fn try_pick(&self, dst: usize, flow: FlowId, node: NodeId) -> Option<usize> {
        let c = self.slice(dst);
        let port = match c.len() {
            0 => return None,
            // A sole candidate needs no hash.
            1 => c[0],
            n => c[ecmp_index(ecmp_hash(flow.0 as u64, node.0 as u64), n)],
        };
        Some(usize::from(port))
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

/// Every switch's routes over a live topology.
#[derive(Debug)]
pub(crate) struct Routes {
    /// One table per switch, in node order.
    pub(crate) tables: Vec<RouteTable>,
    /// Longest route in switch egress stamps (the unit
    /// [`dsh_transport::HOP_CAPACITY`] budgets): a frame from a host behind
    /// ToR `t_src` to a host behind ToR `t_dst` crosses
    /// `dist(t_src, t_dst) + 1` switches, and every one stamps the frame
    /// once at dequeue. 0 when no host pair is mutually reachable.
    pub(crate) max_hops: usize,
}

/// Marks a switch the BFS did not reach.
const UNREACHED: u32 = u32::MAX;

/// Computes every switch's routes from the *live* topology.
///
/// `adj[n]` lists `(neighbour, egress port index)` pairs for each alive
/// link out of node `n` (insertion order = port order); `is_switch[n]`
/// marks switches. A host whose access link is down (no live adjacency
/// into a switch) is simply unreachable: every switch's candidate set
/// toward it stays empty until the link returns.
///
/// One BFS runs per ToR (a switch with a live host behind it), and its
/// distances serve every host behind that ToR and the longest-route
/// bound alike. Shared by the topology builder (full adjacency at build
/// time) and the runtime fault handler (recompute after each
/// `LinkDown`/`LinkUp`), so build-time and post-repair routes are
/// computed by one rule.
///
/// # Panics
///
/// Panics if a switch has more ports than a `u16` indexes.
pub(crate) fn compute_routes(is_switch: &[bool], adj: &[Vec<(usize, usize)>]) -> Routes {
    let n = is_switch.len();
    // The ToR of every host with a live access link (hosts are
    // single-homed).
    let tor: Vec<Option<usize>> = (0..n)
        .map(|h| {
            if is_switch[h] {
                return None;
            }
            adj[h].iter().find(|&&(v, _)| is_switch[v]).map(|&(t, _)| t)
        })
        .collect();
    // Distances to each ToR over the switch graph: row `row_of[t]` of
    // `dist`, one entry per node.
    let mut row_of = vec![usize::MAX; n];
    let mut tors = Vec::new();
    for &t in tor.iter().flatten() {
        if row_of[t] == usize::MAX {
            row_of[t] = tors.len();
            tors.push(t);
        }
    }
    let mut dist = vec![UNREACHED; tors.len() * n];
    let mut queue = Vec::with_capacity(n);
    for (row, &t) in dist.chunks_exact_mut(n).zip(&tors) {
        bfs(is_switch, adj, t, row, &mut queue);
    }
    let dist_to = |t: usize| &dist[row_of[t] * n..][..n];

    let mut max_hops = 0;
    for &t in &tors {
        let row = dist_to(t);
        for &t2 in &tors {
            if row[t2] != UNREACHED {
                max_hops = max_hops.max(row[t2] as usize + 1);
            }
        }
    }

    let port16 = |p: usize| u16::try_from(p).expect("switch port index exceeds u16");
    let tables = (0..n)
        .filter(|&s| is_switch[s])
        .map(|s| {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut ports = Vec::new();
            offsets.push(0);
            for (d, &t) in tor.iter().enumerate() {
                match t {
                    // The ToR delivers on the access port itself.
                    Some(t) if t == s => {
                        ports
                            .extend(adj[s].iter().find(|&&(v, _)| v == d).map(|&(_, p)| port16(p)));
                    }
                    Some(t) => {
                        let row = dist_to(t);
                        if row[s] != UNREACHED {
                            // The reachability guard matters at runtime: a
                            // severed neighbour is UNREACHED, and `+ 1`
                            // would overflow.
                            ports.extend(
                                adj[s]
                                    .iter()
                                    .filter(|&&(v, _)| {
                                        is_switch[v] && row[v] != UNREACHED && row[v] + 1 == row[s]
                                    })
                                    .map(|&(_, p)| port16(p)),
                            );
                        }
                    }
                    None => {}
                }
                offsets.push(u32::try_from(ports.len()).expect("route table exceeds u32"));
            }
            RouteTable { offsets, ports }
        })
        .collect();
    Routes { tables, max_hops }
}

/// BFS hop counts from switch `src` over the switch graph into `dist`
/// (hosts never transit traffic); unreached switches keep [`UNREACHED`].
/// `queue` is scratch.
fn bfs(
    is_switch: &[bool],
    adj: &[Vec<(usize, usize)>],
    src: usize,
    dist: &mut [u32],
    queue: &mut Vec<usize>,
) {
    queue.clear();
    dist[src] = 0;
    queue.push(src);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for &(v, _) in &adj[u] {
            if is_switch[v] && dist[v] == UNREACHED {
                dist[v] = dist[u] + 1;
                queue.push(v);
            }
        }
    }
}

/// Deterministic ECMP hash (SplitMix64 finalizer over flow ⊕ node).
#[must_use]
pub fn ecmp_hash(flow: u64, node: u64) -> u64 {
    let mut z = flow.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(node);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn ecmp_index_is_the_hash_modulo_the_candidate_count() {
        for f in 0..500u64 {
            let h = ecmp_hash(f, 3);
            for n in 1..=9 {
                assert_eq!(ecmp_index(h, n), (h as usize) % n, "flow {f}, {n} candidates");
            }
        }
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

    /// Candidates of switch `node` toward `dst` (tables are in switch
    /// order; the fixtures number hosts first).
    fn cands(routes: &Routes, is_switch: &[bool], node: usize, dst: usize) -> Vec<usize> {
        let ordinal = is_switch[..node].iter().filter(|&&s| s).count();
        routes.tables[ordinal].candidates(dst).collect()
    }

    #[test]
    fn one_table_per_switch_and_none_for_hosts() {
        let (is_switch, adj) = leaf_spine_adj();
        let routes = compute_routes(&is_switch, &adj);
        assert_eq!(routes.tables.len(), 4);
        // Switches are no destination.
        assert_eq!(cands(&routes, &is_switch, 2, 4), Vec::<usize>::new());
    }

    #[test]
    fn try_pick_is_stable_per_flow_and_none_when_unreachable() {
        let (is_switch, mut adj) = leaf_spine_adj();
        let routes = compute_routes(&is_switch, &adj);
        let tor = &routes.tables[0];
        let p1 = tor.try_pick(1, FlowId(42), NodeId(2));
        assert_eq!(p1, tor.try_pick(1, FlowId(42), NodeId(2)));
        assert!(tor.candidates(1).any(|p| Some(p) == p1));
        assert_eq!(tor.try_pick(0, FlowId(42), NodeId(2)), Some(0), "sole candidate");
        adj[1].clear();
        adj[3].retain(|&(v, _)| v != 1);
        let routes = compute_routes(&is_switch, &adj);
        assert_eq!(routes.tables[0].try_pick(1, FlowId(0), NodeId(2)), None);
    }

    #[test]
    fn compute_routes_ecmp_up_and_access_down() {
        let (is_switch, adj) = leaf_spine_adj();
        let routes = compute_routes(&is_switch, &adj);
        // ToR 2 reaches h0 on the access port and h1 via both spines.
        assert_eq!(cands(&routes, &is_switch, 2, 0), [0]);
        assert_eq!(cands(&routes, &is_switch, 2, 1), [1, 2]);
        // Spines deliver h1 straight down to ToR 3.
        assert_eq!(cands(&routes, &is_switch, 4, 1), [1]);
        assert_eq!(cands(&routes, &is_switch, 5, 1), [1]);
    }

    #[test]
    fn compute_routes_reroutes_around_dead_spine_link() {
        let (is_switch, mut adj) = leaf_spine_adj();
        // Kill ToR 2 <-> spine 4 (both directions).
        adj[2].retain(|&(v, _)| v != 4);
        adj[4].retain(|&(v, _)| v != 2);
        let routes = compute_routes(&is_switch, &adj);
        // ToR 2 now reaches h1 only via spine 5 (port 2).
        assert_eq!(cands(&routes, &is_switch, 2, 1), [2]);
        // Spine 4 lost its only edge toward ToR 2, so it reaches h0 by
        // the leaf bounce through ToR 3 (then spine 5, then ToR 2).
        assert_eq!(cands(&routes, &is_switch, 4, 0), [1]);
    }

    #[test]
    fn max_hops_counts_switch_stamps() {
        let (is_switch, adj) = leaf_spine_adj();
        // h0 -> ToR 2 -> spine -> ToR 3 -> h1: three egress stamps.
        assert_eq!(compute_routes(&is_switch, &adj).max_hops, 3);
    }

    #[test]
    fn max_hops_grows_on_reroute_lengthened_path() {
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
        assert_eq!(compute_routes(&is_switch, &adj).max_hops, 2);
        // Kill the direct link; the reroute goes 2-4-5-6-3: five stamps,
        // still within the inline HopList capacity.
        adj[2].retain(|&(v, _)| v != 3);
        adj[3].retain(|&(v, _)| v != 2);
        let lengthened = compute_routes(&is_switch, &adj).max_hops;
        assert_eq!(lengthened, 5);
        assert!(lengthened <= dsh_transport::HOP_CAPACITY);
    }

    #[test]
    fn compute_routes_tolerates_dead_access_link() {
        let (is_switch, mut adj) = leaf_spine_adj();
        adj[0].clear();
        adj[2].retain(|&(v, _)| v != 0);
        let routes = compute_routes(&is_switch, &adj);
        for t in &routes.tables {
            assert_eq!(t.candidates(0).len(), 0, "severed host must be unreachable");
        }
        // The rest of the fabric still routes.
        assert_eq!(cands(&routes, &is_switch, 2, 1), [1, 2]);
        // A lone reachable ToR bounds no route.
        assert_eq!(routes.max_hops, 1);
    }
}
