//! Standard datacenter topologies: leaf–spine and fat-tree(k), plus the
//! paper's specific evaluation fabrics.

use crate::builder::{NetParams, NetworkBuilder};
use crate::ids::NodeId;
use dsh_simcore::{Bandwidth, Delta};

/// A built leaf–spine fabric with handles to its parts.
#[derive(Debug)]
pub struct LeafSpine {
    /// Host ids, grouped per leaf: `hosts[leaf][i]`.
    pub hosts: Vec<Vec<NodeId>>,
    /// Leaf switch ids.
    pub leaves: Vec<NodeId>,
    /// Spine switch ids.
    pub spines: Vec<NodeId>,
    /// The builder, so callers can fail links before building.
    pub builder: NetworkBuilder,
}

impl LeafSpine {
    /// All host ids in one flat list.
    #[must_use]
    pub fn all_hosts(&self) -> Vec<NodeId> {
        self.hosts.iter().flatten().copied().collect()
    }
}

/// Shape of a leaf–spine fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafSpineShape {
    /// Number of leaf switches.
    pub leaves: usize,
    /// Number of spine switches.
    pub spines: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Host downlink speed.
    pub downlink: Bandwidth,
    /// Leaf→spine uplink speed.
    pub uplink: Bandwidth,
    /// Per-hop propagation delay.
    pub link_delay: Delta,
}

impl LeafSpineShape {
    /// The paper's deadlock fabric (Fig. 12a): 2 spines × 4 leaves ×
    /// 16 hosts, 100 Gb/s downlinks, 400 Gb/s uplinks, 2 µs links.
    #[must_use]
    pub fn paper_deadlock() -> Self {
        LeafSpineShape {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 16,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(400),
            link_delay: Delta::from_us(2),
        }
    }
}

/// Builds a leaf–spine fabric; fail links via
/// [`LeafSpine::builder`] before calling `build()`.
#[must_use]
pub fn leaf_spine(params: NetParams, shape: LeafSpineShape) -> LeafSpine {
    let mut b = NetworkBuilder::new(params);
    let leaves: Vec<NodeId> = (0..shape.leaves).map(|_| b.switch()).collect();
    let spines: Vec<NodeId> = (0..shape.spines).map(|_| b.switch()).collect();
    let mut hosts = Vec::with_capacity(shape.leaves);
    for &l in &leaves {
        let mut rack = Vec::with_capacity(shape.hosts_per_leaf);
        for _ in 0..shape.hosts_per_leaf {
            let h = b.host();
            b.link(h, l, shape.downlink, shape.link_delay);
            rack.push(h);
        }
        hosts.push(rack);
    }
    for &l in &leaves {
        for &s in &spines {
            b.link(l, s, shape.uplink, shape.link_delay);
        }
    }
    LeafSpine { hosts, leaves, spines, builder: b }
}

/// A built fat-tree fabric.
#[derive(Debug)]
pub struct FatTree {
    /// Host ids, grouped per pod: `hosts[pod][i]`.
    pub hosts: Vec<Vec<NodeId>>,
    /// Edge switches per pod.
    pub edges: Vec<Vec<NodeId>>,
    /// Aggregation switches per pod.
    pub aggs: Vec<Vec<NodeId>>,
    /// Core switches.
    pub cores: Vec<NodeId>,
    /// The builder, so callers can fail links before building.
    pub builder: NetworkBuilder,
}

impl FatTree {
    /// All host ids in one flat list.
    #[must_use]
    pub fn all_hosts(&self) -> Vec<NodeId> {
        self.hosts.iter().flatten().copied().collect()
    }
}

/// Builds a k-ary fat-tree (Al-Fares et al., SIGCOMM 2008): `k` pods, each
/// with `k/2` edge and `k/2` aggregation switches, `(k/2)²` cores, and
/// `k³/4` hosts. All links share one speed, as in the paper's Fig. 15d
/// (k = 16 → 1024 hosts).
///
/// # Panics
///
/// Panics if `k` is odd or zero.
#[must_use]
pub fn fat_tree(params: NetParams, k: usize, link: Bandwidth, delay: Delta) -> FatTree {
    assert!(k > 0 && k.is_multiple_of(2), "fat-tree arity must be even");
    let half = k / 2;
    let mut b = NetworkBuilder::new(params);

    let cores: Vec<NodeId> = (0..half * half).map(|_| b.switch()).collect();
    let mut edges = Vec::with_capacity(k);
    let mut aggs = Vec::with_capacity(k);
    let mut hosts = Vec::with_capacity(k);

    for _pod in 0..k {
        let pod_edges: Vec<NodeId> = (0..half).map(|_| b.switch()).collect();
        let pod_aggs: Vec<NodeId> = (0..half).map(|_| b.switch()).collect();
        // Hosts under each edge switch.
        let mut pod_hosts = Vec::with_capacity(half * half);
        for &e in &pod_edges {
            for _ in 0..half {
                let h = b.host();
                b.link(h, e, link, delay);
                pod_hosts.push(h);
            }
        }
        // Edge <-> aggregation full mesh within the pod.
        for &e in &pod_edges {
            for &a in &pod_aggs {
                b.link(e, a, link, delay);
            }
        }
        // Aggregation i connects to cores [i*half, (i+1)*half).
        for (i, &a) in pod_aggs.iter().enumerate() {
            for j in 0..half {
                b.link(a, cores[i * half + j], link, delay);
            }
        }
        edges.push(pod_edges);
        aggs.push(pod_aggs);
        hosts.push(pod_hosts);
    }

    FatTree { hosts, edges, aggs, cores, builder: b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsh_core::Scheme;

    fn params() -> NetParams {
        NetParams::tomahawk(Scheme::Dsh)
    }

    #[test]
    fn leaf_spine_shape_counts() {
        let ls = leaf_spine(
            params(),
            LeafSpineShape {
                leaves: 4,
                spines: 2,
                hosts_per_leaf: 3,
                downlink: Bandwidth::from_gbps(100),
                uplink: Bandwidth::from_gbps(400),
                link_delay: Delta::from_us(2),
            },
        );
        assert_eq!(ls.leaves.len(), 4);
        assert_eq!(ls.spines.len(), 2);
        assert_eq!(ls.all_hosts().len(), 12);
        // Builds cleanly and routes exist.
        let _net = ls.builder.build();
    }

    #[test]
    fn fat_tree_counts() {
        let ft = fat_tree(params(), 4, Bandwidth::from_gbps(100), Delta::from_us(2));
        assert_eq!(ft.cores.len(), 4);
        assert_eq!(ft.edges.iter().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(ft.aggs.iter().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(ft.all_hosts().len(), 16); // k^3/4
        let _net = ft.builder.build();
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_fat_tree_panics() {
        let _ = fat_tree(params(), 3, Bandwidth::from_gbps(100), Delta::from_us(2));
    }
}
