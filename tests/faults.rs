//! Link failures under load, end to end. A failure is a link removed
//! before the build, as in the paper's Fig. 12: whatever set of uplinks
//! fails, as long as the fabric stays connected, traffic must take the
//! surviving (possibly bounce) paths losslessly, every flow must
//! complete, the MMU must stay audit-clean, and runs must remain
//! bit-identical at any executor width.

mod common;

use common::{assert_lossless, run};
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{FlowSpec, NetParams, Network};
use dsh_simcore::{Bandwidth, Delta, Executor, Time};
use dsh_transport::CcKind;
use proptest::prelude::*;

/// Leaves of the property fabric. With two spines, the longest surviving
/// leaf-to-leaf path is a bounce (leaf, spine, leaf, spine, leaf), which
/// stays within the fabric's route-length limit.
const LEAVES: usize = 3;
/// Spines of the property fabric.
const SPINES: usize = 2;

/// One randomized failure scenario on the 2-spine, 3-leaf fabric.
#[derive(Clone, Copy, Debug)]
struct RandomFaults {
    /// Bit `leaf * SPINES + spine` asks for that uplink to fail.
    uplinks: u64,
    /// The rack whose hosts send.
    src_rack: usize,
    /// The receiving rack, as an offset from `src_rack` (never 0).
    dst_offset: usize,
    seed: u64,
}

fn fault_strategy() -> impl Strategy<Value = RandomFaults> {
    (0u64..1 << (LEAVES * SPINES), 0usize..LEAVES, 1usize..LEAVES, 0u64..1000).prop_map(
        |(uplinks, src_rack, dst_offset, seed)| RandomFaults {
            uplinks,
            src_rack,
            dst_offset,
            seed,
        },
    )
}

/// True when every switch reaches every other over the surviving uplinks
/// (`up[leaf][spine]`).
fn fabric_connected(up: &[[bool; SPINES]; LEAVES]) -> bool {
    let mut leaf_seen = [false; LEAVES];
    let mut spine_seen = [false; SPINES];
    leaf_seen[0] = true;
    let mut grew = true;
    while grew {
        grew = false;
        for (l, row) in up.iter().enumerate() {
            for (s, &alive) in row.iter().enumerate() {
                if alive && leaf_seen[l] != spine_seen[s] {
                    leaf_seen[l] = true;
                    spine_seen[s] = true;
                    grew = true;
                }
            }
        }
    }
    leaf_seen.iter().chain(&spine_seen).all(|&seen| seen)
}

/// The uplinks the scenario fails: each requested one, in bit order, that
/// leaves the fabric connected once it is gone.
fn failed_uplinks(f: &RandomFaults) -> Vec<(usize, usize)> {
    let mut up = [[true; SPINES]; LEAVES];
    let mut failed = Vec::new();
    for bit in 0..LEAVES * SPINES {
        let (l, s) = (bit / SPINES, bit % SPINES);
        if f.uplinks & (1 << bit) == 0 {
            continue;
        }
        up[l][s] = false;
        if fabric_connected(&up) {
            failed.push((l, s));
        } else {
            up[l][s] = true;
        }
    }
    failed
}

/// Builds the fabric with the scenario's uplinks removed, loads a DCQCN
/// incast from every host of the source rack to the first host of the
/// receiving rack, and runs it to `end`. Returns the finished network
/// and its registered flow count.
fn run_random(scheme: Scheme, f: &RandomFaults, end: Time) -> (Network, usize) {
    let shape = LeafSpineShape {
        leaves: LEAVES,
        spines: SPINES,
        hosts_per_leaf: 2,
        downlink: Bandwidth::from_gbps(100),
        uplink: Bandwidth::from_gbps(100),
        link_delay: Delta::from_us(2),
    };
    let mut ls = leaf_spine(NetParams::tomahawk(scheme).with_seed(f.seed), shape);
    for (l, s) in failed_uplinks(f) {
        ls.builder.remove_link(ls.leaves[l], ls.spines[s]);
    }
    let dst = ls.hosts[(f.src_rack + f.dst_offset) % LEAVES][0];
    let srcs = ls.hosts[f.src_rack].clone();
    let mut net = ls.builder.build();
    for (i, &src) in srcs.iter().enumerate() {
        net.add_flow(FlowSpec {
            src,
            dst,
            size: 128 * 1024,
            class: 0,
            start: Time::ZERO + Delta::from_us(i as u64),
            cc: CcKind::Dcqcn,
        });
    }
    let registered = net.flow_count();
    (run(net, end), registered)
}

#[test]
fn failure_plans_keep_the_fabric_connected_and_can_bounce() {
    let plan = |uplinks| RandomFaults { uplinks, src_rack: 0, dst_offset: 1, seed: 0 };
    assert!(failed_uplinks(&plan(0)).is_empty());
    // Asking for every uplink to fail still leaves a spanning tree.
    let spanning = failed_uplinks(&plan((1 << (LEAVES * SPINES)) - 1));
    assert_eq!(spanning.len(), LEAVES * SPINES - (LEAVES + SPINES - 1), "{spanning:?}");
    // Fig. 12's pattern: L0-S1 and L2-S0 fail, so L0 reaches L2 only
    // over the bounce path L0, S0, L1, S1, L2.
    assert_eq!(failed_uplinks(&plan(1 << 1 | 1 << 4)), [(0, 1), (2, 0)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under *any* connected set of failed uplinks, SIH and DSH alike: no
    /// flow wedges or fails, the run is lossless with clean MMU audits,
    /// and it is byte-identical at 1 and 4 executor threads.
    #[test]
    fn random_fault_plans_never_wedge_or_leak(f in fault_strategy()) {
        let end = Time::from_ms(10);
        for scheme in [Scheme::Sih, Scheme::Dsh] {
            let [serial, four] = [Executor::new(1), Executor::new(4)].map(|ex| {
                ex.par_map(vec![f, f], move |rf| {
                    let (net, registered) = run_random(scheme, &rf, end);
                    assert_eq!(net.fct_records().len(), registered, "wedged flow under {rf:?}");
                    assert_eq!(net.failed_flow_count(), 0, "failed flow under {rf:?}");
                    assert_lossless(&net, end);
                    for (id, audit) in net.audit_all() {
                        assert!(
                            audit.is_clean(),
                            "dirty audit at {id} under {rf:?}: {:?}",
                            audit.violations
                        );
                    }
                    net.telemetry_report(end).to_json().to_string()
                })
            });
            prop_assert_eq!(serial, four, "thread count changed a link-failure run");
        }
    }
}
