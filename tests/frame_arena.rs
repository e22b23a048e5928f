//! Frame arena accounting end to end: every frame a run creates is freed
//! on exactly one path (consumed at its destination, dropped at
//! admission or flushed by the PFC watchdog), so a network with nothing
//! left to deliver holds no live frame.

mod common;

use common::{add_incast, raw_params, star};
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{FlowSpec, NetParams, Network};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Time};
use dsh_transport::{CcKind, RecoveryConfig};

/// Runs `net` until its calendar is empty and checks that every flow
/// completed and no frame is left in the arena.
fn run_dry(net: Network) -> Network {
    let flows = net.flow_count();
    let mut sim = net.into_sim();
    sim.run();
    assert_eq!(sim.pending(), 0);
    let net = sim.into_model();
    assert_eq!(net.fct_records().len(), flows, "every flow completes");
    assert_eq!(net.live_frames(), 0, "a frame outlived the run");
    net
}

/// A 4:1 incast through one switch under `cc`, with ECN on.
fn incast_cell(cc: CcKind) -> Network {
    let (mut net, hosts) = star(NetParams::tomahawk(Scheme::Dsh), 5);
    add_incast(&mut net, &hosts[..4], hosts[4], 256 * 1024, 0, Time::ZERO, cc);
    net
}

#[test]
fn dcqcn_cell_frees_every_frame() {
    let net = run_dry(incast_cell(CcKind::Dcqcn));
    assert!(net.packets_delivered() > 0);
}

#[test]
fn powertcp_cell_frees_every_frame_and_hop_slot() {
    let net = run_dry(incast_cell(CcKind::PowerTcp));
    assert!(net.packets_delivered() > 0);
}

#[test]
fn lossy_selective_repeat_incast_frees_dropped_and_nacked_frames() {
    // Drop-tail admission drops on a starved no-PFC switch; the receivers
    // turn out-of-order data into NACKs in place.
    let params = raw_params(Scheme::Lossy)
        .with_buffer(ByteSize::kib(600))
        .with_recovery(RecoveryConfig::for_rtt(Delta::from_us(8)).selective_repeat());
    let (mut net, hosts) = star(params, 4);
    add_incast(&mut net, &hosts[..3], hosts[3], 256 * 1024, 0, Time::ZERO, CcKind::Uncontrolled);
    let net = run_dry(net);
    assert!(net.data_drops() > 0, "the starved switch never dropped");
    assert!(net.nacks_sent() > 0, "no data frame became a NACK");
}

#[test]
fn the_watchdog_frees_what_it_drops() {
    // An unpaced cross-rack 4:1 incast on a 2×2 leaf–spine whose 4 MiB
    // switches pause, with a PFC watchdog quick enough to flush paused
    // queues; go-back-N resends what the flushes drop.
    let params = raw_params(Scheme::Sih)
        .with_buffer(ByteSize::mib(4))
        .with_pfc_watchdog(Delta::from_us(5))
        .with_default_recovery();
    let ls = leaf_spine(
        params,
        LeafSpineShape {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: 4,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(100),
            link_delay: Delta::from_us(2),
        },
    );
    let hosts = ls.hosts.clone();
    let mut net = ls.builder.build();
    for (i, &src) in hosts[0].iter().enumerate() {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[1][0],
            size: 512 * 1024,
            class: 0,
            start: Time::from_us(i as u64),
            cc: CcKind::Uncontrolled,
        });
    }
    let flows = net.flow_count();
    // The sampling tick that drives the watchdog keeps the calendar busy,
    // so the run ends well after the last flow instead.
    let mut sim = net.into_sim();
    sim.run_until(Time::from_ms(20));
    let net = sim.into_model();
    assert_eq!(net.fct_records().len(), flows, "every flow completes");
    assert!(net.watchdog_drops() > 0, "the watchdog flushed no frame");
    assert_eq!(net.live_frames(), 0, "a frame outlived the run");
}
