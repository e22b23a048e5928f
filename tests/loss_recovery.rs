//! Loss-recovery regimes end to end: the lossy (no-PFC) switch mode must
//! drop instead of pausing and still deliver every flow through recovery,
//! selective repeat must repair exactly the lost segments (cheaper than a
//! go-back-N rewind at the same drop rate), and every regime must stay
//! bit-identical at any executor width.

mod common;

use common::{add_incast, assert_bounded_loss, raw_params, run, star};
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpine, LeafSpineShape};
use dsh_net::{FlowSpec, NetParams, Network};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Executor, Time};
use dsh_transport::{CcKind, RecoveryConfig};
use proptest::prelude::*;

/// A 2×2 leaf–spine with `hosts_per_leaf` per rack, 100 Gb/s everywhere.
fn fabric(params: NetParams, hosts_per_leaf: usize) -> LeafSpine {
    leaf_spine(
        params,
        LeafSpineShape {
            leaves: 2,
            spines: 2,
            hosts_per_leaf,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(100),
            link_delay: Delta::from_us(2),
        },
    )
}

/// Cross-rack incast: every rack-0 host sends `size` bytes to the first
/// rack-1 host, so all flows transit the spine layer.
fn cross_rack_incast(hosts: &[Vec<dsh_net::NodeId>], net: &mut Network, size: u64, cc: CcKind) {
    for (i, &src) in hosts[0].iter().enumerate() {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[1][0],
            size,
            class: 0,
            start: Time::ZERO + Delta::from_us(i as u64),
            cc,
        });
    }
}

/// Go-back-N recovery config for a fabric with the given base RTT.
fn gbn_for(params: &NetParams) -> RecoveryConfig {
    RecoveryConfig::for_rtt(params.base_rtt)
}

/// Selective-repeat recovery config for a fabric with the given base RTT.
fn sr_for(params: &NetParams) -> RecoveryConfig {
    RecoveryConfig::for_rtt(params.base_rtt).selective_repeat()
}

/// A recovery config for a fabric, from its parameters.
type RecoveryFor = fn(&NetParams) -> RecoveryConfig;

/// Both recovery regimes, by name.
const REGIMES: [(&str, RecoveryFor); 2] = [("gbn", gbn_for), ("sr", sr_for)];

/// The instant every lossy incast run ends at.
const LOSSY_END: Time = Time::from_ms(10);

/// A lossy DCQCN cross-rack incast: `fan_in` rack-0 hosts each send
/// `size` bytes to one rack-1 host through no-PFC switches of `buffer`
/// bytes, with `recovery` at the NICs. Returns the network finished at
/// [`LOSSY_END`] and its registered flow count.
fn run_lossy_incast(
    buffer: ByteSize,
    fan_in: usize,
    size: u64,
    seed: u64,
    recovery: RecoveryFor,
) -> (Network, usize) {
    let base = NetParams::tomahawk(Scheme::Lossy).with_buffer(buffer).with_seed(seed);
    let params = base.clone().with_recovery(recovery(&base));
    let ls = fabric(params, fan_in);
    let hosts = ls.hosts.clone();
    let mut net = ls.builder.build();
    cross_rack_incast(&hosts, &mut net, size, CcKind::Dcqcn);
    let registered = net.flow_count();
    (run(net, LOSSY_END), registered)
}

/// The fixed 4:1 lossy incast the two regimes are compared on: 256 KiB
/// flows into 600 KiB switches.
fn fixed_lossy_incast(recovery: RecoveryFor) -> (Network, usize) {
    run_lossy_incast(ByteSize::kib(600), 4, 256 * 1024, 1, recovery)
}

/// The lossy switch mode's defining behavior: an overloaded no-PFC switch
/// sheds load with drop-tail admission drops — never a pause frame, never
/// a headroom byte — and go-back-N still completes every flow.
#[test]
fn lossy_incast_drops_instead_of_pausing() {
    let params = raw_params(Scheme::Lossy).with_buffer(ByteSize::kib(600)).with_default_recovery();
    let (mut net, hosts) = star(params, 4);
    add_incast(&mut net, &hosts[..3], hosts[3], 256 * 1024, 0, Time::ZERO, CcKind::Uncontrolled);
    let registered = net.flow_count();
    let end = Time::from_ms(10);
    let net = run(net, end);

    assert!(net.data_drops() > 0, "a 3:1 unpaced incast into 600 KiB never overflowed");
    assert_eq!(net.fct_records().len(), registered, "a dropped flow wedged");
    assert_eq!(net.failed_flow_count(), 0, "recoverable congestion loss failed a flow");
    assert!(net.recovery_timeouts() > 0, "drops happened but recovery never kicked in");
    assert_bounded_loss(&net, end, net.packets_delivered());
}

/// Selective repeat against drop-tail losses: receivers buffer
/// out-of-order arrivals and NACK the gaps, the sender repairs exactly
/// the holes, and every flow completes.
#[test]
fn selective_repeat_recovers_drop_tail_losses() {
    let (net, registered) = fixed_lossy_incast(sr_for);
    assert_eq!(net.fct_records().len(), registered, "a drop wedged a flow under SR");
    assert_eq!(net.failed_flow_count(), 0);
    assert!(net.data_drops() > 0, "the lossy incast dropped nothing");
    assert!(net.nacks_sent() > 0, "losses recovered without a single NACK");
    assert!(net.sr_retransmitted_bytes() > 0, "NACKs flowed but no gap repair was sent");
    assert!(net.recovery_nacks() > 0, "no loss episode was attributed to a NACK");
    assert_bounded_loss(&net, LOSSY_END, net.packets_delivered());
}

/// The headline claim for selective repeat: on the same lossy incast,
/// SR completes every flow while retransmitting strictly fewer bytes
/// than go-back-N, whose rewind replays the whole window behind one lost
/// segment.
#[test]
fn sr_retransmits_fewer_bytes_than_gbn() {
    let run_regime = |cfg: RecoveryFor| {
        let (net, registered) = fixed_lossy_incast(cfg);
        assert_eq!(net.fct_records().len(), registered, "a flow wedged");
        assert_eq!(net.failed_flow_count(), 0, "recoverable congestion loss failed a flow");
        assert!(net.data_drops() > 0, "the lossy incast dropped nothing");
        net.retransmitted_bytes()
    };
    let [gbn, sr] = REGIMES.map(|(_, cfg)| run_regime(cfg));
    assert!(gbn > 0, "go-back-N never retransmitted");
    assert!(
        sr < gbn,
        "selective repeat retransmitted {sr} bytes, go-back-N {gbn}: SR should repair less"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under any lossy incast (random switch buffer, fan-in and seed),
    /// under go-back-N and selective repeat alike: every flow completes
    /// and none fails, the MMU audits are clean, the lossy switches never
    /// pause, and the run is byte-identical at 1 and 4 executor threads.
    #[test]
    fn both_regimes_recover_random_lossy_incasts(
        buffer_kib in 300u64..1200,
        fan_in in 2usize..7,
        seed in 0u64..1000,
    ) {
        let buffer = ByteSize::kib(buffer_kib);
        for (name, recovery) in REGIMES {
            let [serial, four] = [Executor::new(1), Executor::new(4)].map(|ex| {
                ex.par_map(vec![seed, seed], move |seed| {
                    let (net, registered) =
                        run_lossy_incast(buffer, fan_in, 128 * 1024, seed, recovery);
                    let what = format!("{name}, {buffer_kib} KiB, fan-in {fan_in}, seed {seed}");
                    assert_eq!(net.fct_records().len(), registered, "wedged flow under {what}");
                    assert_eq!(net.failed_flow_count(), 0, "failed flow under {what}");
                    assert_bounded_loss(&net, LOSSY_END, net.packets_delivered());
                    net.telemetry_report(LOSSY_END).to_json().to_string()
                })
            });
            prop_assert_eq!(serial, four, "thread count changed a {} lossy run", name);
        }
    }
}
