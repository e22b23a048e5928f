//! End-to-end telemetry: a run's structured report must serialize to
//! JSON, parse back, and carry the PFC pause, drop and audit signals the
//! figure binaries plot — the same export `fig06`/`fig11` put in their
//! run record. Switch occupancy over time is the metrics sampler's
//! record (`tests/observability.rs`), not this report's.

mod common;

use common::{add_incast, assert_lossless, raw_params, run, star};
use dsh_core::Scheme;
use dsh_simcore::{Json, Time};
use dsh_transport::CcKind;

const END: Time = Time::from_ms(50);

/// An incast heavy enough to trigger PFC, so every telemetry channel has
/// signal: pauses, latency histograms, clean audits.
fn pfc_heavy_run(scheme: Scheme) -> dsh_net::Network {
    let (mut net, hosts) = star(raw_params(scheme), 9);
    add_incast(&mut net, &hosts[..8], hosts[8], 1_000_000, 0, Time::ZERO, CcKind::Uncontrolled);
    run(net, END)
}

#[test]
fn telemetry_json_roundtrips_and_is_consumable() {
    let net = pfc_heavy_run(Scheme::Dsh);
    assert_lossless(&net, END);

    // Emit exactly what a figure binary would print...
    let text = net.telemetry_report(END).to_json().to_string();
    // ...and consume it back as a downstream tool would.
    let doc = Json::parse(&text).expect("telemetry must be valid JSON");

    assert_eq!(doc.get("data_drops").and_then(Json::as_u64), Some(0));
    let switches = doc.get("switches").and_then(Json::as_arr).expect("switches array");
    assert_eq!(switches.len(), 1);
    let sw = &switches[0];
    assert_eq!(sw.get("audit").and_then(|a| a.get("clean")), Some(&Json::Bool(true)));

    // The incast must have been paused, not dropped...
    let stats = sw.get("stats").expect("stats object");
    assert_eq!(stats.get("dropped_packets").and_then(Json::as_u64), Some(0));
    assert!(stats.get("queue_pauses").and_then(Json::as_u64).unwrap() > 0);
    let attribution = sw.get("drop_attribution").expect("attribution object");
    assert_eq!(attribution.get("insurance_full").and_then(Json::as_u64), Some(0));

    // ...the audit snapshot must show the buffer fully drained by run
    // end...
    let snapshot = sw.get("audit").and_then(|a| a.get("occupancy")).expect("audit snapshot");
    for segment in ["shared", "private", "headroom", "insurance"] {
        assert_eq!(
            snapshot.get(segment).and_then(Json::as_u64),
            Some(0),
            "{segment} must drain by run end"
        );
    }

    // ...and some sender uplink must have closed pause->resume intervals.
    let ports = doc.get("ports").and_then(Json::as_arr).expect("ports array");
    assert_eq!(ports.len(), 9 + 9, "9 host uplinks + 9 switch egress ports");
    let paused_ns: u64 =
        ports.iter().filter_map(|p| p.get("queue_pause_ns").and_then(Json::as_u64)).sum();
    assert!(paused_ns > 0, "incast must accumulate QOFF time");
    let latency_counts: u64 = ports
        .iter()
        .filter_map(|p| p.get("pause_latency"))
        .filter_map(|h| h.get("count").and_then(Json::as_u64))
        .sum();
    assert!(latency_counts > 0, "closed pause intervals must be histogrammed");
}

#[test]
fn sih_and_dsh_attribute_zero_drops_differently_sized_headroom() {
    // Both schemes stay lossless here; the report must say so per scheme
    // with a clean audit and an all-zero drop attribution.
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        let net = pfc_heavy_run(scheme);
        let report = net.telemetry_report(END);
        assert!(report.lossless_violations().is_empty(), "{scheme:?} violated losslessness");
        let sw = &report.switches[0];
        assert!(sw.audit.is_clean(), "{}", sw.audit);
        assert_eq!(sw.attribution, Default::default(), "no admission rule may have fired");
        assert!(sw.port_drops.iter().all(|d| d.packets == 0));
    }
}
