//! Fig. 13x (robustness extension): FCT slowdown vs link-flap frequency.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin fig13x_link_flap \
//!     [--full] [--smoke] [--json] [--seed N] [--threads N] [--trace out.json]
//! ```
//!
//! `--smoke` runs one CI-sized flapped run per scheme (SIH and DSH)
//! and asserts the recovery invariants (no wedged flow, faults actually
//! dropped frames, MMU audit clean — the audit is checked inside the run
//! itself). With `--trace` the smoke run additionally parses the Chrome
//! trace it just wrote and asserts it contains PFC pause spans and fault
//! instants, so CI validates the whole tracing pipeline with one command.

use dsh_bench::fig13x::{self, FlapExperiment, FlapPoint};
use dsh_core::Scheme;
use dsh_simcore::{ByteSize, Delta, Json};
use dsh_transport::CcKind;

fn main() {
    let args = dsh_bench::Args::parse();
    dsh_bench::with_trace(&args, || run(&args));
    if args.smoke {
        if let Some(path) = args.trace.as_deref() {
            validate_trace(path);
        }
    }
}

/// Smoke-mode self-check: the emitted Chrome trace must parse and must
/// contain at least one PFC pause span and one fault instant — the two
/// signals a flap run cannot be without.
fn validate_trace(path: &str) {
    let text = std::fs::read_to_string(path).expect("trace file just written must be readable");
    let doc = Json::parse(&text).expect("emitted trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    let pause_spans = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("name").and_then(Json::as_str).is_some_and(|n| n.contains("pause"))
        })
        .count();
    // pid 5 is the fault track (link death/repair, corruption, drains).
    let fault_instants = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("i")
                && e.get("pid").and_then(Json::as_u64) == Some(5)
        })
        .count();
    assert!(pause_spans >= 1, "traced smoke run produced no PFC pause span");
    assert!(fault_instants >= 1, "traced smoke run produced no fault instant");
    println!("[smoke] trace OK: {pause_spans} pause spans, {fault_instants} fault instants");
}

fn run(args: &dsh_bench::Args) {
    let ex = args.executor();

    if args.smoke {
        let mut base = fig13x::smoke_base(Scheme::Sih);
        base.seed = args.seed;
        // A 3 MiB buffer (vs the 16 MiB Tomahawk default) leaves just
        // ~0.6 MiB shared after private + headroom reservations, so the
        // rerouted fan-in crosses the PFC thresholds and the traced
        // smoke run has real pause/resume spans to validate.
        base.buffer = Some(ByteSize::mib(3));
        let points = fig13x::sweep(&[Some(Delta::from_us(300))], &base, &ex);
        let p = &points[0];
        for (scheme, r) in p.per_scheme() {
            println!(
                "[smoke {scheme}] completed={} failed={} wedged={} link_drops={} retx={}",
                r.completed, r.failed, r.wedged, r.link_drops, r.retransmissions
            );
            assert_eq!(r.wedged, 0, "{scheme}: a flow wedged under flaps");
            assert!(r.link_drops > 0, "{scheme}: flap run lost no frames — fault path idle");
        }
        println!("smoke OK");
        return;
    }

    let mut base = FlapExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    base.seed = args.seed;
    if args.full {
        base.hosts_per_leaf = 8;
        base.flow_size = 4_000_000;
        base.flap_until = Delta::from_ms(8);
        base.run_until = Delta::from_ms(16);
    }
    let periods: Vec<Option<Delta>> = if args.full {
        vec![None, Some(Delta::from_us(800)), Some(Delta::from_us(400)), Some(Delta::from_us(200))]
    } else {
        vec![None, Some(Delta::from_us(600)), Some(Delta::from_us(300))]
    };

    println!("Fig. 13x — cross-rack FCT under leaf–spine uplink flaps (DCQCN, 60us outages)");
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "period_us", "scheme", "p50x", "drops", "retx", "c/f"
    );
    let points = fig13x::sweep(&periods, &base, &ex);
    let baseline = points[0];
    let mut docs: Vec<Json> = Vec::new();
    for p in &points {
        let period =
            p.period.map_or_else(|| "none".to_string(), |d| d.as_ns().div_euclid(1000).to_string());
        for ((scheme, r), (_, base_r)) in p.per_scheme().into_iter().zip(baseline.per_scheme()) {
            let slowdown = FlapPoint::slowdown(r, base_r);
            println!(
                "{:>10} {:>8} {:>8.3} {:>8} {:>8} {:>8}",
                period,
                scheme.to_string(),
                slowdown.unwrap_or(f64::NAN),
                r.link_drops,
                r.retransmissions,
                format!("{}/{}", r.completed, r.failed),
            );
            assert_eq!(r.wedged, 0, "{scheme}: wedged flows under flaps");
            if args.json {
                docs.push(
                    Json::object()
                        .with("scheme", scheme.to_string().to_ascii_lowercase())
                        .with("period_us", p.period.map_or(0, |d| d.as_ns().div_euclid(1000)))
                        .with("slowdown", slowdown.unwrap_or(f64::NAN))
                        .with("link_drops", r.link_drops)
                        .with("retransmissions", r.retransmissions)
                        .with("completed", r.completed as u64)
                        .with("failed", r.failed)
                        .with("events", r.events),
                );
            }
        }
    }
    println!();
    println!("p50x = p50 FCT normalized to the fault-free baseline of the same scheme;");
    println!("c/f = completed/failed flows. Every lost frame is recovered by go-back-N.");
    if args.json {
        let doc = Json::object()
            .with("provenance", dsh_bench::provenance(args))
            .with("points", Json::Arr(docs));
        println!("{doc}");
    }
}
