//! One Criterion bench per paper figure family, at reduced scale: running
//! `cargo bench` regenerates (a scaled version of) every figure's
//! measurement pipeline and times it.

use criterion::{criterion_group, criterion_main, Criterion};
use dsh_bench::fabric::FctExperiment;
use dsh_bench::{fig04, fig05, fig06, fig11, fig12, fig13, fig13x, fig14, fig15, fig18, theory};
use dsh_core::Scheme;
use dsh_simcore::Delta;
use dsh_transport::CcKind;
use dsh_workloads::Workload;

fn small_base() -> FctExperiment {
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    // Keep bench wall-time sane: micro fabric, sub-millisecond horizon.
    base.topo = dsh_bench::fabric::Topo::LeafSpine { leaves: 2, spines: 2, hosts_per_leaf: 4 };
    base.horizon = Delta::from_us(300);
    base.run_until = Delta::from_ms(2);
    base
}

fn bench_fig04(c: &mut Criterion) {
    c.bench_function("fig04_headroom_trend", |b| b.iter(fig04::rows));
}

fn bench_fig05(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig05_fct_vs_buffer");
    g.sample_size(10);
    let base = small_base();
    g.bench_function("buffer_14_vs_30", |b| {
        b.iter(|| {
            let lo = fig05::run_point(Scheme::Sih, 14, &base);
            let hi = fig05::run_point(Scheme::Sih, 30, &base);
            (lo.avg_fct_ms, hi.avg_fct_ms)
        });
    });
    g.finish();
}

fn bench_fig06(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig06_headroom_utilization");
    g.sample_size(10);
    for scheme in Scheme::ALL {
        g.bench_function(format!("leafspine_2x4_{scheme}"), |b| {
            b.iter(|| fig06::run(scheme, 2, 4, Delta::from_us(500), 1).utilization.len());
        });
    }
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_pfc_avoidance");
    g.sample_size(10);
    for scheme in Scheme::ALL {
        g.bench_function(format!("burst20pct_{scheme}"), |b| {
            b.iter(|| fig11::pause_duration(scheme, 0.20).pause_ms);
        });
    }
    g.finish();
}

fn bench_fig12(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_deadlock");
    g.sample_size(10);
    let mut cfg = fig12::Fig12Config::small();
    cfg.fan_in = 6;
    cfg.horizon = Delta::from_us(800);
    cfg.duration = Delta::from_ms(1);
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        g.bench_function(format!("{scheme}"), |b| {
            b.iter(|| fig12::run_once(scheme, CcKind::Dcqcn, &cfg, 1).onset.is_some());
        });
    }
    g.finish();
}

fn bench_fig13(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_collateral_damage");
    g.sample_size(10);
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        g.bench_function(format!("{scheme}"), |b| {
            b.iter(|| fig13::post_burst_min(&fig13::victim_series(scheme, CcKind::Uncontrolled)));
        });
    }
    g.finish();
}

fn bench_fig13x(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13x_link_flap");
    g.sample_size(10);
    let mut exp = fig13x::smoke_base(Scheme::Dsh);
    exp.flap_period = Some(Delta::from_us(300));
    g.bench_function("dsh_flap300us", |b| {
        b.iter(|| {
            let r = fig13x::run_flap(&exp);
            assert_eq!(r.wedged, 0);
            r.link_drops
        });
    });
    g.finish();
    // Perf-trajectory point (BENCH_PR4.json): steady-state event rate of
    // the fault-injected run, so flap handling showing up on the packet
    // path would be caught as an events/sec regression. Trace points are
    // compiled into this run but masked off — the rate doubles as the
    // tracing overhead guard against the PR4 baseline. Best of three
    // runs: throughput is capability, and the min/median carry scheduler
    // noise that would drown a 2% contract.
    let mut rate = 0.0f64;
    let mut last = None;
    for _ in 0..3 {
        let wall = std::time::Instant::now();
        let r = fig13x::run_flap(&exp);
        rate = rate.max(r.events as f64 / wall.elapsed().as_secs_f64());
        last = Some(r);
    }
    let r = last.expect("three timed runs");
    criterion::record_metric("fig13x_link_flap/events_per_sec", rate);
    criterion::record_metric("fig13x_link_flap/link_drops", r.link_drops as f64);
    criterion::record_metric("fig13x_link_flap/retransmissions", r.retransmissions as f64);
    if let Some(baseline) = committed_events_per_sec("BENCH_PR4.json") {
        let ratio = rate / baseline;
        criterion::record_metric("fig13x_link_flap/events_per_sec_vs_pr4", ratio);
        // Wall-clock rates are machine-dependent; the ±2% contract is only
        // asserted when the caller opts in on a quiet, comparable host.
        if std::env::var("DSH_BENCH_STRICT").as_deref() == Ok("1") {
            assert!(
                ratio >= 0.98,
                "masked-off tracing slowed the fault run by more than 2%: \
                 {rate:.0} events/s vs PR4 baseline {baseline:.0} (ratio {ratio:.4})"
            );
        }
    }
    // Observability-overhead guard (BENCH_PR10.json): the same masked-off
    // run measured against the PR9 baseline. The pause-causality tracker
    // and the instant-closed metrics-capture entry branch are compiled in
    // but disarmed here, so this ratio is exactly their masked-off cost —
    // the "≤ one branch on the hot path" contract as an event rate.
    if let Some(baseline) = committed_events_per_sec("BENCH_PR9.json") {
        let ratio = rate / baseline;
        criterion::record_metric("fig13x_link_flap/events_per_sec_vs_pr9", ratio);
        if std::env::var("DSH_BENCH_STRICT").as_deref() == Ok("1") {
            assert!(
                ratio >= 0.98,
                "masked-off observability slowed the fault run by more than 2%: \
                 {rate:.0} events/s vs PR9 baseline {baseline:.0} (ratio {ratio:.4})"
            );
        }
    }
    // Engine profiler breakdown (BENCH_PR5.json): per-event-type dispatch
    // counts, plus per-class wall time under `--features profile`.
    let (_, prof) = fig13x::run_flap_profiled(&exp);
    for (name, events, nanos) in prof.rows() {
        criterion::record_metric(&format!("engine_profile/{name}/events"), events as f64);
        if dsh_simcore::EngineProfile::timing_enabled() {
            criterion::record_metric(&format!("engine_profile/{name}/nanos"), nanos as f64);
        }
    }
}

/// The `fig13x_link_flap/events_per_sec` metric committed in a prior
/// PR's baseline file at the repo root (`BENCH_PR4.json` is the
/// pre-tracing baseline, `BENCH_PR9.json` the pre-observability one), or
/// `None` when the file is missing or unparsable.
fn committed_events_per_sec(file: &str) -> Option<f64> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let doc = dsh_simcore::Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| {
            m.get("name").and_then(dsh_simcore::Json::as_str)
                == Some("fig13x_link_flap/events_per_sec")
        })?
        .get("value")?
        .as_f64()
}

fn bench_fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_fct_vs_load");
    g.sample_size(10);
    let base = small_base();
    g.bench_function("dcqcn_load0.5", |b| {
        b.iter(|| {
            fig14::run_point(CcKind::Dcqcn, 0.5, &base, &dsh_simcore::Executor::serial()).norm_fan()
        });
    });
    g.finish();
}

fn bench_fig15(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig15_workloads");
    g.sample_size(10);
    let base = small_base();
    g.bench_function("cache_leafspine", |b| {
        b.iter(|| {
            fig15::run_cell(Workload::Cache, false, 0.5, &base, 4, &dsh_simcore::Executor::serial())
                .norm_bg()
        });
    });
    g.finish();
}

fn bench_fig18(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig18_cascade_anatomy");
    g.sample_size(10);
    // Observe-armed on purpose: this is the only figure whose measured
    // run carries the cascade tracker and metrics sampler, so its event
    // rate tracks the *armed* observability cost (the masked-off cost is
    // the fig13x ratio above).
    let exp = fig18::smoke_base(Scheme::Dsh);
    g.bench_function("dsh_incast8_observed", |b| {
        b.iter(|| {
            let r = fig18::run_cell(&exp);
            assert!(r.cascades.max_depth >= 2);
            r.cascades.count
        });
    });
    g.finish();
}

fn bench_theory(c: &mut Criterion) {
    c.bench_function("theory_validation", |b| {
        b.iter(|| theory::validate(&[2.0, 8.0], &[7]).len());
    });
}

criterion_group!(
    benches,
    bench_fig04,
    bench_fig05,
    bench_fig06,
    bench_fig11,
    bench_fig12,
    bench_fig13,
    bench_fig13x,
    bench_fig14,
    bench_fig15,
    bench_fig18,
    bench_theory
);
criterion_main!(benches);
