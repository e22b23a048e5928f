//! Smoke tests for the experiment harness: every figure pipeline runs at
//! micro scale, completes flows, and never drops packets.

use dsh_bench::fabric::{run_fct, FctExperiment, Topo};
use dsh_bench::{fig04, fig05, fig06, fig11, fig14, fig15, fig18};
use dsh_core::Scheme;
use dsh_simcore::{Delta, Executor};
use dsh_transport::CcKind;
use dsh_workloads::Workload;

fn micro_base() -> FctExperiment {
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    base.topo = Topo::LeafSpine { leaves: 2, spines: 2, hosts_per_leaf: 4 };
    base.horizon = Delta::from_us(300);
    base.run_until = Delta::from_ms(4);
    base
}

#[test]
fn fct_pipeline_runs_for_all_scheme_transport_combinations() {
    for scheme in Scheme::ALL {
        for cc in [CcKind::Dcqcn, CcKind::PowerTcp] {
            let exp = FctExperiment { scheme, cc, ..micro_base() };
            let r = run_fct(&exp);
            assert_eq!(r.drops, 0, "{scheme}/{cc} dropped");
            assert!(r.completed > 0, "{scheme}/{cc} completed nothing");
            assert!(
                r.completed * 10 >= r.registered * 8,
                "{scheme}/{cc}: only {}/{} flows completed",
                r.completed,
                r.registered
            );
            let all = r.all.expect("flows completed");
            assert!(all.avg_secs > 0.0 && all.p99_secs >= all.p50_secs);
        }
    }
}

/// Regression for the default-small-scale `fig14_fct_vs_load` panic
/// ("lossless fabric dropped packets"): under SIH/DCQCN at bg_load 0.7 the
/// shared CONTROL_CLASS queue delayed a PFC PAUSE behind an ACK/CNP
/// backlog past the one-MTU waiting budget the headroom formula assumes,
/// overflowing an ingress headroom account between 1 ms and 2 ms of
/// simulated time. The egress PFC fast lane fixes this; this test pins the
/// exact failing cell (truncated to 2 ms, just past the historical drop).
#[test]
fn fig14_sih_dcqcn_high_bg_load_stays_lossless() {
    let mut exp = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    exp.bg_load = 0.7;
    exp.fanin_load = 0.2;
    exp.run_until = Delta::from_ms(2);
    let r = run_fct(&exp); // run_fct asserts drops == 0 internally.
    assert_eq!(r.drops, 0);
}

#[test]
fn fig14_point_produces_normalized_ratios() {
    let p = fig14::run_point(CcKind::Dcqcn, 0.5, &micro_base(), &Executor::new(2));
    let fan = p.norm_fan().expect("fan-in flows completed");
    let bg = p.norm_bg().expect("background flows completed");
    assert!(fan.is_finite() && fan > 0.0);
    assert!(bg.is_finite() && bg > 0.0);
}

#[test]
fn fig15_cell_runs_every_workload() {
    for w in Workload::ALL {
        let cell = fig15::run_cell(w, false, 0.5, &micro_base(), 4, &Executor::serial());
        assert_eq!(cell.sih.drops + cell.dsh.drops, 0, "{w} dropped");
        assert!(cell.sih.completed > 0 && cell.dsh.completed > 0, "{w}");
    }
}

#[test]
fn fig15_fat_tree_variant_runs() {
    let cell = fig15::run_cell(Workload::WebSearch, true, 0.5, &micro_base(), 4, &Executor::new(2));
    assert!(cell.sih.completed > 0 && cell.dsh.completed > 0);
}

#[test]
fn fig05_fct_improves_with_more_buffer() {
    let base = micro_base();
    let lo = fig05::run_point(Scheme::Sih, 14, &base);
    let hi = fig05::run_point(Scheme::Sih, 30, &base);
    assert!(lo.completed > 0 && hi.completed > 0);
    // With a scaled-down run the gap is noisy but the ordering must hold:
    // less buffer can never make average FCT better than +5% of the big
    // buffer's.
    assert!(
        lo.avg_fct_ms >= hi.avg_fct_ms * 0.95,
        "14 MiB: {} ms vs 30 MiB: {} ms",
        lo.avg_fct_ms,
        hi.avg_fct_ms
    );
}

/// Asserts that no two cells of one sweep render alike, so a regrouping
/// that swaps two cells cannot match the cells run alone.
fn assert_distinct(cells: &[String], what: &str) {
    for (i, a) in cells.iter().enumerate() {
        assert!(!cells[i + 1..].contains(a), "{what}: two cells alike, the check would be blind");
    }
}

/// The scheme × point sweeps run one flattened grid on the pool and
/// regroup its results in order; each regrouped cell must be the result
/// of running that (scheme, point) cell alone. Two points per sweep, so a
/// transposed grid shows too, at scales where SIH and DSH differ. `Debug`
/// prints floats round-trippably, so equal strings mean bit-equal results.
#[test]
fn scheme_sweeps_regroup_each_cell_in_order() {
    let ex = Executor::new(2);

    let base = micro_base();
    let buffers = [3, 4];
    let curves = fig05::sweep_schemes(&buffers, &base, &ex);
    assert_eq!(curves.iter().map(|(s, _)| *s).collect::<Vec<_>>(), Scheme::ALL);
    let mut cells = Vec::new();
    for (scheme, curve) in &curves {
        for (point, &b) in curve.iter().zip(&buffers) {
            let alone = format!("{:?}", fig05::run_point(*scheme, b, &base));
            assert_eq!(format!("{point:?}"), alone, "fig05 {scheme} {b} MiB");
            cells.push(alone);
        }
    }
    assert_distinct(&cells, "fig05");

    let bursts = [0.05, 0.2];
    let rows = fig11::sweep_schemes_with_telemetry(&bursts, &ex);
    assert_eq!(rows.len(), bursts.len());
    let mut cells = Vec::new();
    for (row, &burst) in rows.iter().zip(&bursts) {
        assert_eq!(row.iter().map(|(s, ..)| *s).collect::<Vec<_>>(), Scheme::ALL);
        for (scheme, point, telemetry) in row {
            let (alone, alone_telemetry) = fig11::pause_duration_with_telemetry(*scheme, burst);
            let alone = format!("{alone:?} {alone_telemetry}");
            assert_eq!(format!("{point:?} {telemetry}"), alone, "fig11 {scheme} @{burst}");
            cells.push(alone);
        }
    }
    assert_distinct(&cells, "fig11");

    // Host wall time is the one field that differs between two runs of
    // the same cell; blank it before comparing.
    let render = |r: &fig18::Fig18Result| {
        format!("{:?}", fig18::Fig18Result { wall: std::time::Duration::ZERO, ..r.clone() })
    };
    let incast = fig18::smoke_base(Scheme::Sih);
    let degrees = [4, 8];
    let points = fig18::sweep(&degrees, &incast, &ex);
    assert_eq!(points.len(), degrees.len());
    let mut cells = Vec::new();
    for (point, &degree) in points.iter().zip(&degrees) {
        assert_eq!(point.degree, degree);
        let pairs = point.per_scheme();
        assert_eq!(pairs.iter().map(|(s, _)| *s).collect::<Vec<_>>(), fig18::SCHEMES);
        for (scheme, r) in pairs {
            let buffer = incast.buffer.max(fig18::buffer_for(degree));
            let exp = fig18::Fig18Experiment { scheme, degree, buffer, ..incast };
            let alone = render(&fig18::run_cell(&exp));
            assert_eq!(render(r), alone, "fig18 {scheme} degree {degree}");
            cells.push(alone);
        }
    }
    assert_distinct(&cells, "fig18");
}

#[test]
fn fig06_utilization_is_low() {
    // Needs enough hosts that fan-in backlogs reach the headroom region.
    let r = fig06::run(Scheme::Sih, 4, 8, Delta::from_ms(1), 3);
    let cdf = &r.utilization;
    assert!(cdf.len() > 10, "need headroom-peak samples, got {}", cdf.len());
    let med = cdf.quantile(0.5).unwrap();
    assert!((0.0..=1.0).contains(&med));
    // The paper's point: headroom is mostly idle even under load.
    assert!(med < 0.5, "median utilization {med}");
}

#[test]
fn fig04_rows_are_exact() {
    let rows = fig04::rows();
    assert_eq!(rows.len(), 5);
    assert!((rows[0].us_per_capacity - 157.3).abs() < 0.5);
    assert!((rows[4].headroom_fraction - 0.678).abs() < 0.01);
}
