//! End-to-end and per-event-class benchmark of the DSH simulator on three
//! paper-figure workloads.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload fig14_fct --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run builds a fixed grid of variants of one figure's scenario and
//! draws their flows from `--seed`. Seeds differ in flow timing, endpoints
//! and sizes, never in the total bytes offered, so every seed asks the
//! simulator for the same amount of work. The run simulates every variant
//! once to warm caches and record the variant's reference outcome, then
//! cycles through the whole set until `--seconds` have passed, always
//! finishing the cycle it is in so every variant is measured equally
//! often. Each simulation is set up (fabric built, flows loaded, calendar
//! seeded) and then run on the serial engine; both phases are timed in
//! host time, and each variant reports its fastest repeat. Every
//! simulation must pass the figure's own invariants, and every repeat must
//! reproduce its variant's reference outcome (event count and a digest of
//! all flow completions).
//!
//! The last line on stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are end to end:
//! host time per simulation, event throughput, set-up time and peak
//! resident memory. With `--trace 1` the same loop runs through the engine
//! profiler and the metrics are busy time and dispatch count per event
//! class, the calendar time no handler accounts for, and the work counts
//! of the MMU and loss-recovery layers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dsh_bench::fabric::{FctExperiment, FAN_IN_CLASS};
use dsh_bench::fig17::{self, Cell, Fig17Experiment};
use dsh_bench::fig18::Fig18Experiment;
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{FlowSpec, NetEvent, NetParams, Network, NetworkBuilder, NodeId};
use dsh_simcore::{Bandwidth, ByteSize, Delta, EngineProfile, Json, SimRng, Simulation, Time};
use dsh_transport::CcKind;
use dsh_workloads::{
    background_flows, fan_in_bursts, FlowSizeDist, GenFlow, PatternConfig, Workload,
};

const USAGE: &str = "usage: dsh-simbench --workload fig14_fct|fig17_lossy|fig18_cascade \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Full passes over the variant set a run makes however short `--seconds`
/// is, so every variant is timed more than once.
const MIN_CYCLES: usize = 3;

/// Seeded draws per grid point of each figure (see [`variants`]).
const FIG14_DRAWS: usize = 4;
const FIG17_DRAWS: usize = 8;
const FIG18_DRAWS: usize = 2;

/// Fig. 14 flows start within the first 100 µs, which keeps one
/// simulation near 25 ms of host time: long simulations rarely fit in the
/// stretches where a shared host runs at full speed (see [`end_to_end`]).
/// Under DCQCN the last flow of a draw finishes by about 10 ms; the
/// deadline leaves three times that, and an idle fabric costs next to
/// nothing.
const FIG14_HORIZON: Delta = Delta::from_us(100);
const FIG14_RUN_UNTIL: Delta = Delta::from_ms(30);

/// How far a draw's byte-links may stray from their expectation (see
/// [`Traffic::at_load`]).
const LOAD_TOLERANCE: f64 = 0.01;

/// Host NIC capacity of the leaf-spine fabrics (100 Gb/s).
const HOST_BYTES_PER_SEC: f64 = 12.5e9;

/// Size of every fan-in flow (the paper's 64 KB bursts).
const FAN_IN_FLOW_BYTES: u64 = 64 * 1024;

/// Event classes reported under `--trace 1`, by their `EventClass` names.
/// Fixed here so the metric set does not follow the engine's own list; a
/// class no workload dispatches (faults, fluid advances) is left out.
const CLASSES: [&str; 9] = [
    "arrive",
    "tx_done",
    "apply_pause",
    "flow_start",
    "host_wake",
    "cc_timer",
    "rto_timer",
    "sample",
    "metrics_tick",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} requires a value"))?;
            let bad = || format!("invalid value for {flag}: '{value}'");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument '{flag}'")),
            }
        }
        Ok(args)
    }
}

/// Fig. 14's switch and transport settings, as [`setup`] applies them to
/// the 2×2 leaf-spine.
#[derive(Debug)]
struct FctFabric {
    scheme: Scheme,
    cc: CcKind,
    buffer: ByteSize,
    seed: u64,
    run_until: Delta,
}

/// The fabric a variant runs on, with its figure's parameters.
#[derive(Debug)]
enum Fabric {
    Fct(FctFabric),
    Lossy(Fig17Experiment),
    Cascade(Fig18Experiment),
}

/// One simulation input: a figure's fabric at one grid point and the
/// flows drawn for it, as indices into the fabric's host list.
struct Variant {
    fabric: Fabric,
    flows: Vec<GenFlow>,
}

/// Fig. 14 and Fig. 17 traffic on a 2×2 leaf-spine: one-to-one
/// background flows plus fan-in bursts of 64 KB flows, from the workload
/// library's generators.
struct Traffic {
    hosts_per_leaf: usize,
    horizon: Delta,
    workload: Workload,
    bg_load: f64,
    bg_classes: &'static [u8],
    fan_in: usize,
    fanin_load: f64,
    fanin_class: u8,
}

impl Traffic {
    fn draw(&self, rng: &mut SimRng) -> Vec<GenFlow> {
        let dist = FlowSizeDist::from_workload(self.workload);
        let mut flows = self
            .at_load(rng, self.bg_load, 1, |p, r| background_flows(p, &dist, self.bg_classes, r));
        let burst_bytes = self.fan_in as u64 * FAN_IN_FLOW_BYTES;
        flows.extend(self.at_load(rng, self.fanin_load, burst_bytes, |p, r| {
            fan_in_bursts(p, self.fan_in, FAN_IN_FLOW_BYTES, self.fanin_class, r)
        }));
        flows
    }

    /// Links a flow crosses: two inside a leaf, four through a spine.
    fn links(&self, f: &GenFlow) -> u64 {
        if f.src / self.hosts_per_leaf == f.dst / self.hosts_per_leaf {
            2
        } else {
            4
        }
    }

    /// Draws from `generate` at `load` on fresh sub-seeds of `rng` until
    /// the flows' byte-links (bytes times links crossed, what the
    /// simulator's event count follows) are within [`LOAD_TOLERANCE`] of
    /// their expectation, or as close as whole units of `quantum` bytes
    /// allow. Poisson arrivals, heavy-tailed sizes and random endpoints
    /// would otherwise let one seed's run simulate far more than another's.
    fn at_load(
        &self,
        rng: &mut SimRng,
        load: f64,
        quantum: u64,
        generate: impl Fn(&PatternConfig, &mut SimRng) -> Vec<GenFlow>,
    ) -> Vec<GenFlow> {
        let hosts = 2 * self.hosts_per_leaf;
        let pattern = PatternConfig {
            hosts,
            host_bytes_per_sec: HOST_BYTES_PER_SEC,
            load,
            horizon: Time::ZERO + self.horizon,
        };
        // A uniformly drawn pair of distinct hosts shares a leaf with
        // probability (hosts_per_leaf - 1) / (hosts - 1).
        let same_leaf = (self.hosts_per_leaf - 1) as f64 / (hosts - 1) as f64;
        let mean_links = 2.0 * same_leaf + 4.0 * (1.0 - same_leaf);
        let bytes = load * hosts as f64 * HOST_BYTES_PER_SEC * self.horizon.as_secs_f64();
        let nominal = bytes * mean_links;
        let slack = (LOAD_TOLERANCE * nominal).max(quantum as f64 * mean_links / 2.0);
        loop {
            let flows = generate(&pattern, &mut SimRng::new(rng.next_u64()));
            let offered: u64 = flows.iter().map(|f| f.size * self.links(f)).sum();
            if (offered as f64 - nominal).abs() <= slack {
                return flows;
            }
        }
    }
}

/// Fig. 18's incast: senders `0..degree` each send one flow to the
/// receiver `degree`, starting 200 ns apart as in the figure. Sizes come
/// in pairs `mean ± d` with `d` drawn below `mean / 2`, so the total is
/// fixed at `degree × mean`.
fn incast_flows(rng: &mut SimRng, degree: usize, mean: u64) -> Vec<GenFlow> {
    assert!(degree.is_multiple_of(2), "incast sizes pair up: degree {degree} must be even");
    let mut flows = Vec::with_capacity(degree);
    let mut offset = 0;
    for i in 0..degree {
        let size = if i % 2 == 0 {
            offset = rng.gen_range(mean / 2);
            mean + offset
        } else {
            mean - offset
        };
        let start = Time::from_ns(i as u64 * 200);
        flows.push(GenFlow { src: i, dst: degree, size, start, class: 0 });
    }
    flows
}

/// The variant set of one run: a fixed grid along the figure's x-axis,
/// drawn `draws` times over, so runs with different seeds measure the
/// same mix of work on different inputs. More draws per run average out
/// more of the input's randomness; the figures whose single simulations
/// vary most get the most. `None` for an unknown workload.
fn variants(workload: &str, seed: u64) -> Option<Vec<Variant>> {
    let rng = &mut SimRng::new(seed);
    let variants = match workload {
        // Fig. 14: DSH under DCQCN on a 2×2 leaf-spine with 16 hosts,
        // web-search background plus 15:1 fan-in at the paper's 0.9 total
        // load, across background loads. Forwarding, MMU admission and
        // DCQCN carry the time; a draw this short seldom pauses, so PFC
        // is left to fig18.
        "fig14_fct" => grid(rng, FIG14_DRAWS, &[0.3, 0.5, 0.7], |rng, bg_load| {
            let paper = FctExperiment::small(Scheme::Dsh, CcKind::Dcqcn);
            let exp = FctFabric {
                scheme: paper.scheme,
                cc: paper.cc,
                buffer: paper.buffer,
                seed: rng.next_u64(),
                run_until: FIG14_RUN_UNTIL,
            };
            let traffic = Traffic {
                hosts_per_leaf: 8,
                horizon: FIG14_HORIZON,
                workload: paper.workload,
                bg_load,
                bg_classes: &[0, 1, 2, 3, 4, 5],
                fan_in: 15,
                fanin_load: 0.9 - bg_load,
                fanin_class: FAN_IN_CLASS,
            };
            Variant { fabric: Fabric::Fct(exp), flows: traffic.draw(rng) }
        }),
        // Fig. 17: lossy RoCE with selective repeat, across total load
        // split 2:1 between background and 7:1 fan-in. Drop-tail
        // admission, NACKs, hole repair and RTOs put the loss-recovery
        // layer on the hot path.
        "fig17_lossy" => grid(rng, FIG17_DRAWS, &[0.6, 0.8], |rng, load| {
            let mut exp = fig17::smoke_base(Cell::LossySr);
            exp.load = load;
            // The smoke deadline (12 ms) cuts off the rare draw whose
            // last segment climbs the RTO ladder (seen finishing at
            // 12.7 ms); the figure's full 40 ms drain leaves room for it.
            exp.run_until = Fig17Experiment::small(Cell::LossySr).run_until;
            exp.seed = rng.next_u64();
            let traffic = Traffic {
                hosts_per_leaf: exp.hosts_per_leaf,
                horizon: exp.horizon,
                workload: Workload::WebSearch,
                bg_load: load * 2.0 / 3.0,
                bg_classes: &[0, 1, 2, 3],
                fan_in: 7,
                fanin_load: load / 3.0,
                fanin_class: 5,
            };
            Variant { fabric: Fabric::Lossy(exp), flows: traffic.draw(rng) }
        }),
        // Fig. 18: N-to-1 incast across two switches with the
        // pause-causality tracker and metrics sampler armed, across incast
        // degree at the figure's 2 MiB buffer.
        "fig18_cascade" => grid(rng, FIG18_DRAWS, &[8, 10, 12], |rng, degree| {
            let mut exp = Fig18Experiment::small(Scheme::Dsh);
            exp.degree = degree;
            exp.seed = rng.next_u64();
            let flows = incast_flows(rng, degree, exp.flow_bytes);
            Variant { fabric: Fabric::Cascade(exp), flows }
        }),
        _ => return None,
    };
    Some(variants)
}

/// `draws` passes over `points`, making one variant per point and pass.
fn grid<P: Copy>(
    rng: &mut SimRng,
    draws: usize,
    points: &[P],
    mut make: impl FnMut(&mut SimRng, P) -> Variant,
) -> Vec<Variant> {
    (0..draws).flat_map(|_| points.to_vec()).map(|p| make(rng, p)).collect()
}

/// A 2×2 leaf-spine of 100 Gb/s links as Fig. 14 and Fig. 17 use it.
fn leaf_spine_fabric(params: NetParams, hosts_per_leaf: usize) -> (Network, Vec<NodeId>) {
    let link = Bandwidth::from_gbps(100);
    let ls = leaf_spine(
        params,
        LeafSpineShape {
            leaves: 2,
            spines: 2,
            hosts_per_leaf,
            downlink: link,
            uplink: link,
            link_delay: Delta::from_us(2),
        },
    );
    let hosts = ls.all_hosts();
    (ls.builder.build(), hosts)
}

/// Fig. 18's two-switch chain: every sender on switch A, the receiver
/// behind a 25 Gb/s downlink from switch B, so the downlink roots the
/// cascade B → A → sender NICs.
fn incast_fabric(exp: &Fig18Experiment) -> (Network, Vec<NodeId>) {
    let params = NetParams::tomahawk(exp.scheme)
        .with_buffer(exp.buffer)
        .with_seed(exp.seed)
        .with_fidelity(exp.fidelity)
        .with_observability(exp.observe)
        .without_ecn();
    let mut b = NetworkBuilder::new(params);
    let (sw_a, sw_b) = (b.switch(), b.switch());
    let hosts: Vec<NodeId> = (0..=exp.degree).map(|_| b.host()).collect();
    let fast = Bandwidth::from_gbps(100);
    for &h in &hosts[..exp.degree] {
        b.link(h, sw_a, fast, Delta::from_us(1));
    }
    b.link(sw_a, sw_b, fast, Delta::from_us(2));
    b.link(sw_b, hosts[exp.degree], Bandwidth::from_gbps(25), Delta::from_us(1));
    (b.build(), hosts)
}

/// Builds a variant's fabric, loads its flows and seeds the calendar;
/// returns the ready simulation and its deadline.
fn setup(v: &Variant) -> (Simulation<Network>, Time) {
    let ((mut net, hosts), cc, run_until) = match &v.fabric {
        Fabric::Fct(exp) => {
            let params =
                NetParams::tomahawk(exp.scheme).with_buffer(exp.buffer).with_seed(exp.seed);
            (leaf_spine_fabric(params, 8), exp.cc, exp.run_until)
        }
        Fabric::Lossy(exp) => {
            let params =
                NetParams::tomahawk(exp.cell.scheme()).with_buffer(exp.buffer).with_seed(exp.seed);
            let recovery = exp.cell.recovery(params.base_rtt, None);
            (
                leaf_spine_fabric(params.with_recovery(recovery), exp.hosts_per_leaf),
                exp.cc,
                exp.run_until,
            )
        }
        Fabric::Cascade(exp) => (incast_fabric(exp), CcKind::Uncontrolled, exp.run_until),
    };
    for f in &v.flows {
        net.add_flow(FlowSpec {
            src: hosts[f.src],
            dst: hosts[f.dst],
            size: f.size,
            class: f.class,
            start: f.start,
            cc,
        });
    }
    (net.into_sim(), Time::ZERO + run_until)
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The figure's invariants on a finished run. On success returns a digest
/// of the outcome (event count plus every flow completion) that every
/// repeat of the variant must reproduce.
fn check(fabric: &Fabric, net: &mut Network, events: u64, deadline: Time) -> Result<u64, String> {
    for (id, audit) in net.audit_all() {
        ensure(audit.is_clean(), || format!("dirty MMU audit at {id}: {:?}", audit.violations))?;
    }
    let (registered, completed) = (net.flow_count(), net.fct_records().len());
    match fabric {
        Fabric::Fct(_) | Fabric::Cascade(_) => {
            ensure(net.data_drops() == 0, || {
                format!("lossless fabric dropped {} packets", net.data_drops())
            })?;
        }
        Fabric::Lossy(_) => {
            let paused = net.pause_ledgers(deadline).any(|l| l.total() > Delta::ZERO);
            let headroom_used = net
                .take_headroom_peaks()
                .into_iter()
                .any(|(_, per_port)| per_port.into_iter().flatten().any(|peak| peak > 0));
            ensure(!paused && !headroom_used && net.reserved_headroom_bytes() == 0, || {
                "lossy fabric paused, used or reserved headroom".to_string()
            })?;
        }
    }
    ensure(completed == registered, || {
        format!("{completed} of {registered} flows completed ({} failed)", net.failed_flow_count())
    })?;
    if let Fabric::Cascade(_) = fabric {
        let report = net.cascade_report(deadline).ok_or("cascade tracker not armed")?;
        ensure(report.max_depth >= 2 && report.cycles.is_empty(), || {
            format!("cascade depth {} with cycles {:?}", report.max_depth, report.cycles)
        })?;
    }
    let completions = net.fct_records().iter().flat_map(|r| [r.flow.0 as u64, r.finish.as_ps()]);
    Ok(fnv1a(std::iter::once(events).chain(completions)))
}

/// What one simulation measured.
struct Outcome {
    setup: Duration,
    run: Duration,
    events: u64,
    digest: u64,
    profile: EngineProfile,
    mmu_admitted: u64,
    pfc_pauses: u64,
    retransmitted_bytes: u64,
}

/// Sets up, runs and checks one simulation; a panic inside the simulator
/// counts as a failed simulation, not a crashed benchmark.
fn simulate(v: &Variant, trace: bool) -> Result<Outcome, String> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        let (mut sim, deadline) = setup(v);
        let setup = started.elapsed();
        let mut profile = EngineProfile::new::<NetEvent>();
        let started = Instant::now();
        if trace {
            sim.run_until_profiled(deadline, &mut profile);
        } else {
            sim.run_until(deadline);
        }
        let run = started.elapsed();
        let events = sim.events_processed();
        let mut net = sim.into_model();
        let digest = check(&v.fabric, &mut net, events, deadline)?;
        let mmu = net.mmu_stats();
        Ok(Outcome {
            setup,
            run,
            events,
            digest,
            profile,
            mmu_admitted: mmu.admitted_packets,
            pfc_pauses: mmu.queue_pauses + mmu.port_pauses,
            retransmitted_bytes: net.retransmitted_bytes(),
        })
    }));
    attempt.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()));
        Err(format!("panicked: {}", msg.unwrap_or_default()))
    })
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in process status")?;
    Ok(kib / 1024.0)
}

type Metric = (String, &'static str, f64);

/// A variant's event count and the set-up and run time, in seconds, of
/// each of its timed repeats.
#[derive(Default)]
struct Timings {
    events: u64,
    setup: Vec<f64>,
    run: Vec<f64>,
}

/// End-to-end metrics. Each variant contributes its fastest set-up and
/// run over the repeats: the simulator's own cost, with the time other
/// tenants of a shared host take away left out. On a shared VM that
/// slowdown comes and goes in stretches of seconds and reaches 1.5×, so a
/// median follows the host while the fastest repeat follows the code. The
/// run reports the mean over variants, so every variant weighs the same.
fn end_to_end(timings: &[Timings], rss_mib: f64) -> Vec<Metric> {
    let n = timings.len() as f64;
    let run: f64 = timings.iter().map(|t| fastest(&t.run)).sum();
    let setup: f64 = timings.iter().map(|t| fastest(&t.setup)).sum();
    let events: u64 = timings.iter().map(|t| t.events).sum();
    vec![
        ("sim_ms".to_string(), "ms", run / n * 1e3),
        ("events_per_s".to_string(), "1/s", events as f64 / run),
        ("setup_s".to_string(), "s", setup / n),
        ("peak_rss_mib".to_string(), "MiB", rss_mib),
    ]
}

/// Per-layer totals over the timed simulations of a run.
#[derive(Default)]
struct Layers {
    sims: u64,
    run_ns: u128,
    class_events: [u64; CLASSES.len()],
    class_ns: [u64; CLASSES.len()],
    mmu_admitted: u64,
    pfc_pauses: u64,
    retransmitted_bytes: u64,
}

impl Layers {
    fn add(&mut self, o: &Outcome) {
        self.sims += 1;
        self.run_ns += o.run.as_nanos();
        for (name, count, nanos) in o.profile.rows() {
            if let Some(i) = CLASSES.iter().position(|c| *c == name) {
                self.class_events[i] += count;
                self.class_ns[i] += nanos;
            }
        }
        self.mmu_admitted += o.mmu_admitted;
        self.pfc_pauses += o.pfc_pauses;
        self.retransmitted_bytes += o.retransmitted_bytes;
    }

    /// Per-layer metrics from the engine profiler, as means per
    /// simulation: handler busy time (`<class>_ms`, fused follow-up events
    /// included) and dispatch count (`<class>_events`) per event class;
    /// `calendar_ms`, the run time no handler accounts for (calendar pops
    /// plus the profiler's own clock reads); and the work counts of the
    /// MMU and recovery layers.
    fn metrics(&self) -> Vec<Metric> {
        let n = self.sims as f64;
        let mut out = Vec::new();
        for (i, class) in CLASSES.iter().enumerate() {
            out.push((format!("{class}_ms"), "ms", self.class_ns[i] as f64 / n / 1e6));
            out.push((format!("{class}_events"), "count", self.class_events[i] as f64 / n));
        }
        let handled_ns: u64 = self.class_ns.iter().sum();
        let calendar_ns = self.run_ns as f64 - handled_ns as f64;
        out.push(("calendar_ms".to_string(), "ms", calendar_ns / n / 1e6));
        out.push(("mmu_admitted".to_string(), "count", self.mmu_admitted as f64 / n));
        out.push(("pfc_pauses".to_string(), "count", self.pfc_pauses as f64 / n));
        out.push(("retransmitted_bytes".to_string(), "B", self.retransmitted_bytes as f64 / n));
        out
    }
}

fn usage_exit(err: &str) -> ! {
    eprintln!("error: {err}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
    let variants = variants(&args.workload, args.seed)
        .unwrap_or_else(|| usage_exit(&format!("unknown workload '{}'", args.workload)));

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut report = |v: &Variant, e: &str| {
        failed += 1;
        eprintln!("FAILED {:?} with {} flows: {e}", v.fabric, v.flows.len());
    };
    // Warm-up pass: fills caches and fixes each variant's reference
    // outcome. Memory peaks here, before the timed loop's bookkeeping
    // grows with the number of repeats.
    let reference: Vec<Option<u64>> = variants
        .iter()
        .map(|v| {
            attempted += 1;
            simulate(v, args.trace).map(|o| o.digest).map_err(|e| report(v, &e)).ok()
        })
        .collect();
    let rss_mib = peak_rss_mib().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });

    let mut timings: Vec<Timings> = variants.iter().map(|_| Timings::default()).collect();
    let mut layers = Layers::default();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut cycles = 0;
    while cycles < MIN_CYCLES || started.elapsed() < budget {
        for (i, v) in variants.iter().enumerate() {
            attempted += 1;
            match simulate(v, args.trace) {
                Ok(o) if Some(o.digest) == reference[i] => {
                    timings[i].events = o.events;
                    timings[i].setup.push(o.setup.as_secs_f64());
                    timings[i].run.push(o.run.as_secs_f64());
                    layers.add(&o);
                }
                Ok(_) => report(v, "outcome differs from the variant's first run"),
                Err(e) => report(v, &e),
            }
        }
        cycles += 1;
    }

    timings.retain(|t| !t.run.is_empty());
    if timings.is_empty() {
        eprintln!("no simulation succeeded");
        std::process::exit(1);
    }
    let metrics = if args.trace { layers.metrics() } else { end_to_end(&timings, rss_mib) };
    let metrics = metrics.into_iter().fold(Json::object(), |doc, (name, unit, value)| {
        doc.with(&name, Json::object().with("value", value).with("unit", unit))
    });
    let result = Json::object()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics);
    println!("{result}");
}
