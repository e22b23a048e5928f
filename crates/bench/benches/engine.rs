//! Microbenchmarks of the simulation substrate: event-calendar throughput
//! (scattered, same-instant and mixed pushes, and the pending-set shape and
//! clustered arrivals of the figure workloads, the latter also at fat-tree
//! k=16 density with its walk steps per push asserted), end-to-end
//! events/second on a small incast, allocation-accounted packet-path
//! probes, and the parallel fig. 14 sweep — run with
//! `DSH_BENCH_JSON=out.json` to write the timings and metrics as JSON.
//!
//! With `--features alloc-count` the process allocator is replaced by a
//! counting wrapper and the packet-path benches additionally report (and
//! assert) steady-state heap allocations per delivered packet — the
//! hot-path zero-allocation contract of DESIGN.md §10.

use criterion::{criterion_group, criterion_main, Criterion};
use dsh_bench::fabric::{FctExperiment, Topo};
use dsh_bench::fig14;
use dsh_core::Scheme;
use dsh_net::{FlowSpec, NetParams, Network, NetworkBuilder};
use dsh_simcore::{Bandwidth, ByteSize, Delta, EventQueue, Executor, Simulation, Time};
use dsh_transport::{CcKind, RecoveryConfig};

/// Counting allocator: every `alloc`/`realloc` bumps a relaxed counter on
/// its way to the system allocator. Lives in the bench target (the library
/// crates `forbid(unsafe_code)`); the whole module disappears without the
/// `alloc-count` feature, so timing runs pay nothing.
#[cfg(feature = "alloc-count")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    std::thread_local! {
        static IN_TRAP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn maybe_trace() {
        if TRAP.load(Ordering::Relaxed) {
            IN_TRAP.with(|f| {
                if !f.get() {
                    f.set(true);
                    let bt = std::backtrace::Backtrace::force_capture();
                    eprintln!("=== alloc ===\n{bt}");
                    f.set(false);
                }
            });
        }
    }

    struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the counter is a relaxed
    // atomic, safe in any allocation context.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            maybe_trace();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            maybe_trace();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// Heap allocations performed by this process so far.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Allocations so far, or `None` when the counting allocator is not
/// compiled in.
fn allocations() -> Option<u64> {
    #[cfg(feature = "alloc-count")]
    {
        Some(alloc_count::allocations())
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        None
    }
}

fn event_queue_throughput(c: &mut Criterion) {
    // Scattered: pushes land all over the first 100 µs, never at "now";
    // the ring grows from its smallest size as they arrive.
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(Time::from_ns((i * 7919) % 100_000 + 1), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        });
    });
    // A same-instant cascade: every pop pushes one event at its own
    // instant, the shape of a handler scheduling at `sched.now()` and of
    // PFC pause/resume storms.
    c.bench_function("event_queue_same_instant_cascade_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(4);
            q.push(Time::from_ns(1), 0u64);
            let mut sum = 0u64;
            while let Some((t, e)) = q.pop() {
                sum = sum.wrapping_add(e);
                if e < 100_000 {
                    q.push(t, e + 1);
                }
            }
            sum
        });
    });
    // Mixed: each handled event schedules one future event and, for even
    // ids, a same-instant follow-up, like a switch forwarding under PFC.
    c.bench_function("event_queue_mixed_lane_heap_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(64);
            q.push(Time::from_ns(1), 0u64);
            let mut sum = 0u64;
            let mut handled = 0u64;
            while let Some((t, e)) = q.pop() {
                sum = sum.wrapping_add(e);
                handled += 1;
                if handled < 10_000 {
                    q.push(t + Delta::from_ns((e * 131) % 500 + 1), e + 1);
                    if e % 2 == 0 {
                        q.push(t, e + 2);
                    }
                }
            }
            sum
        });
    });
    // The run-loop primitive the engine now uses instead of
    // peek_time + pop.
    c.bench_function("event_queue_pop_before_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                q.push(Time::from_ns((i * 6007) % 50_000 + 1), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop_before(Time::from_ns(40_000)) {
                sum = sum.wrapping_add(e);
            }
            sum
        });
    });
    // The pending set the figure workloads produce: about 900 events in
    // flight, each handled event scheduling one follow-up, alternately one
    // serialization (~80 ns, a `TxDone`) and one serialization plus
    // propagation (~2.1 µs, an `Arrive`) ahead.
    c.bench_function("event_queue_fabric_shape_900", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1_024);
            for i in 0..900u64 {
                q.push(Time::from_ps(i * 2_333), i);
            }
            let mut sum = 0u64;
            let mut handled = 0u64;
            while let Some((t, e)) = q.pop() {
                sum = sum.wrapping_add(e);
                handled += 1;
                if handled < 100_000 {
                    let jitter = (e * 131) % 1_000;
                    let ahead = if handled.is_multiple_of(2) { 80_000 } else { 2_100_000 };
                    q.push(t + Delta::from_ps(ahead + jitter), e + 1);
                }
            }
            sum
        });
    });
    // Fig. 14's clustered arrivals: 40 ports serializing back to back on
    // one 82 ns quantum, about 1,000 events in flight.
    c.bench_function("event_queue_fabric_clustered", |b| {
        b.iter(|| fabric_clustered(40, 100_000).0);
    });
    // The same at fat-tree k=16 density: 1,024 ports keep about 27,000
    // events in flight within 2.1 µs.
    c.bench_function("event_queue_fabric_clustered_k16", |b| {
        b.iter(|| fabric_clustered(1_024, 400_000).0);
    });
    // Walk steps are a cost the host cannot perturb: the nodes the
    // calendar's out-of-order pushes compared, per push. The ring sizes
    // itself so that stays at most about one at any density.
    for (label, ports, handled) in [
        ("event_queue_fabric_clustered", 40, 100_000),
        ("event_queue_fabric_clustered_k16", 1_024, 400_000),
    ] {
        let (_, walk_steps, pushes) = fabric_clustered(ports, handled);
        let per_push = walk_steps as f64 / pushes as f64;
        criterion::record_metric(&format!("{label}/walk_steps_per_push"), per_push);
        assert!(per_push <= 1.0, "{label}: {per_push:.2} walk steps per push");
    }
}

/// Fig. 14's clustered arrivals: `ports` ports serializing back to back
/// on one 82 ns quantum (a 1 KB frame at 100 Gb/s), phases spread over
/// the quantum. Each `TxDone` schedules the port's next `TxDone` 82 ns on
/// and an `Arrive` 2.08 µs on, over links up to 10 ns apart in length, so
/// arrivals from different ports land picoseconds to nanoseconds apart
/// and reach the calendar out of time order. Runs until `handled` events
/// have been handled and the calendar drained; returns a checksum, the
/// calendar's walk steps and its pushes.
fn fabric_clustered(ports: u64, handled: u64) -> (u64, u64, u64) {
    const QUANTUM_PS: u64 = 82_000;
    let mut q = EventQueue::with_capacity(2_048);
    for port in 0..ports {
        q.push(Time::from_ps(port * QUANTUM_PS / ports), (port, true));
    }
    let (mut sum, mut popped, mut pushes) = (0u64, 0u64, ports);
    while let Some((t, (port, tx_done))) = q.pop() {
        sum = sum.wrapping_add(port);
        popped += 1;
        if tx_done && popped < handled {
            let skew_ps = (port * 17 % ports) * 10_000 / ports;
            q.push(t + Delta::from_ps(QUANTUM_PS), (port, true));
            q.push(t + Delta::from_ps(2_080_000 + skew_ps), (port, false));
            pushes += 2;
        }
    }
    (sum, q.walk_steps(), pushes)
}

/// Scaled-down fig. 14 sweep, end to end, at 1 worker and at 4 — the
/// perf-trajectory point for the parallel executor (compare the
/// `threads_*` means; on a multi-core runner the ratio is the speedup).
fn fig14_sweep_parallel(c: &mut Criterion) {
    let mut base = FctExperiment::small(Scheme::Sih, CcKind::Dcqcn);
    base.topo = Topo::LeafSpine { leaves: 2, spines: 2, hosts_per_leaf: 4 };
    base.horizon = Delta::from_us(300);
    base.run_until = Delta::from_ms(4);
    let loads = [0.2, 0.4, 0.6, 0.8];
    let mut g = c.benchmark_group("fig14_sweep_micro");
    g.sample_size(5);
    for threads in [1usize, 4] {
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| fig14::sweep(CcKind::Dcqcn, &loads, &base, &Executor::new(threads)));
        });
    }
    g.finish();
}

fn end_to_end_incast(c: &mut Criterion) {
    let mut g = c.benchmark_group("incast_8_to_1");
    g.sample_size(10);
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        g.bench_function(format!("{scheme}"), |b| {
            b.iter(|| {
                let mut sim = incast_sim(scheme, 256 * 1024);
                sim.run_until(Time::from_ms(5));
                assert_eq!(sim.model().data_drops(), 0);
                sim.events_processed()
            });
        });
    }
    g.finish();
}

/// The 8-to-1 incast fixture shared by the timed and the alloc-accounted
/// packet-path benches. Trace points are compiled into this build; the
/// fixture asserts they are masked off, so the zero-allocation and
/// events/sec numbers measure the disabled-tracing hot path.
fn incast_sim(scheme: Scheme, flow_bytes: u64) -> Simulation<Network> {
    let mut bld = NetworkBuilder::new(NetParams::tomahawk(scheme).without_ecn());
    let hosts: Vec<_> = (0..9).map(|_| bld.host()).collect();
    let sw = bld.switch();
    for &h in &hosts {
        bld.link(h, sw, Bandwidth::from_gbps(100), Delta::from_us(2));
    }
    let mut net = bld.build();
    assert!(!net.tracer().is_on(), "packet-path benches must run with tracing off");
    assert!(
        net.metrics_json().is_none(),
        "packet-path benches must run with the observatory masked off \
         (the zero-alloc window measures the disabled-observability hot path)"
    );
    for &src in &hosts[..8] {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[8],
            size: flow_bytes,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
    }
    net.into_sim()
}

/// The lossy-mode selective-repeat fixture: an 8-to-1 incast into a
/// deliberately starved shared pool, so drop-tail sheds load continuously
/// and the whole NACK → gap-repair → reassembly machinery stays hot for
/// the entire measurement window.
fn lossy_sr_incast_sim(flow_bytes: u64) -> Simulation<Network> {
    let base = NetParams::tomahawk(Scheme::Lossy).without_ecn();
    let recovery = RecoveryConfig::for_rtt(base.base_rtt).selective_repeat();
    let params = base.with_buffer(ByteSize::kib(600)).with_recovery(recovery);
    let mut bld = NetworkBuilder::new(params);
    let hosts: Vec<_> = (0..9).map(|_| bld.host()).collect();
    let sw = bld.switch();
    for &h in &hosts {
        bld.link(h, sw, Bandwidth::from_gbps(100), Delta::from_us(2));
    }
    let mut net = bld.build();
    assert!(!net.tracer().is_on(), "packet-path benches must run with tracing off");
    assert!(
        net.metrics_json().is_none(),
        "packet-path benches must run with the observatory masked off \
         (the zero-alloc window measures the disabled-observability hot path)"
    );
    for &src in &hosts[..8] {
        net.add_flow(FlowSpec {
            src,
            dst: hosts[8],
            size: flow_bytes,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
    }
    net.into_sim()
}

/// Warm-up end of [`late_pause_sim`]: its second incast starts 5 µs
/// before.
const LATE_PAUSE_WARMUP: Time = Time::from_us(300);

/// The first-pause fixture. In warm-up, hosts 0-5 (class 0) and hosts 6
/// and 7 (class 1) burst into host 8 and finish, pausing and resuming
/// each sender's uplink in its class. Just before warm-up ends, hosts 6
/// and 7 start a two-to-one incast into host 8 in class 0, so the first
/// pause intervals of port-classes (host 6, class 0) and (host 7,
/// class 0) close inside the counted window. The second phase buffers
/// less than the first, so no queue grows past its warm-up size. The
/// 6 MiB pool leaves SIH a shared pool small enough that both phases
/// pause.
fn late_pause_sim(scheme: Scheme) -> Simulation<Network> {
    let params = NetParams::tomahawk(scheme).without_ecn().with_buffer(ByteSize::mib(6));
    let mut bld = NetworkBuilder::new(params);
    let hosts: Vec<_> = (0..9).map(|_| bld.host()).collect();
    let sw = bld.switch();
    for &h in &hosts {
        bld.link(h, sw, Bandwidth::from_gbps(100), Delta::from_us(2));
    }
    let mut net = bld.build();
    let second = LATE_PAUSE_WARMUP - Delta::from_us(5);
    let flows = (0..8)
        .map(|i| (i, u8::from(i >= 6), 400 * 1024, Time::ZERO))
        .chain([6, 7].map(|i| (i, 0, 1024 * 1024, second)));
    for (i, class, size, start) in flows {
        net.add_flow(FlowSpec {
            src: hosts[i],
            dst: hosts[8],
            size,
            class,
            start,
            cc: CcKind::Uncontrolled,
        });
    }
    net.into_sim()
}

/// Port-classes (queue- and port-level) that have closed a pause interval
/// by `now`, read from the telemetry report.
fn paused_port_classes(net: &Network, now: Time) -> usize {
    let report = net.telemetry_report(now);
    report
        .ports
        .iter()
        .map(|p| {
            p.classes.iter().filter(|c| c.latency.count() > 0).count()
                + usize::from(p.port_latency.count() > 0)
        })
        .sum()
}

/// Like [`packet_path_probe`] on [`late_pause_sim`], asserting that the
/// window closes the first pause interval of at least one port-class:
/// the histogram a first close materializes must come from capacity
/// reserved at build, not from the allocator.
///
/// The window is 70 µs: both schemes close their first new intervals by
/// 60 µs in. Under SIH each pause cycle also appends to the Fig. 6
/// headroom-peak log of hosts 6 and 7 (DESIGN.md §10's one log that
/// grows with simulated time), which outgrows its warm-up capacity of
/// four entries at 80 µs; DSH charges no headroom here.
fn first_pause_probe(label: &str, mut sim: Simulation<Network>) {
    let warmup_end = LATE_PAUSE_WARMUP;
    let window_end = warmup_end + Delta::from_us(70);
    if std::env::var("DSH_ALLOC_TRACE").is_ok() {
        sim.run_until(warmup_end);
        #[cfg(feature = "alloc-count")]
        alloc_count::TRAP.store(true, std::sync::atomic::Ordering::Relaxed);
        sim.run_until(window_end);
        #[cfg(feature = "alloc-count")]
        alloc_count::TRAP.store(false, std::sync::atomic::Ordering::Relaxed);
        println!("{label} traced");
        return;
    }
    sim.run_until(warmup_end);
    let paused0 = paused_port_classes(sim.model(), sim.now());
    let allocs0 = allocations();
    let packets0 = sim.model().packets_delivered();
    sim.run_until(window_end);
    let allocs1 = allocations(); // Read before anything below allocates.
    assert_eq!(sim.model().data_drops(), 0);
    let paused1 = paused_port_classes(sim.model(), sim.now());
    assert!(
        paused1 > paused0,
        "{label}: no port-class closed its first pause interval in the window \
         ({paused0} before, {paused1} after)"
    );
    let packets = sim.model().packets_delivered() - packets0;
    assert!(packets > 0, "{label}: measurement window saw no deliveries");
    criterion::record_metric(
        &format!("{label}/first_paused_port_classes"),
        (paused1 - paused0) as f64,
    );
    if let (Some(a0), Some(a1)) = (allocs0, allocs1) {
        let allocs = a1 - a0;
        let per_packet = allocs as f64 / packets as f64;
        criterion::record_metric(&format!("{label}/allocs_per_packet"), per_packet);
        assert_eq!(
            allocs, 0,
            "{label}: {allocs} heap allocations in a window of first pauses \
             ({per_packet:.4}/packet) — a first closed pause interval must not allocate"
        );
    }
}

/// Like [`packet_path_probe`] but for the lossy selective-repeat fixture
/// and a caller-chosen `[warmup_end, window_end)` window: drop-tail drops
/// are the point (not asserted zero), and the window must actually
/// exercise the recovery machinery — NACKs and gap repairs — or the
/// zero-allocation claim would be vacuous.
fn sr_path_probe(label: &str, mut sim: Simulation<Network>, warmup_end: Time, window_end: Time) {
    if std::env::var("DSH_ALLOC_TRACE").is_ok() {
        sim.run_until(warmup_end);
        #[cfg(feature = "alloc-count")]
        alloc_count::TRAP.store(true, std::sync::atomic::Ordering::Relaxed);
        sim.run_until(window_end);
        #[cfg(feature = "alloc-count")]
        alloc_count::TRAP.store(false, std::sync::atomic::Ordering::Relaxed);
        println!("{label} traced");
        return;
    }
    sim.run_until(warmup_end);
    let allocs0 = allocations();
    let events0 = sim.events_processed();
    let packets0 = sim.model().packets_delivered();
    let nacks0 = sim.model().nacks_sent();
    let repairs0 = sim.model().sr_retransmitted_bytes();
    let wall = std::time::Instant::now();
    sim.run_until(window_end);
    let wall = wall.elapsed();
    let allocs1 = allocations(); // Read before anything below allocates.
    assert!(sim.model().data_drops() > 0, "{label}: the starved pool never dropped");
    let nacks = sim.model().nacks_sent() - nacks0;
    let repairs = sim.model().sr_retransmitted_bytes() - repairs0;
    assert!(nacks > 0, "{label}: window saw no NACKs — SR path idle");
    assert!(repairs > 0, "{label}: window sent no gap repairs — SR path idle");
    let events = sim.events_processed() - events0;
    let packets = sim.model().packets_delivered() - packets0;
    assert!(packets > 0, "{label}: measurement window saw no deliveries");
    criterion::record_metric(
        &format!("{label}/events_per_sec"),
        events as f64 / wall.as_secs_f64(),
    );
    criterion::record_metric(&format!("{label}/packets"), packets as f64);
    criterion::record_metric(&format!("{label}/nacks"), nacks as f64);
    if let (Some(a0), Some(a1)) = (allocs0, allocs1) {
        let allocs = a1 - a0;
        let per_packet = allocs as f64 / packets as f64;
        criterion::record_metric(&format!("{label}/allocs_per_packet"), per_packet);
        assert_eq!(
            allocs, 0,
            "{label}: {allocs} heap allocations in the steady-state window \
             ({per_packet:.4}/packet) — the selective-repeat hot path must not allocate"
        );
    }
}

/// A 5-switch linear chain (the nominal fat-tree diameter) with one 4 MiB
/// flow per `(transport, start)` in `flows`. A PowerTCP flow's data
/// packets are INT-stamped at five hops and its ACKs echo them back
/// through the reverse path; flows of different transports on the chain
/// take over one another's frame-arena ids.
fn forward_chain_sim(scheme: Scheme, flows: &[(CcKind, Time)]) -> Simulation<Network> {
    let mut bld = NetworkBuilder::new(NetParams::tomahawk(scheme).without_ecn());
    let src = bld.host();
    let dst = bld.host();
    let switches: Vec<_> = (0..5).map(|_| bld.switch()).collect();
    bld.link(src, switches[0], Bandwidth::from_gbps(100), Delta::from_us(2));
    for w in switches.windows(2) {
        bld.link(w[0], w[1], Bandwidth::from_gbps(100), Delta::from_us(2));
    }
    bld.link(switches[4], dst, Bandwidth::from_gbps(100), Delta::from_us(2));
    let mut net = bld.build();
    for &(cc, start) in flows {
        net.add_flow(FlowSpec { src, dst, size: 4 * 1024 * 1024, class: 0, start, cc });
    }
    net.into_sim()
}

/// The PowerTCP chain of the packet-path probes.
const POWERTCP_CHAIN: [(CcKind, Time); 1] = [(CcKind::PowerTcp, Time::ZERO)];

/// The mixed chain: a DCQCN flow joins the PowerTCP flow once the first
/// ACKs are back (one round trip is 24 us), so its plain frames reuse
/// arena ids that carried hop slots.
const MIXED_CHAIN: [(CcKind, Time); 2] =
    [(CcKind::PowerTcp, Time::ZERO), (CcKind::Dcqcn, Time::from_us(30))];

/// Runs `sim` through a warmup (the frame arena, queues and buffers reach
/// their steady capacity) and then a measurement window, recording
/// events/second and — with the counting allocator — heap allocations per
/// delivered packet, which must be zero on the incast.
fn packet_path_probe(label: &str, mut sim: Simulation<Network>, assert_zero: bool) {
    let warmup_end = Time::from_us(100);
    let window_end = Time::from_us(400);
    if std::env::var("DSH_ALLOC_TRACE").is_ok() {
        sim.run_until(warmup_end);
        #[cfg(feature = "alloc-count")]
        alloc_count::TRAP.store(true, std::sync::atomic::Ordering::Relaxed);
        sim.run_until(window_end);
        #[cfg(feature = "alloc-count")]
        alloc_count::TRAP.store(false, std::sync::atomic::Ordering::Relaxed);
        println!("{label} traced");
        return;
    }
    sim.run_until(warmup_end);
    let allocs0 = allocations();
    let events0 = sim.events_processed();
    let packets0 = sim.model().packets_delivered();
    let wall = std::time::Instant::now();
    sim.run_until(window_end);
    let wall = wall.elapsed();
    let allocs1 = allocations(); // Read before anything below allocates.
    assert_eq!(sim.model().data_drops(), 0);
    let events = sim.events_processed() - events0;
    let packets = sim.model().packets_delivered() - packets0;
    assert!(packets > 0, "{label}: measurement window saw no deliveries");
    criterion::record_metric(
        &format!("{label}/events_per_sec"),
        events as f64 / wall.as_secs_f64(),
    );
    criterion::record_metric(&format!("{label}/packets"), packets as f64);
    if let (Some(a0), Some(a1)) = (allocs0, allocs1) {
        let allocs = a1 - a0;
        let per_packet = allocs as f64 / packets as f64;
        criterion::record_metric(&format!("{label}/allocs_per_packet"), per_packet);
        if assert_zero {
            assert_eq!(
                allocs, 0,
                "{label}: {allocs} heap allocations in the steady-state window \
                 ({per_packet:.4}/packet) — the packet hot path must not allocate"
            );
        }
    }
}

/// Steady-state packet-path probes: timing plus allocation accounting.
fn packet_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_path");
    g.sample_size(10);
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        g.bench_function(format!("forward_chain_5sw_{scheme}"), |b| {
            b.iter(|| {
                let mut sim = forward_chain_sim(scheme, &POWERTCP_CHAIN);
                sim.run_until(Time::from_us(500));
                assert_eq!(sim.model().data_drops(), 0);
                sim.events_processed()
            });
        });
    }
    g.finish();
    // Alloc-accounted steady-state windows (once each; not timed loops).
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        packet_path_probe(
            &format!("packet_path/incast_8_to_1_{scheme}"),
            incast_sim(scheme, 1024 * 1024),
            true,
        );
        packet_path_probe(
            &format!("packet_path/forward_chain_5sw_{scheme}"),
            forward_chain_sim(scheme, &POWERTCP_CHAIN),
            true,
        );
        packet_path_probe(
            &format!("packet_path/forward_chain_5sw_mixed_{scheme}"),
            forward_chain_sim(scheme, &MIXED_CHAIN),
            true,
        );
    }
    for scheme in [Scheme::Sih, Scheme::Dsh] {
        first_pause_probe(&format!("packet_path/first_pauses_{scheme}"), late_pause_sim(scheme));
    }
    sr_path_probe(
        "packet_path/lossy_sr_incast_8_to_1",
        lossy_sr_incast_sim(4 * 1024 * 1024),
        Time::from_us(100),
        Time::from_us(400),
    );
    // A window far past warmup: any per-switch bookkeeping that grows
    // with simulated time (rather than with the fabric) shows up here as
    // a mid-run `Vec` regrowth. The lossy fixture charges no headroom, so
    // Fig. 6's headroom-peak log never appends.
    sr_path_probe(
        "packet_path/lossy_sr_incast_8_to_1_late",
        lossy_sr_incast_sim(40 * 1024 * 1024),
        Time::from_ms(10),
        Time::from_ms(20),
    );
}

criterion_group!(
    benches,
    event_queue_throughput,
    end_to_end_incast,
    packet_path,
    fig14_sweep_parallel
);
criterion_main!(benches);
