//! Property-based tests of the MMU's accounting and flow-control
//! invariants, driven by randomized arrival/departure traces.

use dsh_core::{FcAction, Mmu, MmuConfig, Region, Scheme};
use dsh_simcore::ByteSize;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A random MMU op: arrival at (port, queue) of a packet, or departure of
/// the oldest buffered packet of (port, queue).
#[derive(Clone, Copy, Debug)]
enum Op {
    Arrive { port: usize, queue: usize, bytes: u64 },
    Depart { port: usize, queue: usize },
}

fn op_strategy(ports: usize, queues: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ports, 0..queues, 64u64..4000).prop_map(|(port, queue, bytes)| Op::Arrive {
            port,
            queue,
            bytes
        }),
        (0..ports, 0..queues).prop_map(|(port, queue)| Op::Depart { port, queue }),
    ]
}

fn cfg(scheme: Scheme, ports: usize, queues: usize, port_fc: bool) -> MmuConfig {
    let mut b = MmuConfig::builder();
    b.scheme(scheme)
        .total_buffer(ByteSize::mib(2))
        .ports(ports)
        .lossless_queues(queues)
        .private_per_queue(ByteSize::kib(3))
        .eta(ByteSize::bytes(40_000))
        .alpha(0.25);
    if !port_fc {
        b.without_dsh_port_fc();
    }
    b.build()
}

/// Replays ops against the MMU, mirroring buffered packets (with their
/// admission region, the per-packet pool tag) in FIFO shadows, and checks
/// conservation plus a clean [`Mmu::audit`] at every step.
fn check_trace(scheme: Scheme, port_fc: bool, ops: &[Op]) {
    let (ports, queues) = (3usize, 2usize);
    let mut mmu = Mmu::new(cfg(scheme, ports, queues, port_fc));
    let mut fifos: Vec<VecDeque<(u64, Region)>> = vec![VecDeque::new(); ports * queues];
    let mut buffered: u64 = 0;
    let eta = 40_000u64;

    for &op in ops {
        match op {
            Op::Arrive { port, queue, bytes } => {
                let out = mmu.on_arrival(port, queue, bytes);
                if let Some(region) = out.region {
                    // SIH never uses insurance; DSH never uses static
                    // headroom.
                    match scheme {
                        Scheme::Sih => assert_ne!(region, Region::Insurance),
                        Scheme::Dsh => assert_ne!(region, Region::Headroom),
                        Scheme::Lossy => assert!(
                            matches!(region, Region::Private | Region::Shared),
                            "lossy admits only to private/shared, got {region}"
                        ),
                    }
                    fifos[port * queues + queue].push_back((bytes, region));
                    buffered += bytes;
                } else {
                    // Lossless guarantee: a drop may only happen once the
                    // last-resort segment lacks room for this very packet.
                    let slack = match scheme {
                        Scheme::Sih => eta - mmu.headroom_occupancy(port, queue),
                        Scheme::Dsh if port_fc => eta - mmu.insurance_occupancy(port),
                        // Ablated DSH has no last-resort segment; drops are
                        // expected (that is the ablation's point). Lossy
                        // drops by design once the shared pool rejects.
                        Scheme::Dsh | Scheme::Lossy => bytes,
                    };
                    assert!(
                        slack < bytes,
                        "dropped a {bytes} B packet with {slack} B of headroom slack"
                    );
                    assert!(out.drop_reason.is_some(), "drops must carry an attribution");
                }
            }
            Op::Depart { port, queue } => {
                if let Some((bytes, region)) = fifos[port * queues + queue].pop_front() {
                    let _ = mmu.on_departure(port, queue, bytes, region);
                    buffered -= bytes;
                }
            }
        }

        // Conservation: everything the MMU counts equals what we buffered.
        let mut counted = 0;
        for p in 0..ports {
            counted += mmu.insurance_occupancy(p);
            for q in 0..queues {
                counted += mmu.queue_occupancy(p, q);
            }
        }
        assert_eq!(counted, buffered, "MMU accounting must match buffered bytes");

        // The buffer never overflows physically.
        assert!(buffered <= 2 * 1024 * 1024, "physical overflow");

        // Every internal invariant holds, in release builds too.
        let report = mmu.audit();
        assert!(report.is_clean(), "{report}");
    }

    // Drain everything: all counters return to zero and every pause is
    // eventually matched by a resume.
    for p in 0..ports {
        for q in 0..queues {
            while let Some((bytes, region)) = fifos[p * queues + q].pop_front() {
                let _ = mmu.on_departure(p, q, bytes, region);
            }
        }
    }
    assert_eq!(mmu.total_shared(), 0);
    for p in 0..ports {
        assert_eq!(mmu.insurance_occupancy(p), 0);
        assert!(!mmu.port_paused(p), "port {p} stuck paused after drain");
        for q in 0..queues {
            assert_eq!(mmu.queue_occupancy(p, q), 0);
            assert!(!mmu.queue_paused(p, q), "queue ({p},{q}) stuck paused after drain");
        }
    }
    let st = mmu.stats();
    assert_eq!(st.queue_pauses, st.queue_resumes);
    assert_eq!(st.port_pauses, st.port_resumes);
    let report = mmu.audit();
    assert!(report.is_clean(), "after drain: {report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sih_invariants_hold(ops in proptest::collection::vec(op_strategy(3, 2), 1..400)) {
        check_trace(Scheme::Sih, true, &ops);
    }

    #[test]
    fn dsh_invariants_hold(ops in proptest::collection::vec(op_strategy(3, 2), 1..400)) {
        check_trace(Scheme::Dsh, true, &ops);
    }

    #[test]
    fn ablated_dsh_invariants_hold(ops in proptest::collection::vec(op_strategy(3, 2), 1..400)) {
        check_trace(Scheme::Dsh, false, &ops);
    }

    #[test]
    fn lossy_invariants_hold(ops in proptest::collection::vec(op_strategy(3, 2), 1..400)) {
        check_trace(Scheme::Lossy, true, &ops);
    }

    /// A pause-respecting upstream never loses a packet: after a queue
    /// pause, at most η more bytes arrive before the upstream stalls.
    #[test]
    fn dsh_is_lossless_for_pause_respecting_upstreams(
        seed in 0u64..1000,
        burst_packets in 1usize..64,
    ) {
        let mut mmu = Mmu::new(cfg(Scheme::Dsh, 3, 2, true));
        let mut rng = dsh_simcore::SimRng::new(seed);
        let eta = 40_000u64;
        // Each port obeys PFC: after a port pause it may deliver at most
        // eta in-flight bytes; after a queue pause, eta for that queue.
        let mut port_budget = [u64::MAX; 3];
        let mut fifo: Vec<VecDeque<(u64, Region)>> = vec![VecDeque::new(); 6];
        for _ in 0..2000 {
            let port = rng.gen_index(3);
            let queue = rng.gen_index(2);
            for _ in 0..burst_packets {
                if port_budget[port] == 0 {
                    break;
                }
                let bytes = 1500.min(port_budget[port]);
                let out = mmu.on_arrival(port, queue, bytes);
                prop_assert!(out.region.is_some(), "drop for a pause-respecting upstream");
                fifo[port * 2 + queue].push_back((bytes, out.region.unwrap()));
                for a in out.actions {
                    if let FcAction::PortPause { port: p } = a {
                        port_budget[p] = eta;
                    }
                }
                if port_budget[port] != u64::MAX {
                    port_budget[port] = port_budget[port].saturating_sub(bytes);
                }
            }
            // Random partial drain, which can resume ports.
            for _ in 0..rng.gen_index(3 * burst_packets + 1) {
                let p = rng.gen_index(3);
                let q = rng.gen_index(2);
                if let Some((b, r)) = fifo[p * 2 + q].pop_front() {
                    for a in mmu.on_departure(p, q, b, r) {
                        if let FcAction::PortResume { port } = a {
                            port_budget[port] = u64::MAX;
                        }
                    }
                }
            }
        }
        prop_assert!(mmu.audit().is_clean());
    }
}
