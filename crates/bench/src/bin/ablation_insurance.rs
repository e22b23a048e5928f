//! Ablation: what happens to DSH *without* its port-level flow control
//! and insurance headroom (DESIGN.md §IV-A idea 1)?
//!
//! Queue-level-only DSH drops packets under adversarial multi-queue
//! incast: the queue-level threshold `T − η` cannot bound the sum of all
//! queues. This regenerates the data behind the paper's argument that the
//! insurance headroom is what makes DSH *provably* lossless.
//!
//! ```bash
//! cargo run --release -p dsh-bench --bin ablation_insurance
//! ```

use dsh_core::{Mmu, MmuConfig, Scheme};

/// Drives an adversarial pattern against a chip-level MMU: every queue of
/// every port bursts in lockstep with the pause feedback delayed by one
/// "RTT" of in-flight packets. Returns (drops, port_pauses).
fn adversarial(cfg: MmuConfig) -> (u64, u64) {
    let ports = cfg.num_ports;
    let queues = cfg.queues_per_port;
    let eta = cfg.eta_for(0).as_u64();
    let mut mmu = Mmu::new(cfg);
    // Each (port, queue) keeps sending until it has seen a pause AND
    // delivered eta more bytes (the worst-case in-flight allowance).
    let mut budget = vec![u64::MAX; ports * queues];
    for _round in 0..100_000 {
        let mut active = false;
        for p in 0..ports {
            for q in 0..queues {
                let i = p * queues + q;
                if budget[i] == 0 {
                    continue;
                }
                active = true;
                let bytes = 1500.min(budget[i]);
                let out = mmu.on_arrival(p, q, bytes);
                if budget[i] != u64::MAX {
                    budget[i] = budget[i].saturating_sub(bytes);
                }
                for a in out.actions {
                    match a {
                        dsh_core::FcAction::QueuePause { port, queue } => {
                            let j = port * queues + queue;
                            if budget[j] == u64::MAX {
                                budget[j] = eta;
                            }
                        }
                        dsh_core::FcAction::PortPause { port } => {
                            for qq in 0..queues {
                                let j = port * queues + qq;
                                if budget[j] == u64::MAX {
                                    budget[j] = eta / queues as u64;
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        if !active {
            break;
        }
    }
    let st = mmu.stats();
    (st.dropped_packets, st.port_pauses)
}

fn main() {
    println!("Ablation — DSH with vs without port-level FC + insurance headroom");
    println!("(adversarial all-queue lockstep burst, pause feedback delayed by eta)");
    let full = MmuConfig::tomahawk(Scheme::Dsh);
    let mut b = MmuConfig::builder();
    b.scheme(Scheme::Dsh).without_dsh_port_fc();
    let ablated = b.build();

    let (d_full, pp_full) = adversarial(full);
    let (d_abl, pp_abl) = adversarial(ablated);
    println!("  DSH (full)         : drops = {d_full:>6}, port pauses = {pp_full}");
    println!("  DSH (no insurance) : drops = {d_abl:>6}, port pauses = {pp_abl}");
    assert_eq!(d_full, 0, "full DSH must be lossless");
    println!();
    if d_abl > 0 {
        println!("=> queue-level flow control alone cannot guarantee losslessness;");
        println!("   the per-port insurance headroom (Eq. 4) is what closes the proof.");
    } else {
        println!("=> no drops in this pattern; increase adversarial pressure.");
    }
}
