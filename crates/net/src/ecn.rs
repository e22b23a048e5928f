//! RED-style ECN marking at switch egress queues (DCQCN's congestion
//! point), with the DCQCN defaults scaled for 100 Gb/s links (ns-3
//! community settings). `NetParams::ecn` switches it on or off.

use dsh_simcore::SimRng;

/// Below this egress queue length (bytes) nothing is marked (`K_min`).
pub(crate) const KMIN: u64 = 100 * 1024;

/// At or above this egress queue length (bytes) every data frame is
/// marked (`K_max`).
pub(crate) const KMAX: u64 = 400 * 1024;

/// Marking probability at [`KMAX`], ramping linearly from 0 at [`KMIN`]
/// (`P_max`).
pub(crate) const PMAX: f64 = 0.2;

/// Decides whether a data frame enqueued behind `qlen_bytes` is CE-marked.
pub(crate) fn mark(qlen_bytes: u64, rng: &mut SimRng) -> bool {
    if qlen_bytes < KMIN {
        false
    } else if qlen_bytes >= KMAX {
        true
    } else {
        let p = PMAX * (qlen_bytes - KMIN) as f64 / (KMAX - KMIN) as f64;
        rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_kmin_never_marks() {
        let mut rng = SimRng::new(1);
        assert!((0..1000).all(|_| !mark(50_000, &mut rng)));
    }

    #[test]
    fn above_kmax_always_marks() {
        let mut rng = SimRng::new(1);
        assert!((0..1000).all(|_| mark(500_000, &mut rng)));
    }

    #[test]
    fn ramp_probability_scales() {
        let mut rng = SimRng::new(2);
        let mid = (KMIN + KMAX) / 2;
        let hits = (0..100_000).filter(|_| mark(mid, &mut rng)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.1).abs() < 0.01, "{frac}");
    }
}
