//! Fig. 5: average FCT vs switch buffer size (motivation §III-A) —
//! PowerTCP, web search at 0.9 total load, leaf–spine. The paper plots
//! SIH only (the figure motivates DSH); the harness sweeps both schemes
//! so the same pipeline compares the SIH and DSH curves.

use crate::fabric::{run_fct, FctExperiment};
use crate::par_grid;
use dsh_core::Scheme;
use dsh_simcore::{ByteSize, Executor};
use dsh_transport::CcKind;

/// One point of Fig. 5.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Point {
    /// Buffer size (MiB).
    pub buffer_mib: u64,
    /// Average FCT in milliseconds.
    pub avg_fct_ms: f64,
    /// Completed flows.
    pub completed: usize,
}

/// Runs one buffer size under one scheme.
#[must_use]
pub fn run_point(scheme: Scheme, buffer_mib: u64, base: &FctExperiment) -> Fig5Point {
    let exp =
        FctExperiment { scheme, cc: CcKind::PowerTcp, buffer: ByteSize::mib(buffer_mib), ..*base };
    let r = run_fct(&exp);
    Fig5Point {
        buffer_mib,
        avg_fct_ms: r.all.map(|s| s.avg_secs * 1e3).unwrap_or(f64::NAN),
        completed: r.completed,
    }
}

/// Sweeps the paper's buffer sizes (14–30 MB) for one scheme on the pool.
#[must_use]
pub fn sweep(
    scheme: Scheme,
    buffers_mib: &[u64],
    base: &FctExperiment,
    ex: &Executor,
) -> Vec<Fig5Point> {
    ex.par_map(buffers_mib.to_vec(), |b| run_point(scheme, b, base))
}

/// Sweeps the full scheme × buffer grid on the pool; one curve per
/// scheme, in [`Scheme::ALL`] order.
#[must_use]
pub fn sweep_schemes(
    buffers_mib: &[u64],
    base: &FctExperiment,
    ex: &Executor,
) -> Vec<(Scheme, Vec<Fig5Point>)> {
    let curves = par_grid(ex, &Scheme::ALL, buffers_mib, |s, b| run_point(s, b, base));
    Scheme::ALL.into_iter().zip(curves).collect()
}
