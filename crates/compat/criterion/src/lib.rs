//! A small, dependency-free stand-in for the `criterion` crate.
//!
//! This workspace builds in offline environments where crates.io is not
//! reachable. The benches only need `Criterion::bench_function`,
//! benchmark groups, `iter` / `iter_batched` / `iter_batched_ref`, and the
//! `criterion_group!` / `criterion_main!` macros — this crate provides
//! those, timing each benchmark over a small fixed iteration count and
//! printing `name ... mean <time>` lines instead of full statistics.

#![forbid(unsafe_code)]

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded benchmark outcome (what the JSON trajectory stores).
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Benchmark id (`group/function`).
    pub name: String,
    /// Mean wall-clock per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Iterations timed.
    pub iterations: u64,
}

static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// One named scalar recorded alongside the timing results (e.g. an
/// allocation count measured by a bench with a counting allocator).
#[derive(Clone, Debug)]
pub struct MetricRecord {
    /// Metric id (free-form, conventionally `group/function/metric`).
    pub name: String,
    /// The measured value.
    pub value: f64,
}

static METRICS: Mutex<Vec<MetricRecord>> = Mutex::new(Vec::new());

/// Records a named scalar metric into the JSON report's `metrics` array.
///
/// Benches use this for non-timing measurements (allocation counts,
/// events/second, packets) that belong in the same perf-trajectory point
/// as the means.
///
/// # Panics
///
/// Panics if the metric store mutex is poisoned.
pub fn record_metric(name: &str, value: f64) {
    println!("{name:<50} metric {value}");
    METRICS
        .lock()
        .expect("metric records poisoned")
        .push(MetricRecord { name: name.to_string(), value });
}

/// Environment variable naming the file [`emit_json_if_requested`] writes.
pub const JSON_ENV: &str = "DSH_BENCH_JSON";

/// The worker count a `DSH_THREADS` value configures on a host with
/// `cores` cores: the count itself, else (unset or `0`) every core.
///
/// # Errors
///
/// A malformed value (see [`dsh_simcore::exec::parse_threads`]).
fn threads_from(env: Option<&str>, cores: usize) -> Result<usize, String> {
    match env.map(dsh_simcore::exec::parse_threads).transpose()? {
        None | Some(0) => Ok(cores),
        Some(n) => Ok(n),
    }
}

/// The worker count `DSH_THREADS` configures, else every core. A
/// malformed value prints the error and exits with status 2, as the
/// figure binaries do; `criterion_main!` checks it before any bench runs.
#[must_use]
pub fn configured_threads() -> usize {
    let env = std::env::var(dsh_simcore::exec::THREADS_ENV).ok();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    threads_from(env.as_deref(), cores).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Writes every benchmark recorded so far as one JSON document to `path`
/// (the perf-trajectory format: machine parallelism + per-bench means).
///
/// # Errors
///
/// Propagates the underlying file write error.
pub fn emit_json_to(path: &str) -> std::io::Result<()> {
    let records = RECORDS.lock().expect("bench records poisoned");
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    // The provenance records what the run was *configured* to use, not
    // what the host could have offered: DSH_THREADS, else all cores,
    // the same fallback the figure binaries' `--threads` uses.
    // `available_parallelism` stays alongside as the host context that
    // count should be read against.
    let threads = configured_threads();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    out.push_str(&format!(
        "  \"provenance\": {{\"harness_version\": \"{}\", \"threads\": {threads}, \
         \"available_parallelism\": {cores}, \"command\": \"{}\"}},\n",
        json_escape(env!("CARGO_PKG_VERSION")),
        json_escape(&std::env::args().collect::<Vec<_>>().join(" ")),
    ));
    out.push_str("  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {}, \"iterations\": {}}}{comma}\n",
            json_escape(&r.name),
            r.mean_ns,
            r.iterations
        ));
    }
    out.push_str("  ],\n");
    let metrics = METRICS.lock().expect("metric records poisoned");
    out.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {}}}{comma}\n",
            json_escape(&m.name),
            m.value
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// Writes the recorded benchmarks to the path named by `DSH_BENCH_JSON`,
/// if set. `criterion_main!` calls this after all groups have run.
///
/// # Panics
///
/// Panics if the file cannot be written — a silent miss would record an
/// empty perf trajectory point.
pub fn emit_json_if_requested() {
    if let Ok(path) = std::env::var(JSON_ENV) {
        emit_json_to(&path).expect("failed to write benchmark JSON");
    }
}

/// How to batch setup output between iterations (API-compatible subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Opaque hint preventing the optimizer from deleting a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Per-benchmark timing driver.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    fn new(iterations: u64) -> Self {
        Bencher { iterations, elapsed: Duration::ZERO }
    }

    /// Times `routine` over the configured iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh values produced by `setup` (consumed).
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }

    /// Times `routine` over fresh values produced by `setup` (by `&mut`).
    pub fn iter_batched_ref<I, O, S: FnMut() -> I, R: FnMut(&mut I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iterations {
            let mut input = setup();
            let start = Instant::now();
            black_box(routine(&mut input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// Entry point handed to each benchmark function.
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

fn run_one(label: &str, iterations: u64, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher::new(iterations);
    f(&mut b);
    let mean = if b.iterations > 0 { b.elapsed / b.iterations as u32 } else { Duration::ZERO };
    println!("{label:<50} mean {mean:>12.3?} ({} iters)", b.iterations);
    RECORDS.lock().expect("bench records poisoned").push(BenchRecord {
        name: label.to_string(),
        mean_ns: mean.as_nanos() as f64,
        iterations: b.iterations,
    });
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.sample_size, &mut f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.to_string(), sample_size: self.sample_size, _parent: self }
    }
}

/// A group of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: u64,
    _parent: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the group's iteration count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u64;
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<I: std::fmt::Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_size, &mut f);
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Declares a group function calling each benchmark with one `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` running the listed groups, then emitting the
/// JSON perf-trajectory point when `DSH_BENCH_JSON` names a file.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let _ = $crate::configured_threads();
            $( $group(); )+
            $crate::emit_json_if_requested();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_env_fails_fast_on_malformed_values() {
        assert_eq!(threads_from(None, 8), Ok(8));
        assert_eq!(threads_from(Some("0"), 8), Ok(8), "0 means every core");
        assert_eq!(threads_from(Some("2"), 8), Ok(2));
        for bad in ["abc", "-1"] {
            let e = threads_from(Some(bad), 8).unwrap_err();
            assert!(e.contains(&format!("invalid value for DSH_THREADS: '{bad}'")), "{e}");
        }
    }

    #[test]
    fn bencher_counts_iterations() {
        let mut calls = 0u64;
        let mut c = Criterion::default();
        c.bench_function("count", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 10);
    }

    #[test]
    fn emit_json_records_bench_results() {
        let mut c = Criterion::default();
        c.bench_function("json_emission_probe", |b| b.iter(|| 1 + 1));
        record_metric("probe/allocs_per_packet", 0.0);
        let path = std::env::temp_dir().join("dsh_criterion_emit_test.json");
        emit_json_to(path.to_str().unwrap()).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(body.contains("\"available_parallelism\""), "{body}");
        assert!(body.contains("\"provenance\""), "{body}");
        assert!(body.contains("\"harness_version\""), "{body}");
        assert!(body.contains("\"threads\""), "{body}");
        assert!(body.contains("\"json_emission_probe\""), "{body}");
        assert!(body.contains("\"mean_ns\""), "{body}");
        assert!(body.contains("\"metrics\""), "{body}");
        assert!(body.contains("\"probe/allocs_per_packet\""), "{body}");
    }

    #[test]
    fn batched_ref_gets_fresh_state() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_function("fresh", |b| {
            b.iter_batched_ref(
                Vec::<u64>::new,
                |v| {
                    v.push(1);
                    assert_eq!(v.len(), 1);
                },
                BatchSize::SmallInput,
            );
        });
        g.finish();
    }
}
