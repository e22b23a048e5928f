//! Experiment harness reproducing every figure of *"Less is More"*
//! (ICDCS 2023).
//!
//! Each module builds the exact scenario of one paper figure and returns
//! the measured series; the binaries in `src/bin/` print them as tables,
//! and the Criterion benches in `benches/` time scaled-down variants.
//!
//! | module | paper figure |
//! |--------|--------------|
//! | [`fig04`] | Buffer/headroom trend across Broadcom chips |
//! | [`fig05`] | FCT vs buffer size |
//! | [`fig06`] | Headroom utilization CDF |
//! | [`fig11`] | PFC avoidance (pause duration vs burst size) |
//! | [`fig12`] | Deadlock onset CDF |
//! | [`fig13`] | Collateral damage (victim throughput) |
//! | [`fig13x`] | Link-flap robustness (extension, not in the paper) |
//! | [`fig14`] | FCT vs background load (web search, leaf–spine) |
//! | [`fig15`] | FCT across workloads and fat-tree |
//! | [`fig17`] | Lossless-vs-lossy trade-off (extension, not in the paper) |
//! | [`fig18`] | Cascade anatomy: PFC pause propagation under incast (extension, not in the paper) |
//! | [`theory`] | Theorems 1–2 validation |

#![forbid(unsafe_code)]

pub mod fabric;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig13x;
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod fig18;
pub mod theory;

use dsh_net::{Network, ObserveConfig};
use dsh_simcore::trace::{self, TraceConfig, TraceMask};
use dsh_simcore::{exec, Executor, Json};
use dsh_transport::Regime;

/// Environment fallback for `--metrics` (an output PATH).
pub const METRICS_ENV: &str = "DSH_METRICS";

/// Command-line options shared by the figure binaries, collected in a
/// single pass over argv.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--full`: run at paper scale instead of the laptop-scale default.
    pub full: bool,
    /// `--json`: also print structured telemetry as one JSON document.
    pub json: bool,
    /// `--smoke`: CI-sized single-point run with hard assertions instead
    /// of a sweep (exits non-zero on violation).
    pub smoke: bool,
    /// `--seed N` (default 1).
    pub seed: u64,
    /// `--threads N`, falling back to `DSH_THREADS`; 0 means "auto"
    /// (available parallelism). Resolve through [`Args::executor`].
    pub threads: usize,
    /// `--trace PATH`: record flight-recorder traces for every
    /// simulation of the run and write a Chrome `trace_event` JSON
    /// document to PATH (see [`with_trace`]).
    pub trace: Option<String>,
    /// `--regime gbn|sr`: loss-recovery regime for figures that exercise
    /// recovery (fig17). `None` = flag not given, figure defaults apply.
    pub regime: Option<Regime>,
    /// `--no-recovery`: run without loss recovery where the figure allows
    /// it (lossy cells always need recovery; combining with `--regime`
    /// is a usage error — the regime would silently have no effect).
    pub no_recovery: bool,
    /// `--metrics PATH`, falling back to `DSH_METRICS`: arm the
    /// pause-causality tracker and metrics sampler for the figure's
    /// representative run and write the export to PATH (see
    /// [`write_metrics`]). `None` (the default) keeps the observability
    /// hooks masked off entirely.
    pub metrics: Option<String>,
}

/// Usage text printed (to stderr) when argument parsing fails.
pub const USAGE: &str = "\
usage: <figure-binary> [OPTIONS]
  --full          run at paper scale instead of the laptop-scale default
  --json          also print structured telemetry as one JSON document
  --smoke         CI-sized single-point run with hard assertions
  --seed N        RNG seed (unsigned integer, default 1)
  --threads N     worker pool width (0 = auto; DSH_THREADS fallback)
  --trace PATH    write a Chrome trace_event JSON document to PATH
  --regime R      loss-recovery regime where a figure exercises recovery:
                  gbn (go-back-N) | sr (selective repeat)
  --no-recovery   disable loss recovery where the figure allows it
                  (rejected together with --regime)
  --metrics PATH  arm the pause-causality/metrics sampler for the
                  figure's representative run and write the export to
                  PATH (DSH_METRICS fallback)";

impl Args {
    /// Parses the process argv, with `DSH_THREADS` as the `--threads`
    /// fallback. Invalid arguments, and a set `DSH_THREADS` that is not
    /// an unsigned integer, print the error and [`USAGE`] to stderr and
    /// exit with status 2 — a typo'd flag or value must never silently
    /// run with defaults.
    #[must_use]
    pub fn parse() -> Args {
        let parsed = Args::from_iter(
            std::env::args().skip(1),
            std::env::var(exec::THREADS_ENV).ok().as_deref(),
            std::env::var(METRICS_ENV).ok().as_deref(),
        );
        match parsed {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit token stream (testable core of [`Args::parse`]).
    ///
    /// # Errors
    ///
    /// Fails fast on unknown tokens, missing operands (`--seed`,
    /// `--threads`, `--trace` all take one) and unparseable values,
    /// including a malformed `DSH_THREADS` value (`env_threads`) —
    /// the old scanner silently kept defaults, so `--seed abc` ran with
    /// seed 1 and `--trace` as the last token produced no trace at all.
    fn from_iter<I: IntoIterator<Item = String>>(
        argv: I,
        env_threads: Option<&str>,
        env_metrics: Option<&str>,
    ) -> Result<Args, String> {
        let threads = match env_threads {
            Some(v) => exec::parse_threads(v)?,
            None => 0,
        };
        let mut args = Args {
            full: false,
            json: false,
            smoke: false,
            seed: 1,
            threads,
            trace: None,
            regime: None,
            no_recovery: false,
            metrics: env_metrics.map(str::to_string),
        };
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--full" => args.full = true,
                "--json" => args.json = true,
                "--smoke" => args.smoke = true,
                "--seed" => args.seed = parse_value(&tok, it.next())?,
                "--threads" => args.threads = parse_value(&tok, it.next())?,
                "--trace" => {
                    let path =
                        it.next().ok_or_else(|| "--trace requires a PATH operand".to_string())?;
                    if path.starts_with("--") {
                        return Err(format!("--trace requires a PATH operand, got flag '{path}'"));
                    }
                    args.trace = Some(path);
                }
                "--regime" => {
                    let r = it.next().ok_or_else(|| "--regime requires a value".to_string())?;
                    args.regime = Some(match r.as_str() {
                        "gbn" => Regime::GoBackN,
                        "sr" => Regime::SelectiveRepeat,
                        _ => {
                            return Err(format!(
                                "invalid value for --regime: '{r}' (expected gbn or sr)"
                            ))
                        }
                    });
                }
                "--no-recovery" => args.no_recovery = true,
                "--metrics" => {
                    let path =
                        it.next().ok_or_else(|| "--metrics requires a PATH operand".to_string())?;
                    if path.starts_with("--") {
                        return Err(format!(
                            "--metrics requires a PATH operand, got flag '{path}'"
                        ));
                    }
                    args.metrics = Some(path);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if args.no_recovery && args.regime.is_some() {
            return Err("--no-recovery disables loss recovery, so --regime would have no effect; \
                 drop one of the two"
                .to_string());
        }
        Ok(args)
    }

    /// The worker pool the sweeps should run on.
    #[must_use]
    pub fn executor(&self) -> Executor {
        Executor::new(self.threads)
    }
}

/// Parses the operand of a value-taking flag, failing on a missing or
/// unparseable operand.
fn parse_value<T: std::str::FromStr>(flag: &str, operand: Option<String>) -> Result<T, String> {
    let v = operand.ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse().map_err(|_| format!("invalid value for {flag}: '{v}' (expected unsigned integer)"))
}

/// The provenance header embedded in every JSON artifact the harness
/// emits (Chrome traces, structured dumps, bench metrics): the run's
/// inputs, the sweep threads actually in force (not just what the host
/// could offer), and the host's available parallelism for context,
/// stamped with the package version. Per-scheme artifacts add their own
/// `scheme` field; trace logs carry the scheme in their
/// [`dsh_simcore::trace::TraceKey`] tag instead.
#[must_use]
pub fn provenance(args: &Args) -> Json {
    Json::object()
        .with("seed", args.seed)
        .with("threads", args.executor().threads() as u64)
        .with("available_parallelism", exec::default_threads() as u64)
        .with("version", env!("CARGO_PKG_VERSION"))
}

/// Runs `f` under a flight-recorder capture session when `--trace PATH`
/// was given, then writes the Chrome `trace_event` JSON document (see
/// [`dsh_simcore::trace::chrome_trace`]) to PATH. Without the flag `f`
/// runs directly — no session, no recording, zero overhead.
///
/// The category mask honours `DSH_TRACE_MASK` when set and defaults to
/// every category; the per-simulation ring capacity honours
/// `DSH_TRACE_CAP`.
pub fn with_trace<R>(args: &Args, f: impl FnOnce() -> R) -> R {
    let Some(path) = args.trace.as_deref() else { return f() };
    let env = TraceConfig::from_env();
    let mask = if env.mask.is_empty() { TraceMask::ALL } else { env.mask };
    let (result, logs) = trace::capture(mask, env.capacity, f);
    let records: usize = logs.iter().map(|l| l.records.len()).sum();
    let doc = trace::chrome_trace(&logs, provenance(args));
    if let Err(e) = std::fs::write(path, doc.to_string()) {
        eprintln!("[dsh] failed to write trace to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[dsh] wrote Chrome trace: {} simulations, {records} records -> {path}", logs.len());
    result
}

/// The observability configuration a figure's representative run should
/// arm: `Some` exactly when `--metrics`/`DSH_METRICS` asked for an
/// export. Every other run keeps the hooks masked off (`params.observe`
/// stays `None`, one `Option` branch on the pause paths, nothing on the
/// packet path).
#[must_use]
pub fn observe_config(args: &Args) -> Option<ObserveConfig> {
    args.metrics.as_ref().map(|_| ObserveConfig)
}

/// Writes the `--metrics` export for a finished run whose network was
/// armed with [`observe_config`]. A no-op without `--metrics`. The JSON
/// document embeds the network's run-intrinsic provenance (seed, scheme,
/// version — deliberately not thread/worker counts, so the export stays
/// byte-identical at any parallelism).
///
/// Exits non-zero when the run was not armed (a figure wiring bug — the
/// flag must never silently produce nothing) or the file cannot be
/// written.
pub fn write_metrics(args: &Args, net: &Network) {
    let Some(path) = args.metrics.as_deref() else { return };
    let Some(rendered) = net.metrics_json().map(|doc| doc.to_string()) else {
        eprintln!("[dsh] --metrics run finished without the sampler armed (figure wiring bug)");
        std::process::exit(1);
    };
    if let Err(e) = std::fs::write(path, &rendered) {
        eprintln!("[dsh] failed to write metrics to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[dsh] wrote metrics export ({} bytes) -> {path}", rendered.len());
}

/// Runs `run` on every `(row, col)` cell of `rows × cols` as one
/// flattened grid on the pool and regroups the results: one `Vec` per
/// row, in `rows` order, each holding that row's cells in `cols` order.
/// The one place a sweep flattens and regroups its grid, so a sweep over
/// [`dsh_core::Scheme::ALL`] follows the scheme set without edits.
pub fn par_grid<R, C, T>(
    ex: &Executor,
    rows: &[R],
    cols: &[C],
    run: impl Fn(R, C) -> T + Sync,
) -> Vec<Vec<T>>
where
    R: Copy + Send,
    C: Copy + Send,
    T: Send,
{
    let grid: Vec<(R, C)> = rows.iter().flat_map(|&r| cols.iter().map(move |&c| (r, c))).collect();
    let mut results = ex.par_map(grid, |(r, c)| run(r, c)).into_iter();
    rows.iter().map(|_| results.by_ref().take(cols.len()).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_grid_regroups_rows_in_order() {
        let rows = par_grid(&Executor::new(2), &[1, 2, 3], &[10, 20], |r, c| r + c);
        assert_eq!(rows, [[11, 21], [12, 22], [13, 23]]);
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let a = Args::from_iter(argv(&[]), None, None).unwrap();
        assert_eq!(
            a,
            Args {
                full: false,
                json: false,
                smoke: false,
                seed: 1,
                threads: 0,
                trace: None,
                regime: None,
                no_recovery: false,
                metrics: None,
            }
        );
    }

    #[test]
    fn parses_all_flags_in_one_pass() {
        let a = Args::from_iter(
            argv(&[
                "--full",
                "--seed",
                "9",
                "--json",
                "--smoke",
                "--threads",
                "3",
                "--trace",
                "t.json",
                "--regime",
                "sr",
                "--metrics",
                "m.json",
            ]),
            None,
            None,
        )
        .unwrap();
        assert_eq!(
            a,
            Args {
                full: true,
                json: true,
                smoke: true,
                seed: 9,
                threads: 3,
                trace: Some("t.json".to_string()),
                regime: Some(Regime::SelectiveRepeat),
                no_recovery: false,
                metrics: Some("m.json".to_string()),
            }
        );
    }

    #[test]
    fn regime_values_parse_and_reject() {
        let a = Args::from_iter(argv(&["--regime", "gbn"]), None, None).unwrap();
        assert_eq!(a.regime, Some(Regime::GoBackN));
        let a = Args::from_iter(argv(&["--no-recovery"]), None, None).unwrap();
        assert!(a.no_recovery && a.regime.is_none());
        let e = Args::from_iter(argv(&["--regime", "tcp"]), None, None).unwrap_err();
        assert!(e.contains("invalid value for --regime: 'tcp'"), "{e}");
        let e = Args::from_iter(argv(&["--regime"]), None, None).unwrap_err();
        assert!(e.contains("--regime requires a value"), "{e}");
    }

    #[test]
    fn no_recovery_with_regime_is_a_usage_error() {
        let e =
            Args::from_iter(argv(&["--no-recovery", "--regime", "sr"]), None, None).unwrap_err();
        assert!(e.contains("--no-recovery"), "{e}");
        assert!(e.contains("--regime"), "{e}");
    }

    #[test]
    fn threads_flag_overrides_env_fallback() {
        assert_eq!(Args::from_iter(argv(&[]), Some("2"), None).unwrap().threads, 2);
        assert_eq!(Args::from_iter(argv(&["--threads", "5"]), Some("2"), None).unwrap().threads, 5);
        // 0 still means auto.
        assert_eq!(Args::from_iter(argv(&[]), Some("0"), None).unwrap().threads, 0);
    }

    #[test]
    fn typod_flags_are_rejected() {
        let e = Args::from_iter(argv(&["--sed", "9"]), None, None).unwrap_err();
        assert!(e.contains("unknown argument '--sed'"), "{e}");
        let e = Args::from_iter(argv(&["--bogus"]), None, None).unwrap_err();
        assert!(e.contains("--bogus"), "{e}");
        // Bare operands are unknown tokens too.
        let e = Args::from_iter(argv(&["full"]), None, None).unwrap_err();
        assert!(e.contains("unknown argument 'full'"), "{e}");
        // So is the flag of a removed feature: the hybrid engine's
        // fidelity, the partitioned engine's worker count, and the
        // metrics sampler's own interval and export format.
        for (removed, value) in [
            ("fidelity", "packet"),
            ("workers", "2"),
            ("metrics-interval", "500"),
            ("metrics-format", "prom"),
        ] {
            let flag = format!("--{removed}");
            let e = Args::from_iter(argv(&[&flag, value]), None, None).unwrap_err();
            assert!(e.contains(&format!("unknown argument '{flag}'")), "{e}");
        }
    }

    #[test]
    fn malformed_values_are_rejected() {
        let e = Args::from_iter(argv(&["--seed", "abc"]), None, None).unwrap_err();
        assert!(e.contains("invalid value for --seed: 'abc'"), "{e}");
        let e = Args::from_iter(argv(&["--threads", "-1"]), None, None).unwrap_err();
        assert!(e.contains("invalid value for --threads"), "{e}");
        // A malformed DSH_THREADS fails too instead of meaning "auto".
        let e = Args::from_iter(argv(&[]), Some("abc"), None).unwrap_err();
        assert!(e.contains("invalid value for DSH_THREADS: 'abc'"), "{e}");
    }

    #[test]
    fn missing_operands_are_rejected() {
        let e = Args::from_iter(argv(&["--seed"]), None, None).unwrap_err();
        assert!(e.contains("--seed requires a value"), "{e}");
        let e = Args::from_iter(argv(&["--threads"]), None, None).unwrap_err();
        assert!(e.contains("--threads requires a value"), "{e}");
        // The original bug: `--trace` as the last token silently produced
        // an untraced run.
        let e = Args::from_iter(argv(&["--trace"]), None, None).unwrap_err();
        assert!(e.contains("--trace requires a PATH"), "{e}");
        // A following flag is not a PATH either.
        let e = Args::from_iter(argv(&["--trace", "--json"]), None, None).unwrap_err();
        assert!(e.contains("--trace requires a PATH"), "{e}");
    }

    #[test]
    fn usage_names_every_flag() {
        for flag in [
            "--full",
            "--json",
            "--smoke",
            "--seed",
            "--threads",
            "--trace",
            "--regime",
            "--no-recovery",
            "--metrics",
        ] {
            assert!(USAGE.contains(flag), "usage must list {flag}");
        }
    }

    #[test]
    fn metrics_env_fallback_and_flag_override() {
        let a = Args::from_iter(argv(&[]), None, Some("env.json")).unwrap();
        assert_eq!(a.metrics.as_deref(), Some("env.json"));
        let a = Args::from_iter(argv(&["--metrics", "cli.json"]), None, Some("env")).unwrap();
        assert_eq!(a.metrics.as_deref(), Some("cli.json"));
    }

    #[test]
    fn metrics_operand_errors_fail_fast() {
        // `--metrics` as the last token must not silently skip the export.
        let e = Args::from_iter(argv(&["--metrics"]), None, None).unwrap_err();
        assert!(e.contains("--metrics requires a PATH"), "{e}");
        let e = Args::from_iter(argv(&["--metrics", "--json"]), None, None).unwrap_err();
        assert!(e.contains("--metrics requires a PATH"), "{e}");
    }

    #[test]
    fn observe_config_is_armed_only_with_metrics() {
        let off = Args::from_iter(argv(&[]), None, None).unwrap();
        assert!(observe_config(&off).is_none());
        let on = Args::from_iter(argv(&["--metrics", "m.json"]), None, None).unwrap();
        assert!(observe_config(&on).is_some(), "--metrics arms the sampler");
    }
}
