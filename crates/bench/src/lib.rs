//! Experiment harness reproducing every figure of *"Less is More"*
//! (ICDCS 2023).
//!
//! Each module builds the exact scenario of one paper figure and returns
//! the measured series; the binaries in `src/bin/` print them as tables
//! and, with `--record PATH`, write one run record ([`record`]), and the
//! Criterion benches in `benches/` time scaled-down variants.
//!
//! | module | paper figure |
//! |--------|--------------|
//! | [`fig04`] | Buffer/headroom trend across Broadcom chips |
//! | [`fig05`] | FCT vs buffer size |
//! | [`fig06`] | Headroom utilization CDF |
//! | [`fig11`] | PFC avoidance (pause duration vs burst size) |
//! | [`fig12`] | Deadlock onset CDF |
//! | [`fig13`] | Collateral damage (victim throughput) |
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
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod fig18;
pub mod theory;

use dsh_net::Network;
use dsh_simcore::{exec, trace, Delta, Executor, Json, Time};
use dsh_transport::Regime;

/// A flag that only some figure binaries read. Every binary reads
/// `--threads` and `--record`; each names the rest it reads in
/// [`Args::parse`] and rejects the others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--full`: run at paper scale instead of the laptop-scale default.
    Full,
    /// `--smoke`: CI-sized run with hard assertions (exits non-zero on a
    /// violation).
    Smoke,
    /// `--seed N` (default 1).
    Seed,
    /// `--regime gbn|sr`: loss-recovery regime where a figure exercises
    /// recovery.
    Regime,
    /// `--no-recovery`: run without loss recovery where the figure
    /// allows it.
    NoRecovery,
}

impl Flag {
    const ALL: [Flag; 5] = [Flag::Full, Flag::Smoke, Flag::Seed, Flag::Regime, Flag::NoRecovery];

    /// The flag's usage line.
    const fn usage(self) -> &'static str {
        match self {
            Flag::Full => {
                "  --full          run at paper scale instead of the laptop-scale default"
            }
            Flag::Smoke => "  --smoke         CI-sized run with hard assertions",
            Flag::Seed => "  --seed N        RNG seed (unsigned integer, default 1)",
            Flag::Regime => {
                "  --regime R      loss-recovery regime: gbn (go-back-N) | sr (selective repeat)"
            }
            Flag::NoRecovery => {
                "  --no-recovery   disable loss recovery (rejected together with --regime)"
            }
        }
    }

    /// The command-line token.
    const fn token(self) -> &'static str {
        match self {
            Flag::Full => "--full",
            Flag::Smoke => "--smoke",
            Flag::Seed => "--seed",
            Flag::Regime => "--regime",
            Flag::NoRecovery => "--no-recovery",
        }
    }
}

/// Environment variables of the retired exporters. A set one fails the
/// run instead of silently doing nothing.
const RETIRED_ENV: [&str; 3] = ["DSH_METRICS", "DSH_TRACE_MASK", "DSH_TRACE_CAP"];

/// Version of the run record's layout (see [`record`]).
pub const RECORD_VERSION: u64 = 1;

/// Command-line options of one figure binary, collected in a single pass
/// over argv.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// The binary's name, stamped into the run record's provenance.
    pub binary: &'static str,
    /// The optional flags this binary reads; any other is rejected.
    pub reads: &'static [Flag],
    /// `--full`: run at paper scale instead of the laptop-scale default.
    pub full: bool,
    /// `--smoke`: CI-sized run with hard assertions.
    pub smoke: bool,
    /// `--seed N` (default 1).
    pub seed: u64,
    /// `--threads N`, falling back to `DSH_THREADS`; 0 means "auto"
    /// (available parallelism). Resolve through [`Args::executor`].
    pub threads: usize,
    /// `--regime gbn|sr`: loss-recovery regime for figures that exercise
    /// recovery (fig17). `None` = flag not given, figure defaults apply.
    pub regime: Option<Regime>,
    /// `--no-recovery`: run without loss recovery where the figure allows
    /// it (lossy cells always need recovery; combining with `--regime`
    /// is a usage error — the regime would silently have no effect).
    pub no_recovery: bool,
    /// `--record PATH`: write the run record to PATH (see [`record`]).
    pub record: Option<String>,
}

/// The usage text of a binary that reads `reads`, printed (to stderr)
/// when argument parsing fails.
fn usage(binary: &str, reads: &[Flag]) -> String {
    let mut text = format!(
        "usage: {binary} [OPTIONS]
  --threads N     worker pool width (0 = auto; DSH_THREADS fallback)
  --record PATH   write the run record to PATH: provenance, the figure's
                  rows, its metrics run and the Chrome trace of every
                  simulation, as one JSON document"
    );
    for flag in reads {
        text.push('\n');
        text.push_str(flag.usage());
    }
    text
}

impl Args {
    /// Parses the process argv for the binary `binary`, which reads the
    /// optional flags `reads`, with `DSH_THREADS` as the `--threads`
    /// fallback. An unknown flag, a flag the binary does not read, a
    /// malformed value or a set `DSH_THREADS` that is not an unsigned
    /// integer print the error and the usage to stderr and exit with
    /// status 2 — a typo'd or ignored flag must never silently run with
    /// defaults. So does a set environment variable of a retired
    /// exporter (`DSH_METRICS`, `DSH_TRACE_MASK`, `DSH_TRACE_CAP`).
    #[must_use]
    pub fn parse(binary: &'static str, reads: &'static [Flag]) -> Args {
        let env = |name: &str| std::env::var(name).ok();
        match Args::from_iter(binary, reads, std::env::args().skip(1), env) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\n{}", usage(binary, reads));
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit token stream and environment (testable core of
    /// [`Args::parse`]).
    ///
    /// # Errors
    ///
    /// Fails fast on unknown tokens, flags the binary does not read,
    /// missing operands (`--seed`, `--threads`, `--regime`, `--record`
    /// all take one) and unparseable values, including a malformed
    /// `DSH_THREADS` value and a set retired variable.
    fn from_iter<I: IntoIterator<Item = String>>(
        binary: &'static str,
        reads: &'static [Flag],
        argv: I,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Args, String> {
        if let Some(name) = RETIRED_ENV.into_iter().find(|name| env(name).is_some()) {
            return Err(format!(
                "{name} is retired: --record PATH writes the metrics and the trace of every run"
            ));
        }
        let threads = match env(exec::THREADS_ENV) {
            Some(v) => exec::parse_threads(&v)?,
            None => 0,
        };
        let mut args = Args {
            binary,
            reads,
            full: false,
            smoke: false,
            seed: 1,
            threads,
            regime: None,
            no_recovery: false,
            record: None,
        };
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            if Flag::ALL.iter().any(|f| f.token() == tok && !reads.contains(f)) {
                return Err(format!("{binary} does not read {tok}"));
            }
            match tok.as_str() {
                "--full" => args.full = true,
                "--smoke" => args.smoke = true,
                "--seed" => args.seed = parse_value(&tok, it.next())?,
                "--threads" => args.threads = parse_value(&tok, it.next())?,
                "--record" => {
                    let path =
                        it.next().ok_or_else(|| "--record requires a PATH operand".to_string())?;
                    if path.starts_with("--") {
                        return Err(format!("--record requires a PATH operand, got flag '{path}'"));
                    }
                    args.record = Some(path);
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

    /// The run record's provenance header: the binary, the value of every
    /// optional flag it reads and the package version. It names no thread
    /// or core count, so the record is byte-identical at any `--threads`.
    #[must_use]
    pub fn provenance(&self) -> Json {
        let header =
            Json::object().with("binary", self.binary).with("version", env!("CARGO_PKG_VERSION"));
        self.reads.iter().fold(header, |header, flag| match flag {
            Flag::Full => header.with("full", self.full),
            Flag::Smoke => header.with("smoke", self.smoke),
            Flag::Seed => header.with("seed", self.seed),
            Flag::Regime => {
                header.with("regime", self.regime.map_or(Json::Null, |r| r.as_str().into()))
            }
            Flag::NoRecovery => header.with("no_recovery", self.no_recovery),
        })
    }
}

/// Parses the operand of a value-taking flag, failing on a missing or
/// unparseable operand.
fn parse_value<T: std::str::FromStr>(flag: &str, operand: Option<String>) -> Result<T, String> {
    let v = operand.ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse().map_err(|_| format!("invalid value for {flag}: '{v}' (expected unsigned integer)"))
}

/// What a figure adds to its run record beyond provenance and trace.
#[derive(Debug, Default)]
pub struct Sections {
    /// The figure's rows, for the binaries that build them.
    pub figure: Option<Json>,
    /// The metrics export of the figure's representative observe-armed
    /// run (see [`metrics_run`]), for the binaries that have one.
    pub metrics: Option<Json>,
}

/// Runs a figure. With `--record PATH` the run executes inside a trace
/// capture session and then writes its record to PATH: one JSON document
/// holding `schema_version` ([`RECORD_VERSION`]), the
/// [`Args::provenance`] header, the figure's [`Sections`], and the
/// Chrome export of every simulation's flight recorder
/// ([`dsh_simcore::trace::write_chrome_trace`]: `traceEvents`,
/// `displayTimeUnit`, `otherData`), so the record loads in
/// `chrome://tracing` and Perfetto. The trace events stream through a
/// buffered writer as they are rendered. Without the flag `run` executes
/// directly: no session, every tracer off.
pub fn record(args: &Args, run: impl FnOnce() -> Sections) {
    let Some(path) = args.record.as_deref() else {
        run();
        return;
    };
    let (sections, logs) = trace::capture(run);
    let mut head =
        Json::object().with("schema_version", RECORD_VERSION).with("provenance", args.provenance());
    if let Some(figure) = sections.figure {
        head = head.with("figure", figure);
    }
    if let Some(metrics) = sections.metrics {
        head = head.with("metrics", metrics);
    }
    let written = std::fs::File::create(path).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        trace::write_chrome_trace(&logs, head, &mut out)?;
        out.into_inner().map_err(std::io::IntoInnerError::into_error)?.metadata()
    });
    match written {
        Ok(meta) => eprintln!(
            "[dsh] wrote run record: {} simulations, {} bytes -> {path}",
            logs.len(),
            meta.len()
        ),
        Err(e) => {
            eprintln!("[dsh] failed to write the run record to {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The `metrics` section of a run record: runs `net`, built with the
/// observatory armed, to `until` and returns its metrics export. The
/// figure's sweep keeps the hooks off; this one extra run describes
/// exactly one network.
///
/// # Panics
///
/// Panics if `net` was built without the observatory (a figure wiring
/// bug).
#[must_use]
pub fn metrics_run(net: Network, until: Delta) -> Json {
    let (net, _events) = fabric::run_net(net, Time::ZERO + until);
    net.metrics_json().expect("the metrics run is built with the observatory armed")
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

    /// Parses `tokens` for a binary that reads every flag, with no
    /// environment.
    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::from_iter("fig", &Flag::ALL, argv(tokens), |_| None)
    }

    /// Parses `tokens` for a binary that reads every flag, with one
    /// environment variable set.
    fn parse_env(tokens: &[&str], var: &str, value: &str) -> Result<Args, String> {
        Args::from_iter("fig", &Flag::ALL, argv(tokens), |name| {
            (name == var).then(|| value.to_string())
        })
    }

    #[test]
    fn defaults_when_no_flags() {
        assert_eq!(
            parse(&[]).unwrap(),
            Args {
                binary: "fig",
                reads: &Flag::ALL,
                full: false,
                smoke: false,
                seed: 1,
                threads: 0,
                regime: None,
                no_recovery: false,
                record: None,
            }
        );
    }

    #[test]
    fn parses_all_flags_in_one_pass() {
        let a = parse(&[
            "--full",
            "--seed",
            "9",
            "--smoke",
            "--threads",
            "3",
            "--regime",
            "sr",
            "--record",
            "r.json",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                binary: "fig",
                reads: &Flag::ALL,
                full: true,
                smoke: true,
                seed: 9,
                threads: 3,
                regime: Some(Regime::SelectiveRepeat),
                no_recovery: false,
                record: Some("r.json".to_string()),
            }
        );
    }

    #[test]
    fn regime_values_parse_and_reject() {
        assert_eq!(parse(&["--regime", "gbn"]).unwrap().regime, Some(Regime::GoBackN));
        let a = parse(&["--no-recovery"]).unwrap();
        assert!(a.no_recovery && a.regime.is_none());
        let e = parse(&["--regime", "tcp"]).unwrap_err();
        assert!(e.contains("invalid value for --regime: 'tcp'"), "{e}");
        let e = parse(&["--regime"]).unwrap_err();
        assert!(e.contains("--regime requires a value"), "{e}");
    }

    #[test]
    fn no_recovery_with_regime_is_a_usage_error() {
        let e = parse(&["--no-recovery", "--regime", "sr"]).unwrap_err();
        assert!(e.contains("--no-recovery"), "{e}");
        assert!(e.contains("--regime"), "{e}");
    }

    #[test]
    fn threads_flag_overrides_env_fallback() {
        assert_eq!(parse_env(&[], "DSH_THREADS", "2").unwrap().threads, 2);
        assert_eq!(parse_env(&["--threads", "5"], "DSH_THREADS", "2").unwrap().threads, 5);
        // 0 still means auto.
        assert_eq!(parse_env(&[], "DSH_THREADS", "0").unwrap().threads, 0);
    }

    #[test]
    fn typod_flags_are_rejected() {
        let e = parse(&["--sed", "9"]).unwrap_err();
        assert!(e.contains("unknown argument '--sed'"), "{e}");
        let e = parse(&["--bogus"]).unwrap_err();
        assert!(e.contains("--bogus"), "{e}");
        // Bare operands are unknown tokens too.
        let e = parse(&["full"]).unwrap_err();
        assert!(e.contains("unknown argument 'full'"), "{e}");
        // So is the flag of a removed feature: the hybrid engine's
        // fidelity, the partitioned engine's worker count, the metrics
        // sampler's own interval and export format, and the three
        // exporters the run record replaced.
        for (removed, value) in [
            ("fidelity", "packet"),
            ("workers", "2"),
            ("metrics-interval", "500"),
            ("metrics-format", "prom"),
            ("trace", "t.json"),
            ("metrics", "m.json"),
        ] {
            let flag = format!("--{removed}");
            let e = parse(&[&flag, value]).unwrap_err();
            assert!(e.contains(&format!("unknown argument '{flag}'")), "{e}");
        }
        let e = parse(&["--json"]).unwrap_err();
        assert!(e.contains("unknown argument '--json'"), "{e}");
    }

    #[test]
    fn flags_a_binary_does_not_read_are_rejected() {
        const READS: &[Flag] = &[Flag::Full, Flag::Seed];
        let parse = |tokens: &[&str]| Args::from_iter("fig14", READS, argv(tokens), |_| None);
        let a = parse(&["--full", "--seed", "3", "--threads", "2", "--record", "r.json"]).unwrap();
        assert!(a.full && a.seed == 3 && a.threads == 2);
        for (flag, rest) in [("--smoke", None), ("--regime", Some("sr")), ("--no-recovery", None)] {
            let tokens: Vec<&str> = std::iter::once(flag).chain(rest).collect();
            let e = parse(&tokens).unwrap_err();
            assert_eq!(e, format!("fig14 does not read {flag}"));
        }
        // A binary that reads no optional flag still reads the two
        // every binary takes.
        let a = Args::from_iter("fig13", &[], argv(&["--threads", "2", "--record", "r"]), |_| None);
        assert_eq!(a.unwrap().record.as_deref(), Some("r"));
        let e = Args::from_iter("fig13", &[], argv(&["--seed", "2"]), |_| None).unwrap_err();
        assert_eq!(e, "fig13 does not read --seed");
    }

    #[test]
    fn retired_exporter_variables_are_rejected() {
        for var in RETIRED_ENV {
            let e = parse_env(&[], var, "x").unwrap_err();
            assert!(e.starts_with(&format!("{var} is retired")), "{e}");
            assert!(e.contains("--record"), "{e}");
        }
        // An unrelated variable changes nothing.
        assert!(parse_env(&[], "DSH_PROGRESS", "1").is_ok());
    }

    #[test]
    fn malformed_values_are_rejected() {
        let e = parse(&["--seed", "abc"]).unwrap_err();
        assert!(e.contains("invalid value for --seed: 'abc'"), "{e}");
        let e = parse(&["--threads", "-1"]).unwrap_err();
        assert!(e.contains("invalid value for --threads"), "{e}");
        // A malformed DSH_THREADS fails too instead of meaning "auto".
        let e = parse_env(&[], "DSH_THREADS", "abc").unwrap_err();
        assert!(e.contains("invalid value for DSH_THREADS: 'abc'"), "{e}");
    }

    #[test]
    fn missing_operands_are_rejected() {
        let e = parse(&["--seed"]).unwrap_err();
        assert!(e.contains("--seed requires a value"), "{e}");
        let e = parse(&["--threads"]).unwrap_err();
        assert!(e.contains("--threads requires a value"), "{e}");
        // `--record` as the last token must not silently skip the record,
        // and a following flag is not a PATH either.
        let e = parse(&["--record"]).unwrap_err();
        assert!(e.contains("--record requires a PATH"), "{e}");
        let e = parse(&["--record", "--smoke"]).unwrap_err();
        assert!(e.contains("--record requires a PATH"), "{e}");
    }

    #[test]
    fn usage_names_the_flags_the_binary_reads() {
        let text = usage("fig", &Flag::ALL);
        for flag in ["--threads", "--record"].into_iter().chain(Flag::ALL.map(Flag::token)) {
            assert!(text.contains(flag), "usage must list {flag}");
        }
        let text = usage("fig13", &[]);
        assert!(text.contains("--record") && !text.contains("--seed"), "{text}");
    }

    #[test]
    fn provenance_names_only_what_the_binary_reads() {
        let a = Args::from_iter("fig04", &[Flag::Smoke], argv(&["--smoke"]), |_| None).unwrap();
        let p = a.provenance();
        assert_eq!(p.get("binary").and_then(Json::as_str), Some("fig04"));
        assert_eq!(p.get("smoke"), Some(&Json::from(true)));
        assert!(p.get("seed").is_none() && p.get("threads").is_none(), "{p}");
        let a = parse(&["--threads", "3"]).unwrap();
        let p = a.provenance();
        assert_eq!(p.get("seed").and_then(Json::as_u64), Some(1));
        assert_eq!(p.get("regime"), Some(&Json::Null));
        assert_eq!(p, parse(&["--threads", "1"]).unwrap().provenance(), "threads never show");
    }
}
