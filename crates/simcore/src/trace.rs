//! Flight-recorder tracing: bounded binary event recording with
//! zero overhead when disabled, plus a Chrome `trace_event` exporter.
//!
//! # Design
//!
//! * A [`Tracer`] is a per-simulation handle: a [`TraceMask`] of enabled
//!   categories plus (when enabled) a shared bounded ring of fixed-size
//!   [`TraceRecord`]s — the **flight recorder**. The ring is allocated
//!   once at construction, so recording never allocates on the packet hot
//!   path; when full it overwrites the oldest record and counts the loss.
//! * Trace points go through [`trace_event!`](crate::trace_event), which
//!   compiles to a single mask test before evaluating any argument: with
//!   the mask empty (the default), tracing costs one predictable branch
//!   per trace point and nothing else.
//! * The clock is stamped once per dispatched event via [`Tracer::tick`]
//!   (the network model does this at the top of its `handle`), so
//!   components below the event loop — the MMU in particular — need no
//!   access to simulated time to emit records.
//! * [`capture`] runs a closure with an ambient trace session: every
//!   simulation built during the closure (on any thread — sweeps go
//!   through [`crate::exec::Executor::par_map`]) records into its own
//!   ring, and the rings come back as [`TraceLog`]s sorted by
//!   [`TraceKey`] so the result is bit-identical at any thread count.
//! * [`chrome_trace`] converts logs to the Chrome `trace_event` JSON
//!   format (load in `chrome://tracing` or Perfetto): PFC pause→resume
//!   spans, MMU pause decisions, flow lifetime spans with retransmission
//!   markers, and loss-recovery spans.
//! * [`Tracer::dump`] prints the last records to stderr — the MMU calls
//!   it when an audit finds a violated invariant, naming the invariant.
//!
//! Configuration for a new simulation: an active [`capture`] session
//! wins, else the `DSH_TRACE_MASK` / `DSH_TRACE_CAP` environment
//! variables.

use crate::json::Json;
use crate::time::Time;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Environment variable selecting trace categories outside a [`capture`]
/// session: a comma-separated list of category names
/// (`pfc,flow,mmu,recovery`), `all`, or a numeric bit mask.
pub const MASK_ENV: &str = "DSH_TRACE_MASK";

/// Environment variable overriding the flight-recorder capacity
/// (records per simulation; default [`TraceConfig::DEFAULT_CAPACITY`]).
pub const CAP_ENV: &str = "DSH_TRACE_CAP";

/// Locks a mutex, ignoring poison: the flight recorder must stay usable
/// while a panic is unwinding — that is exactly when it gets dumped.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Categories and events
// ---------------------------------------------------------------------------

/// A bit mask of enabled trace categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceMask(u32);

impl TraceMask {
    /// Nothing enabled (the zero-overhead default).
    pub const NONE: TraceMask = TraceMask(0);
    /// Wire-level PFC pause/resume applied at ports.
    pub const PFC: TraceMask = TraceMask(1);
    /// Flow lifecycle: start, completion, failure, retransmissions.
    pub const FLOW: TraceMask = TraceMask(1 << 1);
    /// MMU decisions: pause/resume thresholds, headroom entry, audit
    /// violations.
    pub const MMU: TraceMask = TraceMask(1 << 2);
    // Bits 3 and 4 are retired: they named categories that no longer
    // exist and stay unassigned.
    /// Loss recovery: NACK emission, selective-repeat hole repairs, and
    /// RTO fires (the backoff window renders as a span in the Chrome
    /// export).
    pub const RECOVERY: TraceMask = TraceMask(1 << 5);
    /// Every category.
    pub const ALL: TraceMask = TraceMask(0b10_0111);

    /// True when no category is enabled.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when any category of `other` is enabled here.
    #[inline]
    #[must_use]
    pub const fn intersects(self, other: TraceMask) -> bool {
        self.0 & other.0 != 0
    }

    /// The union of two masks.
    #[must_use]
    pub const fn union(self, other: TraceMask) -> TraceMask {
        TraceMask(self.0 | other.0)
    }

    /// The raw bits.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Parses a `DSH_TRACE_MASK`-style value: a comma-separated list of
    /// category names, `all`, or a plain number. An empty value enables
    /// nothing; a number keeps only the bits of live categories.
    ///
    /// # Errors
    ///
    /// Fails on a name that is no category, naming it: a typo'd or
    /// retired category must not silently record nothing.
    pub fn parse(text: &str) -> Result<TraceMask, String> {
        let text = text.trim();
        if text.is_empty() {
            return Ok(TraceMask::NONE);
        }
        if let Ok(bits) = text.parse::<u32>() {
            return Ok(TraceMask(bits & Self::ALL.0));
        }
        let mut mask = TraceMask::NONE;
        for name in text.split(',') {
            mask = mask.union(match name.trim().to_ascii_lowercase().as_str() {
                "pfc" => Self::PFC,
                "flow" => Self::FLOW,
                "mmu" => Self::MMU,
                "recovery" => Self::RECOVERY,
                "all" => Self::ALL,
                other => {
                    return Err(format!(
                        "unknown trace category '{other}' (expected pfc, flow, mmu, \
                         recovery, all or a number)"
                    ))
                }
            });
        }
        Ok(mask)
    }
}

/// What one trace record describes. Discriminants are stable: they are
/// the on-disk encoding (see [`TraceLog::encode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEvent {
    /// PFC PAUSE taking effect at an upstream port for one class
    /// (`class`); `payload` = pause quanta ticks unused, kept 0.
    PfcPause = 1,
    /// The matching class-scope RESUME.
    PfcResume = 2,
    /// DSH port-scope PAUSE taking effect at an upstream port.
    PfcPortPause = 3,
    /// The matching port-scope RESUME.
    PfcPortResume = 4,

    /// MMU decided to pause an ingress queue; `payload` = its shared
    /// occupancy in bytes.
    MmuQueuePause = 16,
    /// MMU resumed an ingress queue; `payload` = its shared occupancy.
    MmuQueueResume = 17,
    /// MMU paused a whole ingress port (DSH); `payload` = port occupancy.
    MmuPortPause = 18,
    /// MMU resumed a whole ingress port; `payload` = port occupancy.
    MmuPortResume = 19,
    /// MMU refused admission (lossy drop); `payload` = frame bytes.
    MmuDrop = 20,
    /// A frame was admitted into headroom (SIH static or DSH insurance);
    /// `payload` = the segment's occupancy after admission.
    HeadroomEnter = 21,
    // Discriminants 22..=24 are retired and stay unassigned.
    /// An MMU audit invariant failed; `payload` = violation count.
    AuditFail = 25,
    // Discriminant 26 (the per-tick deadlock scan's onset) is retired and
    // stays unassigned: a deadlock is an open pause cycle, read from the
    // cascade tracker at the end of the run.
    /// A flow started; `payload` = flow size in bytes.
    FlowStart = 32,
    /// A flow delivered every byte; `payload` = its FCT in picoseconds.
    FlowComplete = 33,
    /// A flow exhausted its retry budget; `payload` = bytes delivered.
    FlowFailed = 34,
    /// Go-back-N timeout retransmission; `payload` encodes the retry
    /// count and current RTO (see `dsh-transport`).
    Retransmit = 35,

    // Discriminants 48..=79 are retired and stay unassigned.
    /// A receiver emitted a selective-repeat NACK; `payload` = the
    /// receiver's in-order mark (the cumulative-ACK byte the NACK
    /// carries).
    RecoveryNack = 80,
    /// A sender retransmitted one selective-repeat hole; `payload` =
    /// repaired bytes.
    RecoveryRepair = 81,
    /// A retransmission timeout fired (go-back-N rewind or
    /// selective-repeat re-arm); `payload` encodes the retry count and
    /// the backed-off RTO exactly like [`TraceEvent::Retransmit`].
    RecoveryRto = 82,
}

impl TraceEvent {
    /// The category this event belongs to.
    #[must_use]
    pub const fn mask(self) -> TraceMask {
        match self as u8 {
            1..=15 => TraceMask::PFC,
            16..=31 => TraceMask::MMU,
            32..=47 => TraceMask::FLOW,
            _ => TraceMask::RECOVERY,
        }
    }

    /// Stable lower-case name (used in dumps and the Chrome export).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            TraceEvent::PfcPause => "pfc_pause",
            TraceEvent::PfcResume => "pfc_resume",
            TraceEvent::PfcPortPause => "pfc_port_pause",
            TraceEvent::PfcPortResume => "pfc_port_resume",
            TraceEvent::MmuQueuePause => "mmu_queue_pause",
            TraceEvent::MmuQueueResume => "mmu_queue_resume",
            TraceEvent::MmuPortPause => "mmu_port_pause",
            TraceEvent::MmuPortResume => "mmu_port_resume",
            TraceEvent::MmuDrop => "mmu_drop",
            TraceEvent::HeadroomEnter => "headroom_enter",
            TraceEvent::AuditFail => "audit_fail",
            TraceEvent::FlowStart => "flow_start",
            TraceEvent::FlowComplete => "flow_complete",
            TraceEvent::FlowFailed => "flow_failed",
            TraceEvent::Retransmit => "retransmit",
            TraceEvent::RecoveryNack => "recovery_nack",
            TraceEvent::RecoveryRepair => "recovery_repair",
            TraceEvent::RecoveryRto => "recovery_rto",
        }
    }

    /// Decodes a stored discriminant.
    #[must_use]
    pub const fn from_u8(code: u8) -> Option<TraceEvent> {
        Some(match code {
            1 => TraceEvent::PfcPause,
            2 => TraceEvent::PfcResume,
            3 => TraceEvent::PfcPortPause,
            4 => TraceEvent::PfcPortResume,
            16 => TraceEvent::MmuQueuePause,
            17 => TraceEvent::MmuQueueResume,
            18 => TraceEvent::MmuPortPause,
            19 => TraceEvent::MmuPortResume,
            20 => TraceEvent::MmuDrop,
            21 => TraceEvent::HeadroomEnter,
            25 => TraceEvent::AuditFail,
            32 => TraceEvent::FlowStart,
            33 => TraceEvent::FlowComplete,
            34 => TraceEvent::FlowFailed,
            35 => TraceEvent::Retransmit,
            80 => TraceEvent::RecoveryNack,
            81 => TraceEvent::RecoveryRepair,
            82 => TraceEvent::RecoveryRto,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Records and the ring
// ---------------------------------------------------------------------------

/// One fixed-size flight-recorder record.
///
/// `at` is stamped by the tracer from its per-event clock (see
/// [`Tracer::tick`]); trace points fill only the fields that apply and
/// take the rest from [`TraceRecord::BLANK`] via struct-update syntax.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the record.
    pub at: Time,
    /// Event-specific payload word (bytes, peer node, encoded RTO, …).
    pub payload: u64,
    /// Switch or host the event happened at (`u32::MAX` = none).
    pub node: u32,
    /// Flow involved (`u32::MAX` = none).
    pub flow: u32,
    /// Port involved (`u16::MAX` = none).
    pub port: u16,
    /// Priority class / queue involved (`u8::MAX` = none).
    pub class: u8,
    /// The [`TraceEvent`] discriminant.
    pub event: u8,
}

/// The in-memory record must stay one cache-line-quarter: 32 bytes.
const _: () = assert!(std::mem::size_of::<TraceRecord>() == 32);

impl TraceRecord {
    /// The all-unset template trace points build on.
    pub const BLANK: TraceRecord = TraceRecord {
        at: Time::ZERO,
        payload: 0,
        node: u32::MAX,
        flow: u32::MAX,
        port: u16::MAX,
        class: u8::MAX,
        event: 0,
    };

    /// The decoded event, if the discriminant is known.
    #[must_use]
    pub fn kind(&self) -> Option<TraceEvent> {
        TraceEvent::from_u8(self.event)
    }

    /// Appends the 32-byte little-endian wire encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.at.as_ps().to_le_bytes());
        out.extend_from_slice(&self.payload.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
        out.extend_from_slice(&self.flow.to_le_bytes());
        out.extend_from_slice(&self.port.to_le_bytes());
        out.push(self.class);
        out.push(self.event);
        out.extend_from_slice(&[0u8; 4]); // reserved, keeps records 32 B
    }

    /// One human-readable dump line.
    fn render(&self) -> String {
        let name = self.kind().map_or("unknown", TraceEvent::name);
        let mut line = format!("{:>12} ns  {name:<16}", self.at.as_ns());
        if self.node != u32::MAX {
            line.push_str(&format!(" node={}", self.node));
        }
        if self.port != u16::MAX {
            line.push_str(&format!(" port={}", self.port));
        }
        if self.class != u8::MAX {
            line.push_str(&format!(" class={}", self.class));
        }
        if self.flow != u32::MAX {
            line.push_str(&format!(" flow={}", self.flow));
        }
        line.push_str(&format!(" payload={}", self.payload));
        line
    }
}

/// The bounded ring plus the per-simulation clock, behind one lock so a
/// record is stamped and stored atomically.
struct RingState {
    now: Time,
    buf: Vec<TraceRecord>,
    next: usize,
    cap: usize,
    dropped: u64,
}

impl RingState {
    fn new(cap: usize) -> RingState {
        // The whole recorder is allocated here, never on the record path.
        RingState { now: Time::ZERO, buf: Vec::with_capacity(cap), next: 0, cap, dropped: 0 }
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.dropped += 1;
            self.buf[self.next] = rec;
        }
        self.next = (self.next + 1) % self.cap.max(1);
    }

    /// Records oldest-first.
    fn ordered(&self) -> Vec<TraceRecord> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// Static configuration for a simulation's tracer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Enabled categories ([`TraceMask::NONE`] = tracing off).
    pub mask: TraceMask,
    /// Flight-recorder capacity in records.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity: 64 Ki records = 2 MiB per simulation.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// The environment-variable configuration (`DSH_TRACE_MASK`,
    /// `DSH_TRACE_CAP`), read once per process.
    #[must_use]
    pub fn from_env() -> TraceConfig {
        static ENV: OnceLock<TraceConfig> = OnceLock::new();
        *ENV.get_or_init(|| {
            let mask = std::env::var(MASK_ENV).map_or(TraceMask::NONE, |v| {
                TraceMask::parse(&v).unwrap_or_else(|e| panic!("invalid {MASK_ENV}: {e}"))
            });
            let capacity = std::env::var(CAP_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&c| c > 0)
                .unwrap_or(Self::DEFAULT_CAPACITY);
            TraceConfig { mask, capacity }
        })
    }
}

/// Sort key identifying one simulation's log within a [`capture`]
/// session, so multi-threaded sweeps export in a deterministic order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TraceKey {
    /// The simulation's seed (unique per sweep point by construction).
    pub seed: u64,
    /// Disambiguates simulations sharing a seed (e.g. scheme index).
    pub tag: u32,
}

/// A per-simulation tracing handle: a category mask and, when any
/// category is enabled, a shared flight-recorder ring.
///
/// Cloning shares the ring — the network model and every MMU of a
/// simulation hold clones of one tracer. With the mask empty there is no
/// ring at all and every trace point reduces to one branch.
#[derive(Clone, Default)]
pub struct Tracer {
    mask: TraceMask,
    shared: Option<Arc<Mutex<RingState>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("mask", &self.mask)
            .field("enabled", &self.shared.is_some())
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer (mask empty, no ring).
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer with its own ring of `capacity` records.
    /// An empty `mask` yields the disabled tracer.
    #[must_use]
    pub fn new(mask: TraceMask, capacity: usize) -> Tracer {
        if mask.is_empty() {
            return Tracer::disabled();
        }
        Tracer { mask, shared: Some(Arc::new(Mutex::new(RingState::new(capacity)))) }
    }

    /// Resolves the tracer for a new simulation: an active [`capture`]
    /// session wins (and collects this tracer's ring), else the process
    /// environment.
    #[must_use]
    pub fn for_simulation(key: TraceKey) -> Tracer {
        if let Some(tracer) = Session::register(key) {
            return tracer;
        }
        let cfg = TraceConfig::from_env();
        Tracer::new(cfg.mask, cfg.capacity)
    }

    /// True when no category is enabled.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.mask.is_empty()
    }

    /// The enabled categories.
    #[must_use]
    pub fn mask(&self) -> TraceMask {
        self.mask
    }

    /// Whether records in `cat` should be produced. This is the one test
    /// on the hot path; keep call sites behind it.
    #[inline]
    #[must_use]
    pub fn wants(&self, cat: TraceMask) -> bool {
        self.mask.intersects(cat)
    }

    /// Advances the record clock to `now`. Called once per dispatched
    /// event by the model; no-op (one branch) when tracing is off.
    #[inline]
    pub fn tick(&self, now: Time) {
        if let Some(shared) = &self.shared {
            lock(shared).now = now;
        }
    }

    /// Stores one record, stamping it with the current clock. Call sites
    /// must be guarded by [`Tracer::wants`] (the
    /// [`trace_event!`](crate::trace_event) macro does this).
    pub fn push(&self, mut rec: TraceRecord) {
        if let Some(shared) = &self.shared {
            let mut state = lock(shared);
            rec.at = state.now;
            state.push(rec);
        }
    }

    /// Snapshots the recorder into a [`TraceLog`] (empty when disabled).
    #[must_use]
    pub fn log(&self, key: TraceKey) -> TraceLog {
        match &self.shared {
            Some(shared) => {
                let state = lock(shared);
                TraceLog { key, records: state.ordered(), dropped: state.dropped }
            }
            None => TraceLog { key, records: Vec::new(), dropped: 0 },
        }
    }

    /// Dumps the last `last` records to stderr under `label` — the
    /// flight-recorder crash dump. No-op when disabled.
    pub fn dump(&self, label: &str, last: usize) {
        let Some(shared) = &self.shared else { return };
        let (records, dropped) = {
            let state = lock(shared);
            (state.ordered(), state.dropped)
        };
        let skip = records.len().saturating_sub(last);
        let mut out = format!(
            "=== flight recorder: {label} ===\n\
             last {} of {} recorded ({dropped} older records overwritten)\n",
            records.len() - skip,
            records.len(),
        );
        for rec in &records[skip..] {
            out.push_str(&rec.render());
            out.push('\n');
        }
        out.push_str("=== end of flight recorder ===");
        eprintln!("{out}");
    }
}

/// Emits one trace record through `$tracer` if the event's category is
/// enabled. Arguments are **not evaluated** when the category is masked
/// off; unset fields come from [`TraceRecord::BLANK`].
///
/// ```
/// use dsh_simcore::trace::{TraceEvent, TraceMask, Tracer};
/// use dsh_simcore::trace_event;
///
/// let tracer = Tracer::new(TraceMask::FLOW, 128);
/// trace_event!(tracer, TraceEvent::FlowStart, { flow: 7, payload: 1_000_000 });
/// assert_eq!(tracer.log(Default::default()).records.len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $event:expr, { $($field:ident : $value:expr),* $(,)? }) => {
        if $tracer.wants($event.mask()) {
            $tracer.push($crate::trace::TraceRecord {
                event: $event as u8,
                $($field: $value,)*
                ..$crate::trace::TraceRecord::BLANK
            });
        }
    };
}

// ---------------------------------------------------------------------------
// Capture sessions
// ---------------------------------------------------------------------------

struct Session {
    mask: TraceMask,
    capacity: usize,
    entries: Vec<(TraceKey, Tracer)>,
}

static SESSION: Mutex<Option<Session>> = Mutex::new(None);
static CAPTURE_GATE: Mutex<()> = Mutex::new(());

impl Session {
    /// Called from [`Tracer::for_simulation`]: joins the active session
    /// (from any thread) if there is one.
    fn register(key: TraceKey) -> Option<Tracer> {
        let mut slot = lock(&SESSION);
        let session = slot.as_mut()?;
        let tracer = Tracer::new(session.mask, session.capacity);
        session.entries.push((key, tracer.clone()));
        Some(tracer)
    }
}

/// Clears the session even if the captured closure panics.
struct SessionClear;
impl Drop for SessionClear {
    fn drop(&mut self) {
        *lock(&SESSION) = None;
    }
}

/// Runs `f` with an ambient trace session: every simulation constructed
/// while it runs — including inside [`crate::exec::Executor::par_map`]
/// workers — records `mask` events into its own ring of `capacity`
/// records. Returns `f`'s result and one [`TraceLog`] per simulation,
/// sorted by [`TraceKey`] (ties keep registration order), so the logs
/// are byte-identical at any executor width as long as keys are unique.
///
/// Sessions are process-global and serialized: concurrent captures queue
/// up behind each other. Simulations built by *unrelated* threads during
/// a capture join it — keep captures scoped to code you control.
pub fn capture<R>(mask: TraceMask, capacity: usize, f: impl FnOnce() -> R) -> (R, Vec<TraceLog>) {
    let _gate = lock(&CAPTURE_GATE);
    *lock(&SESSION) = Some(Session { mask, capacity, entries: Vec::new() });
    let clear = SessionClear;
    let result = f();
    let session = lock(&SESSION).take().expect("capture session vanished mid-run");
    drop(clear);
    let mut entries: Vec<(usize, TraceKey, Tracer)> = session
        .entries
        .into_iter()
        .enumerate()
        .map(|(serial, (key, tracer))| (serial, key, tracer))
        .collect();
    entries.sort_by_key(|&(serial, key, _)| (key, serial));
    let logs = entries.into_iter().map(|(_, key, tracer)| tracer.log(key)).collect();
    (result, logs)
}

// ---------------------------------------------------------------------------
// Logs: binary encoding, rendering, Chrome export
// ---------------------------------------------------------------------------

/// The snapshot of one simulation's flight recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceLog {
    /// The simulation's sort key within its capture session.
    pub key: TraceKey,
    /// Records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records overwritten because the ring was full.
    pub dropped: u64,
}

impl TraceLog {
    /// The binary dump: a 32-byte header (`DSHT`, version, key, counts)
    /// followed by the 32-byte little-endian records.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 32 * self.records.len());
        out.extend_from_slice(b"DSHT");
        out.extend_from_slice(&1u32.to_le_bytes()); // format version
        out.extend_from_slice(&self.key.seed.to_le_bytes());
        out.extend_from_slice(&self.key.tag.to_le_bytes());
        out.extend_from_slice(&u32::try_from(self.records.len()).unwrap_or(u32::MAX).to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        for rec in &self.records {
            rec.encode_into(&mut out);
        }
        out
    }

    /// Human-readable rendering, one line per record.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&rec.render());
            out.push('\n');
        }
        out
    }
}

/// Open B-span bookkeeping for the Chrome export.
fn span_begin(open: &mut std::collections::BTreeMap<(u64, u64), u64>, pid: u64, tid: u64) {
    *open.entry((pid, tid)).or_insert(0) += 1;
}

fn span_end(open: &mut std::collections::BTreeMap<(u64, u64), u64>, pid: u64, tid: u64) -> bool {
    match open.get_mut(&(pid, tid)) {
        Some(n) if *n > 0 => {
            *n -= 1;
            true
        }
        _ => false,
    }
}

/// Converts captured logs into a Chrome `trace_event` JSON document
/// (load the file in `chrome://tracing` or <https://ui.perfetto.dev>).
///
/// Tracks:
/// * **pid 1 "PFC wire"** — pause→resume spans per `(node, port, class)`;
/// * **pid 2 "MMU"** — pause decisions as spans, headroom entries,
///   drops and audit failures as instants;
/// * **pid 3 "flows"** — one lifetime span per flow with retransmission
///   markers;
/// * **pid 7 "recovery"** — RTO backoff spans and NACK/repair instants
///   per flow (only when such records exist).
///
/// `provenance` is embedded under `otherData.provenance`; pass a fixed
/// value when byte-stable output matters across runs.
#[must_use]
pub fn chrome_trace(logs: &[TraceLog], provenance: Json) -> Json {
    use std::collections::BTreeMap;

    let mut events: Vec<Json> = Vec::new();
    let mut open: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut names: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut end_ts = 0.0f64;
    let mut dropped_total = 0u64;
    let mut any_recovery = false;

    let ev = |name: &str, ph: &str, ts: f64, pid: u64, tid: u64| {
        Json::object()
            .with("name", name)
            .with("ph", ph)
            .with("ts", ts)
            .with("pid", pid)
            .with("tid", tid)
    };

    for log in logs {
        dropped_total += log.dropped;
        for rec in &log.records {
            let Some(kind) = rec.kind() else { continue };
            let ts = rec.at.as_ps() as f64 / 1e6; // ps → µs
            end_ts = end_ts.max(ts);
            let node = u64::from(rec.node);
            let port = u64::from(rec.port);
            let class = u64::from(rec.class);
            match kind {
                TraceEvent::PfcPause | TraceEvent::PfcPortPause => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    let label = if kind == TraceEvent::PfcPause {
                        format!("n{node} p{port} c{class} pause", node = rec.node)
                    } else {
                        format!("n{node} p{port} port-pause")
                    };
                    names.entry((1, tid)).or_insert_with(|| label.clone());
                    span_begin(&mut open, 1, tid);
                    events.push(ev(&label, "B", ts, 1, tid));
                }
                TraceEvent::PfcResume | TraceEvent::PfcPortResume => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    if span_end(&mut open, 1, tid) {
                        events.push(ev("", "E", ts, 1, tid));
                    }
                }
                TraceEvent::MmuQueuePause | TraceEvent::MmuPortPause => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    let label = if kind == TraceEvent::MmuQueuePause {
                        format!("mmu n{node} p{port} q{class} qoff")
                    } else {
                        format!("mmu n{node} p{port} poff")
                    };
                    names.entry((2, tid)).or_insert_with(|| label.clone());
                    span_begin(&mut open, 2, tid);
                    events.push(
                        ev(&label, "B", ts, 2, tid)
                            .with("args", Json::object().with("occupancy_bytes", rec.payload)),
                    );
                }
                TraceEvent::MmuQueueResume | TraceEvent::MmuPortResume => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    if span_end(&mut open, 2, tid) {
                        events.push(ev("", "E", ts, 2, tid));
                    }
                }
                TraceEvent::MmuDrop | TraceEvent::HeadroomEnter => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    events.push(
                        ev(kind.name(), "i", ts, 2, tid)
                            .with("s", "t")
                            .with("args", Json::object().with("bytes", rec.payload)),
                    );
                }
                TraceEvent::AuditFail => {
                    events.push(
                        ev(kind.name(), "i", ts, 2, node << 16)
                            .with("s", "p")
                            .with("args", Json::object().with("node", node)),
                    );
                }
                TraceEvent::FlowStart => {
                    let tid = u64::from(rec.flow);
                    let label = format!("flow {}", rec.flow);
                    names.entry((3, tid)).or_insert_with(|| label.clone());
                    span_begin(&mut open, 3, tid);
                    events.push(
                        ev(&label, "B", ts, 3, tid)
                            .with("args", Json::object().with("size_bytes", rec.payload)),
                    );
                }
                TraceEvent::FlowComplete | TraceEvent::FlowFailed => {
                    let tid = u64::from(rec.flow);
                    if span_end(&mut open, 3, tid) {
                        events.push(
                            ev("", "E", ts, 3, tid)
                                .with("args", Json::object().with("outcome", kind.name())),
                        );
                    }
                }
                TraceEvent::Retransmit => {
                    let tid = u64::from(rec.flow);
                    events.push(
                        ev("retransmit", "i", ts, 3, tid).with("s", "t").with(
                            "args",
                            Json::object()
                                .with("retries", rec.payload >> 48)
                                .with("rto_ns", rec.payload & ((1 << 48) - 1)),
                        ),
                    );
                }
                TraceEvent::RecoveryRto => {
                    // The RTO fire renders as a complete span covering the
                    // backed-off timeout window it arms, so stacked
                    // retries read as nested spans per flow.
                    any_recovery = true;
                    let tid = u64::from(rec.flow);
                    let rto_ns = rec.payload & ((1 << 48) - 1);
                    events.push(
                        ev(&format!("rto flow {}", rec.flow), "X", ts, 7, tid)
                            .with("dur", rto_ns as f64 / 1e3)
                            .with(
                                "args",
                                Json::object()
                                    .with("retries", rec.payload >> 48)
                                    .with("rto_ns", rto_ns),
                            ),
                    );
                }
                TraceEvent::RecoveryNack | TraceEvent::RecoveryRepair => {
                    any_recovery = true;
                    let tid = u64::from(rec.flow);
                    events.push(ev(kind.name(), "i", ts, 7, tid).with("s", "t").with(
                        "args",
                        Json::object().with("node", node).with("payload", rec.payload),
                    ));
                }
            }
        }
    }

    // Close every span still open at the end of the trace.
    for ((pid, tid), n) in &open {
        for _ in 0..*n {
            events.push(ev("", "E", end_ts, *pid, *tid));
        }
    }

    // Name the tracks (metadata events may appear anywhere in the array).
    // The recovery track appears only when matching records exist, so
    // exports without them stay byte-identical to older goldens. Pid 5
    // named the retired fault track; it keeps its name for the same
    // reason and never holds an event.
    let mut pids: Vec<(u64, &str)> = vec![(1, "PFC wire"), (2, "MMU"), (3, "flows"), (5, "faults")];
    if any_recovery {
        pids.push((7, "recovery"));
    }
    for &(pid, pname) in &pids {
        events.push(
            Json::object()
                .with("name", "process_name")
                .with("ph", "M")
                .with("pid", pid)
                .with("args", Json::object().with("name", pname)),
        );
    }
    for ((pid, tid), label) in &names {
        events.push(
            Json::object()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", *pid)
                .with("tid", *tid)
                .with("args", Json::object().with("name", label.as_str())),
        );
    }

    Json::object().with("traceEvents", events).with("displayTimeUnit", "ns").with(
        "otherData",
        Json::object()
            .with("provenance", provenance)
            .with("simulations", logs.len())
            .with("records", logs.iter().map(|l| l.records.len()).sum::<usize>())
            .with("dropped_records", dropped_total),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parsing_accepts_names_and_numbers() {
        let parse = |text| TraceMask::parse(text).unwrap();
        assert_eq!(parse("all"), TraceMask::ALL);
        assert_eq!(parse("pfc,flow"), TraceMask::PFC.union(TraceMask::FLOW));
        assert_eq!(parse(" MMU , recovery "), TraceMask::MMU.union(TraceMask::RECOVERY));
        assert_eq!(parse("63"), TraceMask::ALL);
        assert_eq!(parse("15"), TraceMask::PFC.union(TraceMask::FLOW).union(TraceMask::MMU));
        assert_eq!(parse("8"), TraceMask::NONE, "bit 3 is retired");
        assert_eq!(parse("16"), TraceMask::NONE, "bit 4 is retired");
        assert_eq!(parse(""), TraceMask::NONE);
    }

    #[test]
    fn mask_parsing_rejects_unknown_names() {
        for (text, name) in [("fault", "fault"), ("pfc,nope", "nope"), ("pfc,", "")] {
            let e = TraceMask::parse(text).unwrap_err();
            assert!(e.contains(&format!("unknown trace category '{name}'")), "{text}: {e}");
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(t.is_off());
        trace_event!(t, TraceEvent::FlowStart, { flow: 1 });
        assert!(t.log(TraceKey::default()).records.is_empty());
    }

    #[test]
    fn masked_category_does_not_evaluate_arguments() {
        let t = Tracer::new(TraceMask::PFC, 16);
        let mut evaluated = false;
        trace_event!(t, TraceEvent::FlowStart, {
            flow: {
                evaluated = true;
                1
            }
        });
        assert!(!evaluated, "masked-off trace point evaluated its arguments");
        assert!(t.log(TraceKey::default()).records.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(TraceMask::FLOW, 4);
        for i in 0..10u32 {
            t.tick(Time::from_ns(u64::from(i)));
            trace_event!(t, TraceEvent::FlowStart, { flow: i });
        }
        let log = t.log(TraceKey::default());
        assert_eq!(log.records.len(), 4);
        assert_eq!(log.dropped, 6);
        let flows: Vec<u32> = log.records.iter().map(|r| r.flow).collect();
        assert_eq!(flows, vec![6, 7, 8, 9], "oldest records must be overwritten first");
        assert_eq!(log.records[0].at, Time::from_ns(6), "tick must stamp the record clock");
    }

    #[test]
    fn encode_is_32_bytes_per_record_plus_header() {
        let t = Tracer::new(TraceMask::FLOW, 8);
        trace_event!(t, TraceEvent::FlowStart, { flow: 3, payload: 99 });
        let log = t.log(TraceKey { seed: 7, tag: 1 });
        let bytes = log.encode();
        assert_eq!(bytes.len(), 32 + 32);
        assert_eq!(&bytes[..4], b"DSHT");
    }

    #[test]
    fn capture_collects_per_simulation_logs_sorted_by_key() {
        let ((), logs) = capture(TraceMask::FLOW, 16, || {
            for seed in [3u64, 1, 2] {
                let t = Tracer::for_simulation(TraceKey { seed, tag: 0 });
                assert!(!t.is_off(), "session must enable the tracer");
                trace_event!(t, TraceEvent::FlowStart, { flow: seed as u32 });
            }
        });
        let seeds: Vec<u64> = logs.iter().map(|l| l.key.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        assert!(logs.iter().all(|l| l.records.len() == 1));
        // Outside a session the environment decides; it just must not panic.
        let _ = Tracer::for_simulation(TraceKey::default());
    }

    #[test]
    fn chrome_export_round_trips_through_json_parse() {
        let t = Tracer::new(TraceMask::ALL, 64);
        t.tick(Time::from_us(1));
        trace_event!(t, TraceEvent::FlowStart, { flow: 1, node: 0, payload: 4096 });
        trace_event!(t, TraceEvent::PfcPause, { node: 2, port: 1, class: 0 });
        t.tick(Time::from_us(3));
        trace_event!(t, TraceEvent::Retransmit, { flow: 1, payload: (2 << 48) | 9000 });
        trace_event!(t, TraceEvent::PfcResume, { node: 2, port: 1, class: 0 });
        trace_event!(t, TraceEvent::MmuDrop, { node: 4, port: 0, class: 0, payload: 1500 });
        let log = t.log(TraceKey::default());
        let doc = chrome_trace(&[log], Json::object().with("seed", 1u64));
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let ph = |p: &str| {
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(p)).count()
        };
        assert!(ph("B") >= 2, "flow + pause spans must open");
        assert!(ph("E") >= 2, "every span must close (flow span force-closed at end)");
        assert!(ph("i") >= 2, "retransmit marker + drop instant");
    }
}
