//! Flight-recorder tracing: bounded event recording with zero overhead
//! when disabled, plus a Chrome `trace_event` exporter.
//!
//! # Design
//!
//! * A [`Tracer`] is a per-simulation handle that is either off or holds
//!   a shared bounded ring of fixed-size [`TraceRecord`]s — the **flight
//!   recorder**. The ring is allocated once at construction, so recording
//!   never allocates on the packet hot path; when full it overwrites the
//!   oldest record and counts the loss.
//! * Trace points go through [`trace_event!`](crate::trace_event), which
//!   compiles to a single on/off test before evaluating any argument:
//!   with tracing off (the default), a trace point costs one predictable
//!   branch and nothing else.
//! * The clock is stamped once per dispatched event via [`Tracer::tick`]
//!   (the network model does this at the top of its `handle`), so
//!   components below the event loop — the MMU in particular — need no
//!   access to simulated time to emit records.
//! * [`capture`] runs a closure with an ambient trace session: every
//!   simulation built during the closure (on any thread — sweeps go
//!   through [`crate::exec::Executor::par_map`]) records into its own
//!   ring of [`CAPACITY`] records, and the rings come back as
//!   [`TraceLog`]s sorted by [`TraceKey`] so the result is identical at
//!   any thread count. Outside a session every tracer is off.
//! * [`write_chrome_trace`] streams logs out in the Chrome `trace_event`
//!   JSON format (load in `chrome://tracing` or Perfetto): PFC pause→resume
//!   spans, MMU pause decisions, flow lifetime spans with retransmission
//!   markers, and loss-recovery spans.
//! * [`Tracer::dump`] prints the last records to stderr — the MMU calls
//!   it when an audit finds a violated invariant, naming the invariant.

use crate::json::Json;
use crate::time::Time;
use std::cell::RefCell;
use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

/// Flight-recorder capacity of every simulation in a [`capture`]
/// session: 64 Ki records = 2 MiB per simulation.
pub const CAPACITY: usize = 65_536;

/// Locks a mutex, ignoring poison: the flight recorder must stay usable
/// while a panic is unwinding — that is exactly when it gets dumped.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What one trace record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// PFC PAUSE taking effect at an upstream port for one class
    /// (`class`); `payload` = pause quanta ticks unused, kept 0.
    PfcPause,
    /// The matching class-scope RESUME.
    PfcResume,
    /// DSH port-scope PAUSE taking effect at an upstream port.
    PfcPortPause,
    /// The matching port-scope RESUME.
    PfcPortResume,
    /// MMU decided to pause an ingress queue; `payload` = its shared
    /// occupancy in bytes.
    MmuQueuePause,
    /// MMU resumed an ingress queue; `payload` = its shared occupancy.
    MmuQueueResume,
    /// MMU paused a whole ingress port (DSH); `payload` = port occupancy.
    MmuPortPause,
    /// MMU resumed a whole ingress port; `payload` = port occupancy.
    MmuPortResume,
    /// MMU refused admission (lossy drop); `payload` = frame bytes.
    MmuDrop,
    /// A frame was admitted into headroom (SIH static or DSH insurance);
    /// `payload` = the segment's occupancy after admission.
    HeadroomEnter,
    /// An MMU audit invariant failed; `payload` = violation count.
    AuditFail,
    /// A flow started; `payload` = flow size in bytes.
    FlowStart,
    /// A flow delivered every byte; `payload` = its FCT in picoseconds.
    FlowComplete,
    /// A flow exhausted its retry budget; `payload` = bytes delivered.
    FlowFailed,
    /// Go-back-N timeout retransmission; `payload` encodes the retry
    /// count and current RTO (see `dsh-transport`).
    Retransmit,
    /// A receiver emitted a selective-repeat NACK; `payload` = the
    /// receiver's in-order mark (the cumulative-ACK byte the NACK
    /// carries).
    RecoveryNack,
    /// A sender retransmitted one selective-repeat hole; `payload` =
    /// repaired bytes.
    RecoveryRepair,
    /// A retransmission timeout fired (go-back-N rewind or
    /// selective-repeat re-arm); `payload` encodes the retry count and
    /// the backed-off RTO exactly like [`TraceEvent::Retransmit`].
    RecoveryRto,
}

impl TraceEvent {
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
}

// ---------------------------------------------------------------------------
// Records and the ring
// ---------------------------------------------------------------------------

/// One fixed-size flight-recorder record.
///
/// `at` is stamped by the tracer from its per-event clock (see
/// [`Tracer::tick`]); trace points fill only the fields that apply and
/// take the rest from [`TraceRecord::blank`] via struct-update syntax.
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
    /// What the record describes.
    pub event: TraceEvent,
}

/// The in-memory record must stay one cache-line-quarter: 32 bytes.
const _: () = assert!(std::mem::size_of::<TraceRecord>() == 32);

impl TraceRecord {
    /// An `event` record with every other field unset: the template
    /// trace points build on.
    #[must_use]
    pub const fn blank(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Time::ZERO,
            payload: 0,
            node: u32::MAX,
            flow: u32::MAX,
            port: u16::MAX,
            class: u8::MAX,
            event,
        }
    }

    /// One human-readable dump line.
    fn render(&self) -> String {
        let mut line = format!("{:>12} ns  {:<16}", self.at.as_ns(), self.event.name());
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

/// Sort key identifying one simulation's log within a [`capture`]
/// session, so multi-threaded sweeps export in a deterministic order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TraceKey {
    /// The simulation's seed (unique per sweep point by construction).
    pub seed: u64,
    /// Disambiguates simulations sharing a seed (e.g. scheme index).
    pub tag: u32,
}

/// A per-simulation tracing handle: off, or a shared flight-recorder
/// ring.
///
/// Cloning shares the ring — the network model and every MMU of a
/// simulation hold clones of one tracer. An off tracer holds no ring at
/// all and every trace point reduces to one branch.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Mutex<RingState>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").field("on", &self.is_on()).finish()
    }
}

impl Tracer {
    /// The no-op tracer (no ring).
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer with its own ring of `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Tracer {
        Tracer { shared: Some(Arc::new(Mutex::new(RingState::new(capacity)))) }
    }

    /// Resolves the tracer for a new simulation: recording into the
    /// active [`capture`] session (which collects this tracer's ring),
    /// else off.
    #[must_use]
    pub fn for_simulation(key: TraceKey) -> Tracer {
        Session::register(key).unwrap_or_default()
    }

    /// Whether records should be produced. This is the one test on the
    /// hot path; keep call sites behind it.
    #[inline]
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.shared.is_some()
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
    /// must be guarded by [`Tracer::is_on`] (the
    /// [`trace_event!`](crate::trace_event) macro does this).
    pub fn push(&self, mut rec: TraceRecord) {
        if let Some(shared) = &self.shared {
            let mut state = lock(shared);
            rec.at = state.now;
            state.push(rec);
        }
    }

    /// Snapshots the recorder into a [`TraceLog`] (empty when off).
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
    /// flight-recorder crash dump. No-op when off.
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

/// Emits one trace record through `$tracer` if it is on. Arguments are
/// **not evaluated** when it is off; unset fields come from
/// [`TraceRecord::blank`].
///
/// ```
/// use dsh_simcore::trace::{TraceEvent, Tracer};
/// use dsh_simcore::trace_event;
///
/// let tracer = Tracer::new(128);
/// trace_event!(tracer, TraceEvent::FlowStart, { flow: 7, payload: 1_000_000 });
/// assert_eq!(tracer.log(Default::default()).records.len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($tracer:expr, $event:expr, { $($field:ident : $value:expr),* $(,)? }) => {
        if $tracer.is_on() {
            $tracer.push($crate::trace::TraceRecord {
                $($field: $value,)*
                ..$crate::trace::TraceRecord::blank($event)
            });
        }
    };
}

// ---------------------------------------------------------------------------
// Capture sessions
// ---------------------------------------------------------------------------

struct Session {
    entries: Vec<(TraceKey, Vec<u32>, Tracer)>,
}

static SESSION: Mutex<Option<Session>> = Mutex::new(None);
static CAPTURE_GATE: Mutex<()> = Mutex::new(());

impl Session {
    /// Called from [`Tracer::for_simulation`]: joins the active session
    /// (from any thread) if there is one.
    fn register(key: TraceKey) -> Option<Tracer> {
        let mut slot = lock(&SESSION);
        let session = slot.as_mut()?;
        let tracer = Tracer::new(CAPACITY);
        session.entries.push((key, next_position(), tracer.clone()));
        Some(tracer)
    }
}

/// Where a thread stands in the run's serial order: the path of
/// [`crate::exec::Executor::par_map`] items above it and the next slot at
/// that level. A registration takes one slot, and a `par_map` call one
/// for all its items, so positions compare in the order a one-thread run
/// reaches them, at any thread count.
#[derive(Default)]
struct Place {
    path: Vec<u32>,
    next: u32,
}

thread_local! {
    static PLACE: RefCell<Place> = RefCell::new(Place::default());
}

/// Takes the next slot of the current thread's place: the position of a
/// registration, or of one `par_map` call whose items run under it
/// through [`in_item`].
pub(crate) fn next_position() -> Vec<u32> {
    PLACE.with(|place| {
        let mut place = place.borrow_mut();
        let mut position = place.path.clone();
        position.push(place.next);
        place.next += 1;
        position
    })
}

/// Runs item `index` of the `par_map` call at `fork`, then restores the
/// thread's place (also when `f` unwinds).
pub(crate) fn in_item<R>(fork: &[u32], index: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Place);
    impl Drop for Restore {
        fn drop(&mut self) {
            PLACE.with(|place| place.replace(std::mem::take(&mut self.0)));
        }
    }
    let mut path = fork.to_vec();
    path.push(u32::try_from(index).unwrap_or(u32::MAX));
    let _restore = Restore(PLACE.with(|place| place.replace(Place { path, next: 0 })));
    f()
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
/// workers — records into its own ring of [`CAPACITY`] records. Returns
/// `f`'s result and one [`TraceLog`] per simulation, sorted by
/// [`TraceKey`] and, among equal keys, in the order a one-thread run
/// builds the simulations, so the logs are identical at any executor
/// width.
///
/// Sessions are process-global and serialized: concurrent captures queue
/// up behind each other. Simulations built by *unrelated* threads during
/// a capture join it — keep captures scoped to code you control.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceLog>) {
    let _gate = lock(&CAPTURE_GATE);
    *lock(&SESSION) = Some(Session { entries: Vec::new() });
    let clear = SessionClear;
    let result = f();
    let session = lock(&SESSION).take().expect("capture session vanished mid-run");
    drop(clear);
    let mut entries = session.entries;
    entries.sort_by(|(a, a_at, _), (b, b_at, _)| (a, a_at).cmp(&(b, b_at)));
    let logs = entries.into_iter().map(|(key, _, tracer)| tracer.log(key)).collect();
    (result, logs)
}

// ---------------------------------------------------------------------------
// Logs and the Chrome export
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

/// The `traceEvents` array of a Chrome export being written: each event
/// is rendered and written as it is pushed, never held.
struct EventStream<'w, W: Write> {
    out: &'w mut W,
    first: bool,
}

impl<W: Write> EventStream<'_, W> {
    fn push(&mut self, event: Json) -> io::Result<()> {
        if !std::mem::take(&mut self.first) {
            self.out.write_all(b",")?;
        }
        write!(self.out, "{event}")
    }
}

/// Writes captured logs to `out` as a Chrome `trace_event` JSON document
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
/// The document is one object: every key of `head` (a run record's
/// provenance, figure rows and metrics; `Json::object()` for none),
/// `displayTimeUnit`, `otherData` — which counts the simulations, their
/// records and the records their rings overwrote — and, last,
/// `traceEvents`. The small keys are written first and the events are
/// streamed one at a time, so memory stays bounded by the logs, and the
/// bytes are those a [`Json`] object holding every key would print.
///
/// # Errors
///
/// Returns the first error `out` reports.
///
/// # Panics
///
/// Panics if `head` is not an object or holds a key that does not sort
/// before `traceEvents`.
pub fn write_chrome_trace(logs: &[TraceLog], head: Json, out: &mut impl Write) -> io::Result<()> {
    use std::collections::BTreeMap;

    let head = head.with("displayTimeUnit", "ns").with(
        "otherData",
        Json::object()
            .with("simulations", logs.len())
            .with("records", logs.iter().map(|l| l.records.len()).sum::<usize>())
            .with("dropped_records", logs.iter().map(|l| l.dropped).sum::<u64>()),
    );
    let Json::Obj(keys) = &head else { unreachable!("`with` keeps an object") };
    assert!(keys.keys().all(|k| k.as_str() < "traceEvents"), "traceEvents must be the last key");
    // The head object without its closing brace, then the events array.
    let head = head.to_string();
    out.write_all(&head.as_bytes()[..head.len() - 1])?;
    out.write_all(b",\"traceEvents\":[")?;

    let mut events = EventStream { out, first: true };
    let mut open: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut names: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut end_ts = 0.0f64;
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
        for rec in &log.records {
            let kind = rec.event;
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
                    events.push(ev(&label, "B", ts, 1, tid))?;
                }
                TraceEvent::PfcResume | TraceEvent::PfcPortResume => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    if span_end(&mut open, 1, tid) {
                        events.push(ev("", "E", ts, 1, tid))?;
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
                    )?;
                }
                TraceEvent::MmuQueueResume | TraceEvent::MmuPortResume => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    if span_end(&mut open, 2, tid) {
                        events.push(ev("", "E", ts, 2, tid))?;
                    }
                }
                TraceEvent::MmuDrop | TraceEvent::HeadroomEnter => {
                    let tid = (node << 16) | (port << 4) | class.min(15);
                    events.push(
                        ev(kind.name(), "i", ts, 2, tid)
                            .with("s", "t")
                            .with("args", Json::object().with("bytes", rec.payload)),
                    )?;
                }
                TraceEvent::AuditFail => {
                    events.push(
                        ev(kind.name(), "i", ts, 2, node << 16)
                            .with("s", "p")
                            .with("args", Json::object().with("node", node)),
                    )?;
                }
                TraceEvent::FlowStart => {
                    let tid = u64::from(rec.flow);
                    let label = format!("flow {}", rec.flow);
                    names.entry((3, tid)).or_insert_with(|| label.clone());
                    span_begin(&mut open, 3, tid);
                    events.push(
                        ev(&label, "B", ts, 3, tid)
                            .with("args", Json::object().with("size_bytes", rec.payload)),
                    )?;
                }
                TraceEvent::FlowComplete | TraceEvent::FlowFailed => {
                    let tid = u64::from(rec.flow);
                    if span_end(&mut open, 3, tid) {
                        events.push(
                            ev("", "E", ts, 3, tid)
                                .with("args", Json::object().with("outcome", kind.name())),
                        )?;
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
                    )?;
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
                    )?;
                }
                TraceEvent::RecoveryNack | TraceEvent::RecoveryRepair => {
                    any_recovery = true;
                    let tid = u64::from(rec.flow);
                    events.push(ev(kind.name(), "i", ts, 7, tid).with("s", "t").with(
                        "args",
                        Json::object().with("node", node).with("payload", rec.payload),
                    ))?;
                }
            }
        }
    }

    // Close every span still open at the end of the trace.
    for ((pid, tid), n) in &open {
        for _ in 0..*n {
            events.push(ev("", "E", end_ts, *pid, *tid))?;
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
        )?;
    }
    for ((pid, tid), label) in &names {
        events.push(
            Json::object()
                .with("name", "thread_name")
                .with("ph", "M")
                .with("pid", *pid)
                .with("tid", *tid)
                .with("args", Json::object().with("name", label.as_str())),
        )?;
    }

    events.out.write_all(b"]}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_on());
        trace_event!(t, TraceEvent::FlowStart, { flow: 1 });
        assert!(t.log(TraceKey::default()).records.is_empty());
    }

    #[test]
    fn disabled_tracer_does_not_evaluate_arguments() {
        let t = Tracer::disabled();
        let mut evaluated = false;
        trace_event!(t, TraceEvent::FlowStart, {
            flow: {
                evaluated = true;
                1
            }
        });
        assert!(!evaluated, "an off trace point evaluated its arguments");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(4);
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
    fn capture_collects_per_simulation_logs_sorted_by_key() {
        let ((), logs) = capture(|| {
            for seed in [3u64, 1, 2] {
                let t = Tracer::for_simulation(TraceKey { seed, tag: 0 });
                assert!(t.is_on(), "session must enable the tracer");
                trace_event!(t, TraceEvent::FlowStart, { flow: seed as u32 });
            }
        });
        let seeds: Vec<u64> = logs.iter().map(|l| l.key.seed).collect();
        assert_eq!(seeds, vec![1, 2, 3]);
        assert!(logs.iter().all(|l| l.records.len() == 1));
        assert!(!Tracer::for_simulation(TraceKey::default()).is_on(), "off outside a session");
    }

    #[test]
    fn equal_keys_export_in_one_thread_order_at_any_width() {
        let order = |threads: usize| {
            let ex = crate::Executor::new(threads);
            let barrier = std::sync::Barrier::new(2);
            let build = |flow: u32| {
                let t = Tracer::for_simulation(TraceKey::default());
                trace_event!(t, TraceEvent::FlowStart, { flow: flow });
            };
            let ((), logs) = capture(|| {
                build(0);
                ex.par_map(vec![1, 2], |i: u32| {
                    // On two workers, item 2 builds all it builds, nested
                    // forks included, before item 1 builds anything.
                    if i == 1 && threads > 1 {
                        barrier.wait();
                    }
                    build(10 * i);
                    ex.par_map(vec![1, 2], |j| build(10 * i + j));
                    if i == 2 && threads > 1 {
                        barrier.wait();
                    }
                });
                build(99);
            });
            logs.iter().map(|l| l.records[0].flow).collect::<Vec<_>>()
        };
        assert_eq!(order(1), [0, 10, 11, 12, 20, 21, 22, 99]);
        assert_eq!(order(4), order(1));
    }

    #[test]
    fn chrome_export_round_trips_through_json_parse() {
        let t = Tracer::new(64);
        t.tick(Time::from_us(1));
        trace_event!(t, TraceEvent::FlowStart, { flow: 1, node: 0, payload: 4096 });
        trace_event!(t, TraceEvent::PfcPause, { node: 2, port: 1, class: 0 });
        t.tick(Time::from_us(3));
        trace_event!(t, TraceEvent::Retransmit, { flow: 1, payload: (2 << 48) | 9000 });
        trace_event!(t, TraceEvent::PfcResume, { node: 2, port: 1, class: 0 });
        trace_event!(t, TraceEvent::MmuDrop, { node: 4, port: 0, class: 0, payload: 1500 });
        let log = t.log(TraceKey::default());
        let render = |logs: &[TraceLog]| {
            let mut buf = Vec::new();
            let head = Json::object().with("provenance", "test");
            write_chrome_trace(logs, head, &mut buf).expect("a Vec takes every write");
            Json::parse(&String::from_utf8(buf).unwrap()).expect("chrome trace must be valid JSON")
        };
        // No records: only the four track names.
        let empty = render(&[]);
        assert_eq!(empty.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
        let parsed = render(&[log]);
        assert_eq!(parsed.get("provenance").and_then(Json::as_str), Some("test"));
        let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let ph = |p: &str| {
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(p)).count()
        };
        assert!(ph("B") >= 2, "flow + pause spans must open");
        assert!(ph("E") >= 2, "every span must close (flow span force-closed at end)");
        assert!(ph("i") >= 2, "retransmit marker + drop instant");
    }
}
