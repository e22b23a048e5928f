//! Intra-run parallel simulation: link-partitioned conservative DES.
//!
//! A single simulation is parallelized by cutting the topology at link
//! boundaries: every partition owns a contiguous block of switches (plus
//! their attached hosts), its own event calendar, frame pool, and RNG
//! stream, and the *wire propagation delay* of the cut links is the
//! guaranteed lookahead — a frame departing one partition can never
//! affect another sooner than the shortest cut-link flight time, so
//! partitions may safely advance `lookahead` ahead of each other without
//! any rollback machinery (classic conservative PDES, after
//! Chandy–Misra–Bryant).
//!
//! # Window protocol
//!
//! The run advances in half-open windows `[floor, stop)` with
//! `stop = min(floor + lookahead, next fault instant, deadline)`:
//!
//! 1. every worker first drains its partitions' staged inboxes into
//!    their calendars, then runs the calendars strictly before `stop`
//!    (behind a [`Lockstep`] barrier),
//! 2. the coordinator *stages* cross-partition outboxes into the
//!    destination partitions' inboxes — iterating partitions in id order
//!    and each outbox in push order, so staging sequence is a pure
//!    function of the partition layout, never of worker count or thread
//!    timing. Staging is an `append`, one lock per destination: the
//!    O(log n) calendar insertions are deferred to the owning workers at
//!    the next window open, off the coordinator's critical path,
//! 3. link faults scheduled exactly at `stop` execute on the owning
//!    partitions (after a coordinator-side inbox drain, so fault handlers
//!    see the same calendar a serial run would), followed by a global
//!    route recompute,
//! 4. `floor = stop`.
//!
//! A final inclusive pass per partition handles events at exactly the
//! deadline (their cross-partition effects land strictly later and are
//! kept for a subsequent `run_until`, mirroring a serial calendar's
//! unprocessed tail).
//!
//! # Determinism
//!
//! The partition layout is a pure function of the topology (never of the
//! worker count), workers execute a static partition schedule, and all
//! cross-partition merging happens on the coordinator in fixed order —
//! so results are bit-identical at any worker count. See DESIGN.md §13
//! for the full argument and its documented edge cases (global-RNG ECN
//! draws and exactly-simultaneous cross-partition arrivals at one node
//! follow per-partition order rather than the serial engine's).

use crate::fault::FaultKind;
use crate::frame::Frame;
use crate::ids::{FlowId, NodeId};
use crate::network::{NetEvent, Network, Node};
use crate::routing;
use dsh_simcore::window::Lockstep;
use dsh_simcore::{Delta, Simulation, Time};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Hard cap on partitions: beyond this, barrier and merge overhead beats
/// the extra parallelism for every topology we simulate.
pub const MAX_PARTITIONS: usize = 8;

/// Window size used when the plan has no cut links (single partition):
/// windows then only pace fault execution, so a generous fixed stride is
/// fine.
const SOLO_WINDOW: Delta = Delta::from_us(100);

/// Free frame boxes pre-allocated per partition at construction. A
/// partition can only recycle boxes its own events freed (plus the
/// coordinator's per-frame refunds), so without a pre-warmed pool its
/// circulating population converges over many windows — allocating on the
/// hot path the whole while.
const PART_POOL_PREWARM: usize = 4096;

/// A node → partition assignment with its guaranteed lookahead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    owner: Vec<u32>,
    parts: usize,
    lookahead: Delta,
}

impl PartitionPlan {
    /// Partition id owning each node, indexed by node id.
    #[must_use]
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// Number of partitions.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The conservative lookahead: the minimum propagation delay over all
    /// cut links (or a fixed stride when nothing is cut).
    #[must_use]
    pub fn lookahead(&self) -> Delta {
        self.lookahead
    }
}

/// Why a topology could not be partitioned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A link on the partition boundary has zero propagation delay, so
    /// the conservative lookahead would be zero and no partition could
    /// ever advance. Merge the endpoints into one partition or give the
    /// link a real wire delay.
    ZeroDelayCut {
        /// One endpoint of the offending link.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroDelayCut { a, b } => write!(
                f,
                "cannot partition across link {a}-{b}: zero propagation delay \
                 means zero lookahead (give the link a wire delay or keep both \
                 endpoints in one partition)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Computes a partition plan for `net`: switches (weighted by their
/// attached hosts) are packed in id order into at most `max_parts`
/// contiguous, non-empty, load-balanced blocks; every host joins its
/// switch's block, so only switch–switch links are ever cut.
///
/// The plan depends on the topology alone — never on worker count — which
/// is what keeps partitioned runs bit-identical at any parallelism.
///
/// # Errors
///
/// Fails with [`PartitionError::ZeroDelayCut`] if a cut link has no
/// propagation delay (zero lookahead).
pub fn partition(net: &Network, max_parts: usize) -> Result<PartitionPlan, PartitionError> {
    let n = net.nodes.len();
    let mut uplink = vec![usize::MAX; n];
    let mut weight = vec![1usize; n];
    let mut switches = Vec::new();
    for (i, node) in net.nodes.iter().enumerate() {
        match node {
            Node::Switch(_) => switches.push(i),
            Node::Host(h) => {
                if let Some(p) = h.port.as_ref() {
                    uplink[i] = p.peer.0;
                    weight[p.peer.0] += 1;
                }
            }
            Node::Absent => unreachable!("cannot partition an already-split network"),
        }
    }
    let parts = max_parts.clamp(1, switches.len().max(1));
    let total: usize = switches.iter().map(|&s| weight[s]).sum();
    let mut owner = vec![0u32; n];
    let mut block = 0usize;
    let mut filled = 0usize;
    for (idx, &s) in switches.iter().enumerate() {
        let switches_left = switches.len() - idx;
        let blocks_left = parts - block;
        // Close the block once it carries its proportional share — or
        // when the remaining switches are only just enough to keep every
        // remaining block non-empty. The reserve check is `<=`, not `==`:
        // a proportional close consumes a block and a switch in the same
        // step, so the counts can cross without ever being equal.
        if block + 1 < parts
            && filled > 0
            && (filled * parts >= total * (block + 1) || switches_left <= blocks_left)
        {
            block += 1;
            filled = 0;
        }
        owner[s] = block as u32;
        filled += weight[s];
    }
    for i in 0..n {
        if uplink[i] != usize::MAX {
            owner[i] = owner[uplink[i]];
        }
    }
    // Lookahead: the minimum propagation delay over the cut. A zero-delay
    // cut link is a hard error — the window size would be zero.
    let mut lookahead: Option<Delta> = None;
    for (node, _, port) in net.all_ports() {
        if owner[node.0] != owner[port.peer.0] {
            if port.prop_delay == Delta::ZERO {
                return Err(PartitionError::ZeroDelayCut { a: node, b: port.peer });
            }
            lookahead = Some(lookahead.map_or(port.prop_delay, |l| l.min(port.prop_delay)));
        }
    }
    Ok(PartitionPlan { owner, parts, lookahead: lookahead.unwrap_or(SOLO_WINDOW) })
}

/// Locks a partition, riding through poison: the coordinator checks the
/// recorded worker panic before trusting any partition state, so a
/// poisoned mutex here only means that panic is already being propagated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A network split for parallel execution: one [`Simulation`] per
/// partition plus the windowed driver state.
///
/// Use [`ParallelSim::run_until`] as a drop-in for the serial
/// [`Simulation::run_until`], or [`ParallelSim::session`] to keep the
/// worker threads alive across several phases (benchmarks measuring
/// allocation-free steady state want warmup and measurement inside one
/// session).
#[derive(Debug)]
pub struct ParallelSim {
    parts: Vec<Mutex<Simulation<Network>>>,
    plan: PartitionPlan,
    workers: usize,
    floor: Time,
    faults: Vec<(Time, FaultKind)>,
    next_fault: usize,
    scratch: Vec<(Time, NetEvent)>,
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    frame_scratch: Vec<Box<Frame>>,
    inbox_scratch: Vec<Vec<(Time, NetEvent)>>,
}

/// Moves a partition's staged cross-partition arrivals into its calendar,
/// preserving the coordinator's (source partition id, push order) staging
/// order. Runs on the owning worker at window open — and on the
/// coordinator at fault barriers and the inclusive tail, where the
/// calendar must be current before partition code executes.
fn drain_inbox(sim: &mut Simulation<Network>) {
    if sim.model().inbox.is_empty() {
        return;
    }
    let mut staged = std::mem::take(&mut sim.model_mut().inbox);
    for (t, ev) in staged.drain(..) {
        sim.schedule(t, ev);
    }
    sim.model_mut().inbox = staged; // keep the buffer's capacity
}

impl ParallelSim {
    /// Splits `net` into at most [`MAX_PARTITIONS`] partitions and
    /// prepares a windowed run on `workers` threads (clamped to the
    /// partition count; the partition *layout* never depends on it).
    ///
    /// # Errors
    ///
    /// Fails if the topology cannot be partitioned (see [`partition`]).
    pub fn new(net: Network, workers: usize) -> Result<ParallelSim, PartitionError> {
        let plan = partition(&net, MAX_PARTITIONS)?;
        Ok(ParallelSim::with_plan(net, plan, workers))
    }

    /// Like [`ParallelSim::new`] with an explicit plan (tests use this to
    /// force specific cuts).
    ///
    /// # Panics
    ///
    /// Panics if the plan's owner map does not cover the network's nodes.
    #[must_use]
    pub fn with_plan(net: Network, plan: PartitionPlan, workers: usize) -> ParallelSim {
        let faults = {
            let mut f = net.fault_schedule();
            f.sort_by_key(|&(t, _)| t); // stable: same-instant faults keep plan order
            f
        };
        let sample = net.params.sample_interval;
        let metrics = net.params.observe.map(|o| o.metrics_interval);
        let starts: Vec<(Time, u32, u32)> = (0..net.flow_count())
            .map(|i| {
                let s = net.flow_spec(FlowId(i));
                (s.start, i as u32, plan.owner[s.src.0])
            })
            .collect();
        let nets = net.split(&plan.owner, plan.parts as u32);
        let parts: Vec<Mutex<Simulation<Network>>> = nets
            .into_iter()
            .enumerate()
            .map(|(k, part)| {
                let mut sim = Simulation::new(part);
                sim.model_mut().prewarm_frame_pool(PART_POOL_PREWARM);
                // Setup events in the serial calendar's order: flow starts
                // (in flow-id order) first, the sampling tick last, so
                // same-instant ties resolve exactly like `into_sim`.
                for &(t, flow, owner) in &starts {
                    if owner == k as u32 {
                        sim.schedule(t, NetEvent::FlowStart { flow });
                    }
                }
                sim.schedule(Time::ZERO + sample, NetEvent::Sample);
                // Metrics tick after Sample, matching `into_sim`: every
                // partition ticks at identical instants, which is what
                // keeps merged metric rings index-aligned.
                if let Some(mi) = metrics {
                    sim.schedule(Time::ZERO + mi, NetEvent::MetricsTick);
                }
                Mutex::new(sim)
            })
            .collect();
        let workers = workers.clamp(1, plan.parts);
        let parts_n = parts.len();
        ParallelSim {
            parts,
            plan,
            workers,
            floor: Time::ZERO,
            faults,
            next_fault: 0,
            scratch: Vec::new(),
            frame_scratch: Vec::new(),
            inbox_scratch: vec![Vec::new(); parts_n],
        }
    }

    /// The partition plan in force.
    #[must_use]
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Worker thread count (≤ partition count).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The window floor: every event strictly before this instant has
    /// been processed.
    #[must_use]
    pub fn now(&self) -> Time {
        self.floor
    }

    /// Total events processed across all partitions.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.parts.iter().map(|p| lock(p).events_processed()).sum()
    }

    /// Runs all partitions up to and including `deadline` (one worker
    /// session; see [`ParallelSim::session`] for multi-phase runs).
    pub fn run_until(&mut self, deadline: Time) {
        self.session(|run| run.run_until(deadline));
    }

    /// Spawns the worker threads once and hands `f` a [`ParallelRun`]
    /// driver; the threads live for the whole closure, so several
    /// `run_until` phases share one thread fleet (and the measured phase
    /// of an allocation-counting benchmark spawns nothing).
    pub fn session<R>(&mut self, f: impl FnOnce(&mut ParallelRun<'_>) -> R) -> R {
        let ParallelSim {
            parts,
            plan,
            workers,
            floor,
            faults,
            next_fault,
            scratch,
            frame_scratch,
            inbox_scratch,
        } = self;
        let parts: &[Mutex<Simulation<Network>>] = parts;
        let ls = Lockstep::new(*workers);
        let worker_panic: Mutex<Option<PanicPayload>> = Mutex::new(None);
        let workers_n = *workers;
        let result = std::thread::scope(|scope| {
            for w in 0..workers_n {
                let ls = &ls;
                let worker_panic = &worker_panic;
                scope.spawn(move || {
                    // After a panic the worker keeps answering the barrier
                    // protocol (doing no work) so the coordinator can shut
                    // the session down and re-raise the payload instead of
                    // deadlocking at a half-attended barrier.
                    let mut dead = false;
                    while let Some(stop) = ls.next_window() {
                        if !dead {
                            let ran = catch_unwind(AssertUnwindSafe(|| {
                                let mut i = w;
                                while i < parts.len() {
                                    let mut sim = lock(&parts[i]);
                                    drain_inbox(&mut sim);
                                    sim.run_before(stop);
                                    drop(sim);
                                    i += workers_n;
                                }
                            }));
                            if let Err(payload) = ran {
                                dead = true;
                                let mut slot = lock(worker_panic);
                                slot.get_or_insert(payload);
                            }
                        }
                        ls.window_done();
                    }
                });
            }
            let mut run = ParallelRun {
                parts,
                plan,
                ls: &ls,
                floor,
                faults,
                next_fault,
                scratch,
                frame_scratch,
                inbox_scratch,
                worker_panic: &worker_panic,
            };
            let out = catch_unwind(AssertUnwindSafe(|| f(&mut run)));
            ls.shut_down();
            out
        });
        if let Some(payload) = lock(&worker_panic).take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Merges the partitions back into one [`Network`] for measurement.
    /// Cross-partition frames still in flight past the last deadline are
    /// discarded, exactly like the unprocessed tail of a serial calendar.
    #[must_use]
    pub fn into_network(self) -> Network {
        let mut nets = self
            .parts
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner).into_model());
        let mut merged = nets.next().expect("at least one partition");
        merged.outbox.clear();
        merged.inbox.clear();
        for mut other in nets {
            other.outbox.clear();
            other.inbox.clear();
            merged.absorb(other);
        }
        merged.finish_merge();
        merged
    }
}

/// The coordinator handle inside a [`ParallelSim::session`].
#[derive(Debug)]
pub struct ParallelRun<'a> {
    parts: &'a [Mutex<Simulation<Network>>],
    plan: &'a PartitionPlan,
    ls: &'a Lockstep,
    floor: &'a mut Time,
    faults: &'a [(Time, FaultKind)],
    next_fault: &'a mut usize,
    scratch: &'a mut Vec<(Time, NetEvent)>,
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    frame_scratch: &'a mut Vec<Box<Frame>>,
    inbox_scratch: &'a mut Vec<Vec<(Time, NetEvent)>>,
    worker_panic: &'a Mutex<Option<PanicPayload>>,
}

impl ParallelRun<'_> {
    /// Total events processed across all partitions so far. Safe between
    /// `run_until` phases: workers only touch partitions inside an open
    /// window, and `run_until` never returns with one open.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.parts.iter().map(|p| lock(p).events_processed()).sum()
    }

    /// Total data packets delivered across all partitions so far.
    #[must_use]
    pub fn packets_delivered(&self) -> u64 {
        self.parts.iter().map(|p| lock(p).model().packets_delivered()).sum()
    }

    /// Advances every partition up to and including `deadline` in
    /// lookahead windows.
    ///
    /// # Panics
    ///
    /// Re-raises (via the session) any panic from a partition worker.
    /// `deadline` must be a finite horizon, not [`Time::MAX`]: the
    /// sampling tick re-schedules itself forever, so "run until the
    /// calendar drains" never terminates on a network model.
    pub fn run_until(&mut self, deadline: Time) {
        assert!(deadline < Time::MAX, "partitioned runs need a finite horizon");
        let lookahead = self.plan.lookahead();
        // Leftover cross sends from a previous phase's inclusive tail.
        self.deliver(*self.floor);
        while *self.floor < deadline {
            let mut stop = Time::from_ps(
                self.floor.as_ps().saturating_add(lookahead.as_ps()).min(deadline.as_ps()),
            );
            if let Some(&(t, _)) = self.faults.get(*self.next_fault) {
                stop = stop.min(t);
            }
            self.ls.open_window(stop);
            self.ls.close_window();
            self.check_workers();
            self.deliver(stop);
            if self.faults.get(*self.next_fault).is_some_and(|&(t, _)| t == stop) {
                self.drain_all_inboxes();
            }
            while let Some(&(t, kind)) = self.faults.get(*self.next_fault) {
                if t != stop {
                    break;
                }
                self.execute_fault(t, kind);
                *self.next_fault += 1;
            }
            // Faults transmit PFC resumes and kicks of their own.
            self.deliver(stop);
            *self.floor = stop;
        }
        // Inclusive tail: events at exactly the deadline are partition-
        // local by the lookahead argument (their cross effects land
        // strictly later and stay in the outboxes for the next phase).
        // Staged inbox entries may sit exactly at the deadline, so the
        // calendar is brought current first.
        for p in self.parts {
            let mut sim = lock(p);
            drain_inbox(&mut sim);
            sim.run_until(deadline);
        }
        self.check_workers();
    }

    /// Fails fast on a recorded worker panic; the payload itself is
    /// re-raised when the session unwinds.
    fn check_workers(&self) {
        assert!(lock(self.worker_panic).is_none(), "a partition worker panicked");
    }

    /// Stages every partition's outbox into the owning partitions'
    /// inboxes, in (partition id, push order) — the deterministic merge
    /// the whole scheme rests on. All messages must land at or beyond
    /// `bound` (the lookahead guarantee).
    ///
    /// Staging is a bulk `append` (one destination lock per source
    /// partition): the per-event calendar insertions happen on the owning
    /// workers at the next window open (see [`drain_inbox`]), overlapping
    /// them with every other partition's insertions instead of
    /// serializing the whole merge on the coordinator.
    fn deliver(&mut self, bound: Time) {
        for src in 0..self.parts.len() {
            std::mem::swap(&mut lock(&self.parts[src]).model_mut().outbox, self.scratch);
            for (t, ev) in self.scratch.drain(..) {
                assert!(t >= bound, "cross-partition event violates the lookahead window");
                let NetEvent::Arrive { node, .. } = &ev else {
                    unreachable!("only frame arrivals cross partitions")
                };
                let dst = self.plan.owner[*node as usize] as usize;
                debug_assert_ne!(dst, src, "outbox entry for a locally-owned node");
                self.inbox_scratch[dst].push((t, ev));
            }
            for dst in 0..self.parts.len() {
                let staged = &mut self.inbox_scratch[dst];
                if staged.is_empty() {
                    continue;
                }
                // Every staged frame carried its box into `dst`;
                // counter-migrate the same number of free boxes back, or a
                // partition whose hosts net-export frames drains its pool
                // and allocates on the hot path forever (a dry destination
                // pool skips the refund — it owes nothing, its own frees
                // will restock it).
                let owed = staged.len();
                {
                    let mut sim = lock(&self.parts[dst]);
                    let m = sim.model_mut();
                    m.inbox.append(staged);
                    m.lend_free_frames(owed, self.frame_scratch);
                }
                if !self.frame_scratch.is_empty() {
                    lock(&self.parts[src]).model_mut().adopt_free_frames(self.frame_scratch);
                }
            }
        }
    }

    /// Coordinator-side inbox drain for the points where partition code
    /// runs outside a worker window (fault barriers, the inclusive tail):
    /// the calendar must be current first, e.g. a `LinkDown` sweeping
    /// in-flight frames must see staged cross-partition arrivals.
    fn drain_all_inboxes(&self) {
        for p in self.parts {
            drain_inbox(&mut lock(p));
        }
    }

    /// Executes one link fault at the barrier instant `t`: endpoint halves
    /// on their owning partitions (in `(a, b)` order, like the serial
    /// handler), then a global route recompute, then — for repairs — the
    /// serializer kicks, strictly after routes are back.
    fn execute_fault(&mut self, t: Time, kind: FaultKind) {
        let (a, b, up) = match kind {
            FaultKind::LinkDown { a, b } => (a, b, false),
            FaultKind::LinkUp { a, b } => (a, b, true),
        };
        for (node, peer) in [(a, b), (b, a)] {
            let p = self.plan.owner[node.0] as usize;
            lock(&self.parts[p]).with_model_at(t, |m, s| m.fault_endpoint(node, peer, up, s));
        }
        // Route recompute over the global live adjacency — the partitioned
        // counterpart of Network::recompute_routes, including its stamp-
        // budget re-validation.
        let n = self.plan.owner.len();
        let mut is_switch = vec![false; n];
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for p in self.parts {
            lock(p).model().live_topology_into(&mut is_switch, &mut adj);
        }
        let tables = routing::compute_route_tables(&is_switch, &adj);
        let diameter = routing::max_route_hops(&is_switch, &adj);
        assert!(
            diameter <= dsh_transport::HOP_CAPACITY,
            "post-fault reroute produced a {diameter}-switch path but frames \
             carry only HOP_CAPACITY ({}) inline telemetry stamps",
            dsh_transport::HOP_CAPACITY
        );
        for p in self.parts {
            lock(p).model_mut().install_routes(&tables);
        }
        if up {
            for (node, peer) in [(a, b), (b, a)] {
                let p = self.plan.owner[node.0] as usize;
                lock(&self.parts[p]).with_model_at(t, |m, s| m.fault_kick(node, peer, s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NetParams, NetworkBuilder};
    use crate::network::FlowSpec;
    use dsh_core::Scheme;
    use dsh_simcore::Bandwidth;
    use dsh_transport::CcKind;

    /// The whole scheme rests on shipping partition state to worker
    /// threads.
    #[test]
    fn network_is_send() {
        fn is_send<T: Send>() {}
        is_send::<Network>();
        is_send::<Simulation<Network>>();
    }

    /// Two-switch chain, two hosts per switch, four cross-cut flows with
    /// staggered starts (ECN off, so no global-RNG draws — the documented
    /// requirement for serial/parallel bit-identity).
    fn chain_net() -> Network {
        let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh).without_ecn());
        let s0 = b.switch();
        let s1 = b.switch();
        let hosts: Vec<_> = (0..4).map(|_| b.host()).collect();
        let bw = Bandwidth::from_gbps(100);
        b.link(hosts[0], s0, bw, Delta::from_us(1));
        b.link(hosts[1], s0, bw, Delta::from_us(1));
        b.link(hosts[2], s1, bw, Delta::from_us(1));
        b.link(hosts[3], s1, bw, Delta::from_us(1));
        b.link(s0, s1, bw, Delta::from_us(2));
        let mut net = b.build();
        for (i, (&src, &dst)) in
            [(hosts[0], hosts[2]), (hosts[2], hosts[0]), (hosts[1], hosts[3]), (hosts[3], hosts[1])]
                .iter()
                .map(|(a, b)| (a, b))
                .enumerate()
        {
            net.add_flow(FlowSpec {
                src,
                dst,
                size: 200_000 + 40_000 * i as u64,
                class: 0,
                start: Time::from_us(3 * i as u64),
                cc: CcKind::Uncontrolled,
            });
        }
        net
    }

    fn fct_key(net: &Network) -> Vec<(u64, u64, u64, u64)> {
        let mut v: Vec<_> = net
            .fct_records()
            .iter()
            .map(|r| (r.finish.as_ps(), r.flow.0 as u64, r.start.as_ps(), r.size))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn chain_partitions_on_the_inter_switch_link() {
        let net = chain_net();
        let plan = partition(&net, MAX_PARTITIONS).expect("chain must partition");
        assert_eq!(plan.parts(), 2);
        assert_eq!(plan.lookahead(), Delta::from_us(2), "lookahead = cut-link delay");
        // Hosts follow their switch.
        assert_eq!(plan.owner()[2], plan.owner()[0]);
        assert_eq!(plan.owner()[3], plan.owner()[0]);
        assert_eq!(plan.owner()[4], plan.owner()[1]);
        assert_eq!(plan.owner()[5], plan.owner()[1]);
        assert_ne!(plan.owner()[0], plan.owner()[1]);
    }

    #[test]
    fn zero_delay_cut_is_rejected() {
        let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh));
        let s0 = b.switch();
        let s1 = b.switch();
        let h0 = b.host();
        let h1 = b.host();
        let bw = Bandwidth::from_gbps(100);
        b.link(h0, s0, bw, Delta::from_us(1));
        b.link(h1, s1, bw, Delta::from_us(1));
        b.link(s0, s1, bw, Delta::ZERO);
        let net = b.build();
        let err = partition(&net, MAX_PARTITIONS).expect_err("zero-delay cut must fail");
        let PartitionError::ZeroDelayCut { a, b } = err;
        assert_eq!((a.0.min(b.0), a.0.max(b.0)), (0, 1));
    }

    #[test]
    fn parallel_matches_serial_at_any_worker_count() {
        let deadline = Time::from_ms(2);
        let serial = {
            let mut sim = chain_net().into_sim();
            sim.run_until(deadline);
            sim.into_model()
        };
        assert_eq!(serial.fct_records().len(), 4, "all flows must finish serially");
        for workers in [1, 2, 4] {
            let mut par = ParallelSim::new(chain_net(), workers).expect("partitionable");
            par.run_until(deadline);
            let merged = par.into_network();
            assert_eq!(fct_key(&merged), fct_key(&serial), "workers={workers}");
            assert_eq!(merged.packets_delivered(), serial.packets_delivered());
            assert_eq!(merged.data_drops(), serial.data_drops());
        }
    }

    #[test]
    fn phased_run_matches_single_run() {
        let deadline = Time::from_ms(2);
        let whole = {
            let mut par = ParallelSim::new(chain_net(), 2).expect("partitionable");
            par.run_until(deadline);
            fct_key(&par.into_network())
        };
        let mut par = ParallelSim::new(chain_net(), 2).expect("partitionable");
        par.session(|run| {
            run.run_until(Time::from_us(40));
            run.run_until(Time::from_us(700));
            run.run_until(deadline);
        });
        assert_eq!(fct_key(&par.into_network()), whole);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut par = ParallelSim::new(chain_net(), 2).expect("partitionable");
            par.session(|run| {
                run.run_until(Time::from_us(10));
                panic!("coordinator bailed");
            });
        }));
        assert!(result.is_err(), "coordinator panic must unwind through the session");
    }
}
