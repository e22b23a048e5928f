//! Pause-causality tracking: who-paused-whom edges, cascade trees, cycle
//! detection, and victim-flow attribution (DESIGN.md §16).
//!
//! Every PFC pause the network applies opens an *edge* linking the paused
//! upstream port to the congested downstream switch that requested the
//! pause.  Edges close on resume (or when a watchdog / link failure forces
//! the pause clear).  At report time the edge set is sorted into a
//! canonical order and parents are resolved, turning the flat edge log
//! into a forest of cascade trees: a depth-1 edge is a root congestion
//! point pausing its neighbour, a depth-2 edge is that neighbour pausing
//! *its* upstream (congestion spreading), and so on.

use crate::ids::{FlowId, NodeId};
use dsh_simcore::{Delta, Json, Time};
use std::collections::BTreeMap;

/// Class value recorded for port-scope (POFF/PON) pauses, which are not
/// tied to any single traffic class.
pub const PORT_SCOPE_CLASS: u8 = u8::MAX;

/// One who-paused-whom edge: `down` (the congested switch) paused
/// `(up, up_port)` for `class` over `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PauseEdge {
    /// Node whose egress port was paused (the victim side of the edge).
    pub up: NodeId,
    /// Egress port on `up` that stopped transmitting.
    pub up_port: usize,
    /// Traffic class, or [`PORT_SCOPE_CLASS`] for port-scope pauses.
    pub class: u8,
    /// The congested node that requested the pause.
    pub down: NodeId,
    /// Ingress port on `down` whose buffer triggered the pause.
    pub down_port: usize,
    /// True when `up` is a host NIC — the cascade reached the edge of the
    /// fabric and is throttling an innocent (or guilty) sender directly.
    pub up_is_host: bool,
    /// Instant the pause took effect at `up`.
    pub start: Time,
    /// Instant the pause cleared, or [`Time::MAX`] while still open.
    pub end: Time,
}

impl PauseEdge {
    fn is_open(&self) -> bool {
        self.end == Time::MAX
    }

    /// Canonical sort key of the cascade analysis: edges sorted by this
    /// key give the same report whatever order they were logged in.
    fn key(&self) -> (Time, usize, usize, u8, usize, Time) {
        (self.start, self.up.0, self.up_port, self.class, self.down.0, self.end)
    }
}

/// Live edge log, in the order pauses took effect.
#[derive(Clone, Debug, Default)]
pub struct CascadeTracker {
    edges: Vec<PauseEdge>,
    /// Indices into `edges` of still-open edges (`end == Time::MAX`).
    open: Vec<usize>,
}

impl CascadeTracker {
    pub(crate) fn new() -> Self {
        CascadeTracker { edges: Vec::with_capacity(256), open: Vec::with_capacity(64) }
    }

    /// Records a pause taking effect at `(up, up_port)` for `class`,
    /// requested by `(down, down_port)`.  A redundant pause refresh on an
    /// already-open edge keeps the original start.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_pause(
        &mut self,
        up: NodeId,
        up_port: usize,
        class: u8,
        down: NodeId,
        down_port: usize,
        up_is_host: bool,
        now: Time,
    ) {
        if self.open.iter().any(|&i| {
            let e = &self.edges[i];
            e.up == up && e.up_port == up_port && e.class == class
        }) {
            return;
        }
        let idx = self.edges.len();
        self.edges.push(PauseEdge {
            up,
            up_port,
            class,
            down,
            down_port,
            up_is_host,
            start: now,
            end: Time::MAX,
        });
        self.open.push(idx);
    }

    /// Closes the open edge for `(up, up_port, class)`, if any.
    pub(crate) fn on_resume(&mut self, up: NodeId, up_port: usize, class: u8, now: Time) {
        let edges = &mut self.edges;
        self.open.retain(|&i| {
            let e = &mut edges[i];
            if e.up == up && e.up_port == up_port && e.class == class {
                e.end = now;
                false
            } else {
                true
            }
        });
    }

    /// Closes every open edge on `(up, up_port)` — used when a link
    /// failure wipes the port's pause state wholesale.
    pub(crate) fn force_close_port(&mut self, up: NodeId, up_port: usize, now: Time) {
        let edges = &mut self.edges;
        self.open.retain(|&i| {
            let e = &mut edges[i];
            if e.up == up && e.up_port == up_port {
                e.end = now;
                false
            } else {
                true
            }
        });
    }

    /// The raw edge log (open edges have `end == Time::MAX`).
    #[must_use]
    pub fn edges(&self) -> &[PauseEdge] {
        &self.edges
    }
}

/// Per-flow pause exposure, split by cascade depth of the host-NIC edge
/// that throttled the flow's source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowPauseAttribution {
    /// The attributed flow.
    pub flow: FlowId,
    /// Pause overlap from depth-1 edges: the flow's own first-hop switch
    /// was the congestion root (the flow congested itself).
    pub self_congested: Delta,
    /// Pause overlap from depth ≥ 2 edges: congestion elsewhere cascaded
    /// back to this flow's NIC (the flow is a victim).
    pub victim: Delta,
}

/// Analysed cascade forest: summary statistics plus per-flow attribution.
#[derive(Clone, Debug, Default)]
pub struct CascadeReport {
    /// Total who-paused-whom edges recorded.
    pub edges: usize,
    /// Number of cascades (depth-1 edges, each rooting a tree).
    pub count: usize,
    /// Deepest chain of propagated pauses.
    pub max_depth: usize,
    /// Largest number of upstream ports a single edge fanned out to.
    pub max_fanout: usize,
    /// Median per-edge pause duration.
    pub p50_duration: Delta,
    /// 99th-percentile per-edge pause duration.
    pub p99_duration: Delta,
    /// Edges whose paused side is a host NIC.
    pub host_nic_edges: usize,
    /// Named findings for cyclic buffer dependencies among open edges,
    /// e.g. `"cascade-cycle: n2 -> n3 -> n2"`.
    pub cycles: Vec<String>,
    /// Flows with nonzero pause exposure.
    pub flows: Vec<FlowPauseAttribution>,
}

impl CascadeReport {
    /// JSON form (the `pause_cascades` section of a telemetry report).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("count", self.count as u64)
            .with("edges", self.edges as u64)
            .with("max_depth", self.max_depth as u64)
            .with("max_fanout", self.max_fanout as u64)
            .with("p50_duration_ns", self.p50_duration.as_ns())
            .with("p99_duration_ns", self.p99_duration.as_ns())
            .with("host_nic_edges", self.host_nic_edges as u64)
            .with("cycles", self.cycles.clone())
            .with(
                "flows",
                Json::Arr(
                    self.flows
                        .iter()
                        .map(|f| {
                            Json::object()
                                .with("flow", f.flow.0 as u64)
                                .with("self_congested_ns", f.self_congested.as_ns())
                                .with("victim_ns", f.victim.as_ns())
                        })
                        .collect(),
                ),
            )
    }
}

/// Analyses an edge log at instant `now`.  Open edges are treated as
/// ending at `now` (the log itself is not mutated).  `flows` supplies
/// `(flow, source host, start, finish)` lifetimes for attribution;
/// in-flight flows pass `now` as their finish.
pub fn analyze(
    edges: &[PauseEdge],
    now: Time,
    flows: impl Iterator<Item = (FlowId, NodeId, Time, Time)>,
) -> CascadeReport {
    // Cycle detection runs over the *open* edges only: a cycle that has
    // already resolved is ordinary (if unlucky) congestion spreading; a
    // cycle still open at report time is a live buffer dependency loop.
    let cycles = find_cycles(edges).into_iter().map(|c| c.name).collect();

    // Clamp open edges to `now` and sort canonically so the analysis
    // does not depend on the order edges were logged in.
    let mut es: Vec<PauseEdge> = edges.to_vec();
    for e in &mut es {
        if e.is_open() {
            e.end = now;
        }
    }
    es.sort_unstable_by_key(PauseEdge::key);

    // Parent resolution: edge E's parent is the latest-starting edge P
    // strictly earlier in canonical order with P.up == E.down that was
    // still open when E started — the pause that congested E.down in the
    // first place.  "Earlier in sort order" guarantees the parent forest
    // is acyclic even in the presence of genuine cycles.
    let n = es.len();
    let mut depth = vec![1usize; n];
    let mut children = vec![0usize; n];
    let mut max_depth = 0usize;
    let mut roots = 0usize;
    for i in 0..n {
        let mut parent = None;
        for j in (0..i).rev() {
            if es[j].up == es[i].down && es[j].start <= es[i].start && es[i].start <= es[j].end {
                parent = Some(j);
                break;
            }
        }
        match parent {
            Some(j) => {
                depth[i] = depth[j] + 1;
                children[j] += 1;
            }
            None => roots += 1,
        }
        max_depth = max_depth.max(depth[i]);
    }
    let max_fanout = children.iter().copied().max().unwrap_or(0);

    let mut durations: Vec<Delta> = es.iter().map(|e| e.end.saturating_since(e.start)).collect();
    durations.sort_unstable();
    let pct = |p: usize| -> Delta {
        if durations.is_empty() {
            Delta::ZERO
        } else {
            durations[((durations.len() - 1) * p) / 100]
        }
    };

    // Host-NIC edges, pre-joined for the per-flow pass.
    let host_edges: Vec<(NodeId, Time, Time, usize)> = es
        .iter()
        .enumerate()
        .filter(|(_, e)| e.up_is_host)
        .map(|(i, e)| (e.up, e.start, e.end, depth[i]))
        .collect();

    let mut attributions = Vec::new();
    for (flow, src, fstart, fend) in flows {
        let mut own = Delta::ZERO;
        let mut victim = Delta::ZERO;
        for &(host, estart, eend, d) in &host_edges {
            if host != src {
                continue;
            }
            let lo = estart.max(fstart);
            let hi = eend.min(fend);
            let overlap = hi.saturating_since(lo);
            if overlap == Delta::ZERO {
                continue;
            }
            if d >= 2 {
                victim += overlap;
            } else {
                own += overlap;
            }
        }
        if own > Delta::ZERO || victim > Delta::ZERO {
            attributions.push(FlowPauseAttribution { flow, self_congested: own, victim });
        }
    }
    attributions.sort_unstable_by_key(|a| a.flow.0);

    CascadeReport {
        edges: n,
        count: roots,
        max_depth,
        max_fanout,
        p50_duration: pct(50),
        p99_duration: pct(99),
        host_nic_edges: host_edges.len(),
        cycles,
        flows: attributions,
    }
}

/// An open cyclic buffer dependency: every arc of the loop holds at
/// least one open pause edge (see [`find_cycles`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PauseCycle {
    /// Named finding, rotated to start at the smallest node id, e.g.
    /// `"cascade-cycle: n2 -> n3 -> n2"`.
    pub name: String,
    /// The instant the cycle closed: each arc is held from the earliest
    /// start among its open edges, and the cycle from the latest of those.
    pub onset: Time,
    /// Whether any open edge on the cycle is a port-scope pause
    /// ([`PORT_SCOPE_CLASS`]).
    pub port_scope: bool,
}

impl std::fmt::Display for PauseCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let port = if self.port_scope { "yes" } else { "no" };
        write!(
            f,
            "{} (closed {:.3} ms, port-scope pause: {port})",
            self.name,
            self.onset.as_ms_f64()
        )
    }
}

/// Finds cyclic buffer dependencies among the *open* edges of `edges`.
/// Each open edge contributes an arc `down -> up` (congestion at `down`
/// throttles `up`); a cycle means every switch on the loop is waiting for
/// buffer the next one cannot drain — the PFC deadlock shape the watchdog
/// exists to break.  A closed edge breaks its arc, so a cycle that
/// re-forms dates from its re-forming.  The depth-first search reports
/// one cycle per back edge it meets: at least one in every strongly
/// connected group of open arcs, not every elementary cycle.  Findings
/// are canonicalised, deduplicated, and sorted by name.
#[must_use]
pub fn find_cycles(edges: &[PauseEdge]) -> Vec<PauseCycle> {
    // Per arc: earliest open-edge start, and whether a port-scope pause
    // holds it.
    let mut adj: BTreeMap<usize, BTreeMap<usize, (Time, bool)>> = BTreeMap::new();
    for e in edges.iter().filter(|e| e.is_open()) {
        let arc = adj.entry(e.down.0).or_default().entry(e.up.0).or_insert((e.start, false));
        arc.0 = arc.0.min(e.start);
        arc.1 |= e.class == PORT_SCOPE_CLASS;
    }
    let successors = |n: usize| -> Vec<usize> {
        adj.get(&n).map(|s| s.keys().copied().collect()).unwrap_or_default()
    };
    let mut findings: BTreeMap<String, PauseCycle> = BTreeMap::new();
    let mut state: BTreeMap<usize, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    let mut stack: Vec<usize> = Vec::new();
    for &root in adj.keys() {
        if state.contains_key(&root) {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut work: Vec<(usize, Vec<usize>)> = vec![(root, successors(root))];
        state.insert(root, 1);
        stack.push(root);
        while let Some((node, succ)) = work.last_mut() {
            if let Some(next) = succ.pop() {
                match state.get(&next).copied() {
                    Some(1) => {
                        // Back edge: the cycle is the stack slice from
                        // `next` to the top.
                        let pos = stack.iter().position(|&v| v == next).unwrap();
                        let cycle = &stack[pos..];
                        let (mut onset, mut port_scope) = (Time::ZERO, false);
                        for (i, &down) in cycle.iter().enumerate() {
                            let up = cycle[(i + 1) % cycle.len()];
                            let (start, port) = adj[&down][&up];
                            onset = onset.max(start);
                            port_scope |= port;
                        }
                        let min_pos = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &v)| v)
                            .map(|(i, _)| i)
                            .unwrap();
                        let rotated: Vec<String> = cycle[min_pos..]
                            .iter()
                            .chain(cycle[..min_pos].iter())
                            .chain(std::iter::once(&cycle[min_pos]))
                            .map(|&v| NodeId(v).to_string())
                            .collect();
                        let name = format!("cascade-cycle: {}", rotated.join(" -> "));
                        findings.insert(name.clone(), PauseCycle { name, onset, port_scope });
                    }
                    Some(2) => {}
                    _ => {
                        state.insert(next, 1);
                        stack.push(next);
                        work.push((next, successors(next)));
                    }
                }
            } else {
                state.insert(*node, 2);
                stack.pop();
                work.pop();
            }
        }
    }
    findings.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::from_us(us)
    }

    #[test]
    fn single_edge_is_one_root_cascade() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(1), 0, 3, NodeId(2), 1, false, t(10));
        tr.on_resume(NodeId(1), 0, 3, t(14));
        let r = analyze(tr.edges(), t(100), std::iter::empty());
        assert_eq!(r.count, 1);
        assert_eq!(r.edges, 1);
        assert_eq!(r.max_depth, 1);
        assert_eq!(r.p50_duration, Delta::from_us(4));
        assert!(r.cycles.is_empty());
    }

    #[test]
    fn redundant_pause_refresh_keeps_original_start() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(1), 0, 3, NodeId(2), 1, false, t(10));
        tr.on_pause(NodeId(1), 0, 3, NodeId(2), 1, false, t(12));
        tr.on_resume(NodeId(1), 0, 3, t(20));
        assert_eq!(tr.edges().len(), 1);
        assert_eq!(tr.edges()[0].start, t(10));
        assert_eq!(tr.edges()[0].end, t(20));
    }

    #[test]
    fn chained_pauses_form_a_depth_two_cascade() {
        let mut tr = CascadeTracker::new();
        // Root congestion at n3 pauses switch n2 ...
        tr.on_pause(NodeId(2), 1, 0, NodeId(3), 0, false, t(10));
        // ... which fills and pauses host n0 while the first pause holds.
        tr.on_pause(NodeId(0), 0, 0, NodeId(2), 2, true, t(12));
        tr.on_resume(NodeId(0), 0, 0, t(18));
        tr.on_resume(NodeId(2), 1, 0, t(20));
        let flows = vec![(FlowId(7), NodeId(0), t(0), t(100))];
        let r = analyze(tr.edges(), t(100), flows.into_iter());
        assert_eq!(r.count, 1);
        assert_eq!(r.max_depth, 2);
        assert_eq!(r.host_nic_edges, 1);
        assert_eq!(r.flows.len(), 1);
        assert_eq!(r.flows[0].victim, Delta::from_us(6));
        assert_eq!(r.flows[0].self_congested, Delta::ZERO);
    }

    #[test]
    fn depth_one_host_pause_is_self_congestion() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(0), 0, 0, NodeId(2), 1, true, t(10));
        tr.on_resume(NodeId(0), 0, 0, t(16));
        let flows = vec![(FlowId(1), NodeId(0), t(0), t(50))];
        let r = analyze(tr.edges(), t(50), flows.into_iter());
        assert_eq!(r.flows[0].self_congested, Delta::from_us(6));
        assert_eq!(r.flows[0].victim, Delta::ZERO);
    }

    #[test]
    fn open_cycle_is_reported_as_named_finding() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(2), 0, 0, NodeId(3), 0, false, t(10));
        tr.on_pause(NodeId(3), 1, 0, NodeId(4), 0, false, t(11));
        tr.on_pause(NodeId(4), 1, 0, NodeId(2), 1, false, t(12));
        let r = analyze(tr.edges(), t(100), std::iter::empty());
        assert_eq!(r.cycles, vec!["cascade-cycle: n2 -> n4 -> n3 -> n2".to_string()]);
        // The parent forest stays acyclic: depths are finite.
        assert!(r.max_depth <= 3);
    }

    #[test]
    fn closed_cycle_is_not_a_finding() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(2), 0, 0, NodeId(3), 0, false, t(10));
        tr.on_pause(NodeId(3), 1, 0, NodeId(2), 1, false, t(11));
        tr.on_resume(NodeId(2), 0, 0, t(12));
        tr.on_resume(NodeId(3), 1, 0, t(13));
        let r = analyze(tr.edges(), t(100), std::iter::empty());
        assert!(r.cycles.is_empty());
    }

    #[test]
    fn cycle_onset_is_the_closing_instant() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(2), 0, 0, NodeId(3), 0, false, t(10));
        tr.on_pause(NodeId(3), 1, 0, NodeId(4), 0, false, t(11));
        tr.on_pause(NodeId(4), 1, 0, NodeId(2), 1, false, t(12));
        let cycles = find_cycles(tr.edges());
        assert_eq!(
            cycles,
            vec![PauseCycle {
                name: "cascade-cycle: n2 -> n4 -> n3 -> n2".to_string(),
                onset: t(12),
                port_scope: false,
            }]
        );
    }

    #[test]
    fn parallel_open_edges_hold_an_arc_from_the_earliest_start() {
        let mut tr = CascadeTracker::new();
        // Arc n3 -> n2 held by two ports of n2, from 10 and from 20.
        tr.on_pause(NodeId(2), 0, 0, NodeId(3), 0, false, t(10));
        tr.on_pause(NodeId(3), 1, 0, NodeId(2), 1, false, t(15));
        tr.on_pause(NodeId(2), 2, PORT_SCOPE_CLASS, NodeId(3), 2, false, t(20));
        let c = &find_cycles(tr.edges())[0];
        assert_eq!(c.onset, t(15), "closed when n2 -> n3 joined the arc open since 10");
        assert!(c.port_scope);
        // The earlier edge closes; the arc is now held only from 20.
        tr.on_resume(NodeId(2), 0, 0, t(30));
        assert_eq!(find_cycles(tr.edges())[0].onset, t(20));
    }

    #[test]
    fn a_closed_edge_breaks_the_cycle() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(2), 0, 0, NodeId(3), 0, false, t(10));
        tr.on_pause(NodeId(3), 1, 0, NodeId(4), 0, false, t(11));
        tr.on_pause(NodeId(4), 1, 0, NodeId(2), 1, false, t(12));
        tr.on_resume(NodeId(3), 1, 0, t(13));
        assert!(find_cycles(tr.edges()).is_empty());
    }

    #[test]
    fn a_reformed_cycle_counts_from_its_reforming() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(2), 0, 0, NodeId(3), 0, false, t(10));
        tr.on_pause(NodeId(3), 1, 0, NodeId(2), 1, false, t(11));
        tr.on_resume(NodeId(3), 1, 0, t(20));
        tr.on_pause(NodeId(3), 1, 0, NodeId(2), 1, false, t(30));
        let cycles = find_cycles(tr.edges());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].onset, t(30));
    }

    #[test]
    fn force_close_port_closes_all_classes() {
        let mut tr = CascadeTracker::new();
        tr.on_pause(NodeId(1), 2, 0, NodeId(3), 0, false, t(10));
        tr.on_pause(NodeId(1), 2, PORT_SCOPE_CLASS, NodeId(3), 0, false, t(11));
        tr.on_pause(NodeId(1), 3, 0, NodeId(4), 0, false, t(11));
        tr.force_close_port(NodeId(1), 2, t(12));
        let open: Vec<_> = tr.edges().iter().filter(|e| e.is_open()).collect();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].up_port, 3);
    }
}
