//! The event calendar: a bucketed calendar queue (Brown, CACM 1988) with
//! deterministic FIFO tie-breaking.
//!
//! A packet-level fabric keeps a few hundred to a few thousand events
//! pending, nearly all of them less than ten microseconds ahead: a
//! `TxDone` one serialization time out, an `Arrive` one serialization plus
//! one propagation delay out. The calendar files each such event into a
//! ring slot by its time, so a push or a pop costs O(1) where a binary heap
//! pays O(log n) sifts. The rare event beyond the ring's horizon (a flow
//! start seeded at set-up, an RTO) waits in a small heap until the ring
//! reaches it.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one ring slot as a power of two in picoseconds: 2^16 ps is
/// 65.5 ns, about one 1 KB frame at 100 Gb/s, so a port's back-to-back
/// serializations fall into neighbouring slots and a slot holds a handful
/// of events.
const SLOT_SHIFT: u32 = 16;

/// Slots in the ring. At 65.5 ns a slot the ring looks 67 µs ahead, past
/// every serialization, propagation and PFC delay of the modelled fabrics,
/// while its index and occupancy bitmap stay about 8 KB.
const SLOTS: usize = 1024;

/// Words of the occupancy bitmap, one bit per slot.
const WORDS: usize = SLOTS / 64;

/// End of a node list; also marks an empty slot and an empty free list.
const NIL: u32 = u32::MAX;

/// Absolute slot number of `time` (not wrapped onto the ring).
#[inline]
fn slot_of(time: Time) -> u64 {
    time.as_ps() >> SLOT_SHIFT
}

/// Ring position of `time`'s slot.
#[inline]
fn ring_pos(time: Time) -> usize {
    // Truncating to usize keeps the low bits, which are all the mask uses.
    (slot_of(time) as usize) & (SLOTS - 1)
}

/// A pending event beyond the ring's horizon.
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A pending event in the ring: one node of its slot's list.
struct Node<E> {
    time: Time,
    /// Next node of the same slot, or of the free list.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
}

/// First and last node of one slot's list (`NIL` head: empty slot).
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// A discrete-event calendar.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed, which makes whole-simulation
/// runs reproducible.
///
/// Internally the calendar is a ring of 1,024 slots, each 65.5 ns wide,
/// starting at the slot of the last popped event. Each slot keeps a list
/// sorted by `(time, push order)`; a new event usually carries its slot's
/// latest time and is appended at the tail. An occupancy bitmap finds the
/// next non-empty slot. Events past the ring's 67 µs horizon wait in a
/// binary heap keyed by `(time, seq)` and move into the ring, still in
/// order, as pops advance the cursor. The observable pop order is that of
/// a single heap keyed by `(time, seq)`, which `tests::prop_matches_pure_heap`
/// checks operation by operation.
///
/// # Example
///
/// ```
/// use dsh_simcore::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(10), 'b');
/// q.push(Time::from_ns(10), 'c');
/// q.push(Time::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    slots: Box<[Slot; SLOTS]>,
    /// One bit per non-empty slot.
    occupied: [u64; WORDS],
    /// Storage of every ring event; freed nodes are reused before the slab
    /// grows, so a steady-state run never allocates.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// Events in the ring.
    ring_len: usize,
    /// Events at or past the horizon, `SLOTS` slots after the cursor's.
    far: BinaryHeap<Entry<E>>,
    /// Push order of far events, which is their tie-break at one instant.
    next_seq: u64,
    /// Time of the most recently popped event. Only a pop that returns an
    /// event moves it, so a push is never behind the ring's first slot.
    cursor: Time,
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar with room for `capacity` pending events
    /// before it reallocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            slots: Box::new([Slot { head: NIL, tail: NIL }; SLOTS]),
            occupied: [0; WORDS],
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            ring_len: 0,
            far: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            cursor: Time::ZERO,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the most recently popped event: the ring
    /// starts at that event's slot and cannot hold an earlier one.
    #[inline]
    pub fn push(&mut self, time: Time, event: E) {
        assert!(
            time >= self.cursor,
            "cannot push an event before the last popped instant ({time:?} < {:?})",
            self.cursor
        );
        if slot_of(time) < slot_of(self.cursor) + SLOTS as u64 {
            self.insert(time, event);
        } else {
            // A full tier grows to hold the whole calendar, so events moving
            // between the tiers (an RTO storm while the ring drains) only
            // reallocate once the calendar outgrows its population at that
            // tier's last growth.
            if self.far.len() == self.far.capacity() {
                self.far.reserve(self.ring_len + 1);
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.far.push(Entry { time, seq, event });
        }
    }

    /// Files `event` into its ring slot, behind every event of the slot at
    /// or before `time`.
    #[inline]
    fn insert(&mut self, time: Time, event: E) {
        let node = Node { time, next: NIL, event: Some(event) };
        let idx = if self.free == NIL {
            if self.nodes.len() == self.nodes.capacity() {
                // Every node is live: make room for the far events too, as
                // in `push`.
                self.nodes.reserve(self.far.len() + 1);
            }
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("ring holds fewer than 2^32 - 1 events");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.ring_len += 1;
        let pos = ring_pos(time);
        let slot = &mut self.slots[pos];
        if slot.head == NIL {
            *slot = Slot { head: idx, tail: idx };
            self.occupied[pos / 64] |= 1 << (pos % 64);
        } else if self.nodes[slot.tail as usize].time <= time {
            self.nodes[slot.tail as usize].next = idx;
            slot.tail = idx;
        } else if self.nodes[slot.head as usize].time > time {
            self.nodes[idx as usize].next = slot.head;
            slot.head = idx;
        } else {
            // Walk to the last node at or before `time`; the tail is later,
            // so the walk stops before the end of the list.
            let mut prev = slot.head as usize;
            loop {
                let next = self.nodes[prev].next as usize;
                if self.nodes[next].time > time {
                    break;
                }
                prev = next;
            }
            self.nodes[idx as usize].next = self.nodes[prev].next;
            self.nodes[prev].next = idx;
        }
    }

    /// Ring position of the earliest ring event, or `None` if the ring is
    /// empty (the far heap may still hold events).
    #[inline]
    fn front_pos(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let start = ring_pos(self.cursor);
        let word = start / 64;
        let bits = self.occupied[word] & (!0 << (start % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        // The later words, wrapping round to the cursor's own word, whose
        // bits from `start` on are known to be clear.
        (1..=WORDS).map(|i| (word + i) % WORDS).find_map(|w| {
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Removes and returns the earliest event if `take` accepts its time
    /// and payload; leaves the calendar and its cursor untouched otherwise.
    #[inline]
    fn pop_where(&mut self, take: impl FnOnce(Time, &E) -> bool) -> Option<(Time, E)> {
        let (time, event) = if let Some(pos) = self.front_pos() {
            let head = &self.nodes[self.slots[pos].head as usize];
            if !take(head.time, head.event.as_ref()?) {
                return None;
            }
            self.unlink_head(pos)
        } else {
            let top = self.far.peek()?;
            if !take(top.time, &top.event) {
                return None;
            }
            let e = self.far.pop()?;
            (e.time, e.event)
        };
        self.advance(time);
        Some((time, event))
    }

    /// Unlinks the first node of the slot at `pos` and frees it.
    #[inline]
    fn unlink_head(&mut self, pos: usize) -> (Time, E) {
        let slot = &mut self.slots[pos];
        let idx = slot.head;
        let node = &mut self.nodes[idx as usize];
        slot.head = node.next;
        if slot.head == NIL {
            self.occupied[pos / 64] &= !(1 << (pos % 64));
        }
        node.next = self.free;
        self.free = idx;
        self.ring_len -= 1;
        (node.time, node.event.take().expect("a linked node holds an event"))
    }

    /// Moves the cursor to `time`, the instant just popped, and brings the
    /// far events the horizon now reaches into the ring.
    #[inline]
    fn advance(&mut self, time: Time) {
        self.cursor = time;
        let horizon = slot_of(time) + SLOTS as u64;
        // The slots entering the ring were behind the popped event, so they
        // are empty and the in-order far events are appended at their tails.
        while self.far.peek().is_some_and(|top| slot_of(top.time) < horizon) {
            let e = self.far.pop().expect("peeked far event");
            self.insert(e.time, e.event);
        }
    }

    /// Removes and returns the earliest event, or `None` if the calendar is
    /// empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_where(|_, _| true)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`; leaves the calendar untouched otherwise.
    ///
    /// This is the run-loop primitive: one call replaces the
    /// `peek_time` + `pop` pair.
    #[inline]
    pub fn pop_before(&mut self, deadline: Time) -> Option<(Time, E)> {
        self.pop_where(|t, _| t <= deadline)
    }

    /// Removes and returns the earliest event if it fires strictly before
    /// `bound`; leaves the calendar untouched otherwise.
    ///
    /// This is the conservative-window primitive: a lookahead window
    /// `[start, stop)` is half-open, so the partition driver drains
    /// events with `pop_strictly_before(stop)` and leaves everything at
    /// `stop` itself for the next window (after cross-partition inboxes
    /// for that instant have been merged).
    #[inline]
    pub fn pop_strictly_before(&mut self, bound: Time) -> Option<(Time, E)> {
        self.pop_where(|t, _| t < bound)
    }

    /// Removes and returns the earliest event only if it fires at exactly
    /// `now` and satisfies `pred`; leaves the calendar untouched
    /// otherwise.
    ///
    /// This honors the full `(time, seq)` order — it pops the event that
    /// an ordinary [`EventQueue::pop`] would pop next, never one behind
    /// it — so a dispatcher can fuse an adjacent same-instant pair
    /// without perturbing the event order.
    #[inline]
    pub fn pop_current_if(&mut self, now: Time, pred: impl FnOnce(&E) -> bool) -> Option<E> {
        self.pop_where(|t, e| t == now && pred(e)).map(|(_, e)| e)
    }

    /// Returns the firing time of the earliest pending event.
    #[must_use]
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        match self.front_pos() {
            Some(pos) => Some(self.nodes[self.slots[pos].head as usize].time),
            None => self.far.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Whether the calendar has no pending events.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Delta;
    use proptest::prelude::*;

    /// One binary heap keyed by `(time, seq)`: the calendar's original
    /// implementation, kept as the ordering oracle for the equivalence
    /// property below.
    struct PureHeap<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> PureHeap<E> {
        fn new() -> Self {
            PureHeap { heap: BinaryHeap::new(), next_seq: 0 }
        }
        fn push(&mut self, time: Time, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }
        fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|e| e.time)
        }
        fn pop_where(&mut self, take: impl FnOnce(Time, &E) -> bool) -> Option<(Time, E)> {
            let top = self.heap.peek()?;
            if !take(top.time, &top.event) {
                return None;
            }
            self.heap.pop().map(|e| (e.time, e.event))
        }
        fn pop(&mut self) -> Option<(Time, E)> {
            self.pop_where(|_, _| true)
        }
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(Time, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((Time::from_ns(20), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_time_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(7), ());
        q.push(Time::from_ns(3), ());
        q.push(Time::from_ms(5), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
    }

    #[test]
    fn same_instant_pushes_pop_after_pending_events_at_that_instant() {
        // Events 1 and 2 are scheduled for t=10 before the clock gets
        // there; 3 and 4 are pushed at t=10 after 1 pops, so 2 (pushed
        // earlier) must still pop before them.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        q.push(Time::from_ns(10), 3);
        q.push(Time::from_ns(10), 4);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 2)));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 3)));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_cascade_is_fifo() {
        // A pause/resume-style cascade: every handler schedules a
        // follow-up at the current instant, behind a later event pushed
        // first into the same slot.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(5), 0);
        q.push(Time::from_ns(6), 100);
        let mut order = Vec::new();
        while let Some((t, i)) = q.pop() {
            order.push(i);
            if i < 50 {
                q.push(t, i + 1);
            }
        }
        let mut expected: Vec<_> = (0..=50).collect();
        expected.push(100);
        assert_eq!(order, expected);
    }

    #[test]
    fn out_of_order_pushes_into_one_slot_pop_sorted() {
        // All within one 65.5 ns slot: later times first, then earlier
        // ones and ties, so inserts land at the head, middle and tail.
        let mut q = EventQueue::new();
        for (ps, id) in [(900, 0), (500, 1), (100, 2), (500, 3), (900, 4), (700, 5), (50, 6)] {
            q.push(Time::from_ps(ps), id);
        }
        let ids: Vec<_> = drain(&mut q).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, [6, 2, 1, 3, 5, 0, 4]);
    }

    #[test]
    fn ring_wraps_around_many_times() {
        // A chain of events 10 µs apart for 340 µs of simulated time laps
        // the 67 µs ring five times; each step also schedules an event
        // just before the next step and one in the same slot as itself.
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0u64);
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push(t);
            if i < 100 && i % 3 == 0 {
                q.push(t + Delta::from_us(10), i + 3);
                q.push(t + Delta::from_us(10) - Delta::from_ps(1), i + 1);
                q.push(t + Delta::from_ps(2), i + 2);
            }
        }
        // 35 chain events (0, 3, ..., 102), two extra for each of the 34
        // below 100.
        assert_eq!(popped.len(), 35 + 2 * 34);
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "pops went backwards");
        assert_eq!(popped.last(), Some(&Time::from_us(340)));
    }

    #[test]
    fn far_events_migrate_into_the_ring_in_order() {
        let mut q = EventQueue::new();
        // Past the 67 µs horizon at push time: these start in the far heap.
        q.push(Time::from_us(150), "far-b");
        q.push(Time::from_us(100), "far-a");
        q.push(Time::from_us(150), "far-c");
        q.push(Time::MAX, "never-b");
        q.push(Time::MAX, "never-c");
        q.push(Time::from_us(1), "near");
        assert_eq!(q.pop(), Some((Time::from_us(1), "near")));
        // The ring is empty: the far heap's top pops directly, and the
        // cursor's jump pulls far-b and far-c (50 µs later) into the ring.
        assert_eq!(q.pop(), Some((Time::from_us(100), "far-a")));
        // A push at the same instant as migrated events queues behind them.
        q.push(Time::from_us(150), "near-d");
        q.push(Time::from_us(120), "near-e");
        q.push(Time::MAX, "never-d");
        assert_eq!(q.pop(), Some((Time::from_us(120), "near-e")));
        assert_eq!(q.pop(), Some((Time::from_us(150), "far-b")));
        assert_eq!(q.pop(), Some((Time::from_us(150), "far-c")));
        assert_eq!(q.pop(), Some((Time::from_us(150), "near-d")));
        assert_eq!(q.pop(), Some((Time::MAX, "never-b")));
        // At Time::MAX the horizon is past the end of time: later pushes
        // there go straight into the ring, still behind migrated events.
        q.push(Time::MAX, "never-e");
        let rest: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(rest, ["never-c", "never-d", "never-e"]);
    }

    #[test]
    fn cursor_moves_only_on_a_real_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(100), 0);
        assert_eq!(q.pop(), Some((Time::from_ns(100), 0)));
        // A refused pop in the ring, then a push between now and the front.
        q.push(Time::from_us(50), 1);
        assert_eq!(q.peek_time(), Some(Time::from_us(50)));
        assert_eq!(q.pop_before(Time::from_us(1)), None);
        assert_eq!(q.pop_strictly_before(Time::from_us(50)), None);
        assert_eq!(q.pop_current_if(Time::from_us(50), |_| false), None);
        q.push(Time::from_us(2), 2);
        // The same with the front in the far heap.
        q.push(Time::from_ms(1), 3);
        assert_eq!(q.pop(), Some((Time::from_us(2), 2)));
        assert_eq!(q.pop(), Some((Time::from_us(50), 1)));
        assert_eq!(q.pop_strictly_before(Time::from_ms(1)), None);
        q.push(Time::from_us(60), 4);
        q.push(Time::from_us(500), 5);
        let rest: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(rest, [4, 5, 3]);
    }

    #[test]
    #[should_panic(expected = "before the last popped instant")]
    fn push_before_the_last_popped_instant_panics() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), ());
        q.pop();
        q.push(Time::from_ps(9_999), ());
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        assert_eq!(q.pop_before(Time::from_ns(9)), None);
        assert_eq!(q.pop_before(Time::from_ns(10)), Some((Time::from_ns(10), 1)));
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop_before(Time::from_ns(9)), None);
        assert_eq!(q.pop_before(Time::from_ns(10)), Some((Time::from_ns(10), 2)));
        q.push(Time::from_ms(10), 3);
        assert_eq!(q.pop_before(Time::from_ms(9)), None);
        assert_eq!(q.pop_before(Time::MAX), Some((Time::from_ms(10), 3)));
        assert_eq!(q.pop_before(Time::MAX), None);
    }

    #[test]
    fn pop_strictly_before_is_exclusive() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        assert_eq!(q.pop_strictly_before(Time::from_ns(10)), None);
        assert_eq!(q.pop_strictly_before(Time::from_ns(11)), Some((Time::from_ns(10), 1)));
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop_strictly_before(Time::from_ns(10)), None);
        assert_eq!(q.pop_strictly_before(Time::from_ns(11)), Some((Time::from_ns(10), 2)));
        q.push(Time::from_ms(10), 3);
        assert_eq!(q.pop_strictly_before(Time::from_ms(10)), None);
        assert_eq!(q.pop_strictly_before(Time::MAX), Some((Time::from_ms(10), 3)));
        assert_eq!(q.pop_strictly_before(Time::MAX), None);
    }

    #[test]
    fn pop_current_if_only_takes_the_true_next_event() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(10), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
        // Next is 2; a predicate rejecting it must not skip ahead.
        assert_eq!(q.pop_current_if(Time::from_ns(10), |&e| e == 3), None);
        assert_eq!(q.pop_current_if(Time::from_ns(10), |&e| e == 2), Some(2));
        q.push(Time::from_ns(10), 4);
        assert_eq!(q.pop_current_if(Time::from_ns(9), |_| true), None, "wrong instant");
        assert_eq!(q.pop_current_if(Time::from_ns(10), |&e| e == 4), Some(4));
        // Future events never match the current instant.
        q.push(Time::from_ns(20), 5);
        assert_eq!(q.pop_current_if(Time::from_ns(10), |_| true), None);
        assert_eq!(q.pop(), Some((Time::from_ns(20), 5)));
    }

    proptest! {
        /// Popping always yields a nondecreasing time sequence, and events
        /// with equal times preserve insertion order.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_ns(t), i);
            }
            let mut last: Option<(Time, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li);
                    }
                }
                last = Some((t, i));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Event-trace equivalence against the pure-heap oracle: an
        /// arbitrary interleaving of pushes (at now, within a slot, within
        /// the ring, past its 67 µs horizon, in the slots either side of
        /// the horizon, and at the end of time) and of every pop
        /// primitive, accepting and refusing, produces the exact same
        /// trace from both implementations.
        #[test]
        fn prop_matches_pure_heap(
            ops in proptest::collection::vec((0u8..11, 0u64..50), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut oracle = PureHeap::new();
            let mut now = Time::ZERO;
            let mut next_id = 0u32;
            for (kind, delta) in ops {
                // Once the clock reaches the end-of-time events, pushes
                // saturate there instead of overflowing.
                let ahead = |ps: u64| Time::from_ps(now.as_ps().saturating_add(ps));
                // kinds 0-5 push, 6-10 pop.
                let push_at = match kind {
                    0 => Some(now),
                    1 => Some(ahead(delta * 1_000)),
                    2 => Some(ahead(delta * 100_000)),
                    3 => Some(ahead(delta * 3_000_000)),
                    4 => {
                        // The last ring slot, the first past the horizon,
                        // or the one after, at an offset within the slot.
                        let slot = (now.as_ps() >> SLOT_SHIFT) + SLOTS as u64 - 1 + delta % 3;
                        let ps = slot.saturating_mul(1 << SLOT_SHIFT).saturating_add(delta * 1_311);
                        Some(Time::from_ps(ps).max(now))
                    }
                    5 => Some(Time::from_ps(u64::MAX - delta).max(now)),
                    _ => None,
                };
                if let Some(at) = push_at {
                    q.push(at, next_id);
                    oracle.push(at, next_id);
                    next_id += 1;
                } else {
                    let bound = ahead(delta * 200_000);
                    let (a, b) = match kind {
                        6 | 7 => (q.pop(), oracle.pop()),
                        8 => (q.pop_before(bound), oracle.pop_where(|t, _| t <= bound)),
                        9 => (
                            q.pop_strictly_before(bound),
                            oracle.pop_where(|t, _| t < bound),
                        ),
                        _ => {
                            let accept = |&e: &u32| u64::from(e) % 2 == delta % 2;
                            (
                                q.pop_current_if(now, accept).map(|e| (now, e)),
                                oracle.pop_where(|t, e| t == now && accept(e)),
                            )
                        }
                    };
                    prop_assert_eq!(&a, &b);
                    match a {
                        Some((t, _)) => now = t,
                        // A refused pop must leave room to push anywhere
                        // from now up to the front.
                        None => {
                            if let Some(front) = oracle.peek_time() {
                                let at = now + (front - now) / 2;
                                q.push(at, next_id);
                                oracle.push(at, next_id);
                                next_id += 1;
                            }
                        }
                    }
                }
                prop_assert_eq!(q.len(), oracle.heap.len());
                prop_assert_eq!(q.peek_time(), oracle.peek_time());
            }
            // Drain both: the tails must match too.
            loop {
                let a = q.pop();
                let b = oracle.pop();
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
