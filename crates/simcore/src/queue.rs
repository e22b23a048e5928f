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
//!
//! The common cases (a push into an empty slot or behind its latest event,
//! a pop from the front slot) are inlined into the callers; an
//! out-of-order push, slab growth and the far heap are out of line.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of one ring slot as a power of two in picoseconds: 2^12 ps is
/// 4.1 ns, a 512-byte serialization at 100 Gb/s.
///
/// The slot width follows the measured occupancy. Fabric arrivals cluster
/// within a few nanoseconds, so a push often carries an earlier time than
/// its slot's latest event and walks the slot's list. With 2^16 ps
/// (65.5 ns) slots, 40% of the ring inserts of the benchmark's fig14 cells
/// walked, comparing 9.1 nodes each (fig17: 38%, 4.5 nodes; fig18: 6.7%,
/// 2.9 nodes). At 2^12 ps, 6.3% of fig14's inserts walk, 2.6 nodes each
/// (fig17: 3.5%, 1.6 nodes; fig18: 0.3%, 2.2 nodes).
const SLOT_SHIFT: u32 = 12;

/// Slots in the ring. At 4.1 ns a slot the ring looks 67 µs ahead, past
/// every serialization, propagation and PFC delay of the modelled fabrics,
/// while its heads and tails take 128 KB and its occupancy bitmap 2 KB.
const SLOTS: usize = 1 << 14;

// The horizon stays 2^26 ps (67 µs) whatever the slot width, so the far
// heap sees the same traffic.
const _: () = assert!((SLOTS as u64) << SLOT_SHIFT == 1 << 26);

/// Words of the occupancy bitmap, one bit per slot.
const WORDS: usize = SLOTS / 64;

/// End of the free list.
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
    /// Next node of the same slot (stale on the slot's tail), or of the
    /// free list.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
}

/// Why a node reached through a slot's list holds an event.
const LINKED: &str = "a linked node holds an event";

/// A discrete-event calendar.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed, which makes whole-simulation
/// runs reproducible.
///
/// Internally the calendar is a ring of 16,384 slots, each 4.1 ns wide,
/// starting at the slot of the last popped event. Each slot keeps a list
/// sorted by `(time, push order)`; a new event usually carries its slot's
/// latest time and is appended at the tail. An occupancy bitmap finds the
/// next non-empty slot and is the only record of which slots are empty.
/// Events past the ring's 67 µs horizon wait in a binary heap keyed by
/// `(time, seq)` and move into the ring, still in order, as pops advance
/// the cursor. The observable pop order is that of a single heap keyed by
/// `(time, seq)`, which `tests::prop_matches_pure_heap` checks operation
/// by operation.
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
    /// First and last node of each slot's list, as `[head, tail]`; stale
    /// unless the slot's `occupied` bit is set.
    slots: Box<[[u32; 2]; SLOTS]>,
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
        // Built on the heap (a zeroed allocation) rather than staged on
        // the stack; the zero heads and tails are never read before the
        // occupancy bitmap marks their slot.
        let slots = vec![[0; 2]; SLOTS]
            .into_boxed_slice()
            .try_into()
            .expect("a vector of SLOTS slots fits the array");
        EventQueue {
            slots,
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
            self.push_far(time, event);
        }
    }

    /// Queues `event` in the far heap, past the ring's horizon.
    #[inline(never)]
    fn push_far(&mut self, time: Time, event: E) {
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

    /// Files `event` into its ring slot, behind every event of the slot at
    /// or before `time`.
    #[inline(always)]
    fn insert(&mut self, time: Time, event: E) {
        if self.free == NIL {
            self.grow();
        }
        let idx = self.free;
        let node = &mut self.nodes[idx as usize];
        self.free = node.next;
        node.time = time;
        node.event = Some(event);
        self.ring_len += 1;
        let pos = ring_pos(time);
        let word = &mut self.occupied[pos / 64];
        let bit = 1 << (pos % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.slots[pos] = [idx, idx];
            return;
        }
        let tail = &mut self.slots[pos][1];
        let last = &mut self.nodes[*tail as usize];
        if last.time <= time {
            last.next = idx;
            *tail = idx;
        } else {
            self.link_out_of_order(pos, idx, time);
        }
    }

    /// Adds one node to the empty free list.
    #[inline(never)]
    fn grow(&mut self) {
        if self.nodes.len() == self.nodes.capacity() {
            // Every node is live: make room for the far events too, as in
            // `push_far`.
            self.nodes.reserve(self.far.len() + 1);
        }
        self.free = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("ring holds fewer than 2^32 - 1 events");
        self.nodes.push(Node { time: Time::ZERO, next: NIL, event: None });
    }

    /// Links node `idx` into the occupied slot at `pos`, whose latest event
    /// is later than `time`.
    #[inline(never)]
    fn link_out_of_order(&mut self, pos: usize, idx: u32, time: Time) {
        let head = &mut self.slots[pos][0];
        if self.nodes[*head as usize].time > time {
            self.nodes[idx as usize].next = *head;
            *head = idx;
            return;
        }
        // Walk to the last node at or before `time`; the tail is later, so
        // the walk stops before the end of the list.
        let mut prev = *head as usize;
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

    /// Ring position of the earliest ring event, or `None` if the ring is
    /// empty (the far heap may still hold events).
    #[inline(always)]
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
        self.scan_from(word)
    }

    /// Ring position of the first occupied slot in the words after `word`,
    /// wrapping round to `word` itself, whose bits from the cursor on are
    /// known to be clear.
    #[inline(never)]
    fn scan_from(&self, word: usize) -> Option<usize> {
        (1..=WORDS).map(|i| (word + i) % WORDS).find_map(|w| {
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Removes and returns the earliest event if `take` accepts its time
    /// and payload; leaves the calendar and its cursor untouched otherwise.
    #[inline(always)]
    fn pop_where(&mut self, take: impl FnOnce(Time, &E) -> bool) -> Option<(Time, E)> {
        let Some(pos) = self.front_pos() else {
            return self.pop_far_where(take);
        };
        let [head, tail] = self.slots[pos];
        let node = &mut self.nodes[head as usize];
        let time = node.time;
        if !take(time, node.event.as_ref().expect(LINKED)) {
            return None;
        }
        let event = node.event.take().expect(LINKED);
        if head == tail {
            self.occupied[pos / 64] &= !(1 << (pos % 64));
        } else {
            self.slots[pos][0] = node.next;
        }
        node.next = self.free;
        self.free = head;
        self.ring_len -= 1;
        self.advance(time);
        Some((time, event))
    }

    /// [`EventQueue::pop_where`] with the ring empty: the front, if any, is
    /// the far heap's top.
    #[inline(never)]
    fn pop_far_where(&mut self, take: impl FnOnce(Time, &E) -> bool) -> Option<(Time, E)> {
        let top = self.far.peek()?;
        if !take(top.time, &top.event) {
            return None;
        }
        let Entry { time, event, .. } = self.far.pop()?;
        self.advance(time);
        Some((time, event))
    }

    /// Moves the cursor to `time`, the instant just popped, and brings the
    /// far events the horizon now reaches into the ring.
    #[inline(always)]
    fn advance(&mut self, time: Time) {
        self.cursor = time;
        if self.far.peek().is_some_and(|top| slot_of(top.time) < slot_of(time) + SLOTS as u64) {
            self.migrate();
        }
    }

    /// Moves every far event inside the cursor's horizon into the ring.
    #[cold]
    #[inline(never)]
    fn migrate(&mut self) {
        let horizon = slot_of(self.cursor) + SLOTS as u64;
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
    #[inline(always)]
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
    #[inline(always)]
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
            Some(pos) => Some(self.nodes[self.slots[pos][0] as usize].time),
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
        // All within one 4.1 ns slot: later times first, then earlier
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
    fn slot_reused_after_a_lap_holds_no_stale_list() {
        let lap = Delta::from_ps((SLOTS as u64) << SLOT_SHIFT);
        let t0 = Time::from_ps(5 << SLOT_SHIFT);
        let pos = ring_pos(t0);
        let mut q = EventQueue::new();
        // Fill one slot with a three-event list and pop it empty.
        for i in 0..3 {
            q.push(t0 + Delta::from_ps(i), i);
        }
        assert_eq!(drain(&mut q).len(), 3);
        // Step the cursor half a lap on, so one lap after t0 is in the ring.
        q.push(t0 + lap / 2, 99);
        assert_eq!(q.pop(), Some((t0 + lap / 2, 99)));
        // The same ring position takes a fresh list: a first event, an
        // earlier one at the head and a later one at the tail.
        q.push(t0 + lap + Delta::from_ps(1), 10);
        q.push(t0 + lap, 11);
        q.push(t0 + lap + Delta::from_ps(2), 12);
        let [head, tail] = q.slots[pos];
        assert_eq!(q.nodes[head as usize].event, Some(11));
        assert_eq!(q.nodes[tail as usize].event, Some(12));
        let ids: Vec<_> = drain(&mut q).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, [11, 10, 12]);
        assert_eq!(q.occupied, [0; WORDS], "an emptied slot keeps its bit");
        assert_eq!(q.nodes.len(), 3, "freed nodes are reused");
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

    /// The calendar and its oracle side by side, fed one operation stream.
    struct Pair {
        q: EventQueue<u32>,
        oracle: PureHeap<u32>,
        now: Time,
        next_id: u32,
    }

    impl Pair {
        fn new() -> Self {
            Pair { q: EventQueue::new(), oracle: PureHeap::new(), now: Time::ZERO, next_id: 0 }
        }

        /// `ps` picoseconds after now; once the clock reaches the
        /// end-of-time events, pushes saturate there instead of overflowing.
        fn ahead(&self, ps: u64) -> Time {
            Time::from_ps(self.now.as_ps().saturating_add(ps))
        }

        fn push(&mut self, at: Time) {
            self.q.push(at, self.next_id);
            self.oracle.push(at, self.next_id);
            self.next_id += 1;
        }

        /// Pops through primitive `kind` (6-10, accepting or refusing as
        /// `delta` decides) from both and checks they agree.
        fn pop(&mut self, kind: u8, delta: u64) {
            let now = self.now;
            let bound = self.ahead(delta * 200_000);
            let (a, b) = match kind {
                6 | 7 => (self.q.pop(), self.oracle.pop()),
                8 => (self.q.pop_before(bound), self.oracle.pop_where(|t, _| t <= bound)),
                9 => (self.q.pop_strictly_before(bound), self.oracle.pop_where(|t, _| t < bound)),
                _ => {
                    let accept = |&e: &u32| u64::from(e) % 2 == delta % 2;
                    (
                        self.q.pop_current_if(now, accept).map(|e| (now, e)),
                        self.oracle.pop_where(|t, e| t == now && accept(e)),
                    )
                }
            };
            assert_eq!(a, b);
            match a {
                Some((t, _)) => self.now = t,
                // A refused pop must leave room to push anywhere from now
                // up to the front.
                None => {
                    if let Some(front) = self.oracle.peek_time() {
                        self.push(now + (front - now) / 2);
                    }
                }
            }
        }

        fn check(&self) {
            assert_eq!(self.q.len(), self.oracle.heap.len());
            assert_eq!(self.q.peek_time(), self.oracle.peek_time());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Event-trace equivalence against the pure-heap oracle: an
        /// arbitrary interleaving of pushes (at now, within a slot, within
        /// the ring, past its 67 µs horizon, in the slots either side of
        /// the horizon, at the end of time, and in dense bursts) and of
        /// every pop primitive, accepting and refusing, produces the exact
        /// same trace from both implementations.
        #[test]
        fn prop_matches_pure_heap(
            ops in proptest::collection::vec((0u8..12, 0u64..50), 1..400)
        ) {
            let mut p = Pair::new();
            for (kind, delta) in ops {
                let now = p.now;
                // kinds 0-5 push, 6-10 pop, 11 pushes a burst.
                match kind {
                    0 => p.push(now),
                    1 => p.push(p.ahead(delta * 1_000)),
                    2 => p.push(p.ahead(delta * 100_000)),
                    3 => p.push(p.ahead(delta * 3_000_000)),
                    4 => {
                        // The last ring slot, the first past the horizon,
                        // or the one after, at an offset within the slot.
                        let slot = (now.as_ps() >> SLOT_SHIFT) + SLOTS as u64 - 1 + delta % 3;
                        let ps = slot.saturating_mul(1 << SLOT_SHIFT).saturating_add(delta * 1_311);
                        p.push(Time::from_ps(ps).max(now));
                    }
                    5 => p.push(Time::from_ps(u64::MAX - delta).max(now)),
                    6..=10 => p.pop(kind, delta),
                    _ => {
                        // A dense burst, the shape of a fabric's clustered
                        // arrivals: 50-491 pushes inside the 65.5 ns window
                        // (sixteen ring slots) holding now or the next one,
                        // latest first in groups of one to four ties, with
                        // every pop primitive in turn after each 37 pushes.
                        let n = 50 + delta * 9;
                        let ties = 1 + delta % 4;
                        let window = ((now.as_ps() >> 16) + delta % 2) << 16;
                        for i in 0..n {
                            let offset = (n - 1 - i) / ties * ties * 65_535 / n;
                            p.push(Time::from_ps(window.saturating_add(offset)).max(p.now));
                            if i % 37 == 36 {
                                p.pop(6 + (i / 37 % 5) as u8, delta);
                            }
                        }
                    }
                }
                p.check();
            }
            // Drain both: the tails must match too.
            loop {
                let a = p.q.pop();
                let b = p.oracle.pop();
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
