//! The event calendar: a calendar queue (Brown, CACM 1988) that sizes
//! itself, with deterministic FIFO tie-breaking.
//!
//! A packet-level fabric keeps from a hundred to a hundred thousand events
//! pending, nearly all of them a few microseconds ahead: a `TxDone` one
//! serialization time out, an `Arrive` one serialization plus one
//! propagation delay out. The calendar files each such event into a ring
//! slot by its time, so a push or a pop costs O(1) where a binary heap
//! pays O(log n) sifts. An event beyond the ring's horizon (a flow start
//! seeded at set-up, an RTO) waits in a small heap until the ring reaches
//! it.
//!
//! The ring follows what it holds, as Brown's does. Once the number of
//! pending events has doubled since the last resize, or fallen to a
//! quarter, the ring is rebuilt with four to eight slots per event, each
//! about half as wide as the spacing of the events in the calendar's front
//! half, so a push that lands before its slot's latest event seldom
//! compares more than one node. A ring whose pushes compare more than a
//! quarter node each, or more than half of whose pushes land past its
//! horizon (the spacing changed while the population held), is refitted
//! the same way. A resize relinks the pending events in place and
//! allocates only when the ring outgrows every size it had before, so a
//! run at a steady population allocates nothing.
//!
//! The common cases (a push into an empty slot or behind its latest event,
//! a pop from the cursor's word of the occupancy bitmap) are inlined into
//! the callers and test nothing else. An out-of-order push, slab growth,
//! the far heap and resizes are out of line, and so are the population
//! checks: growth is checked on the pushes that go past the horizon or
//! need a new node, and both growth and shrinkage when a pop finds the
//! rest of the cursor's bitmap word empty.
//!
//! Every event carries a sequence number, its place among the events of
//! one instant. A push takes the next number; a caller may also reserve a
//! number now and push the event for it later
//! ([`EventQueue::reserve_seq`], [`EventQueue::push_reserved`]), so an
//! event that turns out to be needed only after other pushes still pops
//! where it would have popped had it been pushed at reservation time.

use crate::time::Time;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Fewest slots in the ring (8 KiB of heads and tails). A calendar this
/// small does not resize for its population until it holds half as many
/// events: the pending set of fig18_cascade's incast swings between 15
/// and 135 events, and a 64-slot floor resized it 30 times a simulation.
const MIN_SLOTS: usize = 1024;

/// Slot width of a new calendar as a power of two in picoseconds: 2^16 ps
/// (65.5 ns), so its 1,024 slots reach 67 µs ahead until a resize
/// measures the spacing of real events.
const INITIAL_SHIFT: u32 = 16;

/// End of the free list.
const NIL: u32 = u32::MAX;

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
    seq: u64,
    /// Next node of the same slot (stale on the slot's tail), or of the
    /// free list.
    next: u32,
    /// `None` while the node is on the free list.
    event: Option<E>,
}

/// Why a node reached through a slot's list holds an event.
const LINKED: &str = "a linked node holds an event";

/// The ring's `[head, tail]` per slot, on the heap.
///
/// A dropped calendar parks its table in a thread-local, freeing the one
/// parked before. Dropping a simulation frees everything it allocated.
/// With glibc, once that leaves more than the trim threshold free at the
/// top of the heap (twice the largest mapped block freed so far), `free`
/// returns those pages to the kernel and the next simulation's set-up
/// faults them in again: simbench's fig18_cascade set-up took 40 µs
/// instead of 17 once frames stopped living in individual boxes, some of
/// which glibc had kept cached at the top of the heap. The parked table,
/// allocated when the ring last grew, stays live above the buffers
/// allocated before it, so the heap keeps their pages. It is never read
/// again.
struct SlotTable(Vec<[u32; 2]>);

thread_local! {
    /// The table of the calendar this thread dropped last.
    static PARKED: Cell<Vec<[u32; 2]>> = const { Cell::new(Vec::new()) };
}

impl Drop for SlotTable {
    fn drop(&mut self) {
        let table = std::mem::take(&mut self.0);
        // Past thread-local teardown the table is simply freed.
        let _ = PARKED.try_with(|parked| parked.set(table));
    }
}

/// A discrete-event calendar.
///
/// Events pop in `(time, seq)` order. A push takes the next sequence
/// number, so events scheduled for the same instant pop in the order they
/// were pushed, which makes whole-simulation runs reproducible; an event
/// pushed into a reserved place pops where its sequence number puts it.
///
/// Internally the calendar is a ring of a power-of-two number of slots,
/// each a power-of-two number of picoseconds wide, starting at the slot of
/// the last popped event; both powers follow the pending events (see the
/// module docs). Each slot keeps a list sorted by `(time, seq)`; a new
/// event usually carries its slot's latest time and the largest sequence
/// number and is appended at the tail. An occupancy bitmap finds the next
/// non-empty slot and is the only record of which slots are empty. Events
/// past the ring's horizon wait in a binary heap keyed by `(time, seq)`
/// and move into the ring, still in order, as pops advance the cursor. The
/// observable pop order is that of a single heap keyed by `(time, seq)`,
/// which `tests::prop_matches_pure_heap` checks operation by operation.
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
    /// unless the slot's `occupied` bit is set. Its length, a power of
    /// two, is the ring's slot count.
    slots: SlotTable,
    /// One bit per non-empty slot.
    occupied: Vec<u64>,
    /// Slot width as a power of two in picoseconds.
    shift: u32,
    /// Absolute number of the first slot past the ring: the cursor's slot
    /// plus the slot count.
    horizon: u64,
    /// Ring position of the cursor's slot.
    cursor_pos: usize,
    /// Storage of every ring event; freed nodes are reused before the slab
    /// grows, so a steady-state run never allocates.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// Events in the ring.
    ring_len: usize,
    /// Events at or past the horizon.
    far: BinaryHeap<Entry<E>>,
    /// Next sequence number to hand out. Numbers start at 1, so the
    /// current place `(0, 0)` of a calendar that has popped nothing is
    /// before every event.
    next_seq: u64,
    /// Time of the most recently popped event. Only a pop that returns an
    /// event moves it, so a push is never behind the ring's first slot.
    cursor: Time,
    /// Sequence number of the most recently popped event: with `cursor`,
    /// the place of the event being handled.
    current_seq: u64,
    /// Pending events above which the ring is resized: twice the count
    /// at the last resize, and at least half the fewest slots.
    grow_at: usize,
    /// Pending events below which the ring is resized: a quarter of the
    /// count at the last resize, or 0 while the ring has its fewest slots.
    shrink_at: usize,
    /// Nodes compared by out-of-order inserts so far.
    walk_steps: u64,
    /// `next_seq` at the last resize: pushes since then are the sequence
    /// numbers handed out after it.
    resized_seq: u64,
    /// Nodes compared by out-of-order inserts since the last resize.
    walked: u64,
    /// Pushes into the far heap since the last resize.
    far_pushes: u64,
    /// Rebuilds of the ring so far.
    #[cfg(test)]
    resizes: u32,
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar with room for `capacity` pending events
    /// before its node slab and far heap reallocate.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            // The heads and tails are never read before the occupancy
            // bitmap marks their slot.
            slots: SlotTable(vec![[NIL; 2]; MIN_SLOTS]),
            occupied: vec![0; MIN_SLOTS / 64],
            shift: INITIAL_SHIFT,
            horizon: MIN_SLOTS as u64,
            cursor_pos: 0,
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            ring_len: 0,
            far: BinaryHeap::with_capacity(capacity),
            next_seq: 1,
            cursor: Time::ZERO,
            current_seq: 0,
            grow_at: MIN_SLOTS / 2,
            shrink_at: 0,
            walk_steps: 0,
            resized_seq: 1,
            walked: 0,
            far_pushes: 0,
            #[cfg(test)]
            resizes: 0,
        }
    }

    /// Absolute slot number of `time` (not wrapped onto the ring).
    #[inline(always)]
    fn slot_of(&self, time: Time) -> u64 {
        time.as_ps() >> self.shift
    }

    /// Ring position of absolute slot `slot`.
    #[inline(always)]
    fn ring_pos(&self, slot: u64) -> usize {
        // Truncating to usize keeps the low bits, which are all the mask
        // uses.
        (slot as usize) & (self.slots.0.len() - 1)
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
        let seq = self.reserve_seq();
        self.place(time, seq, event);
    }

    /// Hands out the next sequence number without pushing an event: the
    /// place an event pushed now at any time would take. Push the event
    /// for it later with [`EventQueue::push_reserved`], or never.
    ///
    /// # Example
    ///
    /// ```
    /// use dsh_simcore::{EventQueue, Time};
    /// let mut q = EventQueue::new();
    /// let early = q.reserve_seq();
    /// q.push(Time::from_ns(5), 'b');
    /// q.push_reserved(Time::from_ns(5), early, 'a');
    /// assert_eq!(q.pop(), Some((Time::from_ns(5), 'a')));
    /// ```
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `time` in the place `seq` that
    /// [`EventQueue::reserve_seq`] handed out: among the events of `time`
    /// it pops as if it had been pushed when `seq` was reserved.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never handed out, or if `(time, seq)` is not
    /// after the place of the most recently popped event.
    #[inline]
    pub fn push_reserved(&mut self, time: Time, seq: u64, event: E) {
        assert!(seq != 0 && seq < self.next_seq, "sequence number {seq} was never reserved");
        assert!(
            (time, seq) > (self.cursor, self.current_seq),
            "cannot push a reserved event before the current one ({time:?}, {seq}) <= ({:?}, {})",
            self.cursor,
            self.current_seq
        );
        self.place(time, seq, event);
    }

    /// Files `event` into the ring, or into the far heap if `time` is
    /// past the ring's horizon.
    #[inline(always)]
    fn place(&mut self, time: Time, seq: u64, event: E) {
        let slot = self.slot_of(time);
        if slot < self.horizon && self.free != NIL {
            self.insert(self.ring_pos(slot), time, seq, event);
        } else {
            self.place_slow(slot, time, seq, event);
        }
    }

    /// [`EventQueue::place`] for an event past the horizon or with no free
    /// node left: the pushes that can raise the population past any it
    /// had. Resizes the ring once the calendar holds twice the events it
    /// held at the last resize, or once more than half the pushes (plus
    /// one per slot) since then have gone past its horizon.
    #[inline(never)]
    fn place_slow(&mut self, slot: u64, time: Time, seq: u64, event: E) {
        if slot < self.horizon {
            self.insert(self.ring_pos(slot), time, seq, event);
        } else {
            // A full tier grows to hold the whole calendar, so events
            // moving between the tiers (an RTO storm while the ring
            // drains) only reallocate once the calendar outgrows its
            // population at that tier's last growth.
            if self.far.len() == self.far.capacity() {
                self.far.reserve(self.ring_len + 1);
            }
            self.far.push(Entry { time, seq, event });
            self.far_pushes += 1;
        }
        if self.len() > self.grow_at || 2 * self.far_pushes > self.pushes_since_resize() {
            self.resize();
        }
    }

    /// Sequence numbers handed out since the last resize, plus one per
    /// slot: the work a rebuild of the ring is paid for against.
    #[inline]
    fn pushes_since_resize(&self) -> u64 {
        self.next_seq - self.resized_seq + self.slots.0.len() as u64
    }

    /// Files `event` into its ring slot, at ring position `pos`, behind
    /// every event of the slot before `(time, seq)`.
    #[inline(always)]
    fn insert(&mut self, pos: usize, time: Time, seq: u64, event: E) {
        if self.free == NIL {
            self.grow();
        }
        let idx = self.free;
        let node = &mut self.nodes[idx as usize];
        self.free = node.next;
        node.time = time;
        node.seq = seq;
        node.event = Some(event);
        self.ring_len += 1;
        self.link(idx, pos, (time, seq));
    }

    /// Links node `idx`, whose `(time, seq)` is `key`, into the list of
    /// its slot, at ring position `pos`.
    #[inline(always)]
    fn link(&mut self, idx: u32, pos: usize, key: (Time, u64)) {
        let word = &mut self.occupied[pos / 64];
        let bit = 1 << (pos % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.slots.0[pos] = [idx, idx];
            return;
        }
        let tail = &mut self.slots.0[pos][1];
        let last = &mut self.nodes[*tail as usize];
        if (last.time, last.seq) < key {
            last.next = idx;
            *tail = idx;
        } else {
            self.link_out_of_order(pos, idx, key);
        }
    }

    /// Adds one node to the empty free list.
    #[inline(never)]
    fn grow(&mut self) {
        if self.nodes.len() == self.nodes.capacity() {
            // Every node is live: make room for the far events too, as
            // `place_slow` does for the far heap.
            self.nodes.reserve(self.far.len() + 1);
        }
        self.free = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("ring holds fewer than 2^32 - 1 events");
        self.nodes.push(Node { time: Time::ZERO, seq: 0, next: NIL, event: None });
    }

    /// Links node `idx` into the occupied slot at `pos`, whose latest event
    /// is after `key`, the node's `(time, seq)`, counting the nodes it
    /// compares; refits the ring once inserts have compared more than a
    /// quarter node per push (plus one per slot) since the last resize.
    #[inline(never)]
    fn link_out_of_order(&mut self, pos: usize, idx: u32, key: (Time, u64)) {
        let after = |n: &Node<E>| (n.time, n.seq) > key;
        let head = &mut self.slots.0[pos][0];
        let mut steps = 1;
        if after(&self.nodes[*head as usize]) {
            self.nodes[idx as usize].next = *head;
            *head = idx;
        } else {
            // Walk to the last node before `key`; the tail is after it, so
            // the walk stops before the end of the list.
            let mut prev = *head as usize;
            loop {
                let next = self.nodes[prev].next as usize;
                steps += 1;
                if after(&self.nodes[next]) {
                    break;
                }
                prev = next;
            }
            self.nodes[idx as usize].next = self.nodes[prev].next;
            self.nodes[prev].next = idx;
        }
        self.walk_steps += steps;
        self.walked += steps;
        if 4 * self.walked > self.pushes_since_resize() {
            self.resize();
        }
    }

    /// Nodes compared so far by pushes that landed before their slot's
    /// latest event: the calendar's deterministic cost counter. An insert
    /// into an empty slot or behind its latest event compares none.
    #[must_use]
    pub fn walk_steps(&self) -> u64 {
        self.walk_steps
    }

    /// Rebuilds the ring for the events pending now: four to eight slots
    /// per event, as wide as [`fit_shift`] finds their spacing calls for.
    /// Every event keeps its `(time, seq)`, so the pop order does not
    /// change.
    #[cold]
    #[inline(never)]
    fn resize(&mut self) {
        let n = self.len();
        // Chain the ring's lists into one, in (time, seq) order: the ring
        // holds one lap from the cursor's slot, so ring order from there
        // is time order.
        let (mut head, mut tail) = (NIL, NIL);
        let words = self.occupied.len();
        let start = self.ring_pos(self.slot_of(self.cursor));
        let from_start = !0u64 << (start % 64);
        for i in 0..=words {
            let w = (start / 64 + i) % words;
            let mut bits = match i {
                0 => self.occupied[w] & from_start,
                _ if i == words => self.occupied[w] & !from_start,
                _ => self.occupied[w],
            };
            while bits != 0 {
                let [h, t] = self.slots.0[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                if head == NIL {
                    head = h;
                } else {
                    self.nodes[tail as usize].next = h;
                }
                tail = t;
            }
        }
        // The far events, latest first.
        let mut far = std::mem::take(&mut self.far).into_sorted_vec();
        let ring = self.ring_len;
        let mut idx = head;
        let ring_times = std::iter::from_fn(|| {
            let node = &self.nodes[idx as usize];
            idx = node.next;
            Some(node.time)
        });
        let times = ring_times.take(ring).chain(far.iter().rev().map(|e| e.time));
        let slots = (4 * n).next_power_of_two().max(MIN_SLOTS);
        let shift = fit_shift(times.take(n / 2 + 1), self.cursor, slots).unwrap_or(self.shift);
        // A ring that already fits is left as it is: chaining its lists
        // wrote only the tails' stale links.
        if (shift, slots) != (self.shift, self.slots.0.len()) {
            self.shift = shift;
            self.refile(head, slots, &mut far);
        }
        self.far = BinaryHeap::from(far);
        self.grow_at = (2 * n).max(MIN_SLOTS / 2);
        // A fabric's pending set swings with its pause cycles, and a ring
        // with spare slots costs little: shrink only once a quarter of
        // the events remain.
        self.shrink_at = if slots > MIN_SLOTS { n / 4 } else { 0 };
        self.resized_seq = self.next_seq;
        self.walked = 0;
        self.far_pushes = 0;
    }

    /// Rebuilds the ring with `slots` slots of the current width from
    /// `head`, the ring's events chained in order, and `far`, the far
    /// events latest first.
    fn refile(&mut self, head: u32, slots: usize, far: &mut Vec<Entry<E>>) {
        let (ring, walk_steps) = (self.ring_len, self.walk_steps);
        #[cfg(test)]
        {
            self.resizes += 1;
        }
        self.slots.0.resize(slots, [NIL; 2]);
        self.occupied.clear();
        self.occupied.resize(slots / 64, 0);
        self.horizon = self.slot_of(self.cursor).saturating_add(slots as u64);
        self.cursor_pos = self.ring_pos(self.slot_of(self.cursor));
        // Refile the ring's events in order, so each goes behind its
        // slot's latest; those past a nearer horizon join the far events.
        let mut idx = head;
        for _ in 0..ring {
            let node = &self.nodes[idx as usize];
            let (next, key) = (node.next, (node.time, node.seq));
            let slot = self.slot_of(key.0);
            if slot < self.horizon {
                self.link(idx, self.ring_pos(slot), key);
            } else {
                let node = &mut self.nodes[idx as usize];
                let event = node.event.take().expect(LINKED);
                node.next = self.free;
                self.free = idx;
                self.ring_len -= 1;
                far.push(Entry { time: key.0, seq: key.1, event });
            }
            idx = next;
        }
        // The far events a further horizon reaches follow, earliest first.
        while far.last().is_some_and(|e| self.slot_of(e.time) < self.horizon) {
            let Entry { time, seq, event } = far.pop().expect("checked far event");
            self.insert(self.ring_pos(self.slot_of(time)), time, seq, event);
        }
        debug_assert_eq!(self.walk_steps, walk_steps, "a resize refiles in order");
    }

    /// Ring position of the earliest ring event if it is in the cursor's
    /// word of the occupancy bitmap.
    #[inline(always)]
    fn front_in_word(&self) -> Option<usize> {
        let word = self.cursor_pos / 64;
        let bits = self.occupied[word] & (!0 << (self.cursor_pos % 64));
        (bits != 0).then(|| word * 64 + bits.trailing_zeros() as usize)
    }

    /// Ring position of the earliest ring event, or `None` if the ring is
    /// empty (the far heap may still hold events).
    #[inline(always)]
    fn front_pos(&self) -> Option<usize> {
        self.front_in_word().or_else(|| (self.ring_len != 0).then(|| self.scan_from()).flatten())
    }

    /// [`EventQueue::front_pos`] for a pop that found the cursor's word
    /// empty, roughly once per 64 slots the cursor passes: resizes the
    /// ring first once more than twice, or fewer than a quarter, of the
    /// events pending at the last resize are pending.
    #[inline(never)]
    fn front_past_word(&mut self) -> Option<usize> {
        let n = self.len();
        if n > self.grow_at || n < self.shrink_at {
            self.resize();
            return self.front_pos();
        }
        (self.ring_len != 0).then(|| self.scan_from()).flatten()
    }

    /// Ring position of the first occupied slot in the words after the
    /// cursor's, wrapping round to the cursor's word itself, whose bits
    /// from the cursor on are known to be clear.
    #[inline(never)]
    fn scan_from(&self) -> Option<usize> {
        let (word, words) = (self.cursor_pos / 64, self.occupied.len());
        (1..=words).map(|i| (word + i) % words).find_map(|w| {
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// Removes and returns the earliest event if `take` accepts its time
    /// and payload; leaves the calendar and its cursor untouched otherwise.
    #[inline(always)]
    fn pop_where(&mut self, take: impl FnOnce(Time, &E) -> bool) -> Option<(Time, E)> {
        let Some(pos) = self.front_in_word().or_else(|| self.front_past_word()) else {
            return self.pop_far_where(take);
        };
        let [head, tail] = self.slots.0[pos];
        let node = &mut self.nodes[head as usize];
        let (time, seq) = (node.time, node.seq);
        if !take(time, node.event.as_ref().expect(LINKED)) {
            return None;
        }
        let event = node.event.take().expect(LINKED);
        if head == tail {
            self.occupied[pos / 64] &= !(1 << (pos % 64));
        } else {
            self.slots.0[pos][0] = node.next;
        }
        node.next = self.free;
        self.free = head;
        self.ring_len -= 1;
        self.advance(time, seq);
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
        let Entry { time, seq, event } = self.far.pop()?;
        self.advance(time, seq);
        Some((time, event))
    }

    /// Moves the current place to `(time, seq)`, the event just popped,
    /// and brings the far events the horizon now reaches into the ring.
    #[inline(always)]
    fn advance(&mut self, time: Time, seq: u64) {
        self.cursor = time;
        self.current_seq = seq;
        let slot = self.slot_of(time);
        self.horizon = slot.saturating_add(self.slots.0.len() as u64);
        self.cursor_pos = self.ring_pos(slot);
        if self.far.peek().is_some_and(|top| self.slot_of(top.time) < self.horizon) {
            self.migrate();
        }
    }

    /// Moves every far event inside the cursor's horizon into the ring.
    #[cold]
    #[inline(never)]
    fn migrate(&mut self) {
        // The slots entering the ring were behind the popped event, so they
        // are empty and the in-order far events are appended at their tails.
        while self.far.peek().is_some_and(|top| self.slot_of(top.time) < self.horizon) {
            let e = self.far.pop().expect("peeked far event");
            self.insert(self.ring_pos(self.slot_of(e.time)), e.time, e.seq, e.event);
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

    /// Sequence number of the most recently popped event (0 before the
    /// first pop): with its time, the place of the event being handled.
    #[must_use]
    #[inline]
    pub fn current_seq(&self) -> u64 {
        self.current_seq
    }

    /// Returns the firing time of the earliest pending event.
    #[must_use]
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        match self.front_pos() {
            Some(pos) => Some(self.nodes[self.slots.0[pos][0] as usize].time),
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

/// Slot width, as a power of two in picoseconds, for a ring of `slots`
/// slots whose cursor is at `cursor` and whose front events have the
/// nondecreasing `times`; `None` if they hold fewer than two instants.
///
/// Two events share a slot of width 2^s exactly when the highest bit in
/// which their times differ is below `s`. The width is the widest at which
/// at most a quarter of the pairs of consecutive distinct times share a
/// slot: for evenly random times that is 0.3 to 0.6 times their mean
/// spacing, about one event per two slots. It is widened, if need be,
/// until the ring reaches twice as far past the cursor as the last of
/// `times`, so a dense cluster at the front cannot pull the horizon in
/// front of the events behind it.
fn fit_shift(times: impl Iterator<Item = Time>, cursor: Time, slots: usize) -> Option<u32> {
    let mut highest_bit = [0u32; 64];
    let mut pairs = 0;
    let mut last: Option<u64> = None;
    for t in times.map(Time::as_ps) {
        if let Some(prev) = last.filter(|&p| p != t) {
            highest_bit[63 - (prev ^ t).leading_zeros() as usize] += 1;
            pairs += 1;
        }
        last = Some(t);
    }
    if pairs == 0 {
        return None;
    }
    let mut shift = 0;
    let mut shared = 0;
    while shared + highest_bit[shift] <= pairs / 4 {
        shared += highest_bit[shift];
        shift += 1;
    }
    let reach = last.map_or(0, |t| t - cursor.as_ps()).saturating_mul(2);
    while reach >> shift >= slots as u64 {
        shift += 1;
    }
    Some(shift as u32)
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
            PureHeap { heap: BinaryHeap::new(), next_seq: 1 }
        }
        fn reserve(&mut self) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            seq
        }
        fn push(&mut self, time: Time, event: E) {
            let seq = self.reserve();
            self.push_at(time, seq, event);
        }
        fn push_at(&mut self, time: Time, seq: u64, event: E) {
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

    impl<E> EventQueue<E> {
        /// Slot count and slot width in picoseconds.
        fn geometry(&self) -> (usize, u64) {
            (self.slots.0.len(), 1 << self.shift)
        }

        /// Simulated time one lap of the ring spans.
        fn lap(&self) -> Delta {
            let (slots, width) = self.geometry();
            Delta::from_ps(slots as u64 * width)
        }
    }

    #[test]
    fn a_dropped_calendar_parks_its_slot_table_until_the_next_drop() {
        let parked = || {
            PARKED.with(|p| {
                let t = p.take();
                let at = (t.as_ptr() as usize, t.len());
                p.set(t);
                at
            })
        };
        let (mut a, b) = (EventQueue::new(), EventQueue::<u32>::new());
        // A grown table is parked whole.
        for i in 0..1_000 {
            a.push(Time::from_ns(i), i as u32);
        }
        assert!(a.geometry().0 > MIN_SLOTS, "1,000 events grow the ring");
        let ta = (a.slots.0.as_ptr() as usize, a.slots.0.len());
        let tb = (b.slots.0.as_ptr() as usize, b.slots.0.len());
        drop(a);
        assert_eq!(parked(), ta);
        drop(b);
        assert_eq!(parked(), tb, "the last drop replaces it");
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
        // All within one slot of a new calendar: later times first, then
        // earlier ones and ties, so inserts land at the head, middle and
        // tail.
        let mut q = EventQueue::new();
        for (ps, id) in [(900, 0), (500, 1), (100, 2), (500, 3), (900, 4), (700, 5), (50, 6)] {
            q.push(Time::from_ps(ps), id);
        }
        assert_eq!(q.walk_steps(), 1 + 1 + 3 + 4 + 1, "nodes compared by the five walks");
        let ids: Vec<_> = drain(&mut q).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, [6, 2, 1, 3, 5, 0, 4]);
    }

    #[test]
    fn ring_wraps_around_many_times() {
        // A chain of events 10 µs apart for 340 µs of simulated time laps
        // the ring at least five times; each step also schedules an event
        // just before the next step and one in the same slot as itself.
        let mut q = EventQueue::new();
        assert!(q.lap() * 5 <= Delta::from_us(340), "the chain laps the ring five times");
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
        assert_eq!(q.resizes, 0, "three pending events never resize the ring");
    }

    #[test]
    fn far_events_migrate_into_the_ring_in_order() {
        let mut q = EventQueue::new();
        // Past a new calendar's 67 µs horizon at push time: these start in
        // the far heap.
        assert_eq!(EventQueue::<()>::new().lap(), Delta::from_ps(1 << 26));
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
        // Later pushes at Time::MAX, whichever tier takes them, still pop
        // behind the events that waited there longer.
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
        assert_eq!(q.pop_where(|t, _| t < Time::from_us(50)), None);
        q.push(Time::from_us(2), 2);
        // The same with the front in the far heap.
        q.push(Time::from_ms(1), 3);
        assert_eq!(q.pop(), Some((Time::from_us(2), 2)));
        assert_eq!(q.pop(), Some((Time::from_us(50), 1)));
        assert_eq!(q.pop_where(|t, _| t < Time::from_ms(1)), None);
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
        let mut q = EventQueue::new();
        let (lap, width) = (q.lap(), q.geometry().1);
        let t0 = Time::from_ps(5 * width);
        let pos = q.ring_pos(q.slot_of(t0));
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
        let [head, tail] = q.slots.0[pos];
        assert_eq!(q.nodes[head as usize].event, Some(11));
        assert_eq!(q.nodes[tail as usize].event, Some(12));
        let ids: Vec<_> = drain(&mut q).into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, [11, 10, 12]);
        assert!(q.occupied.iter().all(|&w| w == 0), "an emptied slot keeps its bit");
        assert_eq!(q.nodes.len(), 3, "freed nodes are reused");
        assert_eq!((q.resizes, q.lap()), (0, lap), "the ring kept its geometry");
    }

    #[test]
    fn reserved_places_pop_in_sequence_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "first");
        let near = q.reserve_seq();
        let far = q.reserve_seq();
        // A reservation may stay unused.
        q.reserve_seq();
        q.push(Time::from_ns(20), "late-b");
        q.push(Time::from_ms(1), "far-b");
        assert_eq!(q.pop(), Some((Time::from_ns(10), "first")));
        // Reserved before the pushes above, both pop ahead of them at
        // their instants: in the ring and past the horizon.
        q.push_reserved(Time::from_ms(1), far, "far-a");
        q.push_reserved(Time::from_ns(20), near, "late-a");
        let now = q.reserve_seq();
        q.push(Time::from_ns(10), "now-b");
        q.push_reserved(Time::from_ns(10), now, "now-a");
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, ["now-a", "now-b", "late-a", "late-b", "far-a", "far-b"]);
    }

    #[test]
    #[should_panic(expected = "before the current one")]
    fn reserved_push_before_the_current_event_panics() {
        let mut q = EventQueue::new();
        let early = q.reserve_seq();
        q.push(Time::from_ns(10), 'a');
        q.pop();
        // The reservation predates 'a', which has already popped.
        q.push_reserved(Time::from_ns(10), early, 'b');
    }

    #[test]
    #[should_panic(expected = "was never reserved")]
    fn push_with_an_unreserved_sequence_number_panics() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 'a');
        q.push_reserved(Time::from_ns(20), 5, 'b');
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
        /// Reserved sequence numbers not pushed yet.
        reserved: Vec<u64>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                q: EventQueue::new(),
                oracle: PureHeap::new(),
                now: Time::ZERO,
                next_id: 0,
                reserved: Vec::new(),
            }
        }

        fn reserve(&mut self) {
            let seq = self.q.reserve_seq();
            assert_eq!(seq, self.oracle.reserve());
            self.reserved.push(seq);
        }

        /// Pushes into one of the reserved places: at now, in the ring or
        /// past the horizon as `delta` decides. A place the calendar has
        /// already passed is given up unused.
        fn push_reserved(&mut self, delta: u64) {
            if self.reserved.is_empty() {
                return;
            }
            let seq = self.reserved.swap_remove(delta as usize % self.reserved.len());
            let at = match delta % 3 {
                0 => self.now,
                1 => self.ahead(1 + delta * 1_000),
                _ => self.ahead(1 + delta * 3_000_000),
            };
            if (at, seq) <= (self.now, self.q.current_seq()) {
                return;
            }
            self.q.push_reserved(at, seq, self.next_id);
            self.oracle.push_at(at, seq, self.next_id);
            self.next_id += 1;
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

        /// Pops through primitive `kind` (6-9, accepting or refusing as
        /// `delta` decides) from both and checks they agree.
        fn pop(&mut self, kind: u8, delta: u64) {
            let now = self.now;
            let bound = self.ahead(delta * 200_000);
            let (a, b) = match kind {
                6 | 7 => (self.q.pop(), self.oracle.pop()),
                8 => (self.q.pop_before(bound), self.oracle.pop_where(|t, _| t <= bound)),
                _ => {
                    let accept = |&e: &u32| u64::from(e) % 2 == delta % 2;
                    (
                        self.q.pop_where(|t, e| t == now && accept(e)),
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
        /// the ring, past its horizon, in the slots either side of the
        /// horizon, at the end of time, and in dense bursts), of
        /// reservations and pushes into reserved places, and of every pop
        /// primitive, accepting and refusing, produces the exact same
        /// trace from both implementations.
        #[test]
        fn prop_matches_pure_heap(
            ops in proptest::collection::vec((0u8..13, 0u64..50), 1..400)
        ) {
            let mut p = Pair::new();
            for (kind, delta) in ops {
                let now = p.now;
                // kinds 0-5 push, 6-9 pop, 10 pushes a burst, 11 reserves
                // a place and 12 pushes into one.
                match kind {
                    0 => p.push(now),
                    1 => p.push(p.ahead(delta * 1_000)),
                    2 => p.push(p.ahead(delta * 100_000)),
                    3 => p.push(p.ahead(delta * 3_000_000)),
                    4 => {
                        // The last ring slot, the first past the horizon,
                        // or the one after, at an offset within the slot.
                        let (slots, width) = p.q.geometry();
                        let slot = now.as_ps() / width + slots as u64 - 1 + delta % 3;
                        let ps = slot.saturating_mul(width).saturating_add(delta * 1_311 % width);
                        p.push(Time::from_ps(ps).max(now));
                    }
                    5 => p.push(Time::from_ps(u64::MAX - delta).max(now)),
                    6..=9 => p.pop(kind, delta),
                    11 => p.reserve(),
                    12 => p.push_reserved(delta),
                    _ => {
                        // A dense burst, the shape of a fabric's clustered
                        // arrivals: 50-491 pushes inside the 65.5 ns window
                        // holding now or the next one,
                        // latest first in groups of one to four ties, with
                        // every pop primitive in turn after each 37 pushes.
                        let n = 50 + delta * 9;
                        let ties = 1 + delta % 4;
                        let window = ((now.as_ps() >> 16) + delta % 2) << 16;
                        for i in 0..n {
                            let offset = (n - 1 - i) / ties * ties * 65_535 / n;
                            p.push(Time::from_ps(window.saturating_add(offset)).max(p.now));
                            if i % 37 == 36 {
                                p.pop(6 + (i / 37 % 4) as u8, delta);
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

    /// A calendar whose population swings between `low` and `high`: each
    /// pop pushes two events a random 1 to 2 µs on while it climbs to
    /// `high`, and none while it falls back to `low`.
    struct Swing {
        q: EventQueue<()>,
        band: (usize, usize),
        climbing: bool,
        rng: crate::SimRng,
    }

    impl Swing {
        fn new(band: (usize, usize)) -> Self {
            let mut q = EventQueue::new();
            q.push(Time::ZERO, ());
            Swing { q, band, climbing: true, rng: crate::SimRng::new(11) }
        }

        fn run(&mut self, pops: u64) {
            for _ in 0..pops {
                let (t, ()) = self.q.pop().expect("the population never drains");
                let n = self.q.len();
                self.climbing = n < self.band.1 && (self.climbing || n <= self.band.0);
                if self.climbing {
                    for _ in 0..2 {
                        let ahead = 1_000_000 + self.rng.next_u64() % 1_000_000;
                        self.q.push(t + Delta::from_ps(ahead), ());
                    }
                }
            }
        }
    }

    #[test]
    fn a_steady_population_keeps_its_tables_and_slab() {
        // The population swings between 6,000 and 11,000 events, either
        // side of 8,192, where four slots per event cross a power of two:
        // a ring without hysteresis would flip between 32,768 and 65,536
        // slots every swing. Two swings in, past the resizes that grew it
        // from an empty calendar, it keeps its tables, slab and geometry.
        let mut s = Swing::new((6_000, 11_000));
        s.run(40_000);
        let footprint = |q: &EventQueue<()>| {
            (
                q.resizes,
                q.geometry(),
                (q.slots.0.as_ptr(), q.slots.0.capacity()),
                (q.occupied.as_ptr(), q.occupied.capacity()),
                (q.nodes.as_ptr(), q.nodes.capacity()),
                q.far.capacity(),
            )
        };
        let before = footprint(&s.q);
        assert!(before.0 >= 6, "the ring grew with the population ({} resizes)", before.0);
        let (steps, pushes) = (s.q.walk_steps(), s.q.next_seq);
        let (mut fewest, mut most) = (usize::MAX, 0);
        for _ in 0..2_000 {
            s.run(100);
            (fewest, most) = (fewest.min(s.q.len()), most.max(s.q.len()));
        }
        assert!(fewest < 6_100 && most > 10_900, "{fewest} to {most} events");
        assert_eq!(footprint(&s.q), before, "a swinging population resizes nothing");
        let per_push = (s.q.walk_steps() - steps) as f64 / (s.q.next_seq - pushes) as f64;
        assert!(per_push <= 1.0, "{per_push:.2} nodes compared per push");
    }

    #[test]
    fn the_ring_follows_the_population_up_and_down() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(Time::from_ps(i * 100), i);
        }
        let (slots, width) = q.geometry();
        assert!((4 * 10_000..=8 * 10_000).contains(&slots), "{slots} slots for 10,000 events");
        assert!((32..=128).contains(&width), "{width} ps slots for events 100 ps apart");
        for _ in 0..9_900 {
            q.pop();
        }
        let (slots, _) = q.geometry();
        // The population is checked as the cursor leaves a word of the
        // bitmap, so the last shrink may lag a few dozen pops.
        assert!(slots <= 4096, "{slots} slots for 100 events");
        assert_eq!(q.walk_steps(), 0, "in-order pushes compare no nodes");
    }

    #[test]
    fn a_widening_spacing_rebuilds_the_ring_at_a_steady_population() {
        // 2,000 events 10 ps apart size the ring; then every pop pushes
        // an event a random distance up to 2 µs on, so the population
        // holds while the spacing grows a hundredfold. Ten-picosecond
        // slots would hold the new events in the far heap or in long
        // lists; the calendar measures its walks and rebuilds.
        let mut q = EventQueue::new();
        for i in 0..2_000u64 {
            q.push(Time::from_ps(i * 10), i);
        }
        let narrow = q.geometry().1;
        assert!(narrow <= 16, "{narrow} ps slots for events 10 ps apart");
        let mut rng = crate::SimRng::new(7);
        for _ in 0..200_000 {
            let (t, i) = q.pop().expect("population holds");
            q.push(t + Delta::from_ps(rng.next_u64() % 2_000_000), i);
        }
        let (_, wide) = q.geometry();
        assert!(wide >= 16 * narrow, "slots widened from {narrow} ps to only {wide} ps");
        let steps = q.walk_steps();
        for _ in 0..100_000 {
            let (t, i) = q.pop().expect("population holds");
            q.push(t + Delta::from_ps(rng.next_u64() % 2_000_000), i);
        }
        let per_push = (q.walk_steps() - steps) as f64 / 100_000.0;
        assert!(per_push <= 1.0, "{per_push:.2} nodes compared per push");
    }

    impl Pair {
        /// One step of a population swing toward more events (`up`) or
        /// fewer: pushes near now and past the horizon, reservations and
        /// reserved pushes, and pops that cascade pushes at their own
        /// instant.
        fn swing(&mut self, kind: u8, delta: u64, up: bool) {
            let pops = if up { kind == 9 } else { kind < 6 };
            if pops {
                self.pop(6 + (delta % 4) as u8, delta);
                // A same-instant cascade behind the popped event: up to
                // two pushes growing, at most one shrinking.
                for _ in 0..delta % if up { 3 } else { 2 } {
                    self.push(self.now);
                }
                return;
            }
            match kind % 4 {
                0 => self.push(self.ahead(delta * 3_000_000)),
                1 => self.reserve(),
                2 => self.push_reserved(delta),
                _ => self.push(self.ahead(delta * 80_000 + delta * delta)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Event-trace equivalence against the pure-heap oracle while the
        /// population swings up a hundredfold and back down, twice: every
        /// grow and shrink of the ring happens with reserved places
        /// outstanding, far events pending and same-instant cascades
        /// running.
        #[test]
        fn prop_matches_pure_heap_across_resizes(
            base in 10usize..40,
            ops in proptest::collection::vec((0u8..10, 0u64..50), 8..40)
        ) {
            let mut p = Pair::new();
            let mut ops = ops.iter().cycle();
            let mut slots_seen = Vec::new();
            for (target, up) in [(base, true), (100 * base, true), (base, false), (100 * base, true), (0, false)] {
                while (up && p.q.len() < target) || (!up && p.q.len() > target) {
                    let &(kind, delta) = ops.next().expect("a cycled list never ends");
                    p.swing(kind, delta, up);
                    p.check();
                    // Two steps the phase's way: a swing step moves the
                    // population by at most one either way.
                    for _ in 0..2 {
                        if up { p.push(p.ahead(delta * 80_000)) } else { p.pop(6, 0) }
                        p.check();
                    }
                }
                slots_seen.push(p.q.geometry().0);
            }
            // Grown at 100× the base and shrunk back at the base, each by
            // more than the hysteresis (2× up, 4× down) can hide.
            prop_assert!(slots_seen[1] >= 4 * slots_seen[0].max(slots_seen[2]), "{slots_seen:?}");
            prop_assert!(slots_seen[3] >= 4 * slots_seen[2], "{slots_seen:?}");
            prop_assert!(p.q.is_empty() && p.oracle.heap.is_empty());
        }
    }
}
