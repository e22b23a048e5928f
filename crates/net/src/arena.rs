//! The frame arena: every frame queued at a port or in flight on a link
//! lives in one store owned by the network, addressed by a [`FrameId`].
//!
//! Calendar events and queue entries carry the 4-byte id instead of the
//! frame. A consumed frame (an ACK, CNP or PFC frame processed at its
//! destination, a dropped or flushed data frame) returns its id to a LIFO
//! free list, and the next frame reuses it, so the steady-state packet
//! path never touches the allocator and the arena retains the run's
//! high-water count of live frames.
//!
//! Frames sit in 512-byte blocks of [`BLOCK`] frames, allocated as that
//! high-water mark rises, and the free list runs through the free slots
//! themselves. Growing never moves or copies a frame and never frees a
//! buffer mid-run. A flat `Vec<Frame>` doubling to 512 KiB did both, and
//! its freed buffers let glibc return heap pages that the same run then
//! faulted in again (about 15 minor faults per simulation of simbench's
//! fig14_fct and fig17_lossy against 1–3; EXPERIMENTS.md, "One frame
//! arena").
//!
//! INT hop records live in a second slab. A frame holds a hop slot only
//! when it asked for INT ([`DataFrame::int`](crate::DataFrame::int),
//! PowerTCP); its ACK, rewritten from it in place, keeps the slot, and
//! [`FrameArena::free`] returns the frame and its slot together. ns-3
//! keeps optional per-packet metadata the same way: outside the packet
//! until a feature attaches it.

use crate::frame::{Frame, FrameKind, PfcFrame, PfcScope};
use dsh_transport::{HopList, TelemetryHop};

/// Handle of a frame in the network's frame arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FrameId(pub(crate) u32);

/// [`Frame::hops`] of a frame that holds no hop slot.
pub(crate) const NO_HOPS: u32 = u32::MAX;

/// [`Frame::hops`] of a free arena slot (debug builds check it to catch
/// a double free or a use after free).
const FREED: u32 = u32::MAX - 1;

/// Frames per arena block (8 × 64 B).
const BLOCK: usize = 8;

/// What a block's slots hold until their first frame.
const VACANT: Frame = Frame {
    hops: FREED,
    ..Frame::new(0, 0, FrameKind::Pfc(PfcFrame { scope: PfcScope::Port, pause: false }))
};

/// End of the free list.
const NIL: u32 = u32::MAX;

/// Frames by [`FrameId`], plus the hop slab, each with a LIFO free list.
#[derive(Debug)]
pub(crate) struct FrameArena {
    /// Frame `id` is `blocks[id / BLOCK][id % BLOCK]`. Boxed so growing
    /// the table moves block pointers, never frames.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<[Frame; BLOCK]>>,
    /// Ids handed out so far (the high-water count of live frames).
    len: u32,
    /// Frames allocated and not yet freed.
    live: u32,
    /// The most recently freed id, or [`NIL`]. The free list runs through
    /// the free slots: a free slot's `bytes` holds the next free id.
    free_head: u32,
    hops: Vec<HopList>,
    free_hops: Vec<u32>,
}

impl Default for FrameArena {
    fn default() -> Self {
        FrameArena {
            blocks: Vec::new(),
            len: 0,
            live: 0,
            free_head: NIL,
            hops: Vec::new(),
            free_hops: Vec::new(),
        }
    }
}

impl FrameArena {
    /// Stores `frame` in the most recently freed slot (a new one when
    /// none is free). A frame that requests INT gets an empty hop slot.
    pub(crate) fn alloc(&mut self, mut frame: Frame) -> FrameId {
        frame.hops = self.attach_hops(&frame);
        let id = if self.free_head == NIL {
            assert!(self.len < NIL, "frame arena full");
            let id = FrameId(self.len);
            self.len += 1;
            if (id.0 as usize).is_multiple_of(BLOCK) {
                self.blocks.push(Box::new([VACANT; BLOCK]));
            }
            id
        } else {
            let id = FrameId(self.free_head);
            self.free_head = self.slot(id).bytes as u32;
            id
        };
        *self.slot_mut(id) = frame;
        self.live += 1;
        id
    }

    /// Replaces frame `id` with `frame` in place: a hop slot it held is
    /// released, and one is attached if `frame` requests INT.
    pub(crate) fn refill(&mut self, id: FrameId, mut frame: Frame) {
        self.release_hops(id);
        frame.hops = self.attach_hops(&frame);
        *self.slot_mut(id) = frame;
    }

    /// Returns frame `id` and its hop slot, if any, to their free lists.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `id` is already free.
    pub(crate) fn free(&mut self, id: FrameId) {
        debug_assert_ne!(self.slot(id).hops, FREED, "double free of {id:?}");
        self.release_hops(id);
        let next = self.free_head;
        let slot = self.slot_mut(id);
        slot.hops = FREED;
        slot.bytes = u64::from(next);
        self.free_head = id.0;
        self.live -= 1;
    }

    /// Frame `id`.
    #[inline]
    pub(crate) fn get(&self, id: FrameId) -> &Frame {
        let f = self.slot(id);
        debug_assert_ne!(f.hops, FREED, "use of freed {id:?}");
        f
    }

    /// Frame `id`, mutably. The header may be rewritten
    /// ([`Frame::echo_as_ack`] keeps the hop slot); a change of the frame's
    /// INT request goes through [`FrameArena::refill`].
    #[inline]
    pub(crate) fn get_mut(&mut self, id: FrameId) -> &mut Frame {
        let f = self.slot_mut(id);
        debug_assert_ne!(f.hops, FREED, "use of freed {id:?}");
        f
    }

    /// The INT hops stamped into frame `id`, in path order (empty for a
    /// frame without a hop slot).
    #[must_use]
    pub(crate) fn hops(&self, id: FrameId) -> &[TelemetryHop] {
        match self.get(id).hops {
            NO_HOPS => &[],
            slot => self.hops[slot as usize].as_slice(),
        }
    }

    /// Appends a hop record to frame `id`.
    ///
    /// # Panics
    ///
    /// Panics if the frame holds no hop slot, or its slot already holds
    /// `HOP_CAPACITY` stamps.
    pub(crate) fn push_hop(&mut self, id: FrameId, hop: TelemetryHop) {
        let slot = self.get(id).hops;
        assert_ne!(slot, NO_HOPS, "INT stamp into {id:?}, which requested none");
        self.hops[slot as usize].push(hop);
    }

    /// Frames currently allocated (queued, in flight, or held by a
    /// handler).
    #[must_use]
    pub(crate) fn live(&self) -> usize {
        self.live as usize
    }

    /// The slot of `id`, allocated or free.
    #[inline]
    fn slot(&self, id: FrameId) -> &Frame {
        let i = id.0 as usize;
        &self.blocks[i / BLOCK][i % BLOCK]
    }

    #[inline]
    fn slot_mut(&mut self, id: FrameId) -> &mut Frame {
        let i = id.0 as usize;
        &mut self.blocks[i / BLOCK][i % BLOCK]
    }

    /// An empty hop slot for `frame` if it requests INT, else [`NO_HOPS`].
    fn attach_hops(&mut self, frame: &Frame) -> u32 {
        if !frame.requests_int() {
            return NO_HOPS;
        }
        match self.free_hops.pop() {
            Some(slot) => {
                self.hops[slot as usize].clear();
                slot
            }
            None => {
                let slot = u32::try_from(self.hops.len()).expect("hop slab exceeds u32 ids");
                self.hops.push(HopList::new());
                self.free_hops.reserve(self.hops.len());
                slot
            }
        }
    }

    /// Returns the hop slot of frame `id`, if it holds one.
    fn release_hops(&mut self, id: FrameId) {
        let slot = self.slot(id).hops;
        if slot != NO_HOPS && slot != FREED {
            self.free_hops.push(slot);
            self.slot_mut(id).hops = NO_HOPS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{AckFrame, DataFrame, FrameKind, NackFrame, CONTROL_FRAME_BYTES};
    use crate::ids::{FlowId, NodeId, CONTROL_CLASS};
    use dsh_simcore::{Bandwidth, Time};

    fn data(int: bool) -> Frame {
        Frame::data(
            DataFrame {
                flow: FlowId(4),
                src: NodeId(0),
                dst: NodeId(9),
                seq: 3000,
                payload: 1000,
                ecn: true,
                int,
            },
            2,
        )
    }

    fn hop(n: u64) -> TelemetryHop {
        TelemetryHop {
            qlen_bytes: n,
            tx_bytes: 100 * n,
            timestamp: Time::from_ns(n),
            bandwidth: Bandwidth::from_gbps(100),
        }
    }

    /// An INT data frame stamped at `hops` switches.
    fn stamped(a: &mut FrameArena, hops: u64) -> FrameId {
        let id = a.alloc(data(true));
        for n in 1..=hops {
            a.push_hop(id, hop(n));
        }
        id
    }

    #[test]
    fn ids_are_reused_last_freed_first() {
        let mut a = FrameArena::default();
        let ids: Vec<_> = (0..3).map(|_| a.alloc(data(false))).collect();
        assert_eq!(ids, [FrameId(0), FrameId(1), FrameId(2)]);
        assert_eq!(a.live(), 3);
        a.free(ids[0]);
        a.free(ids[2]);
        assert_eq!(a.live(), 1);
        assert_eq!(a.alloc(Frame::cnp(FlowId(1), NodeId(2))), FrameId(2));
        assert_eq!(a.alloc(Frame::cnp(FlowId(1), NodeId(2))), FrameId(0));
        assert_eq!(a.alloc(Frame::cnp(FlowId(1), NodeId(2))), FrameId(3), "none free: grow");
        assert_eq!(a.live(), 4);
    }

    #[test]
    fn frames_keep_their_ids_across_blocks() {
        let mut a = FrameArena::default();
        let cnp = |n: usize| Frame::cnp(FlowId(n), NodeId(0));
        let ids: Vec<_> = (0..3 * BLOCK + 1).map(|n| a.alloc(cnp(n))).collect();
        assert_eq!(a.blocks.len(), 4);
        for (n, &id) in ids.iter().enumerate() {
            assert!(matches!(a.get(id).kind, FrameKind::Cnp { flow, .. } if flow == FlowId(n)));
        }
        for &id in &ids {
            a.free(id);
        }
        assert_eq!(a.live(), 0);
        // Last freed, first reused, across blocks.
        assert_eq!(a.alloc(cnp(0)), ids[3 * BLOCK]);
        assert_eq!(a.alloc(cnp(0)), ids[3 * BLOCK - 1]);
        assert_eq!(a.blocks.len(), 4, "no block for a reused id");
    }

    #[test]
    fn hop_slots_are_taken_on_request_and_reused() {
        let mut a = FrameArena::default();
        let plain = a.alloc(data(false));
        assert_eq!(a.get(plain).hops, NO_HOPS, "no INT, no slot");
        let x = stamped(&mut a, 2);
        let y = stamped(&mut a, 1);
        assert_eq!((a.get(x).hops, a.get(y).hops), (0, 1));
        a.free(x);
        // The next INT frame takes x's slot, emptied.
        let z = a.alloc(data(true));
        assert_eq!(a.get(z).hops, 0);
        assert!(a.hops(z).is_empty(), "a reused slot starts empty");
        assert_eq!(a.hops(y), &[hop(1)]);
        assert_eq!(a.hops.len(), 2, "the slab did not grow");
    }

    #[test]
    fn ack_echo_keeps_the_stamped_hops_in_path_order() {
        let mut a = FrameArena::default();
        let id = stamped(&mut a, 5);
        let ack = AckFrame { flow: FlowId(4), dst: NodeId(0), acked: 4000, ecn_echo: true };
        a.get_mut(id).echo_as_ack(ack);
        assert_eq!(a.hops(id), &[hop(1), hop(2), hop(3), hop(4), hop(5)]);
        let f = a.get(id);
        assert_eq!((f.bytes, f.class), (CONTROL_FRAME_BYTES, CONTROL_CLASS));
        assert!(matches!(f.kind, FrameKind::Ack(a) if a.acked == 4000 && a.ecn_echo));
        // Freeing the ACK returns its slot with it.
        a.free(id);
        assert_eq!(a.free_hops, [0]);
    }

    #[test]
    fn a_reused_id_shows_no_hops_of_its_past() {
        let nack = NackFrame {
            flow: FlowId(4),
            dst: NodeId(0),
            expected: 3000,
            bitmap: 0b10,
            ecn_echo: false,
        };
        let refills = [data(false), Frame::cnp(FlowId(1), NodeId(2)), Frame::nack(nack)];
        for fresh in refills {
            // Reuse through the free list.
            let mut a = FrameArena::default();
            let id = stamped(&mut a, 4);
            a.free(id);
            assert_eq!(a.alloc(fresh), id);
            assert!(a.hops(id).is_empty(), "{:?} after free", fresh.kind);
            assert_eq!(a.get(id).hops, NO_HOPS);
            // Reuse in place (a receiver turning data into a NACK).
            let id = stamped(&mut a, 4);
            a.refill(id, fresh);
            assert!(a.hops(id).is_empty(), "{:?} refilled in place", fresh.kind);
            assert_eq!((a.get(id).bytes, a.get(id).class), (fresh.bytes, fresh.class));
            assert_eq!(a.free_hops.len(), 1, "the refill released the slot");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug_builds() {
        let mut a = FrameArena::default();
        let id = a.alloc(data(true));
        a.free(id);
        a.free(id);
    }

    #[test]
    #[should_panic(expected = "requested none")]
    fn stamping_a_frame_without_int_panics() {
        let mut a = FrameArena::default();
        let id = a.alloc(data(false));
        a.push_hop(id, hop(1));
    }
}
