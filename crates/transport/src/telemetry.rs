//! In-band network telemetry (INT) records, the feedback signal PowerTCP
//! consumes.

use dsh_simcore::{Bandwidth, Json, Time};

/// One hop's telemetry, stamped by a switch when it dequeues a data packet
/// and echoed back to the sender in the ACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryHop {
    /// Egress queue length (bytes) at dequeue time.
    pub qlen_bytes: u64,
    /// Cumulative bytes transmitted by the egress port (λ is derived from
    /// its difference between two ACKs).
    pub tx_bytes: u64,
    /// Switch-local timestamp of the dequeue.
    pub timestamp: Time,
    /// Egress link capacity.
    pub bandwidth: Bandwidth,
}

impl TelemetryHop {
    /// JSON form, matching the field layout of the network-level
    /// telemetry export.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("qlen_bytes", self.qlen_bytes)
            .with("tx_bytes", self.tx_bytes)
            .with("timestamp_ns", self.timestamp.as_ns())
            .with("bandwidth_gbps", self.bandwidth.as_gbps_f64())
    }
}

/// Maximum number of switch hops a packet can traverse, and therefore the
/// capacity of a [`HopList`].
///
/// The capacity is the data-path diameter of the supported fabrics, 5
/// egress stamps: a k-ary fat-tree crosses edge→agg→core→agg→edge, and the
/// leaf–spine bounce paths of the CBD experiment (fig. 12, two links
/// removed before the run) cross leaf→spine→leaf→spine→leaf. Routes are
/// computed once at build time, so no path grows past that diameter.
/// It sizes one slot of the frame arena's hop slab (`dsh-net`), which
/// only frames that request INT hold, and never the frame itself.
/// `NetworkBuilder::build` checks the longest computed route against this
/// capacity at build time, and [`HopList::push`] past capacity panics
/// rather than silently dropping telemetry.
pub const HOP_CAPACITY: usize = 5;

const ZERO_HOP: TelemetryHop = TelemetryHop {
    qlen_bytes: 0,
    tx_bytes: 0,
    timestamp: Time::ZERO,
    bandwidth: Bandwidth::from_bps(0),
};

/// A fixed-capacity list of [`TelemetryHop`]s: one slot of the frame
/// arena's hop slab in `dsh-net`.
///
/// A data frame that requests INT takes a slot when it is built, and its
/// ACK, rewritten from it in place, echoes the hops without a copy; the
/// slot returns to the slab with the frame, so no stamp ever allocates.
/// Push order is preserved. Slots past the live prefix may hold stale
/// stamps ([`HopList::clear`] only resets the length), so equality,
/// iteration and `Debug` only ever look at the live prefix.
#[derive(Clone, Copy)]
pub struct HopList {
    len: u8,
    hops: [TelemetryHop; HOP_CAPACITY],
}

impl HopList {
    /// An empty list.
    #[must_use]
    pub const fn new() -> Self {
        HopList { len: 0, hops: [ZERO_HOP; HOP_CAPACITY] }
    }

    /// Appends a hop record.
    ///
    /// # Panics
    ///
    /// Panics if the packet already carries [`HOP_CAPACITY`] stamps — the
    /// topology's diameter exceeds the capacity contract.
    pub fn push(&mut self, hop: TelemetryHop) {
        assert!(
            (self.len as usize) < HOP_CAPACITY,
            "HopList overflow: path exceeds HOP_CAPACITY ({HOP_CAPACITY}) switch hops; \
             raise dsh_transport::HOP_CAPACITY for deeper topologies"
        );
        self.hops[self.len as usize] = hop;
        self.len += 1;
    }

    /// Number of stamped hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no hop has been stamped yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stamped hops, in path order.
    #[must_use]
    pub fn as_slice(&self) -> &[TelemetryHop] {
        &self.hops[..self.len as usize]
    }

    /// Iterates over the stamped hops in path order.
    pub fn iter(&self) -> std::slice::Iter<'_, TelemetryHop> {
        self.as_slice().iter()
    }

    /// Removes all hops. Only the length is reset: the slots keep their
    /// stale stamps, which nothing reads past the live prefix, so a reused
    /// slab slot is emptied without rewriting its 256 bytes of stamps.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Builds a list from a slice (test/bench convenience).
    ///
    /// # Panics
    ///
    /// Panics if `hops.len() > HOP_CAPACITY`.
    #[must_use]
    pub fn from_slice(hops: &[TelemetryHop]) -> Self {
        let mut out = HopList::new();
        for h in hops {
            out.push(*h);
        }
        out
    }
}

impl Default for HopList {
    fn default() -> Self {
        HopList::new()
    }
}

impl std::ops::Deref for HopList {
    type Target = [TelemetryHop];

    fn deref(&self) -> &[TelemetryHop] {
        self.as_slice()
    }
}

impl PartialEq for HopList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for HopList {}

impl std::fmt::Debug for HopList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a> IntoIterator for &'a HopList {
    type Item = &'a TelemetryHop;
    type IntoIter = std::slice::Iter<'a, TelemetryHop>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(n: u64) -> TelemetryHop {
        TelemetryHop {
            qlen_bytes: n,
            tx_bytes: n * 10,
            timestamp: Time::from_us(n),
            bandwidth: Bandwidth::from_gbps(100),
        }
    }

    #[test]
    fn telemetry_is_plain_data() {
        let h = hop(1);
        let h2 = h;
        assert_eq!(h, h2);
    }

    #[test]
    fn hoplist_push_and_iterate_in_path_order() {
        let mut l = HopList::new();
        assert!(l.is_empty());
        for n in 0..4 {
            l.push(hop(n));
        }
        assert_eq!(l.len(), 4);
        assert_eq!(l.as_slice(), &[hop(0), hop(1), hop(2), hop(3)]);
        let via_iter: Vec<u64> = l.iter().map(|h| h.qlen_bytes).collect();
        assert_eq!(via_iter, vec![0, 1, 2, 3]);
    }

    #[test]
    fn hoplist_copies_and_compares_by_live_prefix() {
        let mut a = HopList::new();
        a.push(hop(7));
        let b = a; // Copy, not move: frames stay plain data.
        assert_eq!(a, b);
        let mut c = HopList::from_slice(&[hop(7), hop(8)]);
        assert_ne!(a, c);
        c.clear();
        assert_eq!(c, HopList::new());
    }

    #[test]
    fn hoplist_derefs_to_slice() {
        let l = HopList::from_slice(&[hop(1), hop(2)]);
        // &*l is what `AckInfo { hops: &ack.hops }` relies on.
        let s: &[TelemetryHop] = &l;
        assert_eq!(s.len(), 2);
        assert_eq!(l.first(), Some(&hop(1)));
    }

    #[test]
    #[should_panic(expected = "HopList overflow")]
    fn hoplist_overflow_panics() {
        let mut l = HopList::new();
        for n in 0..=HOP_CAPACITY as u64 {
            l.push(hop(n));
        }
    }

    #[test]
    fn telemetry_hop_json_roundtrips() {
        let h = TelemetryHop {
            qlen_bytes: 1500,
            tx_bytes: 1_000_000,
            timestamp: Time::from_us(3),
            bandwidth: Bandwidth::from_gbps(100),
        };
        let j = h.to_json();
        assert_eq!(j.get("qlen_bytes").unwrap().as_u64(), Some(1500));
        assert_eq!(j.get("bandwidth_gbps").unwrap().as_f64(), Some(100.0));
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }
}
