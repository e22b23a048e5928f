//! A bounded free-list of boxed objects for allocation-free hot paths.
//!
//! Discrete-event network simulators churn through millions of short-lived
//! packet objects; allocating and freeing each one dominates the per-event
//! cost once the calendar itself is cheap (ns-3 solves this the same way
//! with its pooled `Packet` buffers). [`Pool`] keeps returned boxes on a
//! free list and hands them back refilled in place, so a steady-state
//! simulation performs zero heap allocations per packet.

/// A bounded recycling pool of `Box<T>`.
///
/// [`Pool::get_in_place`] pops a recycled box (refilling its contents) or
/// allocates when the free list is empty; [`Pool::put`] returns a box to
/// the free list, dropping it instead once `capacity` boxes are already
/// retained — so a burst cannot pin memory forever.
#[derive(Clone, Debug)]
pub struct Pool<T> {
    free: Vec<Box<T>>,
    capacity: usize,
}

impl<T> Pool<T> {
    /// Creates a pool retaining at most `capacity` free boxes.
    ///
    /// The free list itself is allocated to full capacity up front:
    /// [`Pool::put`] must never grow it, or returning a box would itself
    /// allocate on the hot path the pool exists to keep allocation-free.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Pool { free: Vec::with_capacity(capacity), capacity }
    }

    /// Takes a box from the pool: a recycled box is refilled in place by
    /// `refill`, and a fresh one is allocated holding `init()` only when
    /// the free list is empty, so warm steady state never touches the
    /// allocator.
    ///
    /// For a large `T`, `refill` can rewrite just the fields that carry
    /// meaning instead of overwriting the whole value; it must leave the
    /// box observably equal to `init()`.
    pub fn get_in_place(
        &mut self,
        init: impl FnOnce() -> T,
        refill: impl FnOnce(&mut T),
    ) -> Box<T> {
        match self.free.pop() {
            Some(mut b) => {
                refill(&mut b);
                b
            }
            None => Box::new(init()),
        }
    }

    /// Returns a box to the free list (or drops it if the pool is full).
    pub fn put(&mut self, b: Box<T>) {
        if self.free.len() < self.capacity {
            self.free.push(b);
        }
    }

    /// Number of boxes currently retained on the free list.
    #[must_use]
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Maximum number of free boxes retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Asserts at compile time that a type fits a size ceiling.
///
/// Hot-path types (events, queued frames) are memcpy'd into and out of the
/// calendar and the port queues, so their size is a performance contract:
/// this macro turns an accidental regression (e.g. un-boxing a large
/// variant) into a compile error instead of a silent slowdown.
#[macro_export]
macro_rules! const_assert_size {
    ($ty:ty, $max:expr) => {
        const _: () = assert!(
            std::mem::size_of::<$ty>() <= $max,
            concat!(
                "size_of::<",
                stringify!($ty),
                ">() exceeds the ",
                stringify!($max),
                "-byte hot-path ceiling; box the large variant"
            )
        );
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_refills_recycled_boxes_in_place() {
        let mut p: Pool<[u64; 4]> = Pool::bounded(4);
        let fresh = p.get_in_place(|| [1, 0, 0, 0], |_| unreachable!("nothing to recycle"));
        assert_eq!(*fresh, [1, 0, 0, 0]);
        let mut used = fresh;
        used[3] = 9;
        p.put(used);
        // The refill sees the recycled contents and rewrites what it must.
        let b = p.get_in_place(|| unreachable!("a box is free"), |a| a[0] = 2);
        assert_eq!(*b, [2, 0, 0, 9]);
        assert_eq!(p.free_len(), 0);
        p.put(b);
        assert_eq!(p.free_len(), 1);
    }

    #[test]
    fn pool_is_bounded() {
        let mut p: Pool<u64> = Pool::bounded(2);
        let boxes: Vec<_> = (0..5).map(|i| p.get_in_place(move || i, |b| *b = i)).collect();
        for b in boxes {
            p.put(b);
        }
        assert_eq!(p.free_len(), 2, "overflow boxes are dropped, not retained");
        assert_eq!(p.capacity(), 2);
    }

    const_assert_size!(u64, 8);
}
