//! A bounded free-list of boxed objects for allocation-free hot paths.
//!
//! Discrete-event network simulators churn through millions of short-lived
//! packet objects; allocating and freeing each one dominates the per-event
//! cost once the calendar itself is cheap (ns-3 solves this the same way
//! with its pooled `Packet` buffers). [`Pool`] keeps returned boxes on a
//! free list and hands them back overwritten-in-place, so a steady-state
//! simulation performs zero heap allocations per packet.

/// A bounded recycling pool of `Box<T>`.
///
/// [`Pool::get`] pops a recycled box (overwriting its contents) or
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

    /// Takes a box from the pool, initialized to `init()`.
    ///
    /// Recycles a free box (a plain in-place overwrite) when one is
    /// available and heap-allocates otherwise, so warm steady state never
    /// touches the allocator.
    pub fn get(&mut self, init: impl FnOnce() -> T) -> Box<T> {
        match self.free.pop() {
            Some(mut b) => {
                *b = init();
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
    fn pool_recycles_boxes() {
        let mut p: Pool<u64> = Pool::bounded(4);
        let a = p.get(|| 1);
        assert_eq!(*a, 1);
        p.put(a);
        assert_eq!(p.free_len(), 1);
        let b = p.get(|| 2);
        assert_eq!(*b, 2, "recycled box must be re-initialized");
        assert_eq!(p.free_len(), 0);
        p.put(b);
    }

    #[test]
    fn pool_is_bounded() {
        let mut p: Pool<u64> = Pool::bounded(2);
        let boxes: Vec<_> = (0..5).map(|i| p.get(move || i)).collect();
        for b in boxes {
            p.put(b);
        }
        assert_eq!(p.free_len(), 2, "overflow boxes are dropped, not retained");
        assert_eq!(p.capacity(), 2);
    }

    const_assert_size!(u64, 8);
}
