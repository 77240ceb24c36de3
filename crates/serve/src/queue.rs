//! Bounded, priority-classed admission queues.
//!
//! The serving runtime's first rule is that *no queue grows without
//! bound*: when a class's queue is at capacity, new queries of that class
//! are shed with a typed [`crate::ServeError::Overloaded`] instead of
//! being buffered into a latency disaster. Workers drain strictly by
//! priority — every Interactive query ahead of every Normal one, Normal
//! ahead of Batch — so the cheap-but-urgent people-search traffic is not
//! stuck behind analytical scans.

use std::collections::VecDeque;

use parking_lot::{Condvar, Mutex};

/// Priority class of a query. Lower value drains first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// User-facing, latency-sensitive (people search, neighborhood
    /// exploration behind an interactive UI).
    Interactive = 0,
    /// Default class.
    Normal = 1,
    /// Streaming graph mutations: writes must not sit behind analytical
    /// scans (freshness lag is user-visible), but they also must not
    /// preempt interactive reads.
    Mutation = 2,
    /// Throughput-oriented background work; first to starve under load.
    Batch = 3,
}

impl Priority {
    /// Index into per-class arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

struct Inner<T> {
    queues: [VecDeque<T>; 4],
    closed: bool,
}

/// A bounded multi-class MPMC queue: `try_push` sheds at capacity,
/// `pop` blocks and drains by priority.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: [usize; 4],
}

impl<T> BoundedQueue<T> {
    /// A queue bounded at `capacity` entries per class.
    pub fn new(capacity: [usize; 4]) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                queues: [
                    VecDeque::new(),
                    VecDeque::new(),
                    VecDeque::new(),
                    VecDeque::new(),
                ],
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Capacity of `class`'s queue.
    pub fn capacity(&self, class: Priority) -> usize {
        self.capacity[class.idx()]
    }

    /// Current depth of `class`'s queue.
    pub fn depth(&self, class: Priority) -> usize {
        self.inner.lock().queues[class.idx()].len()
    }

    /// Admit `item` into `class`'s queue, or shed it. On rejection the
    /// item comes back to the caller along with the observed depth, so
    /// the caller can fail the query without losing its completion
    /// channel.
    pub fn try_push(&self, class: Priority, item: T) -> Result<usize, (T, usize)> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err((item, 0));
        }
        let q = &mut inner.queues[class.idx()];
        let depth = q.len();
        if depth >= self.capacity[class.idx()] {
            return Err((item, depth));
        }
        q.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth + 1)
    }

    /// Block until an entry is available (highest class first) or the
    /// queue is closed and drained. `None` means shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            for q in inner.queues.iter_mut() {
                if let Some(item) = q.pop_front() {
                    return Some(item);
                }
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Close the queue: pending entries still drain; new pushes shed.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Has the queue been closed?
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sheds_at_capacity() {
        let q = BoundedQueue::new([2, 2, 2, 2]);
        assert_eq!(q.try_push(Priority::Normal, 1), Ok(1));
        assert_eq!(q.try_push(Priority::Normal, 2), Ok(2));
        assert_eq!(q.try_push(Priority::Normal, 3), Err((3, 2)));
        // Other classes have their own bound.
        assert_eq!(q.try_push(Priority::Batch, 4), Ok(1));
    }

    #[test]
    fn drains_by_priority() {
        let q = BoundedQueue::new([4, 4, 4, 4]);
        q.try_push(Priority::Batch, 40).unwrap();
        q.try_push(Priority::Mutation, 30).unwrap();
        q.try_push(Priority::Normal, 20).unwrap();
        q.try_push(Priority::Interactive, 10).unwrap();
        q.try_push(Priority::Interactive, 11).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(30));
        assert_eq!(q.pop(), Some(40));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn never_exceeds_cap_under_64_competing_submitters() {
        // The satellite concurrency proof: 64 threads hammer one class
        // while a slow consumer drains; the observed depth must never
        // exceed the configured capacity.
        const CAP: usize = 8;
        let q = Arc::new(BoundedQueue::new([CAP, CAP, CAP, CAP]));
        let max_seen = Arc::new(Mutex::new(0usize));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut drained = 0usize;
                while let Some(_item) = q.pop() {
                    drained += 1;
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                drained
            })
        };
        let submitters: Vec<_> = (0..64)
            .map(|t| {
                let q = Arc::clone(&q);
                let max_seen = Arc::clone(&max_seen);
                std::thread::spawn(move || {
                    let mut admitted = 0usize;
                    for i in 0..200 {
                        match q.try_push(Priority::Normal, t * 1000 + i) {
                            Ok(depth) => {
                                admitted += 1;
                                let mut m = max_seen.lock();
                                *m = (*m).max(depth);
                            }
                            Err((_item, depth)) => {
                                assert!(
                                    depth >= CAP,
                                    "shed below capacity: depth {depth} < cap {CAP}"
                                );
                            }
                        }
                        let depth = q.depth(Priority::Normal);
                        assert!(depth <= CAP, "queue over cap: {depth} > {CAP}");
                    }
                    admitted
                })
            })
            .collect();
        let admitted: usize = submitters.into_iter().map(|j| j.join().unwrap()).sum();
        q.close();
        let drained = consumer.join().unwrap();
        assert_eq!(admitted, drained, "every admitted entry is drained");
        assert!(*max_seen.lock() <= CAP);
        assert!(admitted > 0, "some queries must get through");
    }
}
