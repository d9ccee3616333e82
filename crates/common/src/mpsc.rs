//! A lock-free multi-producer/single-consumer queue.
//!
//! [`MpscQueue`] is the inbox of every server event loop: many threads (the
//! engines and the dispatcher driver, through the completion callbacks of
//! the invocations they settle) push messages concurrently, and exactly one
//! consumer — the loop thread — drains them in batches between
//! `epoll_wait`s. The previous
//! `Mutex<VecDeque>` inbox made every completion storm a lock convoy; this
//! queue makes a push one compare-and-swap and the drain one atomic swap,
//! with no lock for producers to convoy on.
//!
//! The structure is a Treiber stack consumed in whole batches: producers
//! push nodes onto an atomic head, and the consumer takes the entire chain
//! with a single `swap(null)`, then reverses it once so iteration yields
//! messages in push order per producer (a producer's messages never
//! reorder; messages of different producers interleave arbitrarily, as
//! they already did under the lock). Take-all consumption is what makes
//! the simple stack safe: the consumer never pops individual nodes, so the
//! classic ABA hazard of concurrent `pop` cannot arise.
//!
//! [`MpscQueue::push`] reports whether the queue was empty, and
//! [`MpscQueue::len`] is a monotonic gauge producers and observers may read
//! — both exist so callers can coalesce wakeups (signal an eventfd only on
//! the empty→sleeping transition) and export inbox depth as a statistic.

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

struct Node<T> {
    value: T,
    next: *mut Node<T>,
}

/// A lock-free unbounded MPSC queue consumed in whole batches.
///
/// Any number of threads may call [`push`](MpscQueue::push) concurrently.
/// [`take_all`](MpscQueue::take_all) is safe to call from any thread too,
/// but the intended shape is a single consumer draining between waits.
pub struct MpscQueue<T> {
    /// Top of the Treiber stack (most recent push), or null when empty.
    head: AtomicPtr<Node<T>>,
    /// Approximate occupancy: incremented after a push lands, decremented
    /// in bulk by the drain. Reads are a gauge, never control flow.
    depth: AtomicUsize,
}

impl<T> MpscQueue<T> {
    pub fn new() -> MpscQueue<T> {
        MpscQueue {
            head: AtomicPtr::new(ptr::null_mut()),
            depth: AtomicUsize::new(0),
        }
    }

    /// Pushes `value`, returning `true` when the queue was observed empty —
    /// the transition a waker-coalescing caller cares about.
    pub fn push(&self, value: T) -> bool {
        let node = Box::into_raw(Box::new(Node {
            value,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // Safe to write: the node is not yet visible to any other thread.
            unsafe { (*node).next = head };
            // SeqCst so a producer's push and a consumer's pre-sleep
            // emptiness check order against the sleeping flag they bracket.
            match self
                .head
                .compare_exchange(head, node, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.depth.fetch_add(1, Ordering::Relaxed);
                    return head.is_null();
                }
                Err(current) => head = current,
            }
        }
    }

    /// Whether the queue currently has no messages.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst).is_null()
    }

    /// Approximate number of queued messages (a statistics gauge: pushes
    /// and drains race the counter, so transient over/under-counts of a
    /// few messages are expected).
    pub fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Detaches every queued message in one atomic swap and returns them in
    /// push order per producer.
    pub fn take_all(&self) -> Drain<T> {
        let taken = self.head.swap(ptr::null_mut(), Ordering::SeqCst);
        // Reverse the LIFO chain so iteration yields oldest-first.
        let mut reversed: *mut Node<T> = ptr::null_mut();
        let mut cursor = taken;
        let mut count = 0usize;
        while !cursor.is_null() {
            let next = unsafe { (*cursor).next };
            unsafe { (*cursor).next = reversed };
            reversed = cursor;
            cursor = next;
            count += 1;
        }
        if count > 0 {
            self.depth.fetch_sub(count, Ordering::Relaxed);
        }
        Drain { head: reversed }
    }
}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        MpscQueue::new()
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        // Consume whatever is left so queued values drop exactly once.
        for value in self.take_all() {
            drop(value);
        }
    }
}

// The queue moves owned `T` values across threads; that is exactly a
// channel's requirement.
unsafe impl<T: Send> Send for MpscQueue<T> {}
unsafe impl<T: Send> Sync for MpscQueue<T> {}

/// Iterator over one detached batch of messages, oldest first. Dropping it
/// frees any messages not consumed.
pub struct Drain<T> {
    head: *mut Node<T>,
}

impl<T> Iterator for Drain<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.head.is_null() {
            return None;
        }
        // The chain was detached from the queue, so this iterator is the
        // sole owner of every node in it.
        let node = unsafe { Box::from_raw(self.head) };
        self.head = node.next;
        Some(node.value)
    }
}

impl<T> Drop for Drain<T> {
    fn drop(&mut self) {
        for node in self.by_ref() {
            drop(node);
        }
    }
}

unsafe impl<T: Send> Send for Drain<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_take_roundtrip_preserves_order() {
        let queue = MpscQueue::new();
        assert!(queue.is_empty());
        assert!(queue.push(1), "first push observes the empty queue");
        assert!(!queue.push(2), "second push observes a non-empty queue");
        assert!(!queue.push(3));
        assert_eq!(queue.len(), 3);
        let drained: Vec<i32> = queue.take_all().collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert!(queue.is_empty());
        assert_eq!(queue.len(), 0);
        assert!(queue.push(4), "emptied queue reports the transition again");
    }

    #[test]
    fn unconsumed_drain_and_queue_drop_release_everything() {
        // Messages still queued (or half-drained) when the queue goes away
        // must drop exactly once; `Arc` counts prove it.
        let payload = Arc::new(());
        {
            let queue = MpscQueue::new();
            for _ in 0..10 {
                queue.push(Arc::clone(&payload));
            }
            let mut drain = queue.take_all();
            let _ = drain.next();
            for _ in 0..5 {
                queue.push(Arc::clone(&payload));
            }
            // `drain` still holds 9, the queue holds 5; both drop here.
        }
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn concurrent_producers_lose_nothing_and_keep_per_producer_order() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 10_000;
        let queue = Arc::new(MpscQueue::new());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        queue.push((producer, seq));
                    }
                })
            })
            .collect();
        // Consume concurrently with production, like an event loop would.
        let mut seen = [0usize; PRODUCERS];
        let mut total = 0usize;
        while total < PRODUCERS * PER_PRODUCER {
            for (producer, seq) in queue.take_all() {
                assert_eq!(
                    seq, seen[producer],
                    "producer {producer} messages arrived out of order"
                );
                seen[producer] += 1;
                total += 1;
            }
            std::thread::yield_now();
        }
        for producer in producers {
            producer.join().unwrap();
        }
        assert!(queue.is_empty());
        assert!(seen.iter().all(|&count| count == PER_PRODUCER));
    }
}
