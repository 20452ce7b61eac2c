//! Deterministic discrete-event queue.

use crate::time::Nanos;
use std::collections::BTreeMap;

/// Timestamped events in firing order. Events at the same timestamp pop
/// in ascending `key` order, and equal keys in insertion order (a
/// monotone sequence number breaks them), making every simulation
/// replayable bit-for-bit. A caller with no tie rule of its own passes
/// `()`.
#[derive(Debug)]
pub struct EventQueue<K, T> {
    events: BTreeMap<(Nanos, K, u64), T>,
    next_seq: u64,
}

impl<K: Ord, T> Default for EventQueue<K, T> {
    fn default() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            next_seq: 0,
        }
    }
}

impl<K: Ord, T> EventQueue<K, T> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` to fire at `at`, after every event already
    /// scheduled for `at` with a smaller or equal `key`.
    pub fn schedule(&mut self, at: Nanos, key: K, payload: T) {
        self.events.insert((at, key, self.next_seq), payload);
        self.next_seq += 1;
    }

    /// Pop the earliest event, returning its firing time and payload.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        let ((at, ..), payload) = self.events.pop_first()?;
        Some((at, payload))
    }

    /// Firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.events.first_key_value().map(|((at, ..), _)| *at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(30), (), "c");
        q.schedule(Nanos(10), (), "a");
        q.schedule(Nanos(20), (), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn unit_key_ties_pop_in_insertion_order() {
        // A unit key adds no tie rule beyond arrival order.
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos(5), (), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_pop_by_key_then_insertion() {
        // The serving agenda's rule: (arrivals before landings, id).
        let mut q = EventQueue::new();
        q.schedule(Nanos(5), (true, 9), "land 9");
        q.schedule(Nanos(5), (true, 3), "land 3");
        q.schedule(Nanos(5), (false, 7), "arrive 7");
        q.schedule(Nanos(5), (true, 3), "land 3 again");
        q.schedule(Nanos(4), (true, 99), "earlier");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(
            order,
            vec!["earlier", "arrive 7", "land 3", "land 3 again", "land 9"]
        );
    }

    #[test]
    fn peek_time_agrees_with_pop() {
        let mut q = EventQueue::new();
        for (i, t) in [40u64, 10, 30, 10, 20].into_iter().enumerate() {
            q.schedule(Nanos(t), i % 2, i);
        }
        while let Some(peeked) = q.peek_time() {
            let (at, _) = q.pop().expect("peeked an event");
            assert_eq!(at, peeked);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(7), (), ());
        assert_eq!(q.peek_time(), Some(Nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), (), 1);
        let (t, v) = q.pop().unwrap();
        assert_eq!((t, v), (Nanos(10), 1));
        q.schedule(Nanos(5), (), 2); // earlier than a previously-popped event is fine
        assert_eq!(q.pop().unwrap().1, 2);
    }
}
