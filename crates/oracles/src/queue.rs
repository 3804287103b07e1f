//! The pre-wheel scheduler: the oracle for
//! [`TimerWheel`](graybox_simnet::TimerWheel).
//!
//! [`HeapQueue`] keeps every pending event in one global binary min-heap
//! over `(time, seq)` keys, the discipline of the `BinaryHeap` the
//! simulator used before the timer wheel, O(log E) per operation. It
//! plugs into the simulator through [`EventQueue`]:
//! `Simulation<P, HeapQueue>` runs a simulation on it. The twin suites
//! (`crates/simnet/tests/queue_twin.rs`) pop both queues in lockstep;
//! `graybox-bench` times the wheel against it (the `heap-ref` rows).
//!
//! The min-heap below is a copy of the one the wheel keeps for its
//! overdue and overflow levels, not a shared type, so a heap bug cannot
//! show up identically on both sides of a comparison.

use graybox_simnet::{EventQueue, PackedEvent};

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    seq: u64,
    event: PackedEvent,
}

impl Entry {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A hand-rolled binary min-heap over `(time, seq)` keys.
#[derive(Debug, Default)]
struct MinHeap {
    items: Vec<Entry>,
}

impl MinHeap {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn peek(&self) -> Option<&Entry> {
        self.items.first()
    }

    fn push(&mut self, entry: Entry) {
        self.items.push(entry);
        let mut child = self.items.len() - 1;
        while child > 0 {
            let parent = (child - 1) / 2;
            if self.items[parent].key() <= self.items[child].key() {
                break;
            }
            self.items.swap(parent, child);
            child = parent;
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.items.is_empty() {
            return None;
        }
        let top = self.items.swap_remove(0);
        let len = self.items.len();
        let mut parent = 0;
        loop {
            let left = 2 * parent + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let smaller = if right < len && self.items[right].key() < self.items[left].key() {
                right
            } else {
                left
            };
            if self.items[parent].key() <= self.items[smaller].key() {
                break;
            }
            self.items.swap(parent, smaller);
            parent = smaller;
        }
        Some(top)
    }
}

/// The reference scheduler: a single global min-heap over the full
/// `(time, seq)` key space.
#[derive(Debug, Default)]
pub struct HeapQueue {
    heap: MinHeap,
}

impl EventQueue for HeapQueue {
    fn push(&mut self, time: u64, seq: u64, event: PackedEvent) {
        self.heap.push(Entry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(u64, u64, PackedEvent)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.event))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}
