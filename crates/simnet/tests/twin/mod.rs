//! The wheel/heap twin: a [`TimerWheel`] and the oracle [`HeapQueue`]
//! driven through the same pushes and pops, asserting identical pop
//! streams, peek times and lengths throughout, plus the seeded random
//! workloads the twin suite and the root digest test run through it.

use graybox_oracles::queue::HeapQueue;
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};
use graybox_simnet::{EventQueue, PackedEvent, TimerWheel};

fn ev(n: u32) -> PackedEvent {
    PackedEvent::timer(n, n)
}

/// Drives a wheel and a heap through the same workload, asserting
/// identical pop streams and peek times throughout.
pub struct Twin {
    pub wheel: TimerWheel,
    pub heap: HeapQueue,
    seq: u64,
}

impl Twin {
    pub fn new() -> Self {
        Twin {
            wheel: TimerWheel::default(),
            heap: HeapQueue::default(),
            seq: 0,
        }
    }

    pub fn push(&mut self, time: u64) {
        let seq = self.seq;
        self.seq += 1;
        let event = ev(u32::try_from(seq % 1000).unwrap());
        self.wheel.push(time, seq, event);
        self.heap.push(time, seq, event);
    }

    pub fn pop(&mut self) -> Option<(u64, u64, PackedEvent)> {
        assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
        assert_eq!(self.wheel.len(), self.heap.len());
        let w = self.wheel.pop();
        let h = self.heap.pop();
        assert_eq!(w, h, "wheel and heap diverged");
        w
    }

    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, PackedEvent)> {
        assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
        let w = self.wheel.pop_at_or_before(limit);
        let h = self.heap.pop_at_or_before(limit);
        assert_eq!(w, h, "bounded pops diverged at limit {limit}");
        assert_eq!(self.wheel.len(), self.heap.len());
        w
    }

    pub fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty() && self.heap.is_empty());
    }
}

/// Seed `seed`'s 2000-operation workload of pushes (near, past-horizon
/// and far timers) and bounded pops, then a full drain.
pub fn randomized_bounded_workload(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut twin = Twin::new();
    let mut now = 0u64;
    for _ in 0..2000 {
        if twin.wheel.is_empty() || rng.gen_range(0..100u32) < 50 {
            let delta = match rng.gen_range(0..10u32) {
                0..=6 => rng.gen_range(0..=16u64),
                7 | 8 => rng.gen_range(0..=4500u64),
                _ => rng.gen_range(0..=60_000u64),
            };
            twin.push(now + delta);
        } else {
            let limit = now + rng.gen_range(0..=32u64);
            if let Some((time, _, _)) = twin.pop_before(limit) {
                now = now.max(time);
            } else {
                // Nothing within the bound: jump to the next event.
                now = twin.wheel.peek_time().unwrap_or(now);
            }
        }
    }
    twin.drain();
}

/// Seed `seed`'s 2000-operation workload of pushes (including past-time
/// ones) and unbounded pops, then a full drain.
pub fn randomized_workload(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut twin = Twin::new();
    let mut now = 0u64;
    for _ in 0..2000 {
        if twin.wheel.is_empty() || rng.gen_range(0..100u32) < 55 {
            let delta = match rng.gen_range(0..10u32) {
                0..=6 => rng.gen_range(0..=16u64),
                7 | 8 => rng.gen_range(0..=4500u64),
                _ => rng.gen_range(0..=60_000u64),
            };
            // Occasionally schedule in the past, like a client
            // event at an already-elapsed time.
            let time = if rng.gen_range(0..10u32) == 0 {
                now.saturating_sub(rng.gen_range(0..=100))
            } else {
                now + delta
            };
            twin.push(time);
        } else if let Some((time, _, _)) = twin.pop() {
            now = now.max(time);
        }
    }
    twin.drain();
}
