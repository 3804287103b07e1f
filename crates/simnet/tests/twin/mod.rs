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

/// One wheel lap, and so one far epoch: `TimerWheel` files an entry at
/// least this far past its horizon under the epoch `time / HORIZON`.
pub const HORIZON: u64 = 4096;

/// Pushes at the horizon's edge (`+ 4095` stays in the wheel, `+ 4096`
/// is far) and at the last tick of one epoch and the first of the next,
/// from the start and again after the horizon has moved.
pub fn far_level_horizon_edges() {
    let mut twin = Twin::new();
    twin.push(HORIZON - 1);
    twin.push(HORIZON);
    twin.push(3 * HORIZON - 1);
    twin.push(3 * HORIZON);
    twin.push(10);
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(10));
    twin.push(10 + HORIZON - 1);
    twin.push(10 + HORIZON);
    twin.push(5 * HORIZON - 1);
    twin.push(5 * HORIZON);
    twin.drain();
}

/// A timer saturated at `u64::MAX` sits in the last epoch and pops last,
/// after entries in the epoch just before it.
pub fn far_level_saturated_timer() {
    let mut twin = Twin::new();
    twin.push(u64::MAX);
    twin.push(5);
    twin.push(u64::MAX - HORIZON);
    twin.push(u64::MAX - 1);
    twin.push(u64::MAX);
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(5));
    assert_eq!(twin.pop_before(u64::MAX - HORIZON - 1), None);
    assert_eq!(
        twin.pop_before(u64::MAX - 1).map(|(t, ..)| t),
        Some(u64::MAX - HORIZON)
    );
    assert_eq!(
        twin.pop_before(u64::MAX - 1).map(|(t, ..)| t),
        Some(u64::MAX - 1)
    );
    assert_eq!(twin.pop_before(u64::MAX - 1), None);
    twin.push(u64::MAX - 1);
    twin.drain();
}

/// Far pushes while a slot is open (half drained) land in their epochs
/// and pop in order after the open tick, beside a same-tick push.
pub fn far_level_pushes_while_a_slot_is_open() {
    let mut twin = Twin::new();
    for _ in 0..3 {
        twin.push(9);
    }
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(9));
    twin.push(9 + HORIZON);
    twin.push(9 + HORIZON - 1);
    twin.push(3 * HORIZON + 1);
    twin.push(9 + 5000);
    twin.push(9);
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(9));
    twin.push(2 * HORIZON);
    twin.drain();
}

/// A bounded pop whose limit falls between an epoch's start and its
/// first entry returns nothing; the entry and a past-time push made
/// afterwards still pop in order.
pub fn far_level_limit_inside_an_epoch() {
    let mut twin = Twin::new();
    let start = 5 * HORIZON;
    twin.push(start + 100);
    twin.push(start + 2 * HORIZON + 3);
    assert_eq!(twin.pop_before(start - 1), None);
    assert_eq!(twin.pop_before(start + 50), None);
    twin.push(start + 60);
    twin.push(start - 10);
    assert_eq!(
        twin.pop_before(start + 50).map(|(t, ..)| t),
        Some(start - 10)
    );
    assert_eq!(
        twin.pop_before(start + 99).map(|(t, ..)| t),
        Some(start + 60)
    );
    assert_eq!(twin.pop_before(start + 99), None);
    twin.drain();
}

/// `peek_time` with only far entries pending reports the earliest, also
/// when it was not the first pushed into its epoch.
pub fn far_level_peek_with_only_far_entries() {
    let mut twin = Twin::new();
    twin.push(3 * HORIZON - 1);
    twin.push(2 * HORIZON + 300);
    twin.push(7 * HORIZON);
    assert_eq!(twin.wheel.peek_time(), Some(2 * HORIZON + 300));
    assert_eq!(twin.heap.peek_time(), Some(2 * HORIZON + 300));
    twin.drain();
}

/// Epochs far apart, with empty epochs between them, and pushes between
/// pops that open new epochs behind and ahead of the pending ones.
pub fn far_level_multi_epoch_gaps() {
    let mut twin = Twin::new();
    for time in [1000 * HORIZON, 3 * HORIZON + 7, 50 * HORIZON + 1, 1 << 40] {
        twin.push(time);
    }
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(3 * HORIZON + 7));
    twin.push(20 * HORIZON);
    twin.push(4 * HORIZON);
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(4 * HORIZON));
    twin.push(1000 * HORIZON);
    twin.push((1 << 40) - 1);
    twin.drain();
}

/// Seed `seed`'s 2000-operation workload in which most pushes are far
/// (one to sixteen epochs out, now and then up to 2^40 ticks or at
/// `u64::MAX`), with bounded pops, then a full drain.
pub fn randomized_far_workload(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut twin = Twin::new();
    let mut now = 0u64;
    for _ in 0..2000 {
        if twin.wheel.is_empty() || rng.gen_range(0..100u32) < 50 {
            let time = match rng.gen_range(0..20u32) {
                0..=3 => now.saturating_add(rng.gen_range(0..HORIZON)),
                4..=17 => now.saturating_add(rng.gen_range(HORIZON..=16 * HORIZON)),
                18 => now.saturating_add(rng.gen_range(0..=1u64 << 40)),
                _ => u64::MAX,
            };
            twin.push(time);
        } else {
            let limit = now.saturating_add(rng.gen_range(0..=2 * HORIZON));
            if let Some((time, _, _)) = twin.pop_before(limit) {
                now = now.max(time);
            } else {
                now = limit;
            }
        }
    }
    twin.drain();
}
