//! The timer wheel against its oracle, the global min-heap scheduler of
//! `graybox-oracles`: queue twins popped in lockstep on hand-built edge
//! cases and seeded random workloads, and whole simulations on either
//! engine producing the same steps.

mod twin;

use graybox_clock::ProcessId;
use graybox_oracles::queue::HeapQueue;
use graybox_simnet::{
    Context, EventQueue, Process, SimConfig, SimStats, SimTime, Simulation, StepRecord, TimerTag,
};
use twin::{randomized_bounded_workload, randomized_workload, Twin};

#[test]
fn empty_queues_agree() {
    let mut twin = Twin::new();
    assert_eq!(twin.pop(), None);
    assert_eq!(twin.wheel.peek_time(), None);
}

#[test]
fn same_tick_burst_pops_in_seq_order() {
    let mut twin = Twin::new();
    for _ in 0..100 {
        twin.push(7);
    }
    let mut last_seq = None;
    while let Some((time, seq, _)) = twin.pop() {
        assert_eq!(time, 7);
        assert!(last_seq < Some(seq));
        last_seq = Some(seq);
    }
}

#[test]
fn far_timers_cross_multiple_laps() {
    let mut twin = Twin::new();
    for lap in 0..20u64 {
        twin.push(lap * 5000); // > one 4096-slot lap apart
    }
    twin.push(1);
    twin.drain();
}

#[test]
fn same_tick_entries_split_across_overflow_and_wheel_stay_ordered() {
    let mut twin = Twin::new();
    // seq 0 lands beyond the horizon (overflow); after the horizon
    // advances, seq 2 and 3 hit the *same tick* directly in the wheel.
    // Migration must merge seq 0 into that bucket ahead of them.
    twin.push(5000);
    twin.push(1000);
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(1000)); // horizon → 1000
    twin.push(5000); // now within the horizon: direct slot insert
    twin.push(5000);
    twin.drain();
}

#[test]
fn past_time_pushes_pop_before_the_horizon() {
    let mut twin = Twin::new();
    twin.push(500);
    assert_eq!(twin.pop().map(|(t, ..)| t), Some(500));
    // The wheel's horizon sits at 500 now; push strictly earlier times.
    twin.push(3);
    twin.push(499);
    twin.push(501);
    twin.drain();
}

#[test]
fn interleaved_pushes_into_the_open_bucket_keep_order() {
    let mut twin = Twin::new();
    for _ in 0..5 {
        twin.push(9);
    }
    // Drain part of the tick-9 bucket, then push more tick-9 events.
    for _ in 0..2 {
        twin.pop();
    }
    for _ in 0..4 {
        twin.push(9);
    }
    twin.drain();
}

#[test]
fn bounded_pops_respect_the_limit_and_match_the_heap() {
    let mut twin = Twin::new();
    for time in [3u64, 3, 10, 4100, 9000] {
        twin.push(time);
    }
    assert_eq!(twin.pop_before(2), None); // earliest is 3
    assert_eq!(twin.pop_before(3).map(|(t, ..)| t), Some(3));
    assert_eq!(twin.pop_before(3).map(|(t, ..)| t), Some(3));
    assert_eq!(twin.pop_before(5), None);
    assert_eq!(twin.pop_before(10).map(|(t, ..)| t), Some(10));
    // Both remaining entries sit beyond the wheel horizon.
    assert_eq!(twin.pop_before(4099), None);
    assert_eq!(twin.pop_before(4100).map(|(t, ..)| t), Some(4100));
    assert_eq!(twin.pop_before(u64::MAX).map(|(t, ..)| t), Some(9000));
    assert_eq!(twin.pop_before(u64::MAX), None);
    // Past-time pushes land in overdue; the bound applies there too.
    twin.push(17);
    assert_eq!(twin.pop_before(16), None);
    assert_eq!(twin.pop_before(17).map(|(t, ..)| t), Some(17));
}

#[test]
fn randomized_bounded_pops_match_the_heap_exactly() {
    for seed in 100..115u64 {
        randomized_bounded_workload(seed);
    }
}

#[test]
fn randomized_workloads_match_the_heap_exactly() {
    for seed in 0..30u64 {
        randomized_workload(seed);
    }
}

/// Test process: replies "pong" to "ping"; a timer with tag 9 re-arms
/// once.
#[derive(Debug)]
struct Node {
    id: ProcessId,
    timer_fires: u32,
}

impl Node {
    fn new(id: u32) -> Self {
        Node {
            id: ProcessId(id),
            timer_fires: 0,
        }
    }
}

impl Process for Node {
    type Msg = String;
    type Client = String;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_message(&mut self, from: ProcessId, msg: String, ctx: &mut Context<String>) {
        if msg == "ping" {
            ctx.send(from, "pong".to_string());
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<String>) {
        self.timer_fires += 1;
        if tag == 9 && self.timer_fires == 1 {
            ctx.set_timer(9, 5);
        }
    }

    fn on_client(&mut self, event: String, ctx: &mut Context<String>) {
        // Broadcast the event body to everyone else.
        for other in 0..2u32 {
            if ProcessId(other) != self.id {
                ctx.send(ProcessId(other), event.clone());
            }
        }
    }
}

#[test]
fn wheel_and_reference_heap_engines_are_step_identical() {
    let drive = |wheel: bool| -> (Vec<String>, SimStats) {
        let nodes = vec![Node::new(0), Node::new(1)];
        let config = SimConfig::with_seed(2024);
        let render = |records: Vec<StepRecord<String, String>>| {
            records
                .iter()
                .map(|r| format!("{} {} {:?}", r.time, r.pid, r.kind))
                .collect()
        };
        if wheel {
            let mut sim = Simulation::new(nodes, config);
            sim.schedule_client(SimTime::from(1), ProcessId(0), "a".into());
            sim.schedule_client(SimTime::from(4500), ProcessId(1), "b".into());
            sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
            (render(sim.run_until(SimTime::from(10_000))), sim.stats())
        } else {
            let mut sim: Simulation<Node, HeapQueue> = Simulation::with_queue(nodes, config);
            sim.schedule_client(SimTime::from(1), ProcessId(0), "a".into());
            sim.schedule_client(SimTime::from(4500), ProcessId(1), "b".into());
            sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
            (render(sim.run_until(SimTime::from(10_000))), sim.stats())
        }
    };
    assert_eq!(drive(true), drive(false));
}
