//! The `theta-sweep` driver: θ-tuning curves for the scalable ring-TME
//! model at n ∈ {10³ … 10⁶}.
//!
//! The paper's qualitative remark — wrapper timeout θ trades recovery
//! latency against redundant messages — is measured here *at scale*, on
//! the token-ring model whose per-process state is O(1) (see
//! [`graybox_tme::ring`](mod@graybox_tme::ring)). Each sweep point:
//!
//! 1. builds an n-process ring with regeneration timeout θ and ramps a
//!    wave of client requests onto it;
//! 2. runs on the allocation-free quiet path until the ring has warmed up
//!    (grants flowing);
//! 3. kills the circulating token — the head of an in-flight channel
//!    chosen through the oplog'd fault-targeting draw — and immediately
//!    schedules a fresh wave of requests that the dead ring cannot serve;
//! 4. polls in θ/8-sized chunks for the first post-loss grant; the elapsed
//!    virtual time is the **recovery latency**;
//! 5. compares messages-per-grant *during the fault-free warmup window*
//!    against an infinite-θ run of the identical workload over the same
//!    window — the **message overhead** of running the regeneration rule
//!    at that θ (spurious regenerations whenever a legitimate circulation
//!    outlasts the timeout).
//!
//! Small θ ⇒ fast recovery but spurious regenerations whenever a
//! legitimate circulation outlasts θ (overhead > 1); large θ ⇒ no wasted
//! messages but a long dead window after a real loss.

use std::time::Instant;

use graybox_clock::ProcessId;
use graybox_rng::rngs::SmallRng;
use graybox_rng::SeedableRng;
use graybox_simnet::{SimConfig, SimTime, Simulation};
use graybox_tme::{ring, RingConfig, RingProc, TmeClient};

use crate::table::Table;

/// Everything measured at one `(n, θ, seed)` sweep point.
#[derive(Debug, Clone, Copy)]
pub struct PointOutcome {
    /// Ring size.
    pub n: u32,
    /// Regeneration timeout used.
    pub theta: u64,
    /// Virtual ticks from token loss to the first subsequent grant, or
    /// `None` if the ring never recovered within the polling horizon
    /// (64 θ).
    pub recovery_ticks: Option<u64>,
    /// Messages per grant over the fault-free warmup window at this θ.
    pub msgs_per_grant: f64,
    /// Messages per grant for an infinite-θ run of the same workload over
    /// the same window.
    pub ideal_msgs_per_grant: f64,
    /// `msgs_per_grant / ideal_msgs_per_grant` — the θ tax.
    pub overhead: f64,
    /// Token regenerations fired across the ring.
    pub regens: u64,
    /// Events executed by the faulty run.
    pub events: u64,
    /// Wall-clock milliseconds for the faulty run (quiet path).
    pub wall_ms: u128,
}

/// θ grid charted for each ring size, as multiples of n: the interesting
/// region brackets one token circulation (≈ 4.5 n ticks at the default
/// 1..=8 delay range).
pub const THETA_OVER_N: [u64; 5] = [1, 2, 4, 8, 16];

fn build(n: u32, theta: u64, seed: u64) -> Simulation<RingProc> {
    let cfg = RingConfig { theta, eat_for: 2 };
    Simulation::new(ring(n, cfg), SimConfig::with_seed(seed))
}

/// Ramps `count` staggered requests across the ring starting at `from`.
fn ramp(sim: &mut Simulation<RingProc>, n: u32, count: u32, from: SimTime, spread: u64) {
    for i in 0..count {
        let pid = ProcessId((i.wrapping_mul(2_654_435_761)) % n);
        let at = from + 1 + (u64::from(i) * spread) / u64::from(count.max(1));
        sim.schedule_client(at, pid, TmeClient::Request { eat_for: 2 });
    }
}

fn total_entries(sim: &Simulation<RingProc>) -> u64 {
    sim.processes().map(|p| p.stats().entries).sum()
}

fn total_regens(sim: &Simulation<RingProc>) -> u64 {
    sim.processes().map(|p| p.stats().regens).sum()
}

/// Runs one `(n, θ, seed)` sweep point; see the module docs for the
/// phases. This is also the workload behind the `theta_sweep/*` bench
/// rows, so its cost profile is pinned there.
pub fn sweep_point(n: u32, theta: u64, seed: u64) -> PointOutcome {
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x517E);
    let mut sim = build(n, theta, seed);
    let requests = n.min(512);
    let warmup = u64::from(n) * 6; // ≳ one circulation at max delay
    ramp(&mut sim, n, requests, SimTime::ZERO, warmup / 2);
    let mut events = sim.run_until_quiet(SimTime::from(warmup));
    // The θ tax, measured where it is well-defined: messages-per-grant
    // over the fault-free warmup window, against an infinite-θ run of the
    // identical workload over the identical window. Only the timeout
    // differs, so the ratio isolates spurious regeneration traffic.
    let warm_msgs = sim.stats().sent;
    let warm_grants = total_entries(&sim).max(1);

    // Kill the token. It is either in flight (drop the chosen channel's
    // head) or held by an eater (keep stepping briefly until it moves).
    let mut dropped = false;
    for _ in 0..64 {
        let channels: Vec<_> = sim.nonempty_channels().collect();
        if !channels.is_empty() {
            let pick = sim.draw_fault_in(&mut rng, 0, (channels.len() - 1) as u64);
            let (from, to, _) = channels[usize::try_from(pick).expect("index fits")];
            sim.drop_message(from, to, 0);
            dropped = true;
            break;
        }
        // Jump to the next pending event if it lies beyond the nudge:
        // `run_until_quiet` only advances time by executing events.
        let Some(upcoming) = sim.peek_time() else {
            break;
        };
        let next = (sim.now() + 4).max(upcoming);
        events += sim.run_until_quiet(next);
    }
    let loss_at = sim.now();
    let grants_at_loss = total_entries(&sim);

    // Fresh demand the dead ring cannot serve until regeneration.
    ramp(&mut sim, n, 64, loss_at, 64);

    // Chunked polling: cheap enough to bound the latency measurement to
    // one chunk (≈ θ/8) without per-step bookkeeping on the quiet path.
    let chunk = (theta / 8).max(16);
    let give_up = loss_at + theta.saturating_mul(64);
    let mut recovery_ticks = None;
    while sim.now() < give_up {
        // The dead window between loss and the first regeneration timer
        // can exceed a chunk; skip straight to the next pending event so
        // the loop always makes progress (`run_until_quiet` advances time
        // only by executing events).
        let Some(upcoming) = sim.peek_time() else {
            break;
        };
        let next = (sim.now() + chunk).max(upcoming);
        events += sim.run_until_quiet(next);
        if total_entries(&sim) > grants_at_loss {
            recovery_ticks = Some(sim.now().since(loss_at));
            break;
        }
    }
    let wall_ms = start.elapsed().as_millis();

    // Fault-free baseline: the same workload over the same warmup window
    // with θ pushed beyond any horizon this run can reach.
    let mut ideal = build(n, u64::MAX / 4, seed);
    ramp(&mut ideal, n, requests, SimTime::ZERO, warmup / 2);
    ideal.run_until_quiet(SimTime::from(warmup));
    let ideal_grants = total_entries(&ideal).max(1);
    let ideal_msgs = ideal.stats().sent;

    let msgs_per_grant = warm_msgs as f64 / warm_grants as f64;
    let ideal_msgs_per_grant = ideal_msgs as f64 / ideal_grants as f64;
    let _ = dropped;
    PointOutcome {
        n,
        theta,
        recovery_ticks,
        msgs_per_grant,
        ideal_msgs_per_grant,
        overhead: msgs_per_grant / ideal_msgs_per_grant.max(f64::MIN_POSITIVE),
        regens: total_regens(&sim),
        events,
        wall_ms,
    }
}

/// Renders the θ-sweep section for the given ring sizes: one table per
/// n, rows over the θ grid.
pub fn render_sweep(sizes: &[u32], seed: u64) -> String {
    let mut out = String::new();
    out.push_str(
        "## S1 — θ-tuning curves at scale (ring TME, timer-wheel engine)\n\n\
         *Claim:* the paper's θ tradeoff — recovery latency rises with θ while\n\
         message overhead falls — holds at 10³–10⁶ processes, and the sharded\n\
         simulator makes the measurement routine.\n\n\
         Recovery latency is virtual ticks from killing the circulating token to\n\
         the first subsequent CS grant; message overhead is messages-per-grant\n\
         over the fault-free warmup window relative to an infinite-θ run of the\n\
         identical workload over the identical window (the regeneration rule's\n\
         spurious-timeout tax).\n\n",
    );
    for &n in sizes {
        out.push_str(&format!("### n = {n}\n\n"));
        let mut table = Table::new(&[
            "θ (ticks)",
            "θ/n",
            "recovery (ticks)",
            "msgs/grant",
            "ideal msgs/grant",
            "overhead ×",
            "regens",
            "events",
            "wall (ms)",
        ]);
        for multiple in THETA_OVER_N {
            let theta = u64::from(n).saturating_mul(multiple);
            let point = sweep_point(n, theta, seed);
            table.row(vec![
                point.theta.to_string(),
                multiple.to_string(),
                point
                    .recovery_ticks
                    .map_or_else(|| "—".to_string(), |t| t.to_string()),
                format!("{:.2}", point.msgs_per_grant),
                format!("{:.2}", point.ideal_msgs_per_grant),
                format!("{:.2}", point.overhead),
                point.regens.to_string(),
                point.events.to_string(),
                point.wall_ms.to_string(),
            ]);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_recovers_and_measures() {
        let point = sweep_point(200, 1_600, 11);
        assert_eq!(point.n, 200);
        assert!(point.events > 0);
        assert!(
            point.recovery_ticks.is_some(),
            "ring never recovered from token loss"
        );
        assert!(point.msgs_per_grant > 0.0);
        assert!(point.ideal_msgs_per_grant > 0.0);
    }

    #[test]
    fn smaller_theta_recovers_faster_at_fixed_size() {
        // The core qualitative claim, at smoke scale: θ and recovery
        // latency move together (token loss sits dead until θ expires).
        let fast = sweep_point(128, 128 * 2, 5);
        let slow = sweep_point(128, 128 * 16, 5);
        let (fast_t, slow_t) = (
            fast.recovery_ticks.expect("recovers"),
            slow.recovery_ticks.expect("recovers"),
        );
        assert!(
            fast_t < slow_t,
            "θ={} recovered in {fast_t} but θ={} in {slow_t}",
            fast.theta,
            slow.theta
        );
    }

    #[test]
    fn render_produces_a_table_per_size() {
        let section = render_sweep(&[64], 3);
        assert!(section.contains("### n = 64"));
        assert!(section.contains("θ (ticks)"));
    }
}
