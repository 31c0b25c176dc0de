//! The scheduler: arrival release into one bounded queue, and the wave
//! former that pops its head.
//!
//! Sim-time flow: the serving layer `submit`s arrivals, then alternates
//! `release(now)` / `form_wave(now, cap)` as its wave clock advances,
//! using `next_arrival()` to jump over idle gaps. Every decision is a
//! pure function of (config, submitted arrivals, the clamp-driven cap
//! sequence), so a run is exactly replayable.

use bao_common::{BaoError, Result, SimDuration};
use std::collections::VecDeque;

/// Overload policy. Both bounds default to off.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedConfig {
    /// A query released into a queue already this deep is shed to arm 0.
    /// `None` leaves the queue unbounded.
    pub queue_depth: Option<usize>,
    /// A query that has waited longer than this by dispatch is shed to
    /// arm 0. `None` disables deadline shedding.
    pub shed_deadline: Option<SimDuration>,
}

impl SchedConfig {
    /// No bound and no deadline: dispatch in exact arrival order and
    /// never shed. The name is kept for the repo benchmark, which calls
    /// it.
    pub fn single_tenant() -> SchedConfig {
        SchedConfig::default()
    }
}

/// One query's arrival: which workload step, and when (in sim-time). The
/// serving layer's closed-loop default is [`QueryArrival::step`].
#[derive(Debug, Clone, Copy)]
pub struct QueryArrival {
    /// Workload step index this arrival executes.
    pub idx: usize,
    pub arrival: SimDuration,
}

impl QueryArrival {
    /// Closed-loop default: already arrived at time zero.
    pub fn step(idx: usize) -> QueryArrival {
        QueryArrival { idx, arrival: SimDuration::ZERO }
    }
}

/// A dispatch decision handed to the serving layer: execute step `idx`;
/// if `shed`, degrade to arm 0 with no TCNN scoring.
#[derive(Debug, Clone, Copy)]
pub struct Dispatch {
    pub idx: usize,
    pub arrival: SimDuration,
    pub shed: bool,
}

/// The admission scheduler. See the module docs for the driving protocol.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedConfig,
    /// Not-yet-arrived submissions, sorted by (arrival, submission).
    pending: VecDeque<QueryArrival>,
    /// Released, not yet dispatched; `shed` is set by the depth bound.
    queue: VecDeque<Dispatch>,
}

impl Scheduler {
    /// Fails on a deadline that is negative or not finite.
    pub fn new(cfg: SchedConfig) -> Result<Scheduler> {
        if let Some(d) = cfg.shed_deadline {
            if !(d.is_finite() && d >= SimDuration::ZERO) {
                return Err(BaoError::Config(format!("shed deadline {d:?} is not a sim-time")));
            }
        }
        Ok(Scheduler { cfg, pending: VecDeque::new(), queue: VecDeque::new() })
    }

    /// Register a batch of arrivals, in any order. The pending set stays
    /// sorted by arrival with a stable sort, so ties release in
    /// submission order.
    pub fn submit(&mut self, arrivals: &[QueryArrival]) -> Result<()> {
        if let Some(a) = arrivals.iter().find(|a| !a.arrival.is_finite()) {
            return Err(BaoError::Config(format!(
                "arrival for step {} is not a finite sim-time",
                a.idx
            )));
        }
        self.pending.extend(arrivals);
        self.pending
            .make_contiguous()
            .sort_by(|a, b| a.arrival.as_ms().total_cmp(&b.arrival.as_ms()));
        Ok(())
    }

    /// Move every pending arrival with `arrival <= now` into the queue. An
    /// arrival released into a queue already `queue_depth` deep is marked
    /// shed (executed on arm 0, never dropped).
    pub fn release(&mut self, now: SimDuration) {
        while let Some(a) = self.pending.front().copied().filter(|a| a.arrival <= now) {
            self.pending.pop_front();
            let shed = self.cfg.queue_depth.is_some_and(|bound| self.queue.len() >= bound);
            self.queue.push_back(Dispatch { idx: a.idx, arrival: a.arrival, shed });
        }
    }

    /// Queries in the queue (released, not yet dispatched).
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// The earliest pending arrival, `None` once everything is released.
    pub fn next_arrival(&self) -> Option<SimDuration> {
        self.pending.front().map(|a| a.arrival)
    }

    /// Form the next wave: up to `cap` queue heads, dispatched at sim-time
    /// `now`. The cap carries every serving-layer clamp (concurrency,
    /// coalesce window, retrain boundary, cache-feature mode, epoch
    /// remainder). A head that has waited past the deadline is shed.
    pub fn form_wave(&mut self, now: SimDuration, cap: usize) -> Vec<Dispatch> {
        let n = cap.min(self.queue.len());
        let deadline = self.cfg.shed_deadline;
        self.queue
            .drain(..n)
            .map(|d| Dispatch {
                shed: d.shed || deadline.is_some_and(|t| now - d.arrival > t),
                ..d
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_common::rng::{split_seed, Rng, Xoshiro256};

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_ms(x as f64)
    }

    fn closed_loop(n: usize) -> Vec<QueryArrival> {
        (0..n).map(QueryArrival::step).collect()
    }

    #[test]
    fn single_tenant_dispatches_in_exact_arrival_order() {
        for cap in [1usize, 3, 8] {
            let mut s = Scheduler::new(SchedConfig::single_tenant()).unwrap();
            s.submit(&closed_loop(17)).unwrap();
            s.release(SimDuration::ZERO);
            let mut order = Vec::new();
            loop {
                let wave = s.form_wave(SimDuration::ZERO, cap);
                if wave.is_empty() {
                    break;
                }
                assert!(wave.len() <= cap && wave.iter().all(|d| !d.shed));
                order.extend(wave.iter().map(|d| d.idx));
            }
            assert_eq!(order, (0..17).collect::<Vec<_>>(), "cap {cap}");
        }
    }

    #[test]
    fn depth_bound_sheds_overflow_and_deadline_sheds_stale() {
        let cfg = SchedConfig { queue_depth: Some(2), shed_deadline: Some(ms(10)) };
        let mut s = Scheduler::new(cfg).unwrap();
        s.submit(&closed_loop(4)).unwrap();
        s.release(SimDuration::ZERO);
        // Queue bound 2: arrivals 2 and 3 released over depth are shed.
        let wave = s.form_wave(SimDuration::ZERO, 4);
        let shed: Vec<bool> = wave.iter().map(|d| d.shed).collect();
        assert_eq!(shed, vec![false, false, true, true]);
        // A fresh arrival dispatched long past the deadline is shed too.
        s.submit(&[QueryArrival::step(4)]).unwrap();
        s.release(ms(50));
        let wave = s.form_wave(ms(50), 1);
        assert!(wave[0].shed, "waited 50ms > 10ms deadline");
    }

    #[test]
    fn rejects_a_negative_or_non_finite_deadline_and_arrival() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = SchedConfig {
                shed_deadline: Some(SimDuration::from_ms(bad)),
                ..SchedConfig::default()
            };
            assert!(Scheduler::new(cfg).is_err(), "deadline {bad}");
            let mut s = Scheduler::new(SchedConfig::default()).unwrap();
            let a = QueryArrival { idx: 0, arrival: SimDuration::from_ms(bad) };
            assert_eq!(s.submit(&[a]).is_err(), !bad.is_finite(), "arrival {bad}");
        }
    }

    /// 64 seeded cases: arrivals with ties, submitted in a permuted order
    /// over several `submit` calls, drained under a random depth bound,
    /// deadline and cap sequence, against a reference model of the queue.
    #[test]
    fn queue_dispatches_each_arrival_once_in_stable_arrival_order_and_sheds_by_its_bounds() {
        for case in 0..64u64 {
            let mut rng = Xoshiro256::seed_from_u64(split_seed(42, case));
            let n = rng.gen_range(1..=40usize);
            // Eight arrival instants for up to 40 arrivals: ties are common.
            let mut submitted: Vec<QueryArrival> = (0..n)
                .map(|idx| QueryArrival { idx, arrival: ms(5 * rng.gen_range(0..8u64)) })
                .collect();
            rng.shuffle(&mut submitted);
            let queue_depth = rng.gen_bool(0.5).then(|| rng.gen_range(0..6usize));
            let shed_deadline = rng.gen_bool(0.5).then(|| ms(rng.gen_range(0..40u64)));
            let cfg = SchedConfig { queue_depth, shed_deadline };
            let mut s = Scheduler::new(cfg).unwrap();
            let mut rest = &submitted[..];
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                s.submit(batch).unwrap();
                rest = tail;
            }

            // Reference: the stable sort of the submission order by arrival,
            // released by a cursor, with the queue length counted here.
            let mut expected = submitted.clone();
            expected.sort_by(|a, b| a.arrival.as_ms().total_cmp(&b.arrival.as_ms()));
            let mut released = 0usize;
            let mut queued = 0usize;
            let mut shed_at_release = vec![false; n];
            let mut dispatched: Vec<Dispatch> = Vec::new();
            let mut now = SimDuration::ZERO;
            loop {
                s.release(now);
                while released < n && expected[released].arrival <= now {
                    let bound_hit = queue_depth.is_some_and(|b| queued >= b);
                    shed_at_release[expected[released].idx] = bound_hit;
                    released += 1;
                    queued += 1;
                }
                assert_eq!(s.queued_len(), queued, "case {case}");
                if queued == 0 {
                    match s.next_arrival() {
                        Some(t) => {
                            assert!(t > now, "case {case}: next arrival {t:?} not after {now:?}");
                            now = t;
                            continue;
                        }
                        None => break,
                    }
                }
                let cap = rng.gen_range(1..=5usize);
                let wave = s.form_wave(now, cap);
                assert_eq!(wave.len(), cap.min(queued), "case {case}");
                for d in &wave {
                    let late = shed_deadline.is_some_and(|t| now - d.arrival > t);
                    assert_eq!(
                        d.shed,
                        shed_at_release[d.idx] || late,
                        "case {case}: step {} (late {late})",
                        d.idx
                    );
                }
                queued -= wave.len();
                dispatched.extend(wave);
                now += ms(rng.gen_range(0..=12u64));
            }

            // Every step exactly once, in the stable arrival order.
            let order: Vec<usize> = dispatched.iter().map(|d| d.idx).collect();
            let want: Vec<usize> = expected.iter().map(|a| a.idx).collect();
            assert_eq!(order, want, "case {case}");
            if queue_depth.is_none() && shed_deadline.is_none() {
                assert!(dispatched.iter().all(|d| !d.shed), "case {case}");
            }
        }
    }
}
