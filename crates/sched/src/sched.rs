//! The scheduler: bounded per-tenant queues, arrival release, and the
//! wave former (FIFO or deficit-round-robin with strict priority
//! classes).
//!
//! Sim-time flow: the serving layer `submit`s arrivals, then alternates
//! `release(now)` / `form_wave(now, cap)` as its wave clock advances,
//! using `next_ready(now)` to jump over idle gaps. Every decision is a
//! pure function of (config, submitted arrivals, the clamp-driven cap
//! sequence) — no wall clock, no RNG — so a run is exactly replayable.

use crate::tenant::{Priority, TenantId, TenantSpec, TokenBucket};
use bao_common::{BaoError, Result, SimDuration};
use std::collections::VecDeque;

/// Wave-forming policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WavePolicy {
    /// Global arrival order, tenant-blind (the pre-sched behaviour).
    Fifo,
    /// Deficit round robin across tenants, weight-proportional, within
    /// strict priority classes.
    Drr,
}

impl WavePolicy {
    pub fn name(self) -> &'static str {
        match self {
            WavePolicy::Fifo => "fifo",
            WavePolicy::Drr => "drr",
        }
    }
}

/// Scheduler configuration: the tenant registry plus global policy.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    pub tenants: Vec<TenantSpec>,
    pub policy: WavePolicy,
    /// DRR quantum: queries credited per weight point per round. The
    /// default of 1 gives the finest-grained interleaving.
    pub quantum: u32,
    /// Queries that have waited longer than this by dispatch time are
    /// shed to arm 0 (no TCNN scoring). `None` disables deadline shedding.
    pub shed_deadline: Option<SimDuration>,
}

impl SchedConfig {
    /// One unconstrained tenant under DRR — the configuration whose
    /// dispatch order is bit-identical to the historical FIFO former.
    pub fn single_tenant() -> SchedConfig {
        SchedConfig {
            tenants: vec![TenantSpec::new("default")],
            policy: WavePolicy::Drr,
            quantum: 1,
            shed_deadline: None,
        }
    }

    pub fn with_policy(mut self, policy: WavePolicy) -> SchedConfig {
        self.policy = policy;
        self
    }
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig::single_tenant()
    }
}

/// One query's arrival: which workload step, which tenant, and when (in
/// sim-time). The serving layer's closed-loop default is
/// [`QueryArrival::step`] — tenant 0, arrival at time zero — which
/// reproduces the tenant-blind FIFO behaviour exactly.
#[derive(Debug, Clone, Copy)]
pub struct QueryArrival {
    /// Workload step index this arrival executes.
    pub idx: usize,
    pub tenant: TenantId,
    pub arrival: SimDuration,
}

impl QueryArrival {
    /// Closed-loop default: tenant 0, already arrived at time zero.
    pub fn step(idx: usize) -> QueryArrival {
        QueryArrival { idx, tenant: 0, arrival: SimDuration::ZERO }
    }
}

/// A dispatch decision handed to the serving layer: execute step `idx`
/// for `tenant`; if `shed`, degrade to arm 0 with no TCNN scoring.
#[derive(Debug, Clone, Copy)]
pub struct Dispatch {
    pub idx: usize,
    pub tenant: TenantId,
    pub arrival: SimDuration,
    pub shed: bool,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    idx: usize,
    arrival: SimDuration,
    seq: u64,
    shed: bool,
}

/// Per-class DRR state: the rotation order (tenant ids) plus a cursor
/// that persists across waves — a wave boundary must not restart the
/// round, or a heavy tenant at the front of the order would be
/// re-credited every wave and starve everyone behind it.
#[derive(Debug)]
struct ClassState {
    members: Vec<TenantId>,
    cursor: usize,
    /// Whether the tenant under the cursor has already received its
    /// quantum credit for the current visit (guards against double
    /// crediting when a wave fills mid-service and the next wave
    /// resumes at the same tenant).
    credited: bool,
}

/// The admission scheduler. See module docs for the driving protocol.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedConfig,
    /// Not-yet-arrived submissions and their tenants, sorted by
    /// (arrival, seq).
    pending: VecDeque<(Entry, TenantId)>,
    queues: Vec<VecDeque<Entry>>,
    buckets: Vec<Option<TokenBucket>>,
    deficits: Vec<u64>,
    classes: Vec<ClassState>,
    next_seq: u64,
    // Telemetry, folded into `SchedReport` at the end of a run.
    admitted: Vec<usize>,
    served: Vec<usize>,
    shed: Vec<usize>,
    /// Plan-cache drift sheds: cached entries re-pinned to arm 0 under
    /// overload (reported by the serving layer via `note_drift_shed`).
    drift_shed: Vec<usize>,
    peak_depth: Vec<usize>,
    waits_ms: Vec<Vec<f64>>,
    served_work_ms: Vec<f64>,
}

impl Scheduler {
    pub fn new(cfg: SchedConfig) -> Result<Scheduler> {
        if cfg.tenants.is_empty() {
            return Err(BaoError::Config("scheduler needs at least one tenant".into()));
        }
        if cfg.quantum == 0 {
            return Err(BaoError::Config("DRR quantum must be >= 1".into()));
        }
        for t in &cfg.tenants {
            if t.weight == 0 {
                return Err(BaoError::Config(format!(
                    "tenant '{}' has weight 0; zero-weight tenants would starve \
                     (use Priority::Background for best-effort traffic)",
                    t.name
                )));
            }
            if let Some(r) = t.rate {
                if !(r.capacity.is_finite() && r.per_sec.is_finite()) || r.capacity < 1.0 {
                    return Err(BaoError::Config(format!(
                        "tenant '{}' has an invalid rate limit",
                        t.name
                    )));
                }
            }
        }
        let n = cfg.tenants.len();
        let mut classes = Vec::new();
        for p in [Priority::Interactive, Priority::Normal, Priority::Background] {
            let members: Vec<TenantId> = (0..n).filter(|&t| cfg.tenants[t].priority == p).collect();
            if !members.is_empty() {
                classes.push(ClassState { members, cursor: 0, credited: false });
            }
        }
        let buckets = cfg.tenants.iter().map(|t| t.rate.map(TokenBucket::new)).collect();
        Ok(Scheduler {
            pending: VecDeque::new(),
            queues: vec![VecDeque::new(); n],
            buckets,
            deficits: vec![0; n],
            classes,
            next_seq: 0,
            admitted: vec![0; n],
            served: vec![0; n],
            shed: vec![0; n],
            drift_shed: vec![0; n],
            peak_depth: vec![0; n],
            waits_ms: vec![Vec::new(); n],
            served_work_ms: vec![0.0; n],
            cfg,
        })
    }

    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Register a batch of arrivals. Arrivals may be submitted in any
    /// order; the pending set is kept sorted by (arrival, submission
    /// sequence), so ties release in submission order.
    pub fn submit(&mut self, arrivals: &[QueryArrival]) -> Result<()> {
        for a in arrivals {
            if a.tenant >= self.cfg.tenants.len() {
                return Err(BaoError::Config(format!(
                    "arrival for step {} names tenant {} but only {} are registered",
                    a.idx,
                    a.tenant,
                    self.cfg.tenants.len()
                )));
            }
            if !a.arrival.is_finite() {
                return Err(BaoError::Config(format!(
                    "arrival for step {} is not a finite sim-time",
                    a.idx
                )));
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let e = Entry { idx: a.idx, arrival: a.arrival, seq, shed: false };
            self.pending.push_back((e, a.tenant));
        }
        // One stable sort per submit keeps release a cheap front-pop.
        self.pending.make_contiguous().sort_by(|(a, _), (b, _)| {
            a.arrival.as_ms().total_cmp(&b.arrival.as_ms()).then(a.seq.cmp(&b.seq))
        });
        Ok(())
    }

    /// Move every pending arrival with `arrival <= now` into its
    /// tenant's queue. Arrivals released past the tenant's depth bound
    /// are marked shed (degraded admission — executed on arm 0, never
    /// dropped).
    pub fn release(&mut self, now: SimDuration) {
        let due = self.pending.iter().take_while(|(e, _)| e.arrival <= now).count();
        for (mut e, t) in self.pending.drain(..due) {
            self.admitted[t] += 1;
            if let Some(bound) = self.cfg.tenants[t].queue_depth {
                if self.queues[t].len() >= bound {
                    e.shed = true;
                }
            }
            self.queues[t].push_back(e);
            self.peak_depth[t] = self.peak_depth[t].max(self.queues[t].len());
        }
    }

    /// Queries sitting in tenant queues (released, not yet dispatched).
    pub fn queued_len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn tenant_ready(&self, t: TenantId, now: SimDuration) -> bool {
        !self.queues[t].is_empty() && self.buckets[t].as_ref().is_none_or(|b| b.ready(now))
    }

    /// Whether at least one query could be dispatched at `now`.
    pub fn has_dispatchable(&self, now: SimDuration) -> bool {
        (0..self.queues.len()).any(|t| self.tenant_ready(t, now))
    }

    /// Earliest sim-time at or after `now` at which something could be
    /// released or dispatched: the next pending arrival or the next
    /// token-bucket refill of a backlogged tenant. `None` means the
    /// scheduler can never make progress again (drained, or every
    /// backlogged tenant has a dry zero-rate bucket).
    pub fn next_ready(&self, now: SimDuration) -> Option<SimDuration> {
        let mut best: Option<SimDuration> = None;
        let mut consider = |t: SimDuration| {
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        };
        if let Some((front, _)) = self.pending.front() {
            consider(front.arrival.max(now));
        }
        for t in 0..self.queues.len() {
            if self.queues[t].is_empty() {
                continue;
            }
            match &self.buckets[t] {
                None => consider(now),
                Some(b) => {
                    if let Some(at) = b.ready_at(now) {
                        consider(at);
                    }
                }
            }
        }
        best
    }

    /// Form the next wave: up to `cap` dispatches at sim-time `now`.
    /// The cap carries every serving-layer clamp (concurrency, coalesce
    /// window, retrain boundary, cache-feature mode, epoch remainder);
    /// the scheduler only decides *which* queued queries fill it.
    pub fn form_wave(&mut self, now: SimDuration, cap: usize) -> Vec<Dispatch> {
        let mut out = Vec::new();
        if cap == 0 {
            return out;
        }
        match self.cfg.policy {
            WavePolicy::Fifo => self.form_fifo(now, cap, &mut out),
            WavePolicy::Drr => self.form_drr(now, cap, &mut out),
        }
        for d in &out {
            if d.shed {
                self.shed[d.tenant] += 1;
            }
        }
        out
    }

    /// Pop the queue head of tenant `t` as a dispatch, applying the
    /// deadline shed check and taking a token if the tenant is limited;
    /// `None` when the queue is empty (callers check readiness first).
    fn pop_dispatch(&mut self, t: TenantId, now: SimDuration) -> Option<Dispatch> {
        let mut e = self.queues[t].pop_front()?;
        if let Some(b) = self.buckets[t].as_mut() {
            let took = b.try_take(now);
            debug_assert!(took, "caller checked readiness");
        }
        if let Some(deadline) = self.cfg.shed_deadline {
            if now - e.arrival > deadline {
                e.shed = true;
            }
        }
        Some(Dispatch { idx: e.idx, tenant: t, arrival: e.arrival, shed: e.shed })
    }

    /// Tenant-blind global arrival order: repeatedly dispatch the ready
    /// tenant whose head entry has the smallest (arrival, seq). With one
    /// unlimited tenant this *is* the historical FIFO former.
    fn form_fifo(&mut self, now: SimDuration, cap: usize, out: &mut Vec<Dispatch>) {
        while out.len() < cap {
            let mut pick: Option<(TenantId, SimDuration, u64)> = None;
            for t in 0..self.queues.len() {
                if !self.tenant_ready(t, now) {
                    continue;
                }
                let Some(head) = self.queues[t].front() else { continue };
                let better = match pick {
                    None => true,
                    Some((_, a, s)) => {
                        head.arrival.as_ms().total_cmp(&a.as_ms()).then(head.seq.cmp(&s)).is_lt()
                    }
                };
                if better {
                    pick = Some((t, head.arrival, head.seq));
                }
            }
            match pick {
                Some((t, _, _)) => out.extend(self.pop_dispatch(t, now)),
                None => break,
            }
        }
    }

    /// Strict priority classes; classic DRR within each class. Deficits
    /// and the round cursor persist across waves, so the dispatch stream
    /// is one continuous DRR schedule that the wave boundaries merely
    /// slice — this is what makes service bounded for every tenant (the
    /// starvation-freedom property test pins it).
    fn form_drr(&mut self, now: SimDuration, cap: usize, out: &mut Vec<Dispatch>) {
        for c in 0..self.classes.len() {
            while out.len() < cap {
                let any_eligible =
                    self.classes[c].members.iter().any(|&t| self.tenant_ready(t, now));
                if !any_eligible {
                    break;
                }
                let cur = self.classes[c].cursor;
                let t = self.classes[c].members[cur];
                if !self.tenant_ready(t, now) {
                    // Empty or rate-blocked: no credit, move on. Classic
                    // DRR zeroes the deficit of an emptied queue so idle
                    // tenants cannot hoard credit.
                    if self.queues[t].is_empty() {
                        self.deficits[t] = 0;
                    }
                    self.advance_cursor(c);
                    continue;
                }
                if !self.classes[c].credited {
                    self.deficits[t] +=
                        u64::from(self.cfg.quantum) * u64::from(self.cfg.tenants[t].weight);
                    self.classes[c].credited = true;
                }
                while self.deficits[t] >= 1 && out.len() < cap && self.tenant_ready(t, now) {
                    out.extend(self.pop_dispatch(t, now));
                    self.deficits[t] -= 1;
                }
                if self.queues[t].is_empty() {
                    self.deficits[t] = 0;
                }
                if out.len() >= cap {
                    // Wave filled mid-service: leave the cursor (and its
                    // credited flag) in place so the next wave resumes
                    // exactly where this one stopped.
                    if self.deficits[t] >= 1 && self.tenant_ready(t, now) {
                        return;
                    }
                    self.advance_cursor(c);
                    return;
                }
                self.advance_cursor(c);
            }
        }
    }

    fn advance_cursor(&mut self, c: usize) {
        let class = &mut self.classes[c];
        class.cursor = (class.cursor + 1) % class.members.len();
        class.credited = false;
    }

    /// Record that a dispatched query started executing after `wait` in
    /// queue and consumed `work` of simulated execution time.
    pub fn note_served(&mut self, d: &Dispatch, wait: SimDuration, work: SimDuration) {
        self.served[d.tenant] += 1;
        self.waits_ms[d.tenant].push(wait.max(SimDuration::ZERO).as_ms());
        self.served_work_ms[d.tenant] += work.max(SimDuration::ZERO).as_ms();
    }

    /// Record that the serving layer's plan cache drift-shed one of this
    /// tenant's templates to arm 0 under overload (the cache-side twin of
    /// the admission-side shed counter; DESIGN.md §11).
    pub fn note_drift_shed(&mut self, tenant: TenantId) {
        if let Some(c) = self.drift_shed.get_mut(tenant) {
            *c += 1;
        }
    }

    /// Fold the run's telemetry into a [`crate::SchedReport`].
    pub fn report(&self, waves: usize) -> crate::SchedReport {
        crate::report::build_report(
            &self.cfg,
            waves,
            &self.admitted,
            &self.served,
            &self.shed,
            &self.drift_shed,
            &self.peak_depth,
            &self.waits_ms,
            &self.served_work_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantSpec;
    use bao_common::rng::{split_seed, Rng, Xoshiro256};

    fn drain(sched: &mut Scheduler, cap: usize) -> Vec<Vec<Dispatch>> {
        let mut waves = Vec::new();
        let mut now = SimDuration::ZERO;
        loop {
            sched.release(now);
            if !sched.has_dispatchable(now) {
                match sched.next_ready(now) {
                    Some(t) if t > now => {
                        now = t;
                        continue;
                    }
                    _ => break,
                }
            }
            let wave = sched.form_wave(now, cap);
            assert!(!wave.is_empty(), "dispatchable scheduler formed an empty wave");
            for d in &wave {
                sched.note_served(d, now - d.arrival, SimDuration::from_ms(1.0));
            }
            now += SimDuration::from_ms(wave.len() as f64);
            waves.push(wave);
        }
        waves
    }

    fn closed_loop(n: usize, tenant_of: impl Fn(usize) -> TenantId) -> Vec<QueryArrival> {
        (0..n)
            .map(|i| QueryArrival { idx: i, tenant: tenant_of(i), arrival: SimDuration::ZERO })
            .collect()
    }

    #[test]
    fn single_tenant_drr_dispatches_in_exact_arrival_order() {
        for cap in [1usize, 3, 8] {
            let mut s = Scheduler::new(SchedConfig::single_tenant()).unwrap();
            s.submit(&closed_loop(17, |_| 0)).unwrap();
            let order: Vec<usize> =
                drain(&mut s, cap).into_iter().flatten().map(|d| d.idx).collect();
            assert_eq!(order, (0..17).collect::<Vec<_>>(), "cap {cap}");
        }
    }

    #[test]
    fn fifo_and_single_tenant_drr_agree() {
        for policy in [WavePolicy::Fifo, WavePolicy::Drr] {
            let mut s = Scheduler::new(SchedConfig::single_tenant().with_policy(policy)).unwrap();
            s.submit(&closed_loop(9, |_| 0)).unwrap();
            let order: Vec<usize> = drain(&mut s, 4).into_iter().flatten().map(|d| d.idx).collect();
            assert_eq!(order, (0..9).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn drr_serves_weight_proportional_shares() {
        let cfg = SchedConfig {
            tenants: vec![
                TenantSpec::new("light").with_weight(1),
                TenantSpec::new("heavy").with_weight(3),
            ],
            policy: WavePolicy::Drr,
            quantum: 1,
            shed_deadline: None,
        };
        let mut s = Scheduler::new(cfg).unwrap();
        // Both tenants have deep backlogs; the first 12 dispatches must
        // split 3:9 between light and heavy.
        s.submit(&closed_loop(40, |i| i % 2)).unwrap();
        s.release(SimDuration::ZERO);
        let wave = s.form_wave(SimDuration::ZERO, 12);
        let heavy = wave.iter().filter(|d| d.tenant == 1).count();
        assert_eq!(wave.len(), 12);
        assert_eq!(heavy, 9, "weight-3 tenant gets 3 of every 4 slots");
    }

    #[test]
    fn strict_priority_class_preempts_lower_classes() {
        let cfg = SchedConfig {
            tenants: vec![
                TenantSpec::new("bulk").with_priority(Priority::Background),
                TenantSpec::new("oltp").with_priority(Priority::Interactive),
            ],
            policy: WavePolicy::Drr,
            quantum: 1,
            shed_deadline: None,
        };
        let mut s = Scheduler::new(cfg).unwrap();
        s.submit(&closed_loop(10, |i| i % 2)).unwrap();
        s.release(SimDuration::ZERO);
        let wave = s.form_wave(SimDuration::ZERO, 5);
        // All five interactive queries dispatch before any background one.
        assert!(wave.iter().all(|d| d.tenant == 1), "{wave:?}");
    }

    #[test]
    fn token_bucket_limits_dispatch_rate_and_next_ready_advances() {
        let cfg = SchedConfig {
            tenants: vec![TenantSpec::new("limited").with_rate(2.0, 10.0)],
            policy: WavePolicy::Drr,
            quantum: 1,
            shed_deadline: None,
        };
        let mut s = Scheduler::new(cfg).unwrap();
        s.submit(&closed_loop(4, |_| 0)).unwrap();
        s.release(SimDuration::ZERO);
        // Burst capacity is 2: the first wave stops there even with cap 4.
        let w1 = s.form_wave(SimDuration::ZERO, 4);
        assert_eq!(w1.len(), 2);
        assert!(!s.has_dispatchable(SimDuration::ZERO));
        // next_ready lands when the bucket has refilled one token (0.1s).
        let t = s.next_ready(SimDuration::ZERO).expect("refill pending");
        assert!(t.as_secs() > 0.09 && t.as_secs() < 0.2, "{t:?}");
        assert!(s.has_dispatchable(t));
        assert_eq!(s.form_wave(t, 4).len(), 1);
    }

    #[test]
    fn depth_bound_sheds_overflow_and_deadline_sheds_stale() {
        let cfg = SchedConfig {
            tenants: vec![TenantSpec::new("bounded").with_queue_depth(2)],
            policy: WavePolicy::Drr,
            quantum: 1,
            shed_deadline: Some(SimDuration::from_ms(10.0)),
        };
        let mut s = Scheduler::new(cfg).unwrap();
        s.submit(&closed_loop(4, |_| 0)).unwrap();
        s.release(SimDuration::ZERO);
        // Queue bound 2: arrivals 2 and 3 released over depth are shed.
        let wave = s.form_wave(SimDuration::ZERO, 4);
        let shed: Vec<bool> = wave.iter().map(|d| d.shed).collect();
        assert_eq!(shed, vec![false, false, true, true]);
        // A fresh arrival dispatched long past the deadline is shed too.
        s.submit(&[QueryArrival { idx: 4, tenant: 0, arrival: SimDuration::ZERO }]).unwrap();
        let late = SimDuration::from_ms(50.0);
        s.release(late);
        let wave = s.form_wave(late, 1);
        assert!(wave[0].shed, "waited 50ms > 10ms deadline");
    }

    /// Satellite: starvation freedom. Under adversarial arrival
    /// permutations (3 seeds × heavy flood ahead of light queries),
    /// every tenant with nonzero weight is first served within a bounded
    /// number of waves. The bound for persistent-cursor DRR is
    /// `sum_t(quantum * weight_t + 1)` dispatches — at one dispatch per
    /// wave minimum, the same number of waves — plus one cursor lap.
    #[test]
    fn starvation_freedom_under_adversarial_arrival_permutations() {
        let weights = [8u32, 1, 4, 1, 2];
        let quantum = 2u32;
        let n_queries = 120usize;
        let bound_dispatches: usize =
            weights.iter().map(|&w| (quantum as usize) * (w as usize) + 1).sum::<usize>()
                + weights.len();
        for seed in [7u64, 19, 4242] {
            let mut rng = Xoshiro256::seed_from_u64(split_seed(seed, 5));
            // Adversarial mix: mostly heavy-tenant floods, with each
            // light tenant appearing at least once, then shuffled.
            let mut tenants: Vec<TenantId> =
                (0..n_queries).map(|i| if i < weights.len() { i } else { 0 }).collect();
            rng.shuffle(&mut tenants);
            let cfg = SchedConfig {
                tenants: weights
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| TenantSpec::new(format!("t{i}")).with_weight(w))
                    .collect(),
                policy: WavePolicy::Drr,
                quantum,
                shed_deadline: None,
            };
            let mut s = Scheduler::new(cfg).unwrap();
            let arrivals: Vec<QueryArrival> = tenants
                .iter()
                .enumerate()
                .map(|(i, &t)| QueryArrival { idx: i, tenant: t, arrival: SimDuration::ZERO })
                .collect();
            s.submit(&arrivals).unwrap();
            let waves = drain(&mut s, 2);
            let mut first_wave = vec![None; weights.len()];
            for (w, wave) in waves.iter().enumerate() {
                for d in wave {
                    if first_wave[d.tenant].is_none() {
                        first_wave[d.tenant] = Some(w);
                    }
                }
            }
            for (t, fw) in first_wave.iter().enumerate() {
                let fw = fw.unwrap_or_else(|| panic!("seed {seed}: tenant {t} never served"));
                assert!(
                    fw <= bound_dispatches,
                    "seed {seed}: tenant {t} first served at wave {fw} > bound {bound_dispatches}"
                );
            }
        }
    }

    #[test]
    fn rejects_zero_weight_and_zero_quantum() {
        let cfg = SchedConfig {
            tenants: vec![TenantSpec::new("z").with_weight(0)],
            policy: WavePolicy::Drr,
            quantum: 1,
            shed_deadline: None,
        };
        assert!(Scheduler::new(cfg).is_err());
        let mut cfg = SchedConfig::single_tenant();
        cfg.quantum = 0;
        assert!(Scheduler::new(cfg).is_err());
    }

    #[test]
    fn report_counts_admitted_served_and_shed() {
        let cfg = SchedConfig {
            tenants: vec![
                TenantSpec::new("a").with_queue_depth(1),
                TenantSpec::new("b").with_weight(2),
            ],
            policy: WavePolicy::Drr,
            quantum: 1,
            shed_deadline: None,
        };
        let mut s = Scheduler::new(cfg).unwrap();
        s.submit(&closed_loop(8, |i| i % 2)).unwrap();
        let waves = drain(&mut s, 3);
        let n_waves = waves.len();
        let r = s.report(n_waves);
        assert_eq!(r.waves, n_waves);
        assert_eq!(r.total_admitted(), 8);
        assert_eq!(r.total_served(), 8);
        // Tenant a: 4 releases into a depth-1 queue at time zero → 3 shed.
        assert_eq!(r.tenants[0].shed, 3);
        assert_eq!(r.tenants[1].shed, 0);
        assert!(r.jain_fairness > 0.0 && r.jain_fairness <= 1.0);
    }
}
