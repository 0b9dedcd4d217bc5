//! Admission-order policies and the admission queue that applies them.
//!
//! The orchestrator keeps arrived-but-not-yet-admitted jobs in an
//! `AdmissionQueue` and, each tick, asks it for the active [`Policy`]'s
//! next job among those whose route the breakers admit. Admission is
//! head-of-line blocking: if the policy's pick does not fit the remaining
//! link budgets, nothing behind it is admitted this tick. That keeps the
//! policies' semantics honest (SJF really is shortest-job-first, not
//! "shortest job that happens to fit") and the trace deterministic.

use std::collections::{btree_map, BTreeMap, BTreeSet};

use crate::breaker::BreakerBoard;
use crate::job::{JobId, JobSpec};
use crate::route::JobRoute;

/// How the orchestrator orders queued jobs for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First in, first out: queue-insertion order. A requeued (quarantined)
    /// or migrated (re-planned) job rejoins at the back, so this is not
    /// `(arrival, id)` order once supervision has moved a job.
    Fifo,
    /// Shortest job first by `(size, arrival, id)`.
    Sjf,
    /// Weighted fair: the job whose class (priority weight) has received the
    /// smallest admitted-count/weight ratio goes first; ties break by job id.
    WeightedFair,
}

impl Policy {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Sjf => "sjf",
            Policy::WeightedFair => "wfair",
        }
    }

    /// All policies, in report order.
    pub fn all() -> [Policy; 3] {
        [Policy::Fifo, Policy::Sjf, Policy::WeightedFair]
    }

    /// Index into `queue` (in insertion order) of the job this policy admits
    /// next, or `None` when the queue is empty. `admitted_by_class` is the
    /// per-priority admitted count so far (used by [`Policy::WeightedFair`]).
    ///
    /// This O(n) scan is the reference the fleet's admission index
    /// (`AdmissionQueue`) is tested against; the fleet never calls it.
    pub fn pick_next(self, queue: &[JobSpec], admitted_by_class: &[(u32, u32)]) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        let idx = match self {
            // The head of the queue: the earliest inserted.
            Policy::Fifo => 0,
            Policy::Sjf => queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.size_mb
                        .partial_cmp(&b.size_mb)
                        .expect("sizes are finite")
                        .then(
                            a.arrival_s
                                .partial_cmp(&b.arrival_s)
                                .expect("arrivals are finite"),
                        )
                        .then(a.id.cmp(&b.id))
                })
                .map(|(i, _)| i)
                .expect("queue non-empty"),
            Policy::WeightedFair => {
                let served = |priority: u32| -> u32 {
                    admitted_by_class
                        .iter()
                        .find(|(p, _)| *p == priority)
                        .map(|(_, n)| *n)
                        .unwrap_or(0)
                };
                // Deficit = admitted / weight; smaller deficit is hungrier.
                // Compare cross-multiplied to stay in integers (deterministic).
                queue
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da = served(a.priority) as u64 * b.priority as u64;
                        let db = served(b.priority) as u64 * a.priority as u64;
                        da.cmp(&db).then(a.id.cmp(&b.id))
                    })
                    .map(|(i, _)| i)
                    .expect("queue non-empty")
            }
        };
        Some(idx)
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Ok(Policy::Fifo),
            "sjf" => Ok(Policy::Sjf),
            "wfair" | "weighted-fair" | "weightedfair" => Ok(Policy::WeightedFair),
            other => Err(format!(
                "unknown policy '{other}' (expected fifo|sjf|wfair)"
            )),
        }
    }
}

/// Queued jobs in insertion order, plus the active policy's admission index
/// kept in step with them, so [`AdmissionQueue::pick`] finds the next job in
/// O(log n) instead of scanning the queue.
///
/// Every job gets a fresh sequence number when it is pushed; the queue is
/// keyed by it, so iteration is insertion order and removal is O(log n). The
/// index holds only keys that never change while a job is queued (size,
/// arrival, id, priority); a route rewrite ([`AdmissionQueue::set_route`])
/// leaves it untouched.
pub(crate) struct AdmissionQueue {
    jobs: BTreeMap<u64, JobSpec>,
    next_seq: u64,
    index: Index,
}

/// The per-policy admission order over queued sequence numbers.
enum Index {
    /// FIFO admits in insertion order: the queue is its own index.
    Fifo,
    /// `(size, arrival, id, seq)`, the [`Policy::Sjf`] order.
    Sjf(BTreeSet<(u64, u64, JobId, u64)>),
    /// One id-ordered set of `(id, seq)` per priority class.
    WeightedFair(BTreeMap<u32, BTreeSet<(JobId, u64)>>),
}

/// Map a non-NaN `f64` to a `u64` whose order is the float's `partial_cmp`
/// order (`-0.0` and `0.0` map to the same key, as they compare equal).
fn ord_key(x: f64) -> u64 {
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn sjf_key(spec: &JobSpec, seq: u64) -> (u64, u64, JobId, u64) {
    (ord_key(spec.size_mb), ord_key(spec.arrival_s), spec.id, seq)
}

impl AdmissionQueue {
    /// An empty queue ordered by `policy`.
    pub(crate) fn new(policy: Policy) -> Self {
        AdmissionQueue {
            jobs: BTreeMap::new(),
            next_seq: 0,
            index: match policy {
                Policy::Fifo => Index::Fifo,
                Policy::Sjf => Index::Sjf(BTreeSet::new()),
                Policy::WeightedFair => Index::WeightedFair(BTreeMap::new()),
            },
        }
    }

    /// Whether no job is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// `(seq, job)` in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &JobSpec)> {
        self.jobs.iter().map(|(&seq, j)| (seq, j))
    }

    /// The job queued under `seq`.
    ///
    /// # Panics
    /// Panics if no job is queued under `seq`.
    pub(crate) fn get(&self, seq: u64) -> &JobSpec {
        &self.jobs[&seq]
    }

    /// Append `spec` at the back of the queue.
    pub(crate) fn push(&mut self, spec: JobSpec) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.index {
            Index::Fifo => {}
            Index::Sjf(set) => {
                set.insert(sjf_key(&spec, seq));
            }
            Index::WeightedFair(classes) => {
                classes
                    .entry(spec.priority)
                    .or_default()
                    .insert((spec.id, seq));
            }
        }
        self.jobs.insert(seq, spec);
    }

    /// Take the job queued under `seq` out of the queue.
    ///
    /// # Panics
    /// Panics if no job is queued under `seq`.
    pub(crate) fn remove(&mut self, seq: u64) -> JobSpec {
        let spec = self.jobs.remove(&seq).expect("job is queued");
        match &mut self.index {
            Index::Fifo => {}
            Index::Sjf(set) => {
                set.remove(&sjf_key(&spec, seq));
            }
            Index::WeightedFair(classes) => {
                let class = classes.get_mut(&spec.priority).expect("class is indexed");
                class.remove(&(spec.id, seq));
                if class.is_empty() {
                    classes.remove(&spec.priority);
                }
            }
        }
        spec
    }

    /// Move the job queued under `seq` onto `route` (its place in the queue
    /// and in the index does not change).
    pub(crate) fn set_route(&mut self, seq: u64, route: JobRoute) {
        self.jobs.get_mut(&seq).expect("job is queued").route = route;
    }

    /// The queued jobs in insertion order.
    pub(crate) fn into_jobs(self) -> btree_map::IntoValues<u64, JobSpec> {
        self.jobs.into_values()
    }

    /// Sequence number of the job the policy admits next among those whose
    /// route `breakers` admit, or `None` when no queued job is admissible.
    /// Equals [`Policy::pick_next`] over the admissible jobs in queue order
    /// (for `wfair`, given priority weights >= 1, as
    /// [`JobSpec::with_priority`] requires).
    /// Each order is walked from its front to the first admissible job, so
    /// with every breaker closed the walk stops at the first entry.
    pub(crate) fn pick(
        &self,
        breakers: &BreakerBoard,
        admitted_by_class: &[(u32, u32)],
    ) -> Option<u64> {
        let admits = |seq: u64| breakers.route_admits(self.jobs[&seq].route.links());
        match &self.index {
            Index::Fifo => self.jobs.keys().copied().find(|&seq| admits(seq)),
            Index::Sjf(set) => set.iter().map(|k| k.3).find(|&seq| admits(seq)),
            Index::WeightedFair(classes) => {
                let served = |priority: u32| -> u64 {
                    admitted_by_class
                        .iter()
                        .find(|(p, _)| *p == priority)
                        .map_or(0, |&(_, n)| n as u64)
                };
                // Each class's candidate is its lowest admissible id; the
                // hungriest class (smallest admitted/weight, compared
                // cross-multiplied) wins, ties to the lower id.
                classes
                    .iter()
                    .filter_map(|(&p, set)| {
                        set.iter()
                            .find(|&&(_, seq)| admits(seq))
                            .map(|&(id, seq)| (p, id, seq))
                    })
                    .min_by(|&(pa, ida, _), &(pb, idb, _)| {
                        let da = served(pa) * pb as u64;
                        let db = served(pb) * pa as u64;
                        da.cmp(&db).then(ida.cmp(&idb))
                    })
                    .map(|(_, _, seq)| seq)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::job::JobSpec;
    use proptest::prelude::*;

    fn queue() -> Vec<JobSpec> {
        vec![
            JobSpec::new(0, 0.0, 300.0).with_priority(1),
            JobSpec::new(1, 5.0, 100.0).with_priority(4),
            JobSpec::new(2, 10.0, 200.0).with_priority(1),
        ]
    }

    #[test]
    fn fifo_takes_the_head() {
        assert_eq!(Policy::Fifo.pick_next(&queue(), &[]), Some(0));
    }

    #[test]
    fn sjf_takes_the_smallest() {
        assert_eq!(Policy::Sjf.pick_next(&queue(), &[]), Some(1));
    }

    #[test]
    fn sjf_breaks_size_ties_by_arrival_then_id() {
        let q = vec![
            JobSpec::new(3, 5.0, 100.0),
            JobSpec::new(1, 5.0, 100.0),
            JobSpec::new(2, 0.0, 100.0),
        ];
        assert_eq!(Policy::Sjf.pick_next(&q, &[]), Some(2));
    }

    #[test]
    fn weighted_fair_prefers_underserved_heavy_class() {
        // Class 4 has been admitted once, class 1 twice: deficits are
        // 1/4 vs 2/1, so the priority-4 job is hungrier.
        let served = [(1u32, 2u32), (4, 1)];
        assert_eq!(Policy::WeightedFair.pick_next(&queue(), &served), Some(1));
        // With class 4 heavily served, class 1 wins (earliest id first).
        let served = [(1u32, 1u32), (4, 40)];
        assert_eq!(Policy::WeightedFair.pick_next(&queue(), &served), Some(0));
    }

    #[test]
    fn empty_queue_yields_none() {
        for p in Policy::all() {
            assert_eq!(p.pick_next(&[], &[]), None);
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        for p in Policy::all() {
            let s = p.to_string();
            assert_eq!(s.parse::<Policy>().unwrap(), p);
        }
        assert_eq!(
            "weighted-fair".parse::<Policy>().unwrap(),
            Policy::WeightedFair
        );
        assert!("lifo".parse::<Policy>().is_err());
    }
    #[test]
    fn fifo_admits_a_requeued_job_behind_later_arrivals() {
        let mut q = AdmissionQueue::new(Policy::Fifo);
        for spec in queue() {
            q.push(spec);
        }
        let board = BreakerBoard::new(4, BreakerConfig::default());
        // Job 0 (the earliest arrival) is admitted, then quarantined and
        // requeued: it rejoins at the back, not at its arrival position.
        let head = q.pick(&board, &[]).expect("queue non-empty");
        let job0 = q.remove(head);
        assert_eq!(job0.id.0, 0);
        q.push(job0);
        let specs: Vec<JobSpec> = q.iter().map(|(_, j)| j.clone()).collect();
        assert_eq!(specs[0].id.0, 1, "the oracle sees insertion order too");
        assert_eq!(Policy::Fifo.pick_next(&specs, &[]), Some(0));
        let mut admitted = Vec::new();
        while let Some(seq) = q.pick(&board, &[]) {
            admitted.push(q.remove(seq).id.0);
        }
        assert_eq!(admitted, [1, 2, 0]);
    }

    #[test]
    fn ord_key_orders_like_partial_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for a in xs {
            for b in xs {
                let want = a.partial_cmp(&b).expect("no NaN");
                assert_eq!(ord_key(a).cmp(&ord_key(b)), want, "{a} vs {b}");
            }
        }
    }

    /// The index holds exactly the queued jobs, under their current keys.
    fn assert_index_matches_queue(q: &AdmissionQueue) {
        match &q.index {
            Index::Fifo => {}
            Index::Sjf(set) => {
                let want: BTreeSet<_> = q.iter().map(|(seq, j)| sjf_key(j, seq)).collect();
                assert_eq!(set, &want, "SJF index out of step with the queue");
            }
            Index::WeightedFair(classes) => {
                let mut want: BTreeMap<u32, BTreeSet<(JobId, u64)>> = BTreeMap::new();
                for (seq, j) in q.iter() {
                    want.entry(j.priority).or_default().insert((j.id, seq));
                }
                assert_eq!(classes, &want, "wfair index out of step with the queue");
            }
        }
    }

    /// Route link sets over a 4-link board: shared, disjoint and overlapping.
    const ROUTES: [&[usize]; 4] = [&[0, 1], &[0, 2], &[3], &[1, 3]];

    fn route(r: u64) -> JobRoute {
        let i = (r % ROUTES.len() as u64) as usize;
        JobRoute::new(format!("r{i}"), ROUTES[i].to_vec(), 0)
    }

    /// Run one random tape of queue and breaker operations against the
    /// indexed queue, checking every step against the slice oracle.
    fn check_tape(policy: Policy, tape: &[(u8, u64)]) {
        // One failure trips a breaker, so tapes reach open and half-open.
        let cfg = BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        };
        let mut board = BreakerBoard::new(4, cfg);
        let mut q = AdmissionQueue::new(policy);
        let mut admitted: Vec<JobSpec> = Vec::new();
        let mut by_class: Vec<(u32, u32)> = Vec::new();
        let mut next_id = 0u64;
        let mut t = 0.0;
        for &(op, r) in tape {
            t += 1.0;
            let queued: Vec<u64> = q.iter().map(|(seq, _)| seq).collect();
            let any_queued = |r: u64| queued[(r % queued.len() as u64) as usize];
            match op {
                // Arrival. Sizes, arrival times and priorities come from
                // small sets so that every tie-break is exercised; arrival
                // is independent of id, as in a workload whose ids are not
                // in arrival order.
                0..=2 => {
                    let size = [100.0, 200.0, 300.0][(r % 3) as usize];
                    let spec = JobSpec::new(next_id, (r / 9 % 4 * 5) as f64, size)
                        .with_priority([1, 2, 4][(r / 3 % 3) as usize])
                        .with_route(route(r / 36));
                    next_id += 1;
                    q.push(spec);
                }
                // Requeue to the back: a queued job, or an admitted one.
                3 => {
                    if r % 2 == 0 && !admitted.is_empty() {
                        let i = (r / 2 % admitted.len() as u64) as usize;
                        q.push(admitted.swap_remove(i));
                    } else if !queued.is_empty() {
                        let spec = q.remove(any_queued(r / 2));
                        q.push(spec);
                    }
                }
                // Shed / brownout: the fleet's victim rule on one link.
                4 => {
                    let link = (r % 4) as usize;
                    let victim = q
                        .iter()
                        .filter(|(_, j)| j.route.links().contains(&link))
                        .min_by_key(|(_, j)| (j.priority, std::cmp::Reverse(j.id)))
                        .map(|(seq, _)| seq);
                    if let Some(seq) = victim {
                        q.remove(seq);
                    }
                }
                // Reroute / replan: rewrite a queued job's route in place.
                5 => {
                    if !queued.is_empty() {
                        q.set_route(any_queued(r), route(r / 7));
                    }
                }
                // Breakers: open, half-open after the cooldown, close.
                6 => {
                    board.on_failure((r % 4) as usize, t);
                }
                7 => {
                    t += cfg.max_cooldown_s;
                    board.tick(t);
                }
                8 => {
                    board.on_success((r % 4) as usize, t);
                }
                // Admitted-by-class growth outside admission.
                9 => {
                    let p = [1, 2, 4][(r % 3) as usize];
                    match by_class.iter_mut().find(|(c, _)| *c == p) {
                        Some((_, n)) => *n += 1,
                        None => by_class.push((p, 1)),
                    }
                }
                // Admission of the pick (a half-open probe goes in flight).
                _ => {
                    if let Some(seq) = q.pick(&board, &by_class) {
                        let spec = q.remove(seq);
                        board.mark_probe(spec.route.links());
                        match by_class.iter_mut().find(|(c, _)| *c == spec.priority) {
                            Some((_, n)) => *n += 1,
                            None => by_class.push((spec.priority, 1)),
                        }
                        admitted.push(spec);
                    }
                }
            }
            assert_index_matches_queue(&q);
            let (seqs, view): (Vec<u64>, Vec<JobSpec>) = q
                .iter()
                .filter(|(_, j)| board.route_admits(j.route.links()))
                .map(|(seq, j)| (seq, j.clone()))
                .unzip();
            let want = policy.pick_next(&view, &by_class).map(|i| seqs[i]);
            assert_eq!(q.pick(&board, &by_class), want, "{policy} after op {op}");
        }
        let left: Vec<JobId> = q.iter().map(|(_, j)| j.id).collect();
        let taken: Vec<JobId> = q.into_jobs().map(|j| j.id).collect();
        assert_eq!(taken, left, "into_jobs yields insertion order");
    }

    proptest! {
        /// On random tapes of arrivals, requeues, removals, route rewrites,
        /// breaker transitions and admissions, the indexed pick equals
        /// `Policy::pick_next` over the breaker-admissible queue, for every
        /// policy, and the index always holds exactly the queued jobs.
        #[test]
        fn indexed_pick_matches_the_slice_oracle(
            tape in prop::collection::vec((0u8..12, any::<u64>()), 1..300),
        ) {
            for policy in Policy::all() {
                check_tape(policy, &tape);
            }
        }
    }
}
