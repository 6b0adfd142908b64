//! Lock-free serving metrics: monotonic counters, log-bucketed latency
//! histograms, and an EWMA service-time estimate that admission control
//! reads on every request.

use crate::request::Fidelity;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Buckets per power of two. Four sub-buckets give ≤ ~19% relative error
/// on reported quantiles — plenty for p50/p99 serving dashboards.
const SUB_BUCKETS: u64 = 4;
const N_BUCKETS: usize = (64 * SUB_BUCKETS) as usize;

/// A fixed-size log₂ histogram over nanosecond durations, recordable from
/// any thread without locks.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < 2 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as u64;
        let sub = (ns >> (exp.saturating_sub(2))) & (SUB_BUCKETS - 1);
        ((exp * SUB_BUCKETS) + sub) as usize
    }

    /// Lower edge of bucket `i` in nanoseconds (quantile resolution).
    fn bucket_floor(i: usize) -> u64 {
        let i = i as u64;
        if i < 2 {
            return i;
        }
        let exp = i / SUB_BUCKETS;
        let sub = i % SUB_BUCKETS;
        if exp < 2 {
            return 1u64 << exp;
        }
        (1u64 << exp) + (sub << (exp - 2))
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1_000.0
    }

    /// Quantile `q ∈ [0,1]` in microseconds (bucket lower edge; 0 when
    /// empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(i) as f64 / 1_000.0;
            }
        }
        Self::bucket_floor(N_BUCKETS - 1) as f64 / 1_000.0
    }
}

/// All counters the engine maintains. Everything is monotonic; rates are
/// derived in [`ServeStats`] snapshots, which fold the fast-path hit
/// counters into `submitted`, `completed` and `cache_hits`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests entering `explain`'s miss path (before any admission
    /// decision).
    pub submitted: AtomicU64,
    /// Miss-path requests answered with an attribution.
    pub completed: AtomicU64,
    /// Hits `Engine::cached` answered from the exact tier (full or coarse
    /// grade): one relaxed add each, no clock read.
    pub fast_hits: AtomicU64,
    /// Hits `Engine::cached` answered from the quantized cold tier.
    pub fast_quantized_hits: AtomicU64,
    /// Rejects: bounded queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Rejects: predicted latency exceeded the budget at admission.
    pub rejected_deadline_unmeetable: AtomicU64,
    /// Rejects: budget expired while queued (dropped by worker).
    pub rejected_deadline_expired: AtomicU64,
    /// Rejects: unknown model id.
    pub rejected_unknown_model: AtomicU64,
    /// Rejects: malformed request.
    pub rejected_invalid: AtomicU64,
    /// Rejects: method id no registered method answers to.
    pub rejected_unknown_method: AtomicU64,
    /// Explainer errors surfaced to callers, contained panics of plug-in
    /// code (validator, factory, explainer) included.
    pub explain_errors: AtomicU64,
    /// Cache hits found by a worker's recheck (the fast path counts its
    /// own in `fast_hits` / `fast_quantized_hits`).
    pub cache_hits: AtomicU64,
    /// Cache misses that went to the explainers.
    pub cache_misses: AtomicU64,
    /// Batches workers took off the queue (one per gather, size ≥ 1).
    pub batches: AtomicU64,
    /// Jobs those batches held (queue-time hits and expiries included).
    pub batched_requests: AtomicU64,
    /// Largest batch observed.
    pub max_batch: AtomicU64,
    /// Fused evaluation blocks executed (≥ 2 requests sharing one
    /// `predict_block` call).
    pub fused_groups: AtomicU64,
    /// Requests whose coalition work rode inside a fused block.
    pub fused_requests: AtomicU64,
    /// Composite rows evaluated inside fused blocks (fill-ratio numerator:
    /// `fused_rows / (fused_groups × fusion.target_rows)` says how well
    /// fused blocks clear the SoA pack breakeven).
    pub fused_rows: AtomicU64,
    /// The fusion row target configured at engine start (denominator of
    /// the fill ratio; 0 when fusion is disabled).
    pub fused_target_rows: AtomicU64,
    /// Composite rows the worker block's adjacent-dedup pass skipped (rows
    /// that were bit-identical to their predecessor and reused its
    /// prediction instead of being evaluated) — a lone request's plan
    /// included, only `direct()` runs excluded.
    pub dedup_rows_saved: AtomicU64,
    /// Requests answered by another request's in-flight computation
    /// (single-flight dedup followers).
    pub single_flight_hits: AtomicU64,
    /// Probe admissions: requests the per-class estimate would have
    /// rejected, admitted to resample a possibly-stale EWMA.
    pub probe_admits: AtomicU64,
    /// Worker-recheck hits served from the quantized cold tier (a subset
    /// of `cache_hits`; each carried a typed max-abs error bound).
    pub quantized_hits: AtomicU64,
    /// Requests served a coarse (reduced-budget) anytime attribution
    /// instead of a queue-full rejection.
    pub degraded_served: AtomicU64,
    /// Refinements computed: full-budget worker jobs, queued for a coarse
    /// entry and answering nobody, that wrote the full-grade entry over it
    /// in place. Counted apart from `completed` and the latency histograms,
    /// which count client requests only.
    pub refined_entries: AtomicU64,
    /// Refinements not queued because the engine's queue was full or
    /// closed (the coarse answer stands; the next coarse hit asks again).
    pub refine_dropped: AtomicU64,
    /// Queue wait of worker-served requests.
    pub queue_wait: LatencyHistogram,
    /// Explainer compute time per batch group, attributed per request.
    pub service: LatencyHistogram,
    /// End-to-end latency of requests a worker answered, single-flight
    /// followers included, or the miss path served itself (coarse
    /// answers); a fast-path hit records nothing.
    pub total: LatencyHistogram,
    /// EWMA of per-request service time, stored in fixed-point 1/256-ns
    /// units (admission control's model of how expensive one explanation
    /// currently is). Fixed point matters: a plain integer EWMA
    /// `cur − cur/8 + ns/8` stalls once `cur < 8` ns-units above the
    /// target, because both division terms truncate to 0 and the estimate
    /// never converges below ~8 ns of its floor.
    ewma_service_fp: AtomicU64,
    /// Per-(model-version, method) service-time EWMAs. The global EWMA
    /// above blends a 40µs TreeSHAP with a 10ms KernelSHAP into one
    /// number that misprices both; admission prefers the class estimate
    /// and only falls back to the blend for classes it has never seen.
    pub class_service: ClassEwmaTable,
}

/// Fixed-point shift for the service-time EWMA (values carry 8 fractional
/// bits, i.e. 1/256 ns resolution).
const EWMA_FP_SHIFT: u32 = 8;

/// Slots in the per-class service-time table. Open addressing with linear
/// probing; classes are (model-version, method) pairs, so 64 slots cover
/// far more concurrently-live workload mixes than a realistic deployment
/// runs. A full table degrades gracefully: unplaced classes fall back to
/// the global EWMA.
const CLASS_SLOTS: usize = 64;

/// Folds one ns sample into a fixed-point EWMA cell (α = 1/8, the classic
/// TCP RTT smoothing constant; a zero cell is seeded by its first sample).
fn ewma_fold(cell: &AtomicU64, ns: u64) {
    let scaled = ns.saturating_mul(1 << EWMA_FP_SHIFT);
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = if cur == 0 {
            scaled
        } else {
            cur - cur / 8 + scaled / 8
        };
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// A lock-free open-addressed map from service-class key to a fixed-point
/// service-time EWMA. Keys are claimed once with a CAS and never removed
/// (re-registered models get fresh versions, hence fresh keys; stale
/// classes just stop being read).
#[derive(Debug)]
pub struct ClassEwmaTable {
    keys: [AtomicU64; CLASS_SLOTS],
    ewma_fp: [AtomicU64; CLASS_SLOTS],
    /// Consecutive deadline-unmeetable rejects per class. A nonzero streak
    /// means the EWMA may be poisoned (one slow outlier inflated it and no
    /// admitted request can ever resample it); admission uses the streak to
    /// decide when to probe.
    rejects: [AtomicU64; CLASS_SLOTS],
}

impl Default for ClassEwmaTable {
    fn default() -> Self {
        ClassEwmaTable {
            keys: std::array::from_fn(|_| AtomicU64::new(0)),
            ewma_fp: std::array::from_fn(|_| AtomicU64::new(0)),
            rejects: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ClassEwmaTable {
    /// Finds `class`'s slot, optionally claiming an empty one. `None`
    /// means "not present" (lookup) or "table full" (claim).
    fn slot_of(&self, class: u64, claim: bool) -> Option<usize> {
        debug_assert_ne!(class, 0, "class keys are nonzero by construction");
        let start = class as usize % CLASS_SLOTS;
        for i in 0..CLASS_SLOTS {
            let s = (start + i) % CLASS_SLOTS;
            match self.keys[s].load(Ordering::Relaxed) {
                k if k == class => return Some(s),
                0 => {
                    if !claim {
                        return None;
                    }
                    match self.keys[s].compare_exchange(
                        0,
                        class,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Some(s),
                        // Lost the race to the same class: that's our slot.
                        Err(now) if now == class => return Some(s),
                        // Lost to a different class: keep probing.
                        Err(_) => {}
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Folds one sample into `class`'s EWMA (no-op when the table is full
    /// and `class` has no slot — the global EWMA still sees the sample).
    pub fn observe(&self, class: u64, ns: u64) {
        if let Some(s) = self.slot_of(class, true) {
            ewma_fold(&self.ewma_fp[s], ns);
        }
    }

    /// Smoothed per-request estimate for `class` in ns; `None` until the
    /// class has been observed (callers fall back to the global EWMA).
    pub fn get(&self, class: u64) -> Option<u64> {
        let s = self.slot_of(class, false)?;
        let ns = self.ewma_fp[s].load(Ordering::Relaxed) >> EWMA_FP_SHIFT;
        (ns > 0).then_some(ns)
    }

    /// Records a deadline-unmeetable reject for `class`: bumps its
    /// consecutive-reject streak and multiplicatively ages the EWMA cell
    /// (× 7/8), so an estimate poisoned by one slow outlier decays toward
    /// feasibility even though rejected requests never produce a service
    /// sample. Returns the new streak length (0 when the table has no slot
    /// for the class).
    pub fn note_reject(&self, class: u64) -> u64 {
        let Some(s) = self.slot_of(class, true) else {
            return 0;
        };
        let mut cur = self.ewma_fp[s].load(Ordering::Relaxed);
        loop {
            let next = cur - cur / 8;
            match self.ewma_fp[s].compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.rejects[s].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Clears `class`'s consecutive-reject streak (called on every
    /// successful feasibility pass — an admit proves the estimate isn't
    /// blocking the class).
    pub fn note_admit(&self, class: u64) {
        if let Some(s) = self.slot_of(class, false) {
            self.rejects[s].store(0, Ordering::Relaxed);
        }
    }
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one observed per-request service time into the global EWMA.
    /// The accumulator keeps `EWMA_FP_SHIFT` fractional bits so repeated
    /// small samples keep moving the estimate instead of truncating to a
    /// no-op.
    pub fn observe_service_ns(&self, ns: u64) {
        ewma_fold(&self.ewma_service_fp, ns);
    }

    /// Folds one observed per-request service time into both the class
    /// EWMA and the global blend (workers call this; the global estimate
    /// stays live as the fallback for unseen classes).
    pub fn observe_service_class_ns(&self, class: u64, ns: u64) {
        self.class_service.observe(class, ns);
        self.observe_service_ns(ns);
    }

    /// Current smoothed per-request service-time estimate (ns); 0 until
    /// the first observation.
    pub fn ewma_service_ns(&self) -> u64 {
        self.ewma_service_fp.load(Ordering::Relaxed) >> EWMA_FP_SHIFT
    }

    /// Per-class service estimate with the global EWMA as fallback — the
    /// number admission control prices a request of `class` at.
    pub fn service_estimate_ns(&self, class: u64) -> u64 {
        self.class_service
            .get(class)
            .unwrap_or_else(|| self.ewma_service_ns())
    }

    /// Counts one hit answered by `Engine::cached`: a single relaxed add,
    /// into the counter of the tier it came from.
    pub(crate) fn count_fast_hit(&self, fidelity: &Fidelity) {
        let counter = match fidelity {
            Fidelity::Quantized { .. } | Fidelity::CoarseQuantized { .. } => {
                &self.fast_quantized_hits
            }
            _ => &self.fast_hits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batch execution of `n` requests.
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(n as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// Records one fused evaluation block: `n` requests whose coalition
    /// rows (`rows` total) shared a single `predict_block` call.
    pub fn record_fused_group(&self, n: usize, rows: usize) {
        self.fused_groups.fetch_add(1, Ordering::Relaxed);
        self.fused_requests.fetch_add(n as u64, Ordering::Relaxed);
        self.fused_rows.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// Records a deadline-unmeetable reject for `class` (ages the class
    /// estimate) and returns the consecutive-reject streak — admission
    /// probes when the streak crosses its threshold.
    pub fn note_class_reject(&self, class: u64) -> u64 {
        self.class_service.note_reject(class)
    }

    /// Clears `class`'s reject streak after a successful feasibility pass.
    pub fn note_class_admit(&self, class: u64) {
        self.class_service.note_admit(class)
    }

    /// Snapshots everything into a serializable report.
    pub fn snapshot(&self) -> ServeStats {
        let fast_quantized = self.fast_quantized_hits.load(Ordering::Relaxed);
        let fast = self.fast_hits.load(Ordering::Relaxed) + fast_quantized;
        let hits = self.cache_hits.load(Ordering::Relaxed) + fast;
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let lookups = hits + misses;
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        let fused_groups = self.fused_groups.load(Ordering::Relaxed);
        let fused_rows = self.fused_rows.load(Ordering::Relaxed);
        let fused_target = self.fused_target_rows.load(Ordering::Relaxed);
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed) + fast,
            completed: self.completed.load(Ordering::Relaxed) + fast,
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline_unmeetable: self.rejected_deadline_unmeetable.load(Ordering::Relaxed),
            rejected_deadline_expired: self.rejected_deadline_expired.load(Ordering::Relaxed),
            rejected_unknown_model: self.rejected_unknown_model.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            rejected_unknown_method: self.rejected_unknown_method.load(Ordering::Relaxed),
            explain_errors: self.explain_errors.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            batches,
            batched_requests: batched,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            max_batch: self.max_batch.load(Ordering::Relaxed),
            fused_groups,
            fused_requests: self.fused_requests.load(Ordering::Relaxed),
            fused_rows,
            fused_fill_ratio: if fused_groups == 0 || fused_target == 0 {
                0.0
            } else {
                fused_rows as f64 / (fused_groups * fused_target) as f64
            },
            dedup_rows_saved: self.dedup_rows_saved.load(Ordering::Relaxed),
            single_flight_hits: self.single_flight_hits.load(Ordering::Relaxed),
            probe_admits: self.probe_admits.load(Ordering::Relaxed),
            quantized_hits: self.quantized_hits.load(Ordering::Relaxed) + fast_quantized,
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
            refined_entries: self.refined_entries.load(Ordering::Relaxed),
            refine_dropped: self.refine_dropped.load(Ordering::Relaxed),
            // Cache occupancy lives in the cache, not the counters; the
            // engine overwrites these right after snapshotting.
            cache_hot_entries: 0,
            cache_cold_entries: 0,
            cache_hot_bytes: 0,
            cache_cold_bytes: 0,
            queue_wait_p50_us: self.queue_wait.quantile_us(0.50),
            queue_wait_p99_us: self.queue_wait.quantile_us(0.99),
            service_p50_us: self.service.quantile_us(0.50),
            service_p99_us: self.service.quantile_us(0.99),
            total_p50_us: self.total.quantile_us(0.50),
            total_p99_us: self.total.quantile_us(0.99),
            total_mean_us: self.total.mean_us(),
        }
    }
}

/// A serializable point-in-time view of the engine's counters and latency
/// distributions — what an operator dashboard would scrape.
///
/// The counters include cache hits answered by the engine's one cache
/// probe, which every request passes before the queue (on the caller's
/// thread in process, on the event loop for an `nfv-net` shard's wire
/// request). The `total_*` latencies cover answers a
/// worker delivered (and the few the miss path served itself): a hit
/// records no latency, so its cost is measured from outside, as the
/// benchmark's `nfv-serve.explain_hit_ns`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests entering `explain`, cache hits included.
    pub submitted: u64,
    /// Requests answered with an attribution, cache hits included.
    pub completed: u64,
    /// Rejects: queue full.
    pub rejected_queue_full: u64,
    /// Rejects: deadline unmeetable at admission.
    pub rejected_deadline_unmeetable: u64,
    /// Rejects: deadline expired while queued.
    pub rejected_deadline_expired: u64,
    /// Rejects: unknown model.
    pub rejected_unknown_model: u64,
    /// Rejects: malformed request.
    pub rejected_invalid: u64,
    /// Rejects: method id no registered method answers to.
    pub rejected_unknown_method: u64,
    /// Explainer errors, contained panics of plug-in code (validator,
    /// factory, explainer) included.
    pub explain_errors: u64,
    /// Cache hits: fast-path hits and those a worker's recheck found.
    pub cache_hits: u64,
    /// Cache misses: client requests a worker computed (the count the
    /// queue-wait, service and total histograms sample).
    pub cache_misses: u64,
    /// hits / (hits + misses), 0 when no lookups.
    pub cache_hit_rate: f64,
    /// Batches workers took off the queue (one per gather).
    pub batches: u64,
    /// Jobs those batches held (queue-time hits and expiries included).
    pub batched_requests: u64,
    /// batched_requests / batches.
    pub mean_batch_size: f64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Fused evaluation blocks executed.
    pub fused_groups: u64,
    /// Requests explained inside fused blocks.
    pub fused_requests: u64,
    /// Composite rows evaluated inside fused blocks.
    pub fused_rows: u64,
    /// Mean rows per fused group ÷ the configured row target — how well
    /// fused blocks fill toward the SoA pack breakeven (0 when fusion is
    /// off or no group has run).
    pub fused_fill_ratio: f64,
    /// Composite rows skipped by the worker block's adjacent-dedup pass
    /// (bit-identical to their predecessor; prediction reused), a lone
    /// request's plan included.
    pub dedup_rows_saved: u64,
    /// Requests answered by another request's in-flight computation.
    pub single_flight_hits: u64,
    /// Probe admissions past a possibly-stale class estimate.
    pub probe_admits: u64,
    /// Cache hits served from the quantized cold tier (subset of
    /// `cache_hits`, each with a typed error bound).
    pub quantized_hits: u64,
    /// Requests served a coarse anytime attribution instead of a
    /// queue-full rejection.
    pub degraded_served: u64,
    /// Coarse cache entries upgraded in place by a refinement worker job.
    pub refined_entries: u64,
    /// Refinements not queued: the engine's queue was full or closed.
    pub refine_dropped: u64,
    /// Live exact-tier cache entries.
    pub cache_hot_entries: u64,
    /// Live quantized-tier cache entries.
    pub cache_cold_entries: u64,
    /// Estimated exact-tier heap bytes.
    pub cache_hot_bytes: u64,
    /// Estimated quantized-tier heap bytes.
    pub cache_cold_bytes: u64,
    /// Queue-wait median, microseconds.
    pub queue_wait_p50_us: f64,
    /// Queue-wait 99th percentile, microseconds.
    pub queue_wait_p99_us: f64,
    /// Service-time median, microseconds.
    pub service_p50_us: f64,
    /// Service-time 99th percentile, microseconds.
    pub service_p99_us: f64,
    /// End-to-end median of worker-delivered answers, microseconds.
    pub total_p50_us: f64,
    /// End-to-end 99th percentile of worker-delivered answers,
    /// microseconds.
    pub total_p99_us: f64,
    /// End-to-end mean of worker-delivered answers, microseconds.
    pub total_mean_us: f64,
}

impl ServeStats {
    /// Rolls per-shard snapshots up into one cluster-wide view.
    ///
    /// Counters sum; derived rates (`cache_hit_rate`, `mean_batch_size`)
    /// are recomputed from the summed raw counters; `fused_fill_ratio` is
    /// the group-weighted mean of per-shard ratios (every shard shares the
    /// same configured row target). Latency rollups are approximations —
    /// the raw histograms are not in the snapshot — chosen to stay honest
    /// for alerting: medians and means are averages of shard medians/means
    /// weighted by `cache_misses`, the worker-side count the histograms
    /// sample (not `completed`, which also counts fast-path hits they never
    /// saw), and the cluster p99 is the *worst* shard p99 (an upper bound;
    /// the true pooled p99 can only be lower).
    pub fn aggregate(shards: &[ServeStats]) -> ServeStats {
        let mut agg = ServeStats::default();
        let mut fill_weight = 0.0;
        for s in shards {
            agg.submitted += s.submitted;
            agg.completed += s.completed;
            agg.rejected_queue_full += s.rejected_queue_full;
            agg.rejected_deadline_unmeetable += s.rejected_deadline_unmeetable;
            agg.rejected_deadline_expired += s.rejected_deadline_expired;
            agg.rejected_unknown_model += s.rejected_unknown_model;
            agg.rejected_invalid += s.rejected_invalid;
            agg.rejected_unknown_method += s.rejected_unknown_method;
            agg.explain_errors += s.explain_errors;
            agg.cache_hits += s.cache_hits;
            agg.cache_misses += s.cache_misses;
            agg.batches += s.batches;
            agg.batched_requests += s.batched_requests;
            agg.max_batch = agg.max_batch.max(s.max_batch);
            agg.fused_groups += s.fused_groups;
            agg.fused_requests += s.fused_requests;
            agg.fused_rows += s.fused_rows;
            fill_weight += s.fused_fill_ratio * s.fused_groups as f64;
            agg.dedup_rows_saved += s.dedup_rows_saved;
            agg.single_flight_hits += s.single_flight_hits;
            agg.probe_admits += s.probe_admits;
            agg.quantized_hits += s.quantized_hits;
            agg.degraded_served += s.degraded_served;
            agg.refined_entries += s.refined_entries;
            agg.refine_dropped += s.refine_dropped;
            agg.cache_hot_entries += s.cache_hot_entries;
            agg.cache_cold_entries += s.cache_cold_entries;
            agg.cache_hot_bytes += s.cache_hot_bytes;
            agg.cache_cold_bytes += s.cache_cold_bytes;
            let w = s.cache_misses as f64;
            agg.queue_wait_p50_us += s.queue_wait_p50_us * w;
            agg.service_p50_us += s.service_p50_us * w;
            agg.total_p50_us += s.total_p50_us * w;
            agg.total_mean_us += s.total_mean_us * w;
            agg.queue_wait_p99_us = agg.queue_wait_p99_us.max(s.queue_wait_p99_us);
            agg.service_p99_us = agg.service_p99_us.max(s.service_p99_us);
            agg.total_p99_us = agg.total_p99_us.max(s.total_p99_us);
        }
        let lookups = agg.cache_hits + agg.cache_misses;
        agg.cache_hit_rate = if lookups > 0 {
            agg.cache_hits as f64 / lookups as f64
        } else {
            0.0
        };
        agg.mean_batch_size = if agg.batches > 0 {
            agg.batched_requests as f64 / agg.batches as f64
        } else {
            0.0
        };
        agg.fused_fill_ratio = if agg.fused_groups > 0 {
            fill_weight / agg.fused_groups as f64
        } else {
            0.0
        };
        if agg.cache_misses > 0 {
            let w = agg.cache_misses as f64;
            agg.queue_wait_p50_us /= w;
            agg.service_p50_us /= w;
            agg.total_p50_us /= w;
            agg.total_mean_us /= w;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        // Log buckets: the floor is within ~19% below the true quantile.
        assert!((380.0..=500.0).contains(&p50), "p50={p50}");
        assert!((780.0..=990.0).contains(&p99), "p99={p99}");
        assert!(p50 < p99);
        assert!((h.mean_us() - 500.5).abs() < 1.0);
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        let mut last = 0usize;
        for ns in [0u64, 1, 2, 3, 7, 8, 100, 1_000, 1_000_000, u64::MAX / 2] {
            let b = LatencyHistogram::bucket_of(ns);
            assert!(b >= last, "bucket({ns}) regressed");
            assert!(LatencyHistogram::bucket_floor(b) <= ns.max(1));
            last = b;
        }
    }

    #[test]
    fn ewma_converges_toward_observations() {
        let m = Metrics::new();
        assert_eq!(m.ewma_service_ns(), 0);
        m.observe_service_ns(8_000);
        assert_eq!(m.ewma_service_ns(), 8_000, "first sample seeds the EWMA");
        for _ in 0..64 {
            m.observe_service_ns(1_000);
        }
        let e = m.ewma_service_ns();
        assert!(e < 2_500, "ewma={e} should approach 1000");
    }

    #[test]
    fn ewma_tracks_tiny_service_times_without_stalling() {
        // Regression: the integer EWMA `cur − cur/8 + ns/8` truncated both
        // division terms to 0 once `cur < 8`, so the estimate could never
        // fall below ~7 ns no matter how many 1-ns samples arrived. The
        // fixed-point accumulator must drive it all the way down.
        let m = Metrics::new();
        m.observe_service_ns(10_000);
        for target in [4u64, 2, 1] {
            for _ in 0..512 {
                m.observe_service_ns(target);
            }
            let e = m.ewma_service_ns();
            assert!(
                e <= target + 1,
                "ewma={e} should have converged to ~{target} ns"
            );
        }
        // And it climbs back out of the tiny regime too.
        for _ in 0..512 {
            m.observe_service_ns(10_000);
        }
        assert!(m.ewma_service_ns() > 9_000);
    }

    #[test]
    fn class_table_separates_fast_and_slow_workloads() {
        let m = Metrics::new();
        m.observe_service_class_ns(7, 40_000);
        m.observe_service_class_ns(11, 10_000_000);
        assert_eq!(m.class_service.get(7), Some(40_000));
        assert_eq!(m.class_service.get(11), Some(10_000_000));
        assert_eq!(m.service_estimate_ns(7), 40_000);
        assert_eq!(m.service_estimate_ns(11), 10_000_000);
        // An unseen class falls back to the global blend, which sits
        // between the two extremes and would misprice both.
        let global = m.ewma_service_ns();
        assert!(global > 40_000 && global < 10_000_000, "global={global}");
        assert_eq!(m.service_estimate_ns(999), global);
        assert_eq!(m.class_service.get(999), None);
    }

    #[test]
    fn class_table_probes_past_collisions_and_survives_overflow() {
        let m = Metrics::new();
        // 1 and 65 land on the same home slot (mod 64); linear probing
        // must keep their EWMAs distinct.
        m.observe_service_class_ns(1, 100);
        m.observe_service_class_ns(65, 200);
        assert_eq!(m.class_service.get(1), Some(100));
        assert_eq!(m.class_service.get(65), Some(200));
        // Overfill the table: unplaced classes degrade to the fallback
        // instead of corrupting someone else's slot.
        for c in 1..=200u64 {
            m.observe_service_class_ns(c, 1_000);
        }
        let overflowed = (1..=200u64)
            .filter(|&c| m.class_service.get(c).is_none())
            .count();
        assert!(overflowed > 0, "200 classes into 64 slots must overflow");
        assert!(
            m.class_service.get(1).is_some(),
            "placed classes keep their slot"
        );
        assert!(m.service_estimate_ns(4242) > 0, "fallback keeps working");
    }

    #[test]
    fn stats_serialize_to_json() {
        let m = Metrics::new();
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        m.record_batch(4);
        let snap = m.snapshot();
        assert_eq!(snap.cache_hit_rate, 0.5);
        assert_eq!(snap.max_batch, 4);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ServeStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn reject_streaks_age_the_estimate_and_reset_on_admit() {
        let m = Metrics::new();
        m.observe_service_class_ns(9, 1_000_000);
        assert_eq!(m.class_service.get(9), Some(1_000_000));
        // Each reject bumps the streak and decays the estimate × 7/8.
        assert_eq!(m.note_class_reject(9), 1);
        assert_eq!(m.note_class_reject(9), 2);
        let aged = m.class_service.get(9).unwrap();
        let expect = 1_000_000u64 * 7 / 8 * 7 / 8;
        assert!(
            aged.abs_diff(expect) <= 2,
            "aged={aged}, expected ≈{expect}"
        );
        // An admit clears the streak; the next reject starts from 1.
        m.note_class_admit(9);
        assert_eq!(m.note_class_reject(9), 1);
        // Enough consecutive rejects drive any finite estimate toward 0,
        // so a poisoned class always becomes feasible again.
        for _ in 0..400 {
            m.note_class_reject(9);
        }
        assert_eq!(m.class_service.get(9), None, "estimate decayed to zero");
        // Rejects for a class the table never saw are harmless.
        m.note_class_admit(424_242);
    }

    #[test]
    fn latency_rollup_weights_by_the_requests_the_histograms_sampled() {
        // A shard that only answered hits: many completions, empty
        // histograms. Its zero medians must not dilute the other's.
        let hits_only = ServeStats {
            submitted: 900,
            completed: 900,
            cache_hits: 900,
            ..ServeStats::default()
        };
        let misses_only = ServeStats {
            submitted: 100,
            completed: 100,
            cache_misses: 100,
            queue_wait_p50_us: 12.0,
            service_p50_us: 250.0,
            total_p50_us: 270.0,
            total_mean_us: 300.0,
            total_p99_us: 900.0,
            ..ServeStats::default()
        };
        let agg = ServeStats::aggregate(&[hits_only, misses_only.clone()]);
        assert_eq!(agg.completed, 1000);
        assert_eq!(agg.queue_wait_p50_us, misses_only.queue_wait_p50_us);
        assert_eq!(agg.service_p50_us, misses_only.service_p50_us);
        assert_eq!(agg.total_p50_us, misses_only.total_p50_us);
        assert_eq!(agg.total_mean_us, misses_only.total_mean_us);
        assert_eq!(agg.total_p99_us, misses_only.total_p99_us);
    }

    #[test]
    fn fast_hits_read_as_submitted_completed_and_cache_hits() {
        let m = Metrics::new();
        m.count_fast_hit(&Fidelity::Exact);
        m.count_fast_hit(&Fidelity::Coarse { sample_budget: 8 });
        m.count_fast_hit(&Fidelity::Quantized { max_abs_err: 1e-3 });
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        m.submitted.fetch_add(1, Ordering::Relaxed);
        m.completed.fetch_add(1, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!((snap.submitted, snap.completed), (4, 4));
        assert_eq!((snap.cache_hits, snap.quantized_hits), (3, 1));
        assert_eq!(snap.cache_hit_rate, 0.75);
        assert_eq!(m.total.count(), 0, "a fast hit records no latency");
    }

    #[test]
    fn fused_counters_roll_up_into_the_fill_ratio() {
        let m = Metrics::new();
        m.fused_target_rows.store(1024, Ordering::Relaxed);
        m.record_fused_group(4, 768);
        m.record_fused_group(8, 1280);
        let snap = m.snapshot();
        assert_eq!(snap.fused_groups, 2);
        assert_eq!(snap.fused_requests, 12);
        assert_eq!(snap.fused_rows, 2048);
        assert!((snap.fused_fill_ratio - 1.0).abs() < 1e-12);
        // Zero target (fusion off) never divides by zero.
        let off = Metrics::new();
        off.record_fused_group(2, 100);
        assert_eq!(off.snapshot().fused_fill_ratio, 0.0);
    }
}
