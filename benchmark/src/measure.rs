//! Measurement primitives shared by every workload: a fixed-size latency
//! histogram, process CPU / peak-RSS readers, and the closed-loop caller
//! that turns a blocking call into latency, segment throughput and
//! generator-lateness figures.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Values below this are counted exactly (one bucket per nanosecond).
const LINEAR: u64 = 128;
/// Sub-buckets per octave above `LINEAR`: bucket width ≤ 1/64 of its
/// lower bound, so an interpolated quantile is within 1 % of the sample.
const SUB: u64 = 64;
const BUCKETS: usize = (LINEAR + (64 - 7) * SUB) as usize;

/// Log-bucket histogram of nanosecond values. Fixed size (~30 KiB), so a
/// 30 M-op run never holds a per-op vector.
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

impl LogHistogram {
    fn index(ns: u64) -> usize {
        if ns < LINEAR {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros() as u64; // >= 7
        let m = (ns >> (e - 6)) & (SUB - 1);
        (LINEAR + (e - 7) * SUB + m) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < LINEAR {
            return (i as f64, 1.0);
        }
        let e = (i - LINEAR) / SUB + 7;
        let m = (i - LINEAR) % SUB;
        let width = (1u64 << (e - 6)) as f64;
        ((SUB + m) as f64 * width, width)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside its
    /// bucket so repeated runs do not collapse onto bucket floors.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let (lo, width) = Self::bounds(i);
                return lo + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        let (lo, width) = Self::bounds(BUCKETS - 1);
        lo + width
    }
}

/// Median of a sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    nfv_data::stats::quantile(values, 0.5)
}

/// Process user+sys CPU seconds from `/proc/self/stat` (100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. 11 and 12 after `)`.
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let ticks: u64 = tail
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One traced operation: the span of a single blocking call into the
/// system, on the clock of the phase that produced it.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One equal-count segment of a phase: the window in which every caller
/// completed the same number of operations. Callers start a segment
/// together, so the process CPU spent inside the window belongs to exactly
/// these operations.
pub struct Segment {
    pub ops: u64,
    pub wall_s: f64,
    /// Process CPU seconds spent inside the window (all threads).
    pub cpu_s: f64,
    /// Latencies of the window's operations, all callers.
    pub latency: LogHistogram,
}

impl Segment {
    pub fn rps(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// Lets the callers of a phase start every segment together and agree on
/// when the phase is over. The first caller (the leader) times the window
/// and decides.
pub struct SegmentSync {
    barrier: Barrier,
    over: AtomicBool,
}

impl SegmentSync {
    pub fn new(callers: usize) -> SegmentSync {
        SegmentSync {
            barrier: Barrier::new(callers),
            over: AtomicBool::new(false),
        }
    }
}

/// What one caller thread (or connection) observed during a phase.
pub struct CallerLog {
    /// Latencies of the segment in progress.
    current: LogHistogram,
    /// Latencies of this caller's operations, per segment.
    segments: Vec<LogHistogram>,
    /// Wall and process CPU seconds of each segment window; kept by the
    /// leader only.
    windows: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Longest time between receiving an answer and issuing the next
    /// request: a slow generator shows here instead of being blamed on
    /// the program.
    pub max_gap: Duration,
    last_end: Option<Instant>,
    epoch: Instant,
    /// Per-op spans and the engine-reported queue waits, recorded only on
    /// traced phases (the first `SPAN_CAP` ops of each caller).
    pub spans: Option<Vec<OpSpan>>,
    pub queue_wait: LogHistogram,
}

/// Spans kept per caller: bounds the span file on `hot_zipf`, whose
/// traced phase still runs millions of ops.
const SPAN_CAP: usize = 20_000;

impl CallerLog {
    pub fn new(epoch: Instant, traced: bool) -> CallerLog {
        CallerLog {
            current: LogHistogram::default(),
            segments: Vec::new(),
            windows: Vec::new(),
            attempted: 0,
            failed: 0,
            max_gap: Duration::ZERO,
            last_end: None,
            epoch,
            spans: traced.then(Vec::new),
            queue_wait: LogHistogram::default(),
        }
    }

    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// Books one operation that was issued at `start` and answered at
    /// `end`; `ok == false` counts it as failed.
    pub fn record(&mut self, op_id: u64, start: Instant, end: Instant, ok: bool) {
        self.current.record((end - start).as_nanos() as u64);
        self.attempted += 1;
        self.failed += u64::from(!ok);
        if let Some(spans) = self.spans.as_mut().filter(|s| s.len() < SPAN_CAP) {
            spans.push(OpSpan {
                op_id,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }

    /// A request leaves the generator at `at`: the time since the last
    /// answer arrived is generator lateness.
    pub fn issued(&mut self, at: Instant) {
        if let Some(prev) = self.last_end.take() {
            self.max_gap = self.max_gap.max(at.saturating_duration_since(prev));
        }
    }

    /// An answer reached the generator at `at`.
    pub fn answered(&mut self, at: Instant) {
        self.last_end = Some(at);
    }

    /// Times one blocking call; `None` counts it as failed. The request
    /// must be fully built before `call` runs, so building it counts as
    /// generator time, not latency.
    pub fn timed<T>(&mut self, op_id: u64, call: impl FnOnce() -> Option<T>) -> Option<T> {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.issued(start);
        self.answered(end);
        self.record(op_id, start, end, out.is_some());
        out
    }

    /// Books the queue wait the engine reported for an answer (traced
    /// phases only).
    pub fn queue_waited(&mut self, wait: Duration) {
        if self.traced() {
            self.queue_wait.record(wait.as_nanos() as u64);
        }
    }

    /// Issues equal-count segments of `segment_ops` operations until
    /// `seconds` have passed (always at least one segment, so
    /// `seconds == 0` runs exactly `segment_ops` operations). Every caller
    /// of the phase waits on `sync` before and after each segment; the
    /// `leader` times the window between the two and ends the phase.
    pub fn run(
        &mut self,
        seconds: f64,
        segment_ops: u64,
        sync: &SegmentSync,
        leader: bool,
        mut op: impl FnMut(u64, &mut CallerLog),
    ) {
        let deadline = Duration::from_secs_f64(seconds);
        let begin = Instant::now();
        let mut next = 0u64;
        loop {
            sync.barrier.wait();
            // Stored by the leader before it arrived at the barrier.
            if sync.over.load(Ordering::SeqCst) {
                break;
            }
            let (window, cpu) = (Instant::now(), cpu_seconds());
            for _ in 0..segment_ops {
                op(next, self);
                next += 1;
            }
            self.segments.push(std::mem::take(&mut self.current));
            // An idle wait here is not generator lateness.
            self.last_end = None;
            sync.barrier.wait();
            if leader {
                self.windows
                    .push((window.elapsed().as_secs_f64(), cpu_seconds() - cpu));
                sync.over
                    .store(begin.elapsed() >= deadline, Ordering::SeqCst);
            }
        }
    }

    /// [`CallerLog::run`] for the only caller of a phase.
    pub fn run_alone(
        &mut self,
        seconds: f64,
        segment_ops: u64,
        op: impl FnMut(u64, &mut CallerLog),
    ) {
        self.run(seconds, segment_ops, &SegmentSync::new(1), true, op);
    }
}

/// Share of a phase's segments, the fastest ones, that the metrics are
/// computed over (see [`Phase`]).
const STEADY_SHARE: f64 = 0.5;

/// The outcome of one closed-loop phase, merged over its callers.
///
/// The end-to-end metrics come from the *steady* segments: the faster half
/// of the equal-count segments, that is, those at or above the phase's
/// median rate. On this shared host a neighbour slows the process down by
/// a quarter to a half for seconds at a time and never speeds it up; over
/// ten runs of the same binary the figures over all segments then spread
/// up to three times as wide as those over the faster half (measured, see
/// `benchmark/README.md`). The price: a slowdown the program causes in
/// fewer than half of the segments moves none of the six metrics. The
/// figures over all segments are therefore printed and recorded beside
/// them ([`Phase::all`]).
pub struct Phase {
    pub segments: Vec<Segment>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub max_gap: Duration,
    /// Clock origin of `spans`.
    pub started: Instant,
    pub spans: Vec<OpSpan>,
    pub queue_wait: LogHistogram,
}

/// Throughput, latency and CPU cost over a set of segments.
pub struct Figures {
    pub throughput_rps: f64,
    pub latency: LogHistogram,
    pub cpu_s_per_kop: f64,
}

impl Figures {
    /// Median segment rate, merged latencies, and CPU seconds per 1 000
    /// operations over `segments`.
    fn over(segments: &[&Segment]) -> Figures {
        let rates: Vec<f64> = segments.iter().map(|s| s.rps()).collect();
        let mut latency = LogHistogram::default();
        for segment in segments {
            latency.merge(&segment.latency);
        }
        let cpu_s: f64 = segments.iter().map(|s| s.cpu_s).sum();
        let ops: u64 = segments.iter().map(|s| s.ops).sum();
        Figures {
            throughput_rps: median(&rates),
            latency,
            cpu_s_per_kop: cpu_s / ops as f64 * 1000.0,
        }
    }
}

impl Phase {
    /// Merges the caller logs of a phase that started at `started`; the
    /// first log is the leader's.
    pub fn merge(logs: Vec<CallerLog>, segment_ops: u64, started: Instant) -> Phase {
        let windows = logs[0].windows.clone();
        let mut phase = Phase {
            segments: windows
                .iter()
                .map(|&(wall_s, cpu_s)| Segment {
                    ops: segment_ops * logs.len() as u64,
                    wall_s,
                    cpu_s,
                    latency: LogHistogram::default(),
                })
                .collect(),
            attempted: 0,
            failed: 0,
            wall_s: started.elapsed().as_secs_f64(),
            max_gap: Duration::ZERO,
            started,
            spans: Vec::new(),
            queue_wait: LogHistogram::default(),
        };
        for log in logs {
            phase.attempted += log.attempted;
            phase.failed += log.failed;
            phase.max_gap = phase.max_gap.max(log.max_gap);
            for (segment, latency) in phase.segments.iter_mut().zip(&log.segments) {
                segment.latency.merge(latency);
            }
            phase.queue_wait.merge(&log.queue_wait);
            phase.spans.extend(log.spans.unwrap_or_default());
        }
        phase
    }

    /// Appends a later phase of the same workload, as if its segments had
    /// followed this phase's.
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.max_gap = self.max_gap.max(other.max_gap);
        self.segments.extend(other.segments);
    }

    /// The figures over the steady segments: the end-to-end metrics.
    pub fn steady(&self) -> Figures {
        let mut by_rate: Vec<&Segment> = self.segments.iter().collect();
        by_rate.sort_by(|a, b| b.rps().total_cmp(&a.rps()));
        by_rate.truncate((self.segments.len() as f64 * STEADY_SHARE).ceil() as usize);
        Figures::over(&by_rate)
    }

    /// The same figures over every segment, host disturbance included.
    pub fn all(&self) -> Figures {
        Figures::over(&self.segments.iter().collect::<Vec<_>>())
    }
}

/// Runs `callers` closed-loop threads for about `seconds` (see
/// [`CallerLog::run`]). `make` builds each thread's operation; the
/// operation receives its per-caller op index and the log to record into.
pub fn closed_loop<F>(
    callers: usize,
    seconds: f64,
    segment_ops: u64,
    traced: bool,
    make: impl Fn(usize) -> F + Sync,
) -> Phase
where
    F: FnMut(u64, &mut CallerLog),
{
    let sync = SegmentSync::new(callers);
    let started = Instant::now();
    let logs: Vec<CallerLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let (sync, make) = (&sync, &make);
                scope.spawn(move || {
                    let op = make(c);
                    let mut log = CallerLog::new(started, traced);
                    log.run(seconds, segment_ops, sync, c == 0, op);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    Phase::merge(logs, segment_ops, started)
}

/// [`closed_loop`] with one caller on the current thread, for operations
/// that mutate harness state.
pub fn single_loop(
    seconds: f64,
    segment_ops: u64,
    traced: bool,
    op: impl FnMut(u64, &mut CallerLog),
) -> Phase {
    let started = Instant::now();
    let mut log = CallerLog::new(started, traced);
    log.run_alone(seconds, segment_ops, op);
    Phase::merge(vec![log], segment_ops, started)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_one_percent() {
        let mut h = LogHistogram::default();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.95, 0.99] {
            let exact = q * 100_000.0 * 37.0;
            let got = h.quantile_ns(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn bucket_bounds_invert_index() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            123_456_789,
            1 << 62,
        ] {
            let (lo, width) = LogHistogram::bounds(LogHistogram::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: [{lo}, +{width})"
            );
        }
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
