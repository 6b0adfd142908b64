//! `nfv-perf`: the repository's end-to-end + per-layer benchmark.
//!
//! One process runs one workload: set-up (repeated, median reported), a
//! closed-loop timed phase of `--seconds`, and output verification outside
//! the timed phase. `--trace 1` instead runs a short untraced and a short
//! traced phase, the layer replay of the traced requests, and the fixed
//! probe suite, and reports the per-layer metrics. Every layer is measured
//! from outside, by timing calls into its public functions.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; see `benchmark/README.md`.

#![forbid(unsafe_code)]

mod fixture;
mod measure;
mod probes;
mod repeat;
mod trace;
mod workloads;

use measure::{median, peak_rss_mib, Phase};
use nfv_serve::prelude::ServeStats;
use probes::ProbeCounts;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Replayer, Tracer};
use workloads::cold_mixed::ColdMixed;
use workloads::hot_zipf::HotZipf;
use workloads::pipeline_retrain::PipelineRetrain;
use workloads::wire_mixed::WireMixed;
use workloads::{RunConfig, Workload};

pub const WORKLOADS: [&str; 4] = ["cold_mixed", "hot_zipf", "wire_mixed", "pipeline_retrain"];

/// The timed length of a run, `run_seconds` in `BENCHMARK.json`. The driver
/// passes it as `--seconds`; figures from runs of another length are not
/// comparable with the recorded baseline.
const RUN_SECONDS: f64 = 20.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` each of the two phases of a traced run gets.
const TRACED_SHARE: f64 = 0.25;
/// Traced ops taken through the layer replay, at most.
const REPLAY_CAP: usize = 2_000;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace` alone, or `--trace 0|1` as the driver passes it.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a run found, ready to print.
struct Outcome {
    metrics: Vec<Metric>,
    /// Printed beside the metrics; not part of the result object.
    informational: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Answers the verification checked, or what it found wrong.
    verified: Result<u64, String>,
    /// Extra `"key":value` members of the run record.
    record: Vec<String>,
}

fn end_to_end(setup_s: f64, phase: &Phase, peak_rss_mib: f64) -> Vec<Metric> {
    let steady = phase.steady();
    vec![
        metric("setup_s", "s", setup_s),
        metric("throughput_rps", "op/s", steady.throughput_rps),
        metric(
            "latency_p50_us",
            "us",
            steady.latency.quantile_ns(0.50) / 1e3,
        ),
        metric(
            "latency_p95_us",
            "us",
            steady.latency.quantile_ns(0.95) / 1e3,
        ),
        metric("cpu_s_per_kop", "s", steady.cpu_s_per_kop),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
    ]
}

fn phase_record(prefix: &str, phase: &Phase) -> Vec<String> {
    let all = phase.all();
    vec![
        format!("\"{prefix}_ops\":{}", phase.attempted),
        format!("\"{prefix}_failed\":{}", phase.failed),
        // Per segment: [rate, p50 us, p95 us, CPU s].
        format!(
            "\"{prefix}_segments\":{:.4?}",
            phase
                .segments
                .iter()
                .map(|s| {
                    [
                        s.rps(),
                        s.latency.quantile_ns(0.50) / 1e3,
                        s.latency.quantile_ns(0.95) / 1e3,
                        s.cpu_s,
                    ]
                })
                .collect::<Vec<[f64; 4]>>()
        ),
        // The four timed figures over every segment, host disturbance
        // included: [rate, p50 us, p95 us, CPU s per 1 000 ops].
        format!(
            "\"{prefix}_all_segments\":{:?}",
            [
                all.throughput_rps,
                all.latency.quantile_ns(0.50) / 1e3,
                all.latency.quantile_ns(0.95) / 1e3,
                all.cpu_s_per_kop,
            ]
        ),
        format!("\"{prefix}_wall_s\":{}", phase.wall_s),
        format!(
            "\"{prefix}_generator_lateness_us\":{}",
            phase.max_gap.as_secs_f64() * 1e6
        ),
    ]
}

/// The untraced run: end-to-end metrics only.
fn run_untraced<W: Workload>(run: &RunConfig, seconds: f64) -> Result<Outcome, String> {
    let reps = run.pick(SETUP_REPS, 1);
    let seconds = seconds / reps as f64;
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut pooled: Option<Phase> = None;
    let mut verified = Ok(0);
    // The high-water mark of one set-up with its timed phase and
    // verification: what a deployment, which sets up once, would see.
    let mut first_peak_rss = None;
    for _ in 0..reps {
        let started = Instant::now();
        let mut workload = W::setup(run, &mut off)?;
        setups.push(started.elapsed().as_secs_f64());
        let phase = workload.timed(seconds, None);
        match &mut pooled {
            Some(pooled) => pooled.absorb(phase),
            None => pooled = Some(phase),
        }
        verified = workload.verify();
        workload.shutdown()?;
        first_peak_rss.get_or_insert_with(peak_rss_mib);
        if verified.is_err() {
            break;
        }
    }
    let phase = pooled.expect("at least one set-up");
    let mut record = phase_record("timed", &phase);
    record.push(format!(
        "\"latency_samples\":{}",
        phase.steady().latency.count()
    ));
    record.push(format!("\"setups_s\":{setups:?}"));
    record.push(format!("\"exit_peak_rss_mib\":{}", peak_rss_mib()));
    let all = phase.all();
    Ok(Outcome {
        metrics: end_to_end(
            median(&setups),
            &phase,
            first_peak_rss.expect("at least one set-up"),
        ),
        informational: vec![
            metric("throughput_rps.all_segments", "op/s", all.throughput_rps),
            metric(
                "latency_p50_us.all_segments",
                "us",
                all.latency.quantile_ns(0.50) / 1e3,
            ),
            metric(
                "latency_p95_us.all_segments",
                "us",
                all.latency.quantile_ns(0.95) / 1e3,
            ),
            metric("cpu_s_per_kop.all_segments", "s", all.cpu_s_per_kop),
        ],
        attempted: phase.attempted,
        failed: phase.failed,
        verified,
        record,
    })
}

/// Counter differences of the serving engine over the traced phase.
fn serve_deltas(
    before: &ServeStats,
    after: &ServeStats,
    target_rows: f64,
    traced: &Phase,
) -> Vec<Metric> {
    let d = |f: fn(&ServeStats) -> u64| (f(after) - f(before)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hits = d(|s| s.cache_hits);
    let submitted = d(|s| s.submitted);
    let rejected = d(|s| {
        s.rejected_queue_full
            + s.rejected_deadline_unmeetable
            + s.rejected_deadline_expired
            + s.rejected_unknown_model
            + s.rejected_invalid
    });
    let fused_groups = d(|s| s.fused_groups);
    vec![
        metric(
            "nfv-serve.hit_rate",
            "ratio",
            ratio(hits, hits + d(|s| s.cache_misses)),
        ),
        metric(
            "nfv-serve.quantized_hit_share",
            "ratio",
            ratio(d(|s| s.quantized_hits), hits),
        ),
        metric(
            "nfv-serve.mean_batch_size",
            "count",
            ratio(d(|s| s.batched_requests), d(|s| s.batches)),
        ),
        metric(
            "nfv-serve.fused_request_share",
            "ratio",
            ratio(d(|s| s.fused_requests), d(|s| s.completed)),
        ),
        metric(
            "nfv-serve.fused_fill_ratio",
            "ratio",
            ratio(ratio(d(|s| s.fused_rows), fused_groups), target_rows),
        ),
        metric(
            "nfv-serve.queue_wait_p50_us",
            "us",
            traced.queue_wait.quantile_ns(0.5) / 1e3,
        ),
        metric(
            "nfv-serve.rejected_share",
            "ratio",
            ratio(rejected, submitted),
        ),
        metric(
            "nfv-serve.degraded_share",
            "ratio",
            ratio(d(|s| s.degraded_served), submitted),
        ),
    ]
}

/// Takes a sample of the traced engine ops through the layer replay and
/// returns the median of (engine latency − replay time): what the engine
/// adds around the layer calls — queueing, the gather window, hand-offs.
fn engine_overhead_us<W: Workload>(workload: &W, tracer: &mut Tracer) -> Result<f64, String> {
    let ops: Vec<(u64, f64)> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "nfv-serve.engine_explain")
        .map(|s| (s.op_id, s.ns()))
        .collect();
    let mut replayer = Replayer::new(workload.serve_config());
    workload.prime_replay(&mut replayer);
    let stride = ops.len().div_ceil(REPLAY_CAP).max(1);
    let mut residual_us = Vec::new();
    for &(op_id, engine_ns) in ops.iter().step_by(stride) {
        let Some(request) = workload.request_for(op_id) else {
            continue;
        };
        let started = Instant::now();
        replayer.replay(workload.registry(), &request, op_id, tracer)?;
        let replay_ns = started.elapsed().as_nanos() as f64;
        residual_us.push((engine_ns - replay_ns) / 1e3);
    }
    if residual_us.is_empty() {
        return Err("no traced op could be replayed".into());
    }
    Ok(median(&residual_us))
}

/// Medians and ratios over the probe suite's spans (see `probes`).
fn probe_metrics(tracer: &Tracer, counts: &ProbeCounts) -> Vec<Metric> {
    let med = |name: &str| tracer.median_ns(name);
    let total = |name: &str| tracer.total_ns(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out = vec![
        metric("nfv-sim.run_des_ms", "ms", med("nfv-sim.run_des") / 1e6),
        metric(
            "nfv-sim.windows_per_s",
            "1/s",
            ratio(counts.des_windows, total("nfv-sim.run_des") / 1e9),
        ),
        metric(
            "nfv-sim.self_share",
            "ratio",
            ratio(total("nfv-sim.run_des"), total("pipeline.epoch")),
        ),
        metric(
            "nfv-data.from_snapshot_ns",
            "ns",
            med("nfv-data.from_snapshot"),
        ),
        metric(
            "nfv-data.dataset_new_us",
            "us",
            med("nfv-data.dataset_new") / 1e3,
        ),
        metric(
            "nfv-data.generate_fluid_rows_per_s",
            "1/s",
            ratio(counts.fluid_rows, med("nfv-data.generate_fluid") / 1e9),
        ),
        metric("nfv-ml.forest_fit_ms", "ms", med("nfv-ml.forest_fit") / 1e6),
        metric("nfv-ml.soa_pack_us", "us", med("nfv-ml.soa_pack") / 1e3),
        metric(
            "nfv-ml.predict_block_ns_per_row",
            "ns/row",
            ratio(
                total("nfv-ml.predict_block"),
                counts.replay.predict_rows.iter().sum(),
            ),
        ),
        metric(
            "nfv-ml.predict_block_rows",
            "rows",
            median(&counts.replay.predict_rows),
        ),
    ];
    for m in [
        "kernel-shap",
        "sampling-shapley",
        "permutation",
        "grouped-shapley",
    ] {
        for half in ["plan", "finish"] {
            out.push(metric(
                &format!("nfv-xai.{half}_us.{m}"),
                "us",
                med(&format!("nfv-xai.{half}.{m}")) / 1e3,
            ));
        }
    }
    let evaluate = med("nfv-xai.evaluate");
    out.extend([
        metric("nfv-xai.evaluate_us", "us", evaluate / 1e3),
        metric(
            "nfv-xai.evaluate_overhead_us",
            "us",
            (evaluate - med("nfv-ml.predict_block")) / 1e3,
        ),
        metric(
            "nfv-xai.direct_us.tree-shap",
            "us",
            med("nfv-xai.direct.tree-shap") / 1e3,
        ),
        metric(
            "nfv-xai.direct_us.lime",
            "us",
            med("nfv-xai.direct.lime") / 1e3,
        ),
        metric(
            "nfv-xai.dedup_saved_share",
            "ratio",
            ratio(
                counts.replay.dedup_saved_rows as f64,
                counts.replay.block_rows as f64,
            ),
        ),
        metric("nfv-serve.key_build_ns", "ns", med("nfv-serve.key_build")),
        metric(
            "nfv-serve.cache_get_hot_ns",
            "ns",
            med("nfv-serve.cache_get_hot"),
        ),
        metric(
            "nfv-serve.cache_get_cold_ns",
            "ns",
            med("nfv-serve.cache_get_cold"),
        ),
        metric(
            "nfv-serve.cache_insert_ns",
            "ns",
            med("nfv-serve.cache_insert"),
        ),
        metric("nfv-serve.resolve_ns", "ns", med("nfv-serve.resolve")),
        metric(
            "nfv-serve.register_ms",
            "ms",
            med("nfv-serve.register") / 1e6,
        ),
        metric(
            "nfv-serve.explain_hit_ns",
            "ns",
            med("nfv-serve.explain_hit"),
        ),
        metric(
            "nfv-net.encode_request_ns",
            "ns",
            med("nfv-net.encode_request"),
        ),
        metric(
            "nfv-net.decode_request_ns",
            "ns",
            med("nfv-net.decode_request"),
        ),
        metric(
            "nfv-net.encode_response_ns",
            "ns",
            med("nfv-net.encode_response"),
        ),
        metric(
            "nfv-net.decode_response_ns",
            "ns",
            med("nfv-net.decode_response"),
        ),
        metric(
            "nfv-net.frame_checksum_ns_per_kib",
            "ns/KiB",
            med("nfv-net.frame_checksum") / probes::CHECKSUM_KIB as f64,
        ),
        metric("nfv-net.request_bytes", "B", counts.request_bytes),
        metric("nfv-net.response_bytes", "B", counts.response_bytes),
        metric(
            "nfv-net.rtt_hit_w1_us",
            "us",
            med("nfv-net.rtt_hit_w1") / 1e3,
        ),
        metric(
            "nfv-net.wire_overhead_us",
            "us",
            (med("nfv-net.rtt_hit_w1") - med("nfv-serve.explain_hit")) / 1e3,
        ),
        metric(
            "nfv-net.shardconn_hit_us",
            "us",
            med("nfv-net.shardconn_hit") / 1e3,
        ),
        metric(
            "nfv-net.explain_many8_p99_us",
            "us",
            nfv_data::stats::quantile(&tracer.durations("nfv-net.explain_many8"), 0.99) / 1e3,
        ),
    ]);
    out
}

/// The traced run: per-layer metrics only.
fn run_traced<W: Workload>(
    run: &RunConfig,
    seconds: f64,
    out_dir: &std::path::Path,
    name: &str,
) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(true);
    let mut workload = W::setup(run, &mut tracer)?;
    let seconds = seconds * TRACED_SHARE;
    let reference = workload.timed(seconds, None);
    let before = workload.stats()?;
    let traced = workload.timed(seconds, Some(&mut tracer));
    let after = workload.stats()?;
    let verified = workload.verify();

    let target_rows = workload.serve_config().fusion.target_rows as f64;
    let mut metrics = serve_deltas(&before, &after, target_rows, &traced);
    metrics.push(metric(
        "nfv-serve.engine_overhead_us",
        "us",
        engine_overhead_us(&workload, &mut tracer)?,
    ));
    metrics.push(metric(
        "trace.overhead_share",
        "ratio",
        1.0 - traced.steady().throughput_rps / reference.steady().throughput_rps,
    ));
    workload.shutdown()?;

    let (probe_spans, counts) = probes::run(run.seed)?;
    metrics.extend(probe_metrics(&probe_spans, &counts));
    tracer.append(probe_spans);
    metrics.push(metric(
        "nfv-net.protocol_errors",
        "count",
        counts.protocol_errors as f64,
    ));

    let header = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{seconds}}}",
        run.seed
    );
    let path = out_dir.join(format!("trace-{name}.json"));
    tracer
        .write_json(&path, &header)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let mut record = phase_record("reference", &reference);
    record.extend(phase_record("traced", &traced));
    record.push(format!("\"spans\":{}", tracer.spans.len()));
    record.push(format!("\"span_file\":\"{}\"", path.display()));
    Ok(Outcome {
        metrics,
        informational: Vec::new(),
        attempted: reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed,
        verified,
        record,
    })
}

fn run_one<W: Workload>(
    args: &Args,
    out_dir: &std::path::Path,
    name: &str,
) -> Result<Outcome, String> {
    let run = RunConfig {
        seed: args.seed,
        smoke: args.smoke,
    };
    let seconds = run.pick(args.seconds, args.seconds / 100.0);
    if args.trace {
        run_traced::<W>(&run, seconds, out_dir, name)
    } else {
        run_untraced::<W>(&run, seconds)
    }
}

/// Runs one workload in this process and prints its result; the last
/// line is the result object the driver reads.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let out_dir = PathBuf::from(std::env::var("NFV_PERF_OUT").unwrap_or("target/nfv-perf".into()));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let outcome = match name {
        "cold_mixed" => run_one::<ColdMixed>(args, &out_dir, name),
        "hot_zipf" => run_one::<HotZipf>(args, &out_dir, name),
        "wire_mixed" => run_one::<WireMixed>(args, &out_dir, name),
        "pipeline_retrain" => run_one::<PipelineRetrain>(args, &out_dir, name),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    }?;
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }

    println!(
        "nfv-perf {name} seed={} seconds={} trace={} smoke={}",
        args.seed, args.seconds, args.trace as u8, args.smoke
    );
    for m in outcome.metrics.iter().chain(&outcome.informational) {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let verified = match &outcome.verified {
        Ok(checked) => *checked,
        Err(wrong) => {
            eprintln!("nfv-perf: verification: {wrong}");
            0
        }
    };
    println!(
        "  ops_attempted {}  ops_ok {}  ops_failed {}  verified {verified}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed,
    );
    let correct = outcome.failed == 0 && outcome.verified.is_ok();
    let metrics_json = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let record = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{nproc},\"kernel\":\"{}\",\"commit\":\"{}\",\"verified\":{},{},\"metrics\":{{{metrics_json}}}}}",
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        nfv_ml::soa::active_kernel_name(),
        std::env::var("NFV_PERF_COMMIT").unwrap_or("unknown".into()),
        verified,
        outcome.record.join(","),
    );
    let record_path = out_dir.join(format!(
        "run-{name}{}.json",
        if args.trace { "-trace" } else { "" }
    ));
    std::fs::write(&record_path, format!("{record}\n"))
        .map_err(|e| format!("{}: {e}", record_path.display()))?;
    println!("run {record}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics_json}}}}}",
        outcome.attempted, outcome.failed
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nfv-perf: {e}");
            eprintln!(
                "usage: nfv-perf [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--check-repeat]"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.check_repeat {
        repeat::check_repeat(&args)
    } else if let Some(name) = args.workload.clone() {
        single(&args, &name)
    } else {
        repeat::all_workloads(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("nfv-perf: verification failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("nfv-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
