//! `perfbench`: the ESAM simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <infer_seq|learn_online|serve_closed|mesh_pipe>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's untraced timed phase (the op
//! sequence, repeated), checks every output against the workload's
//! reference path and prints the end-to-end metrics. With `--trace 1` it
//! runs the same untraced phase and then a traced phase over one repeat's
//! ops, prints the per-layer table and metrics, and writes the trace as
//! Chrome trace-event JSON (wall time) to `out/trace-<workload>.json` under
//! the package directory. The last line of standard output is always one
//! JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The process exits with 1 when any output check fails and with 2 on a
//! usage error. See `README.md` for the workloads and metric definitions.

mod alloc;
mod stats;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use stats::{best_rounds, median, ref_kernel_ns, Rounds, ROUNDS};
use workloads::{prepare, run_untraced, setup_times, HostRun, Inputs, Prepared, Workload};

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <infer_seq|learn_online|serve_closed|mesh_pipe> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&parsed) {
                    return Err(format!("seconds {parsed} outside 1..=600"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(prepared: &Prepared, run: &HostRun, host: &Rounds) -> Vec<Metric> {
    let modeled = &run.modeled;
    let setup = setup_times(prepared, run);
    vec![
        Metric::new("host_frames_per_s", host.frames_per_s, "1/s"),
        Metric::new("host_op_p50_us", host.p50_ns / 1e3, "us"),
        Metric::new("setup_s", setup.total_s, "s"),
        Metric::new("peak_rss_mib", run.peak_rss_mib, "MiB"),
        Metric::new(
            "allocs_per_frame",
            run.allocs as f64 / run.frames as f64,
            "count",
        ),
        Metric::new(
            "ok_share",
            1.0 - run.failures.count as f64 / run.ops as f64,
            "ratio",
        ),
        Metric::new("modeled_minf_per_s", modeled.minf_per_s, "MInf/s"),
        Metric::new("modeled_pj_per_inf", modeled.pj_per_inf, "pJ"),
        Metric::new("modeled_pj_per_sop", modeled.pj_per_sop, "pJ"),
        Metric::new("modeled_power_mw", modeled.power_mw, "mW"),
        Metric::new("modeled_latency_ns", modeled.latency_ns, "ns"),
    ]
}

/// Formats the result line; non-finite values (impossible for a run that
/// completed an op) are written as 0 to keep the line valid JSON.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for metric in metrics {
        println!(
            "  {:<34} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
}

fn run(args: Args) -> Result<(bool, String), String> {
    let workload = args.workload;
    let ops = workload.ops(args.seconds);
    let inputs = Inputs::generate(workload, args.seed)?;
    let ref_before = ref_kernel_ns();
    let prepared = prepare(workload, inputs)?;
    let host = run_untraced(&prepared, ops)?;
    let ref_after = ref_kernel_ns();
    let ref_kernel = median(&[ref_before, ref_after]);
    println!(
        "perfbench {} seed={} ops={} frames={} threads_busy<={}",
        workload.name(),
        args.seed,
        ops,
        host.frames,
        if matches!(workload, Workload::InferSeq | Workload::LearnOnline) {
            1
        } else {
            2
        }
    );
    let repeats = workload.repeats();
    let host_rounds = best_rounds(
        &host.op_ns,
        &host.busy_ns,
        workload.frames_per_op() as f64,
        repeats,
    );
    let metrics = end_to_end(&prepared, &host, &host_rounds);
    print_metrics("end-to-end (untraced run)", &metrics);
    println!(
        "  host p99 op latency {:.3} us ({} of {} samples beyond; reported per layer as host.op_p99_us); failed_share {:.6}",
        host_rounds.p99_ns / 1e3,
        host_rounds.p99_beyond,
        host_rounds.p99_ops,
        host.failures.count as f64 / host.ops as f64
    );
    let round_p50: Vec<String> = host
        .op_ns
        .chunks(host.op_ns.len().div_ceil(repeats * ROUNDS).max(1))
        .map(|ops| format!("{:.1}", median(ops) / 1e3))
        .collect();
    println!(
        "  op p50 us per round, {repeats} repeats of {ROUNDS}: {}",
        round_p50.join(" ")
    );
    println!(
        "  host.ref_kernel_ns before {ref_before:.0} after {ref_after:.0} (diagnostic; divides nothing)"
    );
    for failure in &host.failures.first {
        println!("  CHECK FAILED: {failure}");
    }
    if !args.trace {
        let correct = host.failures.count == 0;
        return Ok((
            correct,
            result_json(correct, host.ops as u64, host.failures.count, &metrics),
        ));
    }
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let traced = traced::run_traced(
        &prepared,
        ops,
        &host,
        ref_kernel,
        host_rounds.p99_ns,
        &out_dir,
    )?;
    println!("{}", traced.table);
    print_metrics("per-layer (traced run)", &traced.metrics);
    for failure in &traced.failures.first {
        println!("  CHECK FAILED: {failure}");
    }
    let failed = host.failures.count + traced.failures.count;
    let correct = failed == 0;
    Ok((
        correct,
        result_json(
            correct,
            (host.ops + traced.attempted) as u64,
            failed,
            &traced.metrics,
        ),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(1)
        }
    }
}
