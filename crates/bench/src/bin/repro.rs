//! `repro` — regenerate the ESAM paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--json] [--samples N] [--threads N] <experiment>... | all
//! ```
//!
//! `repro --help` lists the experiment ids (see the `esam_bench` crate
//! docs for what each one reproduces), or `all`.
//! `--quick` trims the BNN training budget; `--samples` bounds the test
//! images used by system-level experiments, the length of the
//! `learning_curve` training stream, the request counts of the `serve`
//! and `observe` experiments and the frames per point of the `mesh`,
//! `faults` and `integrity` sweeps (default 200); `--threads` caps the
//! worker sweep of the `batch` experiment and the worker pools of the
//! `serve` and `faults` experiments (default: all cores); `--json` emits
//! machine-readable output for experiments that support it (`serve`,
//! `mesh`, `faults`, `integrity`, `observe`). With `ESAM_OBSERVE_DIR=dir`
//! set, `observe` also writes `dir/trace.json` (Perfetto-loadable),
//! `dir/metrics.prom` and `dir/metrics.json`.

use std::process::ExitCode;

use esam_bench::{experiment_ids, run_experiments, Fidelity};

fn main() -> ExitCode {
    let mut fidelity = Fidelity::Full;
    let mut samples = 200usize;
    let mut threads = 0usize; // 0 = available parallelism
    let mut json = false;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--json" => json = true,
            "--samples" => {
                let Some(value) = args.next() else {
                    eprintln!("--samples needs a value");
                    return ExitCode::FAILURE;
                };
                match value.parse() {
                    Ok(n) if n > 0 => samples = n,
                    _ => {
                        eprintln!("--samples needs a positive integer, got '{value}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--threads" => {
                let Some(value) = args.next() else {
                    eprintln!("--threads needs a value");
                    return ExitCode::FAILURE;
                };
                match value.parse() {
                    Ok(n) if n > 0 => threads = n,
                    _ => {
                        eprintln!("--threads needs a positive integer, got '{value}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                let experiments: Vec<&str> = experiment_ids().collect();
                println!(
                    "usage: repro [--quick] [--json] [--samples N] [--threads N] <experiment>... | all\n\
                     experiments: {}",
                    experiments.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }

    match run_experiments(&ids, fidelity, samples, threads, json) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro failed: {e}");
            ExitCode::FAILURE
        }
    }
}
