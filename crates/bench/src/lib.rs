//! Experiment harness: regenerates every table and figure of the ESAM paper.
//!
//! Each artifact of the paper's evaluation section has a module under
//! [`experiments`] that computes it from the workspace's models — nothing is
//! hard-coded except the paper's own quoted values, printed alongside for
//! comparison. The `repro` binary drives them, one id per artifact:
//!
//! ```text
//! cargo run --release -p esam-bench --bin repro -- all
//! cargo run --release -p esam-bench --bin repro -- fig7 table2
//! cargo run --release -p esam-bench --bin repro -- --quick fig8
//! ```
//!
//! | id | artifact |
//! |----|----------|
//! | `area` | §4.2 cell areas |
//! | `fig6` | transposed-port write/read time & energy |
//! | `fig7` | access time/energy vs ports × V_prech |
//! | `table2` | pipeline stage durations |
//! | `arbiter` | §3.3 flat vs tree arbiter |
//! | `nbl` | §4.1 array-size validity rule |
//! | `learning` | §4.4.1 online-learning cost |
//! | `learning_curve` | §4.4 streaming STDP session: accuracy recovery + training cost |
//! | `fig8` | system sweep + headline gains |
//! | `batch` | simulator batch-scaling: frames/sec vs worker threads |
//! | `mesh` | multi-core mesh scaling: pipeline-parallel throughput vs core count (`--json` for machines) |
//! | `serve` | concurrent serving: closed/open-loop latency SLOs + admission behaviour (`--json` for machines) |
//! | `faults` | fault injection: accuracy vs bit-flip rate, serving under worker deaths, mesh under packet loss (`--json` for machines) |
//! | `integrity` | SECDED self-checking: protection curves vs flip rate with the oracle restore disabled, mesh CRC/retransmit sweep (`--json` for machines) |
//! | `observe` | deterministic end-to-end trace (Perfetto-loadable) + metrics snapshot with a bottleneck breakdown (`--json` for machines) |
//! | `table3` | SOTA comparison |
//! | `accuracy` | §4.4.2 classification accuracy |
//! | `sta` | §3.3 gate-level STA cross-check (structural arbiter) |
//! | `transient` | MNA transient cross-check of the bitline models |
//! | `addertree` | intro baseline: adder-tree CIM vs CIM-P sparsity sweep |
//! | `corners` | Table 3 note: DVFS/HVT corner projection |
//!
//! Simulator speed is measured by the `perfbench` package at the
//! repository root, not here; the wall-clock columns of `batch`, `serve`
//! and `mesh` accompany their modeled and bit-identity figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod error;
pub mod experiments;
mod table;

pub use context::{ExperimentContext, Fidelity};
pub use error::BenchError;
pub use table::Table;

/// Experiment ids that need no trained network (circuit-level artifacts
/// plus the synthetic-workload `serve`, `mesh`, `faults`, `integrity` and
/// `observe` experiments).
pub const CIRCUIT_EXPERIMENTS: [&str; 15] = [
    "area",
    "fig6",
    "fig7",
    "table2",
    "arbiter",
    "nbl",
    "sta",
    "transient",
    "addertree",
    "corners",
    "serve",
    "mesh",
    "faults",
    "integrity",
    "observe",
];

/// Experiment ids that need the trained network (system-level artifacts).
/// `learning_curve` is system-level too but trains *online* from an
/// untrained readout, so it builds no offline-trained context.
pub const SYSTEM_EXPERIMENTS: [&str; 6] = [
    "learning",
    "learning_curve",
    "fig8",
    "table3",
    "accuracy",
    "batch",
];

/// Every experiment id in `all` order: [`CIRCUIT_EXPERIMENTS`], then
/// [`SYSTEM_EXPERIMENTS`].
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    CIRCUIT_EXPERIMENTS.into_iter().chain(SYSTEM_EXPERIMENTS)
}

/// Runs a list of experiments, printing each table to stdout.
///
/// `samples` bounds the number of test images used by the system-level
/// experiments (and scales the request counts of the `serve` experiment);
/// `threads` caps the worker sweep of the `batch` experiment and the
/// worker pool of the `serve` experiment (0 = this machine's available
/// parallelism); `json` switches experiments that support machine-readable
/// output (`serve`, `mesh`, `faults`, `integrity`, `observe`) from a table
/// to one JSON object per experiment. The shared
/// [`ExperimentContext`] (dataset + trained model) is built lazily, only
/// when a system experiment is requested.
///
/// # Errors
///
/// Returns [`BenchError::UnknownExperiment`] for an unrecognized id, or any
/// propagated model error.
pub fn run_experiments(
    ids: &[String],
    fidelity: Fidelity,
    samples: usize,
    threads: usize,
    json: bool,
) -> Result<(), BenchError> {
    let expanded: Vec<String> = if ids.iter().any(|id| id == "all") {
        experiment_ids().map(str::to_string).collect()
    } else {
        ids.to_vec()
    };

    // Validate ids before doing any expensive work.
    for id in &expanded {
        if !experiment_ids().any(|known| known == id) {
            return Err(BenchError::UnknownExperiment(id.clone()));
        }
    }

    let needs_context = expanded
        .iter()
        .any(|id| ["fig8", "table3", "accuracy", "batch"].contains(&id.as_str()));
    let context = if needs_context {
        eprintln!(
            "[repro] preparing dataset + training the 768:256:256:256:10 BNN ({fidelity:?}) …"
        );
        Some(ExperimentContext::prepare(fidelity)?)
    } else {
        None
    };
    // fig8 results are reused by table3.
    let mut fig8_cache: Option<experiments::fig8::Fig8Results> = None;
    let mut accuracy_cache: Option<experiments::accuracy::AccuracyNumbers> = None;

    for id in &expanded {
        match id.as_str() {
            "area" => println!("{}", experiments::area::area_table()),
            "fig6" => println!("{}", experiments::fig6::fig6_table()?),
            "fig7" => println!("{}", experiments::fig7::fig7_table()?),
            "table2" => println!("{}", experiments::table2::table2_table()?),
            "arbiter" => {
                println!("{}", experiments::arbiter::arbiter_table()?);
                println!("{}", experiments::arbiter::arbiter_scaling_table()?);
            }
            "nbl" => println!("{}", experiments::nbl::nbl_table()),
            "serve" => {
                let results = experiments::serve::serve_results(samples, threads)?;
                if json {
                    println!("{}", experiments::serve::serve_json(&results));
                } else {
                    println!("{}", experiments::serve::serve_table(&results));
                }
            }
            "mesh" => {
                let results = experiments::mesh::mesh_results(samples)?;
                if json {
                    println!("{}", experiments::mesh::mesh_json(&results));
                } else {
                    println!("{}", experiments::mesh::mesh_table(&results));
                }
            }
            "faults" => {
                let results = experiments::faults::faults_results(samples, threads)?;
                if json {
                    println!("{}", experiments::faults::faults_json(&results));
                } else {
                    println!("{}", experiments::faults::faults_flip_table(&results));
                    println!("{}", experiments::faults::faults_serve_table(&results));
                    println!("{}", experiments::faults::faults_mesh_table(&results));
                }
            }
            "integrity" => {
                let results = experiments::integrity::integrity_results(samples)?;
                if json {
                    println!("{}", experiments::integrity::integrity_json(&results));
                } else {
                    println!(
                        "{}",
                        experiments::integrity::integrity_protection_table(&results)
                    );
                    println!("{}", experiments::integrity::integrity_mesh_table(&results));
                }
            }
            "observe" => {
                let results = experiments::observe::observe_results(samples)?;
                if json {
                    println!("{}", experiments::observe::observe_json(&results));
                } else {
                    println!("{}", experiments::observe::observe_table(&results));
                }
                if let Ok(dir) = std::env::var("ESAM_OBSERVE_DIR") {
                    match experiments::observe::write_artifacts(
                        &results,
                        std::path::Path::new(&dir),
                    ) {
                        Ok(()) => eprintln!(
                            "[observe] wrote {dir}/trace.json (Perfetto), {dir}/metrics.prom, {dir}/metrics.json"
                        ),
                        Err(e) => eprintln!("[observe] artifact write failed: {e}"),
                    }
                }
            }
            "sta" => println!("{}", experiments::sta::sta_table()?),
            "transient" => println!("{}", experiments::transient::transient_table()?),
            "addertree" => println!("{}", experiments::addertree::addertree_table()?),
            "corners" => println!("{}", experiments::corners::corners_table()),
            "learning" => println!("{}", experiments::learning::learning_table()?),
            "learning_curve" => {
                let results = experiments::learning_curve::learning_curve_results(samples)?;
                println!(
                    "{}",
                    experiments::learning_curve::learning_curve_table(&results)
                );
            }
            "batch" => {
                let context = context.as_ref().expect("context prepared above");
                let results = experiments::batch::batch_results(context, samples, threads)?;
                println!("{}", experiments::batch::batch_table(&results));
            }
            "fig8" => {
                let context = context.as_ref().expect("context prepared above");
                if fig8_cache.is_none() {
                    fig8_cache = Some(experiments::fig8::fig8_results(context, samples)?);
                }
                let results = fig8_cache.as_ref().expect("just populated");
                println!("{}", experiments::fig8::fig8_table(results));
                println!("{}", experiments::fig8::headline_table(results));
            }
            "table3" => {
                let context = context.as_ref().expect("context prepared above");
                if fig8_cache.is_none() {
                    fig8_cache = Some(experiments::fig8::fig8_results(context, samples)?);
                }
                if accuracy_cache.is_none() {
                    accuracy_cache =
                        Some(experiments::accuracy::accuracy_numbers(context, samples)?);
                }
                let results = fig8_cache.as_ref().expect("just populated");
                let accuracy = accuracy_cache.as_ref().expect("just populated");
                println!(
                    "{}",
                    experiments::table3::table3_table(
                        results.four_port(),
                        accuracy.hardware * 100.0
                    )
                );
            }
            "accuracy" => {
                let context = context.as_ref().expect("context prepared above");
                if accuracy_cache.is_none() {
                    accuracy_cache =
                        Some(experiments::accuracy::accuracy_numbers(context, samples)?);
                }
                println!(
                    "{}",
                    experiments::accuracy::accuracy_table(
                        accuracy_cache.as_ref().expect("just populated")
                    )
                );
            }
            _ => unreachable!("validated above"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_rejected_before_training() {
        let err =
            run_experiments(&["bogus".to_string()], Fidelity::Quick, 5, 0, false).unwrap_err();
        assert!(matches!(err, BenchError::UnknownExperiment(_)));
    }

    #[test]
    fn circuit_experiments_run_without_context() {
        for id in CIRCUIT_EXPERIMENTS {
            run_experiments(&[id.to_string()], Fidelity::Quick, 5, 0, false)
                .unwrap_or_else(|e| panic!("{id} failed: {e}"));
        }
    }

    #[test]
    fn observe_runs_in_json_mode() {
        run_experiments(&["observe".to_string()], Fidelity::Quick, 4, 0, true)
            .expect("observe --json");
    }
}
