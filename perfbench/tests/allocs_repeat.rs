//! `allocs_per_frame` on the single-threaded workloads is a count the
//! program makes, not a timing: two runs with the same seed must report it
//! identically. The benchmark binary is run as a subprocess so each run
//! has a process of its own, as under the benchmark command.

use std::process::Command;

/// Runs the benchmark once and returns the `allocs_per_frame` value from
/// its result line.
fn allocs_per_frame(workload: &str, seed: u64) -> f64 {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\": true"), "{last}");
    let key = "\"allocs_per_frame\": {\"value\": ";
    let start = last.find(key).expect("allocs_per_frame reported") + key.len();
    let end = start
        + last[start..]
            .find(',')
            .expect("value is followed by the unit");
    last[start..end].parse().expect("a number")
}

#[test]
fn allocs_per_frame_repeats_exactly_on_single_threaded_workloads() {
    for workload in ["infer_seq", "learn_online"] {
        let first = allocs_per_frame(workload, 5);
        let second = allocs_per_frame(workload, 5);
        assert!(first > 0.0, "{workload}: {first}");
        assert_eq!(
            first.to_bits(),
            second.to_bits(),
            "{workload}: {first} vs {second}"
        );
    }
}
