//! Shutdown-drain behavior of the bounded SPSC channels and the engine
//! built on them: the pipeline must never deadlock — not on tiny channel
//! capacities, not on batches shorter than the pipeline, not on empty
//! batches, and a dropped endpoint must unwind the whole mesh promptly.

use std::time::{Duration, Instant};

use esam_bits::BitVec;
use esam_core::SystemConfig;
use esam_mesh::spsc::{channel, SendError};
use esam_mesh::{MeshConfig, MeshSystem};
use esam_nn::{BnnNetwork, SnnModel};
use esam_sram::BitcellKind;

fn mesh(topology: &[usize], cores: usize, config: MeshConfig) -> MeshSystem {
    let net = BnnNetwork::new(topology, 77).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let system = SystemConfig::builder(BitcellKind::multiport(2).unwrap(), topology)
        .build()
        .unwrap();
    MeshSystem::from_model(&model, &system, &config.clone()).unwrap_or_else(|e| {
        panic!("mesh build failed for {topology:?} cores={cores}: {e}");
    })
}

fn frames(width: usize, count: usize) -> Vec<BitVec> {
    (0..count)
        .map(|f| BitVec::from_indices(width, &[f % width, (f * 31 + 5) % width]))
        .collect()
}

#[test]
fn deep_pipeline_drains_batches_shorter_than_itself() {
    // 4 stages but only 2 frames: most cores see end-of-stream while the
    // feeder is long gone; every thread must still join.
    let mut system = mesh(&[128, 64, 48, 32, 10], 4, MeshConfig::with_cores(4));
    let results = system.run(&frames(128, 2)).unwrap();
    assert_eq!(results.len(), 2);
}

#[test]
fn empty_batches_complete_without_spawning_work() {
    let mut system = mesh(&[128, 64, 10], 2, MeshConfig::with_cores(2));
    assert!(system.run(&[]).unwrap().is_empty());
    assert_eq!(system.tally().tiles.frames, 0);
}

#[test]
fn capacity_one_channels_still_make_progress() {
    // Depth-1 channels maximize back-pressure: every hand-off rendezvouses
    // through a single slot. A scheduling deadlock would hang this test.
    let config = MeshConfig::with_cores(4).channel_capacity(1);
    let mut system = mesh(&[128, 96, 64, 48, 10], 4, config);
    let batch = frames(128, 40);
    let start = Instant::now();
    let results = system.run(&batch).unwrap();
    assert_eq!(results.len(), 40);
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "capacity-1 pipeline took pathologically long"
    );
}

#[test]
fn repeated_runs_reuse_the_same_mesh() {
    // Channels are per-run: a fresh matrix each call, so back-to-back runs
    // (each spanning two hand-offs) must not interfere.
    let mut system = mesh(&[128, 64, 10], 2, MeshConfig::with_cores(2));
    for round in 0..3 {
        let results = system.run(&frames(128, 65)).unwrap();
        assert_eq!(results.len(), 65, "round {round}");
    }
    assert_eq!(system.tally().tiles.frames, 3 * 65);
}

#[test]
fn receiver_drop_unblocks_a_full_producer() {
    let (tx, rx) = channel::<u32>(1);
    tx.send(0).unwrap();
    let producer = std::thread::spawn(move || tx.send(1));
    std::thread::sleep(Duration::from_millis(20));
    drop(rx);
    assert_eq!(producer.join().unwrap(), Err(SendError(1)));
}

#[test]
fn sender_drop_lets_the_receiver_drain_then_end() {
    let (tx, rx) = channel(3);
    tx.send('x').unwrap();
    tx.send('y').unwrap();
    drop(tx);
    assert_eq!(rx.recv(), Some('x'));
    assert_eq!(rx.recv(), Some('y'));
    assert_eq!(rx.recv(), None);
}
