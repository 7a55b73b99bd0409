//! Online learning under distribution shift (§2.2, §4.4.1).
//!
//! Deploys a trained binary SNN, then shifts the input distribution (heavier
//! pixel noise and slant). Accuracy drops; the on-chip learning engine
//! adapts the *output layer's* weight columns with stochastic 1-bit STDP,
//! updating them through the transposed port. The example reports the
//! accuracy recovery and the exact memory-access cost — and what the same
//! updates would have cost on the non-transposable 6T baseline.
//!
//! ```text
//! cargo run --release --example online_learning
//! ```

use esam::prelude::*;

fn accuracy(
    system: &mut EsamSystem,
    split: &esam_nn::Split,
    samples: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let count = samples.min(split.len());
    let mut correct = 0usize;
    for i in 0..count {
        if system.infer(&split.spikes(i))?.prediction == split.label(i) as usize {
            correct += 1;
        }
    }
    Ok(correct as f64 / count as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train on the clean distribution.
    let clean = Dataset::generate(&DigitsConfig {
        train_count: 2500,
        test_count: 400,
        ..DigitsConfig::default()
    })?;
    println!("training on the clean distribution …");
    let mut net = BnnNetwork::new(&[768, 256, 256, 256, 10], 42)?;
    Trainer::new(TrainConfig {
        epochs: 8,
        ..TrainConfig::default()
    })
    .train(&mut net, &clean.train)?;
    let model = SnnModel::from_bnn(&net)?;

    // 2. Deploy on the 4-port hardware.
    let config = SystemConfig::paper_default(BitcellKind::multiport(4).unwrap());
    let mut system = EsamSystem::from_model(&model, &config)?;
    let eval_samples = 300;
    println!(
        "clean-distribution accuracy:   {:.1}%",
        100.0 * accuracy(&mut system, &clean.test, eval_samples)?
    );

    // 3. The environment changes: noisier, more slanted digits.
    let shifted = Dataset::generate(&DigitsConfig {
        train_count: 600,
        test_count: 400,
        noise: 0.07,
        max_shear: 3,
        seed: 99,
        ..DigitsConfig::default()
    })?;
    let before = accuracy(&mut system, &shifted.test, eval_samples)?;
    println!(
        "shifted-distribution accuracy: {:.1}% (before adaptation)",
        100.0 * before
    );

    // 4. Adapt on-chip: teacher-driven stochastic STDP on the output
    //    layer, through the transposed port. The deployed device sees a
    //    small, fixed pool of local samples (its *environment*); whenever
    //    one is misclassified, the target neuron's column is potentiated.
    //    1-bit output weights can specialize the system to that pool —
    //    broad re-training is the offline trainer's job, not STDP's.
    let mut engine = OnlineLearningEngine::new(StdpRule::new(0.08, 0.0), 7);
    let output_layer = system.tiles().len() - 1;
    let environment = 100usize; // samples the device encounters repeatedly
    let mut total = LearningCost::default();
    let mut updates = 0usize;
    let own_accuracy = |system: &mut EsamSystem| -> Result<f64, Box<dyn std::error::Error>> {
        let mut ok = 0usize;
        for i in 0..environment {
            if system.infer(&shifted.train.spikes(i))?.prediction == shifted.train.label(i) as usize
            {
                ok += 1;
            }
        }
        Ok(ok as f64 / environment as f64)
    };
    println!(
        "environment accuracy:          {:.1}% (before adaptation, {} samples)",
        100.0 * own_accuracy(&mut system)?,
        environment
    );
    for pass in 0..6 {
        for i in 0..environment {
            let frame = shifted.train.spikes(i);
            let target = shifted.train.label(i) as usize;
            if system.infer(&frame)?.prediction == target {
                continue;
            }
            // The spikes that actually entered the output tile: the ones
            // the tile before it fired.
            let pre = system.tiles()[output_layer - 1].fired().clone();
            total += engine.teach_system(
                &mut system,
                output_layer,
                &pre,
                target,
                TeacherSignal::ShouldFire,
            )?;
            updates += 1;
        }
        println!(
            "after adaptation pass {}:       {:.1}% on the environment, {:.1}% held-out",
            pass + 1,
            100.0 * own_accuracy(&mut system)?,
            100.0 * accuracy(&mut system, &shifted.test, eval_samples)?
        );
    }

    // 5. The cost of adaptation, and the §4.4.1 comparison.
    println!();
    println!("on-chip adaptation cost ({updates} column updates):");
    println!("  SRAM cycles:   {}", total.cycles);
    println!("  latency:       {}", total.latency);
    println!("  energy:        {}", total.energy);
    println!("  bits flipped:  {}", total.bits_flipped);
    let per_update_cycles = total.cycles as f64 / updates as f64;
    println!(
        "  per column update: {per_update_cycles:.0} cycles (paper: 2x4 per 128-row block, x2 row groups = 16)"
    );
    println!(
        "  the 6T baseline would need 2x256 = 512 cycles per update ({}x more)",
        512.0 / per_update_cycles
    );
    Ok(())
}
