//! Training phase: timed `OodGnn::train_run` calls (tracing off) and the
//! traced replica of its step loop, which calls the same public entry
//! points one by one inside a span per layer.

use datasets::OodBenchmark;
use gnn::models::ModelConfig;
use gnn::trainer::{per_sample_loss, TrainConfig};
use graph::GraphBatch;
use oodgnn_core::{OodGnn, OodGnnConfig, OodGnnReport, TrainOptions};
use std::time::Instant;
use tensor::nn::Module;
use tensor::ops::loss::weighted_mean;
use tensor::optim::{Adam, Optimizer};
use tensor::rng::Rng;
use tensor::{Mode, Tape, Tensor};

/// Model and trainer shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub hidden: usize,
    pub layers: usize,
    pub batch: usize,
    pub k_groups: usize,
    pub epoch_reweight: usize,
    pub epochs: usize,
}

impl TrainSpec {
    /// The OOD-GNN configuration this spec stands for (GIN backbone,
    /// dropout 0, trainer defaults otherwise).
    pub fn config(&self) -> OodGnnConfig {
        OodGnnConfig {
            model: ModelConfig {
                hidden: self.hidden,
                layers: self.layers,
                dropout: 0.0,
                ..Default::default()
            },
            train: TrainConfig {
                epochs: self.epochs,
                batch_size: self.batch,
                ..Default::default()
            },
            k_groups: self.k_groups,
            epoch_reweight: self.epoch_reweight,
            ..Default::default()
        }
    }
}

/// A freshly initialized model; `model_seed` fixes every parameter.
pub fn build(bench: &OodBenchmark, spec: &TrainSpec, model_seed: u64) -> OodGnn {
    let ds = &bench.dataset;
    OodGnn::new(
        ds.feature_dim(),
        ds.task(),
        spec.config(),
        &mut Rng::seed_from(model_seed),
    )
}

/// One `train_run` call on a fresh model: its report and wall seconds.
pub fn timed_run(
    bench: &OodBenchmark,
    spec: &TrainSpec,
    model_seed: u64,
    train_seed: u64,
) -> Result<(OodGnnReport, f64), String> {
    let mut model = build(bench, spec, model_seed);
    let t = Instant::now();
    let report = model
        .train_run(bench, train_seed, TrainOptions::default())
        .map_err(|e| format!("train_run failed: {e}"))?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// What the replica step loop produced.
pub struct Replica {
    /// Mean weighted loss per epoch, computed like `train_run`'s.
    pub loss_curve: Vec<f32>,
    /// Wall seconds of the whole step loop.
    pub wall_s: f64,
    /// Batches stepped.
    pub batches: usize,
    /// Nodes summed over every batch.
    pub nodes: usize,
}

/// Replay `train_run`'s step loop (Algorithm 1 without checkpointing or
/// guardrail skips) through the public calls, one span per layer. With
/// the same seeds and config its loss curve equals `train_run`'s bit for
/// bit; the caller checks that.
pub fn replica(
    bench: &OodBenchmark,
    spec: &TrainSpec,
    model_seed: u64,
    train_seed: u64,
) -> Result<Replica, String> {
    let ds = &bench.dataset;
    let cfg = spec.config();
    let mut ood = build(bench, spec, model_seed);
    let mut rng = Rng::seed_from(train_seed);
    let mut opt = Adam::new(cfg.train.lr)
        .with_weight_decay(cfg.train.weight_decay)
        .with_grad_clip(cfg.train.grad_clip);
    let mut out = Replica {
        loss_curve: Vec::with_capacity(spec.epochs),
        wall_s: 0.0,
        batches: 0,
        nodes: 0,
    };
    let t = Instant::now();
    for _ in 0..spec.epochs {
        let mut order = bench.split.train.clone();
        rng.shuffle(&mut order);
        let mut epoch_loss = 0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(spec.batch) {
            let batch = trace::span::time("graph.batch", || GraphBatch::from_dataset(ds, chunk));
            out.nodes += batch.num_nodes();
            let mut tape = Tape::new();
            let (z, z_value) = trace::span::time("gnn.encode", || {
                let z = ood
                    .model_mut()
                    .encode(&mut tape, &batch, Mode::Train, &mut rng);
                (z, tape.value(z).clone())
            });
            let w = trace::span::time("core.reweight", || ood.reweight(&z_value, &mut rng))
                .map_err(|e| format!("reweight failed: {e}"))?;
            let (loss, loss_value) = trace::span::time("gnn.head_loss", || {
                let logits = ood.model_mut().predict_from_rep(&mut tape, z, Mode::Train);
                let per_sample = per_sample_loss(&mut tape, logits, ds, chunk);
                let w = Tensor::from_vec(w, [chunk.len()]);
                let loss = weighted_mean(&mut tape, per_sample, &w);
                (loss, tape.value(loss).item())
            });
            epoch_loss += loss_value;
            batches += 1;
            let grads = trace::span::time("tensor.backward", || tape.backward(loss));
            trace::span::time("tensor.adam", || {
                opt.step(ood.model_mut().params_mut(), &grads)
            });
        }
        out.batches += batches;
        let denom = batches.max(1) as f32;
        out.loss_curve
            .push(if batches > 0 { epoch_loss / denom } else { 0.0 });
    }
    out.wall_s = t.elapsed().as_secs_f64();
    Ok(out)
}

/// Largest absolute difference between two loss curves (∞ when their
/// lengths differ); 0 exactly when they agree bit for bit.
pub fn curve_diff(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    if a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()) {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x as f64 - *y as f64).abs())
        .fold(f64::MIN_POSITIVE, f64::max)
}
