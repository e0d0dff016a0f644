//! End-to-end buffer-pool neutrality: a full OOD-GNN training run —
//! sample reweighting, RFF decorrelation, evaluation — must produce a
//! bitwise-identical report from a cold (drained) tensor buffer pool and
//! from the warm pool a previous run left behind, whose recycled buffers
//! still hold stale values, at 1 thread and at 4. This is the memory
//! engine's hard contract: recycling is invisible to the numerics.

use datasets::triangles::{generate, TrianglesConfig};
use gnn::encoder::ConvKind;
use gnn::models::ModelConfig;
use gnn::trainer::TrainConfig;
use oodgnn_core::{OodGnn, OodGnnConfig, OodGnnReport, TrainOptions};
use std::sync::Mutex;
use tensor::rng::Rng;
use tensor::{par, pool};

/// `par::set_threads` and the pool counters are process-global;
/// serialize tests touching them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn quick_config() -> OodGnnConfig {
    OodGnnConfig {
        model: ModelConfig {
            hidden: 16,
            layers: 2,
            dropout: 0.0,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 3e-3,
            ..Default::default()
        },
        epoch_reweight: 3,
        encoder: ConvKind::Gin,
        ..Default::default()
    }
}

/// Train at `threads`, from a drained pool when `cold`, else from
/// whatever the previous run left in it.
fn run_at(cold: bool, threads: usize) -> (OodGnnReport, pool::PoolStats) {
    par::set_threads(threads);
    if cold {
        pool::drain_thread_pool();
    }
    pool::reset_stats();
    let bench = generate(&TrianglesConfig::scaled(0.02), 1);
    let mut mrng = Rng::seed_from(7);
    let mut model = OodGnn::new(
        bench.dataset.feature_dim(),
        bench.dataset.task(),
        quick_config(),
        &mut mrng,
    );
    let report = model
        .train_run(&bench, 11, TrainOptions::default())
        .expect("training run completes");
    (report, pool::stats())
}

fn restore() {
    par::set_threads(par::max_threads());
}

fn assert_bitwise_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} != {y} (bitwise)"
        );
    }
}

fn assert_reports_bitwise_eq(a: &OodGnnReport, b: &OodGnnReport, what: &str) {
    assert_bitwise_eq(&a.loss_curve, &b.loss_curve, &format!("{what}: loss_curve"));
    assert_bitwise_eq(&a.hsic_curve, &b.hsic_curve, &format!("{what}: hsic_curve"));
    assert_bitwise_eq(
        &a.final_weights,
        &b.final_weights,
        &format!("{what}: final_weights"),
    );
    assert_eq!(
        a.test_metric.to_bits(),
        b.test_metric.to_bits(),
        "{what}: test metric must match bitwise"
    );
}

#[test]
fn full_training_run_is_pool_invariant_at_any_thread_count() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run_at(true, 1);
    for threads in [1, 4] {
        let (cold, cold_stats) = run_at(true, threads);
        assert_reports_bitwise_eq(&reference, &cold, &format!("cold pool t={threads} vs t=1"));
        let (warm, stats) = run_at(false, threads);
        assert_reports_bitwise_eq(&reference, &warm, &format!("warm pool t={threads} vs t=1"));
        assert!(
            stats.hits > 0,
            "warm training run never recycled a buffer: {stats:?}"
        );
        assert!(
            stats.allocations < cold_stats.allocations,
            "a warm pool must reduce fresh allocations: {} vs {}",
            stats.allocations,
            cold_stats.allocations
        );
    }
    restore();
}
