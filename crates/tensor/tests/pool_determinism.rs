//! Buffer-pool neutrality at the tensor layer: recycling buffers through
//! the pool must never change a single bit of any result. A tape graph
//! exercising the fused kernels (cos_feature, weighted_center,
//! scaled_masked_sq_sum), matmul and backward is replayed over a reset
//! tape — exactly the trainer's inner-loop pattern — from a cold (drained)
//! pool and again from the warm pool the first run left behind, whose
//! recycled buffers still hold its stale values, at 1 and 4 threads.
//! Every value must match bitwise.

use ood_tensor::rng::Rng;
use ood_tensor::{par, pool, Tape, Tensor};
use std::rc::Rc;
use std::sync::Mutex;

/// `par::set_threads` and the pool counters are process-global;
/// serialize tests touching them.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// Five replays of a loss + gradient graph over one reset tape; returns
/// every loss value and gradient element produced.
fn workload() -> Vec<f32> {
    let mut rng = Rng::seed_from(3);
    let (n, d) = (24usize, 6usize);
    let x = Tensor::randn([n, d], &mut rng);
    let w = Tensor::rand_uniform([n, 1], 0.5, 1.5, &mut rng);
    let w_row = Rc::new(Tensor::randn([d], &mut rng));
    let phi_row = Rc::new(Tensor::rand_uniform(
        [d],
        0.0,
        2.0 * std::f32::consts::PI,
        &mut rng,
    ));
    let mut mask = Tensor::zeros([d, d]);
    for i in 0..d {
        for j in (i + 1)..d {
            *mask.at_mut(i, j) = 1.0;
        }
    }
    let mask = Rc::new(mask);

    let mut out = Vec::new();
    let mut tape = Tape::new();
    for _ in 0..5 {
        tape.reset();
        let xn = tape.leaf(x.clone());
        let wn = tape.leaf(w.clone());
        let feat = tape.cos_feature(xn, w_row.clone(), phi_row.clone(), std::f32::consts::SQRT_2);
        let u = tape.weighted_center(feat, wn);
        let ut = tape.transpose(u);
        let prod = tape.matmul(ut, u);
        let loss = tape.scaled_masked_sq_sum(prod, mask.clone(), 1.0 / (n as f32 - 1.0));
        out.push(tape.value(loss).item());
        let g = tape.backward(loss);
        out.extend_from_slice(g.get(xn).expect("grad reaches x").data());
        out.extend_from_slice(g.get(wn).expect("grad reaches w").data());
    }
    out
}

/// Run the workload at `threads`, from a drained pool when `cold`, else
/// from whatever the previous run left in it.
fn run(cold: bool, threads: usize) -> (Vec<f32>, pool::PoolStats) {
    par::set_threads(threads);
    if cold {
        pool::drain_thread_pool();
    }
    pool::reset_stats();
    let out = workload();
    (out, pool::stats())
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

#[test]
fn pool_and_thread_count_never_change_results() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = run(true, 1);
    for threads in [1, 4] {
        let (cold, _) = run(true, threads);
        assert_bitwise_eq(&reference, &cold, &format!("cold pool t={threads} vs t=1"));
        let (warm, stats) = run(false, threads);
        assert_bitwise_eq(&reference, &warm, &format!("warm pool t={threads} vs t=1"));
        assert!(stats.hits > 0, "warm rerun never hit the pool: {stats:?}");
    }
    restore();
}

#[test]
fn replayed_tape_is_served_from_the_pool() {
    let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, stats) = run(true, 1);
    assert!(stats.hits > 0, "replays never hit the pool: {stats:?}");
    assert!(stats.bytes_reused > 0, "no bytes recycled: {stats:?}");
    // The replayed graph is identical each time, so after the first
    // iteration warms the pool, reuse should dominate fresh allocation.
    assert!(
        stats.hits > stats.misses,
        "hits {} should exceed misses {} on an identical replay",
        stats.hits,
        stats.misses
    );
    restore();
}
