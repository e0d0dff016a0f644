//! `perfbench` — the repository benchmark harness.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     --serve-bin PATH --work-dir DIR
//! ```
//!
//! Every workload runs the system's whole life cycle: set-up (dataset
//! generation, checkpoint write, server start until listening), training
//! (`OodGnn::train_run` on the workload's own dataset and model shape) and
//! serving (open-loop TCP traffic against the real `oodgnn-serve` binary,
//! the same serving job on every workload). The workloads differ in which
//! layer dominates; see `perfbench/README.md`. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it carries
//! the per-layer metrics from spans recorded around each public call, and
//! a per-layer table is printed before it.

mod serve;
mod train;
mod util;

use datasets::OodBenchmark;
use serve::{NetShape, PhaseResult, Pool, ServerProc};
use std::path::PathBuf;
use std::time::Instant;
use tensor::rng::Rng;
use train::TrainSpec;
use util::{median, quantile, JsonObj};

/// Seconds of untimed light traffic each new server gets first.
const WARM_UP_S: f64 = 0.2;
/// Salts deriving the model and traffic seeds from `--seed`.
const MODEL_SALT: u64 = 0x9e37_79b9;
const TRAFFIC_SALT: u64 = 0x5851_f42d;

/// Which generator builds a workload's dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Data {
    /// TRIANGLES at `TrianglesConfig::scaled(frac)`.
    Triangles(f32),
    /// D&D-200 at `SocialConfig::dd200(frac)`.
    Dd200(f32),
}

/// A workload: the dataset and model shape its training phase runs, and
/// the share of a run's seconds it trains for. Every workload also
/// serves the same serving job (see `SERVE_DATA`), so every end-to-end
/// metric has a value on every workload.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    data: Data,
    train: TrainSpec,
    /// Share of `--seconds` spent training; the light and heavy phases
    /// split the rest evenly.
    train_share: f64,
}

/// The serving job: a seeded GIN 3×32 checkpoint for TRIANGLES, fed a
/// 50/50 mix of in-distribution and shifted TRIANGLES graphs at two fixed
/// offered rates. The rates keep the server's threads busy: at a few
/// hundred requests per second they sleep between requests, and latency
/// then follows the host's wake-up delays and each connection's
/// delayed-ACK timing, which vary from run to run.
const SERVE_DATA: Data = Data::Triangles(0.2);
const SERVE_SPEC: TrainSpec = TrainSpec {
    hidden: 32,
    layers: 3,
    batch: 32,
    k_groups: 1,
    epoch_reweight: 10,
    epochs: 2,
};
const LIGHT_RPS: f64 = 700.0;
const HEAVY_RPS: f64 = 2000.0;

/// Requests kept outstanding across all connections in the traced run's
/// saturation phase: below the server's admission queue, so a saturated
/// server queues instead of shedding.
const SAT_WINDOW: usize = 48;
/// Rounds a run's phases are interleaved over.
const ROUNDS: usize = 5;
/// Timed set-ups per round; `setup_s` is the median over all of them.
const SETUPS_PER_ROUND: usize = 3;

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train-tri-wide",
        data: Data::Triangles(0.2),
        train: TrainSpec {
            hidden: 128,
            layers: 3,
            batch: 32,
            k_groups: 4,
            epoch_reweight: 20,
            epochs: 1,
        },
        train_share: 0.5,
    },
    Workload {
        name: "train-dd-large",
        data: Data::Dd200(0.5),
        train: TrainSpec {
            hidden: 32,
            layers: 3,
            batch: 32,
            k_groups: 1,
            epoch_reweight: 10,
            epochs: 2,
        },
        train_share: 0.5,
    },
    Workload {
        name: "serve-tcp-mixed",
        data: SERVE_DATA,
        train: SERVE_SPEC,
        train_share: 0.2,
    },
];

impl Data {
    fn generate(self, seed: u64) -> OodBenchmark {
        match self {
            Data::Triangles(f) => datasets::triangles::generate(
                &datasets::triangles::TrianglesConfig::scaled(f),
                seed,
            ),
            Data::Dd200(f) => {
                datasets::social::generate(&datasets::social::SocialConfig::dd200(f), seed)
            }
        }
    }
}

/// The serving model's architecture for the serving dataset.
fn serve_net(bench: &OodBenchmark) -> NetShape {
    NetShape {
        in_dim: bench.dataset.feature_dim(),
        hidden: SERVE_SPEC.hidden,
        layers: SERVE_SPEC.layers,
        classes: bench.dataset.task().output_dim(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let flag = format!("--{name}");
        argv.iter()
            .position(|a| *a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("--{name}: {e}"))
    };
    Ok(Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: num("seconds")? as f64,
        trace: num("trace")? != 0,
        serve_bin: get("serve-bin")?.into(),
        work_dir: get("work-dir")?.into(),
    })
}

/// Metrics of one run, in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run hands back for printing.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Checks and context behind `correct`, printed as a detail line.
    detail: JsonObj,
}

fn main() {
    // One tensor worker per process: the harness (training, then the
    // traffic generator) and the server each get a core of their own on a
    // two-core host, and a descheduled pool worker cannot stall a barrier.
    // Outputs are bitwise independent of the thread count.
    std::env::set_var("OOD_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let metrics = out.metrics.iter().fold(JsonObj::default(), |m, (n, v, u)| {
                m.raw(
                    n,
                    &JsonObj::default().num("value", *v).str("unit", u).build(),
                )
            });
            println!("{}", out.detail.build());
            println!(
                "{}",
                JsonObj::default()
                    .bool("correct", out.correct)
                    .raw("attempted", &out.attempted.to_string())
                    .raw("failed", &out.failed.to_string())
                    .raw("metrics", &metrics.build())
                    .build()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A set-up: the training dataset, the serving dataset when it differs,
/// and the listening server.
struct Setup {
    train: OodBenchmark,
    serving: Option<OodBenchmark>,
    server: ServerProc,
}

impl Setup {
    fn serve_bench(&self) -> &OodBenchmark {
        self.serving.as_ref().unwrap_or(&self.train)
    }
}

/// Generate the workload's training dataset and, when it differs, the
/// serving dataset.
fn datasets(w: &Workload, seed: u64) -> (OodBenchmark, Option<OodBenchmark>) {
    let train = w.data.generate(seed);
    let serving = (w.data != SERVE_DATA).then(|| SERVE_DATA.generate(seed));
    (train, serving)
}

/// Set up once: datasets, the serving model and its checkpoint, and a
/// fresh server listening on it. Returns the set-up and its seconds.
fn set_up(w: &Workload, a: &Args, ckpt: &std::path::Path) -> Result<(Setup, f64), String> {
    let t = Instant::now();
    let (train, serving) = datasets(w, a.seed);
    let serve_bench = serving.as_ref().unwrap_or(&train);
    let net = serve_net(serve_bench);
    let mut model = train::build(serve_bench, &SERVE_SPEC, a.seed ^ MODEL_SALT);
    oodgnn_serve::checkpoint_from_model(model.model_mut())
        .save(ckpt)
        .map_err(|e| format!("checkpoint write: {e}"))?;
    let server = ServerProc::start(&a.serve_bin, ckpt, &net)?;
    let setup = Setup {
        train,
        serving,
        server,
    };
    Ok((setup, t.elapsed().as_secs_f64()))
}

fn run(a: &Args) -> Result<Outcome, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == a.workload)
        .ok_or_else(|| format!("unknown workload `{}`", a.workload))?;
    std::fs::create_dir_all(&a.work_dir).map_err(|e| e.to_string())?;
    let ckpt = a.work_dir.join("model.oods");
    // The first set-up is a warm-up: it builds the reference model and the
    // request pool, and its training run sizes the rounds.
    let (setup, _) = set_up(w, a, &ckpt)?;
    let bench = &setup.train;
    let net = serve_net(setup.serve_bench());
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        detail: JsonObj::default()
            .str("workload", w.name)
            .num("seed", a.seed as f64)
            .bool("trace", a.trace),
    };

    let graphs_per_run = (w.train.epochs * bench.split.train.len()) as f64;
    let model_seed = a.seed ^ MODEL_SALT;
    let (first, first_s) = train::timed_run(bench, &w.train, model_seed, a.seed)?;
    out.attempted += 1;
    out.correct &= first.test_metric.is_finite();
    out.detail = out
        .detail
        .num("train_graphs", bench.split.train.len() as f64)
        .num("ood_test_acc", first.test_metric as f64);
    let mut reference = serve::load_model(&ckpt, &net)?;
    let pool = Pool::new(setup.serve_bench(), &mut reference);
    let conns = util::nproc().clamp(1, 4);
    let mut rng = Rng::seed_from(a.seed ^ TRAFFIC_SALT);
    // A phase of open-loop traffic against the server at `addr`. Each new
    // server gets a short untimed warm-up first, whose requests are
    // still checked and counted.
    let phase = |addr, rate: f64, secs: f64, rng: &mut Rng| -> Result<PhaseResult, String> {
        let plan = serve::schedule(&pool, rate, secs, rng);
        serve::run_phase(addr, &pool, &plan, rate, conns)
    };
    let warm_up = |addr, out: &mut Outcome, rng: &mut Rng| -> Result<(), String> {
        let r = phase(addr, LIGHT_RPS, WARM_UP_S, rng)?;
        out.attempted += r.sent;
        out.failed += r.failed;
        out.correct &= r.failed == 0;
        Ok(())
    };

    if a.trace {
        let server = &setup.server;
        warm_up(server.addr, &mut out, &mut rng)?;
        let mut layers: Metrics = Vec::new();
        trace_training(w, bench, a.seed, &first, &mut out, &mut layers)?;
        layers.push(("quality.ood_test_acc", first.test_metric as f64, "fraction"));
        let generate_s: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                datasets(w, a.seed);
                t.elapsed().as_secs_f64()
            })
            .collect();
        layers.push(("datasets.generate_s", median(&generate_s), "s"));
        let loads = (0..5)
            .map(|_| serve::registry_load_ms(&ckpt, &net))
            .collect::<Result<Vec<_>, _>>()?;
        layers.push(("serve.registry_load_ms", median(&loads), "ms"));
        // The serving time is split evenly over the light, heavy and
        // saturation phases.
        let secs = a.seconds * (1.0 - w.train_share) / 3.0;
        let light = phase(server.addr, LIGHT_RPS, secs, &mut rng)?;
        let (ok0, batches0) = serve::server_counters(server.addr)?;
        let heavy = phase(server.addr, HEAVY_RPS, secs, &mut rng)?;
        let (ok1, batches1) = serve::server_counters(server.addr)?;
        let sat = serve::saturate(
            server.addr,
            &pool,
            conns,
            SAT_WINDOW / conns,
            secs,
            a.seed ^ TRAFFIC_SALT,
        )?;
        record_phases(&mut out, &light, &heavy);
        out.attempted += sat.sent;
        out.failed += sat.failed;
        out.correct &= sat.mismatches == 0;
        layers.push(("serve.sat_rps", sat.rps(), "1/s"));
        layers.push(("serve.lat_p50_ms.light", light.p50(), "ms"));
        layers.push(("serve.lat_p99_ms.light", light.p99(), "ms"));
        layers.push(("serve.lat_p50_ms.heavy", heavy.p50(), "ms"));
        layers.push(("serve.peak_rss_mb", server.peak_rss_mb(), "MiB"));
        trace_serving(&pool, &mut reference, &light, &heavy, &mut layers);
        layers.push((
            "serve.batch_mean",
            (ok1 - ok0) / (batches1 - batches0).max(1.0),
            "count",
        ));
        let (late_p99, late_max) = lateness(&light, &heavy);
        layers.push(("gen.late_p99_ms", late_p99, "ms"));
        layers.push(("gen.late_max_ms", late_max, "ms"));
        layers.push((
            "mem.train_peak_rss_mb",
            util::peak_rss_mb("self").unwrap_or(0.0),
            "MiB",
        ));
        out.metrics = layers;
        print_table(w, &out.metrics);
        setup.server.stop();
        return Ok(out);
    }
    drop(setup);

    // The run goes through ROUNDS rounds, each with set-ups of its own
    // (so a fresh server), a warm-up, training, and a light and a heavy
    // phase. Each metric is the median of its per-round values, so neither
    // the state one server process happens to settle in nor a busy spell
    // of a shared host that spans less than half the rounds moves it.
    // Every timed `train_run` must reproduce the warm-up run's loss curve
    // and test metric bit for bit.
    let mut gps = Vec::new();
    let mut repeat_identical = true;
    let mut light = PhaseResult::default();
    let mut heavy = PhaseResult::default();
    let mut per_round: [Vec<f64>; 7] = Default::default();
    let train_budget = a.seconds * w.train_share;
    let serve_slice = a.seconds * (1.0 - w.train_share) / 2.0 / ROUNDS as f64;
    let mut trained_s = 0.0;
    let mut last_s = first_s;
    for round in 0..ROUNDS {
        // Every set-up but the round's last is stopped at once: they only
        // add samples to `setup_s`.
        for _ in 1..SETUPS_PER_ROUND {
            let (setup, setup_s) = set_up(w, a, &ckpt)?;
            setup.server.stop();
            per_round[0].push(setup_s);
        }
        let (setup, setup_s) = set_up(w, a, &ckpt)?;
        let addr = setup.server.addr;
        warm_up(addr, &mut out, &mut rng)?;
        // Whole `train_run` calls: at least one per round, and another
        // while it is expected to end within the training time budgeted
        // up to the end of this round.
        let until = train_budget * (round + 1) as f64 / ROUNDS as f64;
        let (mut runs, mut secs) = (0, 0.0);
        while runs == 0 || trained_s + last_s <= until {
            let (r, s) = train::timed_run(&setup.train, &w.train, model_seed, a.seed)?;
            out.attempted += 1;
            gps.push(graphs_per_run / s);
            (runs, secs, trained_s, last_s) = (runs + 1, secs + s, trained_s + s, s);
            repeat_identical &= train::curve_diff(&r.loss_curve, &first.loss_curve) == 0.0
                && r.test_metric.to_bits() == first.test_metric.to_bits();
        }
        let l = phase(addr, LIGHT_RPS, serve_slice, &mut rng)?;
        let cpu0 = setup.server.cpu_s();
        let h = phase(addr, HEAVY_RPS, serve_slice, &mut rng)?;
        let cpu_ms_per_req = (setup.server.cpu_s() - cpu0) * 1e3 / h.ok.max(1) as f64;
        for (values, v) in per_round.iter_mut().zip([
            setup_s,
            graphs_per_run * runs as f64 / secs,
            cpu_ms_per_req,
            l.p50(),
            l.p99(),
            h.p50(),
            setup.server.peak_rss_mb(),
        ]) {
            values.push(v);
        }
        setup.server.stop();
        light.absorb(l);
        heavy.absorb(h);
    }
    out.correct &= repeat_identical;
    record_phases(&mut out, &light, &heavy);
    out.detail = out
        .detail
        .raw("train_graphs_per_s", &format!("{gps:?}"))
        .bool("train_runs_identical", repeat_identical)
        .num(
            "harness_peak_rss_mb",
            util::peak_rss_mb("self").unwrap_or(0.0),
        );
    // The last four move with the host's load far more than a bound
    // allows (see README.md): they go to the detail line only.
    let names = [
        ("setup_s", "s"),
        ("train_graphs_per_s", "1/s"),
        ("serve_cpu_ms_per_req", "ms"),
        ("lat_p50_ms.light", "ms"),
        ("lat_p99_ms.light", "ms"),
        ("lat_p50_ms.heavy", "ms"),
        ("server_peak_rss_mb", "MiB"),
    ];
    for (i, ((name, unit), values)) in names.into_iter().zip(&per_round).enumerate() {
        out.detail =
            std::mem::take(&mut out.detail).raw(&format!("rounds.{name}"), &format!("{values:?}"));
        if i < 3 {
            out.metrics.push((name, median(values), unit));
        }
    }
    Ok(out)
}

/// Fold the light and heavy phases into the run's counts, correctness
/// and detail line. The light rate is below capacity, so any failure
/// there makes the run incorrect.
fn record_phases(out: &mut Outcome, light: &PhaseResult, heavy: &PhaseResult) {
    for (name, r) in [("light", light), ("heavy", heavy)] {
        out.attempted += r.sent;
        out.failed += r.failed;
        out.correct &= r.mismatches == 0;
        out.detail = std::mem::take(&mut out.detail).raw(name, &phase_json(r));
    }
    out.correct &= light.failed == 0;
    let (late_p99, late_max) = lateness(light, heavy);
    out.detail = std::mem::take(&mut out.detail)
        .num("gen_late_p99_ms", late_p99)
        .num("gen_late_max_ms", late_max);
}

/// How late the generator sent, p99 and max over both phases, ms.
fn lateness(light: &PhaseResult, heavy: &PhaseResult) -> (f64, f64) {
    let late: Vec<f64> = light
        .late_ms
        .iter()
        .chain(&heavy.late_ms)
        .copied()
        .collect();
    (
        quantile(&late, 0.99),
        late.iter().copied().fold(0.0, f64::max),
    )
}

/// One phase's counts and latency summary as JSON.
fn phase_json(r: &PhaseResult) -> String {
    JsonObj::default()
        .num("rate", r.rate)
        .num("sent", r.sent as f64)
        .num("ok", r.ok as f64)
        .num("failed", r.failed as f64)
        .num("mismatches", r.mismatches as f64)
        .num("p50_ms", r.p50())
        .num("p99_ms", r.p99())
        .num("late_p99_ms", quantile(&r.late_ms, 0.99))
        .raw(
            "fail_causes",
            &r.fail_causes
                .iter()
                .fold(JsonObj::default(), |o, (c, n)| o.num(c, *n as f64))
                .build(),
        )
        .build()
}

/// Traced training: the replica step loop under an in-memory sink, its
/// loss curve checked against `train_run`'s, and per-layer self time per
/// step.
fn trace_training(
    w: &Workload,
    bench: &OodBenchmark,
    seed: u64,
    report: &oodgnn_core::OodGnnReport,
    out: &mut Outcome,
    layers: &mut Metrics,
) -> Result<(), String> {
    let model_seed = seed ^ MODEL_SALT;
    let untraced = train::replica(bench, &w.train, model_seed, seed)?;
    let sink = trace::MemorySink::shared();
    trace::metrics::reset();
    trace::attach(Box::new(sink.clone()));
    let replica = train::replica(bench, &w.train, model_seed, seed);
    trace::metrics::flush();
    trace::detach_all();
    let replica = replica?;
    let diff = train::curve_diff(&replica.loss_curve, &report.loss_curve);
    out.correct &= diff == 0.0;
    let analysis = trace::agg::analyze(&sink.events());
    let steps = replica.batches.max(1) as f64;
    let root_ms = |name: &str| {
        analysis
            .roots
            .iter()
            .find(|n| n.path == name)
            .map_or(0.0, |n| n.total_us as f64 / 1e3)
    };
    let names = [
        ("graph.batch_ms", "graph.batch"),
        ("gnn.encode_ms", "gnn.encode"),
        ("core.reweight_ms", "core.reweight"),
        ("gnn.head_loss_ms", "gnn.head_loss"),
        ("tensor.backward_ms", "tensor.backward"),
        ("tensor.adam_ms", "tensor.adam"),
    ];
    let mut covered_ms = 0.0;
    for (metric, span) in names {
        let ms = root_ms(span);
        covered_ms += ms;
        layers.push((metric, ms / steps, "ms"));
    }
    let wall_ms = replica.wall_s * 1e3;
    layers.push((
        "graph.nodes_per_batch",
        replica.nodes as f64 / steps,
        "count",
    ));
    // Inner steps the library reports having taken, per training step.
    let inner_iters = analysis
        .counters
        .get("reweight/inner_iters")
        .copied()
        .unwrap_or(0);
    layers.push(("core.reweight_iters", inner_iters as f64 / steps, "count"));
    let coverage = 100.0 * covered_ms / wall_ms;
    out.correct &= coverage >= 95.0;
    layers.push(("trace.coverage_pct", coverage, "%"));
    layers.push((
        "trace.overhead_pct",
        100.0 * (replica.wall_s / untraced.wall_s - 1.0),
        "%",
    ));
    out.detail = std::mem::take(&mut out.detail)
        .num("replica_loss_max_abs_diff", diff)
        .bool("replica_matches_train_run", diff == 0.0)
        .num("replica_step_ms", wall_ms / steps);
    Ok(())
}

/// Serving layers: in-process timings of the public calls the server
/// makes (parse, forward, reply encode) on the workload's request mix,
/// plus the stage means the server reported on the wire.
fn trace_serving(
    pool: &Pool,
    model: &mut gnn::GnnModel,
    light: &PhaseResult,
    heavy: &PhaseResult,
    layers: &mut Metrics,
) {
    let mut rng = Rng::seed_from(1);
    let picks: Vec<usize> = (0..256).map(|_| pool.draw(&mut rng)).collect();
    // Forward on batches of 8 (the server's default coalescing bound).
    let forward_s = per_call(|| {
        for chunk in picks.chunks(8) {
            let graphs: Vec<&graph::Graph> = chunk.iter().map(|&i| &pool.graphs[i]).collect();
            serve::predict(model, &graphs);
        }
    });
    layers.push((
        "serve.forward_ms",
        forward_s * 1e3 / (picks.len() / 8) as f64,
        "ms",
    ));
    let lines: Vec<String> = picks
        .iter()
        .map(|&i| format!("{{\"op\":\"infer\",\"id\":\"p\",{}", pool.tails[i]))
        .collect();
    let limits = oodgnn_serve::Limits::default();
    let parse_s = per_call(|| {
        for line in &lines {
            std::hint::black_box(oodgnn_serve::parse_request(line, &limits).is_ok());
        }
    });
    layers.push(("serve.parse_us", parse_s * 1e6 / lines.len() as f64, "us"));
    let replies: Vec<oodgnn_serve::Response> = picks
        .iter()
        .map(|&i| {
            let mut r = oodgnn_serve::Response::new("p", oodgnn_serve::Status::Ok);
            r.outputs = Some(
                pool.reference[i]
                    .iter()
                    .map(|&b| f32::from_bits(b))
                    .collect(),
            );
            r.latency_us = Some(100);
            r.timing = Some(oodgnn_serve::StageTiming::default());
            r
        })
        .collect();
    let encode_s = per_call(|| {
        for r in &replies {
            std::hint::black_box(r.to_json().len());
        }
    });
    layers.push((
        "serve.reply_encode_us",
        encode_s * 1e6 / replies.len() as f64,
        "us",
    ));
    let (queue, assemble, compute, write, _) = serve::stage_means(heavy);
    let (.., transport) = serve::stage_means(light);
    layers.push(("serve.queue_ms", queue, "ms"));
    layers.push(("serve.assemble_ms", assemble, "ms"));
    layers.push(("serve.compute_ms", compute, "ms"));
    layers.push(("serve.write_ms", write, "ms"));
    layers.push(("serve.transport_ms", transport, "ms"));
}

/// Seconds per call of `f`, repeated for at least a quarter second.
fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0;
    while calls == 0 || t.elapsed().as_secs_f64() < 0.25 {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / calls as f64
}

/// Which end-to-end metric each layer should move, for the printed table.
fn moves(layer: &str, workload: &str) -> &'static str {
    match layer {
        "datasets.generate_s" | "serve.registry_load_ms" => "setup_s",
        "graph.batch_ms"
        | "graph.nodes_per_batch"
        | "gnn.encode_ms"
        | "tensor.backward_ms"
        | "gnn.head_loss_ms"
        | "tensor.adam_ms" => "train_graphs_per_s",
        "core.reweight_ms" | "core.reweight_iters" => {
            if workload == "train-tri-wide" {
                "train_graphs_per_s (main)"
            } else {
                "train_graphs_per_s (small)"
            }
        }
        "serve.forward_ms" | "serve.compute_ms" | "serve.batch_mean" => "serve_cpu_ms_per_req",
        "serve.parse_us" | "serve.reply_encode_us" => "serve_cpu_ms_per_req",
        "serve.write_ms" | "serve.transport_ms" => "serve.lat_p50_ms.light",
        "serve.queue_ms"
        | "serve.assemble_ms"
        | "serve.sat_rps"
        | "serve.lat_p50_ms.light"
        | "serve.lat_p99_ms.light"
        | "serve.lat_p50_ms.heavy"
        | "serve.peak_rss_mb" => "(serving under load)",
        "mem.train_peak_rss_mb" => "(training memory)",
        _ => "(harness)",
    }
}

fn print_table(w: &Workload, layers: &Metrics) {
    println!("per-layer table, workload {}", w.name);
    println!("{:<26} {:>14} {:<6} moves", "layer metric", "value", "unit");
    for (name, v, unit) in layers {
        println!("{name:<26} {v:>14.4} {unit:<6} {}", moves(name, w.name));
    }
}
