//! Serving phase: the real `oodgnn-serve --listen` binary as a child
//! process, fed by an open-loop generator that sends a precomputed,
//! seeded Poisson schedule over persistent TCP connections and times
//! every request from the moment it was due.

use crate::util::{mean, peak_rss_mb, quantile};
use datasets::OodBenchmark;
use graph::{Graph, GraphBatch, Label};
use oodgnn_core::TrainCheckpoint;
use oodgnn_serve::{ModelSpec, Registry};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::rng::Rng;
use tensor::{Mode, Tape, Tensor};

/// Architecture flags shared by the server command line and the
/// in-process reference model.
#[derive(Debug, Clone, Copy)]
pub struct NetShape {
    pub in_dim: usize,
    pub hidden: usize,
    pub layers: usize,
    pub classes: usize,
}

impl NetShape {
    /// The registry spec the server builds from these flags.
    pub fn spec(&self) -> ModelSpec {
        ModelSpec::new(
            "gin",
            self.in_dim,
            self.hidden,
            self.layers,
            graph::TaskType::MultiClass {
                classes: self.classes,
            },
        )
    }
}

/// A running `oodgnn-serve --listen 127.0.0.1:0` child.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Drains the child's stderr; ends when the child closes it.
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start the server on `checkpoint` and block until it listens.
    pub fn start(bin: &Path, checkpoint: &Path, net: &NetShape) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--checkpoint", &checkpoint.display().to_string()])
            .args(["--in-dim", &net.in_dim.to_string()])
            .args(["--hidden", &net.hidden.to_string()])
            .args(["--layers", &net.layers.to_string()])
            .args(["--out-dim", &net.classes.to_string()])
            .args(["--listen", "127.0.0.1:0"])
            // Admission queue, deadline and per-connection reply queue far
            // beyond what a stall of the host can fill or outlast (the
            // queue holds half a minute of heavy-rate arrivals), so a busy
            // spell delays requests and never sheds, expires or drops them.
            .args(["--queue", "65536"])
            .args(["--deadline-ms", "120000"])
            .args(["--outbound-cap", "65536"])
            .env("OOD_TELEMETRY", "0")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("oodgnn-serve: listening on ") {
                        break a
                            .parse()
                            .map_err(|e| format!("bad listen address `{a}`: {e}"))?;
                    }
                }
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        Ok(ServerProc {
            child,
            stdin,
            drain: Some(drain),
            addr,
        })
    }

    /// Peak resident memory of the server so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// CPU seconds the server has used so far, user plus system, over all
    /// its threads (`/proc/<pid>/stat`, in 1/100 s ticks); 0 when
    /// unavailable.
    pub fn cpu_s(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()));
        let ticks = stat.ok().and_then(|st| {
            // Fields after the parenthesized command name start at `state`;
            // `utime` and `stime` follow 11 and 12 fields later.
            let rest = &st[st.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        });
        ticks.unwrap_or(0.0) / 100.0
    }

    /// Drain over the control plane and wait for exit (killed after 10 s).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"{\"op\":\"drain\",\"id\":\"stop\"}\n");
        }
        let t = Instant::now();
        while !matches!(self.child.try_wait(), Ok(Some(_))) {
            if t.elapsed() > Duration::from_secs(10) {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.shutdown();
        }
    }
}

/// The graphs traffic is drawn from, each pre-serialized as the tail of
/// an `infer` request, with the reference outputs a correct server must
/// return for it. In-distribution graphs come from the train and
/// validation splits: D&D-200 has only 25 validation graphs, too few to
/// fix the request-size mix.
pub struct Pool {
    /// `"nodes":…,"features":[…],"timing":true}` request tails.
    pub tails: Vec<String>,
    /// Expected `outputs` bits per graph.
    pub reference: Vec<Vec<u32>>,
    /// Indices into `tails` of in-distribution (train and val) graphs.
    pub in_dist: Vec<usize>,
    /// Indices into `tails` of shifted (test) graphs.
    pub shifted: Vec<usize>,
    /// The graphs themselves, rebuilt exactly as the server rebuilds them.
    pub graphs: Vec<Graph>,
}

/// Rebuild a dataset graph the way the server rebuilds a request: the
/// same features and directed edges, a placeholder label.
fn wire_graph(g: &Graph) -> Graph {
    let mut out = Graph::new(g.num_nodes(), g.features().clone(), Label::Class(0));
    for &(s, d) in g.edges() {
        out.add_directed_edge(s as usize, d as usize);
    }
    out
}

/// Serialize a graph as an `infer` request tail. Features use Rust's
/// shortest round-trip float formatting, so the wire hop is bit-exact.
fn request_tail(g: &Graph) -> String {
    let edges: Vec<String> = g
        .edges()
        .iter()
        .map(|(s, d)| format!("[{s},{d}]"))
        .collect();
    let feats: Vec<String> = g
        .features()
        .data()
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    format!(
        "\"nodes\":{},\"edges\":[{}],\"features\":[{}],\"timing\":true}}",
        g.num_nodes(),
        edges.join(","),
        feats.join(",")
    )
}

/// The server's multi-class postprocess: a softmax in sequential scalar
/// arithmetic, reproduced so reference outputs can be compared bitwise.
fn softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Restore `checkpoint` into a fresh model of `net`'s architecture the
/// way the registry does for training snapshots.
pub fn load_model(checkpoint: &Path, net: &NetShape) -> Result<gnn::GnnModel, String> {
    let mut model = net.spec().build()?;
    let ck = TrainCheckpoint::load(checkpoint).map_err(|e| e.to_string())?;
    oodgnn_serve::restore_into(&mut model, &ck)?;
    Ok(model)
}

/// Time `Registry::load` of `checkpoint`, ms.
pub fn registry_load_ms(checkpoint: &Path, net: &NetShape) -> Result<f64, String> {
    let t = Instant::now();
    Registry::new().load("default", &net.spec(), checkpoint)?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// Eval-mode forward of a batch; returns the output rows.
pub fn predict(model: &mut gnn::GnnModel, graphs: &[&Graph]) -> Tensor {
    let batch = GraphBatch::from_graphs(graphs);
    let mut tape = Tape::new();
    let out = model.predict(&mut tape, &batch, Mode::Eval, &mut Rng::seed_from(0));
    let value = tape.value(out).clone();
    for p in tensor::nn::Module::params_mut(model) {
        p.clear_binding();
    }
    value
}

impl Pool {
    /// Build the pool and its reference outputs from `model`, one graph
    /// per forward (outputs do not depend on batch composition).
    pub fn new(bench: &OodBenchmark, model: &mut gnn::GnnModel) -> Pool {
        let ds = &bench.dataset;
        let mut pool = Pool {
            tails: Vec::new(),
            reference: Vec::new(),
            in_dist: Vec::new(),
            shifted: Vec::new(),
            graphs: Vec::new(),
        };
        let in_dist: Vec<usize> = bench
            .split
            .train
            .iter()
            .chain(&bench.split.val)
            .copied()
            .collect();
        for (split, shifted) in [(&in_dist, false), (&bench.split.test, true)] {
            for &gi in split {
                let g = wire_graph(ds.graph(gi));
                let out = predict(model, &[&g]);
                let idx = pool.tails.len();
                pool.tails.push(request_tail(&g));
                pool.reference
                    .push(softmax(out.row(0)).iter().map(|v| v.to_bits()).collect());
                pool.graphs.push(g);
                if shifted {
                    pool.shifted.push(idx);
                } else {
                    pool.in_dist.push(idx);
                }
            }
        }
        pool
    }

    /// A graph drawn 50/50 from the in-distribution and shifted halves.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let half = if rng.unit() < 0.5 {
            &self.in_dist
        } else {
            &self.shifted
        };
        half[rng.below(half.len())]
    }
}

/// One scheduled request: when it is due (µs after the phase starts) and
/// which pool graph it carries.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due_us: u64,
    pub graph: usize,
}

/// A seeded Poisson arrival schedule at `rate` requests/s over `secs`.
pub fn schedule(pool: &Pool, rate: f64, secs: f64, rng: &mut Rng) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u = (rng.unit() as f64).min(1.0 - 1e-9);
        t += -(1.0 - u).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(Planned {
            due_us: (t * 1e6) as u64,
            graph: pool.draw(rng),
        });
    }
}

/// Server-reported per-stage timing of one reply, µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub queue: f64,
    pub assemble: f64,
    pub compute: f64,
    pub write: f64,
    pub total: f64,
}

/// Outcome of one open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    pub rate: f64,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    /// `ok` replies whose outputs differ from the reference.
    pub mismatches: usize,
    /// Latency of `ok` replies from their due time, ms.
    pub lat_ms: Vec<f64>,
    /// Latency of `ok` replies from their send time, ms, paired with the
    /// server-reported timing.
    pub timed: Vec<(f64, Timing)>,
    /// How late the generator sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Failed requests by cause: the reply's status, `mismatch` for an
    /// `ok` reply with wrong outputs, `unsent` or `missing`.
    pub fail_causes: BTreeMap<String, usize>,
}

impl PhaseResult {
    pub fn p50(&self) -> f64 {
        quantile(&self.lat_ms, 0.5)
    }

    pub fn p99(&self) -> f64 {
        quantile(&self.lat_ms, 0.99)
    }

    /// Append another slice of the same phase.
    pub fn absorb(&mut self, other: PhaseResult) {
        self.rate = other.rate;
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.lat_ms.extend(other.lat_ms);
        self.timed.extend(other.timed);
        self.late_ms.extend(other.late_ms);
        for (cause, n) in other.fail_causes {
            *self.fail_causes.entry(cause).or_default() += n;
        }
    }

    fn fail(&mut self, cause: &str) {
        self.failed += 1;
        *self.fail_causes.entry(cause.to_string()).or_default() += 1;
    }
}

/// The request id's number: replies echo `"id":"r<idx>"`.
fn reply_index(line: &str) -> Option<usize> {
    let rest = &line[line.find("\"id\":\"r")? + 7..];
    rest[..rest.find('"')?].parse().ok()
}

/// The `status` of a reply line (`unparsed` when it has none).
fn status(line: &str) -> String {
    line.find("\"status\":\"")
        .map(|i| &line[i + 10..])
        .and_then(|rest| rest.find('"').map(|end| rest[..end].to_string()))
        .unwrap_or_else(|| "unparsed".into())
}

/// The numeric value of `"key":<number>` in a reply line.
fn field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `outputs` array of a reply line, as f32 bits.
fn outputs(line: &str) -> Option<Vec<u32>> {
    let rest = &line[line.find("\"outputs\":[")? + 11..];
    let body = &rest[..rest.find(']')?];
    body.split(',')
        .map(|v| v.parse::<f64>().ok().map(|x| (x as f32).to_bits()))
        .collect()
}

/// Read `expect` reply lines from one connection, each with the µs (after
/// `t0`) it arrived and the request index its id names; stops early when
/// the connection closes or `give_up_us` passes.
fn read_replies(
    stream: TcpStream,
    expect: usize,
    t0: Instant,
    give_up_us: u64,
) -> Vec<(usize, u64, String)> {
    let mut reader = BufReader::new(stream);
    let mut got = Vec::with_capacity(expect);
    let mut line = Vec::new();
    while got.len() < expect && (t0.elapsed().as_micros() as u64) < give_up_us {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.last() == Some(&b'\n') => {
                let at = t0.elapsed().as_micros() as u64;
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                if let Some(i) = reply_index(&text) {
                    got.push((i, at, text));
                }
                line.clear();
            }
            // A partial line stays in `line` until the rest arrives.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    got
}

/// Run one open-loop phase against `addr` over `conns` fresh persistent
/// connections, then check every reply against the pool's references.
/// This thread sends request `i` when it is due, on connection
/// `i % conns`, in one write per line with its newline; one thread per
/// connection reads the replies.
pub fn run_phase(
    addr: SocketAddr,
    pool: &Pool,
    plan: &[Planned],
    rate: f64,
    conns: usize,
) -> Result<PhaseResult, String> {
    let mut streams = Vec::with_capacity(conns);
    let mut readers = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        // Only bounds how long a reader takes to notice the give-up time.
        s.set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| e.to_string())?;
        readers.push(s.try_clone().map_err(|e| e.to_string())?);
        streams.push(s);
    }
    let lines: Vec<Vec<u8>> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "{{\"op\":\"infer\",\"id\":\"r{i}\",{}\n",
                pool.tails[p.graph]
            )
            .into_bytes()
        })
        .collect();
    // A healthy server answers every request (see `ServerProc::start`),
    // if late in a busy spell: wait long for the last replies.
    let give_up_us = plan.last().map_or(0, |p| p.due_us) + 20_000_000;
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut send_us: Vec<Option<u64>> = vec![None; plan.len()];
    let replies: Vec<(usize, u64, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let expect = plan.len().saturating_sub(c).div_ceil(conns);
                s.spawn(move || read_replies(stream, expect, t0, give_up_us))
            })
            .collect();
        for (i, p) in plan.iter().enumerate() {
            let due = t0 + Duration::from_micros(p.due_us);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            send_us[i] = Some(t0.elapsed().as_micros() as u64);
            if (&streams[i % conns]).write_all(&lines[i]).is_err() {
                send_us[i] = None;
                break;
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut obs: Vec<Option<(u64, String)>> = vec![None; plan.len()];
    for (i, at, line) in replies {
        if let Some(slot @ None) = obs.get_mut(i) {
            *slot = Some((at, line));
        }
    }
    let mut r = PhaseResult {
        rate,
        sent: plan.len(),
        ..Default::default()
    };
    for ((p, send), o) in plan.iter().zip(&send_us).zip(&obs) {
        if let Some(send) = send {
            r.late_ms.push(send.saturating_sub(p.due_us) as f64 / 1e3);
        }
        let (Some(send), Some((recv, line))) = (send, o) else {
            r.fail(if send.is_none() { "unsent" } else { "missing" });
            continue;
        };
        if !line.contains("\"status\":\"ok\"") {
            r.fail(&status(line));
            continue;
        }
        if outputs(line).as_ref() != Some(&pool.reference[p.graph]) {
            r.mismatches += 1;
            r.fail("mismatch");
            continue;
        }
        r.ok += 1;
        r.lat_ms.push(recv.saturating_sub(p.due_us) as f64 / 1e3);
        let timing = Timing {
            queue: field(line, "queue_us").unwrap_or(0.0),
            assemble: field(line, "assemble_us").unwrap_or(0.0),
            compute: field(line, "compute_us").unwrap_or(0.0),
            write: field(line, "write_us").unwrap_or(0.0),
            total: field(line, "total_us").unwrap_or(0.0),
        };
        r.timed
            .push((recv.saturating_sub(*send) as f64 / 1e3, timing));
    }
    Ok(r)
}

/// Outcome of a closed-loop saturation phase.
#[derive(Debug, Clone, Default)]
pub struct SaturationResult {
    /// Requests sent, inside the window or before it closed.
    pub sent: usize,
    /// Correct replies received inside the measured window.
    pub ok: usize,
    pub failed: usize,
    pub mismatches: usize,
    pub secs: f64,
}

impl SaturationResult {
    /// Correct `ok` replies per second inside the window.
    pub fn rps(&self) -> f64 {
        self.ok as f64 / self.secs
    }
}

/// Closed loop at saturation: each of `conns` connections keeps `window`
/// requests outstanding (their sum stays below the server's admission
/// queue, so nothing is shed) and sends the next one as each reply
/// arrives. Counts correct replies received during `secs`.
pub fn saturate(
    addr: SocketAddr,
    pool: &Pool,
    conns: usize,
    window: usize,
    secs: f64,
    seed: u64,
) -> Result<SaturationResult, String> {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let per_conn: Vec<Result<SaturationResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> Result<SaturationResult, String> {
                    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .map_err(|e| e.to_string())?;
                    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                    let mut writer = stream;
                    let mut rng = Rng::seed_from(seed ^ c as u64);
                    let mut sent: Vec<usize> = Vec::new();
                    let mut send = |sent: &mut Vec<usize>| -> Result<(), String> {
                        let g = pool.draw(&mut rng);
                        let line = format!(
                            "{{\"op\":\"infer\",\"id\":\"r{}\",{}\n",
                            sent.len(),
                            pool.tails[g]
                        );
                        sent.push(g);
                        writer.write_all(line.as_bytes()).map_err(|e| e.to_string())
                    };
                    for _ in 0..window {
                        send(&mut sent)?;
                    }
                    let mut r = SaturationResult::default();
                    let mut answered = 0;
                    let mut line = String::new();
                    while answered < sent.len() {
                        line.clear();
                        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                            return Err("server closed the connection".into());
                        }
                        answered += 1;
                        let in_window = Instant::now() < end;
                        let good = line.contains("\"status\":\"ok\"")
                            && reply_index(&line)
                                .and_then(|i| sent.get(i))
                                .is_some_and(|&g| {
                                    outputs(&line).as_ref() == Some(&pool.reference[g])
                                });
                        if !good {
                            r.failed += 1;
                            r.mismatches += line.contains("\"status\":\"ok\"") as usize;
                        } else if in_window {
                            r.ok += 1;
                        }
                        if in_window {
                            send(&mut sent)?;
                        }
                    }
                    r.sent = sent.len();
                    Ok(r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("saturation thread panicked".into()))
            })
            .collect()
    });
    let mut total = SaturationResult {
        secs,
        ..Default::default()
    };
    for r in per_conn {
        let r = r?;
        total.sent += r.sent;
        total.ok += r.ok;
        total.failed += r.failed;
        total.mismatches += r.mismatches;
    }
    Ok(total)
}

/// The `ok` and `batches` counters from the server's `stats` op.
pub fn server_counters(addr: SocketAddr) -> Result<(f64, f64), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    s.write_all(b"{\"op\":\"stats\",\"id\":\"stats\"}\n")
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(s)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    match (field(&line, "ok"), field(&line, "batches")) {
        (Some(ok), Some(b)) => Ok((ok, b)),
        _ => Err(format!("unexpected stats reply: {line}")),
    }
}

/// Means of the server-reported stages over a phase's `ok` replies, ms,
/// plus the transport share: client-observed latency from send minus the
/// server-reported total.
pub fn stage_means(r: &PhaseResult) -> (f64, f64, f64, f64, f64) {
    let pick = |f: fn(&(f64, Timing)) -> f64| mean(&r.timed.iter().map(f).collect::<Vec<_>>());
    (
        pick(|t| t.1.queue / 1e3),
        pick(|t| t.1.assemble / 1e3),
        pick(|t| t.1.compute / 1e3),
        pick(|t| t.1.write / 1e3),
        pick(|t| t.0 - t.1.total / 1e3),
    )
}
