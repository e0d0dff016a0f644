//! Multi-client TCP transport tests: N concurrent clients over a real
//! socket must see per-graph outputs bitwise-identical to the same
//! requests replayed serially through `submit_line` (the stdio path),
//! while the failure paths — abrupt disconnect mid-batch, slow-reader
//! backpressure, the connection limit, idle timeouts — behave exactly as
//! specified and never take the executor down.

use oodgnn_serve::{
    checkpoint_from_model, ModelSpec, ServeConfig, Server, Status, Transport, TransportConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use trace::json::{self, Json};

/// The worker pool and trace globals are process-wide; serialize tests.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

const IN_DIM: usize = 4;
const CLASSES: usize = 3;

fn spec() -> ModelSpec {
    ModelSpec::new(
        "gin",
        IN_DIM,
        8,
        2,
        graph::TaskType::MultiClass { classes: CLASSES },
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_sock_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(tag: &str) -> (Arc<Server>, PathBuf, PathBuf) {
    let dir = scratch(tag);
    let ck = dir.join("m.oods");
    checkpoint_from_model(&mut spec().build().unwrap())
        .save(&ck)
        .unwrap();
    let server = Server::start(
        ServeConfig::default(),
        vec![("default".into(), spec(), ck.clone())],
    )
    .unwrap();
    (Arc::new(server), dir, ck)
}

/// A deterministic ring graph serialized as a request line (exact
/// quarter-integer features, so the JSON round trip is bit-exact).
fn infer_line(id: &str, n: usize, salt: u64) -> String {
    let mut edges = String::new();
    for i in 0..n {
        let j = (i + 1) % n;
        if !edges.is_empty() {
            edges.push(',');
        }
        edges.push_str(&format!("[{i},{j}],[{j},{i}]"));
    }
    let feats: Vec<String> = (0..n * IN_DIM)
        .map(|k| {
            let h = (k as u64).wrapping_mul(2654435761).wrapping_add(salt);
            format!("{}", (h % 17) as f32 / 4.0)
        })
        .collect();
    format!(
        "{{\"op\":\"infer\",\"id\":\"{id}\",\"nodes\":{n},\"edges\":[{edges}],\"features\":[{}]}}",
        feats.join(",")
    )
}

fn connect(transport: &Transport) -> TcpStream {
    let s = TcpStream::connect(transport.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Vec<(String, Json)>> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(json::parse_object(line.trim(), 1 << 16).expect("response parses")),
    }
}

fn field_str(pairs: &[(String, Json)], key: &str) -> Option<String> {
    json::field(pairs, key)
        .and_then(Json::as_str)
        .map(str::to_string)
}

fn field_bits(pairs: &[(String, Json)], key: &str) -> Option<Vec<u32>> {
    let arr = json::field(pairs, key)?.as_arr()?;
    Some(
        arr.iter()
            .map(|v| (v.as_f64().expect("numeric output") as f32).to_bits())
            .collect(),
    )
}

fn counter(server: &Server, pick: impl Fn(&oodgnn_serve::ServeStats) -> u64) -> u64 {
    pick(server.stats())
}

/// Poll until `pick` reaches `want` (counters update from other threads).
fn wait_counter(server: &Server, want: u64, pick: impl Fn(&oodgnn_serve::ServeStats) -> u64) {
    for _ in 0..2000 {
        if pick(server.stats()) >= want {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("counter never reached {want} (at {})", pick(server.stats()));
}

#[test]
fn four_clients_interleaved_match_serial_replay_bitwise() {
    let _g = lock();
    let (server, dir, ck) = start_server("multi");
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;

    // Serial baseline through the same path the stdio binary uses.
    let mut baseline: Vec<Vec<u32>> = Vec::new();
    for c in 0..CLIENTS {
        for g in 0..PER_CLIENT {
            let line = infer_line("base", 3 + (g % 4), (c * PER_CLIENT + g) as u64);
            let (tx, rx) = channel();
            server.submit_line(&line, &tx);
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, Status::Ok, "{:?}", r.error);
            baseline.push(r.outputs.unwrap().iter().map(|v| v.to_bits()).collect());
        }
    }

    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();

    // N threads over real sockets, interleaving infer with stats probes
    // and hot reloads (to the same checkpoint, so outputs are unchanged).
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let transport_addr = transport.local_addr();
            let ck = ck.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(transport_addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut outputs: Vec<(String, Vec<u32>)> = Vec::new();
                for g in 0..PER_CLIENT {
                    let id = format!("c{c}g{g}");
                    let line = infer_line(&id, 3 + (g % 4), (c * PER_CLIENT + g) as u64);
                    writeln!(writer, "{line}").unwrap();
                    if g % 3 == 0 {
                        writeln!(writer, "{{\"op\":\"stats\",\"id\":\"s{c}-{g}\"}}").unwrap();
                    }
                    if g == PER_CLIENT / 2 {
                        writeln!(
                            writer,
                            "{{\"op\":\"reload\",\"id\":\"r{c}\",\"model\":\"default\",\"path\":{}}}",
                            json_quote(ck.to_str().unwrap())
                        )
                        .unwrap();
                    }
                }
                let mut pending = PER_CLIENT;
                while pending > 0 {
                    let pairs = read_response(&mut reader).expect("reply before close");
                    let id = field_str(&pairs, "id").expect("correlated reply");
                    let status = field_str(&pairs, "status").unwrap();
                    if id.starts_with('c') {
                        assert_eq!(status, "ok", "{id}");
                        outputs.push((id, field_bits(&pairs, "outputs").unwrap()));
                        pending -= 1;
                    } else {
                        assert_eq!(status, "ok", "{id}");
                    }
                }
                outputs
            })
        })
        .collect();
    let mut got: Vec<Vec<(String, Vec<u32>)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (c, outputs) in got.iter_mut().enumerate() {
        let graph_index = |id: &str| -> usize { id.split('g').nth(1).unwrap().parse().unwrap() };
        outputs.sort_by_key(|(id, _)| graph_index(id));
        for (g, (id, bits)) in outputs.iter().enumerate() {
            assert_eq!(
                bits,
                &baseline[c * PER_CLIENT + g],
                "{id}: socket output differs from serial replay"
            );
        }
    }
    assert_eq!(
        counter(&server, |s| s.conn_open.load(Ordering::Relaxed)),
        CLIENTS as u64
    );
    wait_counter(&server, CLIENTS as u64, |s| {
        s.conn_close.load(Ordering::Relaxed)
    });
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abrupt_disconnect_mid_batch_never_panics_the_executor() {
    let _g = lock();
    let (server, dir, _ck) = start_server("abrupt");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();

    // Stall the executor so the requests are still queued when the client
    // vanishes, then drop the socket without reading a single reply (and
    // mid-line: the trailing garbage has no newline).
    server.fault_injector().inject_slow_batches(1, 200);
    {
        let mut stream = connect(&transport);
        for g in 0..3 {
            writeln!(stream, "{}", infer_line(&format!("dead{g}"), 3, g)).unwrap();
        }
        write!(stream, "{{\"op\":\"infer\",\"id\":\"partial").unwrap();
        // Dropped here: RST/FIN while three requests are in flight.
    }
    // The in-flight work completes (ok counter), the replies evaporate at
    // routing, and the connection close is recorded.
    wait_counter(&server, 3, |s| s.ok.load(Ordering::Relaxed));
    wait_counter(&server, 1, |s| s.conn_close.load(Ordering::Relaxed));
    assert_eq!(server.stats().inflight.load(Ordering::Relaxed), 0);

    // A fresh client still gets served, bitwise-identically to the
    // serial path.
    let (tx, rx) = channel();
    server.submit_line(&infer_line("serial", 3, 0), &tx);
    let serial = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let serial_bits: Vec<u32> = serial
        .outputs
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let stream = connect(&transport);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", infer_line("alive", 3, 0)).unwrap();
    let pairs = read_response(&mut reader).unwrap();
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    assert_eq!(field_bits(&pairs, "outputs").unwrap(), serial_bits);
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_utf8_line_gets_an_idless_error_and_the_connection_keeps_serving() {
    let _g = lock();
    let (server, dir, _ck) = start_server("utf8");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();
    let (tx, rx) = channel();
    server.submit_line(&infer_line("serial", 3, 5), &tx);
    let serial = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let serial_bits: Vec<u32> = serial
        .outputs
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();

    let stream = connect(&transport);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // A lone continuation byte and a truncated sequence inside the id.
    writer
        .write_all(b"{\"op\":\"infer\",\"id\":\"\xff\xc3\",\"nodes\":1}\n")
        .unwrap();
    let pairs = read_response(&mut reader).expect("structured error reply");
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("error"));
    assert!(
        field_str(&pairs, "error").unwrap().contains("UTF-8"),
        "{pairs:?}"
    );
    assert!(
        field_str(&pairs, "id").is_none(),
        "no id from invalid bytes"
    );

    // The same connection then serves a valid request, bit-exactly.
    writeln!(writer, "{}", infer_line("after", 3, 5)).unwrap();
    let pairs = read_response(&mut reader).expect("reply after the bad line");
    assert_eq!(field_str(&pairs, "id").as_deref(), Some("after"));
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    assert_eq!(field_bits(&pairs, "outputs").unwrap(), serial_bits);
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_reader_overflow_disconnects_only_that_client() {
    let _g = lock();
    let (server, dir, _ck) = start_server("slow");
    let config = TransportConfig {
        outbound_capacity: 2,
        ..TransportConfig::default()
    };
    let transport = Transport::bind(server.clone(), "127.0.0.1:0", config).unwrap();

    // The healthy client first, so its connection predates the abuse.
    let good = connect(&transport);
    let mut good_writer = good.try_clone().unwrap();
    let mut good_reader = BufReader::new(good);

    // The slow client pipelines requests without ever reading: its
    // 2-deep outbound queue overflows and the server drops it.
    let mut slow = connect(&transport);
    for g in 0..32 {
        if writeln!(slow, "{}", infer_line(&format!("slow{g}"), 3, g)).is_err() {
            break; // Server already hung up on us mid-burst.
        }
    }
    wait_counter(&server, 1, |s| s.slow_client_drops.load(Ordering::Relaxed));
    assert_eq!(
        server.stats().slow_client_drops.load(Ordering::Relaxed),
        1,
        "exactly one slow-client drop"
    );
    // The dropped socket reaches EOF/reset once the queues flush.
    let mut slow_reader = BufReader::new(slow);
    let mut sink = String::new();
    loop {
        sink.clear();
        match slow_reader.read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }

    // The well-behaved client is completely unaffected.
    let (tx, rx) = channel();
    server.submit_line(&infer_line("serial", 3, 7), &tx);
    let serial = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    let serial_bits: Vec<u32> = serial
        .outputs
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    writeln!(good_writer, "{}", infer_line("good", 3, 7)).unwrap();
    let pairs = read_response(&mut good_reader).unwrap();
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    assert_eq!(field_bits(&pairs, "outputs").unwrap(), serial_bits);
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_limit_sheds_with_a_structured_reply() {
    let _g = lock();
    let (server, dir, _ck) = start_server("limit");
    let config = TransportConfig {
        max_conns: 1,
        ..TransportConfig::default()
    };
    let transport = Transport::bind(server.clone(), "127.0.0.1:0", config).unwrap();

    let keeper = connect(&transport);
    let mut keeper_writer = keeper.try_clone().unwrap();
    let mut keeper_reader = BufReader::new(keeper);
    // Prove the first connection is live before the second knocks.
    writeln!(keeper_writer, "{{\"op\":\"health\",\"id\":\"h\"}}").unwrap();
    assert!(read_response(&mut keeper_reader).is_some());

    let over = connect(&transport);
    let mut over_reader = BufReader::new(over);
    let pairs = read_response(&mut over_reader).expect("structured shed reply");
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("shed"));
    assert!(
        field_str(&pairs, "error")
            .unwrap()
            .contains("connection limit"),
        "{pairs:?}"
    );
    assert!(field_str(&pairs, "id").is_none(), "shed reply has no id");
    assert!(
        read_response(&mut over_reader).is_none(),
        "socket closes after the shed reply"
    );
    assert_eq!(server.stats().conn_shed.load(Ordering::Relaxed), 1);

    // The admitted connection keeps serving.
    writeln!(keeper_writer, "{}", infer_line("still", 3, 1)).unwrap();
    let pairs = read_response(&mut keeper_reader).unwrap();
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("ok"));
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connections_time_out_with_a_notice() {
    let _g = lock();
    let (server, dir, _ck) = start_server("idle");
    let config = TransportConfig {
        idle_timeout_ms: 150,
        ..TransportConfig::default()
    };
    let transport = Transport::bind(server.clone(), "127.0.0.1:0", config).unwrap();
    let stream = connect(&transport);
    let mut reader = BufReader::new(stream);
    // Say nothing; the server closes us with a structured notice.
    let pairs = read_response(&mut reader).expect("idle notice");
    assert_eq!(field_str(&pairs, "status").as_deref(), Some("error"));
    assert!(
        field_str(&pairs, "error").unwrap().contains("idle timeout"),
        "{pairs:?}"
    );
    assert!(read_response(&mut reader).is_none(), "then EOF");
    wait_counter(&server, 1, |s| s.idle_closed.load(Ordering::Relaxed));
    wait_counter(&server, 1, |s| s.conn_close.load(Ordering::Relaxed));
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_and_telemetry_carry_connection_rows() {
    let _g = lock();
    let (server, dir, _ck) = start_server("rows");
    let transport =
        Transport::bind(server.clone(), "127.0.0.1:0", TransportConfig::default()).unwrap();
    let stream = connect(&transport);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{{\"op\":\"stats\",\"id\":\"s\"}}").unwrap();
    let pairs = read_response(&mut reader).unwrap();
    let num = |key: &str| {
        json::field(&pairs, key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("missing stats row `{key}` in {pairs:?}"))
    };
    assert_eq!(num("open_conns"), 1.0);
    assert_eq!(num("conn_open"), 1.0);
    assert_eq!(num("conn_shed"), 0.0);
    assert_eq!(num("slow_client_drops"), 0.0);
    assert_eq!(num("win_conn_open"), 1.0);
    assert_eq!(num("win_conn_close"), 0.0);
    transport.shutdown();
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn json_quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}
