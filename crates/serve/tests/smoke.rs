//! End-to-end smoke test: a real server on an ephemeral port, saved
//! models reloaded from disk, concurrent pipelining clients, and the
//! contract that served labels are bit-identical to offline
//! `Classifier::predict` on the same saved model.

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use tsda_classify::persist::{load_model_bytes, SavedModel};
use tsda_classify::{Classifier, RidgeClassifier, Rocket, RocketConfig};
use tsda_core::rng::seeded;
use tsda_core::{Dataset, Label, Mts};
use tsda_datasets::ts_format::format_series_line;
use tsda_serve::batcher::BatchConfig;
use tsda_serve::proto2::{self, Request2};
use tsda_serve::protocol::{parse_response, Response};
use tsda_serve::registry::{ModelEntry, ModelRegistry};
use tsda_serve::server::{serve, ServerConfig};

fn toy_problem(seed: u64) -> (Dataset, Dataset) {
    let make = |split_seed: u64| {
        use rand::Rng;
        let mut ds = Dataset::empty(2);
        let mut rng = seeded(split_seed);
        for c in 0..2usize {
            let freq = if c == 0 { 0.25 } else { 0.75 };
            for _ in 0..12 {
                let phase: f64 = rng.gen_range(0.0..1.0);
                let dims = (0..2)
                    .map(|d| {
                        (0..24)
                            .map(|t| ((t as f64) * freq + phase + d as f64).sin())
                            .collect()
                    })
                    .collect();
                ds.push(Mts::from_dims(dims), c);
            }
        }
        ds
    };
    (make(seed), make(seed ^ 0xdead_beef))
}

fn flatten(ds: &Dataset) -> Vec<Vec<f64>> {
    ds.series().iter().map(|s| s.as_flat().to_vec()).collect()
}

fn request_line(id: u64, op: &str, extra: &[(&str, &str)]) -> String {
    let mut pairs = vec![
        ("id".to_string(), Value::Num(id as f64)),
        ("op".to_string(), Value::Str(op.to_string())),
    ];
    for (k, v) in extra {
        pairs.push((k.to_string(), Value::Str(v.to_string())));
    }
    serde_json::to_string(&Value::Object(pairs)).unwrap()
}

/// Send every request line first, then read every response: pipelining
/// lets the micro-batcher coalesce requests from one connection too.
fn pipeline(addr: &str, lines: &[String]) -> Vec<Response> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    let mut responses = Vec::with_capacity(lines.len());
    for _ in 0..lines.len() {
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).unwrap() > 0, "server closed early");
        responses.push(parse_response(reply.trim_end()).expect("parse response"));
    }
    responses
}

/// Pipeline over protocol v2: send the preamble, then every frame,
/// then read one reply frame per request.
fn pipeline_v2(addr: &str, requests: &[Request2]) -> Vec<Response> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer.write_all(&proto2::PREAMBLE).unwrap();
    for req in requests {
        writer.write_all(&proto2::encode_request(req)).unwrap();
    }
    writer.flush().unwrap();
    let mut responses = Vec::with_capacity(requests.len());
    for _ in 0..requests.len() {
        let mut len_bytes = [0u8; 4];
        reader.read_exact(&mut len_bytes).expect("reply length");
        let len = u32::from_le_bytes(len_bytes) as usize;
        assert!((5..=proto2::MAX_FRAME).contains(&len), "reply frame length {len}");
        let mut raw = vec![0u8; len];
        reader.read_exact(&mut raw).expect("reply frame");
        let body = proto2::check_frame(&raw).expect("reply frame intact");
        responses.push(proto2::decode_reply(body).expect("decode reply"));
    }
    responses
}

/// Build a registry holding a rocket and a ridge model — both put
/// through a save/load cycle first, so the server demonstrably runs on
/// reloaded bytes, not the originally fitted structs.
fn build_registry(train: &Dataset) -> (ModelRegistry, Vec<Label>, Vec<Label>, Dataset) {
    let (_, test) = toy_problem(21);

    let mut rocket = Rocket::new(RocketConfig { n_kernels: 60, ..RocketConfig::default() });
    rocket.fit(train, None, &mut seeded(5));
    let rocket_offline = rocket.predict(&test);
    let bytes = SavedModel::Rocket(rocket).save_bytes().unwrap();
    let rocket_loaded = load_model_bytes(&bytes).unwrap();

    let mut ridge = RidgeClassifier::default();
    ridge.fit_features(&flatten(train), train.labels(), train.n_classes());
    let ridge_offline = ridge.try_predict_features(&flatten(&test)).unwrap();
    let bytes = SavedModel::Ridge(ridge).save_bytes().unwrap();
    let ridge_loaded = load_model_bytes(&bytes).unwrap();

    let shape = (test.series()[0].n_dims(), test.series()[0].len());
    let mut registry = ModelRegistry::new();
    registry.insert(ModelEntry::from_saved("rocket", rocket_loaded, None).unwrap());
    registry.insert(ModelEntry::from_saved("ridge", ridge_loaded, Some(shape)).unwrap());
    (registry, rocket_offline, ridge_offline, test)
}

#[test]
fn served_predictions_match_offline_bit_for_bit() {
    let (train, _) = toy_problem(21);
    let (registry, rocket_offline, ridge_offline, test) = build_registry(&train);

    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            // Generous window so concurrent clients reliably coalesce.
            batch: BatchConfig {
                max_batch: 16,
                max_wait: Duration::from_millis(30),
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Three client threads per model, each pipelining the whole test set.
    let mut workers = Vec::new();
    for (model, expected) in
        [("rocket", rocket_offline.clone()), ("ridge", ridge_offline.clone())]
    {
        for worker in 0..3 {
            let addr = addr.clone();
            let test = test.clone();
            let expected = expected.clone();
            let model = model.to_string();
            workers.push(std::thread::spawn(move || -> usize {
                let lines: Vec<String> = test
                    .series()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        request_line(
                            (worker * 1000 + i) as u64,
                            "predict",
                            &[("model", model.as_str()), ("series", &format_series_line(s))],
                        )
                    })
                    .collect();
                let responses = pipeline(&addr, &lines);
                let mut max_batch = 0;
                for (i, r) in responses.iter().enumerate() {
                    assert!(r.ok, "{model} request {i} failed: {:?}", r.error);
                    assert_eq!(r.id, (worker * 1000 + i) as u64, "responses out of order");
                    assert_eq!(
                        r.label.unwrap(),
                        expected[i],
                        "{model} series {i}: served label diverged from offline predict"
                    );
                    max_batch = max_batch.max(r.batch.unwrap_or(1));
                }
                max_batch
            }));
        }
    }
    let max_batch = workers.into_iter().map(|w| w.join().unwrap()).max().unwrap();
    assert!(max_batch > 1, "no coalescing observed (max batch {max_batch})");

    // The stats endpoint agrees that batching happened.
    let responses = pipeline(&addr, &[request_line(1, "stats", &[])]);
    let stats = responses[0].result.as_ref().expect("stats result");
    let mean_batch = stats.get("mean_batch").and_then(Value::as_f64).unwrap();
    assert!(mean_batch > 1.0, "mean batch {mean_batch}");
    let requests = stats.get("requests").and_then(Value::as_f64).unwrap() as usize;
    assert_eq!(requests, 6 * test.series().len());

    handle.shutdown();
}

#[test]
fn v2_served_predictions_match_offline_and_quantiles_resolve() {
    let (train, _) = toy_problem(21);
    let (registry, rocket_offline, ridge_offline, test) = build_registry(&train);

    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            // max_batch matches the 3 concurrent workers per model
            // (each connection is served request-by-request), so full
            // batches flush the moment all three requests are pending,
            // while a lone request must wait out the long timer — a
            // controlled bimodal latency distribution for the quantile
            // check below.
            batch: BatchConfig {
                max_batch: 3,
                max_wait: Duration::from_millis(150),
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    // Three pipelining v2 clients per model, same contract as the
    // NDJSON smoke: served labels must equal offline predict bit for
    // bit, with batching observed.
    let mut workers = Vec::new();
    for (model, expected) in
        [("rocket", rocket_offline.clone()), ("ridge", ridge_offline.clone())]
    {
        for worker in 0..3usize {
            let addr = addr.clone();
            let test = test.clone();
            let expected = expected.clone();
            let model = model.to_string();
            workers.push(std::thread::spawn(move || -> usize {
                let requests: Vec<Request2> = test
                    .series()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| Request2::Predict {
                        id: (worker * 1000 + i) as u64,
                        model: model.clone(),
                        series: s.clone(),
                    })
                    .collect();
                let responses = pipeline_v2(&addr, &requests);
                let mut max_batch = 0;
                for (i, r) in responses.iter().enumerate() {
                    assert!(r.ok, "{model} v2 request {i} failed: {:?}", r.error);
                    assert_eq!(r.id, (worker * 1000 + i) as u64, "responses out of order");
                    assert_eq!(
                        r.label.unwrap(),
                        expected[i],
                        "{model} series {i}: v2 served label diverged from offline predict"
                    );
                    max_batch = max_batch.max(r.batch.unwrap_or(1));
                }
                max_batch
            }));
        }
    }
    let max_batch = workers.into_iter().map(|w| w.join().unwrap()).max().unwrap();
    assert!(max_batch > 1, "no coalescing observed over v2 (max batch {max_batch})");

    // Stats over v2, and both protocols on one port: an NDJSON probe
    // still works against the same server.
    let responses = pipeline_v2(&addr, &[Request2::Stats { id: 9 }]);
    let stats = responses[0].result.as_ref().expect("stats result");
    let requests = stats.get("requests").and_then(Value::as_f64).unwrap() as usize;
    assert_eq!(requests, 6 * test.series().len());

    // Four lone requests, each on a fresh connection: a batch of one
    // can only flush on the 150ms timer, so these are pinned to the
    // slow mode of the distribution while the pipelined bursts above
    // flushed when full (fast mode).
    for rep in 0..4u64 {
        let responses = pipeline_v2(
            &addr,
            &[Request2::Predict {
                id: 500 + rep,
                model: "rocket".into(),
                series: test.series()[0].clone(),
            }],
        );
        assert!(responses[0].ok);
    }
    let responses = pipeline_v2(&addr, &[Request2::Stats { id: 10 }]);
    let stats = responses[0].result.as_ref().expect("stats result");
    let p50 = stats.get("request_p50_us").and_then(Value::as_f64).unwrap();
    let p99 = stats.get("request_p99_us").and_then(Value::as_f64).unwrap();
    // The old power-of-two histogram quantized every latency in
    // 4.1–8.2ms to the same 8192us bucket, shipping p50 == p99; the
    // log-linear layout must resolve the fast flushes from the 150ms
    // timer waits.
    assert!(
        p50 < p99,
        "latency histogram failed to resolve quantiles: p50 {p50}us == p99 {p99}us"
    );
    let ndjson = pipeline(&addr, &[request_line(1, "ping", &[])]);
    assert!(ndjson[0].ok, "NDJSON ping after v2 traffic");

    handle.shutdown();
}

#[test]
fn protocol_errors_are_answered_not_dropped() {
    let (train, _) = toy_problem(33);
    let (registry, _, _, test) = build_registry(&train);
    let handle = serve(
        registry,
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    let good = format_series_line(&test.series()[0]);
    let lines = vec![
        request_line(1, "ping", &[]),
        request_line(2, "list", &[]),
        "not json at all".to_string(),
        request_line(4, "predict", &[("model", "nope"), ("series", good.as_str())]),
        request_line(5, "predict", &[("model", "rocket"), ("series", "1,2,3")]),
        request_line(6, "predict", &[("model", "rocket"), ("series", "zz,qq")]),
        request_line(7, "predict", &[("model", "rocket"), ("series", good.as_str())]),
    ];
    let responses = pipeline(&addr, &lines);
    assert!(responses[0].ok, "ping");
    assert!(responses[1].ok, "list");
    assert!(!responses[2].ok, "bad json must produce an error response");
    assert!(!responses[3].ok && responses[3].error.as_ref().unwrap().contains("unknown model"));
    assert!(!responses[4].ok, "shape mismatch must be rejected");
    assert!(!responses[5].ok, "unparseable series must be rejected");
    assert!(responses[6].ok, "well-formed request after errors still served");

    // The model listing carries the input contract clients need.
    let listing = responses[1].result.as_ref().unwrap();
    let as_text = serde_json::to_string(listing).unwrap();
    assert!(as_text.contains("\"rocket\"") && as_text.contains("\"ridge\""), "{as_text}");

    handle.shutdown();
}

/// `requests` / `errors` as the `stats` endpoint reports them.
fn request_counters(addr: &str) -> (f64, f64) {
    let responses = pipeline(addr, &[request_line(0, "stats", &[])]);
    let stats = responses[0].result.as_ref().expect("stats result");
    let get = |key: &str| stats.get(key).and_then(Value::as_f64).expect("counter");
    (get("requests"), get("errors"))
}

#[test]
fn malformed_series_count_the_same_on_both_protocols() {
    // A series that fails its edge decode is refused before it becomes
    // a request: it counts in `errors` only, whichever codec carried it.
    let (train, _) = toy_problem(55);
    let (registry, _, _, test) = build_registry(&train);
    let handle = serve(
        registry,
        ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let delta = |a: (f64, f64), b: (f64, f64)| (b.0 - a.0, b.1 - a.1);

    let before = request_counters(&addr);
    let ndjson = pipeline(
        &addr,
        &[request_line(1, "predict", &[("model", "rocket"), ("series", "1.0,abc")])],
    );
    assert!(!ndjson[0].ok && ndjson[0].error.as_deref().unwrap().starts_with("bad series"));
    let mid = request_counters(&addr);
    let empty = Mts::from_flat(0, test.series()[0].len(), Vec::new());
    let v2 = pipeline_v2(
        &addr,
        &[Request2::Predict { id: 2, model: "rocket".into(), series: empty }],
    );
    assert!(!v2[0].ok && v2[0].id == 2, "0xN shape must be refused: {:?}", v2[0]);
    let after = request_counters(&addr);

    assert_eq!(delta(before, mid), (0.0, 1.0), "NDJSON: errors only");
    assert_eq!(delta(mid, after), (0.0, 1.0), "v2: errors only");
    handle.shutdown();
}

#[test]
fn shutdown_is_graceful_under_traffic() {
    let (train, _) = toy_problem(44);
    let (registry, _, _, test) = build_registry(&train);
    let handle = serve(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(5),
                ..BatchConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    // A round of traffic, then shutdown must join within the test
    // timeout and leave the socket refusing new work.
    let lines: Vec<String> = test
        .series()
        .iter()
        .take(6)
        .enumerate()
        .map(|(i, s)| {
            request_line(
                i as u64,
                "predict",
                &[("model", "rocket"), ("series", &format_series_line(s))],
            )
        })
        .collect();
    let responses = pipeline(&addr, &lines);
    assert!(responses.iter().all(|r| r.ok));

    handle.shutdown();
    // After shutdown the listener is gone: connecting (or speaking on a
    // fresh connection) must fail rather than hang.
    match TcpStream::connect(&addr) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("set timeout");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let _ = writer.write_all(b"{\"id\":1,\"op\":\"ping\"}\n");
            let mut reply = String::new();
            let n = reader.read_line(&mut reply).unwrap_or(0);
            assert_eq!(n, 0, "server answered after shutdown: {reply}");
        }
    }
}
