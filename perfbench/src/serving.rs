//! The two served workloads.
//!
//! * `predict-v2`: `tsda_serve` serving `rocket` and `inception`, one
//!   closed-loop v2 connection. Replies are tiny, so the v2 codec, the
//!   batcher and the classifier compute are what a request pays for.
//! * `augment-ndjson-router`: `tsda_router` with one spawned replica,
//!   two closed-loop NDJSON connections carrying `augment` requests over
//!   the committed `light`, `warp`, `freq` and `heavy` pipelines. Replies
//!   are whole series encoded as text, the pipelines do the compute, and
//!   every request takes the router hop.
//!
//! The load generator is this one process. Each request is a pure
//! function of (workload seed, client, request index), so a phase can
//! be replayed exactly, and the program receives only these inputs.
//! Servers run at their default batching flags, on a fresh model
//! directory and an ephemeral port in every run.

use crate::procs::{children_of, host_steal, steal_pct, ticks_per_s, Proc};
use crate::stats::{chunks, cpu_ms_per_op, mean, median, nearest_rank, quartiles, Chunk};
use crate::trace::{mean_self_us, self_times, Tracer};
use crate::{Ctx, Outcome, BATCH_FLAGS, SUM_MARGIN_PCT};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use tsda_augment::declarative::{AugPipeline, PipelineConfig};
use tsda_classify::persist::{load_model, SavedModel};
use tsda_classify::Classifier;
use tsda_core::parallel::Pool;
use tsda_core::rng::derive_stream;
use tsda_core::{Dataset, Mts};
use tsda_datasets::registry::{DatasetId, DatasetMeta};
use tsda_datasets::synth::{generate, GenOptions};
use tsda_serve::client::{Proto, WireRequest};
use tsda_serve::protocol::{parse_request, parse_response, Response};
use tsda_serve::registry::ModelEntry;
use tsda_serve::{proto2, protocol};

/// Set-up is repeated and its median reported; the last server set up
/// is the one measured.
const SETUP_REPEATS: usize = 9;
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// Unmeasured load before the measured window, seconds.
const WARMUP_S: f64 = 1.0;
/// Requests whose wire bytes the traced run keeps for layer replays.
const REPLAY_CAP: usize = 2000;

const MODELS: [&str; 2] = ["rocket", "inception"];
const PIPELINES: [&str; 4] = ["light", "warp", "freq", "heavy"];

#[derive(Clone, Copy)]
enum Kind {
    Predict,
    Augment,
}

impl Kind {
    fn names(self) -> &'static [&'static str] {
        match self {
            Kind::Predict => &MODELS,
            Kind::Augment => &PIPELINES,
        }
    }

    /// Closed-loop client connections, no more than the 2 cores the
    /// benchmark machine has. `predict-v2` uses one. Its requests are a
    /// 2 ms batch timer around well under a millisecond of compute; with
    /// two connections, two request chains and the server's two pool
    /// threads contend for both cores, and its throughput followed CPU
    /// contention rather than the program: one busy thread beside the
    /// run cut it by a third, and ten runs of the same code spread by
    /// 0.3 of their median. A single chain moved by under a tenth under
    /// twice that contention.
    fn clients(self) -> usize {
        match self {
            Kind::Predict => 1,
            Kind::Augment => 2,
        }
    }

    fn proto(self) -> Proto {
        match self {
            Kind::Predict => Proto::V2,
            Kind::Augment => Proto::Ndjson,
        }
    }
}

/// The workload's inputs, all derived from the seed.
struct Plan {
    kind: Kind,
    seed: u64,
    /// RacketSports-shaped series (6 × 30).
    series: Vec<Mts>,
}

/// One request's inputs.
#[derive(Clone, Copy)]
struct Input {
    /// Index into `MODELS` or `PIPELINES`.
    key: usize,
    /// Index into `Plan::series`.
    series: usize,
    /// Unique per client and request; also the request id and the
    /// augment sample index.
    index: u64,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Self {
        let tt = generate(racket_sports(), &GenOptions::ci(seed));
        let series = tt
            .train
            .series()
            .iter()
            .chain(tt.test.series())
            .cloned()
            .collect();
        Self { kind, seed, series }
    }

    fn input(&self, client: usize, i: u64) -> Input {
        let r = derive_stream(self.seed, &format!("perfbench/client{client}"), i);
        let names = self.kind.names().len() as u64;
        let index = ((client as u64) << 40) | i;
        Input {
            key: (r % names) as usize,
            series: ((r >> 20) % self.series.len() as u64) as usize,
            index,
        }
    }

    fn encode(&self, id: u64, input: Input) -> WireRequest {
        let name = self.kind.names()[input.key];
        let series = &self.series[input.series];
        match self.kind {
            Kind::Predict => WireRequest::predict(Proto::V2, id, name, series),
            Kind::Augment => {
                WireRequest::augment(Proto::Ndjson, id, name, self.seed, input.index, series)
            }
        }
    }
}

/// Closed-loop client connections `workload` runs (0 for the grid).
pub fn clients(workload: &str) -> usize {
    match workload {
        "predict-v2" => Kind::Predict.clients(),
        "augment-ndjson-router" => Kind::Augment.clients(),
        _ => 0,
    }
}

fn racket_sports() -> &'static DatasetMeta {
    DatasetMeta::get(DatasetId::RacketSports)
}

/// FNV-1a over a series' shape and value bits: replies are compared
/// with offline results by this digest, so the generator keeps no
/// series in memory.
fn digest(s: &Mts) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = [s.n_dims() as u64, s.len() as u64];
    for w in words
        .into_iter()
        .chain(s.as_flat().iter().map(|v| v.to_bits()))
    {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One answered (or failed) request.
#[derive(Clone, Copy)]
struct Sample {
    input: Input,
    /// Completion time since the measured window opened.
    done_ns: u64,
    latency_ns: u64,
    wire_ns: u64,
    ok: bool,
    /// Predict: the label. Augment: [`digest`] of the reply series.
    value: u64,
    micros: u64,
    reply_bytes: u64,
}

/// A connection speaking the plan's protocol, with this file's own
/// socket IO so reply decoding can be timed on its own.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    frame: Vec<u8>,
}

impl Conn {
    fn open(addr: &str, proto: Proto) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut conn = Self {
            writer: stream,
            reader,
            line: String::new(),
            frame: Vec::new(),
        };
        if proto == Proto::V2 {
            conn.writer
                .write_all(&proto2::PREAMBLE)
                .map_err(|e| format!("preamble: {e}"))?;
        }
        Ok(conn)
    }

    /// Send one request and read its reply bytes (undecoded).
    fn exchange(&mut self, req: &WireRequest) -> Result<u64, String> {
        match req {
            WireRequest::Line(line) => {
                self.writer
                    .write_all(line.as_bytes())
                    .and_then(|_| self.writer.write_all(b"\n"))
                    .map_err(|e| format!("send: {e}"))?;
                self.line.clear();
                let n = self
                    .reader
                    .read_line(&mut self.line)
                    .map_err(|e| format!("recv: {e}"))?;
                if n == 0 || !self.line.ends_with('\n') {
                    return Err("connection closed mid-reply".into());
                }
                Ok(n as u64)
            }
            WireRequest::Frame(frame) => {
                self.writer
                    .write_all(frame)
                    .map_err(|e| format!("send: {e}"))?;
                let mut len = [0u8; 4];
                self.reader
                    .read_exact(&mut len)
                    .map_err(|e| format!("recv: {e}"))?;
                let n = proto2::checked_len(u32::from_le_bytes(len), proto2::MAX_FRAME, "reply")?;
                self.frame.resize(n, 0);
                self.reader
                    .read_exact(&mut self.frame)
                    .map_err(|e| format!("recv: {e}"))?;
                Ok(4 + n as u64)
            }
        }
    }

    fn decode(&self, proto: Proto) -> Result<Response, String> {
        match proto {
            Proto::Ndjson => parse_response(self.line.trim_end()),
            Proto::V2 => proto2::decode_reply(proto2::check_frame(&self.frame)?),
        }
    }
}

/// What one client connection did in one phase.
struct ClientRun {
    samples: Vec<Sample>,
    tracer: Tracer,
    kept: Vec<(Input, u64, WireRequest)>,
    error: Option<String>,
    end: Instant,
}

fn client(
    plan: &Plan,
    addr: &str,
    c: usize,
    traced: bool,
    opened: Instant,
    end: Instant,
) -> ClientRun {
    let mut run = ClientRun {
        samples: Vec::new(),
        tracer: Tracer::new(traced),
        kept: Vec::new(),
        error: None,
        end: Instant::now(),
    };
    let proto = plan.kind.proto();
    let mut conn = match Conn::open(addr, proto) {
        Ok(c) => c,
        Err(e) => {
            run.error = Some(e);
            return run;
        }
    };
    let mut i = 0u64;
    while Instant::now() < end {
        let input = plan.input(c, i);
        i += 1;
        let id = input.index;
        let tr = &mut run.tracer;
        let t0 = Instant::now();
        let root = tr.start();
        let wire = tr.span("client.encode", root.id, id, || plan.encode(id, input));
        let w = tr.start();
        let t_wire = Instant::now();
        let exchanged = conn.exchange(&wire);
        let wire_ns = t_wire.elapsed().as_nanos() as u64;
        tr.finish(w, "wire", root.id, id);
        let reply = match exchanged {
            Ok(bytes) => tr
                .span("client.decode", root.id, id, || conn.decode(proto))
                .map(|r| (r, bytes)),
            Err(e) => Err(e),
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        tr.finish(root, "request", 0, id);
        let done_ns = opened.elapsed().as_nanos() as u64;
        let mut sample = Sample {
            input,
            done_ns,
            latency_ns,
            wire_ns,
            ok: false,
            value: 0,
            micros: 0,
            reply_bytes: 0,
        };
        match reply {
            Ok((r, bytes)) => {
                sample.reply_bytes = bytes;
                sample.micros = r.micros.unwrap_or(0);
                let value = match plan.kind {
                    Kind::Predict => r.label.map(|l| l as u64),
                    Kind::Augment => r.series.as_ref().map(digest),
                };
                sample.ok = r.ok && r.id == id && value.is_some();
                sample.value = value.unwrap_or(0);
            }
            Err(e) => {
                // The stream is in an unknown state: reconnect.
                eprintln!("client {c}: {e}; reconnecting");
                match Conn::open(addr, proto) {
                    Ok(fresh) => conn = fresh,
                    Err(e) => {
                        run.error = Some(e);
                        run.samples.push(sample);
                        break;
                    }
                }
            }
        }
        run.samples.push(sample);
        if traced && run.kept.len() < REPLAY_CAP {
            run.kept.push((input, id, wire));
        }
    }
    run.end = Instant::now();
    run
}

/// All clients over one measured window.
struct Phase {
    samples: Vec<Sample>,
    tracer: Tracer,
    kept: Vec<(Input, u64, WireRequest)>,
    wall_s: f64,
    errors: Vec<String>,
}

impl Phase {
    fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.ok)
    }

    fn ok_count(&self) -> u64 {
        self.ok().count() as u64
    }

    fn mean_latency_us(&self) -> f64 {
        mean(
            &self
                .ok()
                .map(|s| s.latency_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    }
}

/// All clients against `addr` for `window` seconds. Every phase sends
/// the same request stream from index 0.
fn drive(plan: &Plan, addr: &str, traced: bool, window: f64) -> Phase {
    let opened = Instant::now();
    let end = opened + Duration::from_secs_f64(window);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.kind.clients())
            .map(|c| s.spawn(move || client(plan, addr, c, traced, opened, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let last = runs.iter().map(|r| r.end).max().unwrap_or(end);
    let mut phase = Phase {
        samples: Vec::new(),
        tracer: Tracer::new(traced),
        kept: Vec::new(),
        wall_s: last.saturating_duration_since(opened).as_secs_f64(),
        errors: Vec::new(),
    };
    for r in runs {
        phase.samples.extend(r.samples);
        phase.tracer.spans.extend(r.tracer.spans);
        phase.kept.extend(r.kept);
        phase.errors.extend(r.error);
    }
    phase
}

/// `stats` over a short-lived NDJSON connection.
fn stats(addr: &str) -> Result<Value, String> {
    let mut conn = Conn::open(addr, Proto::Ndjson)?;
    conn.exchange(&WireRequest::simple(Proto::Ndjson, 1, "stats"))?;
    let r = conn.decode(Proto::Ndjson)?;
    r.result
        .filter(|_| r.ok)
        .ok_or_else(|| format!("stats refused: {:?}", r.error))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Server counters over a window, from two `stats` snapshots.
struct Window {
    requests: f64,
    errors: f64,
    shed: f64,
    mean_batch: f64,
    request_mean_us: f64,
    batch_mean_us: f64,
    request_p50_us: f64,
}

impl Window {
    fn between(a: &Value, b: &Value) -> Self {
        let d = |k: &str| num(b, k) - num(a, k);
        // Means over the window from cumulative (count, mean) pairs.
        let windowed = |mean_key: &str, count_key: &str| {
            let n = d(count_key);
            if n <= 0.0 {
                0.0
            } else {
                (num(b, mean_key) * num(b, count_key) - num(a, mean_key) * num(a, count_key)) / n
            }
        };
        let requests = d("requests");
        Self {
            requests,
            errors: d("errors"),
            shed: d("shed"),
            mean_batch: d("batched_items") / d("batches").max(1.0),
            request_mean_us: windowed("request_mean_us", "batched_items"),
            batch_mean_us: windowed("batch_mean_us", "batches"),
            request_p50_us: num(b, "request_p50_us"),
        }
    }
}

/// Fresh model directory for one set-up.
fn fresh_dir(ctx: &Ctx, k: usize) -> Result<PathBuf, String> {
    let dir = ctx.out_dir.join(format!("models{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    Ok(dir)
}

/// Spawn, send one workload request, and time until its reply arrives;
/// repeated [`SETUP_REPEATS`] times with a fresh model directory each,
/// keeping the last process. (A router answers `ping` itself, so only
/// a real request shows that the whole path is ready.)
fn set_up(
    ctx: &Ctx,
    plan: &Plan,
    command: impl Fn(&Path) -> Command,
    out: &mut Outcome,
) -> Result<(Proc, PathBuf, Vec<String>), String> {
    let mut times = Vec::new();
    let mut kept: Option<(Proc, PathBuf)> = None;
    let mut argv = Vec::new();
    for k in 0..SETUP_REPEATS {
        if let Some((mut proc, dir)) = kept.take() {
            proc.stop();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = fresh_dir(ctx, k)?;
        let cmd = command(&dir);
        argv = std::iter::once(cmd.get_program())
            .chain(cmd.get_args())
            .map(|a| a.to_string_lossy().into_owned())
            .collect();
        let t = Instant::now();
        let proc = Proc::spawn(
            cmd,
            &ctx.out_dir.join(format!("server{k}.log")),
            READY_TIMEOUT,
        )?;
        let mut conn = Conn::open(&proc.addr, plan.kind.proto())?;
        conn.exchange(&plan.encode(1, plan.input(0, 0)))?;
        let reply = conn.decode(plan.kind.proto())?;
        if !reply.ok {
            return Err(format!("first request refused: {:?}", reply.error));
        }
        times.push(t.elapsed().as_secs_f64());
        kept = Some((proc, dir));
    }
    out.metric("setup_s", median(&times).unwrap_or(0.0));
    out.note("setup_repeats", SETUP_REPEATS as f64);
    let (proc, dir) = kept.ok_or("no set-up ran")?;
    Ok((proc, dir, argv))
}

/// End-to-end metrics of a phase; `cpu` is the program's CPU ticks
/// over the phase.
fn end_to_end(
    phase: &Phase,
    cpu: (u64, u64),
    rss_mb: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let ok = phase.ok_count();
    let mut done: Vec<(u64, f64)> = phase
        .ok()
        .map(|s| (s.done_ns, s.latency_ns as f64 / 1e3))
        .collect();
    let chunked = chunks(&mut done, 0);
    out.samples = done.len();
    out.tail_rule_met = !chunked.is_empty();
    if chunked.is_empty() {
        // Fewer than one chunk: whole-window figures, p99 replaced by
        // the worst sample (the row says the rule was not met).
        let mut lat: Vec<f64> = done.iter().map(|d| d.1).collect();
        lat.sort_by(f64::total_cmp);
        out.metric("ops_per_s", ok as f64 / phase.wall_s);
        out.metric(
            "latency_p50_us",
            nearest_rank(&lat, 0.5).map_or(0.0, |r| r.0),
        );
        out.metric("latency_p99_us", *lat.last().unwrap_or(&0.0));
    } else {
        // Another tenant of the machine can only slow a chunk down, so
        // the undisturbed quartile of the chunks (upper for rates, lower
        // for p50) tracks what the program sustains. Medians over chunks
        // swung by 30% between runs with the host's load.
        let pick = |f: fn(&Chunk) -> f64, upper: bool| {
            let v: Vec<f64> = chunked.iter().map(f).collect();
            quartiles(&v).map_or(v[0], |(q1, q3)| if upper { q3 } else { q1 })
        };
        out.metric("ops_per_s", pick(|c| c.ops_per_s, true));
        out.metric("latency_p50_us", pick(|c| c.p50, false));
        let p99s: Vec<f64> = chunked.iter().map(|c| c.p99).collect();
        out.metric("latency_p99_us", median(&p99s).unwrap_or(0.0));
        out.note(
            "chunk_ops_per_s_median",
            median(&chunked.iter().map(|c| c.ops_per_s).collect::<Vec<_>>()).unwrap_or(0.0),
        );
    }
    out.metric(
        "cpu_ms_per_op",
        cpu_ms_per_op(cpu.0, cpu.1, ticks_per_s(), ok).ok_or("no request completed")?,
    );
    out.metric("rss_peak_mb", rss_mb);
    out.note("chunks", chunked.len() as f64);
    out.note("window_ops_per_s", ok as f64 / phase.wall_s);
    out.note("window_s", phase.wall_s);
    Ok(())
}

/// Run the measured phases against `proc`. Untraced runs measure one
/// window of `--seconds`; traced runs split it into an untraced half (the
/// overhead baseline) and a traced half on the same request stream.
fn measure(
    ctx: &Ctx,
    plan: &Plan,
    proc: &Proc,
    stats_addr: &str,
    out: &mut Outcome,
) -> Result<(Phase, Option<(Phase, Window)>), String> {
    let window = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    // Warm-up: connections, caches and the servers' scratch buffers.
    drive(plan, &proc.addr, false, WARMUP_S);
    let cpu0 = proc.cpu_ticks().ok_or("read server cpu ticks")?;
    let s0 = stats(stats_addr)?;
    let steal0 = host_steal();
    let first = drive(plan, &proc.addr, false, window);
    out.note("host_steal_pct", steal_pct(steal0, host_steal()));
    let cpu1 = proc.cpu_ticks().ok_or("read server cpu ticks")?;
    let rss = proc.rss_peak_mb().ok_or("read server VmHWM")?;
    let s1 = stats(stats_addr)?;
    end_to_end(&first, (cpu0, cpu1), rss, out)?;
    let w = Window::between(&s0, &s1);
    out.note("server_requests_in_window", w.requests);
    if !ctx.trace {
        return Ok((first, None));
    }
    let traced = drive(plan, &proc.addr, true, window);
    let w = Window::between(&s1, &stats(stats_addr)?);
    Ok((first, Some((traced, w))))
}

fn account(out: &mut Outcome, phases: &[&Phase]) {
    for p in phases {
        out.attempted += p.samples.len() as u64;
        out.failed += p.samples.iter().filter(|s| !s.ok).count() as u64;
        for e in &p.errors {
            out.mismatch(&format!("client error: {e}"));
        }
    }
}

/// Layer metrics every served workload shares; returns the report's
/// sum-check lines.
fn serve_layers(traced: &Phase, untraced: &Phase, w: &Window, out: &mut Outcome) -> String {
    let st = self_times(&traced.tracer.spans);
    let enc = mean_self_us(&st, "client.encode");
    let dec = mean_self_us(&st, "client.decode");
    let ok: Vec<&Sample> = traced.ok().collect();
    let outside = mean(
        &ok.iter()
            .map(|s| s.wire_ns as f64 / 1e3 - s.micros as f64)
            .collect::<Vec<_>>(),
    );
    let rtt = traced.mean_latency_us();
    let queue_wait = w.request_mean_us - w.batch_mean_us;
    out.metric("client.encode_us", enc);
    out.metric("client.decode_us", dec);
    out.metric("batcher.queue_wait_us", queue_wait);
    out.metric("batcher.mean_batch", w.mean_batch);
    out.metric("batcher.shed", w.shed);
    out.metric("server.request_p50_us", w.request_p50_us);
    out.metric("server.batch_mean_us", w.batch_mean_us);
    out.metric("server.errors", w.errors);
    out.metric("server.outside_us", outside);
    let overhead = (rtt / untraced.mean_latency_us() - 1.0) * 100.0;
    out.metric("trace.overhead_pct", overhead);
    let sum = enc + dec + queue_wait + w.batch_mean_us + outside;
    let gap = (sum - rtt).abs() / rtt * 100.0;
    out.metric("trace.sum_gap_pct", gap);
    out.trace_ok = gap <= SUM_MARGIN_PCT;
    format!(
        "tracing overhead: mean round trip {rtt:.1} us traced vs {:.1} us untraced ({overhead:+.2}%), \
         {:.0} vs {:.0} ops/s\n\
         sum check ({}; margin {SUM_MARGIN_PCT}%): client.encode {enc:.1} + client.decode {dec:.1} \
         + batcher.queue_wait {queue_wait:.1} + server.batch_mean {:.1} + server.outside {outside:.1} \
         = {sum:.1} us vs client round trip {rtt:.1} us, gap {gap:.2}%\n\
         sources: client.* are spans in this process; batcher.queue_wait_us is the server's mean \
         request time minus its mean batch time and server.batch_mean_us the mean batch time, both \
         from the stats op over the traced window (the server keeps no per-stage clock, so queue wait \
         cannot be read directly); server.outside_us is wire time minus the reply's own `micros` \
         (socket, syscalls, scheduling, server-side decode and encode); server.request_p50_us is the \
         server's lifetime histogram.\n",
        untraced.mean_latency_us(),
        ok.len() as f64 / traced.wall_s,
        untraced.ok_count() as f64 / untraced.wall_s,
        if out.trace_ok { "PASS" } else { "FAIL" },
        w.batch_mean_us,
    )
}

fn serve_command(ctx: &Ctx, dir: &Path) -> Command {
    let mut cmd = Command::new(ctx.bin_dir.join("tsda_serve"));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--models",
        &MODELS.join(","),
        "--fast",
        "--dir",
    ])
    .arg(dir)
    .args(BATCH_FLAGS);
    cmd
}

pub fn predict_v2(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = Plan::new(Kind::Predict, ctx.seed);
    let (mut proc, dir, argv) = set_up(ctx, &plan, |dir| serve_command(ctx, dir), &mut out)?;
    out.note_str("server_argv", &argv.join(" "));
    let (first, traced) = measure(ctx, &plan, &proc, &proc.addr.clone(), &mut out)?;
    proc.stop();
    let mut phases = vec![&first];
    if let Some((t, _)) = &traced {
        phases.push(t);
    }
    account(&mut out, &phases);

    // Served labels must equal offline predictions from the model files
    // the server saved.
    let mut models = Vec::new();
    for name in MODELS {
        let path = dir.join(format!("{name}.tsda"));
        models.push(load_model(&path).map_err(|e| format!("load {path:?}: {e}"))?);
    }
    let mut offline: std::collections::BTreeMap<(usize, usize), u64> = Default::default();
    let mut checked = 0u64;
    for s in phases.iter().flat_map(|p| p.ok()) {
        let key = (s.input.key, s.input.series);
        let want = match offline.get(&key) {
            Some(l) => *l,
            None => {
                let l = offline_label(&mut models[key.0], &plan.series[key.1])?;
                offline.insert(key, l);
                l
            }
        };
        checked += 1;
        if s.value != want {
            out.mismatch(&format!(
                "{} on series {}: served label {} != offline {want}",
                MODELS[key.0], key.1, s.value
            ));
            break;
        }
    }
    out.note("verified_replies", checked as f64);

    if let Some((traced, w)) = traced {
        let mut report = format!(
            "predict-v2 traced window: {} requests\n",
            traced.samples.len()
        );
        report.push_str(&serve_layers(&traced, &first, &w, &mut out));
        report.push_str(&replay_predict(
            &dir,
            &plan,
            &traced,
            w.mean_batch,
            &mut models,
            &mut out,
        )?);
        report.push_str(&crate::self_time_table(&self_times(&out.spans)));
        out.report = report;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

fn one(series: &Mts) -> Dataset {
    let mut ds = Dataset::empty(1);
    ds.push(series.clone(), 0);
    ds
}

fn offline_label(model: &mut SavedModel, series: &Mts) -> Result<u64, String> {
    let labels = match model {
        SavedModel::Rocket(m) => m.predict_fitted(&one(series)).map_err(|e| e.to_string())?,
        SavedModel::InceptionTime(m) => m.predict(&one(series)),
        _ => return Err("unexpected model kind".into()),
    };
    labels
        .first()
        .map(|l| *l as u64)
        .ok_or_else(|| "no label".into())
}

/// Server layers of `predict-v2`, replayed in this process on the
/// traced window's own request bytes: the server's internals are not
/// visible from outside its process, so each layer's public function
/// is called here on the same inputs, at the served mean batch size.
fn replay_predict(
    dir: &Path,
    plan: &Plan,
    traced: &Phase,
    mean_batch: f64,
    models: &mut [SavedModel],
    out: &mut Outcome,
) -> Result<String, String> {
    let mut tr = Tracer::new(true);
    let batch = (mean_batch.round() as usize).clamp(1, 32);
    let rocket_entry = ModelEntry::from_saved(
        "rocket",
        load_model(&dir.join("rocket.tsda")).map_err(|e| e.to_string())?,
        None,
    )
    .map_err(|e| e.to_string())?;
    let mut reply = Vec::new();
    for (input, id, wire) in &traced.kept {
        let WireRequest::Frame(frame) = wire else {
            continue;
        };
        let decoded = tr.span("proto2.decode", 0, *id, || {
            proto2::check_frame(&frame[4..])
                .map_err(|e| (0, e))
                .and_then(proto2::decode_request)
        });
        let Ok(proto2::Request2::Predict { series, .. }) = decoded else {
            return Err("replayed frame did not decode as a predict".into());
        };
        tr.span("registry.validate", 0, *id, || {
            rocket_entry.validate(&series)
        })?;
        tr.span("proto2.encode", 0, *id, || {
            reply.clear();
            proto2::encode_reply_predict_into(&mut reply, *id, input.key as u64, batch as u32, 0)
        });
    }
    // Batches of the served mean size, per model, in request order.
    let mut n_batches = 0;
    for (m, model) in models.iter_mut().enumerate() {
        let series: Vec<&Mts> = traced
            .kept
            .iter()
            .filter(|k| k.0.key == m)
            .map(|k| &plan.series[k.0.series])
            .collect();
        for chunk in series.chunks_exact(batch) {
            let mut ds = Dataset::empty(1);
            for s in chunk {
                ds.push((*s).clone(), 0);
            }
            n_batches += 1;
            let req = n_batches;
            match model {
                SavedModel::Rocket(r) => {
                    let clean = tsda_classify::encode::preprocess_dataset(&ds);
                    // Warm both paths first: head_us is the difference of
                    // the two timings, and a cold first call made it
                    // negative at batch size 1.
                    std::hint::black_box(r.predict_fitted(&ds).map_err(|e| e.to_string())?);
                    tr.span("classify.rocket.transform", 0, req, || {
                        std::hint::black_box(r.transform(&clean))
                    });
                    let all = tr.start();
                    std::hint::black_box(r.predict_fitted(&ds).map_err(|e| e.to_string())?);
                    tr.finish(all, "classify.rocket.predict_fitted", 0, req);
                }
                SavedModel::InceptionTime(i) => {
                    tr.span("classify.inception.forward", 0, req, || {
                        std::hint::black_box(i.predict(&ds))
                    });
                }
                _ => {}
            }
            tr.span("core.parallel.dispatch", 0, req, || {
                std::hint::black_box(Pool::global().par_map_indexed(batch, |i| i))
            });
        }
    }
    let st = self_times(&tr.spans);
    let per_series = |name: &str| mean_self_us(&st, name) / batch as f64;
    let transform = per_series("classify.rocket.transform");
    out.metric("proto2.decode_us", mean_self_us(&st, "proto2.decode"));
    out.metric("proto2.encode_us", mean_self_us(&st, "proto2.encode"));
    out.metric(
        "registry.validate_us",
        mean_self_us(&st, "registry.validate"),
    );
    out.metric("classify.rocket.transform_us", transform);
    out.metric(
        "classify.rocket.head_us",
        (per_series("classify.rocket.predict_fitted") - transform).max(0.0),
    );
    out.metric(
        "classify.inception.forward_us",
        per_series("classify.inception.forward"),
    );
    out.metric(
        "core.parallel.dispatch_us",
        mean_self_us(&st, "core.parallel.dispatch"),
    );
    let mut spans = std::mem::take(&mut tr.spans);
    spans.extend(traced.tracer.spans.iter().cloned());
    out.spans = spans;
    Ok(format!(
        "replayed layers (this process, {} kept requests, {n_batches} batches of {batch}): per-series \
         times are batch times / {batch}; classify.rocket.head_us is predict_fitted (preprocess + \
         transform + ridge head) minus transform, since Rocket exposes no separate head call; \
         core.parallel.dispatch_us is one empty par_map of {batch} items.\n",
        traced.kept.len()
    ))
}

pub fn augment_router(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = Plan::new(Kind::Augment, ctx.seed);
    let pipelines_toml = ctx.root.join("pipelines.toml");
    let text = std::fs::read_to_string(&pipelines_toml)
        .map_err(|e| format!("read pipelines.toml: {e}"))?;
    let config = PipelineConfig::parse(&text).map_err(|e| e.to_string())?;
    let pipelines: Vec<AugPipeline> =
        AugPipeline::from_config(&config).map_err(|e| e.to_string())?;
    let by_name = |name: &str| pipelines.iter().find(|p| p.name() == name);
    for name in PIPELINES {
        by_name(name).ok_or_else(|| format!("pipelines.toml has no {name:?} pipeline"))?;
    }

    let router_cmd = |dir: &Path| {
        let mut cmd = Command::new(ctx.bin_dir.join("tsda_router"));
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--replicas",
            "1",
            "--models",
            "rocket",
            "--fast",
            "--dir",
        ])
        .arg(dir)
        .arg("--pipelines")
        .arg(&pipelines_toml)
        .arg("--serve-bin")
        .arg(ctx.bin_dir.join("tsda_serve"))
        .args(BATCH_FLAGS);
        cmd
    };
    let (mut proc, dir, argv) = set_up(ctx, &plan, router_cmd, &mut out)?;
    out.note_str("router_argv", &argv.join(" "));
    // The replica's address and pid, so its CPU, memory and counters
    // are measured and it is reaped with the router.
    let router_stats = stats(&proc.addr)?;
    let replica_addr = match router_stats.get("replicas") {
        Some(Value::Array(r)) if r.len() == 1 => r[0]
            .get("addr")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        _ => return Err("router stats list no single replica".into()),
    };
    proc.descendants = children_of(proc.pid());
    if proc.descendants.len() != 1 {
        return Err(format!(
            "expected one replica process, found {:?}",
            proc.descendants
        ));
    }
    out.note_str("replica_addr", &replica_addr);
    let router_pid = proc.pid();
    let r_cpu0 = crate::procs::cpu_ticks(router_pid).unwrap_or(0);
    let r0 = stats(&proc.addr)?;
    let (first, traced) = measure(ctx, &plan, &proc, &replica_addr, &mut out)?;
    let r_cpu1 = crate::procs::cpu_ticks(router_pid).unwrap_or(0);
    let r1 = stats(&proc.addr)?;
    // The same stream again, straight to the replica: the difference is
    // the router hop.
    let direct = traced
        .as_ref()
        .map(|_| drive(&plan, &replica_addr, true, ctx.seconds / 4.0));
    proc.stop();
    let mut phases = vec![&first];
    if let Some((t, _)) = &traced {
        phases.push(t);
    }
    if let Some(d) = &direct {
        phases.push(d);
    }
    account(&mut out, &phases);

    // Augment replies must be bit-identical to offline apply_one.
    let mut tr = Tracer::new(ctx.trace);
    let mut checked = 0u64;
    for s in phases.iter().flat_map(|p| p.ok()) {
        let name = PIPELINES[s.input.key];
        let pipeline = by_name(name).expect("checked above");
        let series = &plan.series[s.input.series];
        let want = tr.span(apply_span(name), 0, s.input.index, || {
            digest(&pipeline.apply_one(series, plan.seed, s.input.index))
        });
        checked += 1;
        if s.value != want {
            out.mismatch(&format!(
                "{name} index {}: served series differs from apply_one",
                s.input.index
            ));
            break;
        }
    }
    out.note("verified_replies", checked as f64);

    if let (Some((traced, w)), Some(direct)) = (traced, direct) {
        let mut report = format!(
            "augment-ndjson-router traced window: {} requests\n",
            traced.samples.len()
        );
        report.push_str(&serve_layers(&traced, &first, &w, &mut out));
        let st = self_times(&tr.spans);
        for name in PIPELINES {
            out.metric(
                &format!("pipelines.apply_us.{name}"),
                mean_self_us(&st, apply_span(name)),
            );
        }
        let forwarded = num(&r1, "forwarded") - num(&r0, "forwarded");
        out.metric("router.forwarded", forwarded);
        out.metric(
            "router.failovers",
            num(&r1, "failovers") - num(&r0, "failovers"),
        );
        out.metric(
            "router.cpu_ms_per_op",
            cpu_ms_per_op(r_cpu0, r_cpu1, ticks_per_s(), forwarded as u64).unwrap_or(0.0),
        );
        // Median over the same requests: routed minus direct.
        let routed_p50 = p50_us(&traced);
        let direct_p50 = p50_us(&direct);
        out.metric("router.hop_us", routed_p50 - direct_p50);
        out.metric(
            "protocol.reply_bytes",
            mean(
                &traced
                    .ok()
                    .map(|s| s.reply_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        report.push_str(&format!(
            "router hop: p50 {routed_p50:.1} us through the router vs {direct_p50:.1} us direct to the \
             replica on the same request stream ({} and {} requests); router counters cover both \
             untraced and traced windows.\n",
            traced.samples.len(),
            direct.samples.len()
        ));
        report.push_str(&replay_ndjson(&traced, &mut tr, &mut out)?);
        let mut spans = std::mem::take(&mut tr.spans);
        spans.extend(traced.tracer.spans.iter().cloned());
        report.push_str(&crate::self_time_table(&self_times(&spans)));
        out.spans = spans;
        out.report = report;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

fn p50_us(phase: &Phase) -> f64 {
    let mut lat: Vec<f64> = phase.ok().map(|s| s.latency_ns as f64 / 1e3).collect();
    lat.sort_by(f64::total_cmp);
    nearest_rank(&lat, 0.5).map_or(0.0, |r| r.0)
}

fn apply_span(name: &str) -> &'static str {
    match name {
        "light" => "pipelines.apply.light",
        "warp" => "pipelines.apply.warp",
        "freq" => "pipelines.apply.freq",
        _ => "pipelines.apply.heavy",
    }
}

/// The replica's NDJSON codec, replayed in this process on the traced
/// window's own request lines.
fn replay_ndjson(traced: &Phase, tr: &mut Tracer, out: &mut Outcome) -> Result<String, String> {
    let mut reply = String::new();
    for (input, id, wire) in &traced.kept {
        let WireRequest::Line(line) = wire else {
            continue;
        };
        let series = tr.span("protocol.decode", 0, *id, || match parse_request(line) {
            Ok(protocol::Request::Augment { series, .. }) => {
                protocol::decode_series(&series).map_err(|e| e.to_string())
            }
            _ => Err("replayed line did not decode as an augment".to_string()),
        })?;
        tr.span("protocol.encode", 0, *id, || {
            reply.clear();
            protocol::augment_response_into(&mut reply, *id, PIPELINES[input.key], &series, 1, 0)
        });
    }
    let st = self_times(&tr.spans);
    out.metric("protocol.decode_us", mean_self_us(&st, "protocol.decode"));
    out.metric("protocol.encode_us", mean_self_us(&st, "protocol.encode"));
    Ok(format!(
        "replayed layers (this process, {} kept requests): protocol.decode is parse_request + \
         decode_series, protocol.encode is augment_response_into on the request's own series (a \
         reply series has the request's shape); pipelines.apply_us.* time AugPipeline::apply_one \
         during output verification.\n",
        traced.kept.len()
    ))
}
