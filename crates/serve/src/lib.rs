//! `tsda-serve`: a std-only batched TCP inference server over the
//! workspace's saved models.
//!
//! The ROADMAP's north star is a system that serves prediction traffic,
//! not a benchmark that trains and exits. This crate is that serving
//! layer, built from these pieces:
//!
//! * [`protocol`] — newline-delimited JSON over TCP. Predict payloads
//!   carry series in the `.ts` data-line layout
//!   (`tsda_datasets::ts_format::parse_series_line`), so the wire format
//!   and archive IO share one parser.
//! * [`registry`] — named models loaded at startup from
//!   [`tsda_classify::persist`] files. The feature-based models are
//!   served through their `&self` prediction paths (no locks);
//!   InceptionTime sits behind a mutex because its forward pass caches
//!   activations.
//! * [`pipelines`] — named augmentation pipelines
//!   ([`tsda_augment::declarative::AugPipeline`]) loaded at startup
//!   from a TOML file and served through the `augment` op on both
//!   protocols; results are bit-identical to offline execution because
//!   every pipeline is a pure function of `(seed, sample index)`.
//! * [`batcher`] — one lane per model (predict) and per pipeline
//!   (augment), every lane running the same adaptive micro-batch loop
//!   on its own worker thread: flush when `max_batch` requests are
//!   pending or `max_wait` has elapsed since the first, then run one
//!   batched call on the shared compute pool. Per-series results are
//!   batch-composition independent, so served labels are bit-identical
//!   to offline `Classifier::predict` (asserted by the smoke test).
//! * [`server`] — the accept loop, the connection loop, and the one
//!   request pipeline (edge decode → dispatch → codec render) that the
//!   server and the router both run; plus graceful shutdown via a flag
//!   the SIGTERM/ctrl-c handler ([`signal`]) and tests both flip.
//!   Shutdown drains: accepted requests are answered and queued jobs
//!   run before threads exit.
//! * [`faults`] — a seeded, deterministic fault-injection plan
//!   (delayed/torn/dropped writes, corrupted request bytes, worker
//!   stalls, load shedding) the chaos suites run the whole stack under.
//! * [`client`] — connection + readiness probe + a retrying client
//!   (capped exponential backoff with seeded jitter, per-request
//!   timeouts, reconnect-and-replay) that survives every fault the
//!   plan injects.
//! * [`proto2`] — the length-prefixed, CRC-framed binary protocol v2,
//!   negotiated per connection by a 4-byte preamble (NDJSON stays the
//!   default), so the predict hot path decodes raw f64 bit patterns
//!   instead of re-parsing text.
//! * [`admission`] — per-client token-bucket quotas in front of the
//!   batcher, refusing with `throttled` + `retry_ms` replies the
//!   retrying client honours as backoff floors.
//! * [`router`] — a frontend that spawns/fronts N replica servers with
//!   per-model shard placement, least-loaded or rendezvous-hash
//!   routing, ping health checks, and automatic restart of dead
//!   replicas under load.
//!
//! Three binaries drive it: `tsda_serve` (train-or-load models, then
//! serve; `--fault-seed` arms the plan), `tsda_router` (the replica
//! fleet frontend), and `tsda_client` (single requests, readiness
//! probe, or a closed-loop load generator that writes
//! `BENCH_serve.json`).

pub mod admission;
pub mod batcher;
pub mod client;
pub mod faults;
pub mod pipelines;
pub mod proto2;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;
pub mod signal;
pub mod stats;

pub use admission::{Admission, AdmissionConfig};
pub use batcher::{BatchConfig, SubmitError};
pub use client::{ClientCounters, Proto, RetryPolicy, RetryingClient, WireRequest};
pub use faults::{FaultKind, FaultPlan, FaultRates};
pub use pipelines::PipelineRegistry;
pub use registry::{ModelEntry, ModelRegistry};
pub use router::{ReplicaSpec, RoutePolicy, Router, RouterConfig, RouterHandle};
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::{ServerStats, StatsSnapshot};
