//! `distmsm-telemetry` — deterministic tracing and metrics for the
//! DistMSM reproduction.
//!
//! The paper's whole evaluation (Figs. 8–12, Tables 3–4) is an exercise
//! in *attributing simulated milliseconds*: to scatter vs bucket-sum, to
//! one device vs the fabric, to primary work vs recovery. The engine,
//! comms and fault layers each carry those attributions through their own
//! report structs; this crate gives them a single live representation —
//! a timeline of [`Span`]s, [`Instant`]s and [`CounterSample`]s on
//! per-device, fabric, host, supervisor and prover [`Lane`]s — that can
//! be exported as a Chrome-trace / Perfetto JSON file and re-aggregated
//! into the Fig. 10 phase breakdown from the spans alone.
//!
//! # Design constraints
//!
//! * **No external tracing dependency.** The crate is a leaf: plain
//!   structs, a capture scoped to the recording thread, hand-rolled JSON.
//! * **Deterministic, simulated timestamps.** Every span boundary is a
//!   value of the `gpu_sim::cost` model (seconds of *simulated* time),
//!   never wall clock — identical runs produce byte-identical traces.
//! * **Zero cost when unused.** Instrumented crates gate their hooks
//!   behind a `telemetry` cargo feature; with the feature off this crate
//!   is not even compiled into the dependency graph (ci.sh asserts the
//!   default bench binaries carry no `distmsm_telemetry` symbols).
//!
//! # Module map
//!
//! | Module | Contents |
//! |---|---|
//! | [`span`] | [`Lane`], [`Span`], [`Instant`], [`CounterSample`], [`Histogram`], [`Timeline`] with well-nesting + phase aggregation |
//! | [`capture`] | the scoped [`record`] capture: timeline, simulated-clock cursor and typed item streams |
//! | [`export`] | Chrome-trace JSON emission and the live-span phase table |
//! | [`json`] | minimal JSON parser and the Chrome-trace schema validator |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod export;
pub mod json;
pub mod span;

pub use capture::{record, Capture};
pub use export::{phase_table, to_chrome_trace};
pub use json::{parse as parse_json, validate_chrome_trace, JsonValue};
pub use span::{CounterSample, Histogram, Instant, Lane, Span, Timeline};
