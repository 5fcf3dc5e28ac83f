//! Timing, in-memory spans, order statistics and the metric sink shared
//! by every workload.
//!
//! All host wall-clock reads of the benchmark go through [`Tracer::now_ns`],
//! the single annotated read site.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One recorded span: a call the benchmark made into a layer's public
/// function.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.execute`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Times calls and, when enabled, keeps one [`Span`] per call in memory
/// until [`Tracer::chrome_trace_json`] writes them out.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`; timing is always on.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(), // det-ok: benchmark host wall-clock origin
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns span recording on or off (timing stays on).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX) // det-ok: benchmark host wall-clock read
    }

    /// Runs `f`, returning its value and its host duration in seconds.
    /// Records a span named `name` (nested under any open span) when
    /// recording is enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                dur_ns: 0,
                parent: self.open.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        let t0 = self.now_ns();
        if let Some(i) = idx {
            self.spans[i].start_ns = t0;
        }
        let out = f(self);
        let t1 = self.now_ns();
        if let Some(i) = idx {
            self.spans[i].dur_ns = t1 - t0;
            self.open.pop();
        }
        (out, (t1 - t0) as f64 * 1e-9)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace (Perfetto) JSON document: one complete
    /// event per span, with its parent index in `args`.
    pub fn chrome_trace_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
            );
        }
        let _ = write!(out, "\n],\"otherData\":{{\"process\":\"{process}\"}}}}\n");
        out
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM` in
/// `/proc/self/status`); `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median per-operation time of `f`, in nanoseconds: `batches` timed
/// batches of `ops` calls each, so one batch is long enough to time.
pub fn per_op_ns(
    tracer: &mut Tracer,
    name: &'static str,
    batches: usize,
    ops: usize,
    mut f: impl FnMut(),
) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            tracer
                .time(name, |_| {
                    for _ in 0..ops {
                        f();
                    }
                })
                .1
                * 1e9
                / ops as f64
        })
        .collect();
    median(&samples)
}

/// Iterations of the speed probe's multiply chain: about 10 ms on the
/// 2-vCPU VM the baseline was measured on.
const PROBE_ITERS: u64 = 165_000;

/// Chains per probe; the probe reads their median, so one short burst of
/// load does not skew it.
const PROBE_CHAINS: usize = 3;

/// The speed probe's time at reference speed, in seconds: about its
/// fast-mode time on the VM the baseline in `baseline.json` was measured
/// on.
pub const PROBE_REF_S: f64 = 0.010;

/// The speed probe's work: a chain of 6-limb schoolbook products, the
/// inner loop of a field multiply, in code of the benchmark's own so that
/// no change to the program moves it.
fn multiply_chain(iters: u64) -> u64 {
    const B: [u64; 6] = [
        0xd1b5_4a32_d192_ed03,
        0x8cb9_2ba7_2f3d_8dd7,
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ];
    let mut a = [1u64, 2, 3, 5, 7, 11];
    for _ in 0..iters {
        let mut t = [0u64; 6];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &bj) in B.iter().enumerate() {
                let k = (i + j) % 6;
                let v = u128::from(ai) * u128::from(bj) + u128::from(t[k]) + carry;
                t[k] = v as u64;
                carry = v >> 64;
            }
            t[i] ^= carry as u64;
        }
        t[0] |= 1;
        a = black_box(t);
    }
    a.iter().fold(0, |x, y| x ^ y)
}

/// Scales host times to reference machine speed.
///
/// A shared host runs the same code at speeds up to 1.6x apart, in modes
/// that last seconds to minutes, so raw medians of runs a minute apart
/// spread by 15-30 %. The yardstick times a probe (the median of
/// [`PROBE_CHAINS`] runs of a fixed single-threaded multiply chain) before
/// the first sample and after every sample, and scales each sample by
/// [`PROBE_REF_S`] / the mean of the probes on either side of it, which
/// ran in the same speed mode as the sample. Host speed then cancels,
/// while any change to the program's own code still shows in full.
#[derive(Debug)]
pub struct Yardstick {
    probes: Vec<f64>,
}

impl Yardstick {
    /// Probes once, as the "before" of the first sample.
    pub fn new(tracer: &Tracer) -> Self {
        let mut y = Self { probes: Vec::new() };
        y.probe(tracer);
        y
    }

    fn probe(&mut self, tracer: &Tracer) {
        let chains: Vec<f64> = (0..PROBE_CHAINS)
            .map(|_| {
                let t0 = tracer.now_ns();
                black_box(multiply_chain(black_box(PROBE_ITERS)));
                (tracer.now_ns() - t0) as f64 * 1e-9
            })
            .collect();
        self.probes.push(median(&chains));
    }

    /// `seconds` of host time, measured since the last probe, at
    /// reference speed. Probes again, as the "after" of this sample and
    /// the "before" of the next.
    pub fn scale(&mut self, tracer: &Tracer, seconds: f64) -> f64 {
        let before = self.probes[self.probes.len() - 1];
        self.probe(tracer);
        let after = self.probes[self.probes.len() - 1];
        seconds * PROBE_REF_S / (0.5 * (before + after))
    }

    /// Every probe so far, in seconds, in order.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

/// What [`closed_loop`] measured, in seconds.
#[derive(Clone, Debug, Default)]
pub struct LoopTimes {
    /// Each call's host time, in call order.
    pub calls: Vec<f64>,
    /// Each call's host time at reference speed (see [`Yardstick`]).
    pub calls_ref: Vec<f64>,
    /// Each set-up re-run's host time at reference speed, in order.
    pub setups_ref: Vec<f64>,
}

/// Runs `call` in a closed loop (one caller) until the next call would
/// make the loop overrun `seconds`, with at least `max(2, period)` calls.
/// `call` gets the call index and returns the sample it measured, in
/// seconds. `speed` scales every sample to reference speed.
///
/// Within the same `seconds` it re-runs `setup` `setups` times, the j-th
/// once the loop has taken j/(`setups` + 1) of `seconds` (any left over
/// run after the last call), so set-up samples spread over the whole run
/// instead of one burst at its start. Re-runs are timed apart from the
/// calls.
///
/// The calls cycle through `period` inputs. A traced run records spans
/// only in odd passes over them, so untraced and traced calls on the same
/// input alternate in one process and [`overhead_frac`] can compare them.
pub fn closed_loop(
    tracer: &mut Tracer,
    speed: &mut Yardstick,
    (seconds, period): (f64, usize),
    setups: usize,
    mut setup: impl FnMut(&mut Tracer),
    mut call: impl FnMut(&mut Tracer, usize) -> f64,
) -> LoopTimes {
    let traced = tracer.enabled();
    let mut rerun = |tracer: &mut Tracer, speed: &mut Yardstick, times: &mut LoopTimes| {
        tracer.set_enabled(traced);
        let ((), t) = tracer.time("bench.setup", |tracer| setup(tracer));
        times.setups_ref.push(speed.scale(tracer, t));
    };
    let mut times = LoopTimes::default();
    let start = tracer.now_ns();
    let elapsed = |tracer: &Tracer| (tracer.now_ns() - start) as f64 * 1e-9;
    let mut last_s = 0.0;
    while times.calls.len() < period.max(2) || elapsed(tracer) + last_s <= seconds {
        let i = times.calls.len();
        tracer.set_enabled(traced && (i / period) % 2 == 1);
        let t0 = tracer.now_ns();
        times.calls.push(call(tracer, i));
        last_s = (tracer.now_ns() - t0) as f64 * 1e-9;
        times.calls_ref.push(speed.scale(tracer, times.calls[i]));
        let done = elapsed(tracer) / seconds * (setups + 1) as f64;
        while times.setups_ref.len() < setups && done >= (times.setups_ref.len() + 1) as f64 {
            rerun(tracer, speed, &mut times);
        }
    }
    while times.setups_ref.len() < setups {
        rerun(tracer, speed, &mut times);
    }
    tracer.set_enabled(traced);
    times
}

/// Tracing overhead of a traced [`closed_loop`] over `period` inputs,
/// from its calls at reference speed (so host speed modes cancel): the
/// median, over traced calls, of the call ÷ the untraced call on the same
/// input one pass earlier, − 1. 0 when no call has such a pair.
pub fn overhead_frac(samples: &[f64], period: usize) -> f64 {
    let ratios: Vec<f64> = (period..samples.len())
        .filter(|i| (i / period) % 2 == 1)
        .map(|i| samples[i] / samples[i - period])
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (each checked for correctness).
    pub attempted: u64,
    /// Operations whose output was wrong, refused or missing.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Notes the individual samples behind a timing metric, in ms.
    pub fn note_samples(&mut self, name: &str, seconds: &[f64]) {
        let ms: Vec<String> = seconds.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        self.notes.push(format!(
            "{name} samples (ms, in call order): {}",
            ms.join(" ")
        ));
    }

    /// Pushes `setup_s` and `call_ms_p50` from a closed loop whose samples
    /// each make `calls` calls, at reference speed (see [`Yardstick`]),
    /// and notes the samples behind them. `first_setup_s` is the set-up
    /// before the loop, at reference speed.
    pub fn push_loop(
        &mut self,
        name: &str,
        first_setup_s: f64,
        times: &LoopTimes,
        speed: &Yardstick,
        calls: usize,
    ) {
        let setup_s = [&[first_setup_s][..], &times.setups_ref].concat();
        self.note_samples(&format!("{name} host"), &times.calls);
        self.note_samples(&format!("{name} at reference speed"), &times.calls_ref);
        self.note_samples("bench.setup at reference speed", &setup_s);
        self.note_samples("speed probe", speed.probes());
        self.push("setup_s", median(&setup_s), "s", setup_s.len());
        self.push(
            "call_ms_p50",
            median(&times.calls_ref) * 1e3 / calls as f64,
            "ms",
            times.calls.len(),
        );
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn overhead_pairs_calls_on_the_same_input() {
        // Two inputs: pass 0 untraced (calls 0, 1), pass 1 traced (2, 3).
        assert!((overhead_frac(&[1.0, 4.0, 1.1, 4.4, 1.0], 2) - 0.1).abs() < 1e-12);
        assert!((overhead_frac(&[2.0, 3.0, 2.0, 3.0], 1) - 0.5).abs() < 1e-12);
        assert_eq!(overhead_frac(&[1.0], 2), 0.0);
    }

    #[test]
    fn closed_loop_runs_every_setup_and_input() {
        let mut t = Tracer::new(false);
        let mut speed = Yardstick::new(&t);
        let mut reruns = 0;
        let times = closed_loop(&mut t, &mut speed, (0.0, 3), 3, |_| reruns += 1, |_, _| 0.0);
        assert_eq!(times.calls.len(), 3);
        assert_eq!(times.calls_ref.len(), 3);
        assert_eq!(times.setups_ref.len(), 3);
        assert_eq!(reruns, 3);
        // One probe before the loop, and one after every call and re-run.
        assert_eq!(speed.probes().len(), 7);
        assert!(speed.probes().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn yardstick_scales_by_the_probes_around_a_sample() {
        let t = Tracer::new(false);
        let mut speed = Yardstick::new(&t);
        let scaled = speed.scale(&t, 2.0);
        let p = speed.probes();
        assert!((scaled - 2.0 * PROBE_REF_S / (0.5 * (p[0] + p[1]))).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new(true);
        t.time("fleet.run", |t| t.time("core.execute", |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.chrome_trace_json("test");
        assert!(json.contains("\"name\":\"core.execute\""));
        assert!(json.contains("\"parent\":0"));
        let mut off = Tracer::new(false);
        let (v, secs) = off.time("x", |_| 5);
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
