//! `msm-large`: one BLS12-381 G1 MSM of 2^15 points on a simulated
//! `dgx_a100(8)`, closed loop, one caller.
//!
//! Nearly all host time goes to field multiplies and PACC/PADD under the
//! engine's scatter, bucket-sum and reduce; per-call fixed cost (window
//! search, planning, thread spawn) is a few percent. The workload shows
//! arithmetic and kernel gains and hides per-call overhead.

use std::hint::black_box;

use distmsm::prelude::{Bls12381G1, DistMsm, MsmInstance, MultiGpuSystem, XyzzPoint};
use rand::{rngs::StdRng, SeedableRng};

use crate::harness::{closed_loop, overhead_frac, Outcome, Tracer, Yardstick};
use crate::layers::{arithmetic, core_layers, same_point, serial_pippenger, CoreInputs};

/// Workload size.
pub struct Params {
    /// MSM length.
    pub n: usize,
}

impl Params {
    /// The benchmarked size.
    pub const BENCH: Params = Params { n: 1 << 15 };
}

/// Simulated GPUs the MSM runs on.
const GPUS: usize = 8;
/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 5;

struct Input {
    instance: MsmInstance<Bls12381G1>,
    reference: XyzzPoint<Bls12381G1>,
}

/// Runs the workload; see the module docs.
pub fn run(p: &Params, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut serial_s = Vec::new();
    let mut setup = |tracer: &mut Tracer| {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = MsmInstance::<Bls12381G1>::random(p.n, &mut rng);
        let (reference, t) = tracer.time("bench.serial_pippenger", |_| serial_pippenger(&instance));
        serial_s.push(t);
        Input {
            instance,
            reference,
        }
    };
    let mut speed = Yardstick::new(tracer);
    let (
        Input {
            instance,
            reference,
        },
        first_setup_s,
    ) = tracer.time("bench.setup", &mut setup);
    let first_setup_s = speed.scale(tracer, first_setup_s);

    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(GPUS));
    let mut report = None;
    let times = closed_loop(
        tracer,
        &mut speed,
        (seconds, 1),
        SETUPS - 1,
        |tracer| drop(black_box(setup(tracer))),
        |tracer, i| {
            let (r, t) = tracer.time("core.execute", |_| engine.execute(&instance));
            match r {
                Ok(rep) => {
                    out.check(same_point(&rep.result, &reference), || {
                        format!("execute #{i} differs from the serial reference")
                    });
                    report = Some(rep);
                }
                Err(e) => out.check(false, || format!("execute #{i}: {e}")),
            }
            t
        },
    );
    out.push_loop("core.execute", first_setup_s, &times, &speed, 1);
    let call_s = &times.calls;
    let Some(report) = report else {
        return out;
    };
    if tracer.enabled() {
        arithmetic::<Bls12381G1>(tracer, &mut out, seed);
        core_layers(
            tracer,
            &mut out,
            &CoreInputs {
                engine: &engine,
                instance: &instance,
                reference: &reference,
                report: &report,
                execute_s: call_s,
                serial_s: &serial_s,
            },
        );
        out.push(
            "trace.overhead_frac",
            overhead_frac(&times.calls_ref, 1),
            "ratio",
            call_s.len(),
        );
    }
    out
}
