//! Per-layer probes shared by the workloads: field and curve arithmetic,
//! the engine's phases re-run through their public functions, and the
//! exact counters an [`MsmReport`] carries.

use std::hint::black_box;

use distmsm::analytic::CurveDesc;
use distmsm::bucket_sum::{bucket_sum, threads_per_bucket};
use distmsm::engine::{window_shape, DistMsm, MsmReport};
use distmsm::plan::plan_slices;
use distmsm::reduce::{bucket_reduce_serial, window_reduce};
use distmsm::scatter::{hierarchical_shared_bytes, scatter_hierarchical, scatter_naive};
use distmsm_ec::{Curve, FieldElement, MsmInstance, Scalar, XyzzPoint};
use distmsm_kernel::EcKernelModel;
use rand::{rngs::StdRng, SeedableRng};

use crate::harness::{median, per_op_ns, Outcome, Tracer};

/// Single-threaded serial Pippenger (fixed windows, bucket accumulation,
/// suffix-sum reduce): the correctness reference and the plain
/// one-thread baseline the engine is compared against.
pub fn serial_pippenger<C: Curve>(instance: &MsmInstance<C>) -> XyzzPoint<C> {
    let s = ((instance.len().max(2) as f64).ln().ceil() as u32).clamp(2, 16);
    let n_buckets = 1usize << s;
    let mut acc = XyzzPoint::<C>::identity();
    for w in (0..C::SCALAR_BITS.div_ceil(s)).rev() {
        for _ in 0..s {
            acc = acc.pdbl();
        }
        let mut buckets = vec![XyzzPoint::<C>::identity(); n_buckets];
        for (p, k) in instance.points.iter().zip(&instance.scalars) {
            let m = k.window(w * s, s) as usize;
            if m != 0 {
                buckets[m].pacc(p);
            }
        }
        let mut running = XyzzPoint::<C>::identity();
        let mut sum = XyzzPoint::<C>::identity();
        for b in buckets.iter().skip(1).rev() {
            running = running.padd(b);
            sum = sum.padd(&running);
        }
        acc = acc.padd(&sum);
    }
    acc
}

/// Bit-exact equality: both points normalise to the same affine
/// coordinates.
pub fn same_point<C: Curve>(a: &XyzzPoint<C>, b: &XyzzPoint<C>) -> bool {
    a.to_affine() == b.to_affine()
}

/// `ff.*` and `ec.pacc_ns`/`ec.padd_ns`/`ec.scalar_mul_us` on curve
/// `C`'s base field and group, with operands drawn from `seed`.
pub fn arithmetic<C: Curve>(tracer: &mut Tracer, out: &mut Outcome, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa817_0001);
    let y = C::Base::random(&mut rng);
    let mut x = C::Base::random(&mut rng);
    let mul = per_op_ns(tracer, "ff.mul", 7, 20_000, || x = black_box(x * y));
    let mut x = C::Base::random(&mut rng);
    let square = per_op_ns(tracer, "ff.square", 7, 20_000, || x = black_box(x.square()));
    let mut x = C::Base::random(&mut rng);
    let inverse = per_op_ns(tracer, "ff.inverse", 7, 20, || {
        x = black_box(x.inverse().unwrap_or(y) + y);
    });
    out.push("ff.mul_ns", mul, "ns", 7);
    out.push("ff.square_ns", square, "ns", 7);
    out.push("ff.inverse_us", inverse / 1e3, "us", 7);

    let instance = MsmInstance::<C>::random(64, &mut rng);
    let mut acc = XyzzPoint::<C>::identity();
    let mut i = 0;
    let pacc = per_op_ns(tracer, "ec.pacc", 7, 5_000, || {
        acc.pacc(black_box(&instance.points[i % 64]));
        i += 1;
    });
    let q = instance.points[1].to_xyzz();
    let mut acc = instance.points[0].to_xyzz();
    let padd = per_op_ns(tracer, "ec.padd", 7, 5_000, || {
        acc = black_box(acc.padd(&q))
    });
    let mut i = 0;
    let smul = per_op_ns(tracer, "ec.scalar_mul", 7, 8, || {
        black_box(instance.points[i % 64].scalar_mul(&instance.scalars[i % 64]));
        i += 1;
    });
    out.push("ec.pacc_ns", pacc, "ns", 7);
    out.push("ec.padd_ns", padd, "ns", 7);
    out.push("ec.scalar_mul_us", smul / 1e3, "us", 7);
}

/// Host milliseconds of the engine's phases, re-run single-threaded
/// through the public phase functions on the engine's own plan.
pub struct Phases {
    /// `scatter_hierarchical` (or `scatter_naive` where the engine falls
    /// back to it) over every slice.
    pub scatter_ms: f64,
    /// `bucket_sum` over every slice.
    pub bucket_sum_ms: f64,
    /// `bucket_reduce_serial` per slice, the per-window merge, and
    /// `window_reduce`.
    pub reduce_ms: f64,
}

/// Re-runs `engine`'s scatter, bucket-sum and reduce on `instance` as
/// `engine.execute` plans them (unsigned digits, CPU bucket-reduce — the
/// configurations every workload uses), returning the phase times and
/// the MSM value they compute.
pub fn rerun_phases<C: Curve>(
    tracer: &mut Tracer,
    engine: &DistMsm,
    instance: &MsmInstance<C>,
) -> (Phases, XyzzPoint<C>) {
    let cfg = engine.config();
    let s = engine.window_size_for(instance.len(), &CurveDesc::of::<C>());
    let (n_windows, n_buckets) = window_shape(C::SCALAR_BITS, s, cfg.signed_digits);
    let slices = plan_slices(n_windows, n_buckets, engine.system().n_gpus());
    let model = EcKernelModel::new(C::Base::LIMBS32, cfg.kernel_opts);
    let dev = &engine.system().devices[0];
    let gpu_threads = (u64::from(dev.resident_threads_per_sm(
        model.regs_per_thread(),
        model.shared_mem_per_block(cfg.block_size),
        cfg.block_size,
    )) * u64::from(dev.sm_count))
    .max(1);
    let coeff_bytes = if cfg.packed_coefficients {
        4.0
    } else {
        f64::from(C::SCALAR_BITS.div_ceil(8))
    };

    let mut phases = Phases {
        scatter_ms: 0.0,
        bucket_sum_ms: 0.0,
        reduce_ms: 0.0,
    };
    let mut windows = vec![XyzzPoint::<C>::identity(); n_windows as usize];
    for slice in &slices {
        let fits = hierarchical_shared_bytes(slice.len(), &cfg.scatter_cfg)
            <= cfg.scatter_cfg.shared_mem_per_block;
        let (buckets, t) = tracer.time("core.scatter", |_| {
            let scattered = if fits {
                scatter_hierarchical(&instance.scalars, s, slice, &cfg.scatter_cfg, coeff_bytes)
                    .ok()
            } else {
                None
            };
            scattered
                .unwrap_or_else(|| {
                    scatter_naive(&instance.scalars, s, slice, gpu_threads, coeff_bytes)
                })
                .buckets
        });
        phases.scatter_ms += t * 1e3;
        let tpb = threads_per_bucket(gpu_threads, u64::from(slice.len()));
        let (sum, t) = tracer.time("core.bucket_sum", |_| {
            bucket_sum(&instance.points, &buckets, tpb, &model, cfg.block_size)
        });
        phases.bucket_sum_ms += t * 1e3;
        let ((), t) = tracer.time("core.reduce", |_| {
            let (w, _) = bucket_reduce_serial(&sum.sums, slice.bucket_lo);
            let win = &mut windows[slice.window as usize];
            *win = win.padd(&w);
        });
        phases.reduce_ms += t * 1e3;
    }
    let ((result, _), t) = tracer.time("core.reduce", |_| window_reduce(&windows, s));
    phases.reduce_ms += t * 1e3;
    (phases, result)
}

/// Everything the `core`, `sim`, `comms` and `model` metric families
/// need about one representative MSM of a workload.
pub struct CoreInputs<'a, C: Curve> {
    /// The engine the workload runs the MSM on.
    pub engine: &'a DistMsm,
    /// The MSM.
    pub instance: &'a MsmInstance<C>,
    /// Its serial-Pippenger value (the reference).
    pub reference: &'a XyzzPoint<C>,
    /// A report of `engine.execute(instance)`.
    pub report: &'a MsmReport<C>,
    /// Host seconds of `engine.execute(instance)` calls.
    pub execute_s: &'a [f64],
    /// Host seconds of `serial_pippenger(instance)` calls.
    pub serial_s: &'a [f64],
}

/// Reports `core.*`, `sim.*`, `comms.*` and `model.*` for one
/// representative MSM, checking the re-run phases against the reference.
pub fn core_layers<C: Curve>(tracer: &mut Tracer, out: &mut Outcome, x: &CoreInputs<'_, C>) {
    let desc = CurveDesc::of::<C>();
    let n = x.instance.len();
    let estimates: Vec<f64> = (0..5)
        .map(|_| {
            tracer
                .time("core.analytic.estimate", |_| {
                    black_box(x.engine.estimate_seconds(n, &desc))
                })
                .1
        })
        .collect();
    let mut runs = Vec::new();
    let mut value = XyzzPoint::<C>::identity();
    for _ in 0..3 {
        let (p, v) = rerun_phases(tracer, x.engine, x.instance);
        runs.push(p);
        value = v;
    }
    out.check(same_point(&value, x.reference), || {
        format!("re-run engine phases on {n} points differ from the serial reference")
    });
    let scatter_ms = median(&runs.iter().map(|p| p.scatter_ms).collect::<Vec<_>>());
    let bucket_sum_ms = median(&runs.iter().map(|p| p.bucket_sum_ms).collect::<Vec<_>>());
    let reduce_ms = median(&runs.iter().map(|p| p.reduce_ms).collect::<Vec<_>>());
    let execute_ms = median(x.execute_s) * 1e3;
    // The engine spreads scatter and bucket-sum over one host thread per
    // core; the re-runs above are single-threaded.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()) as f64;
    let self_ms = execute_ms - (scatter_ms + bucket_sum_ms) / threads - reduce_ms;

    out.push(
        "core.analytic.estimate_ms",
        median(&estimates) * 1e3,
        "ms",
        estimates.len(),
    );
    out.push("core.execute_ms", execute_ms, "ms", x.execute_s.len());
    out.push("core.scatter_ms", scatter_ms, "ms", runs.len());
    out.push("core.bucket_sum_ms", bucket_sum_ms, "ms", runs.len());
    out.push("core.reduce_ms", reduce_ms, "ms", runs.len());
    out.push("core.self_ms", self_ms, "ms", x.execute_s.len());
    out.push(
        "core.engine_over_serial",
        execute_ms / (median(x.serial_s) * 1e3),
        "ratio",
        x.serial_s.len(),
    );

    let ph = &x.report.phases;
    out.push("sim.total_s", x.report.total_s, "sim_s", 1);
    out.push("sim.scatter_s", ph.scatter_s, "sim_s", 1);
    out.push("sim.bucket_sum_s", ph.bucket_sum_s, "sim_s", 1);
    out.push("sim.bucket_reduce_s", ph.bucket_reduce_s, "sim_s", 1);
    out.push("sim.window_reduce_s", ph.window_reduce_s, "sim_s", 1);
    out.push("sim.transfer_s", ph.transfer_s, "sim_s", 1);
    let sum = |f: fn(&distmsm_gpu_sim::ThreadCost) -> f64| -> f64 {
        x.report.launches.iter().map(|l| f(&l.total)).sum()
    };
    out.push("sim.int_ops", sum(|c| c.int_ops), "count", 1);
    out.push("sim.global_atomics", sum(|c| c.global_atomics), "count", 1);
    out.push("sim.global_bytes", sum(|c| c.global_bytes), "bytes", 1);
    let (bytes, steps) = x.report.comm.as_ref().map_or((0.0, 0), |c| {
        let bytes = c.steps.iter().flat_map(|s| &s.flows).map(|f| f.bytes).sum();
        (bytes, c.steps.len())
    });
    out.push("comms.bytes", bytes, "bytes", 1);
    out.push("comms.steps", steps as f64, "count", 1);
    out.push(
        "model.host_over_sim.scatter",
        scatter_ms / 1e3 / ph.scatter_s,
        "ratio",
        runs.len(),
    );
    out.push(
        "model.host_over_sim.bucket_sum",
        bucket_sum_ms / 1e3 / ph.bucket_sum_s,
        "ratio",
        runs.len(),
    );
}
