//! `groth16`: a synthetic BN254 circuit of 2^12 constraints. Trusted
//! set-up runs in set-up; the closed loop (one caller) runs
//! `groth16::prove` then the pairing `groth16::verify`.
//!
//! It exercises what the other workloads skip — QAP/NTT, the G2 MSM over
//! Fp2, several medium MSMs, scalar multiplication (set-up) and the
//! pairing (verify) — and is where an MSM speed-up must survive being
//! diluted by NTT and other work.

use std::collections::BTreeSet;
use std::hint::black_box;

use distmsm::prelude::{Bn254G1, DistMsm, MsmInstance, MsmReport, MultiGpuSystem};
use distmsm_ec::curves::Bn254G2;
use distmsm_ec::pairing::pairing;
use distmsm_ec::sample::generator_multiples;
use distmsm_ec::{Affine, Curve};
use distmsm_ff::params::Bn254Fr;
use distmsm_ff::Fp;
use distmsm_zksnark::groth16::{prove, setup, verify};
use distmsm_zksnark::prover::Groth16Prover;
use distmsm_zksnark::qap::qap_witness;
use distmsm_zksnark::r1cs::{synthetic_circuit, Constraint, ConstraintSystem};
use rand::{rngs::StdRng, SeedableRng};

use crate::harness::{closed_loop, median, overhead_frac, Outcome, Tracer, Yardstick};
use crate::layers::{arithmetic, core_layers, same_point, serial_pippenger, CoreInputs};

type Fr = Fp<Bn254Fr, 4>;

/// Workload size.
pub struct Params {
    /// R1CS constraints.
    pub constraints: usize,
}

impl Params {
    /// The benchmarked size.
    pub const BENCH: Params = Params {
        constraints: 1 << 12,
    };
}

/// Simulated GPUs the prover's MSMs run on.
const GPUS: usize = 8;
/// Set-ups per run (`setup_s` is their median); the trusted set-up is long.
const SETUPS: usize = 3;

/// Paper Table 4 split of proof generation: MSM / NTT / other.
const PAPER_SPLIT: (f64, f64, f64) = (0.782, 0.179, 0.039);

/// Runs the workload; see the module docs.
pub fn run(p: &Params, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let set_up = |tracer: &mut Tracer| {
        let mut rng = StdRng::seed_from_u64(seed);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(p.constraints, &mut rng);
        let (keys, _) = tracer.time("zksnark.setup", |_| setup(&cs, &mut rng));
        (cs, keys)
    };
    let mut speed = Yardstick::new(tracer);
    let ((cs, (pk, vk)), first_setup_s) = tracer.time("bench.setup", set_up);
    let first_setup_s = speed.scale(tracer, first_setup_s);
    let public: Vec<Fr> = cs.assignment()[1..=cs.n_public()].to_vec();
    let system = MultiGpuSystem::dgx_a100(GPUS);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x9709_f000);
    let (mut verify_s, mut last_proof) = (Vec::new(), None);
    let times = closed_loop(
        tracer,
        &mut speed,
        (seconds, 1),
        SETUPS - 1,
        |tracer| drop(black_box(set_up(tracer))),
        |tracer, i| {
            let (proof, t) = tracer.time("zksnark.prove", |_| prove(&pk, &cs, &system, &mut rng));
            match proof {
                Ok(proof) => {
                    let (ok, t) = tracer.time("zksnark.verify", |_| verify(&vk, &public, &proof));
                    verify_s.push(t);
                    out.check(ok, || format!("proof #{i} fails pairing verification"));
                    last_proof = Some(proof);
                }
                Err(e) => out.check(false, || format!("prove #{i}: {e}")),
            }
            t
        },
    );
    if let Some(proof) = &last_proof {
        let mut wrong = public.clone();
        wrong[0] += Fr::ONE;
        out.check(!verify(&vk, &wrong, proof), || {
            "a wrong public input verified".into()
        });
    }
    out.push_loop("zksnark.prove", first_setup_s, &times, &speed, 1);
    let prove_s = &times.calls;
    if tracer.enabled() {
        // The modelled proving time: the zksnark crate's paper-model
        // prover on the same circuit and system.
        let prover = Groth16Prover::new(system.clone());
        match prover.prove(&cs) {
            Ok(m) => {
                out.check(prover.verify(&m), || {
                    "modelled prover's proof fails its check".into()
                });
                out.push("zksnark.sim_prove_s", m.timing.total(), "sim_s", 1);
            }
            Err(e) => out.check(false, || format!("modelled prover: {e}")),
        }
        arithmetic::<Bn254G1>(tracer, &mut out, seed);
        let pairings: Vec<f64> = (0..5)
            .map(|_| {
                tracer
                    .time("ec.pairing", |_| {
                        black_box(pairing(&Bn254G1::generator(), &Bn254G2::generator()))
                    })
                    .1
            })
            .collect();
        out.push(
            "ec.pairing_ms",
            median(&pairings) * 1e3,
            "ms",
            pairings.len(),
        );
        out.push(
            "zksnark.verify_ms",
            median(&verify_s) * 1e3,
            "ms",
            verify_s.len(),
        );
        prove_layers(tracer, &mut out, &cs, &system, seed, median(prove_s));
        out.push(
            "trace.overhead_frac",
            overhead_frac(&times.calls_ref, 1),
            "ratio",
            prove_s.len(),
        );
    }
    out
}

/// The points of a proving-key query: generator multiples standing in
/// for the (private) key's points, with the identity wherever the key's
/// point is the identity because the variable never occurs in `used`.
fn query_points<C: Curve>(gens: &[Affine<C>], used: &BTreeSet<usize>) -> Vec<Affine<C>> {
    gens.iter()
        .enumerate()
        .map(|(i, p)| {
            if used.contains(&i) {
                *p
            } else {
                Affine::identity()
            }
        })
        .collect()
}

/// Median host seconds of `engine.execute(instance)` over `reps` calls,
/// with the last report.
fn time_msm<C: Curve>(
    tracer: &mut Tracer,
    out: &mut Outcome,
    name: &'static str,
    engine: &DistMsm,
    instance: &MsmInstance<C>,
    reps: usize,
) -> (Vec<f64>, Option<MsmReport<C>>) {
    let mut times = Vec::with_capacity(reps);
    let mut report = None;
    for _ in 0..reps {
        let (r, t) = tracer.time(name, |_| engine.execute(instance));
        times.push(t);
        match r {
            Ok(r) => report = Some(r),
            Err(e) => out.check(false, || {
                format!("{name} on {} points: {e}", instance.len())
            }),
        }
    }
    (times, report)
}

/// `zksnark.*` and the `core`/`sim`/`comms`/`model` families. The
/// prover's stages are timed by calling their public functions on
/// instances shaped like the prover's five MSMs (A, B in G1 and G2, L,
/// H: same lengths, same scalars, identity points where the key has
/// them), since the proving key's query points are private.
fn prove_layers(
    tracer: &mut Tracer,
    out: &mut Outcome,
    cs: &ConstraintSystem<Bn254Fr, 4>,
    system: &MultiGpuSystem,
    seed: u64,
    prove_s: f64,
) {
    let z: Vec<_> = cs.assignment().iter().map(Fp::to_uint).collect();
    let m = z.len();
    let n_pub = cs.n_public() + 1;
    let used = |pick: fn(&Constraint<Bn254Fr, 4>) -> &Vec<(usize, Fr)>| -> BTreeSet<usize> {
        cs.constraints()
            .iter()
            .flat_map(|c| pick(c).iter().map(|&(v, _)| v))
            .collect()
    };
    let (a_vars, b_vars) = (used(|c| &c.a), used(|c| &c.b));
    let g1_gens = generator_multiples::<Bn254G1>(m);
    let g2_gens = generator_multiples::<Bn254G2>(m);

    let mut qap_s = Vec::new();
    let mut qap = None;
    for _ in 0..3 {
        let (q, t) = tracer.time("zksnark.qap", |_| qap_witness(cs));
        qap_s.push(t);
        qap = Some(q);
    }
    let qap = qap.expect("three QAP runs");
    let h_scalars: Vec<_> = qap
        .h
        .iter()
        .take(qap.domain.size() - 1)
        .map(Fp::to_uint)
        .collect();

    let a = MsmInstance {
        points: query_points(&g1_gens, &a_vars),
        scalars: z.clone(),
    };
    let b1 = MsmInstance {
        points: query_points(&g1_gens, &b_vars),
        scalars: z.clone(),
    };
    let b2 = MsmInstance {
        points: query_points(&g2_gens, &b_vars),
        scalars: z.clone(),
    };
    let l = MsmInstance {
        points: g1_gens[n_pub..].to_vec(),
        scalars: z[n_pub..].to_vec(),
    };
    let h = MsmInstance {
        points: g1_gens[..h_scalars.len()].to_vec(),
        scalars: h_scalars,
    };
    let engine = DistMsm::new(system.clone());
    let (a_s, _) = time_msm(tracer, out, "zksnark.msm_g1", &engine, &a, 3);
    let (b1_s, _) = time_msm(tracer, out, "zksnark.msm_g1", &engine, &b1, 3);
    let (b2_s, _) = time_msm(tracer, out, "zksnark.msm_g2", &engine, &b2, 3);
    let (l_s, _) = time_msm(tracer, out, "zksnark.msm_g1", &engine, &l, 3);
    let (h_s, h_report) = time_msm(tracer, out, "zksnark.msm_g1", &engine, &h, 3);

    let (reference, t) = tracer.time("bench.serial_pippenger", |_| serial_pippenger(&h));
    if let Some(report) = &h_report {
        out.check(same_point(&report.result, &reference), || {
            "the H-query MSM differs from the serial reference".into()
        });
        core_layers(
            tracer,
            out,
            &CoreInputs {
                engine: &engine,
                instance: &h,
                reference: &reference,
                report,
                execute_s: &h_s,
                serial_s: &[t],
            },
        );
    }

    let d = qap.domain.size();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0e77);
    let data: Vec<Fr> = (0..d).map(|_| Fr::random(&mut rng)).collect();
    let ntt_s: Vec<f64> = (0..5)
        .map(|_| {
            let mut v = data.clone();
            tracer
                .time("zksnark.ntt", |_| qap.domain.forward(black_box(&mut v)))
                .1
        })
        .collect();

    let msm_ms = [&a_s, &b1_s, &b2_s, &l_s, &h_s]
        .iter()
        .map(|s| median(s))
        .sum::<f64>()
        * 1e3;
    let prove_ms = prove_s * 1e3;
    let msm_share = msm_ms / prove_ms;
    let ntt_share = f64::from(qap.ntt_count) * median(&ntt_s) * 1e3 / prove_ms;
    out.push("zksnark.qap_ms", median(&qap_s) * 1e3, "ms", qap_s.len());
    out.push("zksnark.ntt_ms", median(&ntt_s) * 1e3, "ms", ntt_s.len());
    out.push("zksnark.msm_g1_ms", median(&a_s) * 1e3, "ms", a_s.len());
    out.push("zksnark.msm_g2_ms", median(&b2_s) * 1e3, "ms", b2_s.len());
    out.push("zksnark.msm_share", msm_share, "ratio", a_s.len());
    out.push("zksnark.ntt_share", ntt_share, "ratio", ntt_s.len());
    out.push(
        "zksnark.other_share",
        1.0 - msm_share - ntt_share,
        "ratio",
        1,
    );
    out.notes.push(format!(
        "prove split msm/ntt/other = {:.1}/{:.1}/{:.1} % of {prove_ms:.1} ms \
         (paper Table 4: {:.1}/{:.1}/{:.1} %)",
        100.0 * msm_share,
        100.0 * ntt_share,
        100.0 * (1.0 - msm_share - ntt_share),
        100.0 * PAPER_SPLIT.0,
        100.0 * PAPER_SPLIT.1,
        100.0 * PAPER_SPLIT.2,
    ));
}
