//! Property tests for the serial bucket-reduce: on all-empty, sparse and
//! dense bucket vectors, at offsets `lo ∈ {0, 1, random}`, the result is
//! `Σ (lo+i)·B_i` and the modeled op count is two per bucket plus the
//! offset correction. Dense vectors (no empty bucket) must follow the
//! textbook suffix-sum PADD sequence coordinate for coordinate.
//!
//! BN254 has `a = 0`; MNT4753 has `a ≠ 0`, so its empty-run
//! double-and-add exercises the general PDBL.

use distmsm::reduce::bucket_reduce_serial;
use distmsm_ec::curves::{Bn254G1, Mnt4753G1};
use distmsm_ec::{Curve, Scalar, XyzzPoint};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Bucket vector of `len` entries; `fill` is the chance (in percent) a
/// bucket holds a point. Points are small multiples of the generator,
/// with repeats and negations so the PADD doubling and cancellation
/// branches also run.
fn buckets<C: Curve>(len: usize, fill: u32, rng: &mut StdRng) -> Vec<XyzzPoint<C>> {
    let g = C::generator();
    (0..len)
        .map(|_| {
            if rng.random_range(0..100u32) >= fill {
                return XyzzPoint::identity();
            }
            let p = g.scalar_mul(&C::Scalar::from_u64(rng.random_range(1..8)));
            if rng.random_range(0..4) == 0 {
                p.neg()
            } else {
                p
            }
        })
        .collect()
}

/// The textbook suffix-sum loop, one PADD pair per bucket, then the
/// `(lo - 1)·ΣB_i` offset correction by scalar multiplication.
fn textbook<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> XyzzPoint<C> {
    let mut running = XyzzPoint::<C>::identity();
    let mut acc = XyzzPoint::<C>::identity();
    for b in sums.iter().rev() {
        running = running.padd(b);
        acc = acc.padd(&running);
    }
    let correction = i64::from(lo) - 1;
    if correction != 0 {
        let scaled = running.scalar_mul(&C::Scalar::from_u64(correction.unsigned_abs()));
        acc = acc.padd(&if correction < 0 { scaled.neg() } else { scaled });
    }
    acc
}

fn modeled_ops(len: usize, lo: u32) -> u64 {
    let c = (i64::from(lo) - 1).unsigned_abs();
    let correction = if c == 0 { 0 } else { 2 * u64::from(u64::BITS - c.leading_zeros()) + 1 };
    if len == 0 {
        0
    } else {
        2 * len as u64 + correction
    }
}

fn check<C: Curve>(seed: u64, len: usize, fill_mode: u32, lo_mode: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let fill = match fill_mode {
        0 => 0,
        1 => rng.random_range(5..40),
        _ => 100,
    };
    let lo = match lo_mode {
        0 => 0,
        1 => 1,
        _ => rng.random::<u32>(),
    };
    let sums = buckets::<C>(len, fill, &mut rng);
    let (got, ops) = bucket_reduce_serial(&sums, lo);

    let expect = sums
        .iter()
        .enumerate()
        .map(|(i, b)| b.scalar_mul(&C::Scalar::from_u64(u64::from(lo) + i as u64)))
        .fold(XyzzPoint::identity(), |acc, t| acc.padd(&t));
    let ctx = format!("{} seed={seed} len={len} fill={fill}% lo={lo}", C::NAME);
    assert_eq!(got, expect, "{ctx}: wrong reduce");
    assert_eq!(ops, modeled_ops(len, lo), "{ctx}: modeled ops moved");
    if fill == 100 && len > 0 {
        // no empty bucket: the textbook PADD sequence, coordinate for
        // coordinate
        let want = textbook(&sums, lo);
        assert!(
            got.x == want.x && got.y == want.y && got.zz == want.zz && got.zzz == want.zzz,
            "{ctx}: dense reduce left the textbook PADD sequence"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bn254_reduce_matches_scalar_mul(
        seed in any::<u64>(), len in 0usize..40, fill in 0u32..3, lo in 0u32..3
    ) {
        check::<Bn254G1>(seed, len, fill, lo);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    #[test]
    fn mnt4753_reduce_matches_scalar_mul(
        seed in any::<u64>(), len in 0usize..12, fill in 0u32..3, lo in 0u32..3
    ) {
        check::<Mnt4753G1>(seed, len, fill, lo);
    }
}

#[test]
fn every_fill_and_offset_mode_is_covered() {
    for fill in 0..3 {
        for lo in 0..3 {
            check::<Bn254G1>(u64::from(fill * 3 + lo), 17, fill, lo);
            check::<Mnt4753G1>(u64::from(fill * 3 + lo), 6, fill, lo);
        }
    }
}
