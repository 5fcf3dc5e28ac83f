//! Precomputation tables (§2.3.1).
//!
//! For a fixed point vector, values `2^{js}·Pᵢ` are precomputed so the
//! point for window `j` can be taken from the table instead of being
//! shifted at runtime — "elliptic curve points from two different windows
//! (can) be directly summed using a single PADD". With the tables in
//! place, bucket-reduce and window-reduce commute (§3.1): all windows'
//! buckets can be merged into one set before reduction, which the merged
//! MSM below exploits.
//!
//! The table trades memory (`N·⌈λ/s⌉` points) for the elimination of the
//! per-window doubling chain — exactly the trade real fixed-base MSM
//! deployments make, since the point vector is reused across proofs.

use crate::reduce::bucket_reduce_serial;
use distmsm_ec::{Affine, Curve, Scalar, XyzzPoint};

/// Precomputed window-shifted copies of a point vector.
#[derive(Clone, Debug)]
pub struct PrecomputeTable<C: Curve> {
    /// `table[j][i] = 2^{js}·points[i]`.
    windows: Vec<Vec<Affine<C>>>,
    window_size: u32,
}

impl<C: Curve> PrecomputeTable<C> {
    /// Builds the table for `points` at window size `s` (one batched
    /// normalisation per window).
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn build(points: &[Affine<C>], s: u32) -> Self {
        assert!(s > 0, "window size must be positive");
        let n_windows = C::SCALAR_BITS.div_ceil(s) + 1; // +1 for signed spill
        let mut windows = Vec::with_capacity(n_windows as usize);
        windows.push(points.to_vec());
        let mut current: Vec<XyzzPoint<C>> = points.iter().map(Affine::to_xyzz).collect();
        for _ in 1..n_windows {
            for p in &mut current {
                for _ in 0..s {
                    *p = p.pdbl();
                }
            }
            windows.push(XyzzPoint::batch_to_affine(&current));
        }
        Self {
            windows,
            window_size: s,
        }
    }

    /// The window size the table was built for.
    pub fn window_size(&self) -> u32 {
        self.window_size
    }

    /// Number of windows (including the signed-digit spill window).
    pub fn n_windows(&self) -> usize {
        self.windows.len()
    }

    /// Number of base points.
    pub fn n_points(&self) -> usize {
        self.windows.first().map_or(0, Vec::len)
    }

    /// `2^{js}·points[i]`.
    pub fn point(&self, window: usize, i: usize) -> &Affine<C> {
        &self.windows[window][i]
    }

    /// Memory footprint in points (the cost the paper's precomputation
    /// discussion weighs).
    pub fn table_points(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }
}

/// MSM over a precomputed table with **merged windows**: every
/// `(window, point)` pair scatters into a single shared set of `2^s`
/// buckets; one bucket-reduce replaces `⌈λ/s⌉` of them and the
/// window-reduce disappears entirely.
pub fn msm_precomputed<C: Curve>(
    table: &PrecomputeTable<C>,
    scalars: &[C::Scalar],
) -> XyzzPoint<C> {
    assert_eq!(scalars.len(), table.n_points(), "scalar count mismatch");
    let s = table.window_size;
    let n_windows = C::SCALAR_BITS.div_ceil(s) as usize;
    let n_buckets = 1usize << s;
    let mut buckets = vec![XyzzPoint::<C>::identity(); n_buckets];
    for (i, k) in scalars.iter().enumerate() {
        for w in 0..n_windows {
            let m = k.window(w as u32 * s, s) as usize;
            if m != 0 {
                buckets[m].pacc(table.point(w, i));
            }
        }
    }
    bucket_reduce_serial(&buckets[1..], 1).0
}

/// Point-operation counts with and without precomputation, for the
/// ablation bench: precomputation removes the `λ` doubling chain and all
/// but one bucket-reduce.
pub fn op_savings(n: u64, lambda: u32, s: u32) -> (u64, u64) {
    let n_windows = u64::from(lambda.div_ceil(s));
    let buckets = 1u64 << s;
    let plain = n_windows * (n + 2 * buckets) + u64::from(lambda);
    let merged = n_windows * n + 2 * buckets;
    (plain, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::{Bls12381G1, Bn254G1};
    use distmsm_ec::MsmInstance;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn table_entries_are_shifted_points() {
        let mut rng = StdRng::seed_from_u64(600);
        let inst = MsmInstance::<Bn254G1>::random(4, &mut rng);
        let s = 8;
        let table = PrecomputeTable::build(&inst.points, s);
        for (i, p) in inst.points.iter().enumerate() {
            // window 1 entry should be 2^s · P
            let mut expect = p.to_xyzz();
            for _ in 0..s {
                expect = expect.pdbl();
            }
            assert_eq!(expect.to_affine(), *table.point(1, i));
        }
    }

    #[test]
    fn merged_msm_matches_reference() {
        let mut rng = StdRng::seed_from_u64(601);
        let inst = MsmInstance::<Bn254G1>::random(64, &mut rng);
        let table = PrecomputeTable::build(&inst.points, 7);
        let got = msm_precomputed(&table, &inst.scalars);
        assert_eq!(got, inst.reference_result());
    }

    #[test]
    fn merged_msm_other_curve_and_windows() {
        let mut rng = StdRng::seed_from_u64(602);
        let inst = MsmInstance::<Bls12381G1>::random(32, &mut rng);
        for s in [5u32, 9, 13] {
            let table = PrecomputeTable::build(&inst.points, s);
            assert_eq!(
                msm_precomputed(&table, &inst.scalars),
                inst.reference_result(),
                "s={s}"
            );
        }
    }

    #[test]
    fn table_size_accounting() {
        let mut rng = StdRng::seed_from_u64(603);
        let inst = MsmInstance::<Bn254G1>::random(10, &mut rng);
        let table = PrecomputeTable::build(&inst.points, 16);
        // ⌈254/16⌉ + 1 = 17 windows of 10 points
        assert_eq!(table.n_windows(), 17);
        assert_eq!(table.table_points(), 170);
    }

    #[test]
    fn op_savings_shape() {
        let (plain, merged) = op_savings(1 << 20, 254, 11);
        assert!(merged < plain);
        // merged removes (n_windows − 1) bucket-reduces + the doubling chain
        assert!(plain - merged > 22 * (1 << 11));
    }
}
