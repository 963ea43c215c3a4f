//! Fused similarity kernels for the vector hot path.
//!
//! Every evidence-discovery path — flat scan, HNSW build/search, ColBERT
//! MaxSim, the dense terms of the tuple/table rerankers — bottoms out in a
//! dot product over `f32` slices. The kernels here make that flop-minimal:
//!
//! * [`dot`] accumulates in **eight independent lanes**, eight floats per
//!   step, with a scalar tail. On x86_64 the lanes are two SSE registers
//!   ([`dot_sse2`]: explicit intrinsics, SSE2 being baseline there);
//!   elsewhere they are an array ([`dot_portable`]). The portable loop is
//!   *not* left to the autovectorizer on x86_64: LLVM's SLP pass takes its
//!   lane layout from the pairwise reduction tree and re-shuffles every
//!   chunk to keep it — a dozen shuffles around four multiplies (DESIGN.md
//!   §21).
//! * [`dot_many`] is [`dot`] of several queries against one row, four
//!   queries sharing each load of the row ([`dot_many_sse2`], twin
//!   [`dot_many_portable`]): ColBERT's MaxSim columns. Every output has the
//!   bits [`dot`] gives that pair.
//! * [`dot_scalar`] is the strict-order reference the property tests
//!   compare against. What the kernels cost inside a request is measured
//!   by `benchmark/run.sh` (`index.vector_us`, `rerank.*_us`).
//! * [`norm`] is a fused self-dot + sqrt using the same lanes.
//!
//! Determinism: lane `i` sums the products at indices `i, i + 8, …`, each a
//! separately rounded multiply then add (never a fused multiply-add), and
//! the lane-summation order is **fixed** (pairwise over the eight
//! accumulators, then the tail), so results are bit-identical across runs,
//! code paths and machines with IEEE-754 `f32` — [`dot_sse2`] and
//! [`dot_portable`] are tested equal bit for bit. The lane sum *differs*
//! from the strict left-to-right scalar sum by ordinary float
//! reassociation error — ulp-scale, bounded by the property tests in this
//! module.

/// Chunked 8-lane dot product with a scalar tail: [`dot_sse2`] on x86_64,
/// [`dot_portable`] elsewhere, the same bits from both.
///
/// Panics in debug builds on length mismatch (mirrors [`crate::Vector::dot`]).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        dot_sse2(a, b)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot_portable(a, b)
    }
}

/// SSE2 dot over the first `min(a.len(), b.len())` elements: lanes 0–3 and
/// 4–7 live in two `__m128` accumulators, each step is `_mm_mul_ps` then
/// `_mm_add_ps` on unaligned loads, and the lanes are stored and reduced by
/// the same expression as [`dot_portable`].
#[cfg(target_arch = "x86_64")]
pub fn dot_sse2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len().min(b.len());
    let chunks = n / 8;
    let mut lanes = [0.0f32; 8];
    // SAFETY: `loadu` / `storeu` have no alignment requirement; every
    // 4-float read at `pa.add(i * 8)` / `pa.add(i * 8 + 4)` (and `pb`) for
    // `i < chunks` ends at or before element `chunks * 8 <= n`, inside both
    // slices; the two stores cover exactly the eight floats of `lanes`. The
    // tail below is handled in safe code.
    unsafe {
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut lo = _mm_setzero_ps();
        let mut hi = _mm_setzero_ps();
        for i in 0..chunks {
            let at = i * 8;
            let xa = _mm_loadu_ps(pa.add(at));
            let xb = _mm_loadu_ps(pb.add(at));
            lo = _mm_add_ps(lo, _mm_mul_ps(xa, xb));
            let ya = _mm_loadu_ps(pa.add(at + 4));
            let yb = _mm_loadu_ps(pb.add(at + 4));
            hi = _mm_add_ps(hi, _mm_mul_ps(ya, yb));
        }
        _mm_storeu_ps(lanes.as_mut_ptr(), lo);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), hi);
    }
    reduce(lanes, &a[chunks * 8..n], &b[chunks * 8..n])
}

/// Portable dot over the first `min(a.len(), b.len())` elements: the path
/// off x86_64 and the twin [`dot_sse2`] is tested against.
pub fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let mut lanes = [0.0f32; 8];
    let mut ca = a[..n].chunks_exact(8);
    let mut cb = b[..n].chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for i in 0..8 {
            lanes[i] += xa[i] * xb[i];
        }
    }
    reduce(lanes, ca.remainder(), cb.remainder())
}

/// Several dots against one row: `out[q]` is [`dot`] of query `q` — the
/// `q`-th run of `row.len()` floats of the row-major block `queries` — and
/// `row`, bit for bit: [`dot_many_sse2`] on x86_64, [`dot_many_portable`]
/// elsewhere. This is how one evidence token's column of similarities
/// against every query token is computed in one pass over its row.
///
/// Panics unless `queries` holds exactly `out.len()` rows of `row.len()`.
#[inline]
pub fn dot_many(queries: &[f32], row: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        dot_many_sse2(queries, row, out)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot_many_portable(queries, row, out)
    }
}

/// SSE2 [`dot_many`]: four queries at a time share each 8-float chunk of
/// `row`, loaded once, in eight `__m128` accumulators — query `k`'s lanes
/// 0–3 and 4–7, each step a `_mm_mul_ps` then an `_mm_add_ps` exactly as in
/// [`dot_sse2`]. The four queries' lanes are then reduced side by side: a
/// 4×4 transpose puts lane `i` of every query in one register, so
/// [`reduce`]'s expression — ((0+1)+(2+3))+((4+5)+(6+7)), then plus the
/// tail — runs once for all four, each output taking exactly the additions
/// [`dot`] makes, in the same order. Queries past the last block of four
/// take [`dot_sse2`] itself.
#[cfg(target_arch = "x86_64")]
pub fn dot_many_sse2(queries: &[f32], row: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let dim = row.len();
    assert_eq!(
        queries.len(),
        out.len() * dim,
        "queries are not out.len() rows"
    );
    let chunks = dim / 8;
    let done = out.len() / 4 * 4;
    let mut blocks = out.chunks_exact_mut(4);
    for (block, out) in (&mut blocks).enumerate() {
        let block_queries = &queries[block * 4 * dim..(block + 1) * 4 * dim];
        // Each query's tail, summed as `reduce` sums it.
        let tails: [f32; 4] = std::array::from_fn(|k| {
            let query = &block_queries[k * dim..(k + 1) * dim];
            let mut tail = 0.0f32;
            for (xa, xb) in query[chunks * 8..].iter().zip(&row[chunks * 8..]) {
                tail += xa * xb;
            }
            tail
        });
        // SAFETY: `loadu` / `storeu` have no alignment requirement. Every
        // 4-float read of `pr` at `at` or `at + 4` for `at = i * 8`,
        // `i < chunks`, ends at or before `chunks * 8 <= dim`, inside `row`;
        // every read of `pq` at `k * dim + at` (+ 4) for `k < 4` ends at or
        // before `k * dim + chunks * 8 <= 4 * dim`, inside `block_queries`.
        // The read of `tails` and the store to `out` cover exactly their
        // four floats (`out` is a chunk of exactly four).
        unsafe {
            let pr = row.as_ptr();
            let pq = block_queries.as_ptr();
            let mut lo = [_mm_setzero_ps(); 4];
            let mut hi = [_mm_setzero_ps(); 4];
            for i in 0..chunks {
                let at = i * 8;
                let rl = _mm_loadu_ps(pr.add(at));
                let rh = _mm_loadu_ps(pr.add(at + 4));
                for k in 0..4 {
                    let q = pq.add(k * dim + at);
                    lo[k] = _mm_add_ps(lo[k], _mm_mul_ps(_mm_loadu_ps(q), rl));
                    hi[k] = _mm_add_ps(hi[k], _mm_mul_ps(_mm_loadu_ps(q.add(4)), rh));
                }
            }
            // Per query, ((l0 + l1) + (l2 + l3)) over four lanes, for four
            // queries at once.
            let pairwise = |r: [__m128; 4]| {
                let (a, b) = (_mm_unpacklo_ps(r[0], r[1]), _mm_unpacklo_ps(r[2], r[3]));
                let (c, d) = (_mm_unpackhi_ps(r[0], r[1]), _mm_unpackhi_ps(r[2], r[3]));
                let (lane0, lane1) = (_mm_movelh_ps(a, b), _mm_movehl_ps(b, a));
                let (lane2, lane3) = (_mm_movelh_ps(c, d), _mm_movehl_ps(d, c));
                _mm_add_ps(_mm_add_ps(lane0, lane1), _mm_add_ps(lane2, lane3))
            };
            let head = _mm_add_ps(pairwise(lo), pairwise(hi));
            let sums = _mm_add_ps(head, _mm_loadu_ps(tails.as_ptr()));
            _mm_storeu_ps(out.as_mut_ptr(), sums);
        }
    }
    for (q, slot) in blocks.into_remainder().iter_mut().enumerate() {
        let query = &queries[(done + q) * dim..(done + q + 1) * dim];
        *slot = dot_sse2(query, row);
    }
}

/// Portable [`dot_many`]: [`dot_portable`] once per query — the path off
/// x86_64 and the twin [`dot_many_sse2`] is tested against.
pub fn dot_many_portable(queries: &[f32], row: &[f32], out: &mut [f32]) {
    let dim = row.len();
    assert_eq!(
        queries.len(),
        out.len() * dim,
        "queries are not out.len() rows"
    );
    for (q, slot) in out.iter_mut().enumerate() {
        *slot = dot_portable(&queries[q * dim..(q + 1) * dim], row);
    }
}

/// Ask the cache for the lines of `data` ahead of a read that would
/// otherwise miss — the next rows of a gather from a large slab, the next
/// candidates' prepared records. A hint only: nothing is read, and results
/// never depend on it. A no-op off x86_64.
#[inline]
pub fn prefetch<T>(data: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let base = data.as_ptr().cast::<i8>();
        for at in (0..std::mem::size_of_val(data)).step_by(LINE) {
            // SAFETY: a prefetch is a hint that never faults and reads or
            // writes nothing the program can observe; the address is inside
            // `data` anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(at)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = data;
    }
}

/// Fixed pairwise reduction: ((0+1)+(2+3))+((4+5)+(6+7)), then the tail in
/// index order. This order is part of the determinism contract.
#[inline]
fn reduce(lanes: [f32; 8], tail_a: &[f32], tail_b: &[f32]) -> f32 {
    let head = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    let mut tail = 0.0f32;
    for (xa, xb) in tail_a.iter().zip(tail_b) {
        tail += xa * xb;
    }
    head + tail
}

/// Strict left-to-right scalar dot product: the reference implementation
/// the chunked kernel is property-tested against.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm via the chunked self-dot.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// The norm to divide `a` by to make it unit length; `None` when it
/// already is within float tolerance, or is the zero vector.
#[inline]
pub fn unit_scale(a: &[f32]) -> Option<f32> {
    let n = norm(a);
    (n > 0.0 && (n - 1.0).abs() > f32::EPSILON).then_some(n)
}

/// Scale `a` to unit length in place (no-op when [`unit_scale`] is `None`).
pub fn normalize(a: &mut [f32]) {
    if let Some(n) = unit_scale(a) {
        for x in a {
            *x /= n;
        }
    }
}

/// Dot product of two **unit (or zero) vectors**, i.e. their cosine
/// similarity with zero normalization work. The unit-norm invariant is the
/// caller's responsibility: the vector indexes enforce it on `add`/load,
/// the embedders by construction (both are property-tested). Debug builds
/// check it.
#[inline]
pub fn dot_unit(a: &[f32], b: &[f32]) -> f32 {
    debug_assert!(
        is_unit_or_zero(a),
        "dot_unit: lhs norm {} not unit",
        norm(a)
    );
    debug_assert!(
        is_unit_or_zero(b),
        "dot_unit: rhs norm {} not unit",
        norm(b)
    );
    dot(a, b)
}

/// True when the slice has norm 0 or 1 within a loose float tolerance.
pub fn is_unit_or_zero(a: &[f32]) -> bool {
    let n = norm(a);
    n == 0.0 || (n - 1.0).abs() < 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_scalar_on_small_inputs() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(dot_scalar(&a, &b), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_covers_exact_multiple_of_lane_width() {
        let a: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let expected: f32 = a.iter().map(|x| x * x).sum();
        assert!((dot(&a, &a) - expected).abs() < 1e-3);
    }

    #[test]
    fn norm_is_fused_self_dot() {
        let a = [3.0, 4.0];
        assert_eq!(norm(&a), 5.0);
        assert_eq!(norm(&[]), 0.0);
    }

    #[test]
    fn unit_check() {
        assert!(is_unit_or_zero(&[0.0, 0.0]));
        assert!(is_unit_or_zero(&[0.6, 0.8]));
        assert!(!is_unit_or_zero(&[1.0, 1.0]));
    }

    type Kernel = fn(&[f32], &[f32]) -> f32;

    /// Every implementation this build has, by name.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all: Vec<(&'static str, Kernel)> =
            vec![("dot", dot), ("dot_portable", dot_portable)];
        #[cfg(target_arch = "x86_64")]
        all.push(("dot_sse2", dot_sse2));
        all
    }

    /// Three results worked out by hand from the contract — lane `i` sums
    /// indices `i, i + 8, …`; reduce ((0+1)+(2+3))+((4+5)+(6+7)); the tail
    /// is summed on its own and added last; multiply and add round
    /// separately. `f32` spacing is 2 at 2^24, so a lone `+ 1` there is
    /// lost and a `+ 2` is not; any other order or a fused multiply-add
    /// lands on different bits.
    #[test]
    fn lane_order_is_pinned_by_hand_computed_bits() {
        let big = 4096.0f32; // big * big = 2^24

        // Lanes [2^24, 0, 0, 0, 1, 1, 0, 0]: (4+5) = 2 survives the add to
        // 2^24. Summing lane 0 with lane 4 first, or left to right, loses
        // both ones and gives 2^24.
        let pairing = [big, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0];

        // One chunk with lane 0 = 2^24, then the tail 1, 1, 2 = 4, added as
        // one value: 2^24 + 4. Folding the tail into the head one element
        // at a time loses the ones: 2^24 + 2.
        let mut tail_a = [0.0f32; 11];
        let mut tail_b = [0.0f32; 11];
        (tail_a[0], tail_b[0]) = (big, big);
        tail_a[8..].copy_from_slice(&[1.0, 1.0, 2.0]);
        tail_b[8..].copy_from_slice(&[1.0, 1.0, 1.0]);

        // Lane 0 over two chunks: -(1 + 2^-11), then x * x for
        // x = 1 + 2^-12. Exactly x * x = 1 + 2^-11 + 2^-24, which rounds to
        // 1 + 2^-11 (tie to even), so lane 0 ends at 0 and the result is
        // lane 1's 2^-12 * 2^-12 = 2^-24. A fused multiply-add keeps the
        // 2^-24 in lane 0 and returns 2^-23.
        let x = 1.0 + 2.0f32.powi(-12);
        let tiny = 2.0f32.powi(-12);
        let mut fma_a = [0.0f32; 16];
        let mut fma_b = [0.0f32; 16];
        (fma_a[0], fma_b[0]) = (-(1.0 + 2.0f32.powi(-11)), 1.0);
        (fma_a[1], fma_b[1]) = (tiny, tiny);
        (fma_a[8], fma_b[8]) = (x, x);

        for (name, kernel) in kernels() {
            assert_eq!(kernel(&pairing, &pairing).to_bits(), 0x4b80_0001, "{name}");
            assert_eq!(kernel(&tail_a, &tail_b).to_bits(), 0x4b80_0002, "{name}");
            assert_eq!(kernel(&fma_a, &fma_b).to_bits(), 0x3380_0000, "{name}");
        }
    }

    /// Bits, except that any NaN equals any NaN: IEEE-754 leaves the
    /// payload of an operation on two NaNs to the implementation.
    #[cfg(target_arch = "x86_64")]
    fn same_bits(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[cfg(target_arch = "x86_64")]
    fn assert_twins_agree(a: &[f32], b: &[f32], what: &str) {
        let (fast, slow) = (dot_sse2(a, b), dot_portable(a, b));
        assert!(
            same_bits(fast, slow),
            "{what}: sse2 {fast:e} ({:#010x}) vs portable {slow:e} ({:#010x})",
            fast.to_bits(),
            slow.to_bits()
        );
    }

    /// The `unsafe` kernel against its safe twin, bit for bit: every tail
    /// length, every load alignment, unequal operands, and the values
    /// where float arithmetic stops being ordinary.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_matches_portable_bit_for_bit() {
        let gen = |salt: u64, i: usize| {
            let h = crate::hashing::splitmix64(salt ^ ((i as u64) << 8));
            (crate::hashing::unit_float(h) * 2.0 - 1.0) as f32
        };
        let a: Vec<f32> = (0..536).map(|i| gen(0x0a, i)).collect();
        let b: Vec<f32> = (0..536).map(|i| gen(0x0b, i)).collect();
        for dim in 0..=520 {
            assert_twins_agree(&a[..dim], &b[..dim], &format!("dim {dim}"));
        }
        // Sub-slices at every offset: no load is 16-byte aligned by luck.
        for off_a in 0..8 {
            for off_b in 0..8 {
                for dim in [0, 1, 7, 8, 9, 64, 67, 128, 131] {
                    assert_twins_agree(
                        &a[off_a..off_a + dim],
                        &b[off_b..off_b + dim],
                        &format!("offsets {off_a}/{off_b} dim {dim}"),
                    );
                }
            }
        }
        // Unequal lengths: both read the common prefix and nothing else.
        for (la, lb) in [(17, 9), (9, 17), (128, 3), (0, 40), (24, 16), (16, 31)] {
            assert_twins_agree(&a[..la], &b[..lb], &format!("lengths {la}/{lb}"));
            let common = la.min(lb);
            assert_eq!(
                dot_sse2(&a[..la], &b[..lb]).to_bits(),
                dot_sse2(&a[..common], &b[..common]).to_bits(),
                "lengths {la}/{lb} read past the common prefix"
            );
        }
        // Adversarial values in every lane and in the tail.
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),            // smallest subnormal
            -f32::from_bits(0x007f_ffff), // largest subnormal
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0,
            -1.0,
        ];
        for dim in [8usize, 11, 16, 21] {
            for (si, &s) in specials.iter().enumerate() {
                for (ti, &t) in specials.iter().enumerate() {
                    for pos in 0..dim {
                        let mut xa: Vec<f32> = a[..dim].to_vec();
                        let mut xb: Vec<f32> = b[..dim].to_vec();
                        xa[pos] = s;
                        xb[(pos + 8) % dim] = t;
                        xb[pos] = t;
                        assert_twins_agree(&xa, &xb, &format!("special {si}x{ti} at {pos}/{dim}"));
                    }
                }
            }
            // All-special operands: signed zeros and subnormals only.
            let za: Vec<f32> = (0..dim).map(|i| specials[i % 6]).collect();
            let zb: Vec<f32> = (0..dim).map(|i| specials[(i * 5 + 1) % 6]).collect();
            assert_twins_agree(&za, &zb, &format!("zeros and subnormals dim {dim}"));
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Satellite contract: the chunked kernel agrees with the strict
        /// scalar reference within ulp-scale reassociation error across
        /// dims 1..512, including non-multiple-of-8 tails.
        #[test]
        fn chunked_dot_matches_scalar_reference(
            dim in 1usize..512,
            seed in 0u64..1_000,
        ) {
            // Deterministic pseudo-random components in [-1, 1).
            let gen = |salt: u64, i: usize| {
                let h = crate::hashing::splitmix64(seed ^ salt ^ (i as u64) << 8);
                (crate::hashing::unit_float(h) * 2.0 - 1.0) as f32
            };
            let a: Vec<f32> = (0..dim).map(|i| gen(0x0a, i)).collect();
            let b: Vec<f32> = (0..dim).map(|i| gen(0x0b, i)).collect();
            let fast = dot(&a, &b);
            let slow = dot_scalar(&a, &b);
            // Reassociating at most `dim` additions of products bounded by 1
            // moves the sum by O(dim * eps) in the worst case.
            let tol = 1e-6 * (dim as f32) + 1e-6;
            prop_assert!(
                (fast - slow).abs() <= tol,
                "dim {}: chunked {} vs scalar {} (tol {})", dim, fast, slow, tol
            );
        }

        /// Every output of the multi-query kernel, SSE2 and portable, has
        /// the bits of `dot` on its (query, row) pair: any dimension up to
        /// 300 (every tail length, and none), zero to nine queries (whole
        /// blocks of four, remainders, nothing), a row and queries cut at
        /// arbitrary offsets of one buffer, so no load is aligned by luck,
        /// and with `specials` set, one value in eight a signed zero, a
        /// subnormal, a huge value or an infinity (any NaN equals any NaN,
        /// as IEEE-754 leaves its payload open).
        #[test]
        fn multi_query_kernel_equals_dot_bit_for_bit(
            dim in 0usize..301,
            queries in 0usize..10,
            offset in 0usize..8,
            seed in 0u64..1_000,
            specials in any::<bool>(),
        ) {
            const SPECIALS: [f32; 8] = [
                0.0,
                -0.0,
                f32::MIN_POSITIVE,
                -f32::from_bits(1),
                f32::MAX,
                -1.0e30,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ];
            let gen = |i: usize| {
                let h = crate::hashing::splitmix64(seed ^ (i as u64) << 8);
                if specials && h.is_multiple_of(8) {
                    SPECIALS[(h >> 8) as usize % SPECIALS.len()]
                } else {
                    (crate::hashing::unit_float(h) * 2.0 - 1.0) as f32
                }
            };
            let bits = |xs: &[f32]| -> Vec<u32> {
                xs.iter().map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() }).collect()
            };
            let buffer: Vec<f32> = (0..offset + (queries + 1) * dim).map(gen).collect();
            let block = &buffer[offset..offset + queries * dim];
            let row = &buffer[offset + queries * dim..];
            let want: Vec<f32> = (0..queries)
                .map(|q| dot(&block[q * dim..(q + 1) * dim], row))
                .collect();
            let mut out = vec![0.5; queries];
            dot_many(block, row, &mut out);
            prop_assert_eq!(bits(&out), bits(&want));
            let mut out = vec![0.5; queries];
            dot_many_portable(block, row, &mut out);
            prop_assert_eq!(bits(&out), bits(&want));
            #[cfg(target_arch = "x86_64")]
            {
                let mut out = vec![0.5; queries];
                dot_many_sse2(block, row, &mut out);
                prop_assert_eq!(bits(&out), bits(&want));
            }
        }

        /// The tail path alone (dims 1..8) is exactly the scalar sum.
        #[test]
        fn pure_tail_is_exact(dim in 1usize..8, seed in 0u64..1_000) {
            let gen = |salt: u64, i: usize| {
                let h = crate::hashing::splitmix64(seed ^ salt ^ (i as u64) << 8);
                (crate::hashing::unit_float(h) * 2.0 - 1.0) as f32
            };
            let a: Vec<f32> = (0..dim).map(|i| gen(0x1a, i)).collect();
            let b: Vec<f32> = (0..dim).map(|i| gen(0x1b, i)).collect();
            prop_assert_eq!(dot(&a, &b), dot_scalar(&a, &b));
        }
    }
}
