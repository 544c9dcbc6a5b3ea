//! Image ↔ oversampled-grid geometry.
//!
//! The image has extent `N` per dimension with *centered* logical indices
//! `n ∈ [−N/2, N/2)`; the oversampled Cartesian grid has extent `M = α·N`.
//! The image is embedded into the grid at wrapped positions
//! `(n mod M)` — negative indices land at the top of the grid — which makes
//! the unnormalized FFT of the grid exactly the centered-index DTFT
//! `Σ_n f[n]·e^{-2πi n·m/M}` with no phase ramps. The spectrum is centered
//! (ν = 0 at grid coordinate M/2) by folding the `(−1)^{Σ n}` "chop" into
//! the real scale array (see [`crate::scale`]).

use nufft_math::Complex32;

/// Static geometry of one NUFFT problem instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry<const D: usize> {
    /// Image extent per dimension.
    pub n: [usize; D],
    /// Oversampled grid extent per dimension.
    pub m: [usize; D],
}

impl<const D: usize> Geometry<D> {
    /// Builds the geometry for image extents `n` at oversampling `alpha`
    /// (grid extents are `round(alpha·n)`).
    ///
    /// # Panics
    /// Panics if any extent is zero, `alpha < 1`, or an oversampled extent
    /// fails to exceed its image extent.
    pub fn new(n: [usize; D], alpha: f64) -> Self {
        assert!(alpha >= 1.0, "oversampling must be ≥ 1");
        let mut m = [0usize; D];
        for d in 0..D {
            assert!(n[d] > 0, "image extent must be positive");
            m[d] = (n[d] as f64 * alpha).round() as usize;
            assert!(m[d] >= n[d], "oversampled extent must cover the image");
        }
        Geometry { n, m }
    }

    /// Total image elements.
    pub fn image_len(&self) -> usize {
        self.n.iter().product()
    }

    /// Total grid elements.
    pub fn grid_len(&self) -> usize {
        self.m.iter().product()
    }

    /// Row-major strides of the image.
    pub fn image_strides(&self) -> [usize; D] {
        strides(&self.n)
    }

    /// Row-major strides of the grid.
    pub fn grid_strides(&self) -> [usize; D] {
        strides(&self.m)
    }
}

pub(crate) fn strides<const D: usize>(ext: &[usize; D]) -> [usize; D] {
    let mut s = [1usize; D];
    for d in (0..D.saturating_sub(1)).rev() {
        s[d] = s[d + 1] * ext[d + 1];
    }
    s
}

/// Embeds the scaled image into the (pre-zeroed) oversampled grid:
/// `grid[wrap(pos − N/2)] = image[pos] · scale[pos]`.
///
/// # Panics
/// Panics on any length mismatch.
pub fn embed_scaled<const D: usize>(
    geo: &Geometry<D>,
    image: &[Complex32],
    scale: &[f32],
    grid: &mut [Complex32],
) {
    assert_eq!(image.len(), geo.image_len(), "image length mismatch");
    assert_eq!(scale.len(), geo.image_len(), "scale length mismatch");
    assert_eq!(grid.len(), geo.grid_len(), "grid length mismatch");
    let gs = geo.grid_strides();
    for_each_index(&geo.n, |flat, idx| {
        let mut g = 0usize;
        for d in 0..D {
            // Centered index n = idx − N/2, wrapped into [0, M).
            let wrapped = (idx[d] + geo.m[d] - geo.n[d] / 2) % geo.m[d];
            g += wrapped * gs[d];
        }
        grid[g] = image[flat] * scale[flat];
    });
}

/// Extracts the image region back out of the grid with the same scaling:
/// `out[pos] = grid[wrap(pos − N/2)] · scale[pos]`.
///
/// Together with [`embed_scaled`] this makes the grid-domain pipeline
/// exactly self-adjoint (the scale is real).
///
/// # Panics
/// Panics on any length mismatch.
pub fn extract_scaled<const D: usize>(
    geo: &Geometry<D>,
    grid: &[Complex32],
    scale: &[f32],
    out: &mut [Complex32],
) {
    assert_eq!(out.len(), geo.image_len(), "image length mismatch");
    assert_eq!(scale.len(), geo.image_len(), "scale length mismatch");
    assert_eq!(grid.len(), geo.grid_len(), "grid length mismatch");
    let gs = geo.grid_strides();
    for_each_index(&geo.n, |flat, idx| {
        let mut g = 0usize;
        for d in 0..D {
            let wrapped = (idx[d] + geo.m[d] - geo.n[d] / 2) % geo.m[d];
            g += wrapped * gs[d];
        }
        out[flat] = grid[g] * scale[flat];
    });
}

/// Calls `f(flat, idx)` for every row-major index of `ext`.
pub fn for_each_index<const D: usize>(ext: &[usize; D], mut f: impl FnMut(usize, [usize; D])) {
    for_each_index_range(ext, 0, ext.iter().product(), &mut f);
}

/// Calls `f(flat, idx)` for `count` consecutive row-major indices of `ext`
/// starting at flat index `lo` — the slab/chunk variant of
/// [`for_each_index`] used by fused-graph nodes that each own a contiguous
/// sub-range of the full domain.
pub fn for_each_index_range<const D: usize>(
    ext: &[usize; D],
    lo: usize,
    count: usize,
    mut f: impl FnMut(usize, [usize; D]),
) {
    let s = strides(ext);
    let mut idx = [0usize; D];
    let mut rem = lo;
    for d in 0..D {
        idx[d] = rem / s[d];
        rem %= s[d];
    }
    for flat in lo..lo + count {
        f(flat, idx);
        for d in (0..D).rev() {
            idx[d] += 1;
            if idx[d] < ext[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// The slab form of [`embed_scaled`]: fills grid elements `[lo, lo +
/// slab.len())` — *every* element, so no pre-zeroing pass is needed. Grid
/// positions outside the embedded image get zero; embedded positions get
/// the identical `image[flat] * scale[flat]` expression as [`embed_scaled`]
/// (so a slab-assembled grid is bitwise equal to a zero + embed pipeline).
///
/// Uses the inverse of the embed map: grid coordinate `g_d` holds image
/// index `r_d = (g_d + N_d/2) mod M_d` iff `r_d < N_d` (the wrap
/// `g = (r − N/2) mod M` is a bijection of `[0, M)`, and image positions
/// are exactly those whose preimage lands below `N`). Along the last axis
/// that inverse picks out two contiguous column segments per grid row —
/// `g ∈ [0, N−N/2)` holding image columns `[N/2, N)` and `g ∈ [M−N/2, M)`
/// holding `[0, N/2)` — so the slab is zero-filled at memset speed and only
/// the embedded segments (an `α^{-D}` fraction of the grid) are written
/// with stride-1 multiply loops.
pub fn embed_scaled_slab<const D: usize>(
    geo: &Geometry<D>,
    image: &[Complex32],
    scale: &[f32],
    slab: &mut [Complex32],
    lo: usize,
) {
    debug_assert!(lo + slab.len() <= geo.grid_len());
    slab.fill(Complex32::ZERO);
    if slab.is_empty() {
        return;
    }
    let is = geo.image_strides();
    let (n_last, m_last) = (geo.n[D - 1], geo.m[D - 1]);
    let hi = lo + slab.len();
    // (grid column start, segment length, image column start)
    let segs =
        [(0usize, n_last - n_last / 2, n_last / 2), (m_last - n_last / 2, n_last / 2, 0usize)];
    for row in lo / m_last..=(hi - 1) / m_last {
        // Decode the row's outer grid indices; a row whose outer preimage
        // falls outside the image stays zero.
        let mut rem = row;
        let mut base = 0usize;
        let mut inside = true;
        for d in (0..D.saturating_sub(1)).rev() {
            let r = (rem % geo.m[d] + geo.n[d] / 2) % geo.m[d];
            rem /= geo.m[d];
            if r < geo.n[d] {
                base += r * is[d];
            } else {
                inside = false;
                break;
            }
        }
        if !inside {
            continue;
        }
        let row_lo = row * m_last;
        for (g0, len, img0) in segs {
            let a = (row_lo + g0).max(lo);
            let b = (row_lo + g0 + len).min(hi);
            if a >= b {
                continue;
            }
            let img_base = base + img0 + (a - row_lo - g0);
            for (k, out) in slab[a - lo..b - lo].iter_mut().enumerate() {
                let f = img_base + k;
                *out = image[f] * scale[f];
            }
        }
    }
}

/// The chunk form of [`extract_scaled`]: writes image elements `[lo, lo +
/// out.len())` with the identical per-element expression, so chunked
/// extraction is bitwise equal to the full pass.
pub fn extract_scaled_range<const D: usize>(
    geo: &Geometry<D>,
    grid: &[Complex32],
    scale: &[f32],
    out: &mut [Complex32],
    lo: usize,
) {
    debug_assert!(lo + out.len() <= geo.image_len());
    let gs = geo.grid_strides();
    for_each_index_range(&geo.n, lo, out.len(), |flat, idx| {
        let mut g = 0usize;
        for d in 0..D {
            let wrapped = (idx[d] + geo.m[d] - geo.n[d] / 2) % geo.m[d];
            g += wrapped * gs[d];
        }
        out[flat - lo] = grid[g] * scale[flat];
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_extents_and_strides() {
        let g = Geometry::new([4, 6, 8], 2.0);
        assert_eq!(g.m, [8, 12, 16]);
        assert_eq!(g.image_len(), 192);
        assert_eq!(g.grid_len(), 1536);
        assert_eq!(g.image_strides(), [48, 8, 1]);
        assert_eq!(g.grid_strides(), [192, 16, 1]);
    }

    #[test]
    fn geometry_alpha_1_25_rounds() {
        let g = Geometry::new([240], 1.25);
        assert_eq!(g.m, [300]);
    }

    #[test]
    fn for_each_index_is_row_major() {
        let mut seen = Vec::new();
        for_each_index(&[2usize, 3], |flat, idx| seen.push((flat, idx)));
        assert_eq!(seen[0], (0, [0, 0]));
        assert_eq!(seen[1], (1, [0, 1]));
        assert_eq!(seen[3], (3, [1, 0]));
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn embed_extract_round_trip() {
        let geo = Geometry::new([4, 4], 2.0);
        let image: Vec<Complex32> =
            (0..16).map(|i| Complex32::new(i as f32, -(i as f32))).collect();
        let scale = vec![1.0f32; 16];
        let mut grid = vec![Complex32::ZERO; geo.grid_len()];
        embed_scaled(&geo, &image, &scale, &mut grid);
        // Exactly 16 nonzeros.
        assert_eq!(grid.iter().filter(|z| **z != Complex32::ZERO).count(), 15); // element 0 is 0+0i
        let mut back = vec![Complex32::ZERO; 16];
        extract_scaled(&geo, &grid, &scale, &mut back);
        assert_eq!(back, image);
    }

    #[test]
    fn embed_wraps_negative_indices_to_top() {
        // 1D: N=4, M=8. Centered indices −2..2 map to grid 6,7,0,1.
        let geo = Geometry::new([4], 2.0);
        let image = vec![
            Complex32::new(1.0, 0.0), // n = −2 -> grid 6
            Complex32::new(2.0, 0.0), // n = −1 -> grid 7
            Complex32::new(3.0, 0.0), // n =  0 -> grid 0
            Complex32::new(4.0, 0.0), // n = +1 -> grid 1
        ];
        let scale = vec![1.0f32; 4];
        let mut grid = vec![Complex32::ZERO; 8];
        embed_scaled(&geo, &image, &scale, &mut grid);
        assert_eq!(grid[6].re, 1.0);
        assert_eq!(grid[7].re, 2.0);
        assert_eq!(grid[0].re, 3.0);
        assert_eq!(grid[1].re, 4.0);
        assert_eq!(grid[2], Complex32::ZERO);
    }

    #[test]
    fn scaling_is_applied_both_ways() {
        let geo = Geometry::new([2], 2.0);
        let image = vec![Complex32::ONE, Complex32::ONE];
        let scale = vec![2.0f32, -3.0];
        let mut grid = vec![Complex32::ZERO; 4];
        embed_scaled(&geo, &image, &scale, &mut grid);
        let mut back = vec![Complex32::ZERO; 2];
        extract_scaled(&geo, &grid, &scale, &mut back);
        assert_eq!(back[0].re, 4.0);
        assert_eq!(back[1].re, 9.0);
    }

    #[test]
    fn slab_embed_matches_full_embed_bitwise() {
        let geo = Geometry::new([5, 6], 1.6);
        let image: Vec<Complex32> =
            (0..30).map(|i| Complex32::new((i as f32).sin(), (i as f32).cos())).collect();
        let scale: Vec<f32> = (0..30).map(|i| 1.0 + 0.1 * i as f32).collect();
        let mut full = vec![Complex32::new(9.0, 9.0); geo.grid_len()];
        full.fill(Complex32::ZERO);
        embed_scaled(&geo, &image, &scale, &mut full);
        // Assemble the same grid from uneven slabs over poisoned memory:
        // slab embed must overwrite every element.
        let mut slabbed = vec![Complex32::new(9.0, 9.0); geo.grid_len()];
        let mut lo = 0usize;
        for slab in [7usize, 13, 1, 40, geo.grid_len()] {
            let hi = (lo + slab).min(geo.grid_len());
            embed_scaled_slab(&geo, &image, &scale, &mut slabbed[lo..hi], lo);
            lo = hi;
        }
        for (i, (a, b)) in full.iter().zip(&slabbed).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "grid elem {i}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn range_extract_matches_full_extract_bitwise() {
        let geo = Geometry::new([4, 5], 2.0);
        let grid: Vec<Complex32> = (0..geo.grid_len())
            .map(|i| Complex32::new((i as f32 * 0.3).sin(), (i as f32 * 0.7).cos()))
            .collect();
        let scale: Vec<f32> = (0..20).map(|i| 0.5 + 0.05 * i as f32).collect();
        let mut full = vec![Complex32::ZERO; 20];
        extract_scaled(&geo, &grid, &scale, &mut full);
        let mut chunked = vec![Complex32::new(9.0, 9.0); 20];
        let mut lo = 0usize;
        for chunk in [3usize, 8, 9] {
            let hi = (lo + chunk).min(20);
            extract_scaled_range(&geo, &grid, &scale, &mut chunked[lo..hi], lo);
            lo = hi;
        }
        assert_eq!(full, chunked);
    }

    #[test]
    fn index_range_walker_matches_full_walker() {
        let ext = [3usize, 4, 2];
        let mut full = Vec::new();
        for_each_index(&ext, |flat, idx| full.push((flat, idx)));
        let mut ranged = Vec::new();
        for (lo, count) in [(0usize, 5usize), (5, 1), (6, 10), (16, 8)] {
            for_each_index_range(&ext, lo, count, |flat, idx| ranged.push((flat, idx)));
        }
        assert_eq!(full, ranged);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn embed_validates_lengths() {
        let geo = Geometry::new([4], 2.0);
        let mut grid = vec![Complex32::ZERO; 8];
        embed_scaled(&geo, &[Complex32::ZERO; 3], &[1.0; 3], &mut grid);
    }
}
