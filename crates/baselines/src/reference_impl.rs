//! Real pencil–pencil and slab–pencil MDFT implementations.
//!
//! These are honest row-column FFTs: full-array passes per dimension,
//! strided pencil gathers, temporal stores — exactly the traffic
//! structure the paper attributes to the baseline libraries. They are
//! verified against the naive oracles and in turn serve as the oracle
//! for the double-buffered implementation at sizes where `O(n²)`
//! verification is too slow.
//!
//! The loops are `bwfft_core::reference`'s row-column passes — the same
//! code the supervisor's reference tier runs — fed a scratch pencil
//! allocated here.

use bwfft_core::reference::{pencil_pass, row_column_2d, row_column_3d};
use bwfft_kernels::Direction;
use bwfft_num::Complex64;

/// Pencil–pencil 2D FFT of an `n × m` row-major array.
pub fn pencil_fft_2d(data: &mut [Complex64], n: usize, m: usize, dir: Direction) {
    row_column_2d(data, n, m, dir, &mut vec![Complex64::ZERO; n]);
}

/// Pencil–pencil 3D FFT of a `k × n × m` row-major cube.
pub fn pencil_fft_3d(data: &mut [Complex64], k: usize, n: usize, m: usize, dir: Direction) {
    row_column_3d(data, k, n, m, dir, &mut vec![Complex64::ZERO; k.max(n)]);
}

/// Slab–pencil 3D FFT: a 2D FFT per z-slab (fused stages 1+2, one
/// round trip if the slab fits in cache), then the z-pencil pass — the
/// plan FFTW effectively uses on large-cache parts (§II-B ref [5], §V).
pub fn slab_pencil_fft_3d(data: &mut [Complex64], k: usize, n: usize, m: usize, dir: Direction) {
    assert_eq!(data.len(), k * n * m);
    let mut pencil = vec![Complex64::ZERO; k.max(n)];
    for slab in data.chunks_exact_mut(n * m) {
        row_column_2d(slab, n, m, dir, &mut pencil);
    }
    pencil_pass(data, k, n * m, dir, &mut pencil);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfft_kernels::reference::{dft2_naive, dft3_naive};
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;

    #[test]
    fn pencil_2d_matches_naive() {
        let (n, m) = (16usize, 8);
        let x = random_complex(n * m, 80);
        let mut got = x.clone();
        pencil_fft_2d(&mut got, n, m, Direction::Forward);
        assert_fft_close(&got, &dft2_naive(&x, n, m, Direction::Forward));
    }

    #[test]
    fn pencil_3d_matches_naive() {
        let (k, n, m) = (8usize, 4, 16);
        let x = random_complex(k * n * m, 81);
        let mut got = x.clone();
        pencil_fft_3d(&mut got, k, n, m, Direction::Forward);
        assert_fft_close(&got, &dft3_naive(&x, k, n, m, Direction::Forward));
    }

    #[test]
    fn slab_pencil_matches_pencil_pencil() {
        let (k, n, m) = (8usize, 8, 8);
        let x = random_complex(k * n * m, 82);
        let mut a = x.clone();
        pencil_fft_3d(&mut a, k, n, m, Direction::Forward);
        let mut b = x.clone();
        slab_pencil_fft_3d(&mut b, k, n, m, Direction::Forward);
        assert_fft_close(&b, &a);
    }

    #[test]
    fn inverse_roundtrip() {
        let (k, n, m) = (4usize, 8, 8);
        let x = random_complex(k * n * m, 83);
        let mut data = x.clone();
        pencil_fft_3d(&mut data, k, n, m, Direction::Forward);
        pencil_fft_3d(&mut data, k, n, m, Direction::Inverse);
        let scale = 1.0 / (k * n * m) as f64;
        let back: Vec<Complex64> = data.iter().map(|c| c.scale(scale)).collect();
        assert_fft_close(&back, &x);
    }

    #[test]
    fn agrees_with_double_buffered_core_at_medium_size() {
        // Cross-validation: two completely different implementations.
        let (k, n, m) = (32usize, 32, 32);
        let x = random_complex(k * n * m, 84);
        let mut pencil = x.clone();
        pencil_fft_3d(&mut pencil, k, n, m, Direction::Forward);
        let plan = bwfft_core::FftPlan::builder(bwfft_core::Dims::d3(k, n, m))
            .buffer_elems(4096)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut db = x.clone();
        let mut work = vec![Complex64::ZERO; x.len()];
        bwfft_core::exec_real::execute(&plan, &mut db, &mut work).unwrap();
        assert_fft_close(&db, &pencil);
    }
}
