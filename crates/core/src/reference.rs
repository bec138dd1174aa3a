//! The last-resort reference executor.
//!
//! A plain row-column pencil FFT with none of the machinery the other
//! executors depend on: no shared double buffer, no threads, no
//! barriers, no write-matrix stores — just strided pencil gathers and
//! the 1D kernel. It is the supervisor's final escalation tier: when
//! both the pipelined and the fused executors keep failing, this one
//! still produces the transform (and deliberately ignores every
//! injected fault, the way a cold-standby implementation would not
//! share the primary's failure modes).
//!
//! The row-column passes themselves ([`row_column_2d`],
//! [`row_column_3d`], [`pencil_pass`]) take a scratch pencil from the
//! caller, so `bwfft-baselines` runs the same loops for its benchmark
//! comparisons with its own infallible scratch while this tier
//! allocates through the fallible path.

use crate::error::CoreError;
use crate::plan::{Dims, FftPlan};
use bwfft_kernels::{Direction, Fft1d};
use bwfft_num::{try_vec_zeroed, Complex64};

/// Transforms `data` in place per the plan's dims and direction using
/// the row-column reference algorithm. Only the plan's *transform*
/// fields (dims, direction) matter; buffer size, thread counts and
/// executor choice are ignored.
///
/// The scratch pencil goes through the fallible allocation path, so
/// even this tier reports OOM as a typed error rather than aborting —
/// but its scratch is one pencil, orders of magnitude smaller than the
/// buffers the other executors need.
pub fn execute_reference(plan: &FftPlan, data: &mut [Complex64]) -> Result<(), CoreError> {
    let total = plan.dims.total();
    if data.len() != total {
        return Err(CoreError::InputLength {
            what: "data",
            expected: total,
            got: data.len(),
        });
    }
    match plan.dims {
        Dims::Two { n, m } => {
            let mut pencil = try_vec_zeroed::<Complex64>(n, "reference pencil")?;
            row_column_2d(data, n, m, plan.dir, &mut pencil);
        }
        Dims::Three { k, n, m } => {
            let mut pencil = try_vec_zeroed::<Complex64>(k.max(n), "reference pencil")?;
            row_column_3d(data, k, n, m, plan.dir, &mut pencil);
        }
    }
    Ok(())
}

/// Row-column 2D FFT of an `n × m` row-major array: contiguous rows,
/// then stride-`m` columns gathered through `pencil`.
///
/// # Panics
///
/// If `data.len() != n·m` or `pencil` is shorter than `n`.
pub fn row_column_2d(
    data: &mut [Complex64],
    n: usize,
    m: usize,
    dir: Direction,
    pencil: &mut [Complex64],
) {
    assert_eq!(data.len(), n * m, "row_column_2d: data is not n*m");
    pencil_pass(data, m, 1, dir, pencil);
    pencil_pass(data, n, m, dir, pencil);
}

/// Row-column 3D FFT of a `k × n × m` row-major cube: contiguous
/// x-pencils, stride-`m` y-pencils within each slab, stride-`n·m`
/// z-pencils, the strided ones gathered through `pencil`.
///
/// # Panics
///
/// If `data.len() != k·n·m` or `pencil` is shorter than `max(k, n)`.
pub fn row_column_3d(
    data: &mut [Complex64],
    k: usize,
    n: usize,
    m: usize,
    dir: Direction,
    pencil: &mut [Complex64],
) {
    assert_eq!(data.len(), k * n * m, "row_column_3d: data is not k*n*m");
    pencil_pass(data, m, 1, dir, pencil);
    pencil_pass(data, n, m, dir, pencil);
    pencil_pass(data, k, n * m, dir, pencil);
}

/// One row-column pass: within every contiguous block of `len·stride`
/// elements, transforms the `stride` pencils of length `len` whose
/// elements sit `stride` apart. Stride 1 transforms contiguous rows in
/// place; wider strides gather each pencil into `pencil[..len]`,
/// transform it and scatter it back.
///
/// # Panics
///
/// If `pencil` is shorter than `len` on a strided pass.
pub fn pencil_pass(
    data: &mut [Complex64],
    len: usize,
    stride: usize,
    dir: Direction,
    pencil: &mut [Complex64],
) {
    let mut fft = Fft1d::new(len, dir);
    if stride == 1 {
        for row in data.chunks_exact_mut(len) {
            fft.run(row);
        }
        return;
    }
    let pencil = &mut pencil[..len];
    for block in data.chunks_exact_mut(len * stride) {
        for x in 0..stride {
            for (i, p) in pencil.iter_mut().enumerate() {
                *p = block[i * stride + x];
            }
            fft.run(pencil);
            for (i, p) in pencil.iter().enumerate() {
                block[i * stride + x] = *p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_real::{execute, normalize};
    use bwfft_kernels::Direction;
    use bwfft_num::compare::assert_fft_close;
    use bwfft_num::signal::random_complex;

    #[test]
    fn reference_matches_pipelined_3d() {
        let (k, n, m) = (8usize, 8, 16);
        let x = random_complex(k * n * m, 120);
        let plan = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        execute_reference(&plan, &mut b).unwrap();
        assert_fft_close(&b, &a);
    }

    #[test]
    fn reference_matches_pipelined_2d() {
        let (n, m) = (16usize, 32);
        let x = random_complex(n * m, 121);
        let plan = FftPlan::builder(Dims::d2(n, m))
            .buffer_elems(128)
            .threads(2, 2)
            .build()
            .unwrap();
        let mut a = x.clone();
        let mut wa = vec![Complex64::ZERO; x.len()];
        execute(&plan, &mut a, &mut wa).unwrap();
        let mut b = x.clone();
        execute_reference(&plan, &mut b).unwrap();
        assert_fft_close(&b, &a);
    }

    #[test]
    fn reference_roundtrip() {
        let (k, n, m) = (4usize, 8, 8);
        let x = random_complex(k * n * m, 122);
        let fwd = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .build()
            .unwrap();
        let inv = FftPlan::builder(Dims::d3(k, n, m))
            .buffer_elems(64)
            .direction(Direction::Inverse)
            .build()
            .unwrap();
        let mut data = x.clone();
        execute_reference(&fwd, &mut data).unwrap();
        execute_reference(&inv, &mut data).unwrap();
        normalize(&mut data);
        assert_fft_close(&data, &x);
    }

    #[test]
    fn length_mismatch_is_typed() {
        let plan = FftPlan::builder(Dims::d3(8, 8, 8))
            .buffer_elems(64)
            .build()
            .unwrap();
        let mut short = vec![Complex64::ZERO; 100];
        let err = execute_reference(&plan, &mut short).unwrap_err();
        assert!(matches!(err, CoreError::InputLength { .. }));
    }
}
