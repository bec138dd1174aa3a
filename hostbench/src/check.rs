//! Output checks, at the repository's own tolerances.
//!
//! Complex and real transforms are held to the 512-ULP conformance
//! contract: the largest elementwise error, in ULPs of the largest
//! reference magnitude. Convolutions use the direct-oracle tolerance of
//! the conv tests (`1e-10 ×` the largest reference magnitude), and
//! Parseval uses the executor's own `1e-6` relative energy tolerance.

use bwfft_num::Complex64;

/// The power-of-two accuracy contract, in ULPs.
pub const ULP_BOUND: f64 = 512.0;
/// Direct-convolution oracle tolerance, relative to the largest
/// reference magnitude.
pub const CONV_REL_TOL: f64 = 1e-10;
/// Whole-transform Parseval tolerance, relative.
pub const PARSEVAL_REL_TOL: f64 = 1e-6;

fn ulp_of(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1) - x
}

/// Largest error of `got` against `reference` in ULPs of the largest
/// reference magnitude (infinite on a length mismatch or NaN).
pub fn ulp_error(got: &[Complex64], reference: &[Complex64]) -> f64 {
    if got.len() != reference.len() {
        return f64::INFINITY;
    }
    let scale = reference
        .iter()
        .map(|c| c.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    let ulp = ulp_of(scale);
    got.iter()
        .zip(reference)
        .map(|(g, r)| {
            let e = (*g - *r).abs() / ulp;
            if e.is_nan() {
                f64::INFINITY
            } else {
                e
            }
        })
        .fold(0.0, f64::max)
}

/// [`ulp_error`] for real outputs.
pub fn ulp_error_real(got: &[f64], reference: &[f64]) -> f64 {
    let c = |v: &[f64]| {
        v.iter()
            .map(|&x| Complex64::new(x, 0.0))
            .collect::<Vec<_>>()
    };
    ulp_error(&c(got), &c(reference))
}

/// Largest error relative to the largest reference magnitude.
pub fn rel_max_error_real(got: &[f64], reference: &[f64]) -> f64 {
    if got.len() != reference.len() {
        return f64::INFINITY;
    }
    let scale = reference.iter().map(|v| v.abs()).fold(1.0, f64::max);
    got.iter()
        .zip(reference)
        .map(|(a, b)| {
            let e = (a - b).abs() / scale;
            if e.is_nan() {
                f64::INFINITY
            } else {
                e
            }
        })
        .fold(0.0, f64::max)
}

/// `Σ|x|²`, four lanes so the loop vectorizes.
pub fn energy(xs: &[Complex64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut chunks = xs.chunks_exact(4);
    for c in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(c) {
            *lane += v.re * v.re + v.im * v.im;
        }
    }
    let tail: f64 = chunks.remainder().iter().map(|v| v.norm_sqr()).sum();
    lanes.iter().sum::<f64>() + tail
}

/// Relative Parseval error of an unnormalized length-`n` transform:
/// output energy should be `n ×` the input's.
pub fn parseval_rel_err(n: usize, energy_in: f64, out: &[Complex64]) -> f64 {
    let expected = n as f64 * energy_in;
    let e = (energy(out) - expected).abs() / expected.abs().max(f64::MIN_POSITIVE);
    if e.is_nan() {
        f64::INFINITY
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_corrupted_element_breaks_the_contract() {
        let r: Vec<Complex64> = (0..64).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let mut g = r.clone();
        assert_eq!(ulp_error(&g, &r), 0.0);
        g[5].re += 1.0;
        assert!(ulp_error(&g, &r) > ULP_BOUND);
        g[5].re = f64::NAN;
        assert!(ulp_error(&g, &r) > ULP_BOUND);
    }
}
