//! Host facts and host ceilings, measured in the same run as the
//! numbers they anchor.
//!
//! Copy bandwidths count bytes read plus bytes written (the STREAM
//! "copy" convention), so they compare directly with the paper's
//! `P_io` traffic (every stage reads and writes the array once).

use crate::util::{median, timed};
use bwfft_kernels::simd::copy_nt;
use bwfft_num::{AlignedVec, Complex64};
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;

/// Working set of the in-cache copy ceiling.
pub const CACHE_COPY_BYTES: usize = 16 << 20;
/// File size of the storage ceiling.
pub const DISK_PROBE_BYTES: usize = 64 << 20;
const ELEM: usize = std::mem::size_of::<Complex64>();

/// What the run records about the machine it ran on.
#[derive(Clone, Debug)]
pub struct HostFacts {
    pub nproc: usize,
    /// Last-level cache size as `lscpu -B` reports it for the package
    /// (falls back to sysfs, then 0 when neither is readable).
    pub llc_bytes: u64,
}

pub fn facts() -> HostFacts {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc_bytes = lscpu_llc_bytes()
        .or_else(|| {
            bwfft_core::HostProfile::detect()
                .llc_bytes
                .map(|b| b as u64)
        })
        .unwrap_or(0);
    HostFacts { nproc, llc_bytes }
}

/// Largest "Lx cache:" size in `lscpu -B` output (bytes, whole package).
fn lscpu_llc_bytes() -> Option<u64> {
    let out = std::process::Command::new("lscpu")
        .arg("-B")
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter(|l| l.trim_start().starts_with('L') && l.contains("cache:"))
        .filter_map(|l| {
            l.split(':')
                .nth(1)?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .max()
}

/// Bandwidth of `f` moving `bytes` per call, in GB/s, from the median
/// of `reps` timed calls after one untimed warm-up call.
fn bandwidth(bytes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    bytes as f64 / median(&times).unwrap_or(f64::INFINITY) / 1e9
}

fn filled(elems: usize) -> AlignedVec<Complex64> {
    AlignedVec::from_fn(elems, |i| Complex64::new(i as f64, -(i as f64)))
}

/// `copy_from_slice` bandwidth over two arrays of `bytes` each.
pub fn copy_gbs(bytes: usize) -> f64 {
    let elems = bytes / ELEM;
    let src = filled(elems);
    let mut dst = AlignedVec::<Complex64>::zeroed(elems);
    let reps = (((1usize << 30) / bytes).clamp(3, 64)) | 1;
    bandwidth(2 * bytes, reps, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    })
}

/// `kernels::simd::copy_nt` (non-temporal store) bandwidth over two
/// arrays of `bytes` each.
pub fn copy_nt_gbs(bytes: usize) -> f64 {
    let elems = bytes / ELEM;
    let src = filled(elems);
    let mut dst = AlignedVec::<Complex64>::zeroed(elems);
    bandwidth(2 * bytes, 3, || {
        copy_nt(black_box(&src), &mut dst);
        black_box(&mut dst);
    })
}

/// Sequential write + fsync, then read, of a `DISK_PROBE_BYTES` file
/// in `dir`. Returns (write GB/s, read GB/s). The read follows the
/// write, so it may be served from the page cache: it is the rate the
/// out-of-core tier itself sees when it re-reads its scratch stores.
pub fn disk_gbs(dir: &Path) -> std::io::Result<(f64, f64)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("disk-probe.bin");
    let chunk = vec![0xA5u8; 4 << 20];
    let (w, wt) = timed(|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&path)?;
        for _ in 0..DISK_PROBE_BYTES / chunk.len() {
            f.write_all(&chunk)?;
        }
        f.sync_all()
    });
    w?;
    let mut buf = vec![0u8; 4 << 20];
    let (r, rt) = timed(|| -> std::io::Result<u64> {
        let mut f = std::fs::File::open(&path)?;
        let mut sum = 0u64;
        loop {
            let n = f.read(&mut buf)?;
            if n == 0 {
                break;
            }
            sum += buf[n - 1] as u64;
        }
        Ok(sum)
    });
    black_box(r?);
    std::fs::remove_file(&path)?;
    let gb = DISK_PROBE_BYTES as f64 / 1e9;
    Ok((gb / wt, gb / rt))
}
