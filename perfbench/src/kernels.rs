//! `nd-linalg` base-case rates, measured by calling the public kernels on
//! warm, contiguous (tile-packed) operands — the form every strand of a
//! tiled graph hands them — plus pack/unpack throughput.
//!
//! Each rate is the median over batches of a few milliseconds each.
//! Kernels that work in place (TRSM, POTRF, GETRF) get their operand
//! restored by a `memcpy` before every call; that copy is a few percent of
//! the call and is included.

use nd_linalg::tile::TileMatrix;
use nd_linalg::{MatPtr, Matrix};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measured base-case rates.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelRates {
    /// GEMM `C += α·A·B` at b = 64, Gflop/s.
    pub gemm_b64_gflops: f64,
    /// `X·Lᵀ = B` at b = 64 (Cholesky's TRSM), Gflop/s.
    pub trsm_gflops: f64,
    /// Cholesky of a 64×64 block, Gflop/s.
    pub potrf_gflops: f64,
    /// Pivoted LU of a 1024×64 panel, Gflop/s.
    pub getrf_gflops: f64,
    /// Min-plus update at b = 64, Gop/s (add + compare per triple).
    pub fw_gops: f64,
    /// Pack plus unpack of a 1024×1024 matrix (b = 64, 8 MiB — in-cache on
    /// most hosts), GB/s of matrix data moved.
    pub pack_gbs: f64,
}

/// Median over `batches` batches of `ops_per_call × calls / seconds`, where
/// each batch runs `call` until `batch` has elapsed.
fn rate(ops_per_call: f64, mut call: impl FnMut()) -> f64 {
    const BATCHES: usize = 9;
    const BATCH: Duration = Duration::from_millis(3);
    call(); // warm caches and lazy dispatch
    let mut rates = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < BATCH {
            call();
            calls += 1;
        }
        rates.push(ops_per_call * calls as f64 / start.elapsed().as_secs_f64());
    }
    crate::stats::median(&rates)
}

fn view(m: &mut Matrix) -> MatPtr {
    m.as_ptr_view()
}

fn gemm_rate(b: usize) -> f64 {
    let (mut a, mut bm, mut c) = (
        Matrix::random(b, b, 1),
        Matrix::random(b, b, 2),
        Matrix::zeros(b, b),
    );
    let (av, bv, cv) = (view(&mut a), view(&mut bm), view(&mut c));
    let r = rate(2.0 * (b * b * b) as f64, || {
        // SAFETY: three distinct, live, contiguous b×b matrices; one thread.
        unsafe { nd_linalg::gemm::gemm_block(cv, av, bv, 1e-3) };
    });
    black_box(&c);
    r
}

/// Computes the rates (a few hundred milliseconds in total).
pub fn measure() -> KernelRates {
    let b = 64;
    let spd = {
        let r = Matrix::random(b, b, 3);
        Matrix::from_fn(b, b, |i, j| {
            if i == j {
                b as f64
            } else {
                0.5 * (r[(i, j)] + r[(j, i)])
            }
        })
    };

    let trsm_gflops = {
        let mut l = spd.clone();
        // SAFETY: `l` is a live, contiguous b×b matrix; one thread.
        unsafe { nd_linalg::potrf::potrf_block_ptr(view(&mut l)) };
        let src = Matrix::random(b, b, 4);
        let mut x = src.clone();
        let (lv, xv) = (view(&mut l), view(&mut x));
        rate((b * b * b) as f64, || {
            // SAFETY: distinct live b×b operands; the copy happens before the view is used.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_slice().as_ptr(), xv.row_ptr(0), b * b);
                nd_linalg::trsm::trsm_right_lower_trans_block_ptr(lv, xv);
            }
        })
    };

    let potrf_gflops = {
        let mut a = spd.clone();
        let av = view(&mut a);
        rate((b * b * b) as f64 / 3.0, || {
            // SAFETY: `a` is live and contiguous; restored before each call.
            unsafe {
                std::ptr::copy_nonoverlapping(spd.as_slice().as_ptr(), av.row_ptr(0), b * b);
                nd_linalg::potrf::potrf_block_ptr(av);
            }
        })
    };

    let getrf_gflops = {
        let m = 1024;
        let src = Matrix::random(m, b, 5);
        let mut p = src.clone();
        let pv = view(&mut p);
        let mut piv = vec![0usize; b];
        let (mf, kf) = (m as f64, b as f64);
        rate(mf * kf * kf - kf * kf * kf / 3.0, || {
            // SAFETY: `p` is live and contiguous; restored before each call.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_slice().as_ptr(), pv.row_ptr(0), m * b);
                nd_linalg::getrf::getrf_panel_block_into(pv, &mut piv);
            }
        })
    };

    let fw_gops = {
        let (mut x, mut u, mut v) = (
            Matrix::from_fn(b, b, |i, j| 10.0 + ((i * 7 + j * 13) % 17) as f64),
            Matrix::from_fn(b, b, |i, j| 1.0 + ((i + j) % 5) as f64),
            Matrix::from_fn(b, b, |i, j| 1.0 + ((i * j) % 7) as f64),
        );
        let (xv, uv, vv) = (view(&mut x), view(&mut u), view(&mut v));
        let r = rate(2.0 * (b * b * b) as f64, || {
            // SAFETY: three distinct live b×b matrices; one thread.
            unsafe { nd_linalg::fw::fw_update_block(xv, uv, vv) };
        });
        black_box(&x);
        r
    };

    let pack_gbs = {
        let n = 1024;
        let src = Matrix::random(n, n, 8);
        let mut out = Matrix::zeros(n, n);
        let mut tiles = TileMatrix::zeros(n, n, b);
        rate(2.0 * (8 * n * n) as f64 / 1e9, || {
            tiles.pack_from(&src);
            tiles.unpack_into(&mut out);
        })
    };

    KernelRates {
        gemm_b64_gflops: gemm_rate(64) / 1e9,
        trsm_gflops: trsm_gflops / 1e9,
        potrf_gflops: potrf_gflops / 1e9,
        getrf_gflops: getrf_gflops / 1e9,
        fw_gops: fw_gops / 1e9,
        pack_gbs,
    }
}
