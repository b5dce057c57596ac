//! Quick per-tier kernel probe: times the plain GEMM at 256³ (packed path)
//! and 64³ (skip-packing small path) under every dispatch tier, splitting
//! pack time from kernel time. A few seconds end to end — the fast
//! feedback loop for microkernel work, where the full kernels bench is
//! the measurement of record (see `docs/PERFORMANCE.md`, "Benching a
//! change"):
//!
//! ```bash
//! cargo run --release -p prionn-tensor --example kernel_probe
//! ```
//!
//! Tiers the host cannot run degrade to the best available one; the
//! printed tier name is the *requested* tier, so duplicate-looking rows
//! on a non-AVX-512 host are expected.

use prionn_tensor::ops::gemm::{self, Epilogue, GemmWorkspace, KernelTier, Layout};
use std::time::Instant;

fn bench_tier(tier: KernelTier, m: usize, n: usize, k: usize) {
    gemm::force_kernel_tier(Some(tier));
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.25 - 0.75).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.25 - 0.5).collect();
    let mut c = vec![0.0f32; m * n];
    let mut ws = GemmWorkspace::new();
    // Warmup
    for _ in 0..3 {
        gemm::gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::None,
        );
    }
    let reps = 30;
    let mut best = f64::MAX;
    for _ in 0..reps {
        ws.stats = Default::default();
        let t0 = Instant::now();
        gemm::gemm(
            &mut ws,
            m,
            n,
            k,
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            &mut c,
            false,
            Epilogue::None,
        );
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
    }
    let flops = 2.0 * (m * n * k) as f64;
    let pack = ws.stats.pack_seconds; // last rep's pack time
    println!(
        "{:9} {m}x{n}x{k}: min {:7.3} ms  {:6.2} GFLOP/s  (last-rep pack {:.3} ms = {:.0}%)",
        tier.name(),
        best * 1e3,
        flops / best / 1e9,
        pack * 1e3,
        pack / best * 100.0
    );
    gemm::force_kernel_tier(None);
}

fn main() {
    for &(m, n, k) in &[(256usize, 256usize, 256usize), (64, 64, 64)] {
        for tier in [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Portable] {
            bench_tier(tier, m, n, k);
        }
    }
}
