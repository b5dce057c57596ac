//! Parity suite: the blocked GEMM (all three matmul variants plus the fused
//! bias epilogue) must match the naive reference kernels to within 1e-4
//! relative error on every shape, including tile-boundary tails and
//! `m = 1` predict-shaped calls. One bit-exact check rides along: a row of
//! C does not depend on how many rows the call had (direct `m <= MR` path
//! against the packed kernel). CI fails if this suite is skipped.

use prionn_tensor::ops::gemm::{self, Epilogue, Layout};
use prionn_tensor::ops::matmul::reference;
use prionn_tensor::{ops, Scratch, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Held by the test that forces kernel tiers (a process-wide switch) and by
/// the bit-exact tests, whose two sides must run on one tier.
static TIER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tier_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in one holder must not fail the others.
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Assert elementwise `|a - b| <= 1e-4 * max(1, |b|)`.
fn assert_close(actual: &[f32], expect: &[f32], what: &str) {
    assert_eq!(actual.len(), expect.len(), "{what}: length mismatch");
    for (i, (&a, &e)) in actual.iter().zip(expect).enumerate() {
        let tol = 1e-4 * e.abs().max(1.0);
        assert!(
            (a - e).abs() <= tol,
            "{what}: elem {i}: blocked {a} vs reference {e} (tol {tol})"
        );
    }
}

fn rand_tensor(rng: &mut ChaCha8Rng, r: usize, c: usize) -> Tensor {
    prionn_tensor::init::uniform([r, c], -1.0, 1.0, rng)
}

/// Shapes covering the blocking structure: MR=6/NR=16 tile multiples, ragged
/// tails in every dimension, k spanning multiple KC=256 blocks, and m=1
/// single-row predict calls (the batch-1 serving shape).
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (6, 16, 8),    // exactly one microkernel tile
        (12, 32, 256), // tile multiples, one full KC block
        (7, 17, 9),    // ragged in every dimension
        (1, 960, 128), // m=1 predict-shaped (paper's 960 runtime bins)
        (1, 1, 1),     // degenerate
        (5, 3, 300),   // k spans two KC blocks with a tail
        (64, 64, 64),  // square, even
        (73, 49, 513), // ragged m/n, three KC blocks
        (96, 8, 32),   // more rows than cols
        (2, 200, 17),  // wide and shallow
    ]
}

#[test]
fn matmul_variants_match_reference_across_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB10C);
    for (m, n, k) in shapes() {
        let a = rand_tensor(&mut rng, m, k);
        let b = rand_tensor(&mut rng, k, n);
        assert_close(
            ops::matmul(&a, &b).unwrap().as_slice(),
            reference::matmul(&a, &b).unwrap().as_slice(),
            &format!("matmul {m}x{n}x{k}"),
        );

        let bt = rand_tensor(&mut rng, n, k);
        assert_close(
            ops::matmul_a_bt(&a, &bt).unwrap().as_slice(),
            reference::matmul_a_bt(&a, &bt).unwrap().as_slice(),
            &format!("matmul_a_bt {m}x{n}x{k}"),
        );

        let at = rand_tensor(&mut rng, k, m);
        assert_close(
            ops::matmul_at_b(&at, &b).unwrap().as_slice(),
            reference::matmul_at_b(&at, &b).unwrap().as_slice(),
            &format!("matmul_at_b {m}x{n}x{k}"),
        );
    }
}

#[test]
fn fused_bias_epilogues_match_reference_across_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF00D);
    for (m, n, k) in shapes() {
        let a = rand_tensor(&mut rng, m, k);
        let b = rand_tensor(&mut rng, k, n);
        let bias = prionn_tensor::init::uniform([n], -1.0, 1.0, &mut rng);
        assert_close(
            ops::matmul_bias(&a, &b, &bias).unwrap().as_slice(),
            reference::matmul_bias(&a, &b, &bias).unwrap().as_slice(),
            &format!("matmul_bias {m}x{n}x{k}"),
        );
    }
}

#[test]
fn randomized_shapes_match_reference() {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    for round in 0..40 {
        let m = rng.gen_range(1..80);
        let n = rng.gen_range(1..120);
        let k = rng.gen_range(1..400);
        let a = rand_tensor(&mut rng, m, k);
        let b = rand_tensor(&mut rng, k, n);
        assert_close(
            ops::matmul(&a, &b).unwrap().as_slice(),
            reference::matmul(&a, &b).unwrap().as_slice(),
            &format!("random round {round}: {m}x{n}x{k}"),
        );
    }
}

/// Dispatch-fallback sweep: every kernel tier — forced in turn via
/// `force_kernel_tier` — must match the reference on shapes that cover
/// both the packed path and the skip-packing small path. Tiers the host
/// cannot run degrade gracefully and exercise whatever tier dispatch
/// lands on, so this test is meaningful on any x86-64 (and on other
/// architectures, where every forced tier degrades to portable).
#[test]
fn every_kernel_tier_matches_reference() {
    use prionn_tensor::ops::gemm::KernelTier;
    let _tier = tier_lock();
    let mut rng = ChaCha8Rng::seed_from_u64(0x71E5);
    for tier in [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Portable] {
        gemm::force_kernel_tier(Some(tier));
        let effective = gemm::kernel_tier();
        for (m, n, k) in shapes() {
            let a = rand_tensor(&mut rng, m, k);
            let b = rand_tensor(&mut rng, k, n);
            let bias = prionn_tensor::init::uniform([n], -1.0, 1.0, &mut rng);
            let what = |op: &str| {
                format!(
                    "tier {} (effective {}) {op} {m}x{n}x{k}",
                    tier.name(),
                    effective.name()
                )
            };
            assert_close(
                ops::matmul(&a, &b).unwrap().as_slice(),
                reference::matmul(&a, &b).unwrap().as_slice(),
                &what("matmul"),
            );
            assert_close(
                ops::matmul_bias(&a, &b, &bias).unwrap().as_slice(),
                reference::matmul_bias(&a, &b, &bias).unwrap().as_slice(),
                &what("matmul_bias"),
            );
        }
    }
    gemm::force_kernel_tier(None);
}

#[test]
fn grouped_parallel_path_matches_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A97);
    for groups in [2usize, 3, 5] {
        for (m, n, k) in [(200, 48, 96), (73, 17, 300), (6, 16, 8)] {
            let a = rand_tensor(&mut rng, m, k);
            let b = rand_tensor(&mut rng, k, n);
            let bias = prionn_tensor::init::uniform([n], -1.0, 1.0, &mut rng);
            let mut scratch = Scratch::new();
            let mut c = vec![0.0f32; m * n];
            gemm::gemm_with_groups(
                &mut scratch,
                groups,
                m,
                n,
                k,
                a.as_slice(),
                Layout::RowMajor,
                b.as_slice(),
                Layout::RowMajor,
                &mut c,
                false,
                Epilogue::BiasCol(bias.as_slice()),
            );
            assert_close(
                &c,
                reference::matmul_bias(&a, &b, &bias).unwrap().as_slice(),
                &format!("groups={groups} {m}x{n}x{k}"),
            );
        }
    }
}

#[test]
fn accumulate_adds_onto_existing_output() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xACC);
    let (m, n, k) = (19, 23, 310);
    let a = rand_tensor(&mut rng, m, k);
    let b = rand_tensor(&mut rng, k, n);
    let seed: Vec<f32> = (0..m * n).map(|i| (i % 13) as f32 - 6.0).collect();
    let mut c = seed.clone();
    let mut scratch = Scratch::new();
    gemm::gemm(
        scratch.gemm_mut(),
        m,
        n,
        k,
        a.as_slice(),
        Layout::RowMajor,
        b.as_slice(),
        Layout::RowMajor,
        &mut c,
        true,
        Epilogue::None,
    );
    let base = reference::matmul(&a, &b).unwrap();
    let expect: Vec<f32> = base
        .as_slice()
        .iter()
        .zip(&seed)
        .map(|(&p, &s)| p + s)
        .collect();
    assert_close(&c, &expect, "accumulate 19x23x310");
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A row of C is the same bits whether its call was one row strip tall
/// (`m <= MR`: the direct, no-pack path for any `n`) or taller (`m = MR + 1`:
/// the packed kernel once `n` or `k` leave the small-problem bounds) — what
/// makes a prediction independent of the batch it was fused into.
#[test]
fn rows_of_a_short_call_are_bit_equal_to_the_same_rows_of_a_taller_call() {
    let tall = gemm::MR + 1;
    let _tier = tier_lock();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5407);
    let mut ws = gemm::GemmWorkspace::new();
    for k in [1usize, 255, 256, 257, 512, 700] {
        for n in [1usize, 15, 16, 17, 96, 97, 960] {
            let a = rand_tensor(&mut rng, tall, k);
            let b = rand_tensor(&mut rng, k, n);
            let bias_col = prionn_tensor::init::uniform([n], -1.0, 1.0, &mut rng);
            let bias_row = prionn_tensor::init::uniform([tall], -1.0, 1.0, &mut rng);
            let seed = rand_tensor(&mut rng, tall, n);
            let epilogues = [
                Epilogue::None,
                Epilogue::BiasCol(bias_col.as_slice()),
                Epilogue::BiasRow(bias_row.as_slice()),
            ];
            for (ei, epi) in epilogues.into_iter().enumerate() {
                for accumulate in [false, true] {
                    let mut run = |m: usize| {
                        let mut c = seed.as_slice()[..m * n].to_vec();
                        gemm::gemm(
                            &mut ws,
                            m,
                            n,
                            k,
                            a.as_slice(),
                            Layout::RowMajor,
                            b.as_slice(),
                            Layout::RowMajor,
                            &mut c,
                            accumulate,
                            epi,
                        );
                        c
                    };
                    let want = run(tall);
                    for m in 1..=gemm::MR {
                        assert_eq!(
                            bits(&run(m)),
                            bits(&want[..m * n]),
                            "m={m} n={n} k={k} epilogue #{ei} accumulate={accumulate} (tier {})",
                            gemm::kernel_tier().name()
                        );
                    }
                }
            }
        }
    }
}
