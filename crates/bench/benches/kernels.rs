//! Kernel benchmark: blocked GEMM (all three matmul variants plus the fused
//! bias epilogue) against the naive reference kernels, a per-tier SIMD
//! dispatch sweep, the convolution scoreboard (forward, filter gradient
//! with the bias gradient, and input gradient of the direct 3×3 kernels
//! against the GEMM lowering, each beside its roofline line) at the paper's
//! four conv shapes, the same kernels on mapped scripts against inputs with
//! no equal rows, each conv stage (ReLU + 2×2 max pool folded into the
//! conv's write-back) beside the same conv followed by a `ReluPool` layer,
//! and one full train step of the PRIONN 2D-CNN on a 64×64 input at batch
//! 32.
//!
//! Runs as a custom harness (`cargo bench -p prionn-bench --bench kernels`)
//! and writes `BENCH_kernels.json` to the working directory (override with
//! `BENCH_KERNELS_OUT`). Flags:
//!
//! * `--smoke`   — fewer repetitions, for CI;
//! * `--enforce` — exit non-zero unless every perf gate holds (see
//!   `docs/PERFORMANCE.md` for the gate table):
//!   1. blocked 256³ GEMM ≥ 3× the frozen pre-blocking naive baseline;
//!   2. on AVX2-capable hosts, the best SIMD tier at 256³ ≥ 1.8× the
//!      frozen pre-SIMD blocked baseline;
//!   3. blocked ≥ naive (min-of-reps) at every measured size — the n=64
//!      regression guard;
//!   4. the steady-state train step stays allocation-free;
//!   5. the direct 3×3 forward ≥ 1.5× its GEMM lowering (`im2col_into` +
//!      `gemm`) at conv1–3, batch 32;
//!   6. conv1's stage at batch 32, ReLU + pool folded into the conv's
//!      write-back, forward + backward ≤ 1.0× the same conv followed by a
//!      `ReluPool` layer (min-of-reps, same run);
//!   7. where two samples' channels fit one vector at conv1 (avx512), its
//!      batch-32 filter gradient ≥ 1.3× the same kernel fed one sample at a
//!      time;
//!   8. conv1's batch-32 filter gradient on 32 mapped CabLike scripts ≤
//!      0.5× the same kernel on a same-shape input with no equal rows
//!      (`conv_script_rows`).
//!
//! The `pre_pr_baseline` and `pre_simd_baseline` blocks freeze numbers
//! measured on this machine immediately before the respective changes
//! landed, so the committed JSON documents each speedup without rebuilding
//! old code.

use prionn_core::{Prionn, PrionnConfig};
use prionn_nn::layer::{Conv2d, ReluPool};
use prionn_nn::{ArchConfig, Layer, LossTarget, ModelKind, Sgd, SoftmaxCrossEntropy};
use prionn_tensor::ops::gemm::{
    self, force_kernel_tier, kernel_tier, Epilogue, GemmWorkspace, KernelTier, Layout,
};
use prionn_tensor::ops::matmul::reference;
use prionn_tensor::ops::{conv3x3, Conv2dGeom};
use prionn_tensor::{init, ops, Scratch, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::time::Instant;

/// (median, min) wall time of `reps` runs of `f`, in seconds. The median is
/// what gets reported; the min is the least noise-contaminated estimate of
/// kernel capability, used for the `--enforce` speedup gates on shared
/// boxes.
fn time_runs<F: FnMut()>(reps: usize, mut f: F) -> (f64, f64) {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64());
    }
    v.sort_by(|a, b| a.total_cmp(b));
    (v[v.len() / 2], v[0])
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn time_med<F: FnMut()>(reps: usize, f: F) -> f64 {
    time_runs(reps, f).0
}

fn gflops(flops: f64, secs: f64) -> f64 {
    flops / secs / 1e9
}

/// One blocked-vs-naive pair. Returns the JSON row plus the min-of-reps
/// times (ms) of both sides for the `blocked >= naive` regression gate.
fn bench_pair(
    name: &str,
    n: usize,
    reps: usize,
    mut blocked: impl FnMut() -> Tensor,
    mut naive: impl FnMut() -> Tensor,
) -> (serde_json::Value, f64, f64) {
    let flops = 2.0 * (n as f64).powi(3);
    let (tb, tb_min) = time_runs(reps, || {
        std::hint::black_box(blocked());
    });
    let (tn, tn_min) = time_runs(reps, || {
        std::hint::black_box(naive());
    });
    println!(
        "  {name} {n}^3: blocked {:.3} ms ({:.2} GFLOP/s)  naive {:.3} ms ({:.2})  speedup {:.2}x",
        tb * 1e3,
        gflops(flops, tb),
        tn * 1e3,
        gflops(flops, tn),
        tn / tb
    );
    let row = json!({
        "variant": name,
        "n": n,
        "kernel_tier": kernel_tier().name(),
        "blocked_ms": tb * 1e3,
        "blocked_gflops": gflops(flops, tb),
        "naive_ms": tn * 1e3,
        "naive_gflops": gflops(flops, tn),
        "speedup_vs_naive": tn / tb,
    });
    (row, tb_min * 1e3, tn_min * 1e3)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let enforce = args.iter().any(|a| a == "--enforce");
    let (gemm_reps, train_reps) = if smoke { (3, 3) } else { (9, 7) };
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "kernels bench ({mode} mode, dispatched tier: {})",
        kernel_tier().name()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut gemm_results = Vec::new();
    let mut fused_results = Vec::new();
    let mut blocked_256_ms = f64::INFINITY;
    // (label, n, blocked_min_ms, naive_min_ms) for the regression gate.
    let mut pair_mins: Vec<(String, usize, f64, f64)> = Vec::new();
    for &n in &[64usize, 128, 256] {
        let a = init::uniform([n, n], -1.0, 1.0, &mut rng);
        let b = init::uniform([n, n], -1.0, 1.0, &mut rng);
        let bias = init::uniform([n], -1.0, 1.0, &mut rng);

        let (row, bm, nm) = bench_pair(
            "plain",
            n,
            gemm_reps,
            || ops::matmul(&a, &b).unwrap(),
            || reference::matmul(&a, &b).unwrap(),
        );
        if n == 256 {
            blocked_256_ms = bm;
        }
        pair_mins.push(("plain".into(), n, bm, nm));
        gemm_results.push(row);
        let (row, bm, nm) = bench_pair(
            "a_bt",
            n,
            gemm_reps,
            || ops::matmul_a_bt(&a, &b).unwrap(),
            || reference::matmul_a_bt(&a, &b).unwrap(),
        );
        pair_mins.push(("a_bt".into(), n, bm, nm));
        gemm_results.push(row);
        let (row, bm, nm) = bench_pair(
            "at_b",
            n,
            gemm_reps,
            || ops::matmul_at_b(&a, &b).unwrap(),
            || reference::matmul_at_b(&a, &b).unwrap(),
        );
        pair_mins.push(("at_b".into(), n, bm, nm));
        gemm_results.push(row);
        let (row, bm, nm) = bench_pair(
            "bias",
            n,
            gemm_reps,
            || ops::matmul_bias(&a, &b, &bias).unwrap(),
            || reference::matmul_bias(&a, &b, &bias).unwrap(),
        );
        pair_mins.push(("bias".into(), n, bm, nm));
        fused_results.push(row);
    }

    // Per-tier sweep: force each dispatch tier in turn and measure the
    // plain matmul at 256³ (packed path) and 64³ (skip-packing small
    // path). Tiers the host cannot run degrade at dispatch time; those are
    // reported as skipped rather than mislabelled.
    let mut tier_results = Vec::new();
    let mut simd_256_min_ms = f64::INFINITY;
    for tier in [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Portable] {
        force_kernel_tier(Some(tier));
        let effective = kernel_tier();
        if effective != tier {
            println!(
                "  tier {}: unavailable on this host (degrades to {})",
                tier.name(),
                effective.name()
            );
            tier_results.push(json!({
                "tier": tier.name(),
                "available": false,
                "degrades_to": effective.name(),
            }));
            continue;
        }
        let mut row = serde_json::Map::new();
        row.insert("tier".into(), json!(tier.name()));
        row.insert("available".into(), json!(true));
        for &n in &[64usize, 256] {
            let a = init::uniform([n, n], -1.0, 1.0, &mut ChaCha8Rng::seed_from_u64(5));
            let b = init::uniform([n, n], -1.0, 1.0, &mut ChaCha8Rng::seed_from_u64(6));
            let flops = 2.0 * (n as f64).powi(3);
            let (med, min) = time_runs(gemm_reps, || {
                std::hint::black_box(ops::matmul(&a, &b).unwrap());
            });
            println!(
                "  tier {} {n}^3: {:.3} ms ({:.2} GFLOP/s)",
                tier.name(),
                med * 1e3,
                gflops(flops, med)
            );
            row.insert(format!("matmul_{n}_ms"), json!(med * 1e3));
            row.insert(format!("matmul_{n}_gflops"), json!(gflops(flops, med)));
            if n == 256 && matches!(tier, KernelTier::Avx512 | KernelTier::Avx2) {
                simd_256_min_ms = simd_256_min_ms.min(min * 1e3);
            }
        }
        tier_results.push(serde_json::Value::Object(row));
    }
    force_kernel_tier(None);

    // Roofline inputs, measured in this run. The convolution rows below run
    // one sample after another on this thread, so both are one core's:
    // the FLOP rate of a serial 256³ GEMM and the bandwidth of a copy loop
    // over buffers larger than L2.
    let peak_gflops = {
        let n = 256usize;
        let a = init::uniform([n, n], -1.0, 1.0, &mut rng);
        let b = init::uniform([n, n], -1.0, 1.0, &mut rng);
        let mut c = vec![0.0f32; n * n];
        let mut ws = GemmWorkspace::new();
        let (_, min) = time_runs(gemm_reps, || {
            gemm::gemm(
                &mut ws,
                n,
                n,
                n,
                a.as_slice(),
                Layout::RowMajor,
                b.as_slice(),
                Layout::RowMajor,
                &mut c,
                false,
                Epilogue::None,
            );
            std::hint::black_box(&c);
        });
        gflops(gemm::gemm_flops(n, n, n), min)
    };
    let copy_gbs = {
        let src = vec![1.0f32; 8 << 20];
        let mut dst = vec![0.0f32; src.len()];
        let (_, min) = time_runs(gemm_reps, || {
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&dst);
        });
        2.0 * 4.0 * src.len() as f64 / min / 1e9
    };
    println!(
        "  roofline: serial 256^3 gemm {peak_gflops:.1} GFLOP/s, copy {copy_gbs:.1} GB/s (one core)"
    );

    // Convolution at the paper's four conv shapes, each pass two ways: the
    // direct 3×3 kernels `Conv2d` runs (`conv3x3`), and the GEMM lowering it
    // runs for every other geometry (`im2col_into` + `gemm` for y and dW,
    // `gemm` + `col2im_into` for dX), on this thread, at the serving and the
    // retrain batch size. Forward and dX go one sample after another; the
    // filter gradient takes the batch as `Conv2d` hands it a worker group
    // (two samples to a vector where they fit), and both of its columns
    // include the bias gradient. At conv1 its kernel is also timed alone,
    // batch call against one sample per call. Beside each row, the analytic
    // line `max(flops / peak, bytes / bandwidth)`, bytes being each operand
    // read or written once.
    let mut conv_results = Vec::new();
    // (shape, min-of-reps speedup) of the b32 forwards of conv1-3 for the
    // gate.
    let mut forward_gate: Vec<(String, f64)> = Vec::new();
    // Min-of-reps speedup of conv1's b32 filter-gradient kernel over the
    // one-sample calls, where pairs run.
    let mut pair_gate: Option<f64> = None;
    for &(in_c, hw, out_c) in &[
        (4usize, 64usize, 8usize),
        (8, 32, 16),
        (16, 16, 16),
        (16, 8, 32),
    ] {
        let g = Conv2dGeom::new(in_c, hw, hw, 3, 3, 1, 1).unwrap();
        let (k, n_pos) = (g.col_rows(), g.col_cols());
        let (x_len, y_len) = (in_c * n_pos, out_c * n_pos);
        let w = init::uniform([out_c, k], -1.0, 1.0, &mut rng);
        let (w, bias) = (w.as_slice(), init::uniform([out_c], -1.0, 1.0, &mut rng));
        let bias = bias.as_slice();
        let mut ws = GemmWorkspace::new();
        let mut cols = vec![0.0f32; k * n_pos];
        let mut dw = vec![0.0f32; out_c * k];
        let mut db = vec![0.0f32; out_c];
        let shape = format!("{in_c}->{out_c}@{hw}x{hw}");
        for &batch in &[1usize, 32] {
            let x = init::uniform([batch, x_len], -1.0, 1.0, &mut rng);
            let dy = init::uniform([batch, y_len], -1.0, 1.0, &mut rng);
            let mut y = vec![0.0f32; batch * y_len];
            let mut dx = vec![0.0f32; batch * x_len];
            let samples = || {
                x.as_slice()
                    .chunks_exact(x_len)
                    .zip(dy.as_slice().chunks_exact(y_len))
            };
            let flops = batch as f64 * gemm::gemm_flops(out_c, n_pos, k);
            let reps = if batch == 1 {
                gemm_reps * 20
            } else {
                gemm_reps
            };
            for pass in ["forward", "filter_grad", "input_grad"] {
                let floats = match pass {
                    "forward" => x_len + out_c * k + out_c + y_len,
                    "filter_grad" => x_len + y_len + 2 * out_c * k,
                    _ => out_c * k + y_len + x_len,
                };
                let bytes = 4.0 * (batch * floats) as f64;
                let (direct, direct_min) = time_runs(reps, || {
                    if pass == "filter_grad" {
                        let (x, dy) = (x.as_slice(), dy.as_slice());
                        conv3x3::filter_grad(&mut ws, &g, dy, x, &mut dw, false);
                        conv3x3::bias_grad(dy, n_pos, &mut db);
                    } else {
                        for (i, (x_i, dy_i)) in samples().enumerate() {
                            match pass {
                                "forward" => conv3x3::forward(
                                    &mut ws,
                                    &g,
                                    w,
                                    bias,
                                    x_i,
                                    &mut y[i * y_len..(i + 1) * y_len],
                                ),
                                _ => conv3x3::input_grad(
                                    &mut ws,
                                    &g,
                                    w,
                                    dy_i,
                                    &mut dx[i * x_len..(i + 1) * x_len],
                                ),
                            }
                        }
                    }
                    std::hint::black_box((&y, &dw, &db, &dx));
                });
                // conv1's dW kernel alone, the batch in one call against one
                // sample per call, alternated so that a swing of the host's
                // speed hits both alike: (medians, mins) in seconds.
                let one_sample = (pass == "filter_grad" && (in_c, out_c) == (4, 8)).then(|| {
                    let (mut batched, mut single) = (Vec::new(), Vec::new());
                    for _ in 0..reps.max(15) {
                        let t = Instant::now();
                        conv3x3::filter_grad(
                            &mut ws,
                            &g,
                            dy.as_slice(),
                            x.as_slice(),
                            &mut dw,
                            false,
                        );
                        batched.push(t.elapsed().as_secs_f64());
                        let t = Instant::now();
                        for (x_i, dy_i) in samples() {
                            conv3x3::filter_grad(&mut ws, &g, dy_i, x_i, &mut dw, false);
                        }
                        single.push(t.elapsed().as_secs_f64());
                        std::hint::black_box(&dw);
                    }
                    let median_min = |mut v: Vec<f64>| {
                        v.sort_by(|a, b| a.total_cmp(b));
                        (v[v.len() / 2], v[0])
                    };
                    (median_min(batched), median_min(single))
                });
                let (lowering, lowering_min) = time_runs(reps, || {
                    for (i, (x_i, dy_i)) in samples().enumerate() {
                        match pass {
                            "forward" => {
                                ops::im2col_into(x_i, &g, &mut cols).unwrap();
                                gemm::gemm(
                                    &mut ws,
                                    out_c,
                                    n_pos,
                                    k,
                                    w,
                                    Layout::RowMajor,
                                    &cols,
                                    Layout::RowMajor,
                                    &mut y[i * y_len..(i + 1) * y_len],
                                    false,
                                    Epilogue::BiasRow(bias),
                                );
                            }
                            "filter_grad" => {
                                ops::im2col_into(x_i, &g, &mut cols).unwrap();
                                gemm::gemm(
                                    &mut ws,
                                    out_c,
                                    k,
                                    n_pos,
                                    dy_i,
                                    Layout::RowMajor,
                                    &cols,
                                    Layout::Transposed,
                                    &mut dw,
                                    true,
                                    Epilogue::None,
                                );
                            }
                            _ => {
                                gemm::gemm(
                                    &mut ws,
                                    k,
                                    n_pos,
                                    out_c,
                                    w,
                                    Layout::Transposed,
                                    dy_i,
                                    Layout::RowMajor,
                                    &mut cols,
                                    false,
                                    Epilogue::None,
                                );
                                ops::col2im_into(&cols, &g, &mut dx[i * x_len..(i + 1) * x_len])
                                    .unwrap();
                            }
                        }
                    }
                    if pass == "filter_grad" {
                        conv3x3::bias_grad(dy.as_slice(), n_pos, &mut db);
                    }
                    std::hint::black_box((&y, &dw, &db, &dx));
                });
                let (compute_s, memory_s) = (flops / (peak_gflops * 1e9), bytes / (copy_gbs * 1e9));
                let model = compute_s.max(memory_s);
                let bound = if compute_s >= memory_s {
                    "compute"
                } else {
                    "memory"
                };
                println!(
                    "  conv {shape} b{batch} {pass}: direct {:.3} ms ({:.1} GFLOP/s)  lowering {:.3} ms ({:.1})  \
                     {:.2}x  | line {:.3} ms ({bound}), direct {:.1}x off it",
                    direct * 1e3,
                    gflops(flops, direct),
                    lowering * 1e3,
                    gflops(flops, lowering),
                    lowering / direct,
                    model * 1e3,
                    direct / model,
                );
                if pass == "forward" && batch == 32 && in_c * out_c < 16 * 32 {
                    forward_gate.push((shape.clone(), lowering_min / direct_min));
                }
                let mut row = json!({
                    "shape": shape.as_str(),
                    "batch": batch,
                    "pass": pass,
                    "direct_ms": direct * 1e3,
                    "direct_gflops": gflops(flops, direct),
                    "lowering_ms": lowering * 1e3,
                    "lowering_gflops": gflops(flops, lowering),
                    "speedup_vs_lowering": lowering / direct,
                    "flops": flops,
                    "bytes": bytes,
                    "line_ms": model * 1e3,
                    "line_bound": bound,
                    "direct_over_line": direct / model,
                });
                if let Some(((batched, batched_min), (one, one_min))) = one_sample {
                    println!(
                        "  conv {shape} b{batch} filter_grad kernel alone: batch call {:.3} ms, \
                         one sample per call {:.3} ms, {:.2}x",
                        batched * 1e3,
                        one * 1e3,
                        one / batched
                    );
                    if let serde_json::Value::Object(row) = &mut row {
                        row.insert("dw_batch_call_ms".into(), json!(batched * 1e3));
                        row.insert("dw_one_sample_ms".into(), json!(one * 1e3));
                        row.insert("speedup_vs_one_sample".into(), json!(one / batched));
                    }
                    if batch == 32 && kernel_tier() == KernelTier::Avx512 {
                        pair_gate = Some(one_min / batched_min);
                    }
                }
                conv_results.push(row);
            }
        }
    }

    // The 3×3 kernels on what the paper model sees: 32 mapped CabLike
    // scripts at conv1 (a few of the 64 grid rows filled, the rest +0), and
    // their conv1 output after ReLU + pool at conv2 (a bottom run of equal
    // rows), each against the same kernel on a same-shape uniform input,
    // which has no two equal rows. Forward one sample after another; dW
    // over the batch in one call, told that dY is finite as `Conv2d` tells
    // it. The two sides alternate rep by rep.
    let trace = prionn_bench::support::cab_trace(200);
    let scripts: Vec<&str> = trace
        .executed_jobs()
        .map(|j| j.script.as_str())
        .take(32)
        .collect();
    let mapper = Prionn::new(PrionnConfig::default(), &scripts).unwrap();
    let conv1_in = mapper.map_scripts(&scripts).unwrap();
    let mut filled_rows: Vec<usize> = conv1_in
        .as_slice()
        .chunks_exact(4 * 64 * 64)
        .map(|x| {
            let row_zero = |r: usize| {
                (0..4).all(|c| {
                    x[(c * 64 + r) * 64..][..64]
                        .iter()
                        .all(|v| v.to_bits() == 0)
                })
            };
            (0..64).rev().find(|&r| !row_zero(r)).map_or(0, |r| r + 1)
        })
        .collect();
    filled_rows.sort_unstable();
    let (g1, g2) = (
        Conv2dGeom::new(4, 64, 64, 3, 3, 1, 1).unwrap(),
        Conv2dGeom::new(8, 32, 32, 3, 3, 1, 1).unwrap(),
    );
    let (w1, b1) = (
        init::uniform([8, 36], -1.0, 1.0, &mut rng),
        init::uniform([8], -1.0, 1.0, &mut rng),
    );
    let (w2, b2) = (
        init::uniform([16, 72], -1.0, 1.0, &mut rng),
        init::uniform([16], -1.0, 1.0, &mut rng),
    );
    let conv2_in = {
        let mut ws = GemmWorkspace::new();
        let mut y1 = vec![0.0f32; 32 * 8 * 64 * 64];
        for (x, y) in conv1_in
            .as_slice()
            .chunks_exact(4 * 64 * 64)
            .zip(y1.chunks_exact_mut(8 * 64 * 64))
        {
            conv3x3::forward(&mut ws, &g1, w1.as_slice(), b1.as_slice(), x, y);
        }
        let y1 = Tensor::from_vec([32, 8, 64, 64], y1).unwrap();
        ReluPool::new()
            .forward(&y1, false, &mut Scratch::new())
            .unwrap()
    };
    let mut script_rows_results = Vec::new();
    let mut script_rows_gate = None;
    for (layer, pass) in [
        ("conv1", "forward"),
        ("conv2", "forward"),
        ("conv1", "filter_grad"),
    ] {
        let (g, w, bias, scripts_in) = match layer {
            "conv1" => (&g1, &w1, &b1, &conv1_in),
            _ => (&g2, &w2, &b2, &conv2_in),
        };
        let (w, bias) = (w.as_slice(), bias.as_slice());
        let out_c = bias.len();
        let (x_len, y_len) = (g.in_channels * g.col_cols(), out_c * g.col_cols());
        let mut ws = GemmWorkspace::new();
        let mut dw = vec![0.0f32; out_c * g.col_rows()];
        for batch in [1usize, 32] {
            let script_x = &scripts_in.as_slice()[..batch * x_len];
            let uniform_x = init::uniform([batch * x_len], -1.0, 1.0, &mut rng);
            let dy = init::uniform([batch * y_len], -1.0, 1.0, &mut rng);
            let mut y = vec![0.0f32; batch * y_len];
            let mut run = |x: &[f32]| {
                if pass == "filter_grad" {
                    conv3x3::filter_grad(&mut ws, g, dy.as_slice(), x, &mut dw, true);
                } else {
                    for (x, y) in x.chunks_exact(x_len).zip(y.chunks_exact_mut(y_len)) {
                        conv3x3::forward(&mut ws, g, w, bias, x, y);
                    }
                }
                std::hint::black_box((&y, &dw));
            };
            let reps = if batch == 1 {
                gemm_reps * 20
            } else {
                gemm_reps * 2
            };
            let (mut on_scripts, mut on_uniform) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                let t = Instant::now();
                run(script_x);
                on_scripts.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                run(uniform_x.as_slice());
                on_uniform.push(t.elapsed().as_secs_f64());
            }
            for v in [&mut on_scripts, &mut on_uniform] {
                v.sort_by(|a, b| a.total_cmp(b));
            }
            let (scripts_ms, uniform_ms) = (on_scripts[reps / 2] * 1e3, on_uniform[reps / 2] * 1e3);
            let min_ratio = on_scripts[0] / on_uniform[0];
            println!(
                "  conv_script_rows {layer} b{batch} {pass}: scripts {scripts_ms:.3} ms, \
                 uniform input {uniform_ms:.3} ms, {:.2}x",
                scripts_ms / uniform_ms
            );
            if (layer, pass, batch) == ("conv1", "filter_grad", 32) {
                script_rows_gate = Some(min_ratio);
            }
            script_rows_results.push(json!({
                "layer": layer,
                "pass": pass,
                "batch": batch,
                "scripts_ms": scripts_ms,
                "uniform_ms": uniform_ms,
                "ratio": scripts_ms / uniform_ms,
                "min_of_reps_ratio": min_ratio,
            }));
        }
    }
    let script_rows_gate = script_rows_gate.expect("conv1 b32 dW timed");

    // Each conv stage of the paper's 2D-CNN as the model runs it — the conv
    // with its ReLU + 2×2 max pool folded into the write-back — beside the
    // same conv followed by a `ReluPool` layer, on the same input and
    // weights, at the serving and the retrain batch size: a training
    // forward, then backward with dX, the two sides alternating rep by rep,
    // each on its own scratch pool. Both shard samples over the compute pool.
    let mut stage_results = Vec::new();
    let mut stage_gate = f64::INFINITY;
    for &(layer, in_c, out_c, hw) in &[
        ("conv1", 4usize, 8usize, 64usize),
        ("conv2", 8, 16, 32),
        ("conv3", 16, 16, 16),
        ("conv4", 16, 32, 8),
    ] {
        let shape = format!("{in_c}->{out_c}@{hw}x{hw}");
        let build = || {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            Conv2d::new(in_c, out_c, hw, hw, 3, 1, 1, &mut rng).unwrap()
        };
        for &batch in &[1usize, 32] {
            let x = init::uniform([batch, in_c, hw, hw], -1.0, 1.0, &mut rng);
            let dy = init::uniform([batch, out_c, hw / 2, hw / 2], -1.0, 1.0, &mut rng);
            let mut stage = build().with_relu_pool(ReluPool::new()).unwrap();
            let (mut conv, mut pool) = (build(), ReluPool::new());
            let (mut stage_scratch, mut pair_scratch) = (Scratch::new(), Scratch::new());
            // The two sides do the same arithmetic and differ by memory
            // traffic only, so the gate's ratio sits near 1: the same many
            // reps in either mode, for a floor that noise cannot tip.
            let reps = if batch == 1 { 400 } else { 40 };
            // (forward, backward) seconds per rep, for each side.
            let (mut folded, mut pair) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                let s = &mut stage_scratch;
                let t = Instant::now();
                let y = stage.forward(&x, true, s).unwrap();
                let fwd = t.elapsed().as_secs_f64();
                let dx = stage.backward(&dy, s).unwrap();
                folded.push((fwd, t.elapsed().as_secs_f64() - fwd));
                s.recycle_tensor(y);
                s.recycle_tensor(dx);

                let s = &mut pair_scratch;
                let t = Instant::now();
                let conv_y = conv.forward(&x, true, s).unwrap();
                let y = pool.forward(&conv_y, true, s).unwrap();
                s.recycle_tensor(conv_y);
                let fwd = t.elapsed().as_secs_f64();
                let conv_dy = pool.backward(&dy, s).unwrap();
                let dx = conv.backward(&conv_dy, s).unwrap();
                pair.push((fwd, t.elapsed().as_secs_f64() - fwd));
                s.recycle_tensor(conv_dy);
                s.recycle_tensor(y);
                s.recycle_tensor(dx);
            }
            // Median forward, median backward and min-of-reps total, in ms.
            let summary = |v: &[(f64, f64)]| {
                let median = |mut t: Vec<f64>| {
                    t.sort_by(|a, b| a.total_cmp(b));
                    t[t.len() / 2] * 1e3
                };
                let min_total = v.iter().map(|(f, b)| f + b).fold(f64::INFINITY, f64::min);
                (
                    median(v.iter().map(|r| r.0).collect()),
                    median(v.iter().map(|r| r.1).collect()),
                    min_total * 1e3,
                )
            };
            let (stage_fwd, stage_bwd, stage_min) = summary(&folded);
            let (pair_fwd, pair_bwd, pair_min) = summary(&pair);
            let ratio = (stage_fwd + stage_bwd) / (pair_fwd + pair_bwd);
            println!(
                "  conv_stage {layer} {shape} b{batch}: folded {stage_fwd:.3} + {stage_bwd:.3} ms, \
                 conv + relu_pool {pair_fwd:.3} + {pair_bwd:.3} ms, {ratio:.2}x \
                 (min-of-reps {:.2}x)",
                stage_min / pair_min
            );
            if (layer, batch) == ("conv1", 32) {
                stage_gate = stage_min / pair_min;
            }
            stage_results.push(json!({
                "layer": layer,
                "shape": shape.as_str(),
                "batch": batch,
                "folded_forward_ms": stage_fwd,
                "folded_backward_ms": stage_bwd,
                "pair_forward_ms": pair_fwd,
                "pair_backward_ms": pair_bwd,
                "ratio": ratio,
                "min_of_reps_ratio": stage_min / pair_min,
            }));
        }
    }

    // One optimiser step of the paper's 2D-CNN head: 4-channel 64×64 input,
    // batch 32, 960 runtime bins — the shape PRIONN retrains on.
    let cfg = ArchConfig::paper(4, 960);
    let mut model = cfg.build(ModelKind::Cnn2d).unwrap();
    let x = init::uniform(
        [32, 4, 64, 64],
        -1.0,
        1.0,
        &mut ChaCha8Rng::seed_from_u64(3),
    );
    let classes: Vec<usize> = (0..32).map(|i| i * 30).collect();
    let target = LossTarget::Classes(&classes);
    let loss = SoftmaxCrossEntropy;
    let mut opt = Sgd::new(0.01);
    // Warm-up populates the scratch pool; steady-state steps are then
    // allocation-free (asserted below via the grow counter).
    for _ in 0..2 {
        model.train_batch(&x, &target, &loss, &mut opt).unwrap();
    }
    let warm_grows = model.scratch_stats().grows;
    let train_secs = time_med(train_reps, || {
        model.train_batch(&x, &target, &loss, &mut opt).unwrap();
    });
    let steady_grows = model.scratch_stats().grows;
    let stats = model.scratch_stats();
    println!(
        "  train_step_2dcnn_64x64_b32: {:.2} ms  (gemm {:.2} GFLOP/s, pack share {:.2}, pool grows after warmup: {})",
        train_secs * 1e3,
        stats.gemm_gflops(),
        stats.gemm_pack_share(),
        steady_grows - warm_grows
    );

    let pre_pr_train_ms = 207.00;
    let pre_pr_256_plain_ms = 2.641;
    // Pre-SIMD baseline: the blocked kernel at 256³, measured on this
    // machine immediately before the explicit AVX2/AVX-512 microkernels
    // landed. The SIMD gate is anchored here, not on a same-run
    // measurement, so dispatch regressions (e.g. the microkernel silently
    // falling back) fail loudly.
    let pre_simd_256_blocked_ms = 0.734;
    let pre_simd_256_blocked_gflops = 45.68;
    let simd_available = kernel_tier() != KernelTier::Portable;
    let simd_speedup_256 = pre_simd_256_blocked_ms / simd_256_min_ms;
    // Best-of-reps blocked time vs the frozen pre-PR naive median: the min
    // is the noise-robust side of the ratio on a shared box.
    let speedup_256_vs_pre_pr = pre_pr_256_plain_ms / blocked_256_ms;
    let report = json!({
        "bench": "kernels",
        "mode": mode,
        "dispatched_tier": kernel_tier().name(),
        // The train step shards conv samples across the compute pool, so
        // its time depends on the host's core count.
        "cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "gemm": gemm_results,
        "fused_epilogues": fused_results,
        "kernel_tiers": tier_results,
        "conv_roofline": {
            "note": "one core: min-of-reps serial 256^3 gemm and copy loop, measured in this run",
            "peak_gflops": peak_gflops,
            "copy_gbs": copy_gbs,
        },
        "conv_lowering": conv_results,
        "conv_stage": {
            "note": "each conv stage, the conv with ReLU + 2x2 pool folded into its write-back, against the same conv followed by a ReluPool layer; training forward then backward with dX; both shard samples over the compute pool",
            "rows": stage_results,
        },
        "conv_script_rows": {
            "note": "32 mapped CabLike scripts (conv1) and their conv1 output after ReLU + pool (conv2), against a same-shape uniform input; one core",
            "filled_rows": {
                "min": filled_rows[0],
                "median": filled_rows[filled_rows.len() / 2],
                "max": filled_rows[filled_rows.len() - 1],
            },
            "rows": script_rows_results,
        },
        "train_step_2dcnn_64x64_b32": {
            "ms": train_secs * 1e3,
            "pre_pr_ms": pre_pr_train_ms,
            "speedup_vs_pre_pr": pre_pr_train_ms / (train_secs * 1e3),
            "scratch_grows_after_warmup": steady_grows - warm_grows,
            "gemm_gflops": stats.gemm_gflops(),
            "gemm_pack_share": stats.gemm_pack_share(),
        },
        "pre_pr_baseline": {
            "note": "naive kernels measured on the same machine immediately before blocking landed",
            "matmul_gflops": {
                "64":  { "plain": 9.22,  "a_bt": 3.81, "at_b": 9.08 },
                "128": { "plain": 13.14, "a_bt": 3.34, "at_b": 11.15 },
                "256": { "plain": 12.71, "a_bt": 3.18, "at_b": 12.98 },
            },
            "matmul_256_ms": { "plain": 2.641, "a_bt": 10.554, "at_b": 2.585 },
            "train_step_2dcnn_64x64_b32_ms": pre_pr_train_ms,
        },
        "pre_simd_baseline": {
            "note": "autovec blocked kernel measured on the same machine immediately before the SIMD microkernels landed",
            "matmul_256_ms": pre_simd_256_blocked_ms,
            "matmul_256_gflops": pre_simd_256_blocked_gflops,
        },
        "speedup_256_plain_vs_pre_pr": speedup_256_vs_pre_pr,
        "simd_speedup_256_vs_pre_simd": if simd_available { json!(simd_speedup_256) } else { json!(null) },
    });

    // Cargo runs bench binaries with the package dir as CWD; default to the
    // workspace root so the committed JSON lands next to README.md.
    let out = std::env::var("BENCH_KERNELS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").into()
    });
    std::fs::write(&out, serde_json::to_string_pretty(&report).unwrap()).unwrap();
    println!("wrote {out}");

    if enforce {
        let mut failed = false;
        if speedup_256_vs_pre_pr < 3.0 {
            eprintln!(
                "FAIL: blocked 256^3 GEMM {blocked_256_ms:.3} ms is only \
                 {speedup_256_vs_pre_pr:.2}x the pre-PR naive {pre_pr_256_plain_ms} ms (< 3.0x floor)"
            );
            failed = true;
        }
        if simd_available {
            if simd_speedup_256 < 1.8 {
                eprintln!(
                    "FAIL: best SIMD tier 256^3 GEMM {simd_256_min_ms:.3} ms is only \
                     {simd_speedup_256:.2}x the pre-SIMD blocked {pre_simd_256_blocked_ms} ms (< 1.8x floor)"
                );
                failed = true;
            } else {
                println!(
                    "enforce: SIMD 256^3 speedup {simd_speedup_256:.2}x >= 1.8x vs pre-SIMD blocked"
                );
            }
        } else {
            println!("enforce: no AVX2 on this host, SIMD gate skipped");
        }
        // Regression guard: min-of-reps blocked must beat min-of-reps
        // naive at every measured size (this caught the n=64 small-matrix
        // regression the skip-packing path fixed).
        for (name, n, bm, nm) in &pair_mins {
            if bm > nm {
                eprintln!(
                    "FAIL: {name} {n}^3 blocked min {bm:.3} ms slower than naive min {nm:.3} ms"
                );
                failed = true;
            }
        }
        for (shape, speedup) in &forward_gate {
            if *speedup < 1.5 {
                eprintln!(
                    "FAIL: direct forward {shape} b32 is only {speedup:.2}x its GEMM lowering (< 1.5x floor)"
                );
                failed = true;
            }
        }
        if stage_gate > 1.0 {
            eprintln!(
                "FAIL: the conv1 b32 stage with ReLU + pool folded in takes {stage_gate:.2}x \
                 the conv followed by a relu_pool layer (> 1.0x ceiling)"
            );
            failed = true;
        }
        match pair_gate {
            Some(speedup) if speedup < 1.3 => {
                eprintln!(
                    "FAIL: conv1 b32 filter gradient in pairs is only {speedup:.2}x \
                     the one-sample calls (< 1.3x floor)"
                );
                failed = true;
            }
            Some(_) => {}
            None => println!("enforce: conv1 runs no pairs on this tier, pair gate skipped"),
        }
        if script_rows_gate > 0.5 {
            eprintln!(
                "FAIL: conv1 b32 filter gradient on mapped scripts is {script_rows_gate:.2}x \
                 the same kernel on a uniform input (> 0.5x ceiling)"
            );
            failed = true;
        }
        if steady_grows != warm_grows {
            eprintln!("FAIL: steady-state train step grew the scratch pool");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "enforce: 256^3 speedup {speedup_256_vs_pre_pr:.2}x >= 3.0x vs pre-PR naive, \
             blocked >= naive at every size, direct conv1-3 forward >= 1.5x, \
             conv1 b32 stage {stage_gate:.2}x the conv + relu_pool (<= 1.0x), conv1 b32 pairs {} the one-sample \
             calls, conv1 b32 dW on scripts {script_rows_gate:.2}x a uniform input (<= 0.5x), \
             zero-alloc hot path OK",
            pair_gate.map_or("not run against".into(), |s| format!("{s:.2}x (>= 1.3x)"))
        );
    }
}
