//! `Conv2d` against two references: bit-for-bit against the lowering on a
//! materialised cols matrix (`im2col_into` + `gemm` + `col2im_into`) at the
//! paper's shapes, at geometries that stress the panel generator, and over
//! a sweep of the 3×3 / stride 1 / pad 1 geometries the direct kernels
//! take (non-finite operands included); and — property-tested, within
//! tolerance — against a naive direct convolution across random
//! geometries.

use prionn_nn::layer::Conv2d;
use prionn_nn::Layer;
use prionn_tensor::ops::gemm::{self, Epilogue, GemmWorkspace, KernelTier, Layout};
use prionn_tensor::ops::{col2im_into, conv3x3, im2col_into, Conv2dGeom};
use prionn_tensor::{Scratch, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Direct convolution: out[b][oc][oy][ox] =
///   bias[oc] + sum_{ic,ky,kx} w[oc][ic][ky][kx] * x[b][ic][oy*s+ky-p][ox*s+kx-p]
#[allow(clippy::too_many_arguments)]
fn naive_conv(
    x: &Tensor,
    w: &Tensor, // [out_c, in_c*kh*kw]
    bias: &[f32],
    in_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let (batch, h, wid) = (x.dims()[0], x.dims()[2], x.dims()[3]);
    let out_c = w.dims()[0];
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (wid + 2 * pad - k) / stride + 1;
    let xs = x.as_slice();
    let ws = w.as_slice();
    let mut out = vec![0.0f32; batch * out_c * oh * ow];
    for b in 0..batch {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= wid as isize {
                                    continue;
                                }
                                let xv =
                                    xs[((b * in_c + ic) * h + iy as usize) * wid + ix as usize];
                                let wv = ws[oc * (in_c * k * k) + (ic * k + ky) * k + kx];
                                acc += xv * wv;
                            }
                        }
                    }
                    out[((b * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv2d_matches_naive_reference(
        in_c in 1usize..3,
        out_c in 1usize..4,
        h in 4usize..10,
        wid in 4usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..500,
    ) {
        prop_assume!(h + 2 * pad >= k && wid + 2 * pad >= k);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut conv =
            Conv2d::new(in_c, out_c, h, wid, k, stride, pad, &mut rng).unwrap();
        // Give the layer a random bias too (state round-trip sets it).
        let mut state = conv.state();
        state[1] = prionn_tensor::init::uniform([out_c], -1.0, 1.0, &mut rng);
        conv.load_state(&state).unwrap();

        let x = prionn_tensor::init::uniform([2, in_c, h, wid], -1.0, 1.0, &mut rng);
        let fast = conv
            .forward(&x, false, &mut prionn_tensor::Scratch::new())
            .unwrap();
        let naive = naive_conv(&x, &state[0], state[1].as_slice(), in_c, k, stride, pad);
        prop_assert_eq!(fast.len(), naive.len());
        for (i, (a, b)) in fast.as_slice().iter().zip(&naive).enumerate() {
            prop_assert!((a - b).abs() < 1e-4, "elem {i}: {a} vs {b}");
        }
    }
}

/// Held by every test that forces a kernel tier (a process-wide switch):
/// a bit comparison must run both sides on one tier.
static TIER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tier_lock() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in one holder must not fail the others.
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The first element whose bits differ, a NaN matching any NaN: NaN
/// payloads follow operand order, which neither side pins.
fn first_difference(got: &[f32], want: &[f32]) -> Option<usize> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
}

/// What `Conv2d` computed before it stopped materialising cols: per sample
/// `im2col_into`, `y = W·cols + b`, `dW += dY·colsᵀ`, `dX = col2im(Wᵀ·dY)`,
/// with `dW`/`db` accumulated per worker group and the groups then summed
/// in order — the layer's reduction, which depends only on
/// `(batch, current_num_threads())`.
fn materialised_reference(
    g: &Conv2dGeom,
    w: &[f32],
    b: &[f32],
    x: &[f32],
    dy: &[f32],
    batch: usize,
) -> [Vec<f32>; 4] {
    let out_c = b.len();
    let (col_rows, n_pos) = (g.col_rows(), g.col_cols());
    let sample_len = x.len() / batch;
    let out_sample = out_c * n_pos;
    let groups = rayon::current_num_threads().min(batch).max(1);
    let per = batch.div_ceil(groups);
    let mut ws = GemmWorkspace::new();
    let mut cols = vec![0.0f32; col_rows * n_pos];
    let mut dcols = vec![0.0f32; col_rows * n_pos];
    let mut y = vec![0.0f32; batch * out_sample];
    let mut dx = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; out_c * col_rows];
    let mut db = vec![0.0f32; out_c];
    for group in (0..batch).step_by(per) {
        let mut dw_part = vec![0.0f32; out_c * col_rows];
        let mut db_part = vec![0.0f32; out_c];
        for i in group..(group + per).min(batch) {
            let x_i = &x[i * sample_len..(i + 1) * sample_len];
            let dy_i = &dy[i * out_sample..(i + 1) * out_sample];
            im2col_into(x_i, g, &mut cols).unwrap();
            gemm::gemm(
                &mut ws,
                out_c,
                n_pos,
                col_rows,
                w,
                Layout::RowMajor,
                &cols,
                Layout::RowMajor,
                &mut y[i * out_sample..(i + 1) * out_sample],
                false,
                Epilogue::BiasRow(b),
            );
            gemm::gemm(
                &mut ws,
                out_c,
                col_rows,
                n_pos,
                dy_i,
                Layout::RowMajor,
                &cols,
                Layout::Transposed,
                &mut dw_part,
                true,
                Epilogue::None,
            );
            for (oc, acc) in db_part.iter_mut().enumerate() {
                for &v in &dy_i[oc * n_pos..(oc + 1) * n_pos] {
                    *acc += v;
                }
            }
            gemm::gemm(
                &mut ws,
                col_rows,
                n_pos,
                out_c,
                w,
                Layout::Transposed,
                dy_i,
                Layout::RowMajor,
                &mut dcols,
                false,
                Epilogue::None,
            );
            col2im_into(&dcols, g, &mut dx[i * sample_len..(i + 1) * sample_len]).unwrap();
        }
        for (acc, v) in dw.iter_mut().zip(&dw_part) {
            *acc += v;
        }
        for (acc, v) in db.iter_mut().zip(&db_part) {
            *acc += v;
        }
    }
    [y, dw, db, dx]
}

/// The four 2D-CNN layers of the paper's model, the two strided `1×k`
/// layers of `build_cnn1d`, and shapes chosen to break a panel generator:
/// ragged last strips with output rows shorter than a strip, a rectangular
/// kernel with unequal padding, stride 2 and 3, a kernel wider than the
/// image plus its padding on one side, enough channels for two K blocks
/// (`k = 288`), and enough output channels for two K blocks of the dX GEMM
/// (`out_c = 300`).
fn geometries() -> Vec<(Conv2dGeom, usize)> {
    let g =
        |c, h, w, kh, kw, s, ph, pw| Conv2dGeom::with_padding(c, h, w, kh, kw, s, ph, pw).unwrap();
    vec![
        (g(4, 64, 64, 3, 3, 1, 1, 1), 8),
        (g(8, 32, 32, 3, 3, 1, 1, 1), 16),
        (g(16, 16, 16, 3, 3, 1, 1, 1), 16),
        (g(16, 8, 8, 3, 3, 1, 1, 1), 32),
        (g(4, 1, 4096, 1, 7, 4, 0, 3), 8),
        (g(8, 1, 512, 1, 5, 4, 0, 2), 16),
        (g(3, 7, 11, 2, 5, 1, 0, 2), 5),
        (g(2, 9, 13, 3, 2, 2, 1, 0), 7),
        (g(2, 10, 5, 3, 3, 3, 2, 2), 3),
        (g(1, 3, 2, 3, 5, 1, 1, 2), 2),
        (g(32, 6, 6, 3, 3, 1, 1, 1), 9),
        (g(2, 5, 7, 3, 3, 1, 1, 1), 300),
    ]
}

/// Forward then backward of `conv` on `x` / `dy` under the current tier,
/// each of y, dW, db and dX (and the eval forward's y) bit-compared with
/// [`materialised_reference`]. Returns the reference.
fn assert_matches_reference(
    conv: &mut Conv2d,
    g: &Conv2dGeom,
    x: &Tensor,
    dy: &Tensor,
    what: &str,
) -> [Vec<f32>; 4] {
    let state = conv.state();
    let batch = x.dims()[0];
    let want = materialised_reference(
        g,
        state[0].as_slice(),
        state[1].as_slice(),
        x.as_slice(),
        dy.as_slice(),
        batch,
    );
    let mut scratch = Scratch::new();
    let y = conv.forward(x, true, &mut scratch).unwrap();
    let dx = conv.backward(dy, &mut scratch).unwrap();
    let mut grads = Vec::new();
    conv.visit_params(&mut |_, grad| grads.push(grad.clone()));
    // The eval forward is the same code; pin it anyway.
    let y_eval = conv.forward(x, false, &mut scratch).unwrap();
    let got = [
        y.as_slice(),
        grads[0].as_slice(),
        grads[1].as_slice(),
        dx.as_slice(),
        y_eval.as_slice(),
    ];
    let tier = gemm::kernel_tier().name();
    for (name, (got, want)) in ["y", "dW", "db", "dX", "eval y"]
        .iter()
        .zip(got.iter().zip(want.iter().chain([&want[0]])))
    {
        if let Some(i) = first_difference(got, want) {
            panic!(
                "{name} differs at {i} ({} vs {}): tier {tier}, {what}, batch {batch}",
                got[i], want[i]
            );
        }
    }
    want
}

/// A layer on `g` with seeded weights and a random bias.
fn layer(g: Conv2dGeom, out_c: usize, rng: &mut ChaCha8Rng) -> Conv2d {
    let mut conv = Conv2d::from_geom(g, out_c, rng).unwrap();
    let mut state = conv.state();
    state[1] = prionn_tensor::init::uniform([out_c], -1.0, 1.0, rng);
    conv.load_state(&state).unwrap();
    conv
}

/// Uniform `[-1, 1)` input and output gradient for `batch` samples.
fn operands(g: &Conv2dGeom, out_c: usize, batch: usize, rng: &mut ChaCha8Rng) -> (Tensor, Tensor) {
    let x = prionn_tensor::init::uniform([batch, g.in_channels, g.in_h, g.in_w], -1.0, 1.0, rng);
    let dy = prionn_tensor::init::uniform([batch, out_c, g.out_h(), g.out_w()], -1.0, 1.0, rng);
    (x, dy)
}

const TIERS: [KernelTier; 3] = [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Portable];

#[test]
fn conv2d_is_bit_equal_to_the_materialised_cols_lowering_on_every_tier() {
    let _tier = tier_lock();
    for tier in TIERS {
        // Forcing a tier is process-wide; the proptest above compares
        // within a tolerance every tier meets, so it may run beside this.
        gemm::force_kernel_tier(Some(tier));
        for (gi, (g, out_c)) in geometries().into_iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(100 + gi as u64);
            let mut conv = layer(g, out_c, &mut rng);
            for batch in 1..=5usize {
                let (x, dy) = operands(&g, out_c, batch, &mut rng);
                let what = format!("geometry {gi} ({g:?})");
                assert_matches_reference(&mut conv, &g, &x, &dy, &what);
            }
        }
    }
    gemm::force_kernel_tier(None);
}

/// The direct 3×3 kernels over every width the tiles treat differently
/// (whole vectors of 8 and 16 lanes, masked tails, rows left over by the
/// row tiles) and a non-square image whose width is no multiple of 8 (a
/// tail on every tier), every `in_c` and `out_c` of the
/// sweep (whole channel tiles, remainders, and `out_c` over a vector),
/// batches 1-5, on every tier. Each width takes seven `(in_c, out_c)`
/// pairs, so every value of each list meets every width; the two largest
/// images run batch 1 only, which keeps a debug-build run short.
#[test]
fn direct_3x3_kernels_are_bit_equal_to_the_materialised_lowering_across_a_sweep() {
    const IN_C: [usize; 5] = [1, 3, 4, 8, 16];
    const OUT_C: [usize; 7] = [1, 5, 8, 16, 17, 32, 33];
    let images = [(8, 8), (16, 16), (24, 24), (40, 40), (64, 64), (13, 21)];
    let _tier = tier_lock();
    for tier in TIERS {
        gemm::force_kernel_tier(Some(tier));
        for (ii, &(h, w)) in images.iter().enumerate() {
            for (ci, &out_c) in OUT_C.iter().enumerate() {
                let in_c = IN_C[(ii + ci) % IN_C.len()];
                let batch = if h * w > 600 { 1 } else { 1 + (ii + ci) % 5 };
                let g = Conv2dGeom::new(in_c, h, w, 3, 3, 1, 1).unwrap();
                assert!(conv3x3::applies(&g));
                let mut rng = ChaCha8Rng::seed_from_u64((ii * 10 + ci) as u64);
                let mut conv = layer(g, out_c, &mut rng);
                let (x, dy) = operands(&g, out_c, batch, &mut rng);
                let what = format!("{in_c}->{out_c}@{h}x{w}");
                assert_matches_reference(&mut conv, &g, &x, &dy, &what);
            }
        }
    }
    gemm::force_kernel_tier(None);
}

/// Infinite filter taps and a NaN in dY. The forward multiplies the
/// padding zeros like the cols matrix does (inf · 0 = NaN at the border);
/// the input gradient must *skip* a tap whose dY position lies outside the
/// output, as `col2im` does, and never multiply padding — or a border pixel
/// turns NaN where the reference has a number.
#[test]
fn non_finite_operands_keep_the_reference_bits_and_the_dx_border_rule() {
    let g = Conv2dGeom::new(3, 10, 24, 3, 3, 1, 1).unwrap();
    let out_c = 5;
    let _tier = tier_lock();
    for tier in TIERS {
        gemm::force_kernel_tier(Some(tier));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut conv = layer(g, out_c, &mut rng);
        let mut state = conv.state();
        let k = g.col_rows();
        let w = state[0].as_mut_slice();
        // Tap (0, 0) of channel 0 for output 0, tap (2, 2) of channel 2 for
        // output 3, tap (1, 0) of channel 1 for output 4.
        w[0] = f32::INFINITY;
        w[3 * k + 2 * 9 + 8] = f32::NEG_INFINITY;
        w[4 * k + 9 + 3] = f32::INFINITY;
        conv.load_state(&state).unwrap();
        let (x, mut dy) = operands(&g, out_c, 2, &mut rng);
        // One NaN inside sample 1's gradient of output 2.
        let plane = g.in_h * g.in_w;
        dy.as_mut_slice()[(out_c + 2) * plane + 4 * g.in_w + 7] = f32::NAN;
        let want = assert_matches_reference(&mut conv, &g, &x, &dy, "non-finite operands");
        // The case is live: the reference's dX has NaN, ±inf and finite
        // pixels, and sample 0's last image row (where the inf tap (0, 0)
        // has no dY row to read) stays finite.
        let dx = &want[3];
        assert!(dx.iter().any(|v| v.is_nan()));
        assert!(dx.iter().any(|v| v.is_infinite()));
        assert!(dx.iter().any(|v| v.is_finite()));
        let last_row = &dx[(g.in_h - 1) * g.in_w..plane];
        assert!(last_row.iter().all(|v| v.is_finite()), "{last_row:?}");
        assert!(want[0].iter().any(|v| v.is_nan()), "inf times padding");
    }
    gemm::force_kernel_tier(None);
}
