//! Tier-1 guard for the convolution kernels: the paper's four 3×3 convs
//! (the 2D-CNN at a 64×64 grid, word2vec dim 4, base width 8), forward and
//! full backward at batch 2 on the dispatched kernel tier, bit-equal to the
//! lowering on a materialised cols matrix (`im2col_into` + `gemm` +
//! `col2im_into`). The crate suite `prionn-nn/tests/conv_reference.rs`
//! sweeps more shapes on every tier; this file makes the unchanged
//! `cargo test -q` fail when a kernel drifts.

use prionn::nn::layer::Conv2d;
use prionn::nn::Layer;
use prionn::tensor::ops::gemm::{self, Epilogue, GemmWorkspace, Layout};
use prionn::tensor::ops::{col2im_into, im2col_into, Conv2dGeom};
use prionn::tensor::{init, Scratch};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `[y, dW, db, dX]` of the materialised lowering: per sample `im2col_into`,
/// `y = W·cols + b`, `dW += dY·colsᵀ`, `db += row sums of dY`,
/// `dX = col2im(Wᵀ·dY)`, with `dW` / `db` accumulated per worker group and
/// the groups then summed in order, as `Conv2d` reduces them.
fn materialised(g: &Conv2dGeom, w: &[f32], b: &[f32], x: &[f32], dy: &[f32]) -> [Vec<f32>; 4] {
    let (out_c, k, n) = (b.len(), g.col_rows(), g.col_cols());
    let (x_len, y_len) = (g.in_channels * g.in_h * g.in_w, out_c * n);
    let batch = x.len() / x_len;
    let per = batch.div_ceil(rayon::current_num_threads().min(batch));
    let mut ws = GemmWorkspace::new();
    let (mut cols, mut dcols) = (vec![0.0; k * n], vec![0.0; k * n]);
    let (mut y, mut dx) = (vec![0.0; batch * y_len], vec![0.0; x.len()]);
    let (mut dw, mut db) = (vec![0.0f32; out_c * k], vec![0.0f32; out_c]);
    for group in (0..batch).step_by(per) {
        let (mut dw_part, mut db_part) = (vec![0.0f32; out_c * k], vec![0.0f32; out_c]);
        for i in group..(group + per).min(batch) {
            let dy_i = &dy[i * y_len..(i + 1) * y_len];
            im2col_into(&x[i * x_len..(i + 1) * x_len], g, &mut cols).unwrap();
            let y_i = &mut y[i * y_len..(i + 1) * y_len];
            let (rm, tr) = (Layout::RowMajor, Layout::Transposed);
            gemm::gemm(
                &mut ws,
                out_c,
                n,
                k,
                w,
                rm,
                &cols,
                rm,
                y_i,
                false,
                Epilogue::BiasRow(b),
            );
            gemm::gemm(
                &mut ws,
                out_c,
                k,
                n,
                dy_i,
                rm,
                &cols,
                tr,
                &mut dw_part,
                true,
                Epilogue::None,
            );
            for (acc, row) in db_part.iter_mut().zip(dy_i.chunks_exact(n)) {
                for &v in row {
                    *acc += v;
                }
            }
            gemm::gemm(
                &mut ws,
                k,
                n,
                out_c,
                w,
                tr,
                dy_i,
                rm,
                &mut dcols,
                false,
                Epilogue::None,
            );
            col2im_into(&dcols, g, &mut dx[i * x_len..(i + 1) * x_len]).unwrap();
        }
        dw.iter_mut().zip(&dw_part).for_each(|(acc, v)| *acc += v);
        db.iter_mut().zip(&db_part).for_each(|(acc, v)| *acc += v);
    }
    [y, dw, db, dx]
}

#[test]
fn paper_convs_forward_and_backward_are_bit_equal_to_the_materialised_lowering() {
    let batch = 2;
    // conv1..conv4: (in_c, out_c, side).
    for (li, &(in_c, out_c, side)) in [(4, 8, 64), (8, 16, 32), (16, 16, 16), (16, 32, 8)]
        .iter()
        .enumerate()
    {
        let mut rng = ChaCha8Rng::seed_from_u64(40 + li as u64);
        let mut conv = Conv2d::new(in_c, out_c, side, side, 3, 1, 1, &mut rng).unwrap();
        let mut state = conv.state();
        state[1] = init::uniform([out_c], -1.0, 1.0, &mut rng);
        conv.load_state(&state).unwrap();
        let x = init::uniform([batch, in_c, side, side], -1.0, 1.0, &mut rng);
        let dy = init::uniform([batch, out_c, side, side], -1.0, 1.0, &mut rng);
        let want = materialised(
            conv.geom(),
            state[0].as_slice(),
            state[1].as_slice(),
            x.as_slice(),
            dy.as_slice(),
        );
        let mut scratch = Scratch::new();
        let y = conv.forward(&x, true, &mut scratch).unwrap();
        let dx = conv.backward(&dy, &mut scratch).unwrap();
        let mut grads = Vec::new();
        conv.visit_params(&mut |_, grad| grads.push(grad.clone()));
        let got = [
            y.as_slice(),
            grads[0].as_slice(),
            grads[1].as_slice(),
            dx.as_slice(),
        ];
        for (name, (got, want)) in ["y", "dW", "db", "dX"].iter().zip(got.iter().zip(&want)) {
            let same = got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "conv{} {name} drifted from the materialised lowering on tier {}",
                li + 1,
                gemm::kernel_tier().name()
            );
        }
    }
}
