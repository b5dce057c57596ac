//! Tier-1 guard for the 3×3 kernels' row runs: mapped CabLike scripts fill
//! a few of the 64 grid rows and leave the rest +0, and deeper layers see
//! runs of equal rows. A paper-shaped 2D-CNN trained on them (Adam, warm,
//! two rounds) must give the checkpoint bytes, losses and predictions of a
//! twin whose 3×3 convs are the materialised lowering, which computes
//! every row and position: a per-element im2col written out here, `gemm`
//! and `col2im_into`, partials summed per worker group as `Conv2d` sums them.

use prionn::core::checkpoint::{encode_model, encode_opt_state};
use prionn::core::{Prionn, PrionnConfig};
use prionn::nn::layer::{Dense, Flatten, ReLU, ReluPool, StateView};
use prionn::nn::{
    Adam, ArchConfig, Layer, LossTarget, ModelKind, Optimizer, Sequential, SoftmaxCrossEntropy,
};
use prionn::tensor::ops::gemm::{self, Epilogue, GemmWorkspace, Layout};
use prionn::tensor::ops::{col2im_into, Conv2dGeom};
use prionn::tensor::{Result, Scratch, Tensor};
use prionn::workload::{Trace, TraceConfig, TracePreset};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A 3×3 / stride-1 / pad-1 convolution computed on a materialised cols
/// matrix, every output row and position in full.
struct MaterialisedConv {
    geom: Conv2dGeom,
    w: Tensor,
    b: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    input: Option<Tensor>,
    ws: GemmWorkspace,
}

impl MaterialisedConv {
    fn new(in_c: usize, out_c: usize, side: usize) -> Self {
        MaterialisedConv {
            geom: Conv2dGeom::new(in_c, side, side, 3, 3, 1, 1).unwrap(),
            w: Tensor::zeros([out_c, in_c * 9]),
            b: Tensor::zeros([out_c]),
            grad_w: Tensor::zeros([out_c, in_c * 9]),
            grad_b: Tensor::zeros([out_c]),
            input: None,
            ws: GemmWorkspace::new(),
        }
    }

    /// The im2col matrix of one sample, each entry read on its own.
    fn cols(&self, x: &[f32]) -> Vec<f32> {
        let g = &self.geom;
        let (h, w) = (g.in_h, g.in_w);
        let mut out = vec![0.0; g.col_rows() * h * w];
        for c in 0..g.in_channels {
            for tap in 0..9 {
                let (ky, kx) = (tap / 3, tap % 3);
                for oy in 0..h {
                    for ox in 0..w {
                        let (iy, ix) = ((oy + ky) as isize - 1, (ox + kx) as isize - 1);
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            out[((c * 9 + tap) * h + oy) * w + ox] =
                                x[(c * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaterialisedConv {
    fn forward(&mut self, x: &Tensor, _train: bool, _scratch: &mut Scratch) -> Result<Tensor> {
        let (out_c, k, n) = (self.b.len(), self.geom.col_rows(), self.geom.col_cols());
        let batch = x.dims()[0];
        let mut y = vec![0.0; batch * out_c * n];
        for (x_i, y_i) in x
            .as_slice()
            .chunks_exact(k / 9 * n)
            .zip(y.chunks_exact_mut(out_c * n))
        {
            let cols = self.cols(x_i);
            let (w, b) = (self.w.as_slice(), self.b.as_slice());
            let rm = Layout::RowMajor;
            gemm::gemm(
                &mut self.ws,
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
        }
        self.input = Some(x.clone());
        Tensor::from_vec([batch, out_c, self.geom.in_h, self.geom.in_w], y)
    }

    fn backward(&mut self, grad_out: &Tensor, _scratch: &mut Scratch) -> Result<Tensor> {
        let x = self.input.take().expect("forward before backward");
        let (out_c, k, n) = (self.b.len(), self.geom.col_rows(), self.geom.col_cols());
        let (x_len, y_len) = (k / 9 * n, out_c * n);
        let batch = x.dims()[0];
        // `Conv2d`'s worker groups: one per pool thread, at most one per
        // sample, each summing its own partials from +0.
        let per = batch.div_ceil(rayon::current_num_threads().min(batch).max(1));
        let (dy, xs) = (grad_out.as_slice(), x.as_slice());
        let mut dx = vec![0.0; xs.len()];
        let mut dcols = vec![0.0; k * n];
        self.grad_w.fill_zero();
        self.grad_b.fill_zero();
        for group in (0..batch).step_by(per) {
            let (mut dw, mut db) = (vec![0.0f32; out_c * k], vec![0.0f32; out_c]);
            for i in group..(group + per).min(batch) {
                let dy_i = &dy[i * y_len..(i + 1) * y_len];
                let cols = self.cols(&xs[i * x_len..(i + 1) * x_len]);
                let (rm, tr) = (Layout::RowMajor, Layout::Transposed);
                gemm::gemm(
                    &mut self.ws,
                    out_c,
                    k,
                    n,
                    dy_i,
                    rm,
                    &cols,
                    tr,
                    &mut dw,
                    true,
                    Epilogue::None,
                );
                for (acc, row) in db.iter_mut().zip(dy_i.chunks_exact(n)) {
                    row.iter().for_each(|&v| *acc += v);
                }
                let w = self.w.as_slice();
                gemm::gemm(
                    &mut self.ws,
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
                col2im_into(&dcols, &self.geom, &mut dx[i * x_len..(i + 1) * x_len])?;
            }
            let gw = self.grad_w.as_mut_slice();
            gw.iter_mut().zip(&dw).for_each(|(acc, v)| *acc += v);
            let gb = self.grad_b.as_mut_slice();
            gb.iter_mut().zip(&db).for_each(|(acc, v)| *acc += v);
        }
        Tensor::from_vec(x.dims().to_vec(), dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.w, &self.grad_w);
        f(&mut self.b, &self.grad_b);
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn state_views(&self) -> Vec<StateView<'_>> {
        vec![StateView::of("w", &self.w), StateView::of("b", &self.b)]
    }

    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        vec![self.w.as_mut_slice(), self.b.as_mut_slice()]
    }
}

/// `build_cnn2d`'s layer list with every conv materialised.
fn materialised_cnn2d(cfg: &ArchConfig) -> Sequential {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let w = cfg.base_width;
    let (mut c, mut side) = (cfg.emb_dim, cfg.grid_h);
    let mut m = Sequential::new();
    for out in [w, 2 * w, 2 * w, 4 * w] {
        m = m
            .push(MaterialisedConv::new(c, out, side))
            .push(ReluPool::new());
        (c, side) = (out, side / 2);
    }
    m.push(Flatten::new())
        .push(Dense::new(c * side * side, 32 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(32 * w, 16 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(16 * w, 16 * w, &mut rng))
        .push(ReLU::new())
        .push(Dense::new(16 * w, cfg.classes, &mut rng))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn paper_shaped_training_on_cablike_scripts_gives_the_full_row_bits() {
    let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, 80));
    let jobs: Vec<_> = trace.executed_jobs().take(24).collect();
    let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
    let cfg = PrionnConfig::default();
    let x = Prionn::new(cfg.clone(), &scripts)
        .unwrap()
        .map_scripts(&scripts)
        .unwrap();
    // The case this guards: most of the grid's rows are +0.
    let (c, side) = (x.dims()[1], x.dims()[2]);
    let zero_rows = x
        .as_slice()
        .chunks_exact(c * side * side)
        .map(|sample| {
            (0..side)
                .filter(|&r| {
                    (0..c).all(|ch| {
                        let row = &sample[(ch * side + r) * side..][..side];
                        row.iter().all(|v| v.to_bits() == 0)
                    })
                })
                .count()
        })
        .min()
        .unwrap();
    assert!(zero_rows >= side / 2, "only {zero_rows} zero rows");

    let arch = ArchConfig::paper(c, cfg.runtime_bins);
    let mut direct = arch.build(ModelKind::Cnn2d).unwrap();
    let mut twin = materialised_cnn2d(&arch);
    twin.load_state_dict(&direct.state_dict()).unwrap();
    let classes: Vec<usize> = jobs
        .iter()
        .map(|j| (j.runtime_minutes() as usize).min(cfg.runtime_bins - 1))
        .collect();
    let target = LossTarget::Classes(&classes);
    let (mut opt_direct, mut opt_twin) = (Adam::new(cfg.lr), Adam::new(cfg.lr));
    for round in 0..2u64 {
        let fit = |m: &mut Sequential, opt: &mut Adam| {
            let mut shuffle = ChaCha8Rng::seed_from_u64(round);
            m.fit(&x, &target, &SoftmaxCrossEntropy, opt, 1, 8, &mut shuffle)
                .unwrap()
        };
        let (a, b) = (
            fit(&mut direct, &mut opt_direct),
            fit(&mut twin, &mut opt_twin),
        );
        let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(loss_bits(&a), loss_bits(&b), "round {round} losses");
        assert!(
            encode_model(&direct) == encode_model(&twin),
            "round {round}: model checkpoint bytes differ"
        );
        assert!(
            encode_opt_state(&opt_direct.export_state())
                == encode_opt_state(&opt_twin.export_state()),
            "round {round}: optimiser checkpoint bytes differ"
        );
    }
    for batch in [1, 8] {
        let xb = Tensor::from_vec(
            [batch, c, side, side],
            x.as_slice()[..batch * c * side * side].to_vec(),
        )
        .unwrap();
        assert_eq!(
            bits(&direct.predict(&xb, batch).unwrap()),
            bits(&twin.predict(&xb, batch).unwrap()),
            "b{batch} predictions"
        );
    }
}
