//! Per-layer probes: each times calls into one crate's public functions,
//! one caller, nothing else running. FLOPs and bytes are computed from the
//! shapes, not counted by the hardware.

use std::hint::black_box;
use std::time::Instant;

use crate::api::*;
use crate::loadgen::Rng;
use crate::workloads::time_median;

/// One convolution of a head as the GEMM `W[m,k] · cols[k,n]` it becomes,
/// issued once per sample.
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    pub geom: Conv2dGeom,
    pub out_channels: usize,
}

/// One dense layer as the GEMM `x[batch,k] · w[k,n]`.
#[derive(Debug, Clone, Copy)]
pub struct DenseShape {
    pub k: usize,
    pub n: usize,
}

/// The eight GEMMs of one 2D-CNN head (see `prionn_nn::arch::build_cnn2d`):
/// four 3×3 stride-1 pad-1 convolutions, each followed by a 2×2 pool, then
/// four dense layers.
pub fn head_shapes(cfg: &PrionnConfig, classes: usize) -> ([ConvShape; 4], [DenseShape; 4]) {
    let w = cfg.base_width;
    let (h, wd) = cfg.grid;
    let conv = |in_c: usize, out_c: usize, shrink: usize| ConvShape {
        geom: Conv2dGeom::new(in_c, h / shrink, wd / shrink, 3, 3, 1, 1).expect("conv geometry"),
        out_channels: out_c,
    };
    let flat = 4 * w * (h / 16) * (wd / 16);
    (
        [
            conv(cfg.w2v.dim, w, 1),
            conv(w, 2 * w, 2),
            conv(2 * w, 2 * w, 4),
            conv(2 * w, 4 * w, 8),
        ],
        [
            DenseShape { k: flat, n: 32 * w },
            DenseShape {
                k: 32 * w,
                n: 16 * w,
            },
            DenseShape {
                k: 16 * w,
                n: 16 * w,
            },
            DenseShape {
                k: 16 * w,
                n: classes,
            },
        ],
    )
}

/// Output classes of every head the config builds.
pub fn head_classes(cfg: &PrionnConfig) -> Vec<usize> {
    let mut heads = vec![cfg.runtime_bins];
    if cfg.predict_io {
        heads.extend([cfg.io_bins, cfg.io_bins]);
    }
    heads
}

fn random_vec(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.range(-1.0, 1.0) as f32).collect()
}

/// Buffers for replaying every GEMM and im2col of a model's forward pass.
pub struct KernelReplay {
    heads: Vec<([ConvShape; 4], [DenseShape; 4])>,
    ws: GemmWorkspace,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    bias: Vec<f32>,
}

/// What one replay of all kernels at one batch size cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCost {
    pub gemm_s: f64,
    pub im2col_s: f64,
    pub pack_s: f64,
    pub flops: f64,
    /// Operand bytes read plus result bytes written, from the shapes.
    pub gemm_bytes: f64,
    pub im2col_bytes: f64,
}

impl KernelReplay {
    pub fn new(cfg: &PrionnConfig, max_batch: usize) -> KernelReplay {
        let heads: Vec<_> = head_classes(cfg)
            .into_iter()
            .map(|classes| head_shapes(cfg, classes))
            .collect();
        let mut rng = Rng::new(0x6b65_726e);
        let mut longest = 0usize;
        for (convs, denses) in &heads {
            for c in convs {
                let g = &c.geom;
                longest = longest
                    .max(g.col_rows() * g.col_cols())
                    .max(c.out_channels * g.col_cols())
                    .max(g.in_channels * g.in_h * g.in_w);
            }
            for d in denses {
                longest = longest.max(d.k * d.n).max(max_batch * d.k.max(d.n));
            }
        }
        KernelReplay {
            heads,
            ws: GemmWorkspace::new(),
            a: random_vec(&mut rng, longest),
            b: random_vec(&mut rng, longest),
            c: vec![0.0; longest],
            bias: random_vec(&mut rng, longest.min(1 << 16)),
        }
    }

    /// Run every kernel of one forward pass over `batch` samples.
    pub fn run(&mut self, batch: usize) -> KernelCost {
        let mut cost = KernelCost::default();
        let before = self.ws.stats;
        for h in 0..self.heads.len() {
            let (convs, denses) = self.heads[h];
            for conv in convs {
                let g = conv.geom;
                let (m, n, k) = (conv.out_channels, g.col_cols(), g.col_rows());
                for _ in 0..batch {
                    let started = Instant::now();
                    im2col_into(
                        &self.a[..g.in_channels * g.in_h * g.in_w],
                        &g,
                        &mut self.b[..k * n],
                    )
                    .expect("im2col over a valid geometry");
                    cost.im2col_s += started.elapsed().as_secs_f64();
                    let started = Instant::now();
                    gemm(
                        &mut self.ws,
                        m,
                        n,
                        k,
                        &self.a,
                        Layout::RowMajor,
                        &self.b,
                        Layout::RowMajor,
                        &mut self.c,
                        false,
                        Epilogue::BiasRow(&self.bias),
                    );
                    cost.gemm_s += started.elapsed().as_secs_f64();
                }
                let per = batch as f64;
                cost.flops += per * 2.0 * (m * n * k) as f64;
                cost.gemm_bytes += per * 4.0 * (m * k + k * n + m * n) as f64;
                cost.im2col_bytes += per * 4.0 * (g.in_channels * g.in_h * g.in_w + k * n) as f64;
            }
            for dense in denses {
                let (m, n, k) = (batch, dense.n, dense.k);
                let started = Instant::now();
                gemm(
                    &mut self.ws,
                    m,
                    n,
                    k,
                    &self.a,
                    Layout::RowMajor,
                    &self.b,
                    Layout::RowMajor,
                    &mut self.c,
                    false,
                    Epilogue::BiasCol(&self.bias),
                );
                cost.gemm_s += started.elapsed().as_secs_f64();
                cost.flops += 2.0 * (m * n * k) as f64;
                cost.gemm_bytes += 4.0 * (m * k + k * n + m * n) as f64;
            }
        }
        black_box(&self.c);
        cost.pack_s = self.ws.stats.pack_seconds - before.pack_seconds;
        cost
    }

    /// Median-of-`reps` cost at `batch` (first run untimed: it grows the
    /// pack buffers).
    pub fn median_cost(&mut self, batch: usize, reps: usize) -> KernelCost {
        self.run(batch);
        let mut runs: Vec<KernelCost> = (0..reps).map(|_| self.run(batch)).collect();
        runs.sort_by(|x, y| x.gemm_s.total_cmp(&y.gemm_s));
        runs[runs.len() / 2]
    }
}

/// Median seconds of `Prionn::map_scripts` over `batch` scripts.
pub fn map_seconds(model: &Prionn, scripts: &[&str], batch: usize, reps: usize) -> f64 {
    let mut at = 0usize;
    time_median(reps, || {
        let chunk = &scripts[at % (scripts.len() - batch)..][..batch];
        at += batch;
        black_box(model.map_scripts(chunk).expect("map generated scripts"));
    })
}

/// Median seconds of `Prionn::predict` over `batch` scripts.
pub fn predict_seconds(model: &mut Prionn, scripts: &[&str], batch: usize, reps: usize) -> f64 {
    let mut at = 0usize;
    time_median(reps, || {
        let chunk = &scripts[at % (scripts.len() - batch)..][..batch];
        at += batch;
        black_box(model.predict(chunk).expect("predict generated scripts"));
    })
}

/// Median seconds of one `Sequential::train_batch` over 32 mapped scripts,
/// runtime head only.
pub fn train_step_seconds(model: &Prionn, scripts: &[&str], reps: usize) -> f64 {
    let cfg = model.config();
    let arch = ArchConfig {
        emb_dim: cfg.w2v.dim,
        grid_h: cfg.grid.0,
        grid_w: cfg.grid.1,
        classes: cfg.runtime_bins,
        base_width: cfg.base_width,
        batch_norm: cfg.batch_norm,
        seed: cfg.seed,
    };
    let mut head = arch.build(ModelKind::Cnn2d).expect("build one head");
    let x = model.map_scripts(&scripts[..32]).expect("map 32 scripts");
    let classes: Vec<usize> = (0..32).map(|i| (i * 37) % cfg.runtime_bins).collect();
    let mut opt = Adam::new(cfg.lr);
    time_median(reps, || {
        let loss = head
            .train_batch(
                &x,
                &LossTarget::Classes(&classes),
                &SoftmaxCrossEntropy,
                &mut opt,
            )
            .expect("train step");
        black_box(loss);
    })
}

/// Checkpoint costs of `model`: (encode s, apply s, bytes, byte round-trip s).
pub fn checkpoint_costs(model: &mut Prionn, reps: usize) -> (f64, f64, usize, f64) {
    let encode_s = time_median(reps, || {
        black_box(model.weights_checkpoint().expect("encode weights"));
    });
    let ck = model.weights_checkpoint().expect("encode weights");
    let apply_s = time_median(reps, || {
        model
            .apply_weights_checkpoint(&ck)
            .expect("apply own weights");
    });
    let full = model.to_checkpoint().expect("full checkpoint");
    let bytes = full.to_bytes();
    let roundtrip_s = time_median(reps, || {
        let encoded = full.to_bytes();
        black_box(Checkpoint::from_bytes(&encoded).expect("decode own checkpoint"));
    });
    (encode_s, apply_s, bytes.len(), roundtrip_s)
}

/// Wire costs of one predict exchange carrying `script`:
/// (frame round-trip s, proto codec s, request bytes, reply bytes).
pub fn wire_costs(
    script: &str,
    reply: &ResourcePrediction,
    reps: usize,
) -> (f64, f64, usize, usize) {
    let scripts = [script.to_string()];
    let request = proto::encode_predict(Priority::Normal, 0, &scripts);
    let answer = proto::encode_predictions(1, std::slice::from_ref(reply));
    let frame_s = time_median(reps, || {
        let frame = wire::encode_frame(1, 42, &request);
        let decoded = wire::read_frame(&mut frame.as_slice(), wire::MAX_FRAME_PAYLOAD)
            .expect("decode own frame");
        black_box(decoded);
    });
    let codec_s = time_median(reps, || {
        let req = proto::encode_predict(Priority::Normal, 0, &scripts);
        black_box(proto::decode_predict(&req).expect("decode own request"));
        let rep = proto::encode_predictions(1, std::slice::from_ref(reply));
        black_box(proto::decode_predictions(&rep).expect("decode own reply"));
    });
    let framed = |payload: &[u8]| wire::encode_frame(1, 42, payload).len();
    (frame_s, codec_s, framed(&request), framed(&answer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_head_has_the_documented_gemm_shapes() {
        let (convs, denses) = head_shapes(&paper_config(), 960);
        let mnk: Vec<(usize, usize, usize)> = convs
            .iter()
            .map(|c| (c.out_channels, c.geom.col_cols(), c.geom.col_rows()))
            .collect();
        assert_eq!(
            mnk,
            vec![(8, 4096, 36), (16, 1024, 72), (16, 256, 144), (32, 64, 144)]
        );
        let kn: Vec<(usize, usize)> = denses.iter().map(|d| (d.k, d.n)).collect();
        assert_eq!(kn, vec![(512, 256), (256, 128), (128, 128), (128, 960)]);
        assert_eq!(head_classes(&paper_config()), vec![960, 128, 128]);
        assert_eq!(head_classes(&toy_config()), vec![64]);
    }

    #[test]
    fn kernel_replay_counts_flops_from_shapes() {
        let mut replay = KernelReplay::new(&toy_config(), 4);
        let one = replay.run(1);
        let four = replay.run(4);
        assert!(one.flops > 0.0 && one.gemm_s > 0.0 && one.im2col_s > 0.0);
        assert!((four.flops / one.flops - 4.0).abs() < 1e-9);
    }
}
