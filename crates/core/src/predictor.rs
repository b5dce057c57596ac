//! The PRIONN predictor: whole-script mapping + deep classifier heads.

use crate::bins::ValueBins;
use crate::checkpoint::{self, CkptResult};
use crate::head_threads;
use prionn_nn::{
    Adam, ArchConfig, Loss, LossTarget, ModelKind, MseLoss, Optimizer, Sequential,
    SoftmaxCrossEntropy,
};
use prionn_store::{wire, Checkpoint, StoreError};
use prionn_tensor::{Tensor, TensorError};
use prionn_text::{
    map_corpus_1d, map_corpus_2d, BinaryTransform, CharEmbedding, CharTransform, OneHotTransform,
    SimpleTransform, TransformKind, Word2vecConfig, Word2vecTransform,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Result alias matching the tensor substrate.
pub type Result<T> = prionn_tensor::Result<T>;

/// How the runtime head produces a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// The paper's choice: a softmax over value bins (960 runtime minutes).
    Classifier,
    /// Ablation: a single-output regressor trained with MSE on
    /// `log1p(minutes)`, decoded with `expm1`.
    Regressor,
}

/// Configuration of a [`Prionn`] instance.
#[derive(Debug, Clone)]
pub struct PrionnConfig {
    /// Character transform (paper's production choice: word2vec).
    pub transform: TransformKind,
    /// Deep model family (paper's production choice: the 2-D CNN).
    pub model: ModelKind,
    /// Script grid (paper: 64 × 64).
    pub grid: (usize, usize),
    /// Convolution base width; channel counts scale from this.
    pub base_width: usize,
    /// Insert batch normalisation after every convolution (extension; off
    /// reproduces the paper's architecture).
    pub batch_norm: bool,
    /// Runtime head bins (paper: 960 one-minute bins).
    pub runtime_bins: usize,
    /// Runtime head kind (paper: classifier; regressor is the ablation).
    pub head: HeadKind,
    /// IO head bins (logarithmic byte bins).
    pub io_bins: usize,
    /// Whether to build and train the two IO heads.
    pub predict_io: bool,
    /// Epochs per retraining event (paper: 10).
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// word2vec training config (used when `transform == Word2vec`).
    pub w2v: Word2vecConfig,
    /// Seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for PrionnConfig {
    fn default() -> Self {
        PrionnConfig {
            transform: TransformKind::Word2vec,
            model: ModelKind::Cnn2d,
            grid: (64, 64),
            base_width: 8,
            batch_norm: false,
            runtime_bins: 960,
            head: HeadKind::Classifier,
            io_bins: 128,
            predict_io: true,
            epochs: 10,
            batch_size: 32,
            lr: 1e-3,
            w2v: Word2vecConfig::default(),
            seed: 0x9a7e,
        }
    }
}

impl PrionnConfig {
    /// A configuration sized for single-core CI-style machines: the same
    /// pipeline with a narrower CNN, coarser heads, and fewer epochs.
    pub fn reduced() -> Self {
        PrionnConfig {
            base_width: 4,
            runtime_bins: 240, // 4-minute resolution
            io_bins: 64,
            epochs: 4,
            ..Default::default()
        }
    }
}

/// One job's predicted resources.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourcePrediction {
    /// Runtime, minutes.
    pub runtime_minutes: f64,
    /// Total bytes read (0 when IO heads are disabled).
    pub read_bytes: f64,
    /// Total bytes written (0 when IO heads are disabled).
    pub write_bytes: f64,
}

/// One [`Prionn::retrain`] call's worth of completed jobs, owned, so it can
/// be queued for a trainer on another thread.
#[derive(Debug, Clone, Default)]
pub struct TrainingBatch {
    /// Job scripts.
    pub scripts: Vec<String>,
    /// True runtimes, minutes.
    pub runtime_minutes: Vec<f64>,
    /// True bytes read (empty when the IO heads are disabled).
    pub read_bytes: Vec<f64>,
    /// True bytes written (empty when the IO heads are disabled).
    pub write_bytes: Vec<f64>,
}

/// Entries of the checkpoint's `bins` section, in its order. The section
/// always holds all three, whichever heads are served; read and write share
/// the IO entry. The third entry is a reserved slot: it held the bins of a
/// head that no longer exists and is still written (with the value it always
/// had), decoded and validated, so checkpoint bytes stay as they were — but
/// no head reads it.
const RUNTIME_BINS: usize = 0;
const IO_BINS: usize = 1;

/// `ln 961`: scales `log1p(minutes)` of the 960-minute cap into `[0, 1]`.
fn log_minutes_scale() -> f64 {
    (961.0f64).ln()
}

/// How a head's values become training targets and its outputs become
/// values again — [`Head::fit`] and [`Head::predict`] hold the two
/// directions side by side.
#[derive(Clone, Copy)]
enum Codec {
    /// Classifier: a softmax over the bins of this `bins` entry.
    Bins(usize),
    /// Regressor ablation: one output trained with MSE on
    /// `log1p(minutes) / ln 961`, decoded with `expm1`.
    LogMinutes,
}

impl Codec {
    /// Output width of a head using this codec.
    fn width(self, bins: &[ValueBins; 3]) -> usize {
        match self {
            Codec::Bins(entry) => bins[entry].n_bins(),
            Codec::LogMinutes => 1,
        }
    }
}

/// Selects the [`ResourcePrediction`] field a head fills.
type Field = fn(&mut ResourcePrediction) -> &mut f64;

/// One predicted resource: a network over the shared mapped script, its
/// optimiser, and its codec. [`Prionn`] keeps the heads its configuration
/// asks for as rows of one table, and training, serving, checkpointing and
/// hot-swapping are loops over that table — so a further resource is one
/// more row in [`Prionn::from_transform`], not an edit per method.
struct Head {
    /// Names the row everywhere: checkpoint sections `model.<name>` and
    /// `opt.<name>`, span `head:<name>`, telemetry label `model=<name>`.
    name: &'static str,
    /// The [`ResourcePrediction`] field this head's values fill.
    field: Field,
    model: Sequential,
    opt: Adam,
    codec: Codec,
}

impl Head {
    fn model_section(&self) -> String {
        format!("model.{}", self.name)
    }

    fn opt_section(&self) -> String {
        format!("opt.{}", self.name)
    }

    /// Encode `values` as this head's targets and fit on them, warm;
    /// returns the mean loss of each epoch.
    fn fit(
        &mut self,
        x: &Tensor,
        values: &[f64],
        bins: &[ValueBins; 3],
        cfg: &PrionnConfig,
        rng: &mut ChaCha8Rng,
    ) -> Result<Vec<f32>> {
        let (classes, y): (Vec<usize>, Tensor);
        let (target, loss): (LossTarget<'_>, &dyn Loss) = match self.codec {
            Codec::Bins(entry) => {
                classes = values.iter().map(|&v| bins[entry].encode(v)).collect();
                (LossTarget::Classes(&classes), &SoftmaxCrossEntropy)
            }
            Codec::LogMinutes => {
                let scale = log_minutes_scale() as f32;
                let targets: Vec<f32> = values
                    .iter()
                    .map(|&m| (m.max(0.0) + 1.0).ln() as f32 / scale)
                    .collect();
                y = Tensor::from_vec([targets.len(), 1], targets)?;
                (LossTarget::Values(&y), &MseLoss)
            }
        };
        let (epochs, batch_size) = (cfg.epochs, cfg.batch_size);
        self.model
            .fit(x, &target, loss, &mut self.opt, epochs, batch_size, rng)
    }

    /// Forward `x` and decode the outputs to values, under a `head:<name>`
    /// span when the thread carries a trace context.
    fn predict(
        &mut self,
        x: &Tensor,
        bins: &[ValueBins; 3],
        batch_size: usize,
    ) -> Result<Vec<f64>> {
        let _span = prionn_observe::trace::child_of_current(|| format!("head:{}", self.name));
        Ok(match self.codec {
            Codec::Bins(entry) => self
                .model
                .predict_classes(x, batch_size)?
                .into_iter()
                .map(|c| bins[entry].decode(c))
                .collect(),
            Codec::LogMinutes => {
                let scale = log_minutes_scale();
                self.model
                    .predict(x, batch_size)?
                    .as_slice()
                    .iter()
                    .map(|&v| ((v as f64 * scale).exp() - 1.0).clamp(0.0, 960.0))
                    .collect()
            }
        })
    }
}

/// Bound on the script bytes [`Memo`] holds as keys: ~16 k of the trace's
/// ~250-byte scripts.
const MEMO_KEY_BYTES: usize = 4 << 20;

/// The answers the current weights already gave, keyed by the full script
/// text. Exact because an eval forward keeps no state and a script's
/// prediction bits depend on the weights alone, not on the batch it rode in
/// (`arch.rs` pins that); so it must be dropped by every weight write.
#[derive(Default)]
struct Memo {
    answers: HashMap<String, ResourcePrediction>,
    key_bytes: usize,
}

impl Memo {
    fn get(&self, script: &str) -> Option<ResourcePrediction> {
        self.answers.get(script).copied()
    }

    /// Remember `script`'s answer (absent from the memo). Past the byte
    /// bound the memo starts over; a script bigger than the bound is not
    /// kept at all.
    fn insert(&mut self, script: &str, pred: ResourcePrediction) {
        if script.len() > MEMO_KEY_BYTES {
            return;
        }
        if self.key_bytes + script.len() > MEMO_KEY_BYTES {
            self.clear();
        }
        self.key_bytes += script.len();
        self.answers.insert(script.to_owned(), pred);
    }

    fn clear(&mut self) {
        self.answers.clear();
        self.key_bytes = 0;
    }
}

/// Model/architecture mismatches surface as tensor errors from the
/// shape-validated loads; report them as checkpoint corruption.
fn mismatch(what: &str, e: TensorError) -> StoreError {
    StoreError::Corrupt(format!("{what}: {e}"))
}

/// The PRIONN tool: a shared script mapping feeding one head per predicted
/// resource. Retraining is warm-started — weights and optimiser state
/// persist across [`Prionn::retrain`] calls, the property the paper relies
/// on to train on only 500 jobs at a time.
pub struct Prionn {
    cfg: PrionnConfig,
    transform: Box<dyn CharTransform>,
    /// The `bins` section: runtime and IO bin edges, then the reserved slot.
    bins: [ValueBins; 3],
    /// The served heads, in checkpoint order; runtime is always row 0.
    heads: Vec<Head>,
    /// What [`Prionn::predict`] already answered on the current weights;
    /// never persisted, so every construction starts empty.
    memo: Memo,
    rng: ChaCha8Rng,
    retrain_count: usize,
    telemetry: Option<PredictorTelemetry>,
}

/// Instrument handles for one predictor, resolved once at attach time.
struct PredictorTelemetry {
    retrain_seconds: prionn_telemetry::Histogram,
    retrains_total: prionn_telemetry::Counter,
    predict_seconds: prionn_telemetry::Histogram,
    predictions_total: prionn_telemetry::Counter,
    memo_hits_total: prionn_telemetry::Counter,
    map_seconds: prionn_telemetry::Histogram,
    last_epoch_loss: prionn_telemetry::Gauge,
    gemm_gflops: prionn_telemetry::Gauge,
    gemm_pack_share: prionn_telemetry::Gauge,
}

impl Prionn {
    /// Build a PRIONN instance. `w2v_corpus` seeds the word2vec character
    /// embedding (any representative set of scripts; the paper trains it on
    /// historical job scripts).
    pub fn new(cfg: PrionnConfig, w2v_corpus: &[&str]) -> Result<Self> {
        let transform: Box<dyn CharTransform> = match cfg.transform {
            TransformKind::Binary => Box::new(BinaryTransform),
            TransformKind::Simple => Box::new(SimpleTransform),
            TransformKind::OneHot => Box::new(OneHotTransform),
            TransformKind::Word2vec => Box::new(Word2vecTransform::train(w2v_corpus, &cfg.w2v)),
        };
        Self::from_transform(cfg, transform)
    }

    /// Build a PRIONN instance around an already-constructed character
    /// transform. This is the checkpoint-restore path: the persisted
    /// word2vec table is rebuilt directly instead of retraining on a corpus.
    fn from_transform(cfg: PrionnConfig, transform: Box<dyn CharTransform>) -> Result<Self> {
        let bins = [
            ValueBins::runtime_minutes_with(cfg.runtime_bins),
            ValueBins::io_bytes(cfg.io_bins),
            // The reserved slot, with the value it has always been written with.
            ValueBins::Log {
                lo: 1e2,
                hi: 1e6,
                n: cfg.io_bins,
            },
        ];
        let runtime_codec = match cfg.head {
            HeadKind::Classifier => Codec::Bins(RUNTIME_BINS),
            HeadKind::Regressor => Codec::LogMinutes,
        };
        // The head table: name, the prediction field it fills, weight-init
        // seed salt, whether the configuration serves it, codec.
        #[rustfmt::skip]
        let rows: [(&str, Field, u64, bool, Codec); 3] = [
            ("runtime", |p| &mut p.runtime_minutes, 0x1, true, runtime_codec),
            ("read", |p| &mut p.read_bytes, 0x2, cfg.predict_io, Codec::Bins(IO_BINS)),
            ("write", |p| &mut p.write_bytes, 0x3, cfg.predict_io, Codec::Bins(IO_BINS)),
        ];
        let mut heads = Vec::new();
        for (name, field, seed_salt, served, codec) in rows {
            if !served {
                continue;
            }
            let arch = ArchConfig {
                emb_dim: transform.dim(),
                grid_h: cfg.grid.0,
                grid_w: cfg.grid.1,
                classes: codec.width(&bins),
                base_width: cfg.base_width,
                batch_norm: cfg.batch_norm,
                seed: cfg.seed ^ seed_salt,
            };
            heads.push(Head {
                name,
                field,
                model: arch.build(cfg.model)?,
                opt: Adam::new(cfg.lr),
                codec,
            });
        }
        Ok(Prionn {
            bins,
            heads,
            memo: Memo::default(),
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            transform,
            cfg,
            retrain_count: 0,
            telemetry: None,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PrionnConfig {
        &self.cfg
    }

    /// Attach a telemetry registry. Each head's [`Sequential`] gains
    /// per-layer forward/backward timers and norm gauges (labelled
    /// `model=runtime|read|write`), and the predictor itself records
    /// `prionn_retrain_seconds`, `prionn_predict_seconds`,
    /// `prionn_map_seconds`, the matching `_total` counters,
    /// `prionn_predict_memo_hits_total` and the `prionn_last_epoch_loss`
    /// gauge. Telemetry is process-local state: it is *not* persisted by
    /// [`Prionn::save`] and must be re-attached after a restore.
    pub fn set_telemetry(&mut self, registry: &prionn_telemetry::Telemetry) {
        for head in &mut self.heads {
            head.model.set_telemetry(registry, head.name);
        }
        self.telemetry = Some(PredictorTelemetry {
            retrain_seconds: registry.histogram(
                "prionn_retrain_seconds",
                "Wall time of one warm-started retraining event (all heads)",
            ),
            retrains_total: registry
                .counter("prionn_retrains_total", "Completed retraining events"),
            predict_seconds: registry.histogram(
                "prionn_predict_seconds",
                "Wall time of one predict() call over a script batch",
            ),
            predictions_total: registry.counter(
                "prionn_predictions_total",
                "Scripts predicted (batch sizes summed)",
            ),
            memo_hits_total: registry.counter(
                "prionn_predict_memo_hits_total",
                "Scripts predict() answered without forwarding them: the current weights \
                 already answered them, earlier or in the same batch",
            ),
            map_seconds: registry.histogram(
                "prionn_map_seconds",
                "Wall time of the script-to-tensor data mapping",
            ),
            last_epoch_loss: registry.gauge(
                "prionn_last_epoch_loss",
                "Mean runtime-head loss of the final epoch of the last retrain",
            ),
            gemm_gflops: registry.gauge(
                "prionn_gemm_gflops",
                "Runtime-head GEMM and direct-conv throughput (GFLOP/s) over the last retrain",
            ),
            gemm_pack_share: registry.gauge(
                "prionn_gemm_pack_share",
                "Fraction of runtime-head kernel time spent packing GEMM panels",
            ),
        });
    }

    /// Number of completed retraining events.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Map scripts to the model's input tensor (the paper's "data mapping").
    pub fn map_scripts(&self, scripts: &[&str]) -> Result<Tensor> {
        let (h, w) = self.cfg.grid;
        match self.cfg.model {
            ModelKind::Cnn2d => map_corpus_2d(scripts, self.transform.as_ref(), h, w),
            ModelKind::Nn | ModelKind::Cnn1d => {
                map_corpus_1d(scripts, self.transform.as_ref(), h, w)
            }
        }
    }

    /// Warm-started fit of every served head that `targets` names, all at
    /// once ([`head_threads::at_once`]), every one reading the one mapped
    /// batch. Each head shuffles with a clone of the RNG taken where the
    /// heads before it in table order leave the stream when they fit one
    /// after another, and the RNG ends past all of them, so the weights,
    /// moments, losses and RNG are the bits of fitting the heads in turn.
    /// Every target slice is checked before the scripts are mapped or any
    /// head trains, so a malformed batch leaves weights, optimiser moments,
    /// the RNG and the memo untouched. Returns the final-epoch loss of each
    /// head fitted; the first head (in table order) that failed gives the
    /// error, and a fit that panicked panics here once every head is back in
    /// its row.
    fn fit_heads(&mut self, scripts: &[&str], targets: &[(&str, &[f64])]) -> Result<Vec<f32>> {
        let x = Arc::new(self.prepare_fit(scripts, targets)?);
        // Every row stays in `heads` but the targeted ones, which move into
        // their fit with their values and their clone of the RNG.
        let mut heads: Vec<Option<Head>> = Vec::with_capacity(self.heads.len());
        let mut fits = Vec::new();
        for (row, head) in std::mem::take(&mut self.heads).into_iter().enumerate() {
            let Some((_, values)) = targets.iter().find(|(name, _)| *name == head.name) else {
                heads.push(Some(head));
                continue;
            };
            heads.push(None);
            let rng = self.rng.clone();
            Sequential::skip_fit_draws(&mut self.rng, scripts.len(), self.cfg.epochs);
            fits.push((row, head, values.to_vec(), rng));
        }
        let (bins, cfg) = (self.bins.clone(), self.cfg.clone());
        let fitted = head_threads::at_once(fits, move |(_, head, values, rng)| {
            // Window the kernel counters to this fit so the GEMM gauges
            // report per-retrain efficiency.
            head.model.reset_scratch_stats();
            head.fit(&x, values, &bins, &cfg, rng)
        });
        let outcomes = self.put_back(heads, fitted, |(row, head, _, _)| (row, head));
        outcomes
            .into_iter()
            .map(|losses| Ok(losses?.last().copied().unwrap_or(f32::NAN)))
            .collect()
    }

    /// Put every head [`head_threads::at_once`] gave back into its row of
    /// `heads`, make that the table, then re-raise the first panic in table
    /// order, if any; else the outcomes, in table order.
    fn put_back<S, T>(
        &mut self,
        mut heads: Vec<Option<Head>>,
        back: Vec<(S, std::thread::Result<T>)>,
        row_of: impl Fn(S) -> (usize, Head),
    ) -> Vec<T> {
        let mut outcomes = Vec::with_capacity(back.len());
        for (item, outcome) in back {
            let (row, head) = row_of(item);
            heads[row] = Some(head);
            outcomes.push(outcome);
        }
        self.heads = heads.into_iter().flatten().collect();
        outcomes
            .into_iter()
            .map(|outcome| outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    }

    /// What every fit does first: check the batch against the targets,
    /// forget the memo and map the scripts.
    fn prepare_fit(&mut self, scripts: &[&str], targets: &[(&str, &[f64])]) -> Result<Tensor> {
        if scripts.is_empty() {
            return Err(TensorError::InvalidArgument(
                "retrain on empty batch".into(),
            ));
        }
        let target_of = |head: &Head| targets.iter().find(|(name, _)| *name == head.name);
        for (_, values) in self.heads.iter().filter_map(target_of) {
            if values.len() != scripts.len() {
                return Err(TensorError::LengthMismatch {
                    expected: scripts.len(),
                    actual: values.len(),
                });
            }
        }
        self.memo.clear();
        let map_started = std::time::Instant::now();
        let x = self.map_scripts(scripts)?;
        if let Some(tel) = &self.telemetry {
            tel.map_seconds.observe(map_started.elapsed().as_secs_f64());
        }
        Ok(x)
    }

    /// Warm-started retraining on recently completed jobs. IO targets may be
    /// empty when the IO heads are disabled.
    pub fn retrain(
        &mut self,
        scripts: &[&str],
        runtime_minutes: &[f64],
        read_bytes: &[f64],
        write_bytes: &[f64],
    ) -> Result<()> {
        let started = std::time::Instant::now();
        let final_losses = self.fit_heads(
            scripts,
            &[
                ("runtime", runtime_minutes),
                ("read", read_bytes),
                ("write", write_bytes),
            ],
        )?;
        self.retrain_count += 1;
        // The gauges describe the runtime head: row 0, fitted on this thread.
        if let (Some(tel), Some(runtime)) = (&self.telemetry, self.heads.first()) {
            let last_loss = final_losses.first().copied().unwrap_or(f32::NAN);
            tel.retrain_seconds.observe(started.elapsed().as_secs_f64());
            tel.retrains_total.inc();
            if last_loss.is_finite() {
                tel.last_epoch_loss.set(last_loss as f64);
            }
            let kstats = runtime.model.scratch_stats();
            tel.gemm_gflops.set(kstats.gemm_gflops());
            tel.gemm_pack_share.set(kstats.gemm_pack_share());
        }
        Ok(())
    }

    /// Predict resources for a batch of scripts.
    ///
    /// Each distinct script is forwarded once per set of weights: a script
    /// the current weights already answered is filled in from memory, and
    /// the rest are forwarded together, each once, in first-occurrence
    /// order. The answers are the bits a forward would give, since a
    /// script's prediction does not depend on the batch it rides in.
    pub fn predict(&mut self, scripts: &[&str]) -> Result<Vec<ResourcePrediction>> {
        if scripts.is_empty() {
            return Ok(Vec::new());
        }
        let started = std::time::Instant::now();
        let known: Vec<Option<ResourcePrediction>> =
            scripts.iter().map(|s| self.memo.get(s)).collect();
        let mut seen = HashSet::new();
        let misses: Vec<&str> = scripts
            .iter()
            .zip(&known)
            .filter(|(s, hit)| hit.is_none() && seen.insert(**s))
            .map(|(s, _)| *s)
            .collect();
        let mut fresh = HashMap::with_capacity(misses.len());
        if !misses.is_empty() {
            for (script, pred) in misses.iter().zip(self.forward(&misses)?) {
                self.memo.insert(script, pred);
                fresh.insert(*script, pred);
            }
        }
        let preds: Vec<ResourcePrediction> = scripts
            .iter()
            .zip(known)
            .map(|(s, hit)| hit.unwrap_or_else(|| fresh[s]))
            .collect();
        if let Some(tel) = &self.telemetry {
            tel.predict_seconds.observe(started.elapsed().as_secs_f64());
            tel.predictions_total.add(scripts.len() as u64);
            tel.memo_hits_total
                .add((scripts.len() - misses.len()) as u64);
        }
        Ok(preds)
    }

    /// Map `scripts` and run every head at once
    /// ([`head_threads::at_once`]), every one reading the one mapped batch.
    /// The values are those of running the heads in turn; the first head
    /// (in table order) that failed gives the error, and a head that
    /// panicked panics here once every head is back in its row.
    fn forward(&mut self, scripts: &[&str]) -> Result<Vec<ResourcePrediction>> {
        let x = Arc::new({
            let _span = prionn_observe::trace::child_of_current(|| "map".to_string());
            self.map_scripts(scripts)?
        });
        let batch_size = self.cfg.batch_size.max(1);
        let bins = self.bins.clone();
        let rows = std::mem::take(&mut self.heads)
            .into_iter()
            .enumerate()
            .collect();
        let back =
            head_threads::at_once(rows, move |(_, head)| head.predict(&x, &bins, batch_size));
        let heads = std::iter::repeat_with(|| None).take(back.len()).collect();
        let outcomes = self.put_back(heads, back, |(row, head)| (row, head));
        let mut preds = vec![ResourcePrediction::default(); scripts.len()];
        for (head, values) in self.heads.iter().zip(outcomes) {
            for (pred, value) in preds.iter_mut().zip(values?) {
                *(head.field)(pred) = value;
            }
        }
        Ok(preds)
    }

    /// Mean cross-entropy of the runtime head on a labelled batch, without
    /// updating weights. Diagnostic/tuning helper.
    pub fn probe_runtime_loss(&mut self, scripts: &[&str], runtime_minutes: &[f64]) -> Result<f64> {
        let x = self.map_scripts(scripts)?;
        let logits = self.heads[0]
            .model
            .predict(&x, self.cfg.batch_size.max(1))?;
        let classes: Vec<usize> = runtime_minutes
            .iter()
            .map(|&m| self.bins[RUNTIME_BINS].encode(m))
            .collect();
        let (loss, _) = SoftmaxCrossEntropy.loss_and_grad(
            &logits,
            &LossTarget::Classes(&classes),
            &mut prionn_tensor::Scratch::new(),
        )?;
        Ok(loss as f64)
    }

    /// Predicted read/write *bandwidths* (bytes/s) derived the paper's way:
    /// predicted volume divided by predicted runtime (§3.2).
    pub fn bandwidth_of(pred: &ResourcePrediction) -> (f64, f64) {
        let secs = (pred.runtime_minutes * 60.0).max(1.0);
        (pred.read_bytes / secs, pred.write_bytes / secs)
    }

    /// Persist the full predictor state to `path` atomically (tmp + fsync +
    /// rename): config, transform table, bin edges, every head's weights,
    /// every optimiser's moment buffers, the RNG stream position, and the
    /// retrain counter. [`Prionn::load`] restores a bit-identical predictor.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> CkptResult<()> {
        self.to_checkpoint()?.write_atomic(path)
    }

    /// Restore a predictor saved by [`Prionn::save`]. Corrupted or truncated
    /// files return an error — never a panic, never a silently wrong model.
    pub fn load(path: impl AsRef<std::path::Path>) -> CkptResult<Self> {
        Self::from_checkpoint(&Checkpoint::read(path)?)
    }

    /// Assemble the in-memory checkpoint (see [`Prionn::save`]): `config`,
    /// `transform`, `bins`, then `model.<name>` + `opt.<name>` per head in
    /// table order, then `rng` and `trainer`.
    pub fn to_checkpoint(&self) -> CkptResult<Checkpoint> {
        let mut ck = Checkpoint::new();
        ck.insert("config", checkpoint::encode_config(&self.cfg))?;
        if let Some((dim, table)) = self.transform.export_table() {
            let mut buf = Vec::new();
            wire::put_u64(&mut buf, dim as u64);
            wire::put_f32_slice(&mut buf, &table);
            ck.insert("transform", buf)?;
        }
        let mut bins = Vec::new();
        for entry in &self.bins {
            checkpoint::encode_bins(&mut bins, entry);
        }
        ck.insert("bins", bins)?;

        for head in &self.heads {
            ck.insert(head.model_section(), checkpoint::encode_model(&head.model))?;
            ck.insert(
                head.opt_section(),
                checkpoint::encode_opt_state(&head.opt.export_state()),
            )?;
        }

        let mut rng_buf = Vec::new();
        rng_buf.extend_from_slice(&self.rng.get_seed());
        wire::put_u128(&mut rng_buf, self.rng.get_word_pos());
        ck.insert("rng", rng_buf)?;

        let mut trainer = Vec::new();
        wire::put_u64(&mut trainer, self.retrain_count as u64);
        ck.insert("trainer", trainer)?;
        Ok(ck)
    }

    /// An independent replica of this predictor: same configuration,
    /// transform, bins, weights, optimiser state, and RNG position. Built
    /// through the checkpoint round trip, so the replica is bit-identical —
    /// it serves exactly the predictions this instance would. This is how
    /// the serving gateway fans one trained model out to N worker threads.
    pub fn fork_replica(&self) -> CkptResult<Self> {
        Self::from_checkpoint(&self.to_checkpoint()?)
    }

    /// Only the learned head weights, in checkpoint section format (one
    /// `model.<name>` per head). This is the hot-swap payload broadcast to
    /// serving replicas after a retrain: weights are all a frozen serving
    /// replica needs, so the optimiser moments, RNG stream, and transform
    /// table stay out of the per-swap cost.
    pub fn weights_checkpoint(&self) -> CkptResult<Checkpoint> {
        let mut ck = Checkpoint::new();
        for head in &self.heads {
            ck.insert(head.model_section(), checkpoint::encode_model(&head.model))?;
        }
        Ok(ck)
    }

    /// Apply a weight set produced by [`Prionn::weights_checkpoint`] on a
    /// predictor with the identical architecture. Every head's section is
    /// checked — keys, dims and lengths — *before* any weight is written, so
    /// a mismatched or corrupt payload leaves the current weights fully
    /// intact: the all-or-nothing property the replica hot-swap protocol
    /// relies on. An accepted payload is then copied straight into the live
    /// tensors, once, and forgets every answer the old weights gave.
    pub fn apply_weights_checkpoint(&mut self, ck: &Checkpoint) -> CkptResult<()> {
        let mut checked = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let section = head.model_section();
            let payload = ck.require(&section)?;
            checked.push(checkpoint::check_model(&section, payload, &head.model)?);
        }
        // Every section passed its head's check, so no write below can fail.
        self.memo.clear();
        for (head, weights) in self.heads.iter_mut().zip(&checked) {
            weights.write_into(&mut head.model);
        }
        Ok(())
    }

    /// Rebuild a predictor from an in-memory checkpoint (see
    /// [`Prionn::load`]).
    pub fn from_checkpoint(ck: &Checkpoint) -> CkptResult<Self> {
        let cfg = checkpoint::decode_config(ck.require("config")?)?;
        let transform: Box<dyn CharTransform> = match cfg.transform {
            TransformKind::Binary => Box::new(BinaryTransform),
            TransformKind::Simple => Box::new(SimpleTransform),
            TransformKind::OneHot => Box::new(OneHotTransform),
            TransformKind::Word2vec => {
                let mut r = wire::Reader::new(ck.require("transform")?);
                let dim = r.get_usize("transform.dim")?;
                let table = r.get_f32_vec("transform.table")?;
                r.expect_end("transform")?;
                let emb = CharEmbedding::from_parts(dim, table).ok_or_else(|| {
                    StoreError::Corrupt(format!("transform table is not VOCAB x {dim}"))
                })?;
                Box::new(Word2vecTransform::new(emb))
            }
        };
        let mut p =
            Self::from_transform(cfg, transform).map_err(|e| mismatch("rebuild model", e))?;

        let mut r = wire::Reader::new(ck.require("bins")?);
        let bins = [
            checkpoint::decode_bins(&mut r)?,
            checkpoint::decode_bins(&mut r)?,
            checkpoint::decode_bins(&mut r)?,
        ];
        r.expect_end("bins")?;

        for head in &mut p.heads {
            // The config fixed the head's output width when it was built;
            // bins that count differently would decode a silently wrong value.
            let (built, stored) = (head.codec.width(&p.bins), head.codec.width(&bins));
            if stored != built {
                return Err(StoreError::Corrupt(format!(
                    "bins: {stored} bins for the {built}-wide {} head",
                    head.name
                )));
            }
            let opt = head.opt_section();
            head.opt
                .import_state(&checkpoint::decode_opt_state(ck.require(&opt)?)?)
                .map_err(|e| mismatch(&opt, e))?;
        }
        p.bins = bins;
        p.apply_weights_checkpoint(ck)?;

        let mut rng = wire::Reader::new(ck.require("rng")?);
        let seed: [u8; 32] = rng.get_array("rng.seed")?;
        let word_pos = rng.get_u128("rng.word_pos")?;
        rng.expect_end("rng")?;
        p.rng = ChaCha8Rng::from_seed(seed);
        p.rng.set_word_pos(word_pos);

        let mut trainer = wire::Reader::new(ck.require("trainer")?);
        p.retrain_count = trainer.get_usize("trainer.retrain_count")?;
        trainer.expect_end("trainer")?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> PrionnConfig {
        PrionnConfig {
            grid: (16, 16),
            base_width: 2,
            runtime_bins: 16,
            io_bins: 8,
            epochs: 6,
            batch_size: 8,
            lr: 3e-3,
            ..Default::default()
        }
    }

    fn corpus() -> Vec<String> {
        // Two visually distinct script families with distinct runtimes/IO.
        let mut scripts = Vec::new();
        for i in 0..12 {
            scripts.push(format!(
                "#!/bin/bash\n#SBATCH -N 2\nsrun ./short_app run{i}\n"
            ));
            scripts.push(format!(
                "#!/bin/bash\n#SBATCH -N 64\nmodule load big\nsrun ./long_app case{i}\nsync\n"
            ));
        }
        scripts
    }

    #[test]
    fn learns_to_separate_two_script_families() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut p = Prionn::new(tiny_cfg(), &refs).unwrap();
        // short_app -> ~100 min bin range; long_app -> ~800 min.
        let runtimes: Vec<f64> = (0..refs.len())
            .map(|i| if i % 2 == 0 { 100.0 } else { 800.0 })
            .collect();
        let reads: Vec<f64> = (0..refs.len())
            .map(|i| if i % 2 == 0 { 1e7 } else { 1e12 })
            .collect();
        let writes = reads.clone();
        for _ in 0..8 {
            p.retrain(&refs, &runtimes, &reads, &writes).unwrap();
        }
        let preds = p.predict(&refs[..4]).unwrap();
        assert!(
            preds[0].runtime_minutes < preds[1].runtime_minutes,
            "short {} vs long {}",
            preds[0].runtime_minutes,
            preds[1].runtime_minutes
        );
        assert!(preds[0].read_bytes < preds[1].read_bytes);
    }

    #[test]
    fn predict_attaches_map_and_head_spans_under_a_trace_context() {
        use prionn_observe::{trace, FlightConfig, FlightRecorder, Tracer};
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut p = Prionn::new(tiny_cfg(), &refs).unwrap();

        let rec = FlightRecorder::new(FlightConfig::default());
        let tracer = Tracer::new(&rec);
        let root = tracer.root("predict");
        {
            let _ctx = trace::push_current(&tracer, root.ctx());
            p.predict(&refs[..2]).unwrap();
        }
        let root_ctx = root.ctx();
        drop(root);

        let spans = rec.snapshot();
        // The exact inventory: the root, `map`, and one span per head, every
        // one a leaf under the root.
        let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["head:read", "head:runtime", "head:write", "map", "predict"]
        );
        for span in spans.iter().filter(|s| s.name != "predict") {
            assert_eq!(span.trace_id, root_ctx.trace_id);
            assert_eq!(span.parent_id, root_ctx.span_id, "{}", span.name);
            assert!(
                spans.iter().all(|s| s.parent_id != span.span_id),
                "{} has a child",
                span.name
            );
        }
        // A batch the memo answers whole maps nothing and runs no head: its
        // root is the one span it records.
        let before = rec.snapshot().len();
        let root = tracer.root("predict");
        {
            let _ctx = trace::push_current(&tracer, root.ctx());
            p.predict(&refs[..2]).unwrap();
        }
        drop(root);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), before + 1);
        assert_eq!(spans.iter().filter(|s| s.name == "predict").count(), 2);
        // Untraced predictions record nothing new.
        p.predict(&refs[2..4]).unwrap();
        assert_eq!(rec.snapshot().len(), before + 1);
    }

    /// Every field's bits, so a NaN or a signed zero cannot hide a mismatch.
    fn bits(preds: &[ResourcePrediction]) -> Vec<[u64; 3]> {
        preds
            .iter()
            .map(|p| {
                [
                    p.runtime_minutes.to_bits(),
                    p.read_bytes.to_bits(),
                    p.write_bytes.to_bits(),
                ]
            })
            .collect()
    }

    /// What a memo-free model answers: each script forwarded alone by a
    /// fresh replica of `p`'s weights.
    fn forwarded_alone(p: &Prionn, scripts: &[&str]) -> Vec<[u64; 3]> {
        let preds: Vec<ResourcePrediction> = scripts
            .iter()
            .map(|s| p.fork_replica().unwrap().predict(&[s]).unwrap()[0])
            .collect();
        bits(&preds)
    }

    fn memo_hits(registry: &prionn_telemetry::Telemetry) -> u64 {
        registry
            .counter("prionn_predict_memo_hits_total", "")
            .value()
    }

    fn trace_slice(n: usize) -> Vec<prionn_workload::JobRecord> {
        use prionn_workload::{Trace, TraceConfig, TracePreset};
        let trace = Trace::generate(&TraceConfig::preset(TracePreset::CabLike, n));
        trace.executed_jobs().cloned().collect()
    }

    fn retrain_on(p: &mut Prionn, jobs: &[prionn_workload::JobRecord]) {
        let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
        let runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime_minutes()).collect();
        let reads: Vec<f64> = jobs.iter().map(|j| j.bytes_read).collect();
        let writes: Vec<f64> = jobs.iter().map(|j| j.bytes_written).collect();
        p.retrain(&scripts, &runtimes, &reads, &writes).unwrap();
    }

    #[test]
    fn memoised_answers_are_the_bits_a_memo_free_model_gives() {
        let jobs = trace_slice(120);
        let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
        let mut p = Prionn::new(tiny_cfg(), &scripts).unwrap();
        let registry = prionn_telemetry::Telemetry::default();
        p.set_telemetry(&registry);
        retrain_on(&mut p, &jobs[..40]);
        const RETRAIN_STEP: usize = 12;
        let (mut steps, mut hits_before_retrain) = (0, 0);
        for (step, start) in (0..scripts.len()).step_by(4).enumerate() {
            // The trace's own resubmissions, one repeated inside the batch,
            // and one script an earlier batch already asked about.
            let mut batch = scripts[start..(start + 4).min(scripts.len())].to_vec();
            batch.push(batch[0]);
            batch.push(scripts[start / 2]);
            if step == RETRAIN_STEP {
                retrain_on(&mut p, &jobs[40..80]);
                hits_before_retrain = memo_hits(&registry);
            }
            let want = forwarded_alone(&p, &batch);
            assert_eq!(bits(&p.predict(&batch).unwrap()), want, "step {step}");
            steps += 1;
        }
        // Every step repeats one script inside its batch; hits beyond that
        // came from the memo, on both sides of the retrain.
        let hits_after_retrain = memo_hits(&registry) - hits_before_retrain;
        assert!(hits_before_retrain > RETRAIN_STEP as u64);
        assert!(hits_after_retrain > (steps - RETRAIN_STEP) as u64);
    }

    #[test]
    fn every_weight_write_forgets_the_old_answers() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut p = Prionn::new(tiny_cfg(), &refs).unwrap();
        let registry = prionn_telemetry::Telemetry::default();
        p.set_telemetry(&registry);
        let io = vec![1e9; refs.len()];
        let probe = &refs[..6];
        p.retrain(&refs, &vec![30.0; refs.len()], &io, &io).unwrap();
        let first = bits(&p.predict(probe).unwrap());

        // retrain: the answers move with the weights.
        let mut stale = p.fork_replica().unwrap();
        p.retrain(&refs, &vec![900.0; refs.len()], &io, &io)
            .unwrap();
        let retrained = bits(&p.predict(probe).unwrap());
        assert_eq!(retrained, forwarded_alone(&p, probe));
        assert_ne!(retrained, first, "the retrain must move some answer");

        // An accepted hot-swap: `stale` answered on the old weights.
        assert_eq!(bits(&stale.predict(probe).unwrap()), first);
        stale
            .apply_weights_checkpoint(&p.weights_checkpoint().unwrap())
            .unwrap();
        assert_eq!(bits(&stale.predict(probe).unwrap()), retrained);

        // A rejected hot-swap keeps the weights and the answers.
        let stale_registry = prionn_telemetry::Telemetry::default();
        stale.set_telemetry(&stale_registry);
        assert!(stale
            .apply_weights_checkpoint(&prionn_store::Checkpoint::new())
            .is_err());
        assert_eq!(bits(&stale.predict(probe).unwrap()), retrained);
        assert_eq!(memo_hits(&stale_registry), probe.len() as u64);

        // A restore starts with nothing remembered.
        let mut restored = Prionn::from_checkpoint(&p.to_checkpoint().unwrap()).unwrap();
        let restored_registry = prionn_telemetry::Telemetry::default();
        restored.set_telemetry(&restored_registry);
        assert_eq!(bits(&restored.predict(probe).unwrap()), retrained);
        assert_eq!(memo_hits(&restored_registry), 0);
    }

    #[test]
    fn memo_holds_at_most_its_byte_bound() {
        let mut p = Prionn::new(tiny_cfg(), &["#!/bin/bash\nsrun ./app\n"]).unwrap();
        // 15 distinct ~300 KiB scripts: past the bound once.
        let big = |i: usize| format!("#!/bin/bash\n# {i}\n{}", "srun ./app\n".repeat(28_000));
        let scripts: Vec<String> = (0..15).map(big).collect();
        for script in &scripts {
            p.predict(&[script.as_str()]).unwrap();
            assert!(p.memo.key_bytes <= MEMO_KEY_BYTES);
            assert_eq!(
                p.memo.key_bytes,
                p.memo.answers.keys().map(String::len).sum::<usize>()
            );
        }
        assert!(p.memo.answers.len() < scripts.len(), "never dropped");
        assert!(p.memo.get(&scripts[14]).is_some());

        // A script bigger than the whole bound is answered, not kept.
        let huge = "x".repeat(MEMO_KEY_BYTES + 1);
        let kept = p.memo.key_bytes;
        let answer = bits(&p.predict(&[huge.as_str()]).unwrap());
        assert_eq!(answer, forwarded_alone(&p, &[huge.as_str()]));
        assert!(p.memo.get(&huge).is_none());
        assert_eq!(p.memo.key_bytes, kept);
    }

    #[test]
    fn memo_hits_count_scripts_answered_without_a_forward() {
        let scripts = corpus();
        let (a, b, c) = (
            scripts[0].as_str(),
            scripts[1].as_str(),
            scripts[2].as_str(),
        );
        let mut p = Prionn::new(tiny_cfg(), &[a, b, c]).unwrap();
        let registry = prionn_telemetry::Telemetry::default();
        p.set_telemetry(&registry);
        let predictions = registry.counter("prionn_predictions_total", "");
        for (batch, hits, answered) in [
            (vec![a, b], 0, 2),
            // `a` from the memo, the second `c` rides the first's forward.
            (vec![a, c, c], 2, 5),
            (vec![b, c, a], 5, 8),
        ] {
            p.predict(&batch).unwrap();
            assert_eq!(memo_hits(&registry), hits, "{batch:?}");
            assert_eq!(predictions.value(), answered, "{batch:?}");
        }
    }

    impl Prionn {
        /// The heads fitted one after another on the shared RNG: the bits
        /// [`Prionn::fit_heads`] must give.
        fn fit_heads_in_turn(
            &mut self,
            scripts: &[&str],
            targets: &[(&str, &[f64])],
        ) -> Result<Vec<f32>> {
            let x = self.prepare_fit(scripts, targets)?;
            let mut final_losses = Vec::new();
            for head in &mut self.heads {
                let Some(&(_, values)) = targets.iter().find(|(name, _)| *name == head.name) else {
                    continue;
                };
                head.model.reset_scratch_stats();
                let losses = head.fit(&x, values, &self.bins, &self.cfg, &mut self.rng)?;
                final_losses.push(losses.last().copied().unwrap_or(f32::NAN));
            }
            Ok(final_losses)
        }
    }

    #[test]
    fn heads_fitted_at_once_give_the_bits_of_heads_fitted_in_turn() {
        let jobs = trace_slice(60);
        let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
        let runtimes: Vec<f64> = jobs.iter().map(|j| j.runtime_minutes()).collect();
        let reads: Vec<f64> = jobs.iter().map(|j| j.bytes_read).collect();
        let writes: Vec<f64> = jobs.iter().map(|j| j.bytes_written).collect();
        let targets = [
            ("runtime", runtimes.as_slice()),
            ("read", reads.as_slice()),
            ("write", writes.as_slice()),
        ];
        for head in [HeadKind::Classifier, HeadKind::Regressor] {
            for predict_io in [false, true] {
                let cfg = PrionnConfig {
                    head,
                    predict_io,
                    epochs: 3,
                    ..tiny_cfg()
                };
                let case = format!("{head:?} predict_io={predict_io}");
                let mut at_once = Prionn::new(cfg, &scripts[..8]).unwrap();
                let mut in_turn = at_once.fork_replica().unwrap();
                assert_eq!(at_once.heads.len(), if predict_io { 3 } else { 1 });
                // Warm rounds on shifting windows, so moments carry over.
                for round in 0..3 {
                    let rows = 20 + 10 * round..;
                    let window: Vec<(&str, &[f64])> = targets
                        .iter()
                        .map(|&(n, v)| (n, &v[rows.clone()]))
                        .collect();
                    let a = at_once.fit_heads(&scripts[rows.clone()], &window).unwrap();
                    let b = in_turn.fit_heads_in_turn(&scripts[rows], &window).unwrap();
                    let loss_bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(loss_bits(&a), loss_bits(&b), "{case} round {round} losses");
                    assert_eq!(
                        at_once.rng.get_word_pos(),
                        in_turn.rng.get_word_pos(),
                        "{case} round {round} rng"
                    );
                }
                // Weights, Adam moments and the RNG, section by section.
                let (a, b) = (
                    at_once.to_checkpoint().unwrap(),
                    in_turn.to_checkpoint().unwrap(),
                );
                assert!(a.section_names().any(|n| n.starts_with("opt.")));
                assert!(a.section_names().eq(b.section_names()), "{case}");
                for name in a.section_names() {
                    assert!(a.get(name) == b.get(name), "{case}: section {name} differs");
                }
            }
        }
    }

    impl Prionn {
        /// Every head run one after another on the calling thread: the bits
        /// [`Prionn::forward`] must give.
        fn forward_in_turn(&mut self, scripts: &[&str]) -> Result<Vec<ResourcePrediction>> {
            let x = self.map_scripts(scripts)?;
            let batch_size = self.cfg.batch_size.max(1);
            let mut preds = vec![ResourcePrediction::default(); scripts.len()];
            for head in &mut self.heads {
                let values = head.predict(&x, &self.bins, batch_size)?;
                for (pred, value) in preds.iter_mut().zip(values) {
                    *(head.field)(pred) = value;
                }
            }
            Ok(preds)
        }
    }

    #[test]
    fn heads_run_at_once_give_the_bits_of_heads_run_in_turn() {
        let jobs = trace_slice(80);
        let scripts: Vec<&str> = jobs.iter().map(|j| j.script.as_str()).collect();
        for predict_io in [false, true] {
            let cfg = PrionnConfig {
                predict_io,
                epochs: 2,
                ..tiny_cfg()
            };
            let mut at_once = Prionn::new(cfg, &scripts[..8]).unwrap();
            retrain_on(&mut at_once, &jobs[..40]);
            let mut in_turn = at_once.fork_replica().unwrap();
            assert_eq!(at_once.heads.len(), if predict_io { 3 } else { 1 });
            for batch in [1, 4, 32] {
                let window = &scripts[40..40 + batch];
                let a = at_once.forward(window).unwrap();
                let b = in_turn.forward_in_turn(window).unwrap();
                assert_eq!(bits(&a), bits(&b), "predict_io={predict_io} b{batch}");
                assert_eq!(at_once.heads.len(), in_turn.heads.len());
            }
        }
    }

    #[test]
    fn retrain_counts_and_is_warm() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut cfg = tiny_cfg();
        cfg.predict_io = false;
        let mut p = Prionn::new(cfg, &refs).unwrap();
        let runtimes = vec![100.0; refs.len()];
        p.retrain(&refs, &runtimes, &[], &[]).unwrap();
        p.retrain(&refs, &runtimes, &[], &[]).unwrap();
        assert_eq!(p.retrain_count(), 2);
    }

    #[test]
    fn io_heads_disabled_predict_zero_bytes() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut cfg = tiny_cfg();
        cfg.predict_io = false;
        let mut p = Prionn::new(cfg, &refs).unwrap();
        p.retrain(&refs, &vec![50.0; refs.len()], &[], &[]).unwrap();
        let preds = p.predict(&refs[..2]).unwrap();
        assert_eq!(preds[0].read_bytes, 0.0);
        assert_eq!(preds[0].write_bytes, 0.0);
    }

    #[test]
    fn rejects_mismatched_targets_and_empty_batches() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut p = Prionn::new(tiny_cfg(), &refs).unwrap();
        assert!(p.retrain(&refs, &[1.0], &[], &[]).is_err());
        assert!(p.retrain(&[], &[], &[], &[]).is_err());
        let empty: Vec<ResourcePrediction> = p.predict(&[]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn a_malformed_batch_trains_no_head() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut cfg = tiny_cfg();
        cfg.epochs = 1;
        let mut p = Prionn::new(cfg, &refs).unwrap();
        let (runtimes, io) = (vec![60.0; refs.len()], vec![1e8; refs.len()]);
        p.retrain(&refs, &runtimes, &io, &io).unwrap();
        // The checkpoint holds every head's weights and Adam moments, the
        // RNG stream position and the retrain counter.
        let before = p.to_checkpoint().unwrap().to_bytes();
        assert!(p.retrain(&refs, &runtimes, &io[..3], &io).is_err());
        assert!(p.retrain(&refs, &runtimes, &io, &io[..3]).is_err());
        assert!(p.retrain(&[], &[], &[], &[]).is_err());
        assert!(p.to_checkpoint().unwrap().to_bytes() == before);
    }

    fn tmp_ckpt_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("prionn-pred-{tag}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut a = Prionn::new(tiny_cfg(), &refs).unwrap();
        let runtimes: Vec<f64> = (0..refs.len())
            .map(|i| if i % 2 == 0 { 30.0 } else { 500.0 })
            .collect();
        let io: Vec<f64> = vec![1e9; refs.len()];
        a.retrain(&refs, &runtimes, &io, &io).unwrap();

        let path = tmp_ckpt_path("roundtrip");
        a.save(&path).unwrap();
        let mut b = Prionn::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(b.retrain_count(), a.retrain_count());
        let pa = a.predict(&refs[..4]).unwrap();
        let pb = b.predict(&refs[..4]).unwrap();
        assert_eq!(pa, pb, "restored predictions must be bit-identical");

        // Warm restart: a retrain on both instances stays in lockstep
        // because weights, optimiser moments, and the RNG stream position
        // were all restored.
        a.retrain(&refs, &runtimes, &io, &io).unwrap();
        b.retrain(&refs, &runtimes, &io, &io).unwrap();
        assert_eq!(
            a.predict(&refs[..4]).unwrap(),
            b.predict(&refs[..4]).unwrap()
        );
    }

    #[test]
    fn save_load_save_produces_identical_bytes() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut a = Prionn::new(tiny_cfg(), &refs).unwrap();
        a.retrain(
            &refs,
            &vec![60.0; refs.len()],
            &vec![1e8; refs.len()],
            &vec![1e8; refs.len()],
        )
        .unwrap();
        let first = a.to_checkpoint().unwrap().to_bytes();
        let b = Prionn::from_checkpoint(&prionn_store::Checkpoint::from_bytes(&first).unwrap())
            .unwrap();
        assert_eq!(b.to_checkpoint().unwrap().to_bytes(), first);
    }

    #[test]
    fn load_rejects_checkpoint_for_different_architecture() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let a = Prionn::new(tiny_cfg(), &refs).unwrap();
        let mut bytes = a.to_checkpoint().unwrap().to_bytes();
        // Corrupting any single byte must yield Err, not a panic. Sweep a
        // sparse sample (the store property tests sweep exhaustively).
        for i in (0..bytes.len()).step_by(97) {
            bytes[i] ^= 0x5a;
            let result = prionn_store::Checkpoint::from_bytes(&bytes)
                .and_then(|ck| Prionn::from_checkpoint(&ck));
            assert!(result.is_err(), "flipped byte {i} must not load");
            bytes[i] ^= 0x5a;
        }
    }

    /// `ck` with its `bins` section replaced.
    fn with_bins(ck: &Checkpoint, bins: [ValueBins; 3]) -> Checkpoint {
        let mut section = Vec::new();
        for entry in &bins {
            checkpoint::encode_bins(&mut section, entry);
        }
        let mut out = Checkpoint::new();
        for name in ck.section_names() {
            let payload = match name {
                "bins" => section.clone(),
                _ => ck.get(name).unwrap().to_vec(),
            };
            out.insert(name, payload).unwrap();
        }
        out
    }

    #[test]
    fn load_rejects_bins_the_heads_cannot_use() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let a = Prionn::new(tiny_cfg(), &refs).unwrap();
        let ck = a.to_checkpoint().unwrap();
        let good = a.bins.clone();
        let runtime = |lo, hi, n| {
            [
                ValueBins::Linear { lo, hi, n },
                good[1].clone(),
                good[2].clone(),
            ]
        };
        let io = |lo, hi, n| {
            [
                good[0].clone(),
                ValueBins::Log { lo, hi, n },
                good[2].clone(),
            ]
        };
        for (why, bad) in [
            ("inverted", runtime(960.0, 0.0, 16)),
            ("NaN bound", io(1e5, f64::NAN, 8)),
            ("log scale from zero", io(0.0, 1e14, 8)),
            (
                "one bin more than the runtime head is wide",
                runtime(0.0, 960.0, 17),
            ),
            ("half the IO heads' width", io(1e5, 1e14, 4)),
        ] {
            assert!(
                Prionn::from_checkpoint(&with_bins(&ck, bad)).is_err(),
                "{why}"
            );
        }
        // Other edges over the same count are a legal file, and train.
        let mut b = Prionn::from_checkpoint(&with_bins(&ck, runtime(0.0, 480.0, 16))).unwrap();
        let io = vec![1e9; refs.len()];
        b.retrain(&refs, &vec![700.0; refs.len()], &io, &io)
            .unwrap();
    }

    #[test]
    fn fork_replica_is_bit_identical_and_independent() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut a = Prionn::new(tiny_cfg(), &refs).unwrap();
        let runtimes: Vec<f64> = (0..refs.len())
            .map(|i| if i % 2 == 0 { 30.0 } else { 500.0 })
            .collect();
        let io = vec![1e9; refs.len()];
        a.retrain(&refs, &runtimes, &io, &io).unwrap();
        let mut replica = a.fork_replica().unwrap();
        assert_eq!(
            a.predict(&refs[..4]).unwrap(),
            replica.predict(&refs[..4]).unwrap()
        );
        // Independence: training the original must not move the replica.
        let before = replica.predict(&refs[..2]).unwrap();
        a.retrain(&refs, &runtimes, &io, &io).unwrap();
        assert_eq!(replica.predict(&refs[..2]).unwrap(), before);
    }

    #[test]
    fn weights_checkpoint_hot_swaps_a_replica_onto_new_weights() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut master = Prionn::new(tiny_cfg(), &refs).unwrap();
        let runtimes: Vec<f64> = (0..refs.len())
            .map(|i| if i % 2 == 0 { 30.0 } else { 500.0 })
            .collect();
        let io = vec![1e9; refs.len()];
        master.retrain(&refs, &runtimes, &io, &io).unwrap();
        let mut replica = master.fork_replica().unwrap();

        // Master keeps learning; the replica is now stale ...
        for _ in 0..3 {
            master.retrain(&refs, &runtimes, &io, &io).unwrap();
        }
        // ... until the weight broadcast catches it up exactly.
        let weights = master.weights_checkpoint().unwrap();
        replica.apply_weights_checkpoint(&weights).unwrap();
        assert_eq!(
            master.predict(&refs[..4]).unwrap(),
            replica.predict(&refs[..4]).unwrap()
        );
    }

    #[test]
    fn apply_weights_checkpoint_rejects_bad_payloads_atomically() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut a = Prionn::new(tiny_cfg(), &refs).unwrap();
        let runtimes = vec![60.0; refs.len()];
        let io = vec![1e8; refs.len()];
        a.retrain(&refs, &runtimes, &io, &io).unwrap();
        let before = a.predict(&refs[..4]).unwrap();

        // A wider architecture's weights must be rejected outright.
        let mut wide_cfg = tiny_cfg();
        wide_cfg.base_width = 4;
        let wide = Prionn::new(wide_cfg, &refs).unwrap();
        assert!(a
            .apply_weights_checkpoint(&wide.weights_checkpoint().unwrap())
            .is_err());
        assert_eq!(a.predict(&refs[..4]).unwrap(), before);

        // A payload whose runtime head is valid but whose read head is the
        // wrong shape must roll the runtime head back: no torn mix.
        // The donor trains on other targets, so a torn write would show.
        let mut donor = Prionn::new(tiny_cfg(), &refs).unwrap();
        let other = vec![3e12; refs.len()];
        donor
            .retrain(&refs, &vec![900.0; refs.len()], &other, &other)
            .unwrap();
        let good = donor.weights_checkpoint().unwrap();
        let wide_ck = wide.weights_checkpoint().unwrap();
        let mut mixed = prionn_store::Checkpoint::new();
        mixed
            .insert("model.runtime", good.get("model.runtime").unwrap().to_vec())
            .unwrap();
        mixed
            .insert("model.read", wide_ck.get("model.read").unwrap().to_vec())
            .unwrap();
        mixed
            .insert("model.write", good.get("model.write").unwrap().to_vec())
            .unwrap();
        assert!(a.apply_weights_checkpoint(&mixed).is_err());
        assert_eq!(a.predict(&refs[..4]).unwrap(), before);

        // A missing section errors too.
        assert!(a
            .apply_weights_checkpoint(&prionn_store::Checkpoint::new())
            .is_err());
        assert_eq!(a.predict(&refs[..4]).unwrap(), before);

        // Only the last section (write) is the wrong shape: the runtime and
        // read heads before it stay untouched as well.
        let before = a.weights_checkpoint().unwrap();
        let mut mixed = prionn_store::Checkpoint::new();
        for section in ["model.runtime", "model.read"] {
            assert!(good.get(section) != before.get(section), "{section}");
            mixed
                .insert(section, good.get(section).unwrap().to_vec())
                .unwrap();
        }
        mixed
            .insert("model.write", wide_ck.get("model.write").unwrap().to_vec())
            .unwrap();
        assert!(a.apply_weights_checkpoint(&mixed).is_err());
        let after = a.weights_checkpoint().unwrap();
        for section in ["model.runtime", "model.read", "model.write"] {
            assert!(after.get(section) == before.get(section), "{section}");
        }
    }

    /// The model sections a full and a weights checkpoint carry are the
    /// bytes the clone-based codec wrote for the same model, and a restore
    /// from those bytes predicts bit for bit what the model does.
    #[test]
    fn checkpoint_bytes_keep_the_state_dict_encoding() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut p = Prionn::new(tiny_cfg(), &refs).unwrap();
        let io = vec![1e9; refs.len()];
        p.retrain(&refs, &vec![45.0; refs.len()], &io, &io).unwrap();
        let full = p.to_checkpoint().unwrap();
        let weights = p.weights_checkpoint().unwrap();
        assert_eq!(weights.len(), p.heads.len());
        for head in &p.heads {
            let want = crate::checkpoint::tests::reference_encoding(&head.model);
            let section = head.model_section();
            assert!(full.get(&section) == Some(&want[..]), "{section}");
            assert!(weights.get(&section) == Some(&want[..]), "{section}");
        }
        let bytes = full.to_bytes();
        let mut restored =
            Prionn::from_checkpoint(&prionn_store::Checkpoint::from_bytes(&bytes).unwrap())
                .unwrap();
        assert_eq!(restored.to_checkpoint().unwrap().to_bytes(), bytes);
        assert_eq!(
            bits(&restored.predict(&refs).unwrap()),
            bits(&p.predict(&refs).unwrap())
        );
    }

    /// A last head whose section is truncated, misshapen or miscounted is
    /// refused before the heads ahead of it are written.
    #[test]
    fn apply_refuses_truncated_misshapen_and_miscounted_sections_untouched() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut a = Prionn::new(tiny_cfg(), &refs).unwrap();
        let mut donor = Prionn::new(tiny_cfg(), &refs).unwrap();
        let io = vec![1e8; refs.len()];
        a.retrain(&refs, &vec![60.0; refs.len()], &io, &io).unwrap();
        let other = vec![3e12; refs.len()];
        donor
            .retrain(&refs, &vec![900.0; refs.len()], &other, &other)
            .unwrap();
        let good = donor.weights_checkpoint().unwrap();
        let write = good.get("model.write").unwrap();
        // Offset of the first entry's first dim: count, then the key.
        let mut r = wire::Reader::new(write);
        r.get_u64("count").unwrap();
        r.get_str("key").unwrap();
        let dims0 = write.len() - r.remaining() + 8;

        let mut misshapen = write.to_vec();
        misshapen[dims0] ^= 1;
        let mut miscounted = write.to_vec();
        miscounted[0] += 1;
        let mut undercounted = write.to_vec();
        undercounted[0] -= 1;
        let cases = [
            ("truncated", write[..write.len() - 1].to_vec()),
            ("truncated mid-entry", write[..dims0].to_vec()),
            ("misshapen", misshapen),
            ("miscounted", miscounted),
            ("undercounted", undercounted),
        ];
        let before = a.weights_checkpoint().unwrap();
        let answers = bits(&a.predict(&refs).unwrap());
        for (what, bad) in cases {
            let mut mixed = prionn_store::Checkpoint::new();
            for section in ["model.runtime", "model.read"] {
                assert!(good.get(section) != before.get(section), "{section}");
                mixed
                    .insert(section, good.get(section).unwrap().to_vec())
                    .unwrap();
            }
            mixed.insert("model.write", bad).unwrap();
            assert!(a.apply_weights_checkpoint(&mixed).is_err(), "{what}");
            let after = a.weights_checkpoint().unwrap();
            for section in ["model.runtime", "model.read", "model.write"] {
                assert!(
                    after.get(section) == before.get(section),
                    "{what}: {section}"
                );
            }
            assert_eq!(bits(&a.predict(&refs).unwrap()), answers, "{what}");
        }
    }

    #[test]
    fn bandwidth_derivation_divides_by_runtime() {
        let pred = ResourcePrediction {
            runtime_minutes: 10.0,
            read_bytes: 6e8,
            write_bytes: 1.2e9,
        };
        let (r, w) = Prionn::bandwidth_of(&pred);
        assert!((r - 1e6).abs() < 1.0);
        assert!((w - 2e6).abs() < 1.0);
    }

    #[test]
    fn regression_head_learns_the_same_separation() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        let mut cfg = tiny_cfg();
        cfg.head = HeadKind::Regressor;
        cfg.predict_io = false;
        cfg.epochs = 20;
        cfg.lr = 5e-3;
        let mut p = Prionn::new(cfg, &refs).unwrap();
        let runtimes: Vec<f64> = (0..refs.len())
            .map(|i| if i % 2 == 0 { 20.0 } else { 700.0 })
            .collect();
        for _ in 0..4 {
            p.retrain(&refs, &runtimes, &[], &[]).unwrap();
        }
        let preds = p.predict(&refs[..4]).unwrap();
        assert!(
            preds[0].runtime_minutes < preds[1].runtime_minutes,
            "short {} vs long {}",
            preds[0].runtime_minutes,
            preds[1].runtime_minutes
        );
        for pr in &preds {
            assert!((0.0..=960.0).contains(&pr.runtime_minutes));
        }
    }

    #[test]
    fn all_transforms_construct() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        for t in TransformKind::ALL {
            let mut cfg = tiny_cfg();
            cfg.transform = t;
            cfg.predict_io = false;
            let p = Prionn::new(cfg, &refs).unwrap();
            assert!(p.map_scripts(&refs[..2]).is_ok(), "{t:?}");
        }
    }

    #[test]
    fn all_model_kinds_train_one_step() {
        let scripts = corpus();
        let refs: Vec<&str> = scripts.iter().map(|s| s.as_str()).collect();
        for m in ModelKind::ALL {
            let mut cfg = tiny_cfg();
            cfg.model = m;
            cfg.predict_io = false;
            cfg.epochs = 1;
            let mut p = Prionn::new(cfg, &refs).unwrap();
            p.retrain(&refs, &vec![10.0; refs.len()], &[], &[]).unwrap();
            assert_eq!(p.predict(&refs[..1]).unwrap().len(), 1, "{m:?}");
        }
    }
}
