//! Character-level word2vec: skip-gram with negative sampling
//! (Mikolov et al., NIPS 2013), applied at the granularity PRIONN uses —
//! individual script characters, embedding their surrounding context.

use crate::transform::{CharTransform, VOCAB};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Training configuration for the skip-gram model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Word2vecConfig {
    /// Embedding width. The paper settles on 4 for PRIONN (§2.4) after
    /// describing an 8-wide variant (§2.1).
    pub dim: usize,
    /// Context window radius (characters either side of the centre).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2vecConfig {
    fn default() -> Self {
        Word2vecConfig {
            dim: 4,
            window: 2,
            negatives: 4,
            lr: 0.05,
            epochs: 2,
            seed: 0x77,
        }
    }
}

/// Buckets of [`NegativeSampler`]'s guide table.
const GUIDE_BUCKETS: usize = 4096;

/// Inverse-CDF sampling of a vocabulary row that answers, for every draw,
/// exactly what `cdf.partition_point(|&c| c < u).min(VOCAB - 1)` answers.
/// A guide table holds that search's answer at the left edge of each of
/// [`GUIDE_BUCKETS`] equal buckets of `[0, 1)`. Since `cdf` never
/// decreases, the answer for any draw in a bucket is at or after its
/// bucket's entry, so a draw starts there and scans forward (usually not at
/// all) to the first row whose `cdf` reaches it.
struct NegativeSampler {
    cdf: Vec<f64>,
    guide: Vec<u16>,
}

impl NegativeSampler {
    fn new(cdf: Vec<f64>) -> Self {
        let guide = (0..GUIDE_BUCKETS)
            .map(|b| {
                // `b / GUIDE_BUCKETS` is exact: the bucket's left edge.
                let edge = b as f64 / GUIDE_BUCKETS as f64;
                cdf.partition_point(|&c| c < edge) as u16
            })
            .collect();
        NegativeSampler { cdf, guide }
    }

    #[inline]
    fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen();
        // Scaling by a power of two is exact, so the bucket's edge is ≤ `u`.
        let bucket = ((u * GUIDE_BUCKETS as f64) as usize).min(GUIDE_BUCKETS - 1);
        let mut i = self.guide[bucket] as usize;
        while i < self.cdf.len() && self.cdf[i] < u {
            i += 1;
        }
        i.min(VOCAB - 1)
    }
}

/// Skip-gram with negative sampling over every (centre, context) pair of
/// `scripts` (vocabulary rows), `cfg.epochs` times, updating the `input`
/// (centre) table in place beside an output (context) table that starts at
/// zero. `DIM` is the embedding width when nonzero; 0 reads `cfg.dim`.
fn skip_gram<const DIM: usize>(
    scripts: &[Vec<u8>],
    cfg: &Word2vecConfig,
    sampler: &NegativeSampler,
    rng: &mut ChaCha8Rng,
    input: &mut [f32],
) {
    let dim = if DIM == 0 { cfg.dim } else { DIM };
    let mut output = vec![0.0f32; VOCAB * dim];
    let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
    let mut grad_centre = vec![0.0f32; dim];
    for _ in 0..cfg.epochs.max(1) {
        for bytes in scripts {
            for (i, &centre) in bytes.iter().enumerate() {
                let centre = centre as usize;
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window + 1).min(bytes.len());
                for (j, &context) in bytes.iter().enumerate().take(hi).skip(lo) {
                    if j == i {
                        continue;
                    }
                    grad_centre.iter_mut().for_each(|g| *g = 0.0);
                    // One positive + k negative logistic updates.
                    for k in 0..=cfg.negatives {
                        let (target, label) = if k == 0 {
                            (context as usize, 1.0f32)
                        } else {
                            (sampler.sample(rng), 0.0f32)
                        };
                        let (ci, oi) = (centre * dim, target * dim);
                        let dot: f32 = (0..dim).map(|d| input[ci + d] * output[oi + d]).sum();
                        let err = (sigmoid(dot) - label) * cfg.lr;
                        for d in 0..dim {
                            grad_centre[d] += err * output[oi + d];
                            output[oi + d] -= err * input[ci + d];
                        }
                    }
                    let ci = centre * dim;
                    for d in 0..dim {
                        input[ci + d] -= grad_centre[d];
                    }
                }
            }
        }
    }
}

/// A trained character embedding table: one `dim`-wide vector per ASCII
/// character.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharEmbedding {
    dim: usize,
    table: Vec<f32>, // VOCAB * dim, row per character
}

impl CharEmbedding {
    /// Train on a corpus of scripts with skip-gram + negative sampling.
    ///
    /// Both the input (centre) and output (context) tables are learned; the
    /// input table becomes the embedding, per standard practice.
    pub fn train(corpus: &[&str], cfg: &Word2vecConfig) -> Self {
        assert!(cfg.dim > 0, "embedding dim must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let scale = 0.5 / cfg.dim as f32;
        let mut input: Vec<f32> = (0..VOCAB * cfg.dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        // Unigram distribution (3/4 power) for negative sampling.
        let mut counts = [1.0f64; VOCAB];
        for s in corpus {
            for b in s.bytes() {
                counts[(b as usize) % VOCAB] += 1.0;
            }
        }
        let weights: Vec<f64> = counts.iter().map(|c| c.powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        // Cumulative table for inverse-CDF sampling.
        let mut cdf = Vec::with_capacity(VOCAB);
        let mut acc = 0.0f64;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let sampler = NegativeSampler::new(cdf);
        // Each script's characters as vocabulary rows, mapped once.
        let scripts: Vec<Vec<u8>> = corpus
            .iter()
            .map(|s| s.bytes().map(|b| b % VOCAB as u8).collect())
            .collect();
        // The paper's widths run a pass compiled for them, which unrolls the
        // per-pair loops; any other width runs the same arithmetic in the
        // same order with the width read at run time.
        let fit = match cfg.dim {
            4 => skip_gram::<4>,
            8 => skip_gram::<8>,
            _ => skip_gram::<0>,
        };
        fit(&scripts, cfg, &sampler, &mut rng, &mut input);
        CharEmbedding {
            dim: cfg.dim,
            table: input,
        }
    }

    /// Rebuild an embedding from a persisted table (`VOCAB × dim`,
    /// row-major, one row per ASCII character).
    pub fn from_parts(dim: usize, table: Vec<f32>) -> Option<Self> {
        (dim > 0 && table.len() == VOCAB * dim).then_some(CharEmbedding { dim, table })
    }

    /// The raw row-major `VOCAB × dim` table.
    pub fn table(&self) -> &[f32] {
        &self.table
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The embedding vector for a character.
    pub fn vector(&self, c: u8) -> &[f32] {
        let i = (c as usize % VOCAB) * self.dim;
        &self.table[i..i + self.dim]
    }

    /// Cosine similarity between two characters' embeddings.
    pub fn cosine(&self, a: u8, b: u8) -> f32 {
        let (va, vb) = (self.vector(a), self.vector(b));
        let dot: f32 = va.iter().zip(vb).map(|(&x, &y)| x * y).sum();
        let na: f32 = va.iter().map(|v| v * v).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|v| v * v).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

/// A [`CharTransform`] backed by a trained [`CharEmbedding`].
#[derive(Debug, Clone)]
pub struct Word2vecTransform {
    emb: CharEmbedding,
}

impl Word2vecTransform {
    /// Wrap a trained embedding.
    pub fn new(emb: CharEmbedding) -> Self {
        Word2vecTransform { emb }
    }

    /// Train an embedding on `corpus` and wrap it.
    pub fn train(corpus: &[&str], cfg: &Word2vecConfig) -> Self {
        Word2vecTransform {
            emb: CharEmbedding::train(corpus, cfg),
        }
    }

    /// The underlying embedding table.
    pub fn embedding(&self) -> &CharEmbedding {
        &self.emb
    }
}

impl CharTransform for Word2vecTransform {
    fn dim(&self) -> usize {
        self.emb.dim()
    }

    fn encode(&self, c: u8, out: &mut [f32]) {
        out.copy_from_slice(self.emb.vector(c));
    }

    fn name(&self) -> &'static str {
        "word2vec"
    }

    fn export_table(&self) -> Option<(usize, Vec<f32>)> {
        Some((self.emb.dim(), self.emb.table().to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Vec<&'static str> {
        vec![
            "#!/bin/bash\n#SBATCH -N 4\n#SBATCH -t 02:00:00\nsrun ./app input.nml\n",
            "#!/bin/bash\n#SBATCH -N 8\n#SBATCH -t 01:30:00\nsrun ./sim run.cfg\n",
            "#!/bin/bash\n#SBATCH -N 2\n#SBATCH -t 00:45:00\nsrun python train.py\n",
        ]
    }

    /// The trainer as it was before negative sampling got its guide table
    /// and the corpus was mapped once: a binary search per draw, each
    /// script's bytes mapped again every epoch.
    fn train_by_binary_search(corpus: &[&str], cfg: &Word2vecConfig) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let scale = 0.5 / cfg.dim as f32;
        let mut input: Vec<f32> = (0..VOCAB * cfg.dim)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let mut output = vec![0.0f32; VOCAB * cfg.dim];
        let mut counts = [1.0f64; VOCAB];
        for s in corpus {
            for b in s.bytes() {
                counts[(b as usize) % VOCAB] += 1.0;
            }
        }
        let weights: Vec<f64> = counts.iter().map(|c| c.powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(VOCAB);
        let mut acc = 0.0f64;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let sample_negative = |rng: &mut ChaCha8Rng| -> usize {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c < u).min(VOCAB - 1)
        };
        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
        let dim = cfg.dim;
        let mut grad_centre = vec![0.0f32; dim];
        for _ in 0..cfg.epochs.max(1) {
            for s in corpus {
                let bytes: Vec<usize> = s.bytes().map(|b| (b as usize) % VOCAB).collect();
                for (i, &centre) in bytes.iter().enumerate() {
                    let lo = i.saturating_sub(cfg.window);
                    let hi = (i + cfg.window + 1).min(bytes.len());
                    for (j, &context) in bytes.iter().enumerate().take(hi).skip(lo) {
                        if j == i {
                            continue;
                        }
                        grad_centre.iter_mut().for_each(|g| *g = 0.0);
                        for k in 0..=cfg.negatives {
                            let (target, label) = if k == 0 {
                                (context, 1.0f32)
                            } else {
                                (sample_negative(&mut rng), 0.0f32)
                            };
                            let (ci, oi) = (centre * dim, target * dim);
                            let dot: f32 = (0..dim).map(|d| input[ci + d] * output[oi + d]).sum();
                            let err = (sigmoid(dot) - label) * cfg.lr;
                            for d in 0..dim {
                                grad_centre[d] += err * output[oi + d];
                                output[oi + d] -= err * input[ci + d];
                            }
                        }
                        let ci = centre * dim;
                        for d in 0..dim {
                            input[ci + d] -= grad_centre[d];
                        }
                    }
                }
            }
        }
        input
    }

    #[test]
    fn table_is_the_bits_of_the_binary_search_trainer() {
        let digits: String = (0..200)
            .map(|i| format!("#SBATCH -N {}\n", i % 10))
            .collect();
        // Every byte value, multi-byte UTF-8 included (rows wrap mod VOCAB),
        // and one character so frequent that the CDF jumps across buckets.
        let wide: String = (0u8..128).map(char::from).chain("é→λ✓".chars()).collect();
        let skewed = format!("{}{wide}", "x".repeat(3000));
        let corpora: [Vec<&str>; 4] = [
            tiny_corpus(),
            vec![digits.as_str(), "echo hello_world\n"],
            vec![wide.as_str(), skewed.as_str(), ""],
            vec![],
        ];
        for corpus in &corpora {
            for seed in [0x77, 11] {
                // 4 and 8 run passes compiled for their width; 3 the other.
                for dim in [3, 4, 8] {
                    let cfg = Word2vecConfig {
                        dim,
                        seed,
                        ..Default::default()
                    };
                    let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(CharEmbedding::train(corpus, &cfg).table()),
                        bits(&train_by_binary_search(corpus, &cfg)),
                        "corpus of {} scripts, seed {seed}, dim {dim}",
                        corpus.len()
                    );
                }
            }
        }
    }

    #[test]
    fn guide_table_sampling_is_the_binary_search() {
        // A CDF with flat runs, steep jumps and a last entry short of 1.
        let mut cdf: Vec<f64> = (0..VOCAB)
            .map(|i| ((i / 7) as f64 / 19.0).min(0.9999))
            .collect();
        cdf[VOCAB / 2] = cdf[VOCAB / 2 - 1];
        let sampler = NegativeSampler::new(cdf.clone());
        let mut a = ChaCha8Rng::seed_from_u64(3);
        let mut b = a.clone();
        for _ in 0..100_000 {
            let u: f64 = b.gen();
            assert_eq!(
                sampler.sample(&mut a),
                cdf.partition_point(|&c| c < u).min(VOCAB - 1),
                "u = {u}"
            );
        }
    }

    #[test]
    fn trains_and_exposes_vectors_of_right_width() {
        let cfg = Word2vecConfig {
            dim: 4,
            epochs: 1,
            ..Default::default()
        };
        let emb = CharEmbedding::train(&tiny_corpus(), &cfg);
        assert_eq!(emb.dim(), 4);
        assert_eq!(emb.vector(b'a').len(), 4);
    }

    #[test]
    fn training_is_deterministic_for_seed() {
        let cfg = Word2vecConfig::default();
        let a = CharEmbedding::train(&tiny_corpus(), &cfg);
        let b = CharEmbedding::train(&tiny_corpus(), &cfg);
        assert_eq!(a.vector(b'S'), b.vector(b'S'));
    }

    #[test]
    fn digits_in_shared_context_are_more_similar_than_unrelated_chars() {
        // Digits appear in interchangeable contexts (node counts), so
        // skip-gram should place them closer to each other on average than
        // to letters that never share context with them.
        let mut corpus = String::new();
        for d in 0..10 {
            for _ in 0..20 {
                corpus.push_str(&format!("#SBATCH -N {d}\n"));
            }
        }
        for _ in 0..50 {
            corpus.push_str("echo hello_world\n");
        }
        let scripts = [corpus.as_str()];
        let cfg = Word2vecConfig {
            epochs: 4,
            ..Default::default()
        };
        let emb = CharEmbedding::train(&scripts, &cfg);
        let digits = [b'1', b'3', b'5', b'7', b'9'];
        let letters = [b'e', b'h', b'l', b'o', b'w'];
        let mut digit_sim = 0.0f32;
        let mut cross_sim = 0.0f32;
        let mut pairs = 0;
        for (i, &a) in digits.iter().enumerate() {
            for &b in &digits[i + 1..] {
                digit_sim += emb.cosine(a, b);
                pairs += 1;
            }
        }
        digit_sim /= pairs as f32;
        for &a in &digits {
            for &b in &letters {
                cross_sim += emb.cosine(a, b);
            }
        }
        cross_sim /= (digits.len() * letters.len()) as f32;
        assert!(
            digit_sim > cross_sim,
            "mean digit-digit {digit_sim} should exceed mean digit-letter {cross_sim}"
        );
    }

    #[test]
    fn embedding_changes_with_training() {
        let cfg = Word2vecConfig::default();
        let trained = CharEmbedding::train(&tiny_corpus(), &cfg);
        let blank = CharEmbedding::train(&[], &cfg);
        assert_ne!(trained.vector(b'S'), blank.vector(b'S'));
    }

    #[test]
    fn transform_encodes_via_table() {
        let cfg = Word2vecConfig::default();
        let t = Word2vecTransform::train(&tiny_corpus(), &cfg);
        let mut out = vec![0.0f32; t.dim()];
        t.encode(b'N', &mut out);
        assert_eq!(out.as_slice(), t.embedding().vector(b'N'));
    }

    #[test]
    fn exported_table_rebuilds_an_identical_transform() {
        let cfg = Word2vecConfig::default();
        let t = Word2vecTransform::train(&tiny_corpus(), &cfg);
        let (dim, table) = t.export_table().expect("word2vec has a table");
        let rebuilt =
            Word2vecTransform::new(CharEmbedding::from_parts(dim, table).expect("valid table"));
        for c in 0u8..128 {
            let mut a = vec![0.0f32; t.dim()];
            let mut b = vec![0.0f32; rebuilt.dim()];
            t.encode(c, &mut a);
            rebuilt.encode(c, &mut b);
            assert_eq!(a, b, "char {c}");
        }
    }

    #[test]
    fn from_parts_rejects_bad_lengths() {
        assert!(CharEmbedding::from_parts(4, vec![0.0; VOCAB * 4]).is_some());
        assert!(CharEmbedding::from_parts(4, vec![0.0; VOCAB * 4 - 1]).is_none());
        assert!(CharEmbedding::from_parts(0, Vec::new()).is_none());
    }

    #[test]
    fn cosine_is_bounded() {
        let cfg = Word2vecConfig {
            epochs: 1,
            ..Default::default()
        };
        let emb = CharEmbedding::train(&tiny_corpus(), &cfg);
        for a in [b'a', b'0', b'#'] {
            for b in [b'z', b'9', b' '] {
                let c = emb.cosine(a, b);
                assert!((-1.01..=1.01).contains(&c), "cosine {c}");
            }
        }
    }
}
