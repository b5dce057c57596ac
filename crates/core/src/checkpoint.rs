//! Wire encoding of predictor state into [`prionn_store`] checkpoint
//! sections.
//!
//! This module owns the translation between in-memory structures
//! ([`PrionnConfig`], state dicts, [`OptimizerState`], [`ValueBins`]) and
//! their little-endian section payloads. [`crate::predictor::Prionn::save`]
//! and [`crate::predictor::Prionn::load`] assemble/disassemble whole
//! checkpoints from these pieces.
//!
//! Every decoder is bounds-checked through [`wire::Reader`] and ends with
//! [`wire::Reader::expect_end`], so a corrupted payload that slips past the
//! section CRC (or a version skew in a hand-edited file) surfaces as a
//! [`StoreError`] rather than a panic or a silently misparsed model.

use crate::bins::ValueBins;
use crate::predictor::{HeadKind, PrionnConfig};
use prionn_nn::{ModelKind, OptimizerState};
use prionn_store::wire::{self, Reader};
use prionn_store::StoreError;
use prionn_tensor::Tensor;
use prionn_text::{TransformKind, Word2vecConfig};

/// Result alias for checkpoint (de)serialisation.
pub type CkptResult<T> = std::result::Result<T, StoreError>;

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    wire::put_u32(buf, v.to_bits());
}

fn get_f32(r: &mut Reader<'_>, what: &'static str) -> CkptResult<f32> {
    Ok(f32::from_bits(r.get_u32(what)?))
}

fn transform_tag(kind: TransformKind) -> u8 {
    match kind {
        TransformKind::Binary => 0,
        TransformKind::Simple => 1,
        TransformKind::OneHot => 2,
        TransformKind::Word2vec => 3,
    }
}

fn transform_from_tag(tag: u8) -> CkptResult<TransformKind> {
    Ok(match tag {
        0 => TransformKind::Binary,
        1 => TransformKind::Simple,
        2 => TransformKind::OneHot,
        3 => TransformKind::Word2vec,
        t => return Err(StoreError::Corrupt(format!("unknown transform tag {t}"))),
    })
}

fn model_tag(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::Nn => 0,
        ModelKind::Cnn1d => 1,
        ModelKind::Cnn2d => 2,
    }
}

fn model_from_tag(tag: u8) -> CkptResult<ModelKind> {
    Ok(match tag {
        0 => ModelKind::Nn,
        1 => ModelKind::Cnn1d,
        2 => ModelKind::Cnn2d,
        t => return Err(StoreError::Corrupt(format!("unknown model tag {t}"))),
    })
}

fn head_tag(kind: HeadKind) -> u8 {
    match kind {
        HeadKind::Classifier => 0,
        HeadKind::Regressor => 1,
    }
}

fn head_from_tag(tag: u8) -> CkptResult<HeadKind> {
    Ok(match tag {
        0 => HeadKind::Classifier,
        1 => HeadKind::Regressor,
        t => return Err(StoreError::Corrupt(format!("unknown head tag {t}"))),
    })
}

/// Serialise the full [`PrionnConfig`] (including the nested word2vec
/// training config) into the `config` section payload.
pub fn encode_config(cfg: &PrionnConfig) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_u8(&mut buf, transform_tag(cfg.transform));
    wire::put_u8(&mut buf, model_tag(cfg.model));
    wire::put_u64(&mut buf, cfg.grid.0 as u64);
    wire::put_u64(&mut buf, cfg.grid.1 as u64);
    wire::put_u64(&mut buf, cfg.base_width as u64);
    wire::put_bool(&mut buf, cfg.batch_norm);
    wire::put_u64(&mut buf, cfg.runtime_bins as u64);
    wire::put_u8(&mut buf, head_tag(cfg.head));
    wire::put_u64(&mut buf, cfg.io_bins as u64);
    wire::put_bool(&mut buf, cfg.predict_io);
    // The removed power head's switch: the slot stays, always 0.
    wire::put_bool(&mut buf, false);
    wire::put_u64(&mut buf, cfg.epochs as u64);
    wire::put_u64(&mut buf, cfg.batch_size as u64);
    put_f32(&mut buf, cfg.lr);
    wire::put_u64(&mut buf, cfg.w2v.dim as u64);
    wire::put_u64(&mut buf, cfg.w2v.window as u64);
    wire::put_u64(&mut buf, cfg.w2v.negatives as u64);
    put_f32(&mut buf, cfg.w2v.lr);
    wire::put_u64(&mut buf, cfg.w2v.epochs as u64);
    wire::put_u64(&mut buf, cfg.w2v.seed);
    wire::put_u64(&mut buf, cfg.seed);
    buf
}

/// Decode a `config` section payload written by [`encode_config`].
pub fn decode_config(payload: &[u8]) -> CkptResult<PrionnConfig> {
    let mut r = Reader::new(payload);
    let cfg = PrionnConfig {
        transform: transform_from_tag(r.get_u8("config.transform")?)?,
        model: model_from_tag(r.get_u8("config.model")?)?,
        grid: (r.get_usize("config.grid.0")?, r.get_usize("config.grid.1")?),
        base_width: r.get_usize("config.base_width")?,
        batch_norm: r.get_bool("config.batch_norm")?,
        runtime_bins: r.get_usize("config.runtime_bins")?,
        head: head_from_tag(r.get_u8("config.head")?)?,
        io_bins: r.get_usize("config.io_bins")?,
        predict_io: {
            let predict_io = r.get_bool("config.predict_io")?;
            if r.get_bool("config.predict_power")? {
                return Err(StoreError::Corrupt(
                    "config.predict_power is set, but the power head was removed: \
                     this build cannot serve the checkpoint"
                        .into(),
                ));
            }
            predict_io
        },
        epochs: r.get_usize("config.epochs")?,
        batch_size: r.get_usize("config.batch_size")?,
        lr: get_f32(&mut r, "config.lr")?,
        w2v: Word2vecConfig {
            dim: r.get_usize("config.w2v.dim")?,
            window: r.get_usize("config.w2v.window")?,
            negatives: r.get_usize("config.w2v.negatives")?,
            lr: get_f32(&mut r, "config.w2v.lr")?,
            epochs: r.get_usize("config.w2v.epochs")?,
            seed: r.get_u64("config.w2v.seed")?,
        },
        seed: r.get_u64("config.seed")?,
    };
    r.expect_end("config")?;
    Ok(cfg)
}

/// Serialise one [`ValueBins`] (tag + bounds + bin count).
pub fn encode_bins(buf: &mut Vec<u8>, bins: &ValueBins) {
    let (tag, lo, hi, n) = match *bins {
        ValueBins::Linear { lo, hi, n } => (0, lo, hi, n),
        ValueBins::Log { lo, hi, n } => (1, lo, hi, n),
    };
    wire::put_u8(buf, tag);
    wire::put_f64(buf, lo);
    wire::put_f64(buf, hi);
    wire::put_u64(buf, n as u64);
}

/// Decode one [`ValueBins`] written by [`encode_bins`]. Bounds that
/// [`ValueBins::encode`] could not clamp into (non-finite, not increasing,
/// or a log scale starting at or below zero) are corruption, not a panic on
/// the next retrain.
pub fn decode_bins(r: &mut Reader<'_>) -> CkptResult<ValueBins> {
    let tag = r.get_u8("bins.tag")?;
    let lo = r.get_f64("bins.lo")?;
    let hi = r.get_f64("bins.hi")?;
    let n = r.get_usize("bins.n")?;
    if n == 0 {
        return Err(StoreError::Corrupt("bins with zero bins".into()));
    }
    if !(lo.is_finite() && hi.is_finite() && lo < hi) {
        return Err(StoreError::Corrupt(format!(
            "bins bounds [{lo}, {hi}] are not finite and increasing"
        )));
    }
    match tag {
        0 => Ok(ValueBins::Linear { lo, hi, n }),
        1 if lo > 0.0 => Ok(ValueBins::Log { lo, hi, n }),
        1 => Err(StoreError::Corrupt(format!(
            "log bins start at {lo}, not above zero"
        ))),
        t => Err(StoreError::Corrupt(format!("unknown bins tag {t}"))),
    }
}

/// Serialise a model state dict (`Sequential::state_dict` output): entry
/// count, then per entry the layer path, the shape, and the raw weights.
pub fn encode_state_dict(dict: &[(String, Tensor)]) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_u64(&mut buf, dict.len() as u64);
    for (key, tensor) in dict {
        wire::put_str(&mut buf, key);
        let dims: Vec<u64> = tensor.dims().iter().map(|&d| d as u64).collect();
        wire::put_u64_slice(&mut buf, &dims);
        wire::put_f32_slice(&mut buf, tensor.as_slice());
    }
    buf
}

/// Decode a state dict written by [`encode_state_dict`].
pub fn decode_state_dict(payload: &[u8]) -> CkptResult<Vec<(String, Tensor)>> {
    let mut r = Reader::new(payload);
    let count = r.get_usize("state_dict.count")?;
    let mut dict = Vec::new();
    for _ in 0..count {
        let key = r.get_str("state_dict.key")?.to_string();
        let dims: Vec<usize> = r
            .get_u64_vec("state_dict.dims")?
            .iter()
            .map(|&d| d as usize)
            .collect();
        let data = r.get_f32_vec("state_dict.data")?;
        let tensor = Tensor::from_vec(dims, data)
            .map_err(|e| StoreError::Corrupt(format!("state_dict entry {key}: {e}")))?;
        dict.push((key, tensor));
    }
    r.expect_end("state_dict")?;
    Ok(dict)
}

/// Serialise an [`OptimizerState`] (step + per-slot moment buffers).
pub fn encode_opt_state(state: &OptimizerState) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_u64(&mut buf, state.step);
    wire::put_u64(&mut buf, state.slots.len() as u64);
    for slot in &state.slots {
        wire::put_u64(&mut buf, slot.len() as u64);
        for buffer in slot {
            wire::put_f32_slice(&mut buf, buffer);
        }
    }
    buf
}

/// Decode an [`OptimizerState`] written by [`encode_opt_state`].
pub fn decode_opt_state(payload: &[u8]) -> CkptResult<OptimizerState> {
    let mut r = Reader::new(payload);
    let step = r.get_u64("opt.step")?;
    let n_slots = r.get_usize("opt.slots")?;
    let mut slots = Vec::new();
    for _ in 0..n_slots {
        let n_buffers = r.get_usize("opt.slot.buffers")?;
        let mut buffers = Vec::new();
        for _ in 0..n_buffers {
            buffers.push(r.get_f32_vec("opt.slot.buffer")?);
        }
        slots.push(buffers);
    }
    r.expect_end("opt")?;
    Ok(OptimizerState { step, slots })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_every_field() {
        let mut cfg = PrionnConfig::reduced();
        cfg.transform = TransformKind::OneHot;
        cfg.model = ModelKind::Cnn1d;
        cfg.head = HeadKind::Regressor;
        cfg.batch_norm = true;
        cfg.predict_io = false;
        cfg.lr = 2.5e-4;
        cfg.seed = 0xfeed_beef;
        cfg.w2v.window = 5;
        let back = decode_config(&encode_config(&cfg)).unwrap();
        // PrionnConfig has no PartialEq (it holds nested config structs);
        // compare via the encoded form, which covers every field.
        assert_eq!(encode_config(&cfg), encode_config(&back));
    }

    #[test]
    fn config_decode_rejects_trailing_bytes_and_bad_tags() {
        let cfg = PrionnConfig::default();
        let mut long = encode_config(&cfg);
        long.push(0);
        assert!(decode_config(&long).is_err());
        let mut bad_tag = encode_config(&cfg);
        bad_tag[0] = 99;
        assert!(decode_config(&bad_tag).is_err());
    }

    #[test]
    fn a_set_power_head_byte_is_a_typed_error_naming_the_removed_head() {
        let mut bytes = encode_config(&PrionnConfig::default());
        // Layout: transform u8, model u8, grid 2×u64, base_width u64,
        // batch_norm u8, runtime_bins u64, head u8, io_bins u64,
        // predict_io u8, then the power slot.
        let power_slot = 1 + 1 + 16 + 8 + 1 + 8 + 1 + 8 + 1;
        assert_eq!(bytes[power_slot], 0, "always written as 0");
        bytes[power_slot] = 1;
        match decode_config(&bytes) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("power head"), "{msg}"),
            other => panic!("expected a Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn bins_round_trip_both_variants() {
        for bins in [ValueBins::runtime_minutes(), ValueBins::io_bytes(64)] {
            let mut buf = Vec::new();
            encode_bins(&mut buf, &bins);
            let mut r = Reader::new(&buf);
            assert_eq!(decode_bins(&mut r).unwrap(), bins);
            r.expect_end("bins").unwrap();
        }
    }

    #[test]
    fn bins_decode_rejects_zero_bins_and_unclampable_bounds() {
        let linear = |lo, hi, n| ValueBins::Linear { lo, hi, n };
        let log = |lo, hi, n| ValueBins::Log { lo, hi, n };
        for bad in [
            linear(0.0, 1.0, 0),
            linear(2.0, 1.0, 4),
            linear(1.0, 1.0, 4),
            linear(f64::NAN, 1.0, 4),
            linear(0.0, f64::INFINITY, 4),
            log(1e5, f64::NAN, 4),
            log(0.0, 1e5, 4),
            log(-1.0, 1e5, 4),
        ] {
            let mut buf = Vec::new();
            encode_bins(&mut buf, &bad);
            assert!(decode_bins(&mut Reader::new(&buf)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn state_dict_round_trips_bitwise() {
        let dict = vec![
            (
                "0.dense.w".to_string(),
                Tensor::from_vec([2, 3], vec![1.0, -0.0, 2.5, 3e-8, -7.0, 0.1]).unwrap(),
            ),
            (
                "0.dense.b".to_string(),
                Tensor::from_slice(&[0.5, -0.5, 9.0]),
            ),
        ];
        let encoded = encode_state_dict(&dict);
        let back = decode_state_dict(&encoded).unwrap();
        assert_eq!(back.len(), 2);
        for ((ka, ta), (kb, tb)) in dict.iter().zip(&back) {
            assert_eq!(ka, kb);
            assert_eq!(ta.dims(), tb.dims());
            for (a, b) in ta.as_slice().iter().zip(tb.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Re-encoding is byte-identical (save -> load -> save stability).
        assert_eq!(encode_state_dict(&back), encoded);
    }

    #[test]
    fn state_dict_rejects_shape_data_mismatch() {
        let dict = vec![("k".to_string(), Tensor::from_slice(&[1.0, 2.0]))];
        let mut encoded = encode_state_dict(&dict);
        // Shrink the declared dim without touching the data length.
        // Layout: count u64, key len u32 + "k", dims len u64, dims[0] u64...
        let dims0_offset = 8 + 4 + 1 + 8;
        encoded[dims0_offset] = 3;
        assert!(decode_state_dict(&encoded).is_err());
    }

    #[test]
    fn opt_state_round_trips() {
        let state = OptimizerState {
            step: 42,
            slots: vec![
                vec![vec![1.0, -2.0], vec![0.5, 0.25]],
                Vec::new(),
                vec![vec![3.0]],
            ],
        };
        let back = decode_opt_state(&encode_opt_state(&state)).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn opt_state_decode_rejects_truncation() {
        let state = OptimizerState {
            step: 1,
            slots: vec![vec![vec![1.0, 2.0, 3.0]]],
        };
        let encoded = encode_opt_state(&state);
        for len in 0..encoded.len() {
            assert!(decode_opt_state(&encoded[..len]).is_err(), "prefix {len}");
        }
    }
}
