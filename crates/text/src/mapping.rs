//! Assemble image-like tensors from scripts (the paper's "data mapping").
//!
//! Channel-major layout: the 2-D mapping of a script is `[dim, rows, cols]`
//! (embedding channels first, like image feature maps), and the 1-D mapping
//! flattens the grid row-major into `[dim, rows·cols]`.

use crate::grid::ScriptGrid;
use crate::transform::CharTransform;
use crate::Result;
use prionn_tensor::{Tensor, TensorError};
use rayon::prelude::*;

/// The centred encoding of every ASCII character as a sparse
/// `(channel, value)` list: each channel where the character's encoding
/// differs from the space character's, and by how much. One-hot encodings
/// touch 2 of 128 channels, so writing only the non-zero deltas avoids a
/// 64× cache-hostile blowup.
type SparseTable = Vec<Vec<(usize, f32)>>;

fn sparse_table(transform: &dyn CharTransform) -> SparseTable {
    let dim = transform.dim();
    let mut space = vec![0.0f32; dim];
    transform.encode(b' ', &mut space);
    let mut enc = vec![0.0f32; dim];
    (0u8..128)
        .map(|c| {
            transform.encode(c, &mut enc);
            enc.iter()
                .zip(&space)
                .enumerate()
                .filter_map(|(d, (&v, &s))| (v != s).then_some((d, v - s)))
                .collect()
        })
        .collect()
}

/// Write one script's centred `[dim, rows, cols]` mapping into `out`, which
/// holds zeros.
fn write_script(text: &str, sparse: &SparseTable, rows: usize, cols: usize, out: &mut [f32]) {
    let grid = ScriptGrid::from_text(text, rows, cols);
    let plane = rows * cols;
    for (i, &c) in grid.cells().iter().enumerate() {
        if c == b' ' {
            continue; // centred padding is exactly zero
        }
        for &(d, v) in &sparse[(c as usize) % 128] {
            out[d * plane + i] = v;
        }
    }
}

/// Map a corpus into one `[n, dim·rows·cols]` buffer, each script written
/// into its own row in parallel, with one sparse table for the corpus.
fn map_corpus(
    scripts: &[&str],
    transform: &dyn CharTransform,
    rows: usize,
    cols: usize,
) -> Result<Vec<f32>> {
    if scripts.is_empty() {
        return Err(TensorError::InvalidArgument("map of zero scripts".into()));
    }
    let sample = transform.dim() * rows * cols;
    let mut data = vec![0.0f32; scripts.len() * sample];
    if sample > 0 {
        let sparse = sparse_table(transform);
        data.par_chunks_mut(sample)
            .enumerate()
            .for_each(|(i, out)| write_script(scripts[i], &sparse, rows, cols, out));
    }
    Ok(data)
}

/// Map one script to the 2-D-preserving representation `[dim, rows, cols]`.
///
/// Pixels are *centred on the padding character*: the encoding of the space
/// character is subtracted from every pixel, so the (typically dominant)
/// padding regions are exactly zero. This keeps every lossless transform
/// lossless while conditioning the input far better for the convolutional
/// trunk — without it, three quarters of each image is a constant non-zero
/// background that swamps the text signal.
pub fn map_script_2d(
    text: &str,
    transform: &dyn CharTransform,
    rows: usize,
    cols: usize,
) -> Result<Tensor> {
    let mut data = vec![0.0f32; transform.dim() * rows * cols];
    write_script(text, &sparse_table(transform), rows, cols, &mut data);
    Tensor::from_vec([transform.dim(), rows, cols], data)
}

/// Map one script to the flattened 1-D representation `[dim, rows·cols]`.
///
/// The flattening concatenates all lines into a single sequence first, as
/// the paper describes, so the spatial structure is lost but the character
/// order is preserved.
pub fn map_script_1d(
    text: &str,
    transform: &dyn CharTransform,
    rows: usize,
    cols: usize,
) -> Result<Tensor> {
    map_script_2d(text, transform, rows, cols)?.reshape([transform.dim(), rows * cols])
}

/// Map a corpus to a `[n, dim, rows, cols]` batch tensor, in parallel.
pub fn map_corpus_2d(
    scripts: &[&str],
    transform: &dyn CharTransform,
    rows: usize,
    cols: usize,
) -> Result<Tensor> {
    Tensor::from_vec(
        [scripts.len(), transform.dim(), rows, cols],
        map_corpus(scripts, transform, rows, cols)?,
    )
}

/// Map a corpus to a `[n, dim, rows·cols]` batch tensor, in parallel.
pub fn map_corpus_1d(
    scripts: &[&str],
    transform: &dyn CharTransform,
    rows: usize,
    cols: usize,
) -> Result<Tensor> {
    Tensor::from_vec(
        [scripts.len(), transform.dim(), rows * cols],
        map_corpus(scripts, transform, rows, cols)?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{BinaryTransform, OneHotTransform, SimpleTransform};

    #[test]
    fn binary_2d_marks_text_positions() {
        let t = map_script_2d("ab\n c", &BinaryTransform, 2, 2).unwrap();
        assert_eq!(t.dims(), &[1, 2, 2]);
        assert_eq!(t.as_slice(), &[1., 1., 0., 1.]);
    }

    #[test]
    fn one_hot_2d_has_dim_128_channels_centred_on_space() {
        let t = map_script_2d("x", &OneHotTransform, 2, 2).unwrap();
        assert_eq!(t.dims(), &[128, 2, 2]);
        // Channel for 'x' fires at (0,0); padding cells are all-zero; the
        // space channel carries -1 at text positions (centred encoding).
        assert_eq!(t.get(&[b'x' as usize, 0, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[b' ' as usize, 0, 0]).unwrap(), -1.0);
        assert_eq!(t.get(&[b' ' as usize, 0, 1]).unwrap(), 0.0);
        assert_eq!(t.get(&[b'x' as usize, 1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn padding_cells_are_exactly_zero_for_every_transform() {
        let transforms: Vec<Box<dyn crate::transform::CharTransform>> = vec![
            Box::new(BinaryTransform),
            Box::new(SimpleTransform),
            Box::new(OneHotTransform),
        ];
        for t in &transforms {
            let m = map_script_2d("a", t.as_ref(), 2, 2).unwrap();
            let plane = 4;
            for d in 0..t.dim() {
                for i in 1..4 {
                    assert_eq!(
                        m.as_slice()[d * plane + i],
                        0.0,
                        "{} channel {d} cell {i}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn one_d_mapping_is_flattened_two_d() {
        let a = map_script_2d("ab\ncd", &SimpleTransform, 2, 2).unwrap();
        let b = map_script_1d("ab\ncd", &SimpleTransform, 2, 2).unwrap();
        assert_eq!(b.dims(), &[1, 4]);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn corpus_mapping_stacks_scripts() {
        let scripts = ["a", "b", "c"];
        let t = map_corpus_2d(&scripts, &BinaryTransform, 4, 4).unwrap();
        assert_eq!(t.dims(), &[3, 1, 4, 4]);
    }

    #[test]
    fn corpus_mapping_matches_individual_maps() {
        let scripts = ["#SBATCH -N 4", "srun ./app"];
        let batch = map_corpus_1d(&scripts, &SimpleTransform, 4, 16).unwrap();
        for (i, s) in scripts.iter().enumerate() {
            let single = map_script_1d(s, &SimpleTransform, 4, 16).unwrap();
            assert_eq!(
                batch.slice_axis0(i, i + 1).unwrap().as_slice(),
                single.as_slice(),
                "script {i}"
            );
        }
    }

    #[test]
    fn corpus_mapping_2d_matches_individual_maps() {
        let scripts = [
            "#!/bin/bash\n#SBATCH -N 4\n\tsrun ./app --x=1",
            "",
            "a\nb\nc\nd\ne\nf (cropped)",
            "caf\u{e9} \x07 srun ./app",
        ];
        let transforms: Vec<Box<dyn crate::transform::CharTransform>> = vec![
            Box::new(BinaryTransform),
            Box::new(SimpleTransform),
            Box::new(OneHotTransform),
        ];
        for t in &transforms {
            let batch = map_corpus_2d(&scripts, t.as_ref(), 5, 8).unwrap();
            assert_eq!(batch.dims(), &[scripts.len(), t.dim(), 5, 8]);
            for (i, s) in scripts.iter().enumerate() {
                let single = map_script_2d(s, t.as_ref(), 5, 8).unwrap();
                let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(
                    bits(batch.slice_axis0(i, i + 1).unwrap().as_slice()),
                    bits(single.as_slice()),
                    "{} script {i}",
                    t.name()
                );
            }
        }
        assert!(map_corpus_2d(&[], &BinaryTransform, 5, 8).is_err());
    }

    #[test]
    fn identical_scripts_map_identically() {
        let s = "#!/bin/bash\nsrun app\n";
        let a = map_script_2d(s, &SimpleTransform, 8, 8).unwrap();
        let b = map_script_2d(s, &SimpleTransform, 8, 8).unwrap();
        assert_eq!(a, b);
    }
}
