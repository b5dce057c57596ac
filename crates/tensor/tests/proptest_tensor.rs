//! Property-based tests for the tensor kernels.

use prionn_tensor::ops::{self, Conv2dGeom};
use prionn_tensor::Tensor;
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec([rows, cols], v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (A·B)·C == A·(B·C) within float tolerance.
    #[test]
    fn matmul_is_associative(
        a in tensor_strategy(4, 3),
        b in tensor_strategy(3, 5),
        c in tensor_strategy(5, 2),
    ) {
        let left = ops::matmul(&ops::matmul(&a, &b).unwrap(), &c).unwrap();
        let right = ops::matmul(&a, &ops::matmul(&b, &c).unwrap()).unwrap();
        for (l, r) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((l - r).abs() < 1.0, "assoc mismatch {l} vs {r}");
        }
    }

    // A·(B + C) == A·B + A·C.
    #[test]
    fn matmul_distributes_over_add(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 3),
        c in tensor_strategy(4, 3),
    ) {
        let lhs = ops::matmul(&a, &ops::add(&b, &c).unwrap()).unwrap();
        let rhs = ops::add(
            &ops::matmul(&a, &b).unwrap(),
            &ops::matmul(&a, &c).unwrap(),
        ).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((l - r).abs() < 0.5);
        }
    }

    // matmul_a_bt and matmul_at_b agree with explicit transposes.
    #[test]
    fn transposed_matmul_variants_agree(
        a in tensor_strategy(5, 4),
        b in tensor_strategy(6, 4),
    ) {
        let direct = ops::matmul_a_bt(&a, &b).unwrap();
        let explicit = ops::matmul(&a, &b.transpose2().unwrap()).unwrap();
        prop_assert_eq!(direct.dims(), explicit.dims());
        for (l, r) in direct.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((l - r).abs() < 1e-2);
        }
    }

    // Transposing twice is the identity.
    #[test]
    fn transpose_is_involution(a in tensor_strategy(7, 3)) {
        let tt = a.transpose2().unwrap().transpose2().unwrap();
        prop_assert_eq!(tt, a);
    }

    // sum(A + B) == sum(A) + sum(B).
    #[test]
    fn sum_is_linear(a in tensor_strategy(6, 6), b in tensor_strategy(6, 6)) {
        let s = ops::sum(&ops::add(&a, &b).unwrap());
        prop_assert!((s - (ops::sum(&a) + ops::sum(&b))).abs() < 0.1);
    }

    // Row sums and column sums total to the same grand sum.
    #[test]
    fn row_and_col_sums_agree(a in tensor_strategy(5, 8)) {
        let rows: f32 = ops::row_sums(&a).unwrap().iter().sum();
        let cols: f32 = ops::col_sums(&a).unwrap().iter().sum();
        prop_assert!((rows - cols).abs() < 0.1);
    }

    // argmax of each row indexes a maximal element.
    #[test]
    fn argmax_indexes_maximum(a in tensor_strategy(4, 9)) {
        for (r, &idx) in ops::argmax_rows(&a).unwrap().iter().enumerate() {
            let row = a.row(r).unwrap();
            for &v in row {
                prop_assert!(row[idx] >= v);
            }
        }
    }

    // im2col/col2im adjointness for random geometries.
    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..3,
        h in 1usize..8,
        w in 1usize..8,
        k in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let g = Conv2dGeom::new(c, h, w, k, k, stride, pad).unwrap();
        let x: Vec<f32> = (0..c * h * w)
            .map(|i| (((i as u64 + seed) * 2654435761 % 1000) as f32 - 500.0) / 100.0)
            .collect();
        let y: Vec<f32> = (0..g.col_rows() * g.col_cols())
            .map(|i| (((i as u64 * 31 + seed) * 40503 % 1000) as f32 - 500.0) / 100.0)
            .collect();
        let mut cols = vec![0.0f32; y.len()];
        prionn_tensor::ops::im2col_into(&x, &g, &mut cols).unwrap();
        let lhs: f64 = cols.iter().zip(&y)
            .map(|(&a, &b)| a as f64 * b as f64).sum();
        let mut back = vec![0.0f32; x.len()];
        prionn_tensor::ops::col2im_into(&y, &g, &mut back).unwrap();
        let rhs: f64 = x.iter().zip(&back).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-4 * lhs.abs().max(1.0));
    }
}
