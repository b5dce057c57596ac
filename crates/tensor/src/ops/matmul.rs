//! Dense matrix multiplication, lowered onto the blocked GEMM core.
//!
//! Three variants cover everything backprop needs without materialising
//! transposes:
//!
//! * [`matmul`]      — `C = A · B`
//! * [`matmul_a_bt`] — `C = A · Bᵀ` (gradient w.r.t. inputs)
//! * [`matmul_at_b`] — `C = Aᵀ · B` (gradient w.r.t. weights)
//!
//! plus [`matmul_bias`], the Dense forward with its bias fused into the
//! write-back.
//! All of them are thin shape-checked wrappers around
//! [`gemm`](crate::ops::gemm::gemm): transposition happens at pack time, so
//! every variant runs the same cache-blocked kernel at the same speed.
//!
//! Each function comes in two flavours: a convenience form that uses a
//! thread-local [`Scratch`] (allocating the output), and a `_with` form
//! taking an explicit workspace so hot loops reuse pack buffers and pull
//! the output from the caller's pool.

use crate::ops::gemm::{self, Epilogue, Layout};
use crate::{Result, Scratch, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// Fallback workspace for the convenience APIs. Hot paths should thread
    /// their own [`Scratch`] instead (each compute-pool worker has its own,
    /// initially empty, workspace here).
    static LOCAL_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

fn with_local<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    LOCAL_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

fn check2(op: &'static str, t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

fn check_inner(op: &'static str, a: &Tensor, b: &Tensor, ka: usize, kb: usize) -> Result<()> {
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(())
}

fn check_bias(bias: &Tensor, n: usize) -> Result<()> {
    if bias.len() != n {
        return Err(TensorError::LengthMismatch {
            expected: n,
            actual: bias.len(),
        });
    }
    Ok(())
}

/// `C[m,n] = A[m,k] · B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    with_local(|s| matmul_with(s, a, b))
}

/// [`matmul`] drawing the output and pack buffers from `scratch`.
pub fn matmul_with(scratch: &mut Scratch, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check2("matmul", a)?;
    let (kb, n) = check2("matmul", b)?;
    check_inner("matmul", a, b, ka, kb)?;
    let mut out = scratch.take(m * n);
    gemm::gemm_parallel(
        scratch,
        m,
        n,
        ka,
        a.as_slice(),
        Layout::RowMajor,
        b.as_slice(),
        Layout::RowMajor,
        &mut out,
        false,
        Epilogue::None,
    );
    Tensor::from_vec([m, n], out)
}

/// `C[m,n] = A[m,k] · Bᵀ` where `B` is `[n,k]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    with_local(|s| matmul_a_bt_with(s, a, b))
}

/// [`matmul_a_bt`] drawing the output and pack buffers from `scratch`.
pub fn matmul_a_bt_with(scratch: &mut Scratch, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = check2("matmul_a_bt", a)?;
    let (n, kb) = check2("matmul_a_bt", b)?;
    check_inner("matmul_a_bt", a, b, ka, kb)?;
    let mut out = scratch.take(m * n);
    gemm::gemm_parallel(
        scratch,
        m,
        n,
        ka,
        a.as_slice(),
        Layout::RowMajor,
        b.as_slice(),
        Layout::Transposed,
        &mut out,
        false,
        Epilogue::None,
    );
    Tensor::from_vec([m, n], out)
}

/// `C[k,n] = Aᵀ · B` where `A` is `[m,k]`, `B` is `[m,n]`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    with_local(|s| matmul_at_b_with(s, a, b))
}

/// [`matmul_at_b`] drawing the output and pack buffers from `scratch`.
pub fn matmul_at_b_with(scratch: &mut Scratch, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ma, k) = check2("matmul_at_b", a)?;
    let (mb, n) = check2("matmul_at_b", b)?;
    if ma != mb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = scratch.take(k * n);
    gemm::gemm_parallel(
        scratch,
        k,
        n,
        ma,
        a.as_slice(),
        Layout::Transposed,
        b.as_slice(),
        Layout::RowMajor,
        &mut out,
        false,
        Epilogue::None,
    );
    Tensor::from_vec([k, n], out)
}

/// `Aᵀ · B` written into an existing `[k,n]` tensor (no allocation), used
/// for weight gradients that overwrite their buffer every step.
pub fn matmul_at_b_into(
    scratch: &mut Scratch,
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
) -> Result<()> {
    let (ma, k) = check2("matmul_at_b", a)?;
    let (mb, n) = check2("matmul_at_b", b)?;
    if ma != mb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    if out.dims() != [k, n] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at_b",
            lhs: vec![k, n],
            rhs: out.dims().to_vec(),
        });
    }
    gemm::gemm_parallel(
        scratch,
        k,
        n,
        ma,
        a.as_slice(),
        Layout::Transposed,
        b.as_slice(),
        Layout::RowMajor,
        out.as_mut_slice(),
        false,
        Epilogue::None,
    );
    Ok(())
}

/// `C = A · B + bias` with the bias broadcast across rows (the Dense
/// forward pass), fused into the kernel's write-back.
pub fn matmul_bias(a: &Tensor, b: &Tensor, bias: &Tensor) -> Result<Tensor> {
    with_local(|s| matmul_bias_with(s, a, b, bias))
}

/// [`matmul_bias`] drawing the output and pack buffers from `scratch`.
pub fn matmul_bias_with(
    scratch: &mut Scratch,
    a: &Tensor,
    b: &Tensor,
    bias: &Tensor,
) -> Result<Tensor> {
    let (m, ka) = check2("matmul_bias", a)?;
    let (kb, n) = check2("matmul_bias", b)?;
    check_inner("matmul_bias", a, b, ka, kb)?;
    check_bias(bias, n)?;
    let mut out = scratch.take(m * n);
    gemm::gemm_parallel(
        scratch,
        m,
        n,
        ka,
        a.as_slice(),
        Layout::RowMajor,
        b.as_slice(),
        Layout::RowMajor,
        &mut out,
        false,
        Epilogue::BiasCol(bias.as_slice()),
    );
    Tensor::from_vec([m, n], out)
}

/// Naive reference kernels: straight triple loops with no blocking, packing
/// or skip branches. They define the semantics the blocked kernels are
/// tested against (`tests/gemm_parity.rs`) and serve as the bench baseline.
pub mod reference {
    use super::{check2, check_bias, check_inner};
    use crate::{Result, Tensor, TensorError};

    /// Naive `C = A · B`.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, ka) = check2("matmul", a)?;
        let (kb, n) = check2("matmul", b)?;
        check_inner("matmul", a, b, ka, kb)?;
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            for (p, &aip) in av[i * ka..(i + 1) * ka].iter().enumerate() {
                let b_row = &bv[p * n..(p + 1) * n];
                for (o, &bpn) in out_row.iter_mut().zip(b_row) {
                    *o += aip * bpn;
                }
            }
        }
        Tensor::from_vec([m, n], out)
    }

    /// Naive `C = A · Bᵀ` with `B` stored `[n,k]`.
    pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, ka) = check2("matmul_a_bt", a)?;
        let (n, kb) = check2("matmul_a_bt", b)?;
        check_inner("matmul_a_bt", a, b, ka, kb)?;
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            let a_row = &av[i * ka..(i + 1) * ka];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &bv[j * ka..(j + 1) * ka];
                *o = a_row.iter().zip(b_row).map(|(&x, &y)| x * y).sum();
            }
        }
        Tensor::from_vec([m, n], out)
    }

    /// Naive `C = Aᵀ · B` with `A` stored `[m,k]`.
    pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (ma, k) = check2("matmul_at_b", a)?;
        let (mb, n) = check2("matmul_at_b", b)?;
        if ma != mb {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_at_b",
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
            });
        }
        let (av, bv) = (a.as_slice(), b.as_slice());
        let mut out = vec![0.0f32; k * n];
        for m_idx in 0..ma {
            let b_row = &bv[m_idx * n..(m_idx + 1) * n];
            for (i, out_row) in out.chunks_mut(n).enumerate() {
                let ami = av[m_idx * k + i];
                for (o, &bmn) in out_row.iter_mut().zip(b_row) {
                    *o += ami * bmn;
                }
            }
        }
        Tensor::from_vec([k, n], out)
    }

    /// Naive `C = A · B + bias` (bias broadcast across rows).
    pub fn matmul_bias(a: &Tensor, b: &Tensor, bias: &Tensor) -> Result<Tensor> {
        let mut y = matmul(a, b)?;
        check_bias(bias, y.dims()[1])?;
        let n = y.dims()[1];
        for (i, v) in y.as_mut_slice().iter_mut().enumerate() {
            *v += bias.as_slice()[i % n];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: [usize; 2], v: &[f32]) -> Tensor {
        Tensor::from_vec(dims, v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small_known_product() {
        let a = t([2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t([3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = t([2, 2], &[1., 2., 3., 4.]);
        let i = t([2, 2], &[1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_rejects_rank1() {
        let a = Tensor::zeros([3]);
        let b = Tensor::zeros([3, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = t([2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t([4, 3], &[1., 0., 1., 2., 1., 0., 0., 3., 1., 1., 1., 1.]);
        let via_t = matmul(&a, &b.transpose2().unwrap()).unwrap();
        assert_eq!(matmul_a_bt(&a, &b).unwrap(), via_t);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = t([3, 2], &[1., 2., 3., 4., 5., 6.]);
        let b = t([3, 4], &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let via_t = matmul(&a.transpose2().unwrap(), &b).unwrap();
        assert_eq!(matmul_at_b(&a, &b).unwrap(), via_t);
    }

    #[test]
    fn at_b_into_overwrites_existing_tensor() {
        let mut s = Scratch::new();
        let a = t([3, 2], &[1., 2., 3., 4., 5., 6.]);
        let b = t([3, 4], &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let mut out = Tensor::full([2, 4], 99.0);
        matmul_at_b_into(&mut s, &a, &b, &mut out).unwrap();
        assert_eq!(out, matmul_at_b(&a, &b).unwrap());
        let mut wrong = Tensor::zeros([4, 2]);
        assert!(matmul_at_b_into(&mut s, &a, &b, &mut wrong).is_err());
    }

    #[test]
    fn bias_epilogue_broadcasts_across_rows() {
        let a = t([2, 2], &[1., 0., 0., 1.]);
        let b = t([2, 2], &[1., -2., 3., 4.]);
        let bias = Tensor::from_slice(&[10.0, -10.0]);
        let y = matmul_bias(&a, &b, &bias).unwrap();
        assert_eq!(y.as_slice(), &[11., -12., 13., -6.]);
    }

    #[test]
    fn bias_rejects_wrong_length() {
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([2, 2]);
        let bias = Tensor::zeros([3]);
        assert!(matmul_bias(&a, &b, &bias).is_err());
    }

    #[test]
    fn scratch_variant_reuses_buffers_across_calls() {
        let mut s = Scratch::new();
        let a = Tensor::full([8, 8], 0.5);
        let b = Tensor::full([8, 8], 2.0);
        let first = matmul_with(&mut s, &a, &b).unwrap();
        s.recycle_tensor(first);
        let grows_after_warmup = s.stats().grows;
        for _ in 0..3 {
            let y = matmul_with(&mut s, &a, &b).unwrap();
            s.recycle_tensor(y);
        }
        assert_eq!(s.stats().grows, grows_after_warmup);
    }

    #[test]
    fn large_parallel_path_agrees_with_serial_reference() {
        // 200x120x90 on a deterministic pattern against a naive triple loop.
        let (m, k, n) = (200usize, 120usize, 90usize);
        let a_data: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7 + 3) % 13) as f32 - 6.0)
            .collect();
        let b_data: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5 + 1) % 11) as f32 - 5.0)
            .collect();
        let a = Tensor::from_vec([m, k], a_data.clone()).unwrap();
        let b = Tensor::from_vec([k, n], b_data.clone()).unwrap();
        let c = matmul(&a, &b).unwrap();
        for &(i, j) in &[(0usize, 0usize), (m - 1, n - 1), (m / 2, n / 3), (17, 83)] {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a_data[i * k + kk] * b_data[kk * n + j];
            }
            assert!((c.at2(i, j) - acc).abs() < 1e-3, "at ({i},{j})");
        }
    }
}
