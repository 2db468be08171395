//! Property-based tests for the workload kernels' numerics and plans.

use proptest::prelude::*;
use tsm_workloads::cholesky::CholeskyPlan;
use tsm_workloads::linalg::{allreduce_sum, cholesky, Matrix};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-4.0f64..4.0, rows * cols).prop_map(move |data| Matrix {
        rows,
        cols,
        data,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The §5.2 column split is exact for arbitrary matrices and split
    /// points: concatenating partial products reproduces the product.
    #[test]
    fn column_split_identity(a in small_matrix(5, 7), b in small_matrix(7, 9), cut in 1usize..9) {
        let full = a.matmul(&b);
        let left = a.matmul(&b.col_slice(0, cut));
        let right = a.matmul(&b.col_slice(cut, 9));
        let recomposed = Matrix::hcat(&[left, right]);
        prop_assert!(full.max_abs_diff(&recomposed) < 1e-10);
    }

    /// The §5.2 row split is exact: partial products sum to the product.
    #[test]
    fn row_split_identity(a in small_matrix(4, 8), b in small_matrix(8, 6), cut in 1usize..8) {
        let full = a.matmul(&b);
        let p1 = a.col_slice(0, cut).matmul(&b.row_slice(0, cut));
        let p2 = a.col_slice(cut, 8).matmul(&b.row_slice(cut, 8));
        prop_assert!(full.max_abs_diff(&p1.add(&p2)) < 1e-10);
    }

    /// Cholesky reconstructs any diagonally-dominant SPD matrix.
    #[test]
    fn cholesky_reconstructs(n in 2usize..16, seed in 0u64..1000) {
        // Build SPD: A = B·Bᵀ + n·I from a seeded pseudo-random B.
        let b = Matrix::from_fn(n, n, |r, c| {
            let x = (seed.wrapping_mul(31).wrapping_add((r * n + c) as u64 * 2654435761)) % 1000;
            x as f64 / 500.0 - 1.0
        });
        let mut a = b.matmul(&b.transpose());
        for i in 0..n {
            let v = a.get(i, i) + n as f64;
            a.set(i, i, v);
        }
        let l = cholesky(&a);
        prop_assert!(a.max_abs_diff(&l.matmul(&l.transpose())) < 1e-8);
    }

    /// All-reduce is a sum: permutation-invariant and linear.
    #[test]
    fn allreduce_is_permutation_invariant(
        buffers in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 8), 2..6),
    ) {
        let forward = allreduce_sum(&buffers);
        let mut reversed = buffers.clone();
        reversed.reverse();
        let backward = allreduce_sum(&reversed);
        for (x, y) in forward.iter().zip(&backward) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Cholesky plan invariants across the parameter space: time is
    /// monotone in p, flops are exact, and the block-cyclic distribution
    /// partitions the row blocks.
    #[test]
    fn cholesky_plan_invariants(p_blocks in 2u64..40, tsps in 1u64..9) {
        let p = p_blocks * 320;
        let plan = CholeskyPlan::new(p, tsps);
        prop_assert_eq!(plan.flops(), p * p * p / 3);
        let bigger = CholeskyPlan::new(p + 320, tsps);
        prop_assert!(bigger.cycles() > plan.cycles());
        // block-cyclic distribution partitions blocks exactly
        let mut all_blocks: Vec<u64> = (0..tsps).flat_map(|t| plan.blocks_of(t)).collect();
        all_blocks.sort_unstable();
        let expect: Vec<u64> = (0..p_blocks).collect();
        prop_assert_eq!(all_blocks, expect);
    }
}
