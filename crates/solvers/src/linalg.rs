//! A small dense linear-algebra helper: Gaussian elimination with partial
//! pivoting, used by support enumeration to solve the indifference
//! conditions of candidate equilibrium supports.
//!
//! The matrices involved are tiny (at most the number of actions of one
//! player plus one), so a straightforward `O(n³)` elimination is more than
//! adequate and avoids pulling in an external linear-algebra dependency.

/// Solves the linear system `a · x = b` by Gaussian elimination with partial
/// pivoting.
///
/// `a` is given in row-major order as a slice of rows. Returns `None` when
/// the system is (numerically) singular.
///
/// # Panics
///
/// Panics if the rows of `a` are not all the same length as `b`.
pub fn solve_linear_system(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n, "matrix must be square");
    for row in a {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    // augmented matrix
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b.iter())
        .map(|(row, rhs)| {
            let mut r = row.clone();
            r.push(*rhs);
            r
        })
        .collect();

    for col in 0..n {
        // find pivot
        let pivot = (col..n)
            .max_by(|&i, &j| {
                m[i][col]
                    .abs()
                    .partial_cmp(&m[j][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty range");
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        // eliminate below
        for row in col + 1..n {
            let factor = m[row][col] / m[col][col];
            // indexing two rows of the same matrix — iterator form would
            // need split_at_mut gymnastics for no clarity gain
            #[allow(clippy::needless_range_loop)]
            for k in col..=n {
                m[row][k] -= factor * m[col][k];
            }
        }
    }
    // back substitution
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = m[row][n];
        for col in row + 1..n {
            acc -= m[row][col] * x[col];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_system() {
        // x + y = 3, x - y = 1  =>  x = 2, y = 1
        let a = vec![vec![1.0, 1.0], vec![1.0, -1.0]];
        let b = vec![3.0, 1.0];
        let x = solve_linear_system(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn detects_singular_system() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let b = vec![1.0, 2.0];
        assert!(solve_linear_system(&a, &b).is_none());
    }

    #[test]
    fn solves_3x3_with_pivoting() {
        let a = vec![
            vec![0.0, 2.0, 1.0],
            vec![1.0, -2.0, -3.0],
            vec![-1.0, 1.0, 2.0],
        ];
        let b = vec![-8.0, 0.0, 3.0];
        let x = solve_linear_system(&a, &b).unwrap();
        for (row, expected) in a.iter().zip(b.iter()) {
            let r: f64 = row.iter().zip(x.iter()).map(|(r, v)| r * v).sum();
            assert!((r - expected).abs() < 1e-9);
        }
    }
}
