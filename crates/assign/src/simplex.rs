//! A dense two-phase simplex LP solver.
//!
//! Stands in for the paper's CPLEX: solves the LP relaxation of the
//! Figure 7 ILP (and anything else), feeding bounds to the
//! branch-and-bound solver in [`bnb`](crate::bnb).
//!
//! Standard-form construction: `maximize c·x` subject to mixed
//! `≤ / ≥ / =` constraints and `x ≥ 0`. `≤` rows get slack variables,
//! `≥` rows surplus + artificial, `=` rows artificial; phase 1 drives the
//! artificials to zero (else the program is infeasible), phase 2 optimizes
//! the real objective. Dantzig pricing with a Bland's-rule fallback guards
//! against cycling.

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `=`
    Eq,
}

/// Solver failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// The iteration limit was exceeded (numerical trouble).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible"),
            LpError::Unbounded => write!(f, "unbounded"),
            LpError::IterationLimit => write!(f, "iteration limit"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Optimal objective value (of the *maximization*).
    pub objective: f64,
    /// Optimal variable values.
    pub x: Vec<f64>,
}

/// A linear program under construction.
///
/// # Examples
///
/// ```
/// use yoda_assign::{LinearProgram};
/// use yoda_assign::Cmp;
///
/// // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6
/// let mut lp = LinearProgram::new(2);
/// lp.set_objective(&[3.0, 2.0]);
/// lp.add_constraint(&[1.0, 1.0], Cmp::Le, 4.0);
/// lp.add_constraint(&[1.0, 3.0], Cmp::Le, 6.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective - 12.0).abs() < 1e-6); // x=4, y=0
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Cmp, f64)>,
}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// Creates a program over `num_vars` non-negative variables with a
    /// zero objective.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            rows: Vec::new(),
        }
    }

    /// Sets the maximization objective coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `c.len() != num_vars`.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.num_vars, "objective arity");
        self.objective = c.to_vec();
    }

    /// Adds a constraint `coeffs · x (cmp) rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != num_vars`.
    pub fn add_constraint(&mut self, coeffs: &[f64], cmp: Cmp, rhs: f64) {
        assert_eq!(coeffs.len(), self.num_vars, "constraint arity");
        self.rows.push((coeffs.to_vec(), cmp, rhs));
    }

    /// Solves the program.
    pub fn solve(&self) -> Result<LpResult, LpError> {
        let m = self.rows.len();
        let n = self.num_vars;
        // Normalize rows to non-negative rhs.
        let mut rows = self.rows.clone();
        for (coeffs, cmp, rhs) in &mut rows {
            if *rhs < 0.0 {
                for c in coeffs.iter_mut() {
                    *c = -*c;
                }
                *rhs = -*rhs;
                *cmp = match *cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
            }
        }
        // Column layout: [x (n)] [slack/surplus (s)] [artificial (a)].
        let num_slack = rows
            .iter()
            .filter(|(_, c, _)| matches!(c, Cmp::Le | Cmp::Ge))
            .count();
        let num_art = rows
            .iter()
            .filter(|(_, c, _)| matches!(c, Cmp::Ge | Cmp::Eq))
            .count();
        let total = n + num_slack + num_art;
        // Tableau: m rows × (total + 1 rhs column), plus objective row.
        let mut t = vec![vec![0.0f64; total + 1]; m];
        let mut basis = vec![0usize; m];
        let mut s_idx = n;
        let mut a_idx = n + num_slack;
        let mut artificial_cols = Vec::new();
        for (i, (coeffs, cmp, rhs)) in rows.iter().enumerate() {
            t[i][..n].copy_from_slice(coeffs);
            t[i][total] = *rhs;
            match cmp {
                Cmp::Le => {
                    t[i][s_idx] = 1.0;
                    basis[i] = s_idx;
                    s_idx += 1;
                }
                Cmp::Ge => {
                    t[i][s_idx] = -1.0;
                    s_idx += 1;
                    t[i][a_idx] = 1.0;
                    basis[i] = a_idx;
                    artificial_cols.push(a_idx);
                    a_idx += 1;
                }
                Cmp::Eq => {
                    t[i][a_idx] = 1.0;
                    basis[i] = a_idx;
                    artificial_cols.push(a_idx);
                    a_idx += 1;
                }
            }
        }
        // Phase 1: minimize sum of artificials = maximize -(sum).
        if !artificial_cols.is_empty() {
            let mut obj = vec![0.0; total];
            for &a in &artificial_cols {
                obj[a] = -1.0;
            }
            let val = run_simplex(&mut t, &mut basis, &obj, total)?;
            if val < -1e-6 {
                return Err(LpError::Infeasible);
            }
            // Pivot out any artificial still (degenerately) in the basis.
            for i in 0..m {
                if basis[i] >= n + num_slack {
                    if let Some(col) = (0..n + num_slack).find(|&j| t[i][j].abs() > EPS) {
                        pivot(&mut t, &mut basis, i, col, total);
                    }
                }
            }
        }
        // Phase 2: the real objective, artificial columns forbidden.
        let mut obj = vec![0.0; total];
        obj[..n].copy_from_slice(&self.objective);
        for &a in &artificial_cols {
            for row in t.iter_mut() {
                row[a] = 0.0; // column disabled
            }
        }
        let objective = run_simplex(&mut t, &mut basis, &obj, total)?;
        let mut x = vec![0.0; n];
        for (i, &b) in basis.iter().enumerate() {
            if b < n {
                x[b] = t[i][total];
            }
        }
        Ok(LpResult { objective, x })
    }
}

/// Runs simplex iterations on a tableau already in basic feasible form.
/// Returns the objective value.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    obj: &[f64],
    total: usize,
) -> Result<f64, LpError> {
    let m = t.len();
    let max_iters = 20_000 + 50 * (m + total);
    for iter in 0..max_iters {
        // Reduced costs: c_j - c_B · B^-1 A_j, computed from the tableau.
        let mut entering = None;
        let mut best = EPS;
        for j in 0..total {
            let mut red = obj[j];
            for i in 0..m {
                red -= obj[basis[i]] * t[i][j];
            }
            let use_bland = iter > max_iters / 2;
            if red > EPS {
                if use_bland {
                    entering = Some(j);
                    break;
                }
                if red > best {
                    best = red;
                    entering = Some(j);
                }
            }
        }
        let Some(col) = entering else {
            // Optimal.
            let mut val = 0.0;
            for i in 0..m {
                val += obj[basis[i]] * t[i][total];
            }
            return Ok(val);
        };
        // Ratio test.
        let mut leaving = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if t[i][col] > EPS {
                let ratio = t[i][total] / t[i][col];
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leaving.map(|l: usize| basis[i] < basis[l]).unwrap_or(false))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(row) = leaving else {
            return Err(LpError::Unbounded);
        };
        pivot(t, basis, row, col, total);
    }
    Err(LpError::IterationLimit)
}

fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let m = t.len();
    let p = t[row][col];
    for v in t[row].iter_mut() {
        *v /= p;
    }
    for i in 0..m {
        if i != row && t[i][col].abs() > EPS {
            let factor = t[i][col];
            let (head, tail) = t.split_at_mut(row.max(i));
            let (pivot_row, target_row) = if i < row {
                (&tail[0], &mut head[i])
            } else {
                (&head[row], &mut tail[0])
            };
            for (tj, pj) in target_row.iter_mut().zip(pivot_row.iter()).take(total + 1) {
                *tj -= factor * pj;
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 5x + 4y; 6x + 4y <= 24; x + 2y <= 6 → x=3, y=1.5, obj=21.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[5.0, 4.0]);
        lp.add_constraint(&[6.0, 4.0], Cmp::Le, 24.0);
        lp.add_constraint(&[1.0, 2.0], Cmp::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert_near(sol.objective, 21.0);
        assert_near(sol.x[0], 3.0);
        assert_near(sol.x[1], 1.5);
    }

    #[test]
    fn equality_constraints() {
        // max x + y; x + y = 5; x <= 3 → obj 5.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 1.0], Cmp::Eq, 5.0);
        lp.add_constraint(&[1.0, 0.0], Cmp::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert_near(sol.objective, 5.0);
    }

    #[test]
    fn ge_constraints_and_minimization_pattern() {
        // minimize 2x + 3y s.t. x + y >= 4, x >= 1  → x=4,y=0, cost 8.
        // Encoded as maximize -(2x + 3y).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-2.0, -3.0]);
        lp.add_constraint(&[1.0, 1.0], Cmp::Ge, 4.0);
        lp.add_constraint(&[1.0, 0.0], Cmp::Ge, 1.0);
        let sol = lp.solve().unwrap();
        assert_near(sol.objective, -8.0);
        assert_near(sol.x[0], 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[1.0], Cmp::Le, 1.0);
        lp.add_constraint(&[1.0], Cmp::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 0.0]);
        lp.add_constraint(&[0.0, 1.0], Cmp::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -1 means y >= x + 1; max x s.t. y <= 3 → x = 2.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 0.0]);
        lp.add_constraint(&[1.0, -1.0], Cmp::Le, -1.0);
        lp.add_constraint(&[0.0, 1.0], Cmp::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert_near(sol.objective, 2.0);
    }

    #[test]
    fn degenerate_program() {
        // Degeneracy: redundant constraints meeting at a vertex.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[1.0, 0.0], Cmp::Le, 2.0);
        lp.add_constraint(&[1.0, 0.0], Cmp::Le, 2.0);
        lp.add_constraint(&[0.0, 1.0], Cmp::Le, 2.0);
        lp.add_constraint(&[1.0, 1.0], Cmp::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert_near(sol.objective, 4.0);
    }

    #[test]
    fn assignment_relaxation_shape() {
        // A miniature Fig.-7 relaxation: 2 VIPs × 3 instances, minimize
        // instance count. x_vy ∈ [0,1]; y_y ∈ [0,1].
        // Variables: x00 x01 x02 x10 x11 x12 y0 y1 y2.
        let mut lp = LinearProgram::new(9);
        lp.set_objective(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0]);
        // Σ_y x_vy = 1 for each VIP (n_v = 1).
        lp.add_constraint(&[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], Cmp::Eq, 1.0);
        lp.add_constraint(&[0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0], Cmp::Eq, 1.0);
        // Traffic: 60·x0y + 60·x1y ≤ 100·y_y.
        for y in 0..3 {
            let mut c = vec![0.0; 9];
            c[y] = 60.0;
            c[3 + y] = 60.0;
            c[6 + y] = -100.0;
            lp.add_constraint(&c, Cmp::Le, 0.0);
        }
        // y_y ≤ 1.
        for y in 0..3 {
            let mut c = vec![0.0; 9];
            c[6 + y] = 1.0;
            lp.add_constraint(&c, Cmp::Le, 1.0);
        }
        let sol = lp.solve().unwrap();
        // LP relaxation: total traffic 120 / capacity 100 = 1.2 instances.
        assert_near(sol.objective, -1.2);
    }
}
