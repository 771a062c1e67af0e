//! Linear-program description shared by the simplex and branch & bound
//! solvers.

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstrOp {
    Le,
    Ge,
    Eq,
}

/// A sparse linear constraint `Σ coeffs · x  op  rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub coeffs: Vec<(usize, f64)>,
    pub op: ConstrOp,
    pub rhs: f64,
}

impl Constraint {
    pub fn le(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Constraint {
            coeffs,
            op: ConstrOp::Le,
            rhs,
        }
    }

    pub fn ge(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Constraint {
            coeffs,
            op: ConstrOp::Ge,
            rhs,
        }
    }

    pub fn eq(coeffs: Vec<(usize, f64)>, rhs: f64) -> Self {
        Constraint {
            coeffs,
            op: ConstrOp::Eq,
            rhs,
        }
    }
}

/// A linear program: minimize `objective · x` subject to `constraints`,
/// with `x ≥ 0`. Upper bounds must be encoded as constraints.
#[derive(Debug, Clone, Default)]
pub struct Lp {
    pub num_vars: usize,
    /// Minimization objective coefficients (len = `num_vars`).
    pub objective: Vec<f64>,
    pub constraints: Vec<Constraint>,
}

impl Lp {
    pub fn new(num_vars: usize) -> Self {
        Lp {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        self.objective[var] = coeff;
    }

    pub fn add(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Evaluate the objective at a point.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Check feasibility of a point within tolerance.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|&(i, a)| a * x[i]).sum();
            match c.op {
                ConstrOp::Le => lhs <= c.rhs + tol,
                ConstrOp::Ge => lhs >= c.rhs - tol,
                ConstrOp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

/// Solver status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
    /// Iteration limit hit (returned point is the best basic solution seen).
    IterLimit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_check() {
        let mut lp = Lp::new(2);
        lp.add(Constraint::le(vec![(0, 1.0), (1, 1.0)], 4.0));
        lp.add(Constraint::ge(vec![(0, 1.0)], 1.0));
        assert!(lp.is_feasible(&[1.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[0.5, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!lp.is_feasible(&[-1.0, 0.0], 1e-9));
    }

    #[test]
    fn objective_eval() {
        let mut lp = Lp::new(3);
        lp.set_objective(0, 2.0);
        lp.set_objective(2, -1.0);
        assert_eq!(lp.objective_at(&[1.0, 5.0, 3.0]), -1.0);
    }
}
