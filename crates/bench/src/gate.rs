//! The verdict of an overhead bench against its budget.
//!
//! A wall-clock overhead is only meaningful when the run's noise floor is
//! below the budget it is judged against: with a 12% round-to-round spread
//! a measured +0.2% says nothing about a 1% budget. Such a run is
//! *unresolved*, never a pass.

/// Where a measured overhead stands against its budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// Below the budget, with a noise floor that can resolve it.
    Within,
    /// At or above the budget, with a noise floor that can resolve it.
    Over,
    /// The noise floor is at least the budget: the run cannot tell.
    Unresolved,
}

impl BudgetVerdict {
    /// Judges `overhead` against `budget`, given the run's `noise_floor`
    /// (all three as fractions, e.g. `0.01` for 1%).
    pub fn judge(overhead: f64, noise_floor: f64, budget: f64) -> Self {
        if noise_floor >= budget {
            BudgetVerdict::Unresolved
        } else if overhead < budget {
            BudgetVerdict::Within
        } else {
            BudgetVerdict::Over
        }
    }

    /// The verdict as written into a `BENCH_*.json` artifact.
    pub fn name(self) -> &'static str {
        match self {
            BudgetVerdict::Within => "within",
            BudgetVerdict::Over => "over",
            BudgetVerdict::Unresolved => "unresolved",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_floor_above_the_budget_is_unresolved() {
        // The two artifacts that used to report `within_budget: true`:
        // telemetry overhead +0.19% under a 12.07% floor, and checkpoint
        // overhead −2.88% under a 4.42% floor, both against 1%.
        assert_eq!(BudgetVerdict::judge(0.001863, 0.120732, 0.01), BudgetVerdict::Unresolved);
        assert_eq!(BudgetVerdict::judge(-0.028848, 0.044230, 0.01), BudgetVerdict::Unresolved);
        assert_eq!(BudgetVerdict::judge(0.0, 0.01, 0.01), BudgetVerdict::Unresolved);
    }

    #[test]
    fn a_resolving_noise_floor_decides_within_or_over() {
        assert_eq!(BudgetVerdict::judge(0.002, 0.005, 0.01), BudgetVerdict::Within);
        assert_eq!(BudgetVerdict::judge(0.01, 0.005, 0.01), BudgetVerdict::Over);
        assert_eq!(BudgetVerdict::judge(0.03, 0.005, 0.01), BudgetVerdict::Over);
        assert_eq!(BudgetVerdict::Unresolved.name(), "unresolved");
    }
}
