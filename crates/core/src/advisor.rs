//! Advisor mode (paper §4, Figure 6): Bao observes and recommends but
//! never changes plans. EXPLAIN output is augmented with the model's
//! prediction, the hint set Bao would choose, and the estimated
//! improvement.

use crate::bao::Bao;
use bao_common::{BaoError, Result};
use bao_opt::{HintSet, Optimizer};
use bao_plan::{PlanNode, Query};
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, Database};

/// Advisor-mode output for one query.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Predicted performance of the default (unhinted) plan.
    pub predicted_default_ms: f64,
    /// The arm Bao would pick in active mode.
    pub recommended_arm: usize,
    pub recommended: HintSet,
    /// Predicted performance under the recommended arm.
    pub predicted_recommended_ms: f64,
    /// The default optimizer's plan (what will actually run).
    pub default_plan: PlanNode,
}

impl Advice {
    /// Estimated improvement from taking the recommendation.
    pub fn estimated_improvement_ms(&self) -> f64 {
        (self.predicted_default_ms - self.predicted_recommended_ms).max(0.0)
    }

    /// Figure 6-style EXPLAIN rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("QUERY PLAN\n");
        out.push_str("------------------------------------------------------------------\n");
        out.push_str(&format!(" Bao prediction: {:.3} ms\n", self.predicted_default_ms));
        out.push_str(&format!(" Bao recommended hint: {}\n", self.recommended.set_statements()));
        out.push_str(&format!(
            "     (estimated {:.3} ms improvement)\n",
            self.estimated_improvement_ms()
        ));
        for line in self.default_plan.explain().lines() {
            out.push_str(&format!(" {line}\n"));
        }
        out
    }
}

impl Bao {
    /// Produce advisor-mode output. Requires a fitted model (advisor mode
    /// still trains from observed executions).
    pub fn advise(
        &self,
        opt: &Optimizer,
        query: &Query,
        db: &Database,
        cat: &StatsCatalog,
        pool: Option<&BufferPool>,
    ) -> Result<Advice> {
        if !self.is_model_fitted() {
            return Err(BaoError::ModelNotFitted);
        }
        let (selection, mut family) = self.evaluate_arms(opt, query, db, cat, pool)?;
        let predicted_default_ms = selection.predictions[0].unwrap_or(f64::NAN);
        let predicted_recommended_ms = selection.predictions[selection.arm].unwrap_or(f64::NAN);
        let (default_plan, _) = family
            .arm_plan
            .first()
            .map(|&p| family.plans.swap_remove(p))
            .ok_or_else(|| BaoError::Planning("no arms were planned".into()))?;
        Ok(Advice {
            predicted_default_ms,
            recommended_arm: selection.arm,
            recommended: selection.hints,
            predicted_recommended_ms,
            default_plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_plan::{ColRef, Operator};

    fn advice() -> Advice {
        Advice {
            predicted_default_ms: 61722.655,
            recommended_arm: 3,
            recommended: HintSet::from_masks(0b011, 0b111),
            predicted_recommended_ms: 18598.632,
            default_plan: PlanNode::new(
                Operator::Sort { keys: vec![ColRef::new(0, "x")] },
                vec![PlanNode::new(Operator::SeqScan { table: 0, preds: vec![] }, vec![])],
            ),
        }
    }

    #[test]
    fn improvement_is_clamped() {
        let mut a = advice();
        assert!((a.estimated_improvement_ms() - 43124.023).abs() < 1e-6);
        a.predicted_recommended_ms = 99_999.0;
        assert_eq!(a.estimated_improvement_ms(), 0.0);
    }

    #[test]
    fn render_matches_figure_6_shape() {
        let text = advice().render();
        assert!(text.contains("Bao prediction: 61722.655 ms"), "{text}");
        assert!(text.contains("Bao recommended hint: SET enable_nestloop TO off;"));
        assert!(text.contains("estimated 43124.023 ms improvement"));
        assert!(text.contains("Sort"));
        assert!(text.contains("-> Seq Scan"));
    }
}
