//! §6.3 plan-change analysis: how a hinted plan differs from the default
//! optimizer's plan — operator choices, access paths, join order.

use bao_plan::PlanNode;

/// How two plans for the same query differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanChanges {
    /// Any difference in the multiset of join algorithms / scan kinds.
    pub operators_changed: bool,
    /// Any base table scanned through a different access path.
    pub access_paths_changed: bool,
    /// A different join tree shape (which sub-results join with which).
    pub join_order_changed: bool,
}

impl PlanChanges {
    pub fn any(&self) -> bool {
        self.operators_changed || self.access_paths_changed || self.join_order_changed
    }
}

/// Compare a chosen plan against the default optimizer's plan.
pub fn plan_change_stats(default: &PlanNode, chosen: &PlanNode) -> PlanChanges {
    let mut d_algos = default.join_algos();
    let mut c_algos = chosen.join_algos();
    d_algos.sort_by_key(|a| *a as u8);
    c_algos.sort_by_key(|a| *a as u8);
    let d_paths = default.access_paths();
    let c_paths = chosen.access_paths();
    let operators_changed = d_algos != c_algos
        || d_paths.iter().map(|&(_, k)| k).collect::<Vec<_>>()
            != c_paths.iter().map(|&(_, k)| k).collect::<Vec<_>>();
    PlanChanges {
        operators_changed,
        access_paths_changed: d_paths != c_paths,
        join_order_changed: default.join_order_signature() != chosen.join_order_signature(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bao_plan::{ColRef, JoinPred, Operator, PlanNode};

    fn seq(t: usize) -> PlanNode {
        PlanNode::new(Operator::SeqScan { table: t, preds: vec![] }, vec![])
    }

    fn idx(t: usize) -> PlanNode {
        PlanNode::new(
            Operator::IndexScan {
                table: t,
                column: "id".into(),
                lo: None,
                hi: None,
                residual: vec![],
                param: None,
            },
            vec![],
        )
    }

    fn hj(l: PlanNode, r: PlanNode) -> PlanNode {
        let lt = l.tables_covered()[0];
        let rt = r.tables_covered()[0];
        PlanNode::new(
            Operator::HashJoin { pred: JoinPred::new(ColRef::new(lt, "a"), ColRef::new(rt, "b")) },
            vec![l, r],
        )
    }

    fn nl(l: PlanNode, r: PlanNode) -> PlanNode {
        let lt = l.tables_covered()[0];
        let rt = r.tables_covered()[0];
        PlanNode::new(
            Operator::NestedLoopJoin {
                pred: JoinPred::new(ColRef::new(lt, "a"), ColRef::new(rt, "b")),
            },
            vec![l, r],
        )
    }

    #[test]
    fn identical_plans_have_no_changes() {
        let a = hj(seq(0), seq(1));
        let c = plan_change_stats(&a, &a.clone());
        assert!(!c.any());
    }

    #[test]
    fn join_algo_change_detected() {
        let a = hj(seq(0), seq(1));
        let b = nl(seq(0), seq(1));
        let c = plan_change_stats(&a, &b);
        assert!(c.operators_changed);
        assert!(!c.access_paths_changed);
        assert!(!c.join_order_changed);
    }

    #[test]
    fn access_path_change_detected() {
        let a = hj(seq(0), seq(1));
        let b = hj(idx(0), seq(1));
        let c = plan_change_stats(&a, &b);
        assert!(c.operators_changed);
        assert!(c.access_paths_changed);
        assert!(!c.join_order_changed);
    }

    #[test]
    fn join_order_change_detected() {
        // ((0 ⋈ 1) ⋈ 2) vs ((1 ⋈ 2) ⋈ 0): same operators, different shape.
        let a = hj(hj(seq(0), seq(1)), seq(2));
        let b = hj(hj(seq(1), seq(2)), seq(0));
        let c = plan_change_stats(&a, &b);
        assert!(c.join_order_changed);
        assert!(!c.operators_changed);
    }
}
