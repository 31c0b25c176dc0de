//! The join graph of a query: which FROM-list entries are connected by
//! equi-join predicates. The optimizer's dynamic-programming enumerator
//! only combines connected sub-plans (avoiding Cartesian products unless
//! the query itself is disconnected).

use crate::logical::Query;

/// Adjacency structure over the query's FROM-list positions.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    n: usize,
    /// adj[i] = tables joined to i by at least one predicate.
    adj: Vec<Vec<usize>>,
}

impl JoinGraph {
    pub fn from_query(q: &Query) -> JoinGraph {
        let n = q.tables.len();
        let mut adj = vec![Vec::new(); n];
        for j in &q.joins {
            let (a, b) = (j.left.table, j.right.table);
            if a < n && b < n && a != b {
                if !adj[a].contains(&b) {
                    adj[a].push(b);
                }
                if !adj[b].contains(&a) {
                    adj[b].push(a);
                }
            }
        }
        JoinGraph { n, adj }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn neighbors(&self, table: usize) -> &[usize] {
        &self.adj[table]
    }

    /// Is the whole graph connected (no forced Cartesian products)?
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(t) = stack.pop() {
            for &u in &self.adj[t] {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{ColRef, JoinPred, TableRef};

    fn chain_query(n: usize) -> Query {
        let mut q = Query {
            tables: (0..n).map(|i| TableRef::new(format!("t{i}"))).collect(),
            ..Default::default()
        };
        for i in 1..n {
            q.joins.push(JoinPred::new(ColRef::new(i - 1, "id"), ColRef::new(i, "fk")));
        }
        q
    }

    #[test]
    fn chain_adjacency() {
        let g = JoinGraph::from_query(&chain_query(3));
        assert_eq!(g.len(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph() {
        let mut q = chain_query(3);
        q.tables.push(TableRef::new("lonely"));
        let g = JoinGraph::from_query(&q);
        assert!(!g.is_connected());
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn duplicate_join_preds_dedup() {
        let mut q = chain_query(2);
        q.joins.push(q.joins[0].clone());
        let g = JoinGraph::from_query(&q);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = JoinGraph::from_query(&Query::default());
        assert!(g.is_empty());
        assert!(g.is_connected());
    }
}
