//! Absolute pins on the executor's output for every plan shape the
//! optimizer can hand it.
//!
//! `plan_family_golden` pins the plans; this pins what executing them
//! does. For each query below, every *distinct* plan among the 49 arms is
//! executed, in family order, on one N1-4 `BufferPool` that warms as it
//! goes (the IMDb templates also on a 40-page pool, which the data does not
//! fit: evictions and ring-buffered bulk scans), and the digest covers each
//! execution's whole `ExecutionMetrics` JSON (latency, cpu and io time,
//! page hits and misses, `rows_out`, `node_true_rows`, the output rows) or
//! its error text, then the pool's final `stats()`, `len()` and the
//! `cached_fraction` of every heap and index. A change to the order of a
//! page touch, to LRU eviction order, to the sequence of an `f64` charge or
//! to a row an operator emits fails here.
//!
//! A digest moves only when behaviour moves. When that is intended,
//! re-pin from the assertion message and say why in CHANGES.md.

use bao_common::json::ToJson;
use bao_common::rng_from_seed;
use bao_exec::execute;
use bao_opt::{HintSet, Optimizer};
use bao_plan::{ColRef, JoinPred, OpKind, Operator, PlanNode, Query};
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, ColumnDef, DataType, Database, Schema, Table, Value};
use bao_wal::fnv64;
use bao_workloads::imdb::{build_imdb_database, instantiate_template, N_TEMPLATES};
use bao_workloads::{apply_event, build_corp, build_stack, CorpConfig, StackConfig, Workload};
use std::collections::BTreeSet;
use std::fmt::Write;

const SCALE: f64 = 0.05;
const SEED: u64 = 23;

fn n1_4_pages() -> usize {
    bao_cloud::N1_4.buffer_pool_pages()
}

/// One warm-as-it-goes pool and the text its digest is taken over.
struct Pinned {
    opt: Optimizer,
    pool: BufferPool,
    buf: String,
    plans: usize,
}

impl Pinned {
    fn new(pool_pages: usize) -> Pinned {
        Pinned {
            opt: Optimizer::postgres(),
            pool: BufferPool::new(pool_pages),
            buf: String::new(),
            plans: 0,
        }
    }

    /// Execute every distinct plan of `q`'s arm family, in family order.
    fn run(&mut self, q: &Query, db: &Database, cat: &StatsCatalog) {
        let rates = bao_cloud::N1_4.charge_rates();
        let mut seen = BTreeSet::new();
        for hints in HintSet::family_49() {
            let root = self.opt.plan(q, db, cat, hints).unwrap().root;
            if !seen.insert(shape(&root)) {
                continue;
            }
            self.plans += 1;
            match execute(&root, q, db, &mut self.pool, &self.opt.params, &rates) {
                Ok(m) => writeln!(self.buf, "[{hints}] {}", m.to_json().to_string()).unwrap(),
                Err(e) => writeln!(self.buf, "[{hints}] error: {e}").unwrap(),
            }
        }
    }

    /// Append the pool's final state and digest the lot.
    fn finish(mut self, db: &Database) -> u64 {
        let stats = self.pool.stats();
        write!(self.buf, "pool {}/{} len {}", stats.hits, stats.misses, self.pool.len()).unwrap();
        for name in db.table_names() {
            let st = db.by_name(name).unwrap();
            let heap = self.pool.cached_fraction(st.heap_object, st.table.n_pages());
            write!(self.buf, " {name}={:016x}", heap.to_bits()).unwrap();
            for si in &st.indexes {
                let frac = self.pool.cached_fraction(si.object, si.index.n_pages());
                write!(self.buf, " {name}.{}={:016x}", si.index.column, frac.to_bits()).unwrap();
            }
        }
        fnv64(self.buf.as_bytes())
    }
}

/// A plan's operators without its estimates: arms that differ only in
/// `est_cost` (a `disable_cost` penalty) execute identically.
fn shape(root: &PlanNode) -> String {
    root.iter().map(|n| format!("{:?}/{};", n.op, n.children.len())).collect()
}

/// The digest of `queries` on a pool of `pool_pages`, and how many plans
/// it executed.
fn digest(
    pool_pages: usize,
    queries: &[&Query],
    db: &Database,
    cat: &StatsCatalog,
) -> (u64, usize) {
    let mut p = Pinned::new(pool_pages);
    for q in queries {
        p.run(q, db, cat);
    }
    let plans = p.plans;
    (p.finish(db), plans)
}

/// The first `steps` statements of a stream, events applied (and
/// statistics refreshed) as the harness would.
fn stream_digest(mut db: Database, wl: &Workload, steps: usize) -> u64 {
    let mut cat = StatsCatalog::analyze(&db, 500, SEED);
    let mut p = Pinned::new(n1_4_pages());
    for step in &wl.steps[..steps] {
        if let Some(event) = &step.event {
            apply_event(&mut db, event, SEED).unwrap();
            cat = StatsCatalog::analyze(&db, 500, SEED);
        }
        p.run(&step.query, &db, &cat);
    }
    p.finish(&db)
}

fn assert_pin(what: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{what}: digest {got:#018x}, pinned {want:#018x}");
}

#[test]
fn imdb_templates_match_pinned_digest() {
    let db = build_imdb_database(SCALE, SEED).unwrap();
    let cat = StatsCatalog::analyze(&db, 500, SEED);
    let mut rng = rng_from_seed(SEED);
    let queries: Vec<Query> =
        (0..N_TEMPLATES).map(|t| instantiate_template(t, SCALE, &mut rng).1).collect();
    let queries: Vec<&Query> = queries.iter().collect();
    let (got, plans) = digest(n1_4_pages(), &queries, &db, &cat);
    // Far more plans than templates: the arms really do disagree here.
    assert!(plans > 4 * N_TEMPLATES, "{plans} distinct plans");
    assert_pin("imdb", got, 0x1af1f1034316f335);
    assert_pin("imdb, 40-page pool", digest(40, &queries, &db, &cat).0, 0xd1861f390906f63f);
}

#[test]
fn stack_stream_matches_pinned_digest() {
    let cfg =
        StackConfig { scale: SCALE, n_queries: 48, initial_months: 2, total_months: 4, seed: SEED };
    let (db, wl) = build_stack(&cfg).unwrap();
    // Far enough to load a month (indexes rebuilt under fresh object ids).
    let steps = 26;
    assert_eq!(wl.steps[..steps].iter().filter(|s| s.event.is_some()).count(), 1);
    assert_pin("stack", stream_digest(db, &wl, steps), 0x44fd4639367b4c64);
}

#[test]
fn corp_stream_matches_pinned_digest() {
    let (db, wl) = build_corp(&CorpConfig { scale: SCALE, n_queries: 48, seed: SEED }).unwrap();
    // Across the normalization: wide-schema templates, then the joins.
    let steps = 30;
    assert_eq!(wl.steps[..steps].iter().filter(|s| s.event.is_some()).count(), 1);
    assert_pin("corp", stream_digest(db, &wl, steps), 0xaabc1f057d94751c);
}

/// `n` rows of `(id, v)` with `id` indexed.
fn small_table(n: i64) -> (Database, StatsCatalog) {
    let mut t = Table::new(
        "t",
        Schema::new(vec![ColumnDef::new("id", DataType::Int), ColumnDef::new("v", DataType::Int)]),
    );
    for i in 0..n {
        t.insert(vec![Value::Int(i), Value::Int(i % 97)]).unwrap();
    }
    let mut db = Database::new();
    db.create_table(t).unwrap();
    db.create_index("t", "id").unwrap();
    let cat = StatsCatalog::analyze(&db, 500, SEED);
    (db, cat)
}

/// Shapes the workload templates do not reach.
#[test]
fn shapes_beyond_the_templates_match_pinned_digest() {
    let (db, cat) = small_table(20_000);
    let opt = Optimizer::postgres();
    let has = |q: &Query, f: &dyn Fn(&PlanNode) -> bool| {
        HintSet::family_49()
            .into_iter()
            .any(|h| opt.plan(q, &db, &cat, h).unwrap().root.iter().any(f))
    };

    // Projected (non-aggregate) output under ORDER BY and LIMIT, through a
    // join so that the sort sees composite rows.
    let projected = parse_query(
        "SELECT a.id, b.v FROM t a, t b WHERE a.id = b.id AND a.v = 11 AND a.id < 6000 \
         ORDER BY a.id LIMIT 25",
    )
    .unwrap();
    let unlimited =
        parse_query("SELECT a.v, a.id FROM t a WHERE a.id > 19000 ORDER BY a.v").unwrap();
    assert!(has(&projected, &|n| n.op.kind() == OpKind::Sort));

    // A covering index-only scan, plain and as a parameterized inner.
    let covering = parse_query("SELECT COUNT(id) FROM t WHERE id < 300").unwrap();
    let covering_inner =
        parse_query("SELECT COUNT(*) FROM t a, t b WHERE a.id = b.id AND a.v = 3 AND a.id < 2000")
            .unwrap();
    let index_only = |param: bool| move |n: &PlanNode| matches!(&n.op, Operator::IndexOnlyScan { param: p, .. } if p.is_some() == param);
    assert!(has(&covering, &index_only(false)) && has(&covering_inner, &index_only(true)));

    // A cyclic join graph: the closing predicate becomes a Filter.
    let mut cyclic = parse_query(
        "SELECT COUNT(*) FROM t a, t b, t c WHERE a.id = b.id AND b.id = c.id AND a.v < 40",
    )
    .unwrap();
    cyclic.joins.push(JoinPred::new(ColRef::new(0, "id"), ColRef::new(2, "id")));
    assert!(has(&cyclic, &|n| n.op.kind() == OpKind::Filter));

    // Range probes that match nothing: past the last key (still reads the
    // leaf it lands on), an inverted range, and a parameterized inner
    // whose residual rejects every fetched row.
    let past_end = parse_query("SELECT COUNT(*) FROM t WHERE id > 50000").unwrap();
    let inverted = parse_query("SELECT COUNT(*) FROM t WHERE id > 900 AND id < 100").unwrap();
    let no_inner = parse_query(
        "SELECT COUNT(*) FROM t a, t b WHERE a.id = b.id AND a.id < 500 AND b.v > 1000",
    )
    .unwrap();
    assert!(has(&past_end, &|n| matches!(n.op, Operator::IndexScan { .. })));

    let queries = [
        &projected,
        &unlimited,
        &covering,
        &covering_inner,
        &cyclic,
        &past_end,
        &inverted,
        &no_inner,
    ];
    assert_pin("shapes", digest(n1_4_pages(), &queries, &db, &cat).0, 0x4da5f236dee27824);
}
