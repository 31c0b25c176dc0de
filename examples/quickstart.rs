//! Quickstart: the full stack in one file.
//!
//! Builds a small database, parses SQL, plans it with the PostgreSQL-like
//! optimizer under different hint sets, executes each plan on the
//! cost-accurate simulator, and prints EXPLAIN output — everything Bao
//! sits on top of.
//!
//! Run with: `cargo run --release -p bao-bench --example quickstart`

use bao_exec::{execute, ChargeRates};
use bao_opt::{HintSet, Optimizer};
use bao_sql::parse_query;
use bao_stats::StatsCatalog;
use bao_storage::{BufferPool, ColumnDef, DataType, Database, Schema, Table, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Create a database: movies and their cast.
    let mut movies = Table::new(
        "movies",
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("kind", DataType::Text),
            ColumnDef::new("year", DataType::Int),
        ]),
    );
    for i in 0..50_000i64 {
        let kind = if i % 4 == 0 { "tv" } else { "movie" };
        movies.insert(vec![
            Value::Int(i),
            Value::Str(kind.into()),
            Value::Int(1950 + (i * 13) % 70),
        ])?;
    }
    let mut cast = Table::new(
        "cast",
        Schema::new(vec![
            ColumnDef::new("movie_id", DataType::Int),
            ColumnDef::new("role", DataType::Int),
        ]),
    );
    for i in 0..200_000i64 {
        cast.insert(vec![Value::Int((i * 13) % 50_000), Value::Int(i % 10)])?;
    }
    let mut db = Database::new();
    db.create_table(movies)?;
    db.create_table(cast)?;
    db.create_index("movies", "id")?;
    db.create_index("movies", "year")?;
    db.create_index("cast", "movie_id")?;

    // 2. ANALYZE: build statistics for the optimizer.
    let cat = StatsCatalog::analyze(&db, 1_000, 42);

    // 3. Parse a SQL query.
    // A selective probe: the default optimizer correctly picks a
    // parameterized nested loop; disabling loop joins forces a full
    // hash-join scan of `cast` — Figure 1's "24b" direction.
    let sql = "SELECT COUNT(*) FROM movies m, cast c \
               WHERE m.id = c.movie_id AND m.id = 1500 AND m.kind = 'tv'";
    let query = parse_query(sql)?;
    println!("query: {sql}\n");

    // 4. Plan it under two hint sets and execute both.
    let opt = Optimizer::postgres();
    let rates = ChargeRates::default();
    for (name, hints) in [
        ("default optimizer", HintSet::all_enabled()),
        ("loop joins disabled", HintSet::from_masks(0b011, 0b111)),
    ] {
        let plan = opt.plan(&query, &db, &cat, hints)?;
        let mut pool = BufferPool::new(1_024);
        let metrics = execute(&plan.root, &query, &db, &mut pool, &opt.params, &rates)?;
        println!("--- {name} ({})", hints.set_statements());
        println!("{}", plan.root.explain());
        println!(
            "result: {:?}   simulated latency: {:.2} ms   physical I/O: {} pages\n",
            metrics.output[0][0],
            metrics.latency.as_ms(),
            metrics.page_misses
        );
    }
    println!("Both plans return the same count — hint sets never change semantics,");
    println!("only cost. Bao's job is picking the right one per query; see the");
    println!("`bao_learning` example for the learning loop.");
    Ok(())
}
