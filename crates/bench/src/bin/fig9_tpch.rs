//! Fig. 9: TPC-H execution time — column engine vs row engine vs a
//! naive-columnar baseline (the ClickHouse stand-in: no pack pruning,
//! single-threaded scans; see DESIGN.md §4).

use imci_bench::{bench_cluster, env_f64, geomean, run_query_on, run_query_opts};
use imci_sql::{EngineChoice, QueryOptions};

fn main() {
    let sf = env_f64("SF", 0.002);
    println!("# paper: Fig 9 — IMCI ~5.6x (100G) / ~12x (1T) geomean over row engine; comparable to ClickHouse");
    println!("# sf={sf}");
    let cluster = bench_cluster(1);
    let rows = imci_workloads::tpch::load(&cluster, sf, 42).unwrap();
    assert!(cluster.wait_sync(std::time::Duration::from_secs(300)));
    println!("# loaded {rows} rows");
    println!("query\tcolumn_ms\tnaive_columnar_ms\trow_ms\tspeedup_vs_row");
    let (mut col, mut naive, mut row) = (Vec::new(), Vec::new(), Vec::new());
    for (name, sql) in imci_workloads::tpch::queries() {
        let (tc, n1) = run_query_on(&cluster, &sql, EngineChoice::Column);
        // naive columnar: pruning off, parallelism 1
        let naive_opts = QueryOptions {
            parallelism: Some(1),
            prune: Some(false),
            ..QueryOptions::forced(Some(EngineChoice::Column))
        };
        let (tn, n2) = run_query_opts(&cluster, &sql, &naive_opts);
        let (tr, n3) = run_query_on(&cluster, &sql, EngineChoice::Row);
        assert_eq!(n1, n3, "{name}: engines disagree on row count");
        assert_eq!(n2, n3, "{name}: naive engine disagrees");
        let (c, nv, r) = (
            tc.as_secs_f64() * 1e3,
            tn.as_secs_f64() * 1e3,
            tr.as_secs_f64() * 1e3,
        );
        println!("{name}\t{c:.2}\t{nv:.2}\t{r:.2}\t{:.1}", r / c.max(1e-6));
        col.push(c);
        naive.push(nv);
        row.push(r);
    }
    println!(
        "Gmean\t{:.2}\t{:.2}\t{:.2}\t{:.1}",
        geomean(&col),
        geomean(&naive),
        geomean(&row),
        geomean(&row) / geomean(&col).max(1e-9)
    );
    cluster.shutdown();
}
