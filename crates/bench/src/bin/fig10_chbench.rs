//! Fig. 10: CH-benCHmark performance isolation — OLTP throughput while
//! AP clients grow (a), OLAP throughput while TP clients grow (b).

use imci_bench::{bench_cluster, env_usize};
use imci_cluster::ExecOpts;
use imci_sql::{EngineChoice, QueryOptions};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let warehouses = env_usize("WAREHOUSES", 2) as i64;
    let window_ms = env_usize("WINDOW_MS", 1500) as u64;
    println!(
        "# paper: Fig 10 — OLTP loss <5% as AP clients grow; OLAP loss <20% as TP clients grow"
    );
    let cluster = bench_cluster(1);
    let ch = Arc::new(imci_workloads::chbench::ChBench::setup(&cluster, warehouses).unwrap());
    assert!(cluster.wait_sync(Duration::from_secs(120)));
    let queries = imci_workloads::chbench::analytical_queries();
    let column = ExecOpts {
        query: QueryOptions::forced(Some(EngineChoice::Column)),
        ..Default::default()
    };

    let run_mix = |tp_threads: usize, ap_threads: usize| -> (f64, f64) {
        let stop = Arc::new(AtomicBool::new(false));
        let tp_ops = Arc::new(AtomicU64::new(0));
        let ap_ops = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..tp_threads {
            let (c, ch, stop, ops) = (cluster.clone(), ch.clone(), stop.clone(), tp_ops.clone());
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64 + 1);
                while !stop.load(Ordering::Relaxed) {
                    if ch.new_order(&c, &mut rng).is_ok() {
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                    if ch.payment(&c, &mut rng).is_ok() {
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for t in 0..ap_threads {
            let (c, stop, ops, qs) = (
                cluster.clone(),
                stop.clone(),
                ap_ops.clone(),
                queries.clone(),
            );
            handles.push(std::thread::spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let (_, sql) = &qs[i % qs.len()];
                    if c.execute_opts(sql, column).is_ok() {
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(window_ms));
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            let _ = h.join();
        }
        let secs = window_ms as f64 / 1e3;
        (
            tp_ops.load(Ordering::SeqCst) as f64 / secs,
            ap_ops.load(Ordering::SeqCst) as f64 / secs,
        )
    };

    println!("## (a) fixed TP clients, growing AP clients");
    println!("ap_clients\toltp_tps\tolap_qps");
    let base_tp = env_usize("TP_THREADS", 4);
    for ap in [0usize, 1, 2, 4, 8] {
        let (tp, apq) = run_mix(base_tp, ap);
        println!("{ap}\t{tp:.0}\t{apq:.1}");
    }
    println!("## (b) fixed AP clients, growing TP clients");
    println!("tp_clients\toltp_tps\tolap_qps");
    for tp in [0usize, 2, 4, 8] {
        let (tps, apq) = run_mix(tp, 2);
        println!("{tp}\t{tps:.0}\t{apq:.1}");
    }
    cluster.shutdown();
}
