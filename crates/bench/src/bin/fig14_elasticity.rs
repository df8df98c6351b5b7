//! Fig. 14: scale-out elasticity — cluster OLAP throughput and new-node
//! LSN delay over time as RO nodes are added.

use imci_bench::{bench_cluster, env_usize};
use imci_cluster::ExecOpts;
use imci_sql::{EngineChoice, QueryOptions};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    println!("# paper: Fig 14 — new RO serves in ~10s, catches up in ~9s; cluster OLAP tput steps up per node; 2nd node catches up faster (newer checkpoint)");
    let cluster = bench_cluster(1);
    imci_workloads::tpch::load(&cluster, 0.001, 7).unwrap();
    let wl = Arc::new(imci_workloads::sysbench::Sysbench::setup(&cluster, 2, 500).unwrap());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    assert!(cluster.wait_sync(Duration::from_secs(120)));
    cluster.checkpoint_now().unwrap();

    // background TP load, paced so small hosts' pipelines keep up
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    let tp_threads = (host_cores / 4).max(1) as u64;
    for t in 0..tp_threads {
        let (c, wl, stop) = (cluster.clone(), wl.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(t);
            while !stop.load(Ordering::Relaxed) {
                let _ = wl.insert_one(&c, &mut rng);
                std::thread::sleep(Duration::from_micros(500));
            }
        }));
    }
    // background AP load: TPC-H Q6 in a loop on all RO nodes
    let ap_ops = Arc::new(AtomicU64::new(0));
    let q6 = imci_workloads::tpch::queries()[5].1.clone();
    for _ in 0..(host_cores / 2).max(1) {
        let (c, stop, ops, q) = (cluster.clone(), stop.clone(), ap_ops.clone(), q6.clone());
        handles.push(std::thread::spawn(move || {
            let column = ExecOpts {
                query: QueryOptions::forced(Some(EngineChoice::Column)),
                ..Default::default()
            };
            while !stop.load(Ordering::Relaxed) {
                if c.execute_opts(&q, column).is_ok() {
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    let phase_ms = env_usize("PHASE_MS", 800) as u64;
    let t0 = Instant::now();
    println!("t_ms\tevent\tro_nodes\tolap_qps_window\tmax_lsn_delay");
    let sample = |label: &str, cluster: &imci_cluster::Cluster, ops: &AtomicU64| {
        let before = ops.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(phase_ms));
        let qps = (ops.load(Ordering::SeqCst) - before) as f64 / (phase_ms as f64 / 1e3);
        let written = cluster.written_lsn();
        let max_delay = cluster
            .ros
            .read()
            .iter()
            .map(|n| written.saturating_sub(n.applied_lsn()))
            .max()
            .unwrap_or(0);
        println!(
            "{}\t{label}\t{}\t{qps:.1}\t{max_delay}",
            t0.elapsed().as_millis(),
            cluster.ros.read().len()
        );
    };
    sample("steady-1-ro", &cluster, &ap_ops);
    let r1 = cluster.scale_out().unwrap();
    println!(
        "{}\tscale-out-No.1 load={}ms catchup={}ms from_ckpt={}\t{}\t-\t-",
        t0.elapsed().as_millis(),
        r1.load_time.as_millis(),
        r1.catchup_time.as_millis(),
        r1.from_checkpoint,
        cluster.ros.read().len()
    );
    sample("steady-2-ro", &cluster, &ap_ops);
    cluster.checkpoint_now().unwrap();
    let r2 = cluster.scale_out().unwrap();
    println!(
        "{}\tscale-out-No.2 load={}ms catchup={}ms from_ckpt={}\t{}\t-\t-",
        t0.elapsed().as_millis(),
        r2.load_time.as_millis(),
        r2.catchup_time.as_millis(),
        r2.from_checkpoint,
        cluster.ros.read().len()
    );
    sample("steady-3-ro", &cluster, &ap_ops);

    stop.store(true, Ordering::SeqCst);
    for h in handles {
        let _ = h.join();
    }
    cluster.shutdown();
}
