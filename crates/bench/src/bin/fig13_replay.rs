//! Fig. 13: maximum throughput of each replay component vs threads,
//! compared to the RW node's maximum OLTP throughput.

use imci_bench::env_usize;
use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, Rid, Schema, TableId, Value, Vid};
use imci_core::{ColumnIndex, RidLocator};
use imci_wal::{LogWriter, PropagationMode, RedoEntry};
use polarfs_sim::PolarFs;
use rowstore::RowEngine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn per_second(total: u64, dt: Duration) -> f64 {
    total as f64 / dt.as_secs_f64()
}

fn schema() -> Schema {
    Schema::new(
        TableId(1),
        "t",
        vec![
            ColumnDef::not_null("id", DataType::Int),
            ColumnDef::new("v", DataType::Int),
        ],
        vec![
            IndexDef {
                kind: IndexKind::Primary,
                name: "PRIMARY".into(),
                columns: vec![0],
            },
            IndexDef {
                kind: IndexKind::Column,
                name: "ci".into(),
                columns: vec![0, 1],
            },
        ],
    )
    .unwrap()
}

fn main() {
    println!("# paper: Fig 13 — locator/pack update tput is 30-61x the RW max OLTP tput; parse ~34k/s/thread, commit ~459k/s");
    let window = Duration::from_millis(env_usize("WINDOW_MS", 600) as u64);

    // RW max throughput reference: single-row insert txns, many threads.
    let fs = PolarFs::instant();
    let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
    let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
    rw.create_table("t", schema().columns.clone(), schema().indexes.clone())
        .unwrap();
    let total = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut hs = Vec::new();
    for w in 0..8u64 {
        let (rw, total, stop) = (rw.clone(), total.clone(), stop.clone());
        hs.push(std::thread::spawn(move || {
            let mut pk = w as i64 * 100_000_000;
            while !stop.load(Ordering::Relaxed) {
                let mut txn = rw.begin();
                if rw
                    .insert(&mut txn, "t", vec![Value::Int(pk), Value::Int(0)])
                    .is_ok()
                {
                    rw.commit(txn).unwrap();
                    total.fetch_add(1, Ordering::Relaxed);
                }
                pk += 1;
            }
        }));
    }
    std::thread::sleep(window);
    stop.store(true, Ordering::SeqCst);
    for h in hs {
        let _ = h.join();
    }
    let rw_tput = per_second(total.load(Ordering::SeqCst), window);
    println!("# MAX RW OLTP tput (8 writer threads): {rw_tput:.0} txn/s");

    println!("component\tthreads\tops_per_sec\tx_of_rw_max");
    for threads in [1usize, 2, 4, 8] {
        // (1) Update locator.
        let loc = Arc::new(RidLocator::new(64 * 1024));
        let done = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut hs = Vec::new();
        for w in 0..threads as u64 {
            let (loc, done, stop) = (loc.clone(), done.clone(), stop.clone());
            hs.push(std::thread::spawn(move || {
                let mut pk = w as i64 * 1_000_000_000;
                while !stop.load(Ordering::Relaxed) {
                    loc.insert(pk, Rid(pk as u64));
                    pk += 1;
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::SeqCst);
        for h in hs {
            let _ = h.join();
        }
        let v = per_second(done.load(Ordering::SeqCst), window);
        println!("update_locator\t{threads}\t{v:.0}\t{:.1}", v / rw_tput);

        // (2) Update data packs (insert path of the column index).
        let idx = ColumnIndex::for_schema(&schema(), 64 * 1024);
        let done = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut hs = Vec::new();
        for w in 0..threads as u64 {
            let (idx, done, stop) = (idx.clone(), done.clone(), stop.clone());
            hs.push(std::thread::spawn(move || {
                let mut pk = w as i64 * 1_000_000_000;
                while !stop.load(Ordering::Relaxed) {
                    let _ = idx.insert(Vid(1), &[Value::Int(pk), Value::Int(0)]);
                    pk += 1;
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::SeqCst);
        for h in hs {
            let _ = h.join();
        }
        let v = per_second(done.load(Ordering::SeqCst), window);
        println!("update_data_packs\t{threads}\t{v:.0}\t{:.1}", v / rw_tput);
    }

    // (3) Replay on row store (phase 1, page apply) — measured via a
    // replica applying a pre-generated log.
    let fs2 = PolarFs::instant();
    let log2 = LogWriter::new(fs2.clone(), PropagationMode::ReuseRedo);
    let rw2 = RowEngine::new_rw(fs2.clone(), log2, 1 << 20);
    rw2.create_table("t", schema().columns.clone(), schema().indexes.clone())
        .unwrap();
    let mut txn = rw2.begin();
    let n_entries = env_usize("REPLAY_ENTRIES", 100_000);
    for pk in 0..n_entries as i64 {
        rw2.insert(&mut txn, "t", vec![Value::Int(pk), Value::Int(pk)])
            .unwrap();
    }
    rw2.commit(txn).unwrap();
    // No catalog refresh: the CREATE TABLE's DDL record is in the log
    // and registers the table during replay.
    let ro = RowEngine::new_replica(fs2.clone(), 1 << 20);
    let mut frames = Vec::new();
    imci_wal::LogReader::new(fs2.clone(), 0)
        .read_frames_until(u64::MAX, &mut frames)
        .unwrap();
    let t = Instant::now();
    let mut applied = 0u64;
    for (e, _) in &frames {
        if rowstore::apply_entry(&ro, e).unwrap().is_some() {
            applied += 1;
        }
    }
    let v = per_second(applied, t.elapsed());
    println!("replay_on_row_store\t1\t{v:.0}\t{:.1}", v / rw_tput);

    // (4) Physical log parse throughput (decode only).
    let raw = fs2.read_log(imci_wal::REDO_LOG_NAME, 0, usize::MAX / 2);
    let t = Instant::now();
    let mut pos = 0usize;
    let mut parsed = 0u64;
    while let Some((_e, used)) = RedoEntry::decode(&raw[pos..]).unwrap() {
        pos += used;
        parsed += 1;
    }
    let v = per_second(parsed, t.elapsed());
    println!("log_parse\t1\t{v:.0}\t{:.1}", v / rw_tput);

    // (5) Batch-commit throughput (watermark advancement).
    let idx = ColumnIndex::for_schema(&schema(), 64 * 1024);
    let t = Instant::now();
    for i in 0..1_000_000u64 {
        idx.advance_visible(Vid(i));
    }
    let v = per_second(1_000_000, t.elapsed());
    println!("commit\t1\t{v:.0}\t{:.1}", v / rw_tput);
}
