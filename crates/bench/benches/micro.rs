//! Micro-benchmarks of the performance-critical substrates, run on the
//! dependency-free `dclue_bench::Bench` wall-clock harness.

use dclue_bench::Bench;
use dclue_db::btree::BTree;
use dclue_db::{BufferCache, LockMode, LockTable, PageKey, Table};
use dclue_sim::{Duration, EventHeap, SimRng, SimTime};

fn bench_event_heap(c: &Bench) {
    c.bench_function("event_heap_push_pop_10k", || {
        let mut h = EventHeap::new();
        for i in 0..10_000u64 {
            h.push(SimTime(i * 7919 % 100_000), i);
        }
        while h.pop().is_some() {}
    });
    // The hot DES pattern: pops interleaved with same-time pushes
    // (zero-delay cascades hit the immediate bucket, short timers the
    // heap). This is the shape `World::run` drives all day.
    c.bench_function("event_heap_immediate_churn_10k", || {
        let mut h = EventHeap::with_capacity(64);
        for i in 0..64u64 {
            h.push(SimTime(i), i);
        }
        for _ in 0..10_000 {
            let (t, v) = h.pop().unwrap();
            h.push(t, v); // same-time cascade -> immediate bucket
            h.push_after(Duration::from_micros(3), v);
            h.pop();
        }
        while h.pop().is_some() {}
    });
    // fig2's shape: ~4000 client think events parked seconds ahead while
    // ~60 near events churn 1 µs to 2 ms out. The queue persists across
    // batches, so the backlog stays in steady state: a far event that
    // comes due is pushed seconds ahead again.
    c.bench_function("event_heap/far_backlog", {
        let mut rng = SimRng::new(0xFA2);
        let mut h = EventHeap::with_capacity(4096);
        for _ in 0..4000 {
            h.push(SimTime(rng.uniform(1_000_000_000, 10_000_000_000)), true);
        }
        for _ in 0..60 {
            h.push(SimTime(rng.uniform(0, 2_000_000)), false);
        }
        move || {
            for _ in 0..10_000 {
                let (_, far) = h.pop().unwrap();
                let delay = if far {
                    rng.uniform(1_000_000_000, 10_000_000_000)
                } else {
                    rng.uniform(1_000, 2_000_000)
                };
                h.push_after(Duration::from_nanos(delay), far);
            }
        }
    });
}

fn bench_btree(c: &Bench) {
    c.bench_function("btree_insert_10k", || {
        let mut t = BTree::new();
        let mut tr = Vec::new();
        for i in 0..10_000u64 {
            t.insert(i * 2654435761 % 1_000_000, i, &mut tr);
            tr.clear();
        }
    });
    // The database build's load pattern: keys in ascending order, once
    // through the traced per-key insert and once through the append
    // path. Both build the same tree.
    c.bench_function("btree/insert_ascending_1m", || {
        let mut t = BTree::new();
        let mut tr = Vec::new();
        for i in 0..1_000_000u64 {
            t.insert(i, i, &mut tr);
            tr.clear();
        }
        std::hint::black_box(t);
    });
    c.bench_function("btree/append_ascending_1m", || {
        let mut t = BTree::new();
        for i in 0..1_000_000u64 {
            t.push_max(i, i);
        }
        std::hint::black_box(t);
    });
    let mut t = BTree::new();
    let mut tr = Vec::new();
    for i in 0..100_000u64 {
        t.insert(i, i, &mut tr);
        tr.clear();
    }
    let mut k = 0u64;
    c.bench_function("btree_get_traced", || {
        tr.clear();
        k = (k + 7919) % 100_000;
        t.get(k, &mut tr);
    });
}

fn bench_buffer(c: &Bench) {
    let mut buf = BufferCache::new(1000);
    let mut p = 0u64;
    c.bench_function("buffer_access_install_churn", || {
        p = (p + 127) % 3000;
        let k = PageKey::data(Table::Stock, p);
        if !buf.access(k, p % 5 == 0) {
            buf.install(k, false);
        }
    });
}

fn bench_locks(c: &Bench) {
    let mut lt = LockTable::new();
    let mut i = 0u64;
    c.bench_function("lock_acquire_release", || {
        i += 1;
        let res = dclue_db::lock::ResourceId {
            table: 1,
            page: i % 64,
            sub: (i % 8) as u32,
        };
        lt.try_lock(i, res, LockMode::Exclusive, true);
        lt.release_all(i);
    });
}

fn bench_mvcc(c: &Bench) {
    use dclue_db::mvcc::VersionStore;
    let mut store = VersionStore::new(64 << 20);
    let mut ts = 0u64;
    c.bench_function("mvcc_write_read_prune", || {
        ts += 1;
        store.write(0, ts % 512, 95, ts);
        store.read(0, (ts * 7) % 512, ts.saturating_sub(3));
        if ts % 1024 == 0 {
            store.prune(ts - 512);
        }
    });
}

fn bench_tpcc_programs(c: &Bench) {
    use dclue_db::tpcc::{TxnInput, TxnKind, TxnProgram};
    use dclue_db::{Database, TpccScale};
    let mut db = Database::build(TpccScale::scaled(8));
    let mut w = 0u32;
    c.bench_function("tpcc_new_order_plan_apply", || {
        w = w % 8 + 1;
        let mut input = TxnInput::simple(TxnKind::NewOrder, w, 1 + w % 10, 1 + w % 100);
        input.lines = (0..10)
            .map(|k| dclue_db::tpcc::LineInput {
                item: 1 + (k * 97 + w) % 1000,
                supply_w: w,
                qty: 5,
            })
            .collect();
        let mut prog = TxnProgram::new(input);
        let ts = db.current_ts();
        while prog.plan_next(&db).is_some() {
            prog.apply_current(&mut db, ts);
        }
    });
    let mut w = 0u32;
    c.bench_function("tpcc_payment_plan_apply", || {
        w = w % 8 + 1;
        let mut prog = TxnProgram::new(TxnInput::simple(
            TxnKind::Payment,
            w,
            1 + w % 10,
            1 + w % 100,
        ));
        let ts = db.current_ts();
        while prog.plan_next(&db).is_some() {
            prog.apply_current(&mut db, ts);
        }
    });
}

fn bench_workload_gen(c: &Bench) {
    use dclue_sim::SimRng;
    use dclue_workload::TpccGenerator;
    let mut g = TpccGenerator::new(dclue_db::TpccScale::scaled(40), SimRng::new(1));
    c.bench_function("workload_business_txn", || {
        g.business_txn(3);
    });
}

fn bench_database_build(c: &Bench) {
    use dclue_db::{Database, TpccScale};
    c.bench_function("db_build/build_40_warehouses", || {
        Database::build(TpccScale::scaled(40));
    });
}

fn main() {
    let c = Bench::from_args();
    bench_event_heap(&c);
    bench_btree(&c);
    bench_buffer(&c);
    bench_locks(&c);
    bench_mvcc(&c);
    bench_tpcc_programs(&c);
    bench_workload_gen(&c);
    bench_database_build(&c);
}
