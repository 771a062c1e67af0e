//! Criterion bench for microbenchmark 1 (§7.3): wall-clock cost of the
//! Pyxis execution-block VM versus the direct NIR interpreter versus
//! native Rust on the linked-list program, single-host placement.
//!
//! `pyxis_vm_bytecode` runs the partition's register bytecode
//! (pre-resolved flat ops, slab frames, bitmask dirty tracking, per-block
//! CPU batching), recycling its frame slab across iterations as the
//! dispatcher does across transactions.

use criterion::{criterion_group, criterion_main, Criterion};
use pyx_db::Engine;
use pyx_lang::Value;
use pyx_profile::{Interp, NullTracer};
use pyx_runtime::session::{run_to_completion, Session, VmScratch};
use pyx_runtime::ArgVal;
use pyx_workloads::micro;
use std::hint::black_box;

const N: i64 = 2_000;

fn bench_vm_overhead(c: &mut Criterion) {
    let (pyxis, entry) = micro::micro1_setup();
    let jdbc = pyxis.deploy_jdbc();
    let expect = micro::micro1_native(N);

    let mut g = c.benchmark_group("micro1");
    g.bench_function("native_rust", |b| {
        b.iter(|| black_box(micro::micro1_native(black_box(N))))
    });
    g.bench_function("interpreter", |b| {
        b.iter(|| {
            let mut db = Engine::new();
            let mut it = Interp::new(&pyxis.prog, &mut db, NullTracer);
            let r = it.call_entry(entry, vec![Value::Int(N)]).unwrap().unwrap();
            assert_eq!(r, Value::Int(expect));
        })
    });
    g.bench_function("pyxis_vm_bytecode", |b| {
        let mut scratch = VmScratch::default();
        b.iter(|| {
            let mut db = Engine::new();
            let sites = Session::prepare_sites(&jdbc.bp, &mut db);
            let mut sess = Session::with_prepared(
                &jdbc,
                entry,
                &[ArgVal::Int(N)],
                sites,
                std::mem::take(&mut scratch),
            )
            .unwrap();
            run_to_completion(&mut sess, &mut db, 10_000_000).unwrap();
            assert_eq!(sess.result, Some(Value::Int(expect)));
            scratch = sess.take_scratch();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_vm_overhead);
criterion_main!(benches);
