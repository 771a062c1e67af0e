//! Microbenchmark 1 (§7.3) — Pyxis runtime overhead on a non-distributed
//! program.
//!
//! All fields and statements placed on one host, zero control transfers:
//! the measured slowdown is purely execution-block bookkeeping (managed
//! stack + split heap + block dispatch). The paper reports ~6× versus
//! native Java; we report the wall-clock ratio of the block VM to (a) the
//! direct NIR interpreter and (b) native Rust, plus the virtual-cost
//! ratio the simulator charges.

use pyx_db::Engine;
use pyx_lang::Value;
use pyx_profile::{Interp, NullTracer};
use pyx_runtime::cost;
use pyx_runtime::session::{run_to_completion, Session};
use pyx_runtime::ArgVal;
use pyx_workloads::micro;
use std::time::Instant;

const N: i64 = 30_000;
const REPS: usize = 5;

fn main() {
    let (pyxis, entry) = micro::micro1_setup();
    let jdbc = pyxis.deploy_jdbc(); // everything on one host

    // Expected answer.
    let expect = micro::micro1_native(N);

    // Native Rust.
    let t0 = Instant::now();
    let mut acc = 0i64;
    for _ in 0..REPS {
        acc = acc.wrapping_add(micro::micro1_native(N));
    }
    let native = t0.elapsed().as_secs_f64() / REPS as f64;
    assert_eq!(acc, expect.wrapping_mul(REPS as i64));

    // Direct NIR interpreter.
    let t0 = Instant::now();
    for _ in 0..REPS {
        let mut db = Engine::new();
        let mut it = Interp::new(&pyxis.prog, &mut db, NullTracer);
        let r = it.call_entry(entry, vec![Value::Int(N)]).unwrap().unwrap();
        assert_eq!(r, Value::Int(expect));
    }
    let interp = t0.elapsed().as_secs_f64() / REPS as f64;

    // Pyxis block VM (single host, no transfers).
    let t0 = Instant::now();
    let mut transfers = 0;
    for _ in 0..REPS {
        let mut db = Engine::new();
        let mut sess = Session::new(&jdbc, entry, &[ArgVal::Int(N)], &mut db).unwrap();
        run_to_completion(&mut sess, &mut db, 100_000_000).unwrap();
        assert_eq!(sess.result, Some(Value::Int(expect)));
        transfers = sess.stats.control_transfers;
    }
    let vm = t0.elapsed().as_secs_f64() / REPS as f64;

    println!("# Micro 1: linked list of {N} nodes, single-host placements");
    println!("# engine\tseconds\tvs_native\tvs_interp");
    println!("native-rust\t{native:.4}\t1.00\t-");
    println!("interpreter\t{interp:.4}\t{:.2}\t1.00", interp / native);
    println!("pyxis-vm\t{vm:.4}\t{:.2}\t{:.2}", vm / native, vm / interp);
    println!("# control transfers during VM run: {transfers} (must be 0)");
    println!(
        "# simulator's modelled overhead: instr/native_stmt = {:.1}x (paper: ~6x)",
        cost::INSTR as f64 / cost::NATIVE_STMT as f64
    );
    assert_eq!(transfers, 0, "single-host placement must not transfer");
}
