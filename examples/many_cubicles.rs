//! More compartments than MPK keys (paper §8's tag virtualisation).
//!
//! The monitor binds keys 1–14 (key 0 is its own, key 15 the parked
//! key). An isolated cubicle that finds no free key loads parked and
//! binds on entry, evicting the binding of the cubicle entered least
//! recently; the evicted cubicle's pages are parked and trap-and-map
//! faults them back in when someone authorised touches them again.
//!
//! Run with: `cargo run --example many_cubicles`

use cubicleos::kernel::{
    impl_component, ComponentImage, IsolationMode, System, SystemConfig, PARKED_KEY,
};
use cubicleos::mpk::insn::CodeImage;
use cubicleos::mpk::CoreScheduler;

struct Worker;
impl_component!(Worker);

fn main() {
    // Four simulated cores: boot runs on core 0, the others come up at
    // the first core switch of the multi-core leg below.
    const CORES: usize = 4;
    let mut sys = System::new(SystemConfig {
        cores: CORES,
        ..IsolationMode::Full.into()
    });
    let workers: Vec<_> = (0..40)
        .map(|i| {
            sys.load(
                ComponentImage::new(format!("W{i}"), CodeImage::plain(256)),
                Box::new(Worker),
            )
            .unwrap()
            .cid
        })
        .collect();
    let parked = workers
        .iter()
        .filter(|&&c| sys.cubicle(c).key == PARKED_KEY)
        .count();
    println!(
        "loaded {} isolated cubicles: {} hold a key, {parked} start parked",
        workers.len(),
        workers.len() - parked
    );
    assert_eq!(parked, workers.len() - 14, "14 keys bind");

    // every worker owns private state and cycles through the key pool
    let mut secrets = Vec::new();
    for (i, &cid) in workers.iter().enumerate() {
        let addr = sys.run_in_cubicle(cid, |sys| {
            let p = sys.heap_alloc(64, 8).unwrap();
            sys.write(p, format!("secret of worker {i}").as_bytes())
                .unwrap();
            p
        });
        secrets.push(addr);
    }
    // second pass: everyone still reads their own data (rebinding) and
    // no one can read a neighbour's
    let mut denied = 0;
    for (i, &cid) in workers.iter().enumerate() {
        let own = sys.run_in_cubicle(cid, |sys| sys.read_vec(secrets[i], 8).unwrap());
        assert_eq!(&own, b"secret o");
        let neighbour = secrets[(i + 1) % secrets.len()];
        if sys
            .run_in_cubicle(cid, |sys| sys.read_vec(neighbour, 8))
            .is_err()
        {
            denied += 1;
        }
    }
    println!("all 40 workers read their own state after key churn ✓");
    println!("{denied}/40 cross-worker snoops denied ✓");
    println!(
        "key-binding evictions performed: {} (each retagged the evicted key's pages)",
        sys.key_evictions()
    );
    println!(
        "machine retags (pkey_mprotect calls): {}",
        sys.machine_stats().retags
    );

    // ---- calls from multiple cores: pooled stacks ----------------------
    // Four simulated cores take turns entering the SAME worker cubicle.
    // Each core's clock advances privately, so in simulated time the
    // entries overlap and the monitor hands every overlapping call frame
    // its own pooled stack (the primary stack's busy window covers the
    // other cores' entry times).
    let hot = workers[0];
    let mut sched = CoreScheduler::new(42, CORES);
    for _ in 0..32 {
        let clocks: Vec<u64> = (0..CORES).map(|i| sys.core_cycles(i)).collect();
        let core = sched.next_core(&clocks, &[true; CORES]).unwrap();
        sys.switch_to_core(core);
        let own = sys
            .run_in_cubicle(hot, |sys| sys.read_vec(secrets[0], 8))
            .unwrap();
        assert_eq!(&own, b"secret o");
    }
    let pool = sys.cubicle(hot).stack_pool.len();
    println!(
        "{CORES} cores entered {} concurrently: stack pool grew to {pool} \
         pooled stack(s), {} core switches ✓",
        sys.cubicle(hot).name,
        sched.switches()
    );
    assert!(
        pool > 1,
        "overlapping entries from {CORES} cores must grow the stack pool"
    );
    sys.audit().assert_clean("many_cubicles multi-core leg");
    println!("kernel audit (incl. concurrency/lock discipline): clean ✓");
}
