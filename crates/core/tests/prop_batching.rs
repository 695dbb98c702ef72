//! Property: a batched cross-call dispatch is observationally equivalent
//! to the same invocations issued one by one — identical return values,
//! and on an injected fault the identical contained errno at the same
//! position (the batch terminates writev-style with that errno as its
//! final element). `System::audit()` stays clean after every step of
//! both executions; only the *cost* differs (the batch amortises one
//! crossing over N elements). The unbatched reference is N `cross_call`s,
//! each a one-element dispatch through the same path, which must not
//! count as batches.

use cubicle_core::{
    impl_component, Builder, ComponentImage, CubicleError, CubicleId, IsolationMode, System,
    SystemConfig, Value,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::rng::Rng64;
use cubicle_mpk::VAddr;

struct Dummy;
impl_component!(Dummy);

/// An address far above anything the monitor ever maps.
const WILD: VAddr = VAddr::new(0x0FFF_0000);

const MAX_ELEMS: usize = 12;

fn boot() -> (System, CubicleId, CubicleId) {
    let b = Builder::new();
    let mut sys = System::new(SystemConfig {
        fault_containment: true,
        ..IsolationMode::Full.into()
    });
    let a = sys
        .load(
            ComponentImage::new("A", CodeImage::plain(256)).heap_pages(MAX_ELEMS + 2),
            Box::new(Dummy),
        )
        .unwrap();
    let bee = sys
        .load(
            ComponentImage::new("B", CodeImage::plain(256)).export(
                b.export("long b_op(const void *buf, size_t n, uint64_t fault)")
                    .unwrap(),
                |sys, _this, args| {
                    if args[1].as_u64() != 0 {
                        sys.read_vec(WILD, 8)?; // injected wild access
                    }
                    let (addr, len) = args[0].as_buf();
                    let v = sys.read_vec(addr, len)?;
                    Ok(Value::I64(i64::from(v[0]) * 3 + len as i64))
                },
            ),
            Box::new(Dummy),
        )
        .unwrap();
    (sys, a.cid, bee.cid)
}

/// One generated workload: per-element payload bytes plus at most one
/// injected-fault position.
struct Plan {
    payload: Vec<u8>,
    fault_at: Option<usize>,
}

fn plan(rng: &mut Rng64) -> Plan {
    let n = rng.range_usize(1, MAX_ELEMS + 1);
    let payload = (0..n).map(|_| rng.next_u32() as u8).collect();
    let fault_at = if rng.range_usize(0, 3) == 0 {
        Some(rng.range_usize(0, n))
    } else {
        None
    };
    Plan { payload, fault_at }
}

/// Allocates one page per element under a single window opened to B.
fn stage(sys: &mut System, a: CubicleId, b: CubicleId, plan: &Plan) -> Vec<VAddr> {
    sys.run_in_cubicle(a, |sys| {
        let wid = sys.window_init();
        let bufs: Vec<VAddr> = plan
            .payload
            .iter()
            .map(|&v| {
                let buf = sys.heap_alloc(4096, 4096).unwrap();
                sys.write(buf, &[v]).unwrap();
                sys.window_add(wid, buf, 4096).unwrap();
                buf
            })
            .collect();
        sys.window_open(wid, b).unwrap();
        bufs
    })
}

fn fault_flag(plan: &Plan, i: usize) -> u64 {
    u64::from(plan.fault_at == Some(i))
}

/// The unbatched reference execution: values collected until the first
/// contained errno (inclusive), mirroring the batch's short count.
fn run_unbatched(plan: &Plan) -> (Vec<i64>, System) {
    let (mut sys, a, b) = boot();
    let entry = sys.entry("b_op").unwrap();
    let bufs = stage(&mut sys, a, b, plan);
    let mut out = Vec::new();
    for (i, &buf) in bufs.iter().enumerate() {
        let r = sys.run_in_cubicle(a, |sys| {
            sys.cross_call(
                entry,
                &[Value::buf_in(buf, 64), Value::U64(fault_flag(plan, i))],
            )
        });
        sys.audit().assert_clean("unbatched step");
        match r {
            Ok(v) => {
                let v = v.as_i64();
                out.push(v);
                if v < 0 {
                    break; // contained errno terminates the sequence
                }
            }
            Err(CubicleError::Quarantined { .. }) => break,
            Err(e) => panic!("unexpected kernel error: {e:?}"),
        }
    }
    (out, sys)
}

fn run_batched(plan: &Plan) -> (Vec<i64>, System) {
    let (mut sys, a, b) = boot();
    let entry = sys.entry("b_op").unwrap();
    let bufs = stage(&mut sys, a, b, plan);
    let elems: Vec<[Value; 2]> = bufs
        .iter()
        .enumerate()
        .map(|(i, &buf)| [Value::buf_in(buf, 64), Value::U64(fault_flag(plan, i))])
        .collect();
    let refs: Vec<&[Value]> = elems.iter().map(|e| e.as_slice()).collect();
    let rs = sys
        .run_in_cubicle(a, |sys| sys.cross_call_batch(entry, &refs))
        .unwrap();
    sys.audit().assert_clean("batched step");
    (rs.iter().map(Value::as_i64).collect(), sys)
}

#[test]
fn batched_equals_unbatched_over_seeded_workloads() {
    let mut rng = Rng64::new(0xBA7C_4ED0);
    for round in 0..24 {
        let plan = plan(&mut rng);
        let (want, ref_sys) = run_unbatched(&plan);
        let (got, bat_sys) = run_batched(&plan);
        assert_eq!(
            got, want,
            "round {round}: payload {:?} fault {:?}",
            plan.payload, plan.fault_at
        );
        // Fault attribution matches: both executions agree on whether B
        // was quarantined and on the containment counters.
        assert_eq!(
            bat_sys.stats().contained_faults,
            ref_sys.stats().contained_faults,
            "round {round}: containment must not depend on batching"
        );
        if let Some(k) = plan.fault_at {
            assert_eq!(got.len(), k + 1, "short count ends at the fault");
            assert!(got[k] < 0, "the terminal element is the errno");
        } else {
            assert_eq!(got.len(), plan.payload.len());
        }
        // A plain cross_call is a one-element dispatch, not a batch.
        assert_eq!(ref_sys.stats().batch_dispatches, 0);
        // The batch is one edge crossing regardless of element count.
        assert_eq!(bat_sys.stats().batch_dispatches, 1);
        assert_eq!(
            bat_sys.stats().batched_calls,
            plan.payload.len() as u64,
            "every element is accounted to the batch"
        );
    }
}

#[test]
fn one_element_batch_costs_exactly_one_cross_call() {
    let plan = Plan {
        payload: vec![42],
        fault_at: None,
    };
    // Simulated cycles must be identical: the batch protocol adds
    // nothing over `cross_call` for a single element.
    let (mut sys_u, a, _b) = boot();
    let entry = sys_u.entry("b_op").unwrap();
    let bufs = stage(&mut sys_u, a, _b, &plan);
    let c0 = sys_u.now();
    sys_u
        .run_in_cubicle(a, |sys| {
            sys.cross_call(entry, &[Value::buf_in(bufs[0], 64), Value::U64(0)])
        })
        .unwrap();
    let unbatched_cycles = sys_u.now() - c0;

    let (mut sys_b, a, _b) = boot();
    let entry = sys_b.entry("b_op").unwrap();
    let bufs = stage(&mut sys_b, a, _b, &plan);
    let c0 = sys_b.now();
    sys_b
        .run_in_cubicle(a, |sys| {
            sys.cross_call_batch(entry, &[&[Value::buf_in(bufs[0], 64), Value::U64(0)]])
        })
        .unwrap();
    let batched_cycles = sys_b.now() - c0;

    assert_eq!(batched_cycles, unbatched_cycles);
}
