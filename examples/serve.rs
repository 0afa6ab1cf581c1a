//! The resilient kernel service: compile once, serve forever.
//!
//! A long-lived [`KernelService`] caches compiled kernels by *structure*
//! (program text + input formats/sizes + output formats).  Requests with
//! fresh data but the same structure skip compilation: the cached kernel's
//! input buffers are overwritten in place and its persistent VM re-runs
//! without allocating.  The service survives faults by design — panicking
//! kernels are quarantined and recompiled, and a kernel that faults again
//! falls back to the tree-walk oracle, which returns bit-identical results;
//! deadlines and budgets surface as typed errors.
//!
//! ```bash
//! cargo run --release --example serve
//! ```

use std::time::Duration;

use looplets_repro::finch::build::*;
use looplets_repro::finch::{
    FaultKind, FaultPlan, FaultRule, InjectPoint, KernelService, Request, ServiceConfig,
    ServiceError, ServiceState, Tensor, Tier,
};

fn dot_request(a: &Tensor, b: &Tensor) -> Request {
    let i = idx("i");
    let program =
        forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
    Request::new(program).input(a).input(b).output_scalar("C")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let svc = KernelService::new(ServiceConfig {
        capacity: 16,
        deadline: Some(Duration::from_millis(100)),
        ..ServiceConfig::default()
    });

    // 1. First request compiles; structurally identical follow-ups hit the
    //    cache and only rebind data.
    let n = 512;
    let mk = |scale: f64| {
        let av: Vec<f64> =
            (0..n).map(|k| if k % 5 == 0 { scale * k as f64 } else { 0.0 }).collect();
        let bv: Vec<f64> = (0..n).map(|k| 1.0 / (1.0 + k as f64)).collect();
        (Tensor::sparse_list_vector("A", &av), Tensor::dense_vector("B", &bv))
    };
    let (a, b) = mk(1.0);
    let first = svc.submit(&dot_request(&a, &b))?;
    println!(
        "first request:  compiled (cache hit: {}), C = {:.4}",
        first.cache_hit,
        first.scalar.unwrap()
    );
    for scale in [2.0, 3.0] {
        let (a, b) = mk(scale);
        let resp = svc.submit(&dot_request(&a, &b))?;
        println!(
            "scale {scale}:        cache hit: {}, tier {}, C = {:.4}",
            resp.cache_hit,
            resp.tier.label(),
            resp.scalar.unwrap()
        );
    }

    // 2. Fault injection: two stacked panics force the fast tier AND its
    //    quarantine-recompile retry to fail, so the oracle serves the
    //    request — with a bit-identical result.
    let baseline = svc.submit(&dot_request(&a, &b))?.scalar.unwrap();
    // The service catches the injected panics; silence the default hook's
    // backtraces so the demo output stays readable.
    std::panic::set_hook(Box::new(|_| {}));
    let mut plan = FaultPlan::new();
    // Fault rules name a request by its id, and ids are handed out to
    // *admitted* requests in admission order.  `stats().requests` also counts
    // submissions that were rejected before admission (invalid input,
    // overload, shutdown); none were here, so it is the next id.
    let next_rid = svc.stats().requests;
    for point in [InjectPoint::MidRun, InjectPoint::PreRun] {
        plan.push(FaultRule { request: next_rid, point, kind: FaultKind::Panic });
    }
    svc.install_faults(plan);
    let degraded = svc.submit(&dot_request(&a, &b))?;
    println!(
        "under 2 panics: served by tier {} (degraded: {}), bit-identical: {}",
        degraded.tier.label(),
        degraded.tier != Tier::Fast,
        degraded.scalar.unwrap().to_bits() == baseline.to_bits(),
    );
    assert_eq!(degraded.scalar.unwrap().to_bits(), baseline.to_bits());
    // Falling back condemned the entry: the next request compiles it anew.
    assert!(!svc.submit(&dot_request(&a, &b))?.cache_hit);

    // 3. Health, drain, resume: `drain` stops admitting (new work gets a
    //    typed `ShuttingDown`), lets in-flight requests finish up to its
    //    deadline, and leaves the service `Stopped`; `resume` reopens it with
    //    the kernel cache intact.
    let h = svc.health();
    println!(
        "health:         {:?}, {} queued / {} in flight, {} cached kernels, \
         breakers {}c/{}o/{}h",
        h.state,
        h.queued,
        h.in_flight,
        h.cached,
        h.breakers_closed,
        h.breakers_open,
        h.breakers_half_open,
    );
    let report = svc.drain(Duration::from_millis(250));
    let refused = svc.submit(&dot_request(&a, &b));
    println!(
        "drained:        in {:?} (cancelled: {}), state {:?}, new work: {}",
        report.waited,
        report.cancelled,
        report.state,
        match refused {
            Err(ServiceError::ShuttingDown { state }) => format!("ShuttingDown({state:?})"),
            other => format!("{other:?}"),
        },
    );
    svc.resume();
    let back = svc.submit(&dot_request(&a, &b))?;
    assert_eq!(svc.health().state, ServiceState::Running);
    println!("resumed:        cache hit: {} (warm cache survives a drain)", back.cache_hit);

    let stats = svc.stats();
    println!(
        "service stats:  {} requests, {} hits / {} misses, {} compiles, \
         {} panics caught, {} quarantined, served by tier {:?}",
        stats.requests,
        stats.hits,
        stats.misses,
        stats.compiles,
        stats.panics,
        stats.quarantined,
        stats.served_by_tier,
    );
    Ok(())
}
