//! Resilience regression tests: aborted executions must leave the
//! persistent VM reusable (the next rerun is bit-identical to a fresh
//! compile), and the kernel service must stay correct under concurrency
//! and injected faults.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use looplets_repro::finch::build::*;
use looplets_repro::finch::{
    CompiledKernel, DrainReport, Engine, ExecConfig, FaultKind, FaultPlan, FaultRule,
    HealthSnapshot, InjectPoint, Kernel, KernelService, LevelSpec, Request, RuntimeError,
    ServiceConfig, ServiceError, ServiceState, Tensor, Tier, Watch,
};

/// A kernel with a sparse (assembled) output: the abort paths must leave
/// its `pos`/`idx`/`val` buffers mid-append, the worst case for reuse.
fn sparse_mul_kernel(av: &[f64], bv: &[f64]) -> CompiledKernel {
    let a = Tensor::sparse_list_vector("A", av);
    let b = Tensor::sparse_list_vector("B", bv);
    let mut kernel = Kernel::new();
    kernel
        .bind_input(&a)
        .bind_input(&b)
        .bind_output_format("C", &[LevelSpec::SparseList { size: av.len() }]);
    let i = idx("i");
    let program = forall(
        i.clone(),
        assign(access("C", [i.clone()]), mul(access("A", [i.clone()]), access("B", [i]))),
    );
    kernel.compile(&program).expect("sparse mul compiles")
}

fn test_data(n: usize) -> (Vec<f64>, Vec<f64>) {
    let av: Vec<f64> = (0..n).map(|k| if k % 3 != 1 { k as f64 + 0.5 } else { 0.0 }).collect();
    let bv: Vec<f64> = (0..n).map(|k| if k % 2 == 0 { 2.0 - k as f64 } else { 0.0 }).collect();
    (av, bv)
}

/// The rerun-after-abort contract, shared by the abort-path tests: after
/// `abort` has driven the kernel into a mid-execution typed error, clearing
/// the limit and re-running must reproduce a fresh compile bit-for-bit.
fn assert_reusable_after(
    engine: Engine,
    abort: impl FnOnce(&mut CompiledKernel) -> RuntimeError,
    what: &str,
) {
    let (av, bv) = test_data(24);
    let fresh = sparse_mul_kernel(&av, &bv);
    let unlimited = ExecConfig { engine, ..fresh.config() };
    let mut k = fresh.reconfigured(&unlimited).expect("a run-side change");
    let err = abort(&mut k);
    match err {
        RuntimeError::StepBudgetExceeded { .. }
        | RuntimeError::Deadline { .. }
        | RuntimeError::AllocBudgetExceeded { .. } => {}
        other => panic!("{what}: expected a resource abort, got {other}"),
    }

    // Clear every limit and rerun on the VM and buffers as the abort left
    // them.
    k.set_watch(None);
    let mut k = k.reconfigured(&unlimited).expect("a run-side change");
    let stats = k.run().unwrap_or_else(|e| panic!("{what}: rerun after abort failed: {e}"));
    let rerun = k.output_tensor("C").expect("rerun output");

    // A fresh compile of the same kernel is the reference.
    let mut fresh = fresh.reconfigured(&unlimited).expect("a run-side change");
    let fresh_stats = fresh.run().expect("fresh run");
    let reference = fresh.output_tensor("C").expect("fresh output");

    assert_eq!(stats, fresh_stats, "{what}: work counters diverge after abort");
    assert_eq!(
        format!("{rerun:?}"),
        format!("{reference:?}"),
        "{what}: assembled sparse output diverges after abort"
    );
    let rerun_bits: Vec<u64> = rerun.values().iter().map(|v| v.to_bits()).collect();
    let fresh_bits: Vec<u64> = reference.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(rerun_bits, fresh_bits, "{what}: value bits diverge after abort");
}

/// `k` under a budget: a run-side change, so the same compiled image.
fn limited(k: &CompiledKernel, config: ExecConfig) -> CompiledKernel {
    k.reconfigured(&config).expect("a run-side change")
}

#[test]
fn budget_abort_mid_sparse_append_leaves_vm_reusable() {
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_reusable_after(
            engine,
            |k| {
                *k = limited(k, ExecConfig { step_budget: Some(7), ..k.config() });
                k.run().expect_err("budget must trip")
            },
            &format!("step budget ({engine:?})"),
        );
    }
}

#[test]
fn cancellation_mid_sparse_append_leaves_vm_reusable() {
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_reusable_after(
            engine,
            |k| {
                // A pre-raised cancel flag aborts on the first statement.
                k.set_watch(Some(Watch::cancelled_by(Arc::new(AtomicBool::new(true)), 7)));
                k.run().expect_err("cancellation must trip")
            },
            &format!("cancellation ({engine:?})"),
        );
    }
}

#[test]
fn alloc_budget_abort_mid_sparse_append_leaves_vm_reusable() {
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_reusable_after(
            engine,
            |k| {
                *k = limited(k, ExecConfig { alloc_budget: Some(2), ..k.config() });
                k.run().expect_err("allocation budget must trip")
            },
            &format!("alloc budget ({engine:?})"),
        );
    }
}

/// A deadline that has passed trips every run of at least
/// `Watch::TIME_CHECK_PERIOD` statements, on both engines, also where a
/// vectorized kernel op counts most of them at once: the clock is read at
/// the first statement accounted past each multiple of the period, not only
/// at the multiple itself, which the op's bulk steps over.
#[test]
fn a_passed_deadline_trips_across_a_vectorized_loop() {
    for (n, trips) in [(1_000, false), (5_000, true), (100_000, true)] {
        let a = Tensor::dense_vector("A", &vec![0.5; n]);
        let b = Tensor::dense_vector("B", &vec![2.0; n]);
        let mut kernel = Kernel::new();
        kernel.bind_input(&a).bind_input(&b).bind_output_scalar("C");
        let i = idx("i");
        let body = add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i.clone()])));
        let dot = kernel.compile(&forall(i, body)).expect("the dense dot compiles");
        let disasm = dot.bytecode().disasm();
        assert!(disasm.contains("vmuladd.f64"), "the loop is vectorized\n{disasm}");
        for engine in [Engine::TreeWalk, Engine::Bytecode] {
            let mut k = dot
                .reconfigured(&ExecConfig { engine, ..dot.config() })
                .expect("a run-side change");
            k.set_watch(Some(Watch::until(Instant::now(), 5)));
            let ran = k.run();
            match ran {
                Err(RuntimeError::Deadline { ms: 5 }) if trips => {}
                Ok(stats) if !trips => assert_eq!(stats.stmts, n as u64 + 2, "{engine:?}"),
                other => panic!("n = {n} on {engine:?}: {other:?}"),
            }
        }
    }
}

#[test]
fn kernel_service_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KernelService>();
    assert_send_sync::<looplets_repro::finch::Request>();
    assert_send_sync::<looplets_repro::finch::Response>();
    assert_send_sync::<ServiceError>();
    assert_send_sync::<FaultPlan>();
    assert_send_sync::<ServiceState>();
    assert_send_sync::<DrainReport>();
    assert_send_sync::<HealthSnapshot>();
}

/// A dense dot-product request plus its expected scalar; every `scale`
/// shares one structure (and therefore one cache entry and one breaker).
fn dense_dot_request(scale: f64) -> (Request, f64) {
    let n = 12;
    let av: Vec<f64> = (0..n).map(|k| scale * (k as f64 + 1.0)).collect();
    let bv: Vec<f64> = (0..n).map(|k| 0.25 * k as f64 - 1.0).collect();
    let expected = av.iter().zip(&bv).map(|(x, y)| x * y).sum();
    let a = Tensor::dense_vector("A", &av);
    let b = Tensor::dense_vector("B", &bv);
    let i = idx("i");
    let program =
        forall(i.clone(), add_assign(scalar("C"), mul(access("A", [i.clone()]), access("B", [i]))));
    (Request::new(program).input(&a).input(&b).output_scalar("C"), expected)
}

fn stall_rule(request: u64) -> FaultRule {
    FaultRule { request, point: InjectPoint::PreRun, kind: FaultKind::Stall }
}

#[test]
fn draining_rejects_new_work_and_completes_in_flight_requests() {
    let svc = Arc::new(KernelService::new(ServiceConfig {
        max_in_flight: 2,
        queue_depth: 4,
        ..ServiceConfig::default()
    }));
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0 warms the cache

    // rid 1 stalls in flight: the drain must wait for it.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    svc.install_faults(plan);
    let (in_flight_req, in_flight_expected) = dense_dot_request(2.0);
    let in_flight = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(&in_flight_req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }

    let drainer = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.drain(Duration::from_secs(10)))
    };
    while svc.state() == ServiceState::Running {
        std::thread::yield_now();
    }

    // While draining, new work is rejected with the typed shutdown error.
    let (rejected, _) = dense_dot_request(3.0);
    match svc.submit(&rejected) {
        Err(ServiceError::ShuttingDown { state: ServiceState::Draining }) => {}
        other => panic!("expected ShuttingDown while draining, got {other:?}"),
    }

    // Releasing the stall lets the in-flight request complete cleanly and
    // the drain finish without cancelling anything.
    svc.release_stalls();
    let resp = in_flight.join().unwrap().expect("in-flight request completes during drain");
    assert_eq!(resp.scalar.unwrap().to_bits(), in_flight_expected.to_bits());
    let report = drainer.join().unwrap();
    assert!(!report.cancelled, "nothing overran the drain deadline");
    assert_eq!(report.state, ServiceState::Stopped);

    // Resume re-opens admission and the cache survived.
    svc.resume();
    assert_eq!(svc.state(), ServiceState::Running);
    let (after, after_expected) = dense_dot_request(-1.5);
    let resp = svc.submit(&after).unwrap();
    assert!(resp.cache_hit, "the drain kept the compiled cache");
    assert_eq!(resp.scalar.unwrap().to_bits(), after_expected.to_bits());
}

#[test]
fn an_overrun_drain_cancels_stuck_work_with_a_typed_error() {
    let svc = Arc::new(KernelService::new(ServiceConfig {
        max_in_flight: 2,
        queue_depth: 4,
        ..ServiceConfig::default()
    }));
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap();

    // rid 1 stalls with no deadline: only the drain's cancel cuts it loose.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    svc.install_faults(plan);
    let stuck = {
        let svc = Arc::clone(&svc);
        let (req, _) = dense_dot_request(2.0);
        std::thread::spawn(move || svc.submit(&req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }

    let report = svc.drain(Duration::from_millis(40));
    assert!(report.cancelled, "the stalled request overran the drain deadline");
    assert_eq!(report.state, ServiceState::Stopped);
    match stuck.join().unwrap() {
        Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
        other => panic!("expected the drain to cancel the stalled request, got {other:?}"),
    }
    assert_eq!(svc.stalled(), 0, "no thread left parked on the stall gate");

    // A stopped service keeps rejecting until resumed.
    match svc.submit(&req) {
        Err(ServiceError::ShuttingDown { state: ServiceState::Stopped }) => {}
        other => panic!("expected ShuttingDown when stopped, got {other:?}"),
    }
    svc.resume();
    assert!(svc.submit(&req).unwrap().cache_hit);
}

#[test]
fn a_hit_does_not_wait_for_a_stalled_hit_on_the_same_structure() {
    let svc = Arc::new(KernelService::default());
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0 compiles the one entry

    // rid 1 parks on the stall gate holding one of the entry's run states.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    svc.install_faults(plan);
    let (stalled_req, stalled_expected) = dense_dot_request(2.0);
    let stalled = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(&stalled_req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }

    // A second client's hit on the *same* structure completes while the
    // first is still parked, on a run state of its own.
    let (req, expected) = dense_dot_request(-3.0);
    let resp = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(&req))
    }
    .join()
    .unwrap()
    .expect("the second hit is served");
    assert_eq!(svc.stalled(), 1, "the first request is still parked");
    assert!(resp.cache_hit);
    assert_eq!(resp.tier, Tier::Fast);
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());

    svc.release_stalls();
    let resp = stalled.join().unwrap().expect("the stalled request completes");
    assert_eq!(resp.scalar.unwrap().to_bits(), stalled_expected.to_bits());
    let stats = svc.stats();
    assert_eq!(stats.slot_waits, 0, "no hit waited for another");
    assert_eq!(svc.health().slot_waits, 0);
    assert_eq!((stats.hits, stats.compiles), (2, 1));
    assert_eq!(svc.cached(), 1, "both run states belong to the one entry");
}

#[test]
fn a_poisoned_entry_waits_for_the_run_state_in_flight_then_recompiles_once() {
    let svc = Arc::new(KernelService::default());
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0

    // rid 1 parks holding a run state; rid 2 finds the entry poisoned at
    // lookup, which only the entry's exclusive holder may act on.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    plan.push(FaultRule { request: 2, point: InjectPoint::Lookup, kind: FaultKind::PoisonEntry });
    svc.install_faults(plan);
    let (stalled_req, stalled_expected) = dense_dot_request(2.0);
    let stalled = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(&stalled_req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }
    let (poisoned_req, poisoned_expected) = dense_dot_request(-3.0);
    let poisoned = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(&poisoned_req))
    };
    // The quarantine cannot start while the stalled request's run state is
    // out: rid 2 registers as the entry's writer and sleeps.
    while svc.stats().slot_waits == 0 {
        std::thread::yield_now();
    }
    assert_eq!(svc.stats().recompiles, 0);

    svc.release_stalls();
    let resp = stalled.join().unwrap().expect("the stalled request completes");
    assert_eq!(resp.scalar.unwrap().to_bits(), stalled_expected.to_bits());
    let resp = poisoned.join().unwrap().expect("the poisoned entry is recompiled and serves");
    assert_eq!(resp.tier, Tier::Fast);
    assert_eq!(resp.scalar.unwrap().to_bits(), poisoned_expected.to_bits());

    let stats = svc.stats();
    assert_eq!((stats.quarantined, stats.recompiles), (1, 1));
    assert_eq!(stats.slot_waits, 1, "only the writer waited");
    assert_eq!(svc.pending_faults(), 0);
    // The recompiled entry is a plain cached entry again.
    let (req, expected) = dense_dot_request(0.5);
    let resp = svc.submit(&req).unwrap();
    assert!(resp.cache_hit);
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
}

#[test]
fn breaker_opens_after_threshold_and_degrades_to_the_oracle() {
    let svc = KernelService::new(ServiceConfig {
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(3600),
        retry_backoff: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let (req, expected) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0: clean, breaker stays closed

    // rid 1 faults twice (the fast attempt and its quarantine retry):
    // crosses the threshold inside one request.
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    plan.push(FaultRule { request: 1, point: InjectPoint::PostRun, kind: FaultKind::Panic });
    svc.install_faults(plan);
    let resp = svc.submit(&req).unwrap();
    assert_eq!(resp.tier, Tier::Oracle, "two fast-tier faults land on the oracle");
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    assert_eq!(svc.health().breakers_open, 1);

    // Within the cooldown the structure short-circuits straight to the
    // oracle — still bit-identical, no wasted fast-tier attempts.
    let resp = svc.submit(&req).unwrap();
    assert_eq!(resp.tier, Tier::Oracle);
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    let stats = svc.stats();
    assert_eq!(stats.breaker_opens, 1);
    assert_eq!(stats.breaker_short_circuits, 1);
}

#[test]
fn a_clean_half_open_probe_closes_the_breaker() {
    let svc = KernelService::new(ServiceConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::ZERO,
        retry_backoff: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let (req, expected) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    svc.install_faults(plan);
    svc.submit(&req).unwrap(); // rid 1: one fault opens the breaker
    assert_eq!(svc.health().breakers_open, 1);

    // Zero cooldown: the next request is the half-open probe.  It runs on
    // the fast tier cleanly and closes the breaker.
    let resp = svc.submit(&req).unwrap();
    assert_eq!(resp.tier, Tier::Fast);
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    let health = svc.health();
    assert_eq!(
        (health.breakers_closed, health.breakers_open, health.breakers_half_open),
        (1, 0, 0)
    );
    assert_eq!(svc.stats().breaker_short_circuits, 0, "the probe was admitted, not shed");
}

#[test]
fn a_faulting_probe_reopens_the_breaker() {
    let svc = KernelService::new(ServiceConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::ZERO,
        retry_backoff: Duration::ZERO,
        ..ServiceConfig::default()
    });
    let (req, expected) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    plan.push(FaultRule { request: 2, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    svc.install_faults(plan);
    svc.submit(&req).unwrap(); // rid 1: opens
    let resp = svc.submit(&req).unwrap(); // rid 2: the probe itself faults
    assert_eq!(resp.scalar.unwrap().to_bits(), expected.to_bits());
    let stats = svc.stats();
    assert_eq!(stats.breaker_opens, 2, "the faulting probe re-opened the breaker");
    assert_eq!(svc.health().breakers_open, 1);
}

/// A service whose breaker on `dense_dot_request`'s structure is open while
/// the entry stays resident: rid 0 warms the cache, and rid 1's one
/// fast-tier panic, served by the quarantine retry, opens the breaker
/// (threshold 1, an hour's cooldown).  `rid_2` is the next request's rule.
fn open_breaker(deadline: Option<Duration>, rid_2: FaultRule) -> Arc<KernelService> {
    let svc = Arc::new(KernelService::new(ServiceConfig {
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(3600),
        retry_backoff: Duration::ZERO,
        deadline,
        ..ServiceConfig::default()
    }));
    let mut plan = FaultPlan::new();
    plan.push(FaultRule { request: 1, point: InjectPoint::PreRun, kind: FaultKind::Panic });
    plan.push(rid_2);
    svc.install_faults(plan);
    let (req, expected) = dense_dot_request(1.0);
    for _ in 0..2 {
        let resp = svc.submit(&req).unwrap();
        assert_eq!((resp.tier, resp.scalar.unwrap().to_bits()), (Tier::Fast, expected.to_bits()));
    }
    assert_eq!((svc.health().breakers_open, svc.cached()), (1, 1));
    svc
}

#[test]
fn a_short_circuited_hit_does_not_wait_for_a_stalled_short_circuit() {
    let svc = open_breaker(Some(Duration::from_secs(2)), stall_rule(2));

    // rid 2 is short-circuited to the oracle and parks on the stall gate
    // holding one of the entry's run states.
    let (stalled_req, stalled_expected) = dense_dot_request(2.0);
    let stalled = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.submit(&stalled_req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }

    // rid 3 is short-circuited too, and runs the oracle on a run state of
    // its own instead of waiting for the entry.
    let (req, expected) = dense_dot_request(-3.0);
    let resp = svc.submit(&req).expect("the second short-circuit is served");
    assert_eq!(svc.stalled(), 1, "rid 2 is still parked");
    assert!(resp.cache_hit);
    assert_eq!((resp.tier, resp.scalar.unwrap().to_bits()), (Tier::Oracle, expected.to_bits()));
    assert_eq!(svc.stats().slot_waits, 0, "no short-circuit waited for another");

    svc.release_stalls();
    let resp = stalled.join().unwrap().expect("the stalled short-circuit completes");
    assert_eq!(
        (resp.tier, resp.scalar.unwrap().to_bits()),
        (Tier::Oracle, stalled_expected.to_bits())
    );
    let stats = svc.stats();
    assert_eq!(
        (stats.served_by_tier, stats.breaker_short_circuits, stats.slot_waits),
        ([2, 2], 2, 0)
    );
    assert_eq!(svc.cached(), 1, "both run states belong to the one entry");
}

#[test]
fn a_short_circuited_hit_whose_oracle_run_panics_takes_the_entry_and_evicts_it() {
    let panic_at_2 = FaultRule { request: 2, point: InjectPoint::PreRun, kind: FaultKind::Panic };
    let svc = open_breaker(None, panic_at_2);

    // rid 2's oracle run on its lent state panics: the request gives the
    // state back, takes the whole entry, and — the oracle being the last
    // tier — ends faulted and condemns the entry.
    let (req, _) = dense_dot_request(2.0);
    match svc.submit(&req) {
        Err(ServiceError::Faulted { attempts: 1, .. }) => {}
        other => panic!("expected Faulted after one oracle attempt, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!((stats.breaker_short_circuits, stats.faults_by_tier), (1, [1, 1]));
    assert_eq!((stats.panics, stats.evictions, stats.slot_waits), (2, 1, 0));
    assert_eq!((svc.cached(), svc.pending_faults()), (0, 0), "the faulted entry was evicted");

    // The breaker is still open: the next request compiles the structure
    // again and is served by the oracle.
    let (req, expected) = dense_dot_request(0.5);
    let resp = svc.submit(&req).unwrap();
    assert!(!resp.cache_hit);
    assert_eq!((resp.tier, resp.scalar.unwrap().to_bits()), (Tier::Oracle, expected.to_bits()));
    assert_eq!(svc.stats().breaker_short_circuits, 2);
}

#[test]
fn deadline_expiry_is_attributed_to_queue_or_execution_never_lost() {
    let svc = Arc::new(KernelService::new(ServiceConfig {
        max_in_flight: 1,
        queue_depth: 4,
        deadline: Some(Duration::from_millis(30)),
        ..ServiceConfig::default()
    }));
    let (req, _) = dense_dot_request(1.0);
    svc.submit(&req).unwrap(); // rid 0

    // Both followers stall: the first holds the only slot until its
    // deadline, the second spends most (or all) of its budget queued.
    let mut plan = FaultPlan::new();
    plan.push(stall_rule(1));
    plan.push(stall_rule(2));
    svc.install_faults(plan);
    let holder = {
        let svc = Arc::clone(&svc);
        let (req, _) = dense_dot_request(2.0);
        std::thread::spawn(move || svc.submit(&req))
    };
    while svc.stalled() == 0 {
        std::thread::yield_now();
    }
    let queued_result = svc.submit(&req);

    // The slot holder's expiry is execution-attributed: it was admitted.
    match holder.join().unwrap() {
        Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {}
        other => panic!("expected the stalled holder to hit its deadline, got {other:?}"),
    }
    // The queued request's expiry is typed either way — as a queue timeout
    // if it was never admitted, or as an execution deadline if it got the
    // slot with too little budget left.  Never shed, never lost.
    let stats = svc.stats();
    match queued_result {
        Err(ServiceError::QueueTimeout { .. }) => {
            assert_eq!(stats.queue_timeouts, 1, "queue expiry counted as a queue timeout");
        }
        Err(ServiceError::Runtime(RuntimeError::Deadline { .. })) => {
            assert!(stats.deadline_errors >= 2, "execution expiry counted as a deadline");
        }
        other => panic!("expected a typed deadline-family error, got {other:?}"),
    }
    assert_eq!(stats.shed, 0, "a bounded queue waits instead of shedding");
}

#[test]
fn concurrent_clients_share_the_cache_and_agree_with_references() {
    use finch_bench::trace::{self, TraceConfig};

    let tcfg =
        TraceConfig { kernels: 3, instances: 2, requests: 0, scale: 2, ..Default::default() };
    let svc = KernelService::new(ServiceConfig {
        capacity: 8,
        deadline: Some(Duration::from_secs(5)),
        ..ServiceConfig::default()
    });
    std::thread::scope(|scope| {
        for c in 0..4usize {
            let svc = &svc;
            let tcfg = &tcfg;
            scope.spawn(move || {
                for round in 0..6usize {
                    let kernel = (c + round) % 3;
                    let instance = round % 2;
                    let resp = svc
                        .submit(&trace::build_request(tcfg, kernel, instance))
                        .unwrap_or_else(|e| panic!("client {c} round {round}: {e}"));
                    let got: Vec<u64> =
                        trace::response_values(&resp).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = trace::reference_values(tcfg, kernel, instance)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(got, want, "client {c} round {round} diverged");
                }
            });
        }
    });
    let stats = svc.stats();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.compiles, 3, "three structures, each compiled once");
    assert_eq!(stats.hits, 21);
}

#[test]
fn service_survives_a_full_fault_barrage_with_typed_outcomes_only() {
    use finch_bench::trace::{self, TraceConfig};

    let tcfg =
        TraceConfig { kernels: 3, instances: 2, requests: 0, scale: 2, ..Default::default() };
    let svc = KernelService::new(ServiceConfig { capacity: 4, ..ServiceConfig::default() });

    // Every fault kind at every injection point, all on a warm cache.
    let mut rid = 0u64;
    for kernel in 0..3usize {
        svc.submit(&trace::build_request(&tcfg, kernel, 0)).expect("warm-up");
        rid += 1;
    }
    let mut plan = FaultPlan::new();
    let mut expected: Vec<(u64, usize, bool)> = Vec::new(); // (rid, kernel, must_succeed)
    let points =
        [InjectPoint::Lookup, InjectPoint::PreRun, InjectPoint::MidRun, InjectPoint::PostRun];
    let kinds = [
        FaultKind::PoisonEntry,
        FaultKind::Panic,
        FaultKind::BudgetExhaustion,
        FaultKind::DeadlineExpiry,
    ];
    for (pi, point) in points.iter().enumerate() {
        for (ki, kind) in kinds.iter().enumerate() {
            // PoisonEntry pairs with the lookup point and the other kinds
            // with the execution points; mismatched pairs are no-ops.
            if (*point == InjectPoint::Lookup) != (*kind == FaultKind::PoisonEntry) {
                continue;
            }
            plan.push(FaultRule { request: rid, point: *point, kind: *kind });
            let succeeds = matches!(kind, FaultKind::Panic | FaultKind::PoisonEntry);
            expected.push((rid, (pi + ki) % 3, succeeds));
            rid += 1;
        }
    }
    svc.install_faults(plan);

    for (req_id, kernel, must_succeed) in expected {
        let result = svc.submit(&trace::build_request(&tcfg, kernel, 1));
        match result {
            Ok(resp) => {
                assert!(must_succeed, "request {req_id} should have hit a resource error");
                let got: Vec<u64> =
                    trace::response_values(&resp).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> =
                    trace::reference_values(&tcfg, kernel, 1).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "request {req_id} served a wrong result");
            }
            Err(ServiceError::Runtime(
                RuntimeError::StepBudgetExceeded { .. } | RuntimeError::Deadline { .. },
            )) => {
                assert!(!must_succeed, "request {req_id} should have been served");
            }
            Err(other) => panic!("request {req_id}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(svc.pending_faults(), 0, "every injected fault fired");
    let stats = svc.stats();
    assert!(stats.panics > 0 && stats.quarantined > 0);
}

/// `serve --tiny --faults 250`'s trace and seeded fault plan, submitted from
/// one thread: request ids follow the schedule, so every outcome is a pure
/// function of the plan.  No wall-clock deadline or step budget is
/// configured, so a `Deadline { ms: 0 }` can only be an injected expiry and a
/// `StepBudgetExceeded { budget: 1 }` only an injected exhaustion; every
/// panic, poisoned entry and stacked second panic must end served.
#[test]
fn a_serial_replay_of_the_seeded_fault_plan_is_served_or_typed() {
    use finch_bench::trace::{self, TraceConfig};
    use std::collections::HashMap;

    let tcfg =
        TraceConfig { kernels: 6, instances: 4, requests: 240, scale: 2, ..Default::default() };
    let svc = KernelService::new(ServiceConfig { capacity: 4, ..ServiceConfig::default() });
    svc.install_faults(FaultPlan::seeded(tcfg.seed, tcfg.requests as u64, 250));
    let mut references: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let (mut ok, mut budget, mut deadline) = (0u64, 0u64, 0u64);
    for (n, r) in trace::generate(&tcfg).requests.into_iter().enumerate() {
        let want = references.entry((r.kernel, r.instance)).or_insert_with(|| {
            trace::reference_values(&tcfg, r.kernel, r.instance)
                .iter()
                .map(|v| v.to_bits())
                .collect()
        });
        match svc.submit(&trace::build_request(&tcfg, r.kernel, r.instance)) {
            Ok(resp) => {
                let got: Vec<u64> =
                    trace::response_values(&resp).iter().map(|v| v.to_bits()).collect();
                assert_eq!(&got, want, "request {n} ({}) served a wrong result", resp.tier.label());
                ok += 1;
            }
            Err(ServiceError::Runtime(RuntimeError::StepBudgetExceeded { budget: 1 })) => {
                budget += 1
            }
            Err(ServiceError::Runtime(RuntimeError::Deadline { ms: 0 })) => deadline += 1,
            Err(other) => panic!("request {n}: no rule implies {other:?}"),
        }
    }
    let stats = svc.stats();
    assert_eq!(svc.pending_faults(), 0, "every rule fired");
    assert_eq!(stats.served_by_tier.iter().sum::<u64>(), ok);
    assert_eq!(stats.faults_by_tier[1], 0, "the oracle never faulted");
    assert_eq!((stats.budget_errors, stats.deadline_errors), (budget, deadline));
    // The counts EXPERIMENTS.md records ("The fallback is the oracle").
    assert_eq!((ok, budget, deadline), (205, 13, 22));
    assert_eq!(stats.served_by_tier, [202, 3]);
    assert_eq!(stats.faults_by_tier, [18, 0]);
}
