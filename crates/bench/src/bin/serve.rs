//! The kernel-service driver: replay a Zipf-skewed trace of kernel requests
//! against a long-lived [`KernelService`] from concurrent clients, account
//! for every request, and emit `BENCH_serve.json` with how each ended (ok /
//! degraded / typed error, verified / divergent), the cache hit rate, and the
//! service's own counters.  It reports no throughput and no latency: how
//! fast the service is, is the repo benchmark's to measure (`benchmark/`,
//! workloads `serve_warm` and `serve_churn`).
//!
//! ```bash
//! cargo run --release -p finch-bench --bin serve
//! cargo run --release -p finch-bench --bin serve -- --tiny
//! cargo run --release -p finch-bench --bin serve -- --tiny --faults 250 --verify
//! cargo run --release -p finch-bench --bin serve -- --soak --tiny --faults 250 --verify
//! ```
//!
//! With `--faults N`, a seeded [`FaultPlan`] injects panics, budget
//! exhaustion, poisoned entries, and deadline expiry into N‰ of requests;
//! with `--verify`, every successful response — including degraded ones —
//! is checked bit-for-bit against a reference computed from the trace's
//! data without the compiler, and the process exits nonzero on any
//! divergence.
//!
//! `--soak` is the chaos harness: it clamps `--max-in-flight` far below the
//! client count (sustained overload, so requests queue), arms the
//! per-structure circuit breakers at two faults, tightens the deadline, and
//! performs two mid-run [`KernelService::drain`]/resume cycles while the
//! clients keep submitting.  The process exits nonzero unless **every**
//! request is accounted for — served bit-identically (under `--verify`) or
//! resolved with a typed error — both drains settle, and an open breaker
//! short-circuited at least one request.
//!
//! Exit codes: 1 the report could not be written, 2 a response diverged
//! from the reference, 3 a request is unaccounted for, 4 a drain left the
//! service running, 5 an unknown flag, 6 a soak whose breakers
//! short-circuited nothing.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use finch::{FaultPlan, KernelService, ServiceConfig, ServiceError, ServiceState, Tier};
use finch_bench::report::ServeReport;
use finch_bench::trace::{self, TraceConfig};

/// Every flag `serve` takes.  Anything else is refused (exit code 5), so a
/// script still passing a deleted one — `--replay`, `--reps`, `--batch` —
/// fails loudly instead of running the default trace.
const FLAGS: [&str; 18] = [
    "--tiny",
    "--soak",
    "--verify",
    "--requests",
    "--clients",
    "--kernels",
    "--instances",
    "--cache",
    "--deadline-ms",
    "--faults",
    "--seed",
    "--zipf",
    "--max-in-flight",
    "--queue-depth",
    "--breaker",
    "--breaker-cooldown-ms",
    "--scale",
    "--json",
];

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_after(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|k| args.get(k + 1).cloned())
}

fn num<T: std::str::FromStr>(name: &str, default: T) -> T {
    arg_after(name).and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// How one client's requests ended.
#[derive(Default)]
struct ClientTally {
    ok: u64,
    degraded: u64,
    typed_errors: u64,
    verified: u64,
    divergences: u64,
}

fn main() {
    let unknown = |a: &String| a.starts_with("--") && !FLAGS.contains(&a.as_str());
    if let Some(arg) = std::env::args().skip(1).find(unknown) {
        eprintln!("unknown flag `{arg}`; serve takes {}", FLAGS.join(" "));
        std::process::exit(5);
    }
    let tiny = flag("--tiny");
    let soak = flag("--soak");
    let requests: usize = num("--requests", if tiny { 240 } else { 3000 });
    let clients: usize = num(
        "--clients",
        if soak {
            8
        } else if tiny {
            2
        } else {
            4
        },
    );
    let kernels: usize = num("--kernels", if tiny { 6 } else { 12 });
    let instances: usize = num("--instances", 4);
    let cache: usize = num("--cache", if tiny { 4 } else { 8 });
    let deadline_ms: u64 = num("--deadline-ms", if soak { 40 } else { 200 });
    let faults: u32 = num("--faults", 0);
    let seed: u64 = num("--seed", 0x5E21);
    let skew: f64 = num("--zipf", 1.1);
    // Soak throttles admission far below the client count so the queue is
    // genuinely exercised, and arms the breakers low enough that the seeded
    // faults open some (at four, none opens on the tiny trace).
    let max_in_flight: usize = num("--max-in-flight", if soak { 2 } else { 32 });
    let queue_depth: usize = num("--queue-depth", if soak { 16 } else { 32 });
    let breaker: u32 = num("--breaker", if soak { 2 } else { 0 });
    let breaker_cooldown_ms: u64 = num("--breaker-cooldown-ms", 10);
    let verify = flag("--verify");
    let json_path = arg_after("--json").unwrap_or_else(|| "BENCH_serve.json".to_string());

    let scale: usize = num("--scale", if tiny { 2 } else { 4 });
    let tcfg = TraceConfig { kernels, instances, requests, skew, seed, scale };
    let schedule = trace::generate(&tcfg);

    let svc = KernelService::new(ServiceConfig {
        capacity: cache,
        deadline: if deadline_ms == 0 { None } else { Some(Duration::from_millis(deadline_ms)) },
        max_in_flight,
        queue_depth,
        breaker_threshold: breaker,
        breaker_cooldown: Duration::from_millis(breaker_cooldown_ms),
        ..ServiceConfig::default()
    });
    if faults > 0 {
        svc.install_faults(FaultPlan::seeded(seed, requests as u64, faults));
        // Injected panics are caught by the service; keep the default hook's
        // backtrace spam out of the bench output (real panics still print).
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !msg.starts_with("injected fault") {
                default_hook(info);
            }
        }));
    }

    // References for --verify: one per distinct (kernel, instance),
    // computed from the trace's data without the compiler.
    let references: HashMap<(usize, usize), Vec<u64>> = if verify {
        let mut refs = HashMap::new();
        for r in &schedule.requests {
            refs.entry((r.kernel, r.instance)).or_insert_with(|| {
                trace::reference_values(&tcfg, r.kernel, r.instance)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            });
        }
        refs
    } else {
        HashMap::new()
    };

    println!(
        "serve{}: {requests} requests, {clients} clients, {kernels} kernels x {instances} \
         instances, cache {cache}, deadline {deadline_ms}ms, faults {faults}/1000, \
         in-flight {max_in_flight}, queue {queue_depth}, breaker {breaker}{}",
        if soak { " (soak)" } else { "" },
        if verify { ", verifying" } else { "" }
    );

    let completed = AtomicU64::new(0);
    let mut max_queue_depth = 0usize;
    let mut drained = 0u64;
    let mut drain_cancelled = false;
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients.max(1));
        for c in 0..clients.max(1) {
            let svc = &svc;
            let schedule = &schedule;
            let tcfg = &tcfg;
            let references = &references;
            let completed = &completed;
            handles.push(scope.spawn(move || {
                let mut tally = ClientTally::default();
                // Round-robin split of the schedule across clients.
                for r in schedule.requests.iter().skip(c).step_by(clients.max(1)) {
                    let req = trace::build_request(tcfg, r.kernel, r.instance);
                    // A draining service rejects with ShuttingDown; clients
                    // back off and retry (bounded) so the post-resume service
                    // sees real traffic again instead of the schedule burning
                    // off as instant rejections.
                    let mut out = svc.submit(&req);
                    for _ in 0..1000 {
                        if !matches!(out, Err(ServiceError::ShuttingDown { .. })) {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(500));
                        out = svc.submit(&req);
                    }
                    match out {
                        Ok(resp) => {
                            tally.ok += 1;
                            if resp.tier != Tier::Fast {
                                tally.degraded += 1;
                            }
                            if verify {
                                let got: Vec<u64> = trace::response_values(&resp)
                                    .iter()
                                    .map(|x| x.to_bits())
                                    .collect();
                                let want = &references[&(r.kernel, r.instance)];
                                if got == *want {
                                    tally.verified += 1;
                                } else {
                                    tally.divergences += 1;
                                    eprintln!(
                                        "DIVERGENCE kernel {} instance {} tier {}: \
                                         {} values vs {} reference",
                                        r.kernel,
                                        r.instance,
                                        resp.tier.label(),
                                        got.len(),
                                        want.len()
                                    );
                                }
                            }
                        }
                        Err(ServiceError::Compile(e)) => {
                            // Trace templates always compile; a compile
                            // error is a bench bug, not a service fault.
                            panic!("unexpected compile error in trace: {e}");
                        }
                        Err(_) => tally.typed_errors += 1,
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                tally
            }));
        }

        // The soak coordinator runs on the driver thread while the clients
        // hammer the service: it samples the queue depth and performs two
        // mid-run drain/resume cycles at 1/3 and 2/3 of the request count.
        if soak {
            let total = requests as u64;
            let mut next_drain = (total / 3).max(1);
            loop {
                let done = completed.load(Ordering::SeqCst);
                max_queue_depth = max_queue_depth.max(svc.health().queued);
                if done >= total {
                    break;
                }
                if drained < 2 && done >= next_drain {
                    let report = svc.drain(Duration::from_millis(250));
                    drained += 1;
                    drain_cancelled |= report.cancelled;
                    if report.state != ServiceState::Stopped {
                        eprintln!("FAIL: drain #{drained} left the service {}", report.state);
                        std::process::exit(4);
                    }
                    svc.resume();
                    next_drain = (2 * total / 3).max(next_drain + 1);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let (mut ok, mut degraded, mut typed_errors, mut verified, mut divergences) = (0, 0, 0, 0, 0);
    for t in tallies {
        ok += t.ok;
        degraded += t.degraded;
        typed_errors += t.typed_errors;
        verified += t.verified;
        divergences += t.divergences;
    }
    let stats = svc.stats();
    let hit_rate = if stats.hits + stats.misses == 0 {
        0.0
    } else {
        stats.hits as f64 / (stats.hits + stats.misses) as f64
    };

    let report = ServeReport {
        requests: requests as u64,
        clients: clients as u64,
        kernels: kernels as u64,
        instances: instances as u64,
        cache_capacity: cache as u64,
        deadline_millis: deadline_ms,
        faults_permille: u64::from(faults),
        soak,
        seed,
        zipf_skew: skew,
        max_queue_depth: max_queue_depth as u64,
        hit_rate,
        ok,
        degraded,
        typed_errors,
        verified,
        divergences,
        drained,
        drain_cancelled,
        stats,
    };

    println!(
        "  ok {ok} (degraded {degraded}), typed errors {typed_errors}, hit rate {:.1}%, \
         served by tier {:?}, faults by tier {:?}",
        100.0 * hit_rate,
        stats.served_by_tier,
        stats.faults_by_tier
    );
    println!(
        "  front-end: {} queued (max depth {max_queue_depth}), {} slot waits, {} queue timeouts, \
         {} shed, breaker opens {}, short-circuits {}",
        stats.queued,
        stats.slot_waits,
        stats.queue_timeouts,
        stats.shed,
        stats.breaker_opens,
        stats.breaker_short_circuits
    );
    if faults > 0 {
        println!(
            "  resilience: {} quarantined, {} recompiles, {} evictions, {} panics caught, \
             {} fault rules unfired",
            stats.quarantined,
            stats.recompiles,
            stats.evictions,
            stats.panics,
            svc.pending_faults()
        );
    }
    if soak {
        println!(
            "  soak: {drained} drain/resume cycles{}",
            if drain_cancelled { " (cancelled in-flight work)" } else { "" }
        );
    }
    if verify {
        println!("  verified {verified} responses bit-identical, {divergences} divergences");
    }

    match report.write(&json_path) {
        Ok(()) => println!("  wrote {json_path}"),
        Err(e) => {
            eprintln!("error: could not write {json_path}: {e}");
            std::process::exit(1);
        }
    }
    if divergences > 0 {
        eprintln!("FAIL: {divergences} degraded/served responses diverged from the reference");
        std::process::exit(2);
    }
    if ok + typed_errors != requests as u64 {
        eprintln!(
            "FAIL: {} of {requests} requests unaccounted for (ok {ok} + typed {typed_errors})",
            requests as u64 - ok - typed_errors
        );
        std::process::exit(3);
    }
    if soak && stats.breaker_short_circuits == 0 {
        eprintln!(
            "FAIL: the soak short-circuited no request ({} breaker opens at threshold {breaker})",
            stats.breaker_opens
        );
        std::process::exit(6);
    }
}
