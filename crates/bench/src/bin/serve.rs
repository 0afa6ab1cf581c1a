//! The kernel-service bench: replay a Zipf-skewed trace of kernel requests
//! against a long-lived [`KernelService`] from concurrent clients, and emit
//! `BENCH_serve.json` with throughput (QPS), latency quantiles (p50/p99),
//! queue-wait quantiles, cache hit rate, and the service's resilience
//! counters.
//!
//! ```bash
//! cargo run --release -p finch-bench --bin serve
//! cargo run --release -p finch-bench --bin serve -- --tiny
//! cargo run --release -p finch-bench --bin serve -- --tiny --faults 250 --verify
//! cargo run --release -p finch-bench --bin serve -- --soak --tiny --faults 250 --verify
//! cargo run --release -p finch-bench --bin serve -- --replay
//! ```
//!
//! With `--faults N`, a seeded [`FaultPlan`] injects panics, budget
//! exhaustion, poisoned entries, and deadline expiry into N‰ of requests;
//! with `--verify`, every successful response — including degraded ones —
//! is checked bit-for-bit against an independently computed tree-walk
//! reference, and the process exits nonzero on any divergence.
//!
//! `--soak` is the chaos harness: it clamps `--max-in-flight` far below the
//! client count (sustained overload, so requests queue), arms the
//! per-structure circuit breakers, tightens the deadline, and performs two
//! mid-run [`KernelService::drain`]/resume cycles while the clients keep
//! submitting.  The process exits nonzero unless **every** request is
//! accounted for — served bit-identically (under `--verify`) or resolved
//! with a typed error — and both drains settle.  `--batch N` submits in
//! N-request batches through [`KernelService::submit_batch`].
//!
//! `--replay` is a one-off measurement, not a trace run: it asks where the
//! part of a large warm hit goes that rebind + run + read-back, replayed on a
//! kernel of one's own, do not explain (see [`replay`]).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use finch::{
    CompiledKernel, FaultPlan, KernelService, Request, ServiceConfig, ServiceError, ServiceState,
    Tensor, Tier, Watch,
};
use finch_bench::report::ServeReport;
use finch_bench::trace::{self, TraceConfig, TraceRequest};

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

struct ClientTally {
    latencies_ns: Vec<u64>,
    queue_waits_ns: Vec<u64>,
    ok: u64,
    degraded: u64,
    typed_errors: u64,
    verified: u64,
    divergences: u64,
}

/// `--replay`: is the unexplained rest of a large hit a cold cache?
///
/// The repo benchmark explains a warm hit by replaying the same request's
/// rebind + run + read-back on a shadow [`CompiledKernel`] and calls what is
/// left over the service's.  At n = 4096 that rest is 6–30 µs, and no code
/// in `submit` is O(n).  The shadow cycles the instances of *one* structure
/// (a few hundred KB, cache-resident), while the service's client cycles
/// every structure and every tensor set; and every service run carries a
/// [`Watch`] on the drain-cancel flag, which the VM polls once a statement,
/// while the shadow runs unwatched.  This replays three ways — each
/// structure's shadow over its own instances only, then all shadows in the
/// service's order, then the same under a never-raised watch — beside
/// single-client hits in that same order.  Where the rest over the last
/// replay is small and flat in n, the remainder is the memory system's and
/// the watch's, not `submit`'s.
fn replay(tcfg: &TraceConfig, reps: usize) {
    let (kernels, instances) = (tcfg.kernels, tcfg.instances);
    // One row per data instance, one column per structure: walking a row
    // after the other is the order the client below submits in.
    let tensors: Vec<Vec<(Tensor, Tensor)>> = (0..instances)
        .map(|i| (0..kernels).map(|k| trace::tensors_for(tcfg, k, i)).collect())
        .collect();
    let requests: Vec<Vec<Request>> = (0..instances)
        .map(|i| (0..kernels).map(|k| trace::build_request(tcfg, k, i)).collect())
        .collect();
    let median_us = |xs: &mut Vec<u64>| {
        xs.sort_unstable();
        xs[xs.len() / 2] as f64 / 1e3
    };
    let replay_one = |shadow: &mut CompiledKernel, k: usize, (a, b): &(Tensor, Tensor)| {
        let t0 = Instant::now();
        shadow.rebind_input(a).expect("same structure");
        shadow.rebind_input(b).expect("same structure");
        shadow.run().expect("trace kernel runs");
        if trace::reads_scalar(k) {
            black_box(shadow.output_scalar("C").expect("scalar readback"));
        } else {
            black_box(shadow.output_tensor("C").expect("tensor readback"));
        }
        t0.elapsed().as_nanos() as u64
    };

    // Single-client hits, cycling every structure and every tensor set.
    let svc = KernelService::new(ServiceConfig { capacity: kernels, ..ServiceConfig::default() });
    for request in requests.iter().flatten() {
        svc.submit(request).expect("trace request is served");
    }
    let mut hit = vec![Vec::new(); kernels];
    for _ in 0..reps {
        for (k, request) in requests.iter().flat_map(|row| row.iter().enumerate()) {
            let t0 = Instant::now();
            let resp = svc.submit(request).expect("trace request is served");
            hit[k].push(t0.elapsed().as_nanos() as u64);
            assert!(resp.cache_hit);
            black_box(resp);
        }
    }

    // The benchmark's shadow: one structure at a time, its instances only.
    let mut shadows: Vec<CompiledKernel> =
        (0..kernels).map(|k| trace::compile_kernel(tcfg, k, 0)).collect();
    let mut own = vec![Vec::new(); kernels];
    for (k, (shadow, own)) in shadows.iter_mut().zip(&mut own).enumerate() {
        for r in 0..reps * instances {
            own.push(replay_one(shadow, k, &tensors[r % instances][k]));
        }
    }
    // The same replay in the service's order — all shadows, all tensor
    // sets —, unwatched and then watched the way a service run is.
    let in_order = |shadows: &mut [CompiledKernel]| {
        let mut samples = vec![Vec::new(); kernels];
        for _ in 0..reps {
            for (k, set) in tensors.iter().flat_map(|row| row.iter().enumerate()) {
                samples[k].push(replay_one(&mut shadows[k], k, set));
            }
        }
        samples
    };
    let mut all = in_order(&mut shadows);
    let never = Arc::new(AtomicBool::new(false));
    for shadow in &mut shadows {
        shadow.set_watch(Some(Watch::cancelled_by(Arc::clone(&never), 0)));
    }
    let mut watched = in_order(&mut shadows);

    println!(
        "replay: {kernels} structures x {instances} instances, {reps} reps, single client; \
         medians in us; slot_waits {}",
        svc.stats().slot_waits
    );
    println!(
        "  {:<18} {:>5} {:>8} | {:>8} {:>7} | {:>8} {:>7} | {:>8} {:>7}",
        "structure", "n", "hit", "own inst", "rest", "all sets", "rest", "+ watch", "rest"
    );
    for k in 0..kernels {
        let name = ["dot sparse*dense", "ewise dense", "ewise sparse out"][k % 3];
        let hit = median_us(&mut hit[k]);
        let [own, all, watched] = [&mut own[k], &mut all[k], &mut watched[k]].map(median_us);
        println!(
            "  {name:<18} {:>5} {hit:>8.2} | {own:>8.2} {:>7.2} | {all:>8.2} {:>7.2} | \
             {watched:>8.2} {:>7.2}",
            tensors[0][k].0.shape()[0],
            hit - own,
            hit - all,
            hit - watched
        );
    }
}

fn main() {
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
    // genuinely exercised, and arms the breakers.
    let max_in_flight: usize = num("--max-in-flight", if soak { 2 } else { 32 });
    let queue_depth: usize = num("--queue-depth", if soak { 16 } else { 32 });
    let breaker: u32 = num("--breaker", if soak { 4 } else { 0 });
    let breaker_cooldown_ms: u64 = num("--breaker-cooldown-ms", 10);
    let batch: usize = num("--batch", 1).max(1);
    let verify = flag("--verify");
    let json_path = arg_after("--json").unwrap_or_else(|| "BENCH_serve.json".to_string());

    // `--replay` defaults to the repo benchmark's largest size class (the
    // vector lengths run from 8 to 23 times the scale).
    let scale: usize = num(
        "--scale",
        if flag("--replay") {
            178
        } else if tiny {
            2
        } else {
            4
        },
    );
    let tcfg = TraceConfig { kernels, instances, requests, skew, seed, scale };
    if flag("--replay") {
        replay(&tcfg, num("--reps", 200));
        return;
    }
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

    // Independently computed references for --verify: one per distinct
    // (kernel, instance), via the tree-walk oracle.
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
         in-flight {max_in_flight}, queue {queue_depth}, breaker {breaker}{}{}",
        if soak { " (soak)" } else { "" },
        if batch > 1 { ", batched" } else { "" },
        if verify { ", verifying" } else { "" }
    );

    let completed = AtomicU64::new(0);
    let started = Instant::now();
    let mut max_queue_depth = 0usize;
    let mut drained = 0u64;
    let mut drain_latency = Duration::ZERO;
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
                let mut tally = ClientTally {
                    latencies_ns: Vec::new(),
                    queue_waits_ns: Vec::new(),
                    ok: 0,
                    degraded: 0,
                    typed_errors: 0,
                    verified: 0,
                    divergences: 0,
                };
                // Round-robin split of the schedule across clients.
                let mine: Vec<TraceRequest> =
                    schedule.requests.iter().skip(c).step_by(clients.max(1)).copied().collect();
                for chunk in mine.chunks(batch) {
                    let reqs = trace::build_requests(tcfg, chunk);
                    let t0 = Instant::now();
                    // A draining service rejects with ShuttingDown; clients
                    // back off and retry (bounded) so the post-resume service
                    // sees real traffic again instead of the schedule burning
                    // off as instant rejections.
                    let mut attempts = 0u32;
                    let outs = loop {
                        let outs = if batch > 1 {
                            svc.submit_batch(&reqs)
                        } else {
                            vec![svc.submit(&reqs[0])]
                        };
                        let all_shutdown = outs
                            .iter()
                            .all(|o| matches!(o, Err(ServiceError::ShuttingDown { .. })));
                        if all_shutdown && attempts < 1000 {
                            attempts += 1;
                            std::thread::sleep(Duration::from_micros(500));
                            continue;
                        }
                        break outs;
                    };
                    let per_ns = t0.elapsed().as_nanos() as u64 / outs.len().max(1) as u64;
                    for (r, out) in chunk.iter().zip(outs) {
                        tally.latencies_ns.push(per_ns);
                        match out {
                            Ok(resp) => {
                                tally.ok += 1;
                                tally.queue_waits_ns.push(resp.queue_wait.as_nanos() as u64);
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
                    drain_latency = drain_latency.max(report.waited);
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
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    let mut queue_waits: Vec<u64> = Vec::new();
    let (mut ok, mut degraded, mut typed_errors, mut verified, mut divergences) = (0, 0, 0, 0, 0);
    for t in tallies {
        latencies.extend(t.latencies_ns);
        queue_waits.extend(t.queue_waits_ns);
        ok += t.ok;
        degraded += t.degraded;
        typed_errors += t.typed_errors;
        verified += t.verified;
        divergences += t.divergences;
    }
    latencies.sort_unstable();
    queue_waits.sort_unstable();
    let quantile = |xs: &[u64], q: f64| -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let k = ((xs.len() - 1) as f64 * q).round() as usize;
        xs[k] as f64 / 1000.0
    };
    let mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 / 1000.0
    };
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
        deadline_ms,
        faults_permille: u64::from(faults),
        soak,
        seed,
        zipf_skew: skew,
        elapsed_seconds: elapsed,
        qps: if elapsed > 0.0 { latencies.len() as f64 / elapsed } else { 0.0 },
        p50_us: quantile(&latencies, 0.50),
        p99_us: quantile(&latencies, 0.99),
        mean_us,
        queue_wait_p50_us: quantile(&queue_waits, 0.50),
        queue_wait_p99_us: quantile(&queue_waits, 0.99),
        max_queue_depth: max_queue_depth as u64,
        hit_rate,
        ok,
        degraded,
        typed_errors,
        verified,
        divergences,
        drained,
        drain_latency_ms: drain_latency.as_secs_f64() * 1e3,
        drain_cancelled,
        stats,
    };

    println!(
        "  {:.0} req/s, p50 {:.1}us, p99 {:.1}us, queue wait p50 {:.1}us p99 {:.1}us, \
         hit rate {:.1}%",
        report.qps,
        report.p50_us,
        report.p99_us,
        report.queue_wait_p50_us,
        report.queue_wait_p99_us,
        100.0 * report.hit_rate
    );
    println!(
        "  ok {ok} (degraded {degraded}), typed errors {typed_errors}, served by tier {:?}, \
         faults by tier {:?}",
        stats.served_by_tier, stats.faults_by_tier
    );
    println!(
        "  front-end: {} queued (max depth {max_queue_depth}), {} slot waits, {} queue timeouts, \
         {} shed, breaker opens {}, short-circuits {}, batch groups {}",
        stats.queued,
        stats.slot_waits,
        stats.queue_timeouts,
        stats.shed,
        stats.breaker_opens,
        stats.breaker_short_circuits,
        stats.batch_groups
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
            "  soak: {drained} drain/resume cycles, slowest drain {:.1}ms{}",
            report.drain_latency_ms,
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
}
