//! Zipf-skewed request traces for the `serve` bench.
//!
//! A trace draws from a small population of *kernel structures* (distinct
//! cache keys: the program template and the input sizes/formats vary per
//! kernel id) crossed with a set of *data instances* per kernel (same
//! structure, different values — these share one cached compiled kernel and
//! exercise the in-place rebind path).  Kernel popularity follows a Zipf
//! distribution, so a small cache capacity still yields a high hit rate —
//! the regime a long-lived kernel service is designed for.
//!
//! Everything is seeded: the same [`TraceConfig`] always produces the same
//! schedule and the same tensor data, so fault-injection runs can be
//! verified against independently computed reference results.

use finch::build::*;
use finch::{CinStmt, LevelSpec, Request, Response, Tensor};

/// Parameters of a generated trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of distinct kernel structures (distinct cache keys).
    pub kernels: usize,
    /// Data instances per kernel (same structure, different values).
    pub instances: usize,
    /// Total requests in the schedule.
    pub requests: usize,
    /// Zipf exponent for kernel popularity (0 = uniform).
    pub skew: f64,
    /// RNG seed for the schedule and the tensor data.
    pub seed: u64,
    /// Base vector length multiplier for the generated tensors.
    pub scale: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { kernels: 12, instances: 4, requests: 500, skew: 1.1, seed: 0x5E21, scale: 4 }
    }
}

/// One scheduled request: which kernel structure and which data instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Kernel structure id in `0..kernels`.
    pub kernel: usize,
    /// Data instance id in `0..instances`.
    pub instance: usize,
}

/// A generated schedule of requests.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The request schedule, in submission order.
    pub requests: Vec<TraceRequest>,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state
}

/// Uniform float in `[0, 1)` from an LCG draw.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Generate the Zipf-skewed schedule for `cfg`.
pub fn generate(cfg: &TraceConfig) -> Trace {
    let kernels = cfg.kernels.max(1);
    let instances = cfg.instances.max(1);
    // Zipf CDF over kernel ranks 1..=kernels.
    let weights: Vec<f64> = (1..=kernels).map(|r| 1.0 / (r as f64).powf(cfg.skew)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(kernels);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut state = cfg.seed ^ 0xD6E8_FEB8_6659_FD93;
    let mut requests = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        let x = lcg(&mut state);
        let u = unit(x);
        let kernel = cdf.partition_point(|&c| c < u).min(kernels - 1);
        let instance = ((x >> 17) as usize) % instances;
        requests.push(TraceRequest { kernel, instance });
    }
    Trace { requests }
}

/// The vector length used by kernel structure `kernel`.
fn len_of(cfg: &TraceConfig, kernel: usize) -> usize {
    cfg.scale.max(1) * (8 + 5 * (kernel / 3)) + (kernel % 3)
}

/// Deterministic data for `(kernel, instance)`: values in `[-1, 1]` with the
/// given density of nonzeros.
fn gen_data(
    cfg: &TraceConfig,
    kernel: usize,
    instance: usize,
    salt: u64,
    density: f64,
) -> Vec<f64> {
    let n = len_of(cfg, kernel);
    let mut state =
        cfg.seed ^ (kernel as u64).wrapping_mul(0x9E37_79B9) ^ (instance as u64) << 32 ^ salt;
    lcg(&mut state);
    (0..n)
        .map(|_| {
            let x = lcg(&mut state);
            if unit(x) < density {
                2.0 * unit(lcg(&mut state)) - 1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// The input tensors for `(kernel, instance)`.  The structure (formats and
/// sizes) depends only on `kernel`; the values also depend on `instance`.
fn tensors_for(cfg: &TraceConfig, kernel: usize, instance: usize) -> (Tensor, Tensor) {
    let av = gen_data(cfg, kernel, instance, 0xA, 0.4);
    let bv = gen_data(cfg, kernel, instance, 0xB, 0.7);
    match kernel % 3 {
        // Sparse-dense dot product, scalar output.
        0 => (Tensor::sparse_list_vector("A", &av), Tensor::dense_vector("B", &bv)),
        // Dense elementwise product, dense output.
        1 => (Tensor::dense_vector("A", &av), Tensor::dense_vector("B", &bv)),
        // Sparse-sparse intersection, sparse output.
        _ => (Tensor::sparse_list_vector("A", &av), Tensor::sparse_list_vector("B", &bv)),
    }
}

/// The program of kernel structure `kernel` and the storage format of its
/// tensor output `C` (`None`: `C` is a scalar).
fn template(cfg: &TraceConfig, kernel: usize) -> (CinStmt, Option<LevelSpec>) {
    let n = len_of(cfg, kernel);
    let i = idx("i");
    let product = mul(access("A", [i.clone()]), access("B", [i.clone()]));
    match kernel % 3 {
        0 => (forall(i, add_assign(scalar("C"), product)), None),
        1 => (
            forall(i.clone(), assign(access("C", [i]), product)),
            Some(LevelSpec::Dense { size: n }),
        ),
        _ => (
            forall(i.clone(), assign(access("C", [i]), product)),
            Some(LevelSpec::SparseList { size: n }),
        ),
    }
}

/// Build the service [`Request`] for `(kernel, instance)`.
pub fn build_request(cfg: &TraceConfig, kernel: usize, instance: usize) -> Request {
    let (a, b) = tensors_for(cfg, kernel, instance);
    let (program, output) = template(cfg, kernel);
    let request = Request::new(program).input(&a).input(&b);
    match output {
        None => request.output_scalar("C"),
        Some(spec) => request.output("C", &[spec]),
    }
}

/// The readback values of a service [`Response`]: the scalar as a singleton,
/// or the output tensor's dense values.
pub fn response_values(resp: &Response) -> Vec<f64> {
    if let Some(s) = resp.scalar {
        return vec![s];
    }
    resp.tensor.as_ref().map(Tensor::to_dense).unwrap_or_default()
}

/// The readback values a response for `(kernel, instance)` must match bit
/// for bit, computed from the generated data alone, with no compiler: the
/// dot product as an index-order fold `s + a * b` from `0.0`, the dense
/// product `a * b`, and the sparse product `a * b` where both are nonzero
/// and `0.0` elsewhere (the sparse output's fill).  This is each template's
/// dense meaning (`finch_baseline::reference::eval`) with the sign of every
/// zero fixed, where `eval` leaves it open, so it is kept: `resilience.rs`,
/// `serve --verify` and CI compare responses to it bit for bit.
pub fn reference_values(cfg: &TraceConfig, kernel: usize, instance: usize) -> Vec<f64> {
    let av = gen_data(cfg, kernel, instance, 0xA, 0.4);
    let bv = gen_data(cfg, kernel, instance, 0xB, 0.7);
    let pairs = av.into_iter().zip(bv);
    match kernel % 3 {
        0 => vec![pairs.fold(0.0, |s, (a, b)| s + a * b)],
        1 => pairs.map(|(a, b)| a * b).collect(),
        _ => pairs.map(|(a, b)| if a != 0.0 && b != 0.0 { a * b } else { 0.0 }).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finch::{KernelService, ServiceConfig};
    use finch_baseline::reference;

    #[test]
    fn schedules_are_seeded_and_skewed() {
        let cfg = TraceConfig { requests: 400, ..TraceConfig::default() };
        let t1 = generate(&cfg);
        let t2 = generate(&cfg);
        assert_eq!(t1.requests, t2.requests);
        assert_eq!(t1.requests.len(), 400);
        // Zipf skew: kernel 0 must be the most popular.
        let mut counts = vec![0usize; cfg.kernels];
        for r in &t1.requests {
            counts[r.kernel] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "rank-1 kernel should dominate: {counts:?}");
    }

    /// The reference values are the templates' dense meaning, and the
    /// sparse template's differ from it by the sign of a zero.
    #[test]
    fn reference_values_are_each_templates_dense_meaning() {
        let cfg = TraceConfig { scale: 2, ..TraceConfig::default() };
        let mut signed_zeros = 0;
        for kernel in 0..3 {
            let (program, output) = template(&cfg, kernel);
            let shape = output.map_or(vec![], |_| vec![len_of(&cfg, kernel)]);
            for instance in 0..2 {
                let (a, b) = tensors_for(&cfg, kernel, instance);
                let outputs = [("C", &shape[..], 0.0)];
                let meaning = reference::eval(&program, &[&a, &b], &outputs).unwrap().remove(0);
                let want = reference_values(&cfg, kernel, instance);
                let same = meaning.iter().zip(&want).all(|(&m, &w)| reference::same_value(m, w));
                assert!(same && meaning.len() == want.len(), "kernel {kernel}/{instance}");
                signed_zeros +=
                    meaning.iter().zip(&want).filter(|(m, w)| m.to_bits() != w.to_bits()).count();
            }
        }
        assert!(signed_zeros > 0, "no template computes a -0.0 its reference fixes to +0.0");
    }

    #[test]
    fn every_template_serves_and_matches_the_reference() {
        let cfg = TraceConfig { scale: 2, ..TraceConfig::default() };
        let svc = KernelService::new(ServiceConfig::default());
        for kernel in 0..3 {
            for instance in 0..2 {
                let req = build_request(&cfg, kernel, instance);
                let resp = svc
                    .submit(&req)
                    .unwrap_or_else(|e| panic!("kernel {kernel} instance {instance} failed: {e}"));
                let got = response_values(&resp);
                let want = reference_values(&cfg, kernel, instance);
                let gb: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
                let wb: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
                assert_eq!(gb, wb, "kernel {kernel} instance {instance}");
            }
        }
        // Second instances were cache hits: 3 distinct structures compiled.
        assert_eq!(svc.stats().compiles, 3);
        assert_eq!(svc.stats().hits, 3);
    }
}
