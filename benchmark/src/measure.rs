//! Rounds, per-class latency statistics and the end-to-end metrics.
//!
//! A workload runs as *rounds*: each round executes the same fixed,
//! seed-generated schedule of operations, so rounds are statistically
//! identical and every metric is a median over rounds.  All times arrive
//! here already normalised to the reference host speed (see `host`).

use std::time::Instant;

/// What one round produced.
#[derive(Debug, Default)]
pub struct RoundSamples {
    /// Operation latencies in ns, one vector per class.  Every attempted
    /// operation is recorded here, failed or not.
    pub per_class: Vec<Vec<u64>>,
    /// Operations that errored, were refused, or failed the output check.
    pub failed: u64,
    /// Wall time of the round, first operation issued to last result
    /// checked, at reference host speed (see `host`).
    pub wall_ns: u64,
    /// Mean host speed over the round (1 = reference).
    pub host_speed: f64,
}

impl RoundSamples {
    pub fn new(classes: usize) -> Self {
        RoundSamples { per_class: vec![Vec::new(); classes], ..RoundSamples::default() }
    }

    fn clear(&mut self) {
        self.per_class.iter_mut().for_each(Vec::clear);
        self.failed = 0;
        self.wall_ns = 0;
        self.host_speed = 0.0;
    }

    /// Fold another client's samples into this round.
    pub fn absorb(&mut self, other: &RoundSamples) {
        for (mine, theirs) in self.per_class.iter_mut().zip(&other.per_class) {
            mine.extend_from_slice(theirs);
        }
        self.failed += other.failed;
    }
}

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Run whole rounds until this many seconds have passed (at least three).
    Seconds(f64),
    /// Run exactly this many rounds (`--quick`).
    Rounds(usize),
}

/// One class's row of the report.
#[derive(Debug, Clone)]
pub struct ClassRow {
    pub name: String,
    /// Samples in the last round (the schedule is fixed, so every round has
    /// about as many; serve classes split by outcome vary slightly).
    pub samples_per_round: usize,
    /// Median over rounds of the round's median latency.
    pub median_us: f64,
    /// Median over rounds of the round's tail percentile.
    pub tail_us: f64,
    /// 99, or 95 for a class with fewer than 1000 samples per round.
    pub tail_percentile: u32,
}

/// The timed section's result.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    /// Correct operations per second of each round, in order (printed so a
    /// reader can see how steady the host was).
    pub round_rates: Vec<f64>,
    /// Host speed of each round (1 = reference), in order.
    pub round_speeds: Vec<f64>,
    pub op_us: f64,
    pub op_tail_us: f64,
    pub classes: Vec<ClassRow>,
}

/// The middle value (upper middle for an even count); 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median of integer nanosecond samples, as f64 ns.
pub fn median_ns(values: &mut [u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    values[values.len() / 2] as f64
}

/// Geometric mean of the positive values; 0 if there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values.into_iter().filter(|v| *v > 0.0) {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], pct: u32) -> u64 {
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Run rounds under `budget` and reduce them to the end-to-end metrics.
/// `round` fills the (cleared) samples it is handed, including `wall_ns`.
pub fn measure(
    classes: &[String],
    budget: Budget,
    mut round: impl FnMut(&mut RoundSamples),
) -> EndToEnd {
    let start = Instant::now();
    let mut samples = RoundSamples::new(classes.len());
    let (mut rates, mut speeds) = (Vec::new(), Vec::new());
    let mut medians = vec![Vec::new(); classes.len()];
    let mut tails = vec![Vec::new(); classes.len()];
    let mut last_counts = vec![0; classes.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let done = match budget {
            Budget::Seconds(s) => rates.len() >= 3 && start.elapsed().as_secs_f64() >= s,
            Budget::Rounds(n) => rates.len() >= n,
        };
        if done {
            break;
        }
        samples.clear();
        round(&mut samples);
        let ops: u64 = samples.per_class.iter().map(|c| c.len() as u64).sum();
        attempted += ops;
        failed += samples.failed;
        rates.push((ops - samples.failed.min(ops)) as f64 / (samples.wall_ns.max(1) as f64 / 1e9));
        speeds.push(samples.host_speed);
        for (c, lat) in samples.per_class.iter_mut().enumerate() {
            if lat.is_empty() {
                continue;
            }
            lat.sort_unstable();
            last_counts[c] = lat.len();
            let pct = if lat.len() < 1000 { 95 } else { 99 };
            medians[c].push(lat[lat.len() / 2] as f64 / 1e3);
            tails[c].push(percentile(lat, pct) as f64 / 1e3);
        }
    }
    let rows: Vec<ClassRow> = classes
        .iter()
        .enumerate()
        .map(|(c, name)| ClassRow {
            name: name.clone(),
            samples_per_round: last_counts[c],
            median_us: median(&mut medians[c]),
            tail_us: median(&mut tails[c]),
            tail_percentile: if last_counts[c] < 1000 { 95 } else { 99 },
        })
        .collect();
    EndToEnd {
        rounds: rates.len(),
        attempted,
        failed,
        ops_per_s: median(&mut rates.clone()),
        round_rates: rates,
        round_speeds: speeds,
        op_us: geomean(rows.iter().map(|r| r.median_us)),
        op_tail_us: geomean(rows.iter().map(|r| r.tail_us)),
        classes: rows,
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn geomean_weighs_classes_equally() {
        assert!((geomean([10.0, 1000.0]) - 100.0).abs() < 1e-9);
        assert_eq!(geomean([0.0]), 0.0);
    }

    #[test]
    fn measure_reduces_rounds_to_medians_and_counts_failures() {
        let classes = vec!["fast".to_string(), "slow".to_string()];
        let mut n = 0u64;
        let e = measure(&classes, Budget::Rounds(3), |s| {
            n += 1;
            s.per_class[0].extend([1_000, 2_000, 3_000]);
            s.per_class[1].extend([100_000 * n]);
            s.failed = 1;
            s.wall_ns = 1_000_000_000;
        });
        assert_eq!((e.rounds, e.attempted, e.failed), (3, 12, 3));
        assert_eq!(e.ops_per_s, 3.0);
        assert_eq!(e.classes[0].median_us, 2.0);
        assert_eq!(e.classes[1].median_us, 200.0);
        assert!((e.op_us - 20.0).abs() < 1e-9);
    }
}
