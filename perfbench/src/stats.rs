//! Order statistics over raw samples, the machine-speed reference, and
//! process readings from `/proc`.

use gillian_telemetry::{Histogram, HistogramSnapshot};

/// The `p`-quantile (0..=1) of `samples` by the nearest-rank method: the
/// smallest sample with at least `p` of the samples at or below it. Always
/// one of the samples, so never above the observed maximum.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// How many samples lie strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&x| x > threshold).count()
}

/// The reference kernel's time on the reference box (2-vCPU Xeon VM) in
/// its fast state. Speed-corrected times are expressed at this speed.
pub const REFERENCE_NOMINAL_S: f64 = 250e-6;

/// A fixed allocation-, hash- and pointer-heavy computation that no
/// engine change touches, so its time tracks only the machine's speed.
/// About 250 µs on the reference box.
fn reference_work() -> u64 {
    use std::collections::HashMap;
    let mut m: HashMap<u64, u64> = HashMap::new();
    let mut v: Vec<Box<u64>> = Vec::new();
    for i in 0..2048u64 {
        m.insert(i.wrapping_mul(0x9E37_79B9) % 8191, i);
        v.push(Box::new(i));
    }
    let mut acc = 0u64;
    for i in 0..4096u64 {
        acc = acc.wrapping_add(m.get(&(i.wrapping_mul(31) % 8191)).copied().unwrap_or(1));
        acc = acc.wrapping_add(*v[(acc % 2048) as usize]);
    }
    std::hint::black_box(acc)
}

/// Runs the reference kernel once and returns its wall time in seconds.
pub fn time_reference() -> f64 {
    let t = std::time::Instant::now();
    reference_work();
    t.elapsed().as_secs_f64()
}

/// `measured_s` rescaled to the reference box's fast state:
/// `measured_s × REFERENCE_NOMINAL_S / reference_s`, where `reference_s`
/// is the reference kernel timed right next to the measurement. A shared
/// machine's speed drifts by tens of percent over seconds to minutes;
/// the ratio to an adjacent fixed computation cancels that drift, while
/// a change to the engine moves the measurement and not the reference.
pub fn speed_corrected(measured_s: f64, reference_s: f64) -> f64 {
    if reference_s > 0.0 {
        measured_s * REFERENCE_NOMINAL_S / reference_s
    } else {
        measured_s
    }
}

/// The `p`-quantile of a log2-bucketed latency histogram, interpolated
/// linearly inside the bucket that holds it and clamped to the observed
/// maximum (a bucket's upper bound can lie above every observation).
pub fn histogram_quantile(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = p.clamp(0.0, 1.0) * h.count as f64;
    let mut below = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= target {
            let lo = if i == 0 {
                0.0
            } else {
                (Histogram::bucket_bound(i - 1) + 1) as f64
            };
            let hi = Histogram::bucket_bound(i) as f64;
            let at = lo + (target - below as f64) / n as f64 * (hi - lo);
            return at.min(h.max as f64);
        }
        below += n;
    }
    h.max as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process CPU time (user + system, every thread, live or exited) from
/// `/proc/self/stat`, in seconds; 0 where `/proc` is unavailable.
/// Linux reports it in `USER_HZ` = 100 ticks per second.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; `rest` starts at
    // field 3.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB; 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(count_above(&xs, percentile(&xs, 0.9)), 10);
    }

    #[test]
    fn histogram_quantile_interpolates_and_clamps() {
        let h = Histogram::new();
        for v in [8, 9, 10, 11, 12] {
            h.record(v); // all in the 8..=15 bucket
        }
        let s = h.snapshot();
        let p50 = histogram_quantile(&s, 0.5);
        assert!((8.0..=12.0).contains(&p50), "{p50}");
        assert_eq!(histogram_quantile(&s, 1.0), 12.0, "clamped to the max");
        assert_eq!(histogram_quantile(&HistogramSnapshot::default(), 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
