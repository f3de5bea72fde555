//! The benchmark's own statistics: percentiles under the
//! "ten samples beyond" rule, quartiles, medians, CPU time from `/proc`
//! counters, and the name rules every metric and workload must follow.

/// A percentile is reported only when at least this many samples lie
/// beyond its rank; with fewer, the tail it claims to describe is a
/// handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q <= 1) of ascending `sorted`
/// samples, with the number of samples strictly beyond its rank.
/// `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// Percentile `q` when the sample supports it: at least [`MIN_BEYOND`]
/// samples beyond the chosen rank.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted, q).and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
}

/// Median of unsorted samples (mean of the two middle values for an
/// even count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), the definition the run-to-run spread is checked with.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Requests per chunk: a chunk's p99 then has exactly ten samples
/// beyond its rank.
pub const CHUNK: usize = 1000;

/// Throughput and latency of one chunk of consecutive completions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    pub ops_per_s: f64,
    pub p50: f64,
    pub p99: f64,
}

/// Cut completions `(completion time ns, latency)` into chunks of
/// [`CHUNK`] in completion order. A chunk's rate is its size over the
/// time since the previous chunk's last completion (the first chunk's
/// since `start_ns`). A trailing partial chunk is left out. Medians over
/// chunks keep a burst of interference from another tenant of the
/// machine inside the chunks it hit.
pub fn chunks(done: &mut [(u64, f64)], start_ns: u64) -> Vec<Chunk> {
    done.sort_by_key(|d| d.0);
    let mut out = Vec::new();
    let mut prev = start_ns;
    for c in done.chunks_exact(CHUNK) {
        let end = c[CHUNK - 1].0;
        let mut lat: Vec<f64> = c.iter().map(|d| d.1).collect();
        lat.sort_by(f64::total_cmp);
        let pct = |q| nearest_rank(&lat, q).map_or(0.0, |r| r.0);
        let span_s = end.saturating_sub(prev).max(1) as f64 / 1e9;
        out.push(Chunk {
            ops_per_s: CHUNK as f64 / span_s,
            p50: pct(0.5),
            p99: pct(0.99),
        });
        prev = end;
    }
    out
}

/// User plus system CPU time, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn cpu_ticks_from_stat(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parent pid (field 4) from the text of `/proc/<pid>/stat`.
pub fn ppid_from_stat(stat: &str) -> Option<u32> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// A `kB` field such as `VmHWM` from the text of `/proc/<pid>/status`.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// CPU milliseconds per completed operation from tick counters taken
/// before and after a window. `None` when no operation completed or a
/// counter went backwards (a process was replaced mid-window).
pub fn cpu_ms_per_op(before: u64, after: u64, ticks_per_s: u64, ops: u64) -> Option<f64> {
    if ops == 0 || after < before || ticks_per_s == 0 {
        return None;
    }
    Some((after - before) as f64 * 1000.0 / ticks_per_s as f64 / ops as f64)
}

/// Metric and workload names: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_its_rank() {
        // 1000 samples: rank 990, ten beyond — supported.
        assert_eq!(nearest_rank(&ramp(1000), 0.99), Some((990.0, 10)));
        assert_eq!(supported_percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank ceil(989.01) = 990, nine beyond — refused.
        assert_eq!(nearest_rank(&ramp(999), 0.99), Some((990.0, 9)));
        assert_eq!(supported_percentile(&ramp(999), 0.99), None);
        // 200 samples (the old committed bench): p99 is the 2nd worst.
        assert_eq!(nearest_rank(&ramp(200), 0.99), Some((198.0, 2)));
        assert_eq!(supported_percentile(&ramp(200), 0.99), None);
        assert_eq!(supported_percentile(&ramp(200), 0.5), Some(100.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.01), Some((7.0, 0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(d, n=4)`.
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(
            quartiles(&[5.5, 1.25, 9.0, 2.0, 7.75, 3.5, 4.0]),
            Some((2.0, 7.75))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn chunks_cut_completions_in_order() {
        // 2500 completions, one per ms from t = 1 ms, latency = index;
        // given out of order.
        let mut done: Vec<(u64, f64)> = (0..2500u64)
            .rev()
            .map(|i| ((i + 1) * 1_000_000, i as f64))
            .collect();
        let c = chunks(&mut done, 0);
        assert_eq!(c.len(), 2, "the partial third chunk is left out");
        // Chunk 0: completions 1..=1000 ms since t = 0: 1000 per second.
        assert!((c[0].ops_per_s - 1000.0).abs() < 1e-9);
        assert_eq!((c[0].p50, c[0].p99), (499.0, 989.0));
        // Chunk 1 starts where chunk 0 ended.
        assert!((c[1].ops_per_s - 1000.0).abs() < 1e-9);
        assert_eq!((c[1].p50, c[1].p99), (1499.0, 1989.0));
        assert!(chunks(&mut done[..999].to_vec(), 0).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn cpu_per_op_from_proc_counters() {
        // A command name with spaces and parentheses must not shift the
        // fields: utime 250 + stime 50 ticks.
        let before =
            "42 (tsda serve) x) S 1 42 42 0 -1 4194304 10 0 0 0 200 40 0 0 20 0 9 0 100 0 0";
        let after =
            "42 (tsda serve) x) S 1 42 42 0 -1 4194304 10 0 0 0 250 50 0 0 20 0 9 0 100 0 0";
        assert_eq!(cpu_ticks_from_stat(before), Some(240));
        assert_eq!(cpu_ticks_from_stat(after), Some(300));
        assert_eq!(ppid_from_stat(after), Some(1));
        // 60 ticks at 100 Hz = 600 ms over 300 ops = 2 ms/op.
        assert_eq!(cpu_ms_per_op(240, 300, 100, 300), Some(2.0));
        assert_eq!(cpu_ms_per_op(240, 300, 100, 0), None);
        assert_eq!(cpu_ms_per_op(300, 240, 100, 10), None);
        assert_eq!(cpu_ticks_from_stat("garbage"), None);
        // The live counters of this very process parse.
        let own = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(cpu_ticks_from_stat(&own).is_some());
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(status_kb(status, "VmPeak"), None);
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        assert!(valid_name("latency_p99_us"));
        assert!(valid_name("augment.balance_ms.timegan"));
        assert!(valid_name("grid-rocket"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }
}
