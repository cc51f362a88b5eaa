//! Pure arithmetic behind the reported numbers: percentiles, medians,
//! metric-name validation and the daemon stage-delta attribution. Kept
//! free of I/O so the unit tests below pin every formula.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(q/100 · n)`. `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], q: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (u64::from(q) * n as u64).div_ceil(100).max(1) as usize;
    Some(sorted[rank.min(n) - 1])
}

/// Highest percentile the end-to-end `latency_tail_ms` reports. On the
/// shared 2-core VM the benchmark was tuned on, serve-hit's p95 held at
/// 10.6–10.8 ms across runs while its p99 moved between 11.3 and 17.4 ms
/// with the host's scheduling noise; beyond p95 the tail measured the
/// hypervisor, not the program.
pub const E2E_TAIL_CAP: u32 = 95;

/// The highest whole percentile, at most `cap`, whose nearest rank leaves
/// at least [`MIN_BEYOND`] samples beyond it in a sample of `n`. `None`
/// when even the median does not (fewer than 20 samples).
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    (50..=cap)
        .rev()
        .find(|&q| n > 0 && n - (q as usize * n).div_ceil(100) >= MIN_BEYOND)
}

/// Median of an unsorted sample of repeated measurements: the middle
/// value, or the mean of the two middle values of an even-sized sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `0` on an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Share of `rounds` that fast-forward skipped; `0` when nothing ran.
pub fn skipped_share(stepped: u64, rounds: u64) -> f64 {
    if rounds == 0 {
        0.0
    } else {
        1.0 - stepped as f64 / rounds as f64
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The daemon's request-lifecycle stages, in lifecycle order, as named by
/// the `stage` label of `bd_request_duration_micros`.
pub const STAGES: [&str; 5] = [
    "read_parse",
    "queue_wait",
    "simulate",
    "store_write",
    "respond",
];

/// A `(sum µs, count)` reading of one stage histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageReading {
    pub sum_us: f64,
    pub count: f64,
}

/// Per-batch attribution of client latency to daemon stages over one
/// measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Mean µs per batch spent in each of [`STAGES`], in that order.
    pub stage_us: [f64; 5],
    /// Client-observed mean latency per batch minus the stage sum.
    pub unattributed_us: f64,
    /// `GET /batches/:id` polls per batch.
    pub polls_per_batch: f64,
}

/// Attribute a phase of `batches` requests with mean client latency
/// `latency_mean_us`, given stage readings scraped before and after it.
///
/// Connection-side stages (`read_parse`, `respond`) are observed once
/// per HTTP request, so their per-batch share is the phase's summed time
/// over the batch count — a batch pays for its submit and every poll.
/// `extra_requests` counts the non-batch HTTP requests that landed in the
/// delta (the opening `/metrics` scrape observes its own stages after it
/// rendered), which are neither submits nor polls.
pub fn attribute(
    before: &[StageReading; 5],
    after: &[StageReading; 5],
    batches: u64,
    extra_requests: u64,
    latency_mean_us: f64,
) -> Attribution {
    let per_batch = batches.max(1) as f64;
    let mut stage_us = [0.0; 5];
    for (i, slot) in stage_us.iter_mut().enumerate() {
        *slot = (after[i].sum_us - before[i].sum_us) / per_batch;
    }
    let http_requests = after[0].count - before[0].count - extra_requests as f64;
    Attribution {
        stage_us,
        unattributed_us: latency_mean_us - stage_us.iter().sum::<f64>(),
        polls_per_batch: (http_requests - batches as f64) / per_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = sample(10);
        assert_eq!(nearest_rank(&s, 50), Some(5.0));
        assert_eq!(nearest_rank(&s, 51), Some(6.0));
        assert_eq!(nearest_rank(&s, 99), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 50), Some(7.0));
        assert_eq!(nearest_rank(&[7.0], 0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&sample(1000), 99), Some(990.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 99), Some(99));
        assert_eq!(tail_percentile(1000, E2E_TAIL_CAP), Some(95));
        // 999 samples: p99's rank is 990, only 9 beyond, so p98.
        assert_eq!(tail_percentile(999, 99), Some(98));
        // 96 samples: p89 is rank 86, 10 beyond; p90 is rank 87.
        assert_eq!(tail_percentile(96, 99), Some(89));
        // 192 samples: p94 is rank 181, 11 beyond.
        assert_eq!(tail_percentile(192, E2E_TAIL_CAP), Some(94));
        assert_eq!(tail_percentile(20, 99), Some(50));
        assert_eq!(tail_percentile(19, 99), None);
        assert_eq!(tail_percentile(0, 99), None);
        for n in 20..3000 {
            for cap in [E2E_TAIL_CAP, 99] {
                let q = tail_percentile(n, cap).unwrap();
                let rank = (q as usize * n).div_ceil(100);
                assert!(n - rank >= MIN_BEYOND, "n={n} q={q}");
                if q < cap {
                    let next = ((q as usize + 1) * n).div_ceil(100);
                    assert!(n - next < MIN_BEYOND, "n={n}: p{} also qualifies", q + 1);
                }
            }
        }
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "plan.us.QuotientTh1",
            "client.wait_us.p99",
            "9x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn stage_deltas_and_unattributed_add_up() {
        let reading = |sum_us: f64, count: f64| StageReading { sum_us, count };
        let before = [
            reading(100.0, 10.0),
            reading(50.0, 5.0),
            reading(0.0, 5.0),
            reading(0.0, 5.0),
            reading(40.0, 10.0),
        ];
        // 4 batches, each a submit + 2 polls (12 requests), plus the
        // opening scrape's own observation: 13 connection-side records.
        let after = [
            reading(100.0 + 4.0 * 30.0 + 2.0, 23.0),
            reading(50.0 + 4.0 * 200.0, 9.0),
            reading(4.0 * 1000.0, 9.0),
            reading(4.0 * 10.0, 9.0),
            reading(40.0 + 4.0 * 60.0 + 1.0, 23.0),
        ];
        let a = attribute(&before, &after, 4, 1, 5000.0);
        assert_eq!(a.stage_us, [30.5, 200.0, 1000.0, 10.0, 60.25]);
        assert_eq!(a.polls_per_batch, 2.0);
        let total: f64 = a.stage_us.iter().sum::<f64>() + a.unattributed_us;
        assert!((total - 5000.0).abs() < 1e-9);
        assert!((a.unattributed_us - 3699.25).abs() < 1e-9);
    }
}
