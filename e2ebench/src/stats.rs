//! Small numeric helpers and the process's peak RSS.

use std::time::Duration;

/// Nearest-rank quantile (`q` in 0..=1) of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn median_secs(ds: &[Duration]) -> f64 {
    median(&ds.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Peak resident set size of this process (`VmHWM`) in MB (10^6
/// bytes); 0 where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Host seconds of one round, robust to a slow stretch of the host:
/// `rounds[r][i]` is the time of step `i` in round `r` (every round
/// runs the same steps), and each step counts with its median over the
/// rounds.
pub fn sum_of_medians(rounds: &[Vec<Duration>]) -> f64 {
    let steps = rounds.first().map_or(0, Vec::len);
    (0..steps)
        .map(|i| {
            median(
                &rounds
                    .iter()
                    .map(|r| r[i].as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// Each round's own rate, for the run's printout.
pub fn per_round_rates(ops_per_round: u64, rounds: &[Vec<Duration>]) -> String {
    rounds
        .iter()
        .map(|r| {
            let secs: f64 = r.iter().map(Duration::as_secs_f64).sum();
            format!("{:.4}", ops_per_round as f64 / secs)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 0.5), 5.0);
    }

    #[test]
    fn sum_of_medians_takes_each_step_median() {
        let ms = Duration::from_millis;
        let rounds = vec![
            vec![ms(10), ms(100)],
            vec![ms(50), ms(20)],
            vec![ms(12), ms(22)],
        ];
        assert!((sum_of_medians(&rounds) - 0.034).abs() < 1e-9);
    }
}
