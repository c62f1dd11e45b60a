//! Order statistics over timing samples.

use crate::json::Json;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut values = samples.to_vec();
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it, so `1 - p` of them lie beyond (20 of 400 for
/// p95).  NaN on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let values = sorted(samples);
    if values.is_empty() {
        return f64::NAN;
    }
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median with the two middle samples averaged on an even count.
pub fn median(samples: &[f64]) -> f64 {
    let values = sorted(samples);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The estimate reported for a deterministic piece of work timed several
/// times on a shared machine: the lower quartile of its repeats.  The host
/// only ever adds time, and how much changes by the minute (a fixed loop of
/// 83 ms on this VM has a median of 120-145 ms in a busy minute), so the
/// slow tail is the host's, not the engine's; the minimum alone hangs on
/// one lucky sample.  Over ten-seed sets of every workload the lower
/// quartile spread as little as the minimum or less (cspa 8-14 % against
/// 10-19 %, tc_live 5-7 % against 7-15 %) and the median up to twice as
/// much when the host changed state inside a set.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    percentile(samples, 0.25)
}

/// `repeats[r][i]` is the time of operation `i` in repeat `r`; operation
/// `i` does identical work in every repeat, so its time is the lower
/// quartile over repeats.  Operations missing from some repeat (a failed
/// session) use the repeats that have them.
pub fn quartile_per_operation(repeats: &[Vec<f64>]) -> Vec<f64> {
    let operations = repeats.iter().map(Vec::len).max().unwrap_or(0);
    (0..operations)
        .map(|i| {
            let column: Vec<f64> = repeats.iter().filter_map(|r| r.get(i).copied()).collect();
            lower_quartile(&column)
        })
        .collect()
}

/// What is recorded beside every reported estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        Summary {
            n: samples.len(),
            min: samples.iter().copied().fold(f64::NAN, f64::min),
            q1: percentile(samples, 0.25),
            median: median(samples),
            q3: percentile(samples, 0.75),
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
        ])
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// A count (or a ratio of counts) that repeats exactly from run to run.
    pub exact: bool,
    /// Declared in `BENCHMARK.json` and printed on the result line; the
    /// others are kept in the result files only.
    pub declared: bool,
    /// What the value was reduced from, where it has samples.
    pub samples: Option<Summary>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            exact: false,
            declared: true,
            samples: None,
        }
    }

    pub fn exact(mut self) -> Metric {
        self.exact = true;
        self
    }

    pub fn undeclared(mut self) -> Metric {
        self.declared = false;
        self
    }

    pub fn reduced_from(mut self, samples: &[f64]) -> Metric {
        self.samples = Some(Summary::of(samples));
        self
    }

    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name".to_string(), Json::str(&self.name)),
            ("unit".to_string(), Json::str(self.unit)),
            ("value".to_string(), Json::Num(self.value)),
            ("declared".to_string(), Json::Bool(self.declared)),
        ];
        if self.exact {
            pairs.push(("exact".to_string(), Json::Bool(true)));
        }
        if let Some(samples) = self.samples {
            pairs.push(("samples".to_string(), samples.to_json()));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=400).map(f64::from).collect();
        // 20 samples lie beyond p95 of 400.
        assert_eq!(percentile(&samples, 0.95), 380.0);
        assert_eq!(percentile(&samples, 0.50), 200.0);
        assert_eq!(percentile(&samples, 1.0), 400.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.8), 4.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn lower_quartile_is_the_second_of_five_to_eight() {
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(
            lower_quartile(&[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            2.0
        );
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn per_operation_estimate_ignores_slow_repeats() {
        let repeats = vec![
            vec![1.0, 10.0, 100.0],
            vec![1.2, 90.0, 101.0], // operation 1 hit a stall in this repeat
            vec![0.9, 11.0, 99.0],
            vec![1.1, 10.5, 180.0], // operation 2 in this one
            vec![1.3, 12.0, 102.0],
        ];
        // Second smallest of five in every column.
        assert_eq!(quartile_per_operation(&repeats), vec![1.0, 10.5, 100.0]);
    }

    #[test]
    fn per_operation_estimate_tolerates_a_short_repeat() {
        let repeats = vec![vec![1.0, 2.0], vec![3.0]];
        assert_eq!(quartile_per_operation(&repeats), vec![1.0, 2.0]);
    }

    #[test]
    fn summary_reports_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (5, 1.0, 2.0, 3.0, 4.0));
    }
}
