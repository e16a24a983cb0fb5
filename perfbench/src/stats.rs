//! The benchmark's own statistics: medians, the tail-percentile rule,
//! solve accounting, the routing-cost digest and the peak-RSS read.

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty sample.
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

/// Samples that must lie strictly above the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// Share of the sample at or below `value`, in percent.
    pub percentile: f64,
    /// Samples ranked beyond `value`.
    pub beyond: usize,
    /// Sample size.
    pub count: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the value ranked `TAIL_BEYOND + 1` from the top. With fewer than
/// `TAIL_BEYOND + 1` samples no percentile qualifies and the maximum is
/// returned with `beyond` counting what actually lies above it (zero).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    let beyond = n - 1 - rank;
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond,
        count: n,
    })
}

/// How one attempted solve ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Returned `Err`, or its certificate did not verify.
    Failed,
    /// Served by the pipeline's regular path (the `full` rung online).
    Full {
        /// Objective (1a) of the served solution.
        cost: f64,
    },
    /// Served by a fallback rung of the online ladder.
    Degraded {
        /// Objective (1a) of the served solution.
        cost: f64,
    },
}

impl Outcome {
    /// The served objective, if the solve served a solution.
    pub fn cost(self) -> Option<f64> {
        match self {
            Outcome::Failed => None,
            Outcome::Full { cost } | Outcome::Degraded { cost } => Some(cost),
        }
    }
}

/// Running totals over attempted solves.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Accounting {
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that failed (error or unverified certificate).
    pub failed: u64,
    /// Solves served by a fallback rung.
    pub degraded: u64,
    /// Sum of the objective over served solves.
    pub cost_sum: f64,
}

impl Accounting {
    /// Folds one solve in.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Failed => self.failed += 1,
            Outcome::Full { cost } => self.cost_sum += cost,
            Outcome::Degraded { cost } => {
                self.degraded += 1;
                self.cost_sum += cost;
            }
        }
    }

    /// Solves that served a solution.
    pub fn served(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failed solves ÷ attempted solves (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Solves served by a fallback rung ÷ attempted solves.
    pub fn degraded_share(&self) -> f64 {
        ratio(self.degraded, self.attempted)
    }

    /// Solves served at all ÷ attempted solves: `1 − failed_share`.
    pub fn served_share(&self) -> f64 {
        ratio(self.served(), self.attempted)
    }

    /// Solves served by the regular path ÷ attempted solves:
    /// `1 − failed_share − degraded_share`.
    pub fn full_share(&self) -> f64 {
        ratio(self.served() - self.degraded, self.attempted)
    }

    /// Mean objective over served solves (0 when none served).
    pub fn mean_cost(&self) -> f64 {
        let served = self.served();
        if served == 0 {
            0.0
        } else {
            self.cost_sum / served as f64
        }
    }
}

/// `num ÷ den`, 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a over the exact bits of every solve outcome, in op order: two
/// runs agree only if every solve failed or served identically and every
/// served objective is bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one solve outcome in.
    pub fn push(&mut self, outcome: Outcome) {
        let (tag, bits) = match outcome {
            Outcome::Failed => (0u8, 0u64),
            Outcome::Full { cost } => (1, cost.to_bits()),
            Outcome::Degraded { cost } => (2, cost.to_bits()),
        };
        self.bytes(&[tag]);
        self.bytes(&bits.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_is_the_highest_qualifying_rank() {
        // 11 samples: only the minimum has ten beyond it.
        let xs: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
        // One more sample moves the tail up by one rank.
        let mut ys = xs.clone();
        ys.push(11.0);
        let t = tail(&ys).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        assert!((t.percentile - 100.0 * 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum_with_nothing_beyond() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((t.value, t.beyond, t.count), (5.0, 0, 3));
        assert_eq!(t.percentile, 100.0);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn accounting_counts_failures_and_degraded_serves() {
        let mut acc = Accounting::default();
        acc.record(Outcome::Full { cost: 10.0 });
        acc.record(Outcome::Failed);
        acc.record(Outcome::Degraded { cost: 20.0 });
        acc.record(Outcome::Full { cost: 30.0 });
        assert_eq!(acc.attempted, 4);
        assert_eq!(acc.failed, 1);
        assert_eq!(acc.served(), 3);
        assert_eq!(acc.failed_share(), 0.25);
        assert_eq!(acc.degraded_share(), 0.25);
        assert_eq!(acc.served_share(), 0.75);
        assert_eq!(acc.full_share(), 0.5);
        // The mean runs over served solves only; failures carry no cost.
        assert_eq!(acc.mean_cost(), 20.0);
    }

    #[test]
    fn empty_accounting_reports_zero_shares() {
        let acc = Accounting::default();
        assert_eq!(acc.failed_share(), 0.0);
        assert_eq!(acc.served_share(), 0.0);
        assert_eq!(acc.mean_cost(), 0.0);
    }

    #[test]
    fn digest_separates_failures_rungs_and_cost_bits() {
        let of = |outcomes: &[Outcome]| {
            let mut d = Digest::default();
            for &o in outcomes {
                d.push(o);
            }
            d.hex()
        };
        let base = of(&[Outcome::Full { cost: 1.0 }, Outcome::Failed]);
        assert_eq!(base, of(&[Outcome::Full { cost: 1.0 }, Outcome::Failed]));
        assert_ne!(base, of(&[Outcome::Failed, Outcome::Full { cost: 1.0 }]));
        assert_ne!(
            base,
            of(&[Outcome::Degraded { cost: 1.0 }, Outcome::Failed])
        );
        let nudged = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(base, of(&[Outcome::Full { cost: nudged }, Outcome::Failed]));
    }

    #[test]
    fn vm_hwm_parses_from_a_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(5120));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t4000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn peak_rss_of_this_process_is_positive() {
        // Touch some memory so the high-water mark is clearly nonzero.
        let buf = std::hint::black_box(vec![1u8; 4 << 20]);
        let mb = peak_rss_mb().expect("/proc/self/status has VmHWM on Linux");
        assert!(mb >= 4.0, "peak RSS {mb} MiB below the 4 MiB just touched");
        drop(buf);
    }
}
