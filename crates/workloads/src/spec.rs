//! Benchmark specifications: deadlines, input sizes and arrival rates from
//! the paper's Table 4, and the many-/few-kernel taxonomy of Figure 1 —
//! plus the two recipes every experiment cell shares: its workload seed
//! ([`cell_seed`]) and its fixed-point fault intensity
//! ([`intensity_to_milli`]).

use sim_core::rng::Fnv1a;
use sim_core::time::Duration;

/// The eight latency-sensitive benchmarks (Section 3 / Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// LSTM RNN inference, hidden size 128 (DeepBench).
    Lstm,
    /// GRU RNN inference, hidden size 128.
    Gru,
    /// Vanilla RNN inference, hidden size 256 (Table 4: input 256).
    Van,
    /// Mixed LSTM-128 + GRU-256 jobs (Section 5.2).
    Hybrid,
    /// IPv6 longest-prefix-match packet lookup (G-Opt).
    Ipv6,
    /// Cuckoo-hash MAC-to-port lookup (G-Opt).
    Cuckoo,
    /// Gaussian mixture model scoring from the ASR pipeline (Sirius).
    Gmm,
    /// Porter stemmer from the ASR pipeline (Sirius).
    Stem,
    /// Synthetic fan-out/fan-in DAG: STEM splits into parallel CUCKOO
    /// lookups that join into a final STEM (beyond the paper; exercises
    /// concurrent kernels within one job). Appended after the paper's eight
    /// so their seed-hash discriminants are unchanged.
    FanOut,
    /// Sirius-style intelligent personal assistant pipeline as one DAG job:
    /// GMM scoring fans out into parallel STEM stages that join (Section 3's
    /// ASR components composed as Suleman et al. deploy them).
    Ipa,
}

/// Table 4's three contention levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArrivalRate {
    /// High contention.
    High,
    /// Medium contention.
    Medium,
    /// Low contention.
    Low,
}

impl Benchmark {
    /// All eight, in the paper's reporting order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Lstm,
        Benchmark::Gru,
        Benchmark::Van,
        Benchmark::Hybrid,
        Benchmark::Ipv6,
        Benchmark::Cuckoo,
        Benchmark::Gmm,
        Benchmark::Stem,
    ];

    /// The DAG-structured benchmarks (beyond the paper). Kept out of
    /// [`Benchmark::ALL`] so every existing figure and sweep is untouched;
    /// the `dag` sweep and scenario files select these explicitly.
    pub const DAGS: [Benchmark; 2] = [Benchmark::FanOut, Benchmark::Ipa];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Lstm => "LSTM",
            Benchmark::Gru => "GRU",
            Benchmark::Van => "VAN",
            Benchmark::Hybrid => "HYBRID",
            Benchmark::Ipv6 => "IPV6",
            Benchmark::Cuckoo => "CUCKOO",
            Benchmark::Gmm => "GMM",
            Benchmark::Stem => "STEM",
            Benchmark::FanOut => "FANOUT",
            Benchmark::Ipa => "IPA",
        }
    }

    /// Per-job deadline (Table 4; DAG benchmarks inherit the deadline of
    /// their critical stage: IPA is GMM-dominated, FANOUT is
    /// CUCKOO-dominated).
    pub fn deadline(self) -> Duration {
        match self {
            Benchmark::Lstm | Benchmark::Gru | Benchmark::Van | Benchmark::Hybrid => {
                Duration::from_ms(7)
            }
            Benchmark::Ipv6 => Duration::from_us(40),
            Benchmark::Cuckoo => Duration::from_us(600),
            Benchmark::Gmm => Duration::from_ms(3),
            Benchmark::Stem => Duration::from_us(300),
            Benchmark::FanOut => Duration::from_us(1_200),
            Benchmark::Ipa => Duration::from_ms(3),
        }
    }

    /// Arrival rate in jobs per second (Table 4; DAG benchmarks scale their
    /// dominant stage's rates down by the fan-out so offered load per level
    /// stays comparable).
    pub fn rate_jobs_per_sec(self, rate: ArrivalRate) -> f64 {
        use ArrivalRate::*;
        use Benchmark::*;
        let (h, m, l) = match self {
            Lstm | Gru | Van | Hybrid => (8_000.0, 5_000.0, 3_000.0),
            Ipv6 => (64_000.0, 32_000.0, 16_000.0),
            Cuckoo => (8_000.0, 5_000.0, 3_000.0),
            Gmm => (32_000.0, 16_000.0, 8_000.0),
            Stem => (64_000.0, 32_000.0, 16_000.0),
            FanOut => (2_000.0, 1_250.0, 750.0),
            Ipa => (4_000.0, 2_000.0, 1_000.0),
        };
        match rate {
            High => h,
            Medium => m,
            Low => l,
        }
    }

    /// `true` for the RNN benchmarks with many small kernels per job
    /// (Figure 1's "many-kernel" category).
    pub fn is_many_kernel(self) -> bool {
        matches!(self, Benchmark::Lstm | Benchmark::Gru | Benchmark::Van | Benchmark::Hybrid)
    }

    /// `true` for the DAG-structured benchmarks (jobs with non-linear
    /// kernel dependency graphs).
    pub fn is_dag(self) -> bool {
        matches!(self, Benchmark::FanOut | Benchmark::Ipa)
    }
}

impl ArrivalRate {
    /// All three levels, highest first.
    pub const ALL: [ArrivalRate; 3] = [ArrivalRate::High, ArrivalRate::Medium, ArrivalRate::Low];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ArrivalRate::High => "high",
            ArrivalRate::Medium => "medium",
            ArrivalRate::Low => "low",
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Display for ArrivalRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Benchmark`] or [`ArrivalRate`] from its display name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// What was being parsed ("benchmark" or "arrival rate").
    pub what: &'static str,
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown {} `{}`", self.what, self.input)
    }
}

impl std::error::Error for ParseSpecError {}

impl std::str::FromStr for Benchmark {
    type Err = ParseSpecError;

    /// Parses a display name (as printed by [`Benchmark::name`]),
    /// case-insensitively. Accepts the DAG benchmarks too.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::ALL
            .into_iter()
            .chain(Benchmark::DAGS)
            .find(|b| b.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseSpecError { what: "benchmark", input: s.to_string() })
    }
}

impl std::str::FromStr for ArrivalRate {
    type Err = ParseSpecError;

    /// Parses a display name (as printed by [`ArrivalRate::name`]),
    /// case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ArrivalRate::ALL
            .into_iter()
            .find(|r| r.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseSpecError { what: "arrival rate", input: s.to_string() })
    }
}

/// The seed fed to one experiment cell's workload generator: FNV-1a over
/// the base seed and the workload-identifying fields — the workload tag (a
/// benchmark name, or `dag-file:NAME` for a scenario file's inline DAG),
/// the rate, the device count of a fleet cell, and the job count.
///
/// Schedulers, routing policies, fault intensities and worker counts are
/// deliberately **not** mixed in: every scheduler or policy compared on
/// one workload must see the identical job trace, arrival streams pair
/// across fault intensities, and the value never depends on which worker
/// runs the cell.
pub fn cell_seed(
    seed: u64,
    workload: &str,
    rate: ArrivalRate,
    devices: Option<usize>,
    n_jobs: usize,
) -> u64 {
    let mut h = Fnv1a::new();
    h.eat(&seed.to_le_bytes());
    h.eat(workload.as_bytes());
    h.eat(b":");
    h.eat(rate.name().as_bytes());
    if let Some(d) = devices {
        h.eat(&(d as u64).to_le_bytes());
    }
    h.eat(&(n_jobs as u64).to_le_bytes());
    h.finish()
}

/// Converts a fault intensity to the fixed-point milli-units cells store
/// (`1.5` → `1500`), so cells stay totally ordered and hashable.
///
/// Only exact values convert: `None` unless some `m` that fits in `u32`
/// gives back `x` as `m / 1000`. A value finer than a milli (`0.0004`),
/// negative, non-finite, or too large for `u32` milli-units is rejected,
/// never rounded or saturated.
pub fn intensity_to_milli(x: f64) -> Option<u32> {
    let m = (x * 1000.0).round();
    if !(0.0..=f64::from(u32::MAX)).contains(&m) {
        return None;
    }
    let m = m as u32;
    (milli_to_intensity(m) == x).then_some(m)
}

/// The fault intensity a milli value stands for (`1500` → `1.5`); the
/// inverse of [`intensity_to_milli`].
pub fn milli_to_intensity(milli: u32) -> f64 {
    f64::from(milli) / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensities_convert_only_when_exact() {
        for (x, m) in [(0.0, 0), (0.001, 1), (0.5, 500), (1.0, 1000), (1.5, 1500), (2.0, 2000)] {
            assert_eq!(intensity_to_milli(x), Some(m), "{x}");
            assert_eq!(milli_to_intensity(m), x);
        }
        let max = milli_to_intensity(u32::MAX);
        assert_eq!(intensity_to_milli(max), Some(u32::MAX));
        for x in [0.0004, 1.0005, -1.0, -0.001, 1e300, max + 1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(intensity_to_milli(x), None, "{x}");
        }
        // Every milli value survives the printed round trip the cell
        // strings and scenario files rely on.
        for m in [1, 7, 999, 1001, 123_456, u32::MAX - 1, u32::MAX] {
            let printed = milli_to_intensity(m).to_string();
            assert_eq!(intensity_to_milli(printed.parse().unwrap()), Some(m), "{printed}");
        }
    }

    #[test]
    fn cell_seed_pins_the_fnv1a_recipe() {
        // A hand-written FNV-1a-64 over the documented byte layout, so the
        // recipe cannot drift without failing here.
        let reference = |parts: &[&[u8]]| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in parts.concat().iter() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        };
        assert_eq!(
            cell_seed(42, "IPV6", ArrivalRate::High, None, 128),
            reference(&[&42u64.to_le_bytes(), b"IPV6", b":", b"high", &128u64.to_le_bytes()])
        );
        assert_eq!(
            cell_seed(7, "HYBRID", ArrivalRate::Low, Some(16), 1000),
            reference(&[
                &7u64.to_le_bytes(),
                b"HYBRID",
                b":",
                b"low",
                &16u64.to_le_bytes(),
                &1000u64.to_le_bytes(),
            ])
        );
    }

    #[test]
    fn deadlines_match_table4() {
        assert_eq!(Benchmark::Ipv6.deadline(), Duration::from_us(40));
        assert_eq!(Benchmark::Cuckoo.deadline(), Duration::from_us(600));
        assert_eq!(Benchmark::Gmm.deadline(), Duration::from_ms(3));
        assert_eq!(Benchmark::Stem.deadline(), Duration::from_us(300));
        assert_eq!(Benchmark::Lstm.deadline(), Duration::from_ms(7));
    }

    #[test]
    fn rates_match_table4() {
        assert_eq!(Benchmark::Ipv6.rate_jobs_per_sec(ArrivalRate::High), 64_000.0);
        assert_eq!(Benchmark::Gmm.rate_jobs_per_sec(ArrivalRate::Medium), 16_000.0);
        assert_eq!(Benchmark::Lstm.rate_jobs_per_sec(ArrivalRate::Low), 3_000.0);
        for b in Benchmark::ALL {
            let h = b.rate_jobs_per_sec(ArrivalRate::High);
            let m = b.rate_jobs_per_sec(ArrivalRate::Medium);
            let l = b.rate_jobs_per_sec(ArrivalRate::Low);
            assert!(h > m && m > l, "{b}: rates must decrease");
        }
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for b in Benchmark::ALL {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
            assert_eq!(b.name().to_lowercase().parse::<Benchmark>().unwrap(), b);
        }
        for r in ArrivalRate::ALL {
            assert_eq!(r.name().parse::<ArrivalRate>().unwrap(), r);
        }
        let err = "warp9".parse::<Benchmark>().unwrap_err();
        assert_eq!(err.to_string(), "unknown benchmark `warp9`");
        assert!("sometimes".parse::<ArrivalRate>().is_err());
    }

    #[test]
    fn taxonomy_matches_figure1() {
        assert!(Benchmark::Lstm.is_many_kernel());
        assert!(Benchmark::Hybrid.is_many_kernel());
        assert!(!Benchmark::Ipv6.is_many_kernel());
        assert!(!Benchmark::Stem.is_many_kernel());
    }

    #[test]
    fn dag_benchmarks_are_separate_from_the_paper_suite() {
        for d in Benchmark::DAGS {
            assert!(d.is_dag());
            assert!(!Benchmark::ALL.contains(&d), "{d} must not join the paper's figures");
            assert_eq!(d.name().parse::<Benchmark>().unwrap(), d);
            let h = d.rate_jobs_per_sec(ArrivalRate::High);
            let l = d.rate_jobs_per_sec(ArrivalRate::Low);
            assert!(h > l);
        }
        for b in Benchmark::ALL {
            assert!(!b.is_dag());
        }
    }
}
