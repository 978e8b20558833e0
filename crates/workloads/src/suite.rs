//! The calibrated benchmark suite: kernel descriptors fitted to Table 1,
//! device-cell job generation over the one [`crate::stream`] of Table 4
//! arrivals, and the offline profile table for prediction-based
//! schedulers.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use gpu_sim::config::GpuConfig;
use gpu_sim::job::JobDesc;
use gpu_sim::kernel::{ClassTable, KernelClassId, KernelDesc};
use sim_core::par::par_map;

use crate::calibrate::{fit, CalibratedKernel};
use crate::kernels::{KernelSpec, ALL_SPECS};
use crate::rnn::KernelSource;
use crate::spec::{ArrivalRate, Benchmark};
use crate::stream::{Arrivals, Workload};

/// All calibrated kernels plus the machinery to generate benchmark jobs.
#[derive(Debug)]
pub struct BenchmarkSuite {
    classes: ClassTable,
    by_name: HashMap<&'static str, CalibratedKernel>,
    config: GpuConfig,
}

/// The expected relative cost of fitting `spec`: every probe simulates all
/// of its waves for about its target time.
fn fit_cost(spec: &KernelSpec) -> f64 {
    f64::from(spec.threads) * spec.target_us
}

impl KernelSource for BenchmarkSuite {
    fn kernel(&self, name: &str) -> Arc<KernelDesc> {
        self.by_name.get(name).unwrap_or_else(|| panic!("unknown kernel {name}")).desc.clone()
    }
}

impl BenchmarkSuite {
    /// Calibrates every kernel spec against `config`; prefer
    /// [`BenchmarkSuite::calibrated`] which caches the default-config suite
    /// for the process lifetime.
    ///
    /// Classes are registered serially in [`ALL_SPECS`] order, so every
    /// [`KernelClassId`] is fixed. The fits, each a pure function of its
    /// spec, class and `config`, then run over every available core
    /// through [`par_map`], longest expected fit first. The worker count
    /// never changes the suite. Takes ~0.3 s on two cores (~0.7 s on
    /// one).
    pub fn build(config: GpuConfig) -> Self {
        let mut classes = ClassTable::new();
        let mut jobs: Vec<(&KernelSpec, KernelClassId)> =
            ALL_SPECS.iter().map(|spec| (spec, classes.register(spec.name))).collect();
        jobs.sort_by(|(a, _), (b, _)| fit_cost(b).total_cmp(&fit_cost(a)));
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let fits = par_map(&jobs, workers, |&(spec, class)| fit(spec, class, &config));
        let by_name = jobs.iter().zip(fits).map(|(&(spec, _), c)| (spec.name, c)).collect();
        BenchmarkSuite { classes, by_name, config }
    }

    /// The process-wide suite for the default (Table 2) machine.
    pub fn calibrated() -> &'static BenchmarkSuite {
        static SUITE: OnceLock<BenchmarkSuite> = OnceLock::new();
        SUITE.get_or_init(|| BenchmarkSuite::build(GpuConfig::default()))
    }

    /// The machine configuration the suite was calibrated for.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The kernel-class registry.
    pub fn classes(&self) -> &ClassTable {
        &self.classes
    }

    /// Calibration results by spec name, for reporting (Table 1).
    pub fn calibrations(&self) -> impl Iterator<Item = &CalibratedKernel> {
        ALL_SPECS.iter().map(|s| &self.by_name[s.name])
    }

    /// A named calibration.
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn calibration(&self, name: &str) -> &CalibratedKernel {
        self.by_name.get(name).unwrap_or_else(|| panic!("unknown kernel {name}"))
    }

    /// The calibrated descriptor for `name`, or `None` when no such kernel
    /// exists — the non-panicking lookup scenario files validate against.
    pub fn try_kernel(&self, name: &str) -> Option<Arc<KernelDesc>> {
        self.by_name.get(name).map(|c| c.desc.clone())
    }

    /// Offline per-class isolated rates (WGs/us) — the profile table the
    /// prediction-based schedulers (SJF, LJF, BAY, PRO, PREMA) consume.
    pub fn offline_rates(&self) -> Vec<(KernelClassId, f64)> {
        ALL_SPECS
            .iter()
            .map(|s| {
                let c = &self.by_name[s.name];
                (c.desc.class, c.wgs_per_us())
            })
            .collect()
    }

    /// Generates `n` jobs of `bench` with exponential inter-arrival gaps at
    /// the Table 4 rate (Section 5.3 simulates 128 jobs per benchmark):
    /// the [`Arrivals`] stream, collected and materialized.
    ///
    /// Jobs get dense ids `0..n` in arrival order, as the simulator
    /// requires.
    pub fn generate_jobs(
        &self,
        bench: Benchmark,
        rate: ArrivalRate,
        n: usize,
        seed: u64,
    ) -> Vec<JobDesc> {
        let seed = seed ^ (bench as u64) << 8 ^ (rate as u64) << 4;
        Arrivals::new(Workload::Bench(bench), seed, bench.rate_jobs_per_sec(rate), n)
            .into_jobs(self, bench.deadline())
            .expect("benchmark deadlines are positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::shared_region_base;
    use gpu_sim::kernel::AccessPattern;
    use sim_core::rng::Fnv1a;

    #[test]
    fn suite_calibrates_every_spec() {
        let suite = BenchmarkSuite::calibrated();
        assert_eq!(suite.calibrations().count(), ALL_SPECS.len());
        for c in suite.calibrations() {
            assert!(c.rel_error() < 0.15, "{} off by {}", c.desc.name, c.rel_error());
        }
    }

    /// Golden digest of the calibrated suite: every descriptor's class,
    /// compute profile and region index, and the exact bits of its
    /// measured time. Captured from the serial, unpruned calibration, so
    /// it pins that the parallel fits and the pruned probes change
    /// nothing.
    #[test]
    fn calibration_matches_its_golden_digest() {
        let mut h = Fnv1a::new();
        for c in BenchmarkSuite::calibrated().calibrations() {
            let p = &c.desc.profile;
            h.eat(&c.desc.class.0.to_le_bytes());
            h.eat(&p.issue_cycles.to_le_bytes());
            h.eat(&p.mem_accesses.to_le_bytes());
            h.eat(&p.lines_per_access.to_le_bytes());
            match p.pattern {
                AccessPattern::Streaming => h.eat(&[0]),
                AccessPattern::SharedRegion { base, len } => {
                    h.eat(&[1]);
                    h.eat(&((base - shared_region_base(0)) >> 28).to_le_bytes());
                    h.eat(&len.to_le_bytes());
                }
                AccessPattern::RandomWithin { len } => {
                    h.eat(&[2]);
                    h.eat(&len.to_le_bytes());
                }
            }
            h.eat(&c.measured_us.to_bits().to_le_bytes());
        }
        assert_eq!(h.finish(), 0x99fd_2886_63ce_8e7e, "the calibrated suite moved");
        let err_max = BenchmarkSuite::calibrated().calibrations().map(|c| c.rel_error());
        assert_eq!(err_max.fold(0.0, f64::max), 0.048377952755905555);
    }

    #[test]
    fn offline_rates_cover_all_classes() {
        let suite = BenchmarkSuite::calibrated();
        let rates = suite.offline_rates();
        assert_eq!(rates.len(), ALL_SPECS.len());
        for (_, r) in rates {
            assert!(r > 0.0);
        }
    }

    #[test]
    fn generated_jobs_are_sorted_and_dense() {
        let suite = BenchmarkSuite::calibrated();
        let jobs = suite.generate_jobs(Benchmark::Ipv6, ArrivalRate::High, 64, 1);
        assert_eq!(jobs.len(), 64);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id.0 as usize, i);
            if i > 0 {
                assert!(j.arrival >= jobs[i - 1].arrival);
            }
            assert_eq!(j.num_kernels(), 1);
        }
    }

    #[test]
    fn arrival_gaps_match_the_rate() {
        let suite = BenchmarkSuite::calibrated();
        let jobs = suite.generate_jobs(Benchmark::Ipv6, ArrivalRate::High, 500, 2);
        let span = jobs.last().unwrap().arrival.as_us_f64();
        let mean_gap = span / 500.0;
        // 64000 jobs/s -> 15.6us mean gap.
        assert!((mean_gap - 15.6).abs() < 3.0, "mean gap {mean_gap}us");
    }

    #[test]
    fn hybrid_alternates_cell_types() {
        let suite = BenchmarkSuite::calibrated();
        let jobs = suite.generate_jobs(Benchmark::Hybrid, ArrivalRate::Low, 4, 3);
        assert_eq!(&*jobs[0].bench, "HYBRID/LSTM128");
        assert_eq!(&*jobs[1].bench, "HYBRID/GRU256");
        assert!(jobs[1].kernels().iter().any(|k| &*k.name == "gemm_h256"));
    }

    #[test]
    fn rnn_jobs_have_many_kernels_and_vary() {
        let suite = BenchmarkSuite::calibrated();
        let jobs = suite.generate_jobs(Benchmark::Lstm, ArrivalRate::Low, 16, 4);
        let lens: Vec<usize> = jobs.iter().map(|j| j.num_kernels()).collect();
        assert!(lens.iter().all(|&l| l > 30));
        assert!(lens.iter().any(|&l| l != lens[0]), "sequence lengths vary");
    }

    #[test]
    fn dag_jobs_generate_with_non_chain_graphs() {
        let suite = BenchmarkSuite::calibrated();
        for bench in Benchmark::DAGS {
            let jobs = suite.generate_jobs(bench, ArrivalRate::Low, 8, 5);
            assert_eq!(jobs.len(), 8);
            for j in &jobs {
                assert!(!j.graph().is_chain(), "{bench} jobs must be true DAGs");
                assert!(j.num_kernels() >= 3);
            }
        }
        // FANOUT widths vary across jobs (sampled per job).
        let jobs = suite.generate_jobs(Benchmark::FanOut, ArrivalRate::Low, 16, 6);
        let sizes: Vec<usize> = jobs.iter().map(|j| j.num_kernels()).collect();
        assert!(sizes.iter().any(|&s| s != sizes[0]), "widths should vary: {sizes:?}");
    }

    #[test]
    fn same_seed_same_jobs() {
        let suite = BenchmarkSuite::calibrated();
        let a = suite.generate_jobs(Benchmark::Gmm, ArrivalRate::Medium, 32, 9);
        let b = suite.generate_jobs(Benchmark::Gmm, ArrivalRate::Medium, 32, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.num_kernels(), y.num_kernels());
        }
    }
}
