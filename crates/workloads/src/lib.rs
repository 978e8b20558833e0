//! # workloads
//!
//! The paper's eight latency-sensitive benchmarks, rebuilt as calibrated
//! synthetic kernels (DESIGN.md substitution 2):
//!
//! * [`spec`] — Table 4: deadlines, input sizes, high/medium/low arrival
//!   rates, and the many-/few-kernel taxonomy of Figure 1.
//! * [`kernels`] — Table 1's kernel characterization encoded as specs
//!   (target isolated time, threads, context size, memory intensity).
//! * [`calibrate`] — fits each spec's compute budget so the simulator
//!   reproduces the published isolated times (within 5%).
//! * [`rnn`] — LSTM/GRU/Vanilla job chains whose call counts reproduce the
//!   Table 1 LSTM job exactly at sequence length 13, with WMT'15-like
//!   per-job sequence lengths (mean 16).
//! * [`suite`] — the calibrated [`suite::BenchmarkSuite`]: device-cell job
//!   generation and the offline profile table.
//! * [`stream`] — the one job stream of every kind of cell, with every
//!   job-shape rule written once.
//! * [`dag`] — DAG-structured job graphs (fan-out/fan-in diamond, the
//!   Sirius-style IPA pipeline) built from the same calibrated kernels.
//! * [`batching`] — merged-batch workloads for Figure 4.
//! * [`burst`] — arrival-burst storms: applies a fault plan's burst
//!   entries to a generated job stream (the workload half of fault
//!   injection).
//! * [`mixed`] — interleaved streams and latency-insensitive background
//!   work, for the paper's claim that LAX leaves no-deadline jobs alone.
//! * [`scenario`] — declarative scenario files: workload mix (named
//!   benchmarks or inline kernel DAGs), arrival process, fault intensity,
//!   and fleet topology as one JSON document with typed parse errors.
//! * [`table1`] — regenerates Table 1 and Figure 1 from the suite.
//!
//! # Example
//!
//! ```
//! use workloads::spec::{ArrivalRate, Benchmark};
//! use workloads::suite::BenchmarkSuite;
//!
//! let suite = BenchmarkSuite::calibrated();
//! let jobs = suite.generate_jobs(Benchmark::Ipv6, ArrivalRate::High, 8, 1);
//! assert_eq!(jobs.len(), 8);
//! assert_eq!(jobs[0].deadline.as_us_f64(), 40.0);
//! ```

#![warn(missing_docs)]

pub mod batching;
pub mod burst;
pub mod calibrate;
pub mod dag;
pub mod kernels;
pub mod mixed;
pub mod rnn;
pub mod scenario;
pub mod spec;
pub mod stream;
pub mod suite;
pub mod table1;
