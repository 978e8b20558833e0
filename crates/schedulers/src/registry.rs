//! Name-indexed construction of every scheduler in the study, so the
//! harness, examples and tests can select policies by string.

use gpu_sim::scheduler::RoundRobin;
use gpu_sim::sim::SchedulerMode;
use lax::ext::LaxDrop;
use lax::host_variants::{LaxCpu, LaxSw};
use lax::lax::{Lax, LaxConfig};

use crate::bat::Bat;
use crate::bay::Bay;
use crate::cp_policies::{Edf, Ljf, Mlfq, Sjf, Srf};
use crate::prema::Prema;
use crate::pro::Pro;

/// Error returned by [`try_build`] for a scheduler name outside the
/// registry. Its `Display` form names the bad input and lists every known
/// name, so harness errors are self-explanatory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheduler {
    name: String,
}

impl UnknownScheduler {
    /// The name that failed to resolve.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Display for UnknownScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheduler `{}` (known: {})", self.name, names().join(", "))
    }
}

impl std::error::Error for UnknownScheduler {}

/// Builds a scheduler by name.
///
/// Known names: the eleven of Table 5, plus `"LAX-SW"`, `"LAX-CPU"`, the
/// beyond-the-paper `"LAX-DROP"` (mid-flight dropping of expired jobs), and
/// the ablation variants `"LAX-NOADMIT"` (admission control off),
/// `"LAX-SRT"` (laxity replaced by pure shortest-remaining-time) and
/// `"LAX-NOEVENT"` (no event-driven priority updates, tick only).
///
/// # Errors
///
/// Returns [`UnknownScheduler`] for names outside the registry.
///
/// # Examples
///
/// ```
/// use schedulers::registry;
///
/// assert_eq!(registry::try_build("LAX").unwrap().name(), "LAX");
/// let err = registry::try_build("nope").unwrap_err();
/// assert_eq!(err.name(), "nope");
/// assert!(err.to_string().contains("PREMA"));
/// ```
pub fn try_build(name: &str) -> Result<SchedulerMode, UnknownScheduler> {
    Ok(match name {
        "RR" => SchedulerMode::Cp(Box::new(RoundRobin::new())),
        "MLFQ" => SchedulerMode::Cp(Box::new(Mlfq::new())),
        "EDF" => SchedulerMode::Cp(Box::new(Edf::new())),
        "SJF" => SchedulerMode::Cp(Box::new(Sjf::new())),
        "SRF" => SchedulerMode::Cp(Box::new(Srf::new())),
        "LJF" => SchedulerMode::Cp(Box::new(Ljf::new())),
        "PREMA" => SchedulerMode::Cp(Box::new(Prema::new())),
        "LAX" => SchedulerMode::Cp(Box::new(Lax::new())),
        "LAX-DROP" => SchedulerMode::Cp(Box::new(LaxDrop::new())),
        "LAX-NOADMIT" => SchedulerMode::Cp(Box::new(Lax::with_config(LaxConfig {
            admission: false,
            ..LaxConfig::default()
        }))),
        "LAX-SRT" => SchedulerMode::Cp(Box::new(Lax::with_config(LaxConfig {
            use_laxity: false,
            ..LaxConfig::default()
        }))),
        "LAX-NOEVENT" => SchedulerMode::Cp(Box::new(Lax::with_config(LaxConfig {
            event_driven_updates: false,
            ..LaxConfig::default()
        }))),
        "BAT" => SchedulerMode::Host(Box::new(Bat::new())),
        "BAY" => SchedulerMode::Host(Box::new(Bay::new())),
        "PRO" => SchedulerMode::Host(Box::new(Pro::new())),
        "LAX-SW" => SchedulerMode::Host(Box::new(LaxSw::new())),
        "LAX-CPU" => SchedulerMode::Host(Box::new(LaxCpu::new())),
        _ => return Err(UnknownScheduler { name: name.to_string() }),
    })
}

/// All buildable scheduler names.
pub fn names() -> Vec<&'static str> {
    vec![
        "RR",
        "MLFQ",
        "EDF",
        "SJF",
        "SRF",
        "LJF",
        "PREMA",
        "BAT",
        "BAY",
        "PRO",
        "LAX",
        "LAX-SW",
        "LAX-CPU",
        "LAX-DROP",
        "LAX-NOADMIT",
        "LAX-SRT",
        "LAX-NOEVENT",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_builds() {
        for name in names() {
            let mode = try_build(name).unwrap_or_else(|e| panic!("{e}"));
            // Ablation variants report the base name.
            if !name.starts_with("LAX-NO") && name != "LAX-SRT" {
                assert_eq!(mode.name(), name);
            }
        }
    }

    #[test]
    fn unknown_name_error_names_the_input_and_the_registry() {
        let err = try_build("FIFO?").unwrap_err();
        assert_eq!(err.name(), "FIFO?");
        let msg = err.to_string();
        assert!(msg.contains("unknown scheduler `FIFO?`"), "{msg}");
        for known in names() {
            assert!(msg.contains(known), "{msg} missing {known}");
        }
    }
}
