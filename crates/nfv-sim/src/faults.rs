//! Fault and degradation injection.
//!
//! Faults are what make the SLA-violation prediction task non-trivial: the
//! model must learn that a CPU throttle on the DPI stage matters while the
//! same throttle on an idle firewall does not — exactly the kind of causal
//! structure the explanations are later checked against.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// The kinds of degradation the injector can impose on a VNF instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// CPU frequency/quota throttled: effective share multiplied by `factor`
    /// in (0, 1].
    CpuThrottle {
        /// Remaining fraction of the allocated share.
        factor: f64,
    },
    /// Extra interference (e.g., a co-located batch job): multiplier ≥ 1 on
    /// service times.
    NoisyNeighbor {
        /// Service-time multiplier.
        factor: f64,
    },
    /// Memory leak: queue capacity shrinks linearly to `floor_fraction` of
    /// nominal over the fault window (standing in for swap-induced loss of
    /// burst absorption).
    MemoryLeak {
        /// Final fraction of nominal queue capacity in (0, 1].
        floor_fraction: f64,
    },
    /// Link degradation on the hop *out of* this VNF: a packet that departs
    /// it while the fault is active takes this much longer to reach the next
    /// VNF, or to leave the chain after the last one. Nothing is added on
    /// the hop into a chain's first VNF.
    LinkDegrade {
        /// Added per-packet latency, seconds.
        extra_latency_s: f64,
    },
}

/// A scheduled fault on one VNF of one chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Target chain index within the scenario.
    pub chain: usize,
    /// Target VNF position within the chain.
    pub vnf: usize,
    /// Activation time.
    pub from: SimTime,
    /// Deactivation time (exclusive).
    pub until: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether the fault is active at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }

    /// Progress through the fault window in [0, 1] (0 outside).
    pub fn progress(&self, now: SimTime) -> f64 {
        if !self.active_at(now) || self.until <= self.from {
            return 0.0;
        }
        (now.0 - self.from.0) as f64 / (self.until.0 - self.from.0) as f64
    }
}

/// The effective degradation state of one VNF at an instant, after folding
/// all active faults together.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Multiplier on the CPU share in (0, 1].
    pub cpu_factor: f64,
    /// Multiplier on service time, ≥ 1.
    pub interference_factor: f64,
    /// Multiplier on queue capacity in (0, 1].
    pub queue_factor: f64,
    /// Added fixed latency, s.
    pub extra_latency_s: f64,
}

impl Default for Degradation {
    fn default() -> Self {
        Self::none()
    }
}

impl Degradation {
    /// No degradation.
    pub fn none() -> Self {
        Self {
            cpu_factor: 1.0,
            interference_factor: 1.0,
            queue_factor: 1.0,
            extra_latency_s: 0.0,
        }
    }

    /// The combined degradation of the faults in `faults` that are active
    /// at `now`, folded in order, whatever VNF each targets.
    pub fn fold<'a>(faults: impl IntoIterator<Item = &'a Fault>, now: SimTime) -> Self {
        let mut d = Self::none();
        for f in faults {
            if f.active_at(now) {
                d.apply(f, now);
            }
        }
        d
    }

    /// Folds the effect of `fault` (active at `now`) into this state.
    pub fn apply(&mut self, fault: &Fault, now: SimTime) {
        match fault.kind {
            FaultKind::CpuThrottle { factor } => {
                self.cpu_factor *= factor.clamp(1e-3, 1.0);
            }
            FaultKind::NoisyNeighbor { factor } => {
                self.interference_factor *= factor.max(1.0);
            }
            FaultKind::MemoryLeak { floor_fraction } => {
                let p = fault.progress(now);
                let floor = floor_fraction.clamp(1e-3, 1.0);
                // Linear decay from 1.0 to floor across the window.
                let f = 1.0 - p * (1.0 - floor);
                self.queue_factor = self.queue_factor.min(f);
            }
            FaultKind::LinkDegrade { extra_latency_s } => {
                self.extra_latency_s += extra_latency_s.max(0.0);
            }
        }
    }
}

/// Computes the combined degradation of chain `chain`, VNF `vnf` at `now`.
pub fn degradation_at(faults: &[Fault], chain: usize, vnf: usize, now: SimTime) -> Degradation {
    Degradation::fold(
        faults.iter().filter(|f| f.chain == chain && f.vnf == vnf),
        now,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(kind: FaultKind) -> Fault {
        Fault {
            chain: 0,
            vnf: 1,
            from: SimTime::from_secs_f64(10.0),
            until: SimTime::from_secs_f64(20.0),
            kind,
        }
    }

    #[test]
    fn activity_window_is_half_open() {
        let f = fault(FaultKind::CpuThrottle { factor: 0.5 });
        assert!(!f.active_at(SimTime::from_secs_f64(9.999)));
        assert!(f.active_at(SimTime::from_secs_f64(10.0)));
        assert!(f.active_at(SimTime::from_secs_f64(19.999)));
        assert!(!f.active_at(SimTime::from_secs_f64(20.0)));
    }

    #[test]
    fn throttle_halves_cpu() {
        let f = fault(FaultKind::CpuThrottle { factor: 0.5 });
        let d = degradation_at(&[f], 0, 1, SimTime::from_secs_f64(15.0));
        assert!((d.cpu_factor - 0.5).abs() < 1e-12);
        assert_eq!(d.interference_factor, 1.0);
    }

    #[test]
    fn leak_decays_linearly() {
        let f = fault(FaultKind::MemoryLeak {
            floor_fraction: 0.2,
        });
        let mid = degradation_at(std::slice::from_ref(&f), 0, 1, SimTime::from_secs_f64(15.0));
        assert!(
            (mid.queue_factor - 0.6).abs() < 1e-9,
            "{}",
            mid.queue_factor
        );
        let start = degradation_at(std::slice::from_ref(&f), 0, 1, SimTime::from_secs_f64(10.0));
        assert!((start.queue_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn faults_compose_multiplicatively() {
        let f1 = fault(FaultKind::CpuThrottle { factor: 0.5 });
        let f2 = fault(FaultKind::CpuThrottle { factor: 0.5 });
        let f3 = fault(FaultKind::NoisyNeighbor { factor: 1.3 });
        let d = degradation_at(&[f1, f2, f3], 0, 1, SimTime::from_secs_f64(12.0));
        assert!((d.cpu_factor - 0.25).abs() < 1e-12);
        assert!((d.interference_factor - 1.3).abs() < 1e-12);
    }

    #[test]
    fn wrong_target_is_untouched() {
        let f = fault(FaultKind::LinkDegrade {
            extra_latency_s: 1e-3,
        });
        let d = degradation_at(std::slice::from_ref(&f), 0, 0, SimTime::from_secs_f64(15.0));
        assert_eq!(d, Degradation::none());
        let d2 = degradation_at(&[f], 1, 1, SimTime::from_secs_f64(15.0));
        assert_eq!(d2, Degradation::none());
    }

    #[test]
    fn degenerate_factors_are_clamped() {
        let f = fault(FaultKind::CpuThrottle { factor: 0.0 });
        let d = degradation_at(std::slice::from_ref(&f), 0, 1, SimTime::from_secs_f64(15.0));
        assert!(d.cpu_factor > 0.0, "clamped away from zero");
        let f2 = fault(FaultKind::NoisyNeighbor { factor: 0.5 });
        let d2 = degradation_at(
            std::slice::from_ref(&f2),
            0,
            1,
            SimTime::from_secs_f64(15.0),
        );
        assert_eq!(d2.interference_factor, 1.0, "neighbour cannot speed you up");
    }
}
