//! Deterministic operation-fault injection: program/erase-status failures.
//!
//! Real NAND does not only corrupt bits (the [`crate::ReliabilityConfig`]
//! model) — whole *operations* fail. A program can end with status failure
//! (the page contents are then undefined), an erase can fail to restore the
//! erased state, and blocks accumulating such failures are "grown bad" and
//! must be retired. The management layer above is only production-grade if
//! every one of these outcomes has a defined host-visible recovery path.
//!
//! A [`FaultPlan`] describes *when* operations fail, in two composable ways:
//!
//! * **Per-op probabilities** drawn from a dedicated seeded RNG (independent
//!   of the bit-error RNG, so enabling faults never perturbs the
//!   interference stream).
//! * **Scripted faults** that fail exactly the nth operation of a class —
//!   the tool for regression tests and worst-case bursts.
//!
//! The default plan is inert: it consumes no RNG draws and adds no
//! branches beyond a single flag test, so a zero-fault configuration is
//! bit-identical to a build without the subsystem.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Operation class a fault targets. Ops are counted per class from device
/// creation, so scripted faults address "the nth erase" etc. directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Full-page program.
    Program,
    /// Partial program (in-place delta append).
    DeltaProgram,
    /// Block erase.
    Erase,
}

/// One scripted fault: fail exactly the `nth` operation (0-based, counted
/// per class since device creation) of class `op`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedFault {
    /// Operation class to fail.
    pub op: FaultOp,
    /// 0-based per-class operation index to fail.
    pub nth: u64,
    /// Whether the fault is permanent (grows the block bad). Ignored for
    /// erases and delta appends — see [`FaultPlan`] semantics.
    pub permanent: bool,
}

/// Seeded description of which flash operations fail and how.
///
/// Semantics per class:
///
/// * **Program** — a transient failure leaves the page undefined but the
///   block healthy (an immediate retry may succeed); a permanent one
///   retires the block as grown bad.
/// * **DeltaProgram** — always transient for the block: the append is
///   refused, the page keeps its pre-append contents, and the host is
///   expected to fall back to a full out-of-place write.
/// * **Erase** — always permanent: a block that no longer erases is grown
///   bad by definition and is retired on the spot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the fault RNG (independent of the device's bit-error RNG).
    pub seed: u64,
    /// Probability that one full-page program reports status failure.
    pub program_fail_prob: f64,
    /// Probability that one partial program (delta append) fails.
    pub delta_fail_prob: f64,
    /// Probability that one block erase reports status failure.
    pub erase_fail_prob: f64,
    /// Fraction of probabilistic *program* failures that are permanent
    /// (grow the block bad) rather than transient.
    pub permanent_fraction: f64,
    /// Scripted faults, checked before the probabilistic draw.
    pub scripted: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// Whether the plan can ever trigger a fault. An inactive plan makes
    /// the injector a pure no-op (no RNG draws, no op counting).
    pub fn is_active(&self) -> bool {
        self.program_fail_prob > 0.0
            || self.delta_fail_prob > 0.0
            || self.erase_fail_prob > 0.0
            || !self.scripted.is_empty()
    }

    /// Uniform per-op failure probability across all three classes, with
    /// the given permanent fraction for programs — the "fault storm" shape.
    pub fn storm(seed: u64, per_op_prob: f64, permanent_fraction: f64) -> Self {
        FaultPlan {
            seed,
            program_fail_prob: per_op_prob,
            delta_fail_prob: per_op_prob,
            erase_fail_prob: per_op_prob,
            permanent_fraction,
            scripted: Vec::new(),
        }
    }

    /// Append one scripted fault (builder-style).
    pub fn with_scripted(mut self, op: FaultOp, nth: u64, permanent: bool) -> Self {
        self.scripted.push(ScriptedFault { op, nth, permanent });
        self
    }
}

/// Verdict of the injector for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultVerdict {
    /// The operation proceeds normally.
    Pass,
    /// The operation fails; retry may succeed, the block stays healthy.
    Transient,
    /// The operation fails and the block is grown bad (retire it).
    Permanent,
}

/// Runtime state: the plan, its dedicated RNG and per-class op counters.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    /// Ops seen per class, indexed by `FaultOp as usize`.
    counts: [u64; 3],
    active: bool,
}

impl FaultInjector {
    /// Build from a plan. The RNG seed is decorrelated from the device
    /// seed by construction (the plan carries its own).
    pub fn new(plan: FaultPlan) -> Self {
        let active = plan.is_active();
        let rng = StdRng::seed_from_u64(plan.seed ^ 0xFA_17_FA_17);
        FaultInjector { plan, rng, counts: [0; 3], active }
    }

    /// Decide the fate of the next operation of class `op`. Inactive plans
    /// return [`FaultVerdict::Pass`] without counting or drawing.
    pub fn check(&mut self, op: FaultOp) -> FaultVerdict {
        if !self.active {
            return FaultVerdict::Pass;
        }
        let n = self.counts[op as usize];
        self.counts[op as usize] += 1;
        if let Some(s) = self.plan.scripted.iter().find(|s| s.op == op && s.nth == n) {
            return Self::classify(op, s.permanent);
        }
        let prob = match op {
            FaultOp::Program => self.plan.program_fail_prob,
            FaultOp::DeltaProgram => self.plan.delta_fail_prob,
            FaultOp::Erase => self.plan.erase_fail_prob,
        };
        if prob > 0.0 && self.rng.gen::<f64>() < prob {
            let permanent =
                op == FaultOp::Program && self.rng.gen::<f64>() < self.plan.permanent_fraction;
            return Self::classify(op, permanent);
        }
        FaultVerdict::Pass
    }

    /// Map the raw permanent flag onto the per-class semantics documented
    /// on [`FaultPlan`].
    fn classify(op: FaultOp, permanent: bool) -> FaultVerdict {
        match op {
            FaultOp::Erase => FaultVerdict::Permanent,
            FaultOp::DeltaProgram => FaultVerdict::Transient,
            FaultOp::Program => {
                if permanent {
                    FaultVerdict::Permanent
                } else {
                    FaultVerdict::Transient
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(plan);
        for _ in 0..100 {
            assert_eq!(inj.check(FaultOp::Program), FaultVerdict::Pass);
            assert_eq!(inj.check(FaultOp::Erase), FaultVerdict::Pass);
        }
        // An inactive injector must not even count ops (zero-overhead path).
        assert_eq!(inj.counts, [0; 3]);
    }

    #[test]
    fn scripted_fault_hits_exactly_the_nth_op() {
        let plan = FaultPlan::default().with_scripted(FaultOp::Program, 2, false).with_scripted(
            FaultOp::Erase,
            0,
            true,
        );
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.check(FaultOp::Program), FaultVerdict::Pass);
        assert_eq!(inj.check(FaultOp::Program), FaultVerdict::Pass);
        assert_eq!(inj.check(FaultOp::Program), FaultVerdict::Transient);
        assert_eq!(inj.check(FaultOp::Program), FaultVerdict::Pass);
        assert_eq!(inj.check(FaultOp::Erase), FaultVerdict::Permanent);
        assert_eq!(inj.check(FaultOp::Erase), FaultVerdict::Pass);
    }

    #[test]
    fn per_class_semantics() {
        // Erase faults are always permanent, delta faults always transient,
        // even when the script says otherwise.
        let plan = FaultPlan::default()
            .with_scripted(FaultOp::Erase, 0, false)
            .with_scripted(FaultOp::DeltaProgram, 0, true)
            .with_scripted(FaultOp::Program, 0, true);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.check(FaultOp::Erase), FaultVerdict::Permanent);
        assert_eq!(inj.check(FaultOp::DeltaProgram), FaultVerdict::Transient);
        assert_eq!(inj.check(FaultOp::Program), FaultVerdict::Permanent);
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let mk = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::storm(seed, 0.1, 0.5));
            (0..200).map(|_| inj.check(FaultOp::Program)).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        // Some faults trigger at 10% over 200 ops.
        assert!(mk(7).iter().any(|v| *v != FaultVerdict::Pass));
    }

    #[test]
    fn storm_plan_is_active() {
        assert!(FaultPlan::storm(1, 1e-3, 0.25).is_active());
        assert!(FaultPlan::default().with_scripted(FaultOp::Erase, 5, true).is_active());
    }
}
