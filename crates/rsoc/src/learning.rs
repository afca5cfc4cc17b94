//! On-line case-base learning — the §5 outlook ("dynamic update mechanisms
//! of Case-Base-data structures … enabling for a self-learning system")
//! wired into the run-time system.
//!
//! After a task completes, the local run-time controller reports the QoS
//! attributes the implementation *actually* achieved. The learner feeds
//! them through the CBR revise/retain policy of [`CbrCycle`]:
//! deviating measurements revise the stored case, novel operating points
//! are retained as new cases. Case-base mutations bump the generation
//! counter, so the allocation manager's bypass tokens invalidate
//! automatically.

use rqfa_core::{AttrBinding, CaseBase, ExecutionTarget, Footprint, Request, Scored, Q15};

use crate::cycle::{CbrCycle, CycleOutcome, LearnAction, LearnPolicy};
use crate::error::RsocError;

/// Statistics of the learning layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Feedback reports processed.
    pub reports: u64,
    /// Reports confirming the stored case.
    pub confirmed: u64,
    /// Cases revised in place.
    pub revised: u64,
    /// New cases retained.
    pub retained: u64,
    /// Reports discarded as inconsistent.
    pub discarded: u64,
}

/// The on-line learner.
#[derive(Debug, Clone)]
pub struct Learner {
    cycle: CbrCycle,
    stats: LearnStats,
}

impl Learner {
    /// Creates a learner with the given policy.
    pub fn new(policy: LearnPolicy) -> Learner {
        Learner {
            // The learner never serves retrievals; the tiny cache exists
            // only because CbrCycle owns one.
            cycle: CbrCycle::new(1).with_policy(policy),
            stats: LearnStats::default(),
        }
    }

    /// Processes one feedback report: the request that was served, the
    /// variant the allocation manager selected (with its similarity), and
    /// the measured attribute values.
    ///
    /// # Errors
    ///
    /// Propagates case-base mutation errors.
    #[allow(clippy::too_many_arguments)]
    pub fn feedback(
        &mut self,
        case_base: &mut CaseBase,
        request: &Request,
        selected: Scored<Q15>,
        measured: &[AttrBinding],
        target: ExecutionTarget,
        footprint: Footprint,
    ) -> Result<LearnAction, RsocError> {
        let outcome = CycleOutcome {
            suggestion: selected,
            bypassed: false,
        };
        let action = self
            .cycle
            .learn(case_base, request, &outcome, measured, target, footprint)?;
        self.stats.reports += 1;
        match action {
            LearnAction::Confirmed => self.stats.confirmed += 1,
            LearnAction::Revised { .. } => self.stats.revised += 1,
            LearnAction::Retained { .. } => self.stats.retained += 1,
            LearnAction::Discarded => self.stats.discarded += 1,
        }
        Ok(action)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> LearnStats {
        self.stats
    }
}

impl Default for Learner {
    fn default() -> Learner {
        Learner::new(LearnPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::{paper, FixedEngine};

    #[test]
    fn retained_case_improves_next_retrieval() {
        let mut cb = paper::table1_case_base();
        let mut learner = Learner::default();
        let engine = FixedEngine::new();

        // An odd operating point: 12-bit mono at 30 kS/s.
        let request = rqfa_core::Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_BITWIDTH, 12)
            .constraint(paper::ATTR_OUTPUT, 0)
            .constraint(paper::ATTR_RATE, 30)
            .build()
            .unwrap();
        let first = engine.retrieve(&cb, &request).unwrap().best.unwrap();
        assert!(first.similarity < Q15::ONE);

        let measured = vec![
            AttrBinding::new(paper::ATTR_BITWIDTH, 12),
            AttrBinding::new(paper::ATTR_OUTPUT, 0),
            AttrBinding::new(paper::ATTR_RATE, 30),
        ];
        let action = learner
            .feedback(
                &mut cb,
                &request,
                first,
                &measured,
                ExecutionTarget::Fpga,
                Footprint::none(),
            )
            .unwrap();
        assert!(matches!(action, LearnAction::Retained { .. }));
        assert_eq!(learner.stats().retained, 1);

        let second = engine.retrieve(&cb, &request).unwrap().best.unwrap();
        assert_eq!(second.similarity, Q15::ONE, "learned case is exact now");
    }

    #[test]
    fn generation_bump_invalidates_tokens() {
        let mut cb = paper::table1_case_base();
        let g0 = cb.generation();
        let mut learner = Learner::default();
        let request = rqfa_core::Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_BITWIDTH, 10)
            .build()
            .unwrap();
        let first = FixedEngine::new().retrieve(&cb, &request).unwrap().best.unwrap();
        learner
            .feedback(
                &mut cb,
                &request,
                first,
                &[AttrBinding::new(paper::ATTR_BITWIDTH, 10)],
                ExecutionTarget::Dsp,
                Footprint::none(),
            )
            .unwrap();
        assert!(cb.generation() > g0);
    }
}
