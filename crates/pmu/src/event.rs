//! Performance events: what a counter counts.
//!
//! Names follow the Intel/AMD nomenclature used throughout the paper
//! (§4.2, Table 3); the simulation reduces each to an increment rule over
//! [`ct_sim::RetireEvent`]s.

use ct_isa::MAX_UOPS;
use ct_sim::RetireEvent;
use serde::{Deserialize, Serialize};

/// A hardware performance event selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PmuEvent {
    /// `INST_RETIRED.ANY` — instructions retired, fixed architectural
    /// counter (Intel; imprecise).
    InstRetiredAny,
    /// `INST_RETIRED.ALL` — instructions retired on a general-purpose
    /// counter with PEBS support (Intel).
    InstRetiredAll,
    /// `INST_RETIRED.PREC_DIST` — the Ivy Bridge precisely-distributed
    /// instructions-retired event (PDIR).
    InstRetiredPrecDist,
    /// `BR_INST_RETIRED.NEAR_TAKEN` — retired taken branches (Ivy Bridge
    /// LBR sampling event).
    BrInstRetiredNearTaken,
    /// `BR_INST_EXEC.TAKEN` — executed taken branches (Westmere LBR
    /// sampling event; identical to retired-taken in this model, which does
    /// not retire wrong-path instructions).
    BrInstExecTaken,
    /// `RETIRED_INSTRUCTIONS` — AMD's standard retired-instructions event
    /// (imprecise).
    AmdRetiredInstructions,
    /// AMD IBS op sampling — counts retired *uops*.
    IbsOp,
}

impl PmuEvent {
    /// How much this event increments for a given retired instruction.
    #[must_use]
    #[inline]
    pub fn increment(self, ev: &RetireEvent) -> u64 {
        match self {
            PmuEvent::InstRetiredAny
            | PmuEvent::InstRetiredAll
            | PmuEvent::InstRetiredPrecDist
            | PmuEvent::AmdRetiredInstructions => 1,
            PmuEvent::BrInstRetiredNearTaken | PmuEvent::BrInstExecTaken => {
                u64::from(ev.is_taken_branch())
            }
            PmuEvent::IbsOp => u64::from(ev.uops),
        }
    }

    /// How much this event increments over a run of retired instructions
    /// that together made `taken` taken transfers and `uops` uops — the
    /// sum of [`PmuEvent::increment`] over them.
    #[must_use]
    #[inline]
    pub fn increment_over(self, insns: u64, taken: u64, uops: u64) -> u64 {
        match self {
            PmuEvent::InstRetiredAny
            | PmuEvent::InstRetiredAll
            | PmuEvent::InstRetiredPrecDist
            | PmuEvent::AmdRetiredInstructions => insns,
            PmuEvent::BrInstRetiredNearTaken | PmuEvent::BrInstExecTaken => taken,
            PmuEvent::IbsOp => uops,
        }
    }

    /// The most [`PmuEvent::increment`] can return for one retired
    /// instruction.
    #[must_use]
    #[inline]
    pub fn max_increment(self) -> u64 {
        match self {
            PmuEvent::IbsOp => u64::from(MAX_UOPS),
            _ => 1,
        }
    }

    /// True when the event counts taken branches (LBR sampling events).
    #[must_use]
    pub fn is_branch_event(self) -> bool {
        matches!(
            self,
            PmuEvent::BrInstRetiredNearTaken | PmuEvent::BrInstExecTaken
        )
    }

    /// The vendor event-name string, for reports and Table 3 output.
    #[must_use]
    pub fn vendor_name(self) -> &'static str {
        match self {
            PmuEvent::InstRetiredAny => "INST_RETIRED.ANY",
            PmuEvent::InstRetiredAll => "INST_RETIRED.ALL",
            PmuEvent::InstRetiredPrecDist => "INST_RETIRED.PREC_DIST",
            PmuEvent::BrInstRetiredNearTaken => "BR_INST_RETIRED.NEAR_TAKEN",
            PmuEvent::BrInstExecTaken => "BR_INST_EXEC.TAKEN",
            PmuEvent::AmdRetiredInstructions => "RETIRED_INSTRUCTIONS",
            PmuEvent::IbsOp => "IBS_OP",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_isa::InsnClass;

    fn ev(uops: u32, taken: Option<u32>) -> RetireEvent {
        RetireEvent {
            addr: 10,
            seq: 0,
            cycle: 0,
            uops,
            class: InsnClass::Alu,
            taken_target: taken,
            mispredicted: false,
        }
    }

    #[test]
    fn instruction_events_count_one() {
        assert_eq!(PmuEvent::InstRetiredAny.increment(&ev(3, None)), 1);
        assert_eq!(PmuEvent::InstRetiredAll.increment(&ev(8, Some(5))), 1);
    }

    #[test]
    fn branch_events_count_taken_only() {
        assert_eq!(PmuEvent::BrInstRetiredNearTaken.increment(&ev(1, None)), 0);
        assert_eq!(
            PmuEvent::BrInstRetiredNearTaken.increment(&ev(1, Some(3))),
            1
        );
        assert!(PmuEvent::BrInstRetiredNearTaken.is_branch_event());
        assert!(!PmuEvent::InstRetiredAny.is_branch_event());
    }

    #[test]
    fn ibs_counts_uops() {
        assert_eq!(PmuEvent::IbsOp.increment(&ev(8, None)), 8);
        assert_eq!(PmuEvent::IbsOp.increment(&ev(1, None)), 1);
    }

    #[test]
    fn bulk_increment_is_the_sum_of_single_increments() {
        let events = [ev(1, None), ev(8, Some(3)), ev(2, Some(0)), ev(6, None)];
        let taken = events.iter().filter(|e| e.is_taken_branch()).count() as u64;
        let uops: u64 = events.iter().map(|e| u64::from(e.uops)).sum();
        for event in [
            PmuEvent::InstRetiredAny,
            PmuEvent::BrInstExecTaken,
            PmuEvent::IbsOp,
        ] {
            let one_by_one: u64 = events.iter().map(|e| event.increment(e)).sum();
            assert_eq!(event.increment_over(4, taken, uops), one_by_one);
            assert!(events
                .iter()
                .all(|e| event.increment(e) <= event.max_increment()));
        }
    }
}
