//! The retirement-event stream: what every measurement tool observes.

use ct_isa::{Addr, InsnClass};

/// One retired instruction, as visible to the PMU and to instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Address of the retired instruction.
    pub addr: Addr,
    /// Retirement sequence number (0-based instruction count).
    pub seq: u64,
    /// Cycle at which the instruction retired. Multiple instructions may
    /// share a cycle — that is the retirement *burst* the paper's Callchain
    /// analysis blames ("out-of-order clustering of uops ... retired in
    /// bursts").
    pub cycle: u64,
    /// Number of uops the instruction decodes into (IBS samples these).
    pub uops: u32,
    /// Instruction class.
    pub class: InsnClass,
    /// `Some(target)` when the instruction was a *taken* control transfer
    /// (taken conditional branch, jump, call or return) — exactly the
    /// transfers an LBR records.
    pub taken_target: Option<Addr>,
    /// True when this instruction was a mispredicted branch (adds a
    /// retirement bubble after it).
    pub mispredicted: bool,
}

impl RetireEvent {
    /// True when the event is a taken control transfer (LBR-visible).
    #[must_use]
    pub fn is_taken_branch(&self) -> bool {
        self.taken_target.is_some()
    }
}

/// Observer of the retirement stream.
///
/// [`crate::Cpu::run`] delivers every retired instruction to
/// [`RetireObserver::on_retire`], in program order, whatever the methods
/// below return. [`crate::Cpu::run_observed`], which drives exactly one
/// observer, honours a *quiet horizon*: after each delivered event it
/// asks [`RetireObserver::quiet_for`] how many of the following
/// retirements the observer can take as a summary. Those retirements
/// reach the observer only as one [`RetireObserver::on_skipped`] call
/// (their instruction, taken-transfer and uop counts), made just before
/// the next delivered event or before `on_finish`. Taken transfers inside
/// a quiet stretch are still delivered one by one when
/// [`RetireObserver::needs_taken`] says so; each such delivery is
/// preceded by the skip summary up to it, and the stretch goes on to its
/// end (`quiet_for` is asked again only after the event at the end of
/// the horizon). An observer may return a horizon only when
/// processing those retirements one by one could not change anything
/// but the counts `on_skipped` receives. The defaults (horizon 0) keep
/// the per-event path, so observers that need every event need do
/// nothing.
///
/// Implementations must be cheap: `on_retire` can run once per retired
/// instruction.
pub trait RetireObserver {
    /// Called for a retired instruction in program order: for every one,
    /// except the retirements inside a quiet stretch (see the trait docs).
    fn on_retire(&mut self, ev: &RetireEvent);

    /// Called once when execution finishes, with the final cycle count.
    /// Deferred work (e.g. a PMI still in flight) can be resolved here.
    fn on_finish(&mut self, _final_cycle: u64) {}

    /// How many upcoming retirements (after the event just delivered, or
    /// from the start of the run) this observer may take as a summary.
    #[inline]
    fn quiet_for(&self) -> u64 {
        0
    }

    /// True when taken control transfers must be delivered to `on_retire`
    /// even inside a quiet stretch.
    #[inline]
    fn needs_taken(&self) -> bool {
        false
    }

    /// Summary of `insns` consecutive retirements that were not delivered:
    /// `taken` of them were taken control transfers and together they
    /// decoded into `uops` uops. Never called with `insns == 0`.
    #[inline]
    fn on_skipped(&mut self, _insns: u64, _taken: u64, _uops: u64) {}
}

/// A no-op observer, useful as a placeholder in generic code.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RetireObserver for NullObserver {
    fn on_retire(&mut self, _ev: &RetireEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taken_branch_flag() {
        let mut ev = RetireEvent {
            addr: 0,
            seq: 0,
            cycle: 0,
            uops: 1,
            class: InsnClass::Branch,
            taken_target: None,
            mispredicted: false,
        };
        assert!(!ev.is_taken_branch());
        ev.taken_target = Some(5);
        assert!(ev.is_taken_branch());
    }
}
