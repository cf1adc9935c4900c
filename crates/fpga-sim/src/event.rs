//! Discrete-event scheduling primitives.
//!
//! The accelerator's pipeline model is built on [`Timeline`]: per-resource
//! busy-until tracking. Scheduling a segment on a resource starts it at
//! `max(ready, resource_free)` and returns the occupied [`Span`].
//! Composing spans expresses both the *sequential* read–compute–write
//! iteration (all stages on one resource) and the *streamed* iteration
//! (stages on dedicated resources, overlapping).

use crate::cycles::Cycles;

/// Identifies a schedulable hardware resource in a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub usize);

/// A half-open occupied interval `[start, end)` on some resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First busy cycle.
    pub start: Cycles,
    /// One past the last busy cycle.
    pub end: Cycles,
}

impl Span {
    /// A zero-length span at `t`.
    #[must_use]
    pub fn empty_at(t: Cycles) -> Self {
        Self { start: t, end: t }
    }

    /// Duration of the span.
    #[must_use]
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }
}

/// Tracks when each resource becomes free and accumulates per-resource busy
/// cycles (the input to gated-static power accounting).
#[derive(Debug, Clone)]
pub struct Timeline {
    free_at: Vec<Cycles>,
    busy: Vec<Cycles>,
}

impl Timeline {
    /// Creates a timeline for `resources` resources, all free at cycle 0.
    #[must_use]
    pub fn new(resources: usize) -> Self {
        Self {
            free_at: vec![Cycles::ZERO; resources],
            busy: vec![Cycles::ZERO; resources],
        }
    }

    /// Number of tracked resources.
    #[must_use]
    pub fn resources(&self) -> usize {
        self.free_at.len()
    }

    /// Schedules a segment of `duration` on `r`, starting no earlier than
    /// `ready` and no earlier than the resource's previous segment end.
    /// Returns the occupied span. Zero-duration segments return an empty
    /// span at the resolved start time without occupying the resource.
    pub fn schedule(&mut self, r: ResourceId, ready: Cycles, duration: Cycles) -> Span {
        let start = ready.max(self.free_at[r.0]);
        if duration == Cycles::ZERO {
            return Span::empty_at(start);
        }
        let end = start + duration;
        self.free_at[r.0] = end;
        self.busy[r.0] += duration;
        Span { start, end }
    }

    /// When resource `r` becomes free.
    #[must_use]
    pub fn free_at(&self, r: ResourceId) -> Cycles {
        self.free_at[r.0]
    }

    /// Total busy cycles accumulated on `r`.
    #[must_use]
    pub fn busy(&self, r: ResourceId) -> Cycles {
        self.busy[r.0]
    }

    /// The latest end time across all resources (makespan).
    #[must_use]
    pub fn makespan(&self) -> Cycles {
        self.free_at.iter().copied().fold(Cycles::ZERO, Cycles::max)
    }

    /// Advances every resource's free-at to at least `t` (a barrier),
    /// without accruing busy time.
    pub fn barrier(&mut self, t: Cycles) {
        for f in &mut self.free_at {
            *f = (*f).max(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_respects_ready_and_busy() {
        let mut tl = Timeline::new(2);
        let r = ResourceId(0);
        let s1 = tl.schedule(r, Cycles(5), Cycles(10));
        assert_eq!(
            s1,
            Span {
                start: Cycles(5),
                end: Cycles(15)
            }
        );
        // Ready earlier than resource-free: starts when the resource frees.
        let s2 = tl.schedule(r, Cycles(0), Cycles(3));
        assert_eq!(s2.start, Cycles(15));
        assert_eq!(tl.busy(r), Cycles(13));
        // Other resource is untouched.
        assert_eq!(tl.free_at(ResourceId(1)), Cycles::ZERO);
    }

    #[test]
    fn zero_duration_does_not_occupy() {
        let mut tl = Timeline::new(1);
        let r = ResourceId(0);
        let s = tl.schedule(r, Cycles(7), Cycles::ZERO);
        assert_eq!(s.duration(), Cycles::ZERO);
        assert_eq!(tl.free_at(r), Cycles::ZERO);
        assert_eq!(tl.busy(r), Cycles::ZERO);
    }

    #[test]
    fn makespan_is_max_over_resources() {
        let mut tl = Timeline::new(3);
        tl.schedule(ResourceId(0), Cycles(0), Cycles(10));
        tl.schedule(ResourceId(2), Cycles(5), Cycles(20));
        assert_eq!(tl.makespan(), Cycles(25));
    }

    #[test]
    fn barrier_pushes_free_at_forward() {
        let mut tl = Timeline::new(2);
        tl.schedule(ResourceId(0), Cycles(0), Cycles(4));
        tl.barrier(Cycles(100));
        let s = tl.schedule(ResourceId(1), Cycles(0), Cycles(1));
        assert_eq!(s.start, Cycles(100));
        // Barrier accrues no busy time.
        assert_eq!(tl.busy(ResourceId(1)), Cycles(1));
    }

    #[test]
    fn overlap_on_distinct_resources() {
        // Read on r0 and compute on r1 can overlap; the classic pipeline
        // shape: second tile's read overlaps first tile's compute.
        let mut tl = Timeline::new(2);
        let read = ResourceId(0);
        let comp = ResourceId(1);
        let r1 = tl.schedule(read, Cycles(0), Cycles(10));
        let c1 = tl.schedule(comp, r1.end, Cycles(10));
        let r2 = tl.schedule(read, r1.end, Cycles(10));
        let c2 = tl.schedule(comp, r2.end.max(c1.end), Cycles(10));
        assert_eq!(r2.start, Cycles(10), "tile-2 read overlaps tile-1 compute");
        assert_eq!(c2.end, Cycles(30), "steady state: one stage per 10 cycles");
    }
}
