//! Fault injection: a seeded, deterministic timeline of scheduled fabric
//! events the engine applies **mid-run**.
//!
//! A [`FaultTimeline`] models the cluster *changing underneath a running
//! collective* — the regime NCCL's watchdog and channel fallback exist
//! for:
//!
//! * **permanent death** ([`FaultTimeline::kill`]) — a link or NIC
//!   direction goes down at time *t* and never returns; any transfer
//!   caught draining (or arriving) on it fails the run with
//!   [`SimError::ResourceDown`](crate::SimError::ResourceDown),
//! * **flapping** ([`FaultTimeline::flap`]) — down/up cycles,
//! * **brownout** ([`FaultTimeline::brownout`]) — bandwidth drops to a
//!   fraction of nominal for a window, transfers just slow down,
//! * **stragglers** ([`FaultTimeline::straggler`]) — a rank's issue
//!   latency is multiplied for a window (a busy or thermally-throttled
//!   GPU), without affecting link capacity.
//!
//! Everything is resolved to primitive [`Fault`] transitions ordered by
//! timestamp, so a timeline replays byte-identically: the same timeline on
//! the same program always produces the same [`SimReport`](crate::SimReport)
//! or the same typed error. [`FaultTimeline::advanced`] shifts the whole
//! timeline into the past, which is how the Communicator's retry layer
//! replays the remainder of a timeline after `elapsed` sim-nanoseconds were
//! already burned by a failed attempt.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rescc_topology::ResourceId;

/// A primitive fault transition at one instant of sim time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The resource stops carrying traffic. In-flight transfers on it fail.
    LinkDown(ResourceId),
    /// The resource returns to service.
    LinkUp(ResourceId),
    /// The resource's bandwidth drops to `factor` (in `(0, 1]`) of nominal.
    Brownout(ResourceId, f64),
    /// The brownout window ends; bandwidth returns to nominal.
    BrownoutEnd(ResourceId),
    /// Transfers issued by `rank` take `multiplier` times their startup
    /// latency from this instant on (1.0 restores nominal issue latency).
    Straggler(u32, f64),
}

impl Fault {
    /// The resource this transition targets, when it targets one.
    pub fn resource(&self) -> Option<ResourceId> {
        match self {
            Fault::LinkDown(r)
            | Fault::LinkUp(r)
            | Fault::Brownout(r, _)
            | Fault::BrownoutEnd(r) => Some(*r),
            Fault::Straggler(_, _) => None,
        }
    }
}

/// One scheduled transition: `fault` fires at `at_ns` of sim time.
///
/// Negative times are legal — they mean "already happened before this
/// attempt started" (produced by [`FaultTimeline::advanced`]) and are
/// applied during engine initialization, in timeline order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Sim time of the transition, ns.
    pub at_ns: f64,
    /// The transition itself.
    pub fault: Fault,
}

/// A deterministic schedule of fault transitions.
///
/// Builder methods append compound events (a flap becomes `cycles` pairs of
/// down/up transitions); the engine sorts stably by timestamp, so two
/// transitions at the same instant apply in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// An empty timeline (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// No transitions scheduled?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled transitions, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Append a raw transition.
    pub fn push(&mut self, at_ns: f64, fault: Fault) -> &mut Self {
        self.events.push(FaultEvent { at_ns, fault });
        self
    }

    /// Kill `res` permanently at `at_ns`.
    pub fn kill(mut self, res: ResourceId, at_ns: f64) -> Self {
        self.push(at_ns, Fault::LinkDown(res));
        self
    }

    /// Restore `res` to service at `at_ns`. Appended after a
    /// [`kill`](Self::kill), this turns the death into a survivable
    /// outage: [`is_permanent_down`](Self::is_permanent_down) becomes
    /// `false`, and a healing recovery layer may fail back to the healthy
    /// plan once the restore is in the past.
    pub fn restore(mut self, res: ResourceId, at_ns: f64) -> Self {
        self.push(at_ns, Fault::LinkUp(res));
        self
    }

    /// Flap `res`: starting at `at_ns`, `cycles` windows of `down_ns` down
    /// followed by `up_ns` up.
    pub fn flap(
        mut self,
        res: ResourceId,
        at_ns: f64,
        down_ns: f64,
        up_ns: f64,
        cycles: u32,
    ) -> Self {
        let period = down_ns + up_ns;
        for c in 0..cycles {
            let start = at_ns + c as f64 * period;
            self.push(start, Fault::LinkDown(res));
            self.push(start + down_ns, Fault::LinkUp(res));
        }
        self
    }

    /// Brown out `res` to `factor` of nominal bandwidth for `duration_ns`
    /// starting at `at_ns`.
    pub fn brownout(mut self, res: ResourceId, at_ns: f64, factor: f64, duration_ns: f64) -> Self {
        self.push(at_ns, Fault::Brownout(res, factor));
        self.push(at_ns + duration_ns, Fault::BrownoutEnd(res));
        self
    }

    /// Make `rank` a straggler: its issue latency is multiplied by
    /// `multiplier` for `duration_ns` starting at `at_ns`.
    pub fn straggler(mut self, rank: u32, at_ns: f64, multiplier: f64, duration_ns: f64) -> Self {
        self.push(at_ns, Fault::Straggler(rank, multiplier));
        self.push(at_ns + duration_ns, Fault::Straggler(rank, 1.0));
        self
    }

    /// The timeline with every timestamp shifted `elapsed_ns` into the
    /// past. Used to replay the *remainder* of a schedule on a retry
    /// attempt: transitions that already fired land at non-positive times
    /// and are applied before the new attempt's first transfer.
    pub fn advanced(&self, elapsed_ns: f64) -> Self {
        Self {
            events: self
                .events
                .iter()
                .map(|e| FaultEvent {
                    at_ns: e.at_ns - elapsed_ns,
                    fault: e.fault,
                })
                .collect(),
        }
    }

    /// Is `res` down for good from the perspective of the whole timeline —
    /// i.e. its last down transition is never followed by an up?
    pub fn is_permanent_down(&self, res: ResourceId) -> bool {
        let mut last: Option<(f64, usize, bool)> = None;
        for (i, e) in self.events.iter().enumerate() {
            let down = match e.fault {
                Fault::LinkDown(r) if r == res => true,
                Fault::LinkUp(r) if r == res => false,
                _ => continue,
            };
            if last.is_none_or(|(t, j, _)| (e.at_ns, i) >= (t, j)) {
                last = Some((e.at_ns, i, down));
            }
        }
        last.is_some_and(|(_, _, down)| down)
    }

    /// Check every transition against the cluster dimensions; the engine
    /// calls this before running.
    pub fn validate(&self, n_resources: u32, n_ranks: u32) -> Result<(), String> {
        for e in &self.events {
            if !e.at_ns.is_finite() {
                return Err(format!("fault timestamp {} is not finite", e.at_ns));
            }
            match e.fault {
                Fault::LinkDown(r) | Fault::LinkUp(r) | Fault::BrownoutEnd(r) => {
                    if r.0 >= n_resources {
                        return Err(format!(
                            "fault targets resource {r}, topology has {n_resources}"
                        ));
                    }
                }
                Fault::Brownout(r, f) => {
                    if r.0 >= n_resources {
                        return Err(format!(
                            "fault targets resource {r}, topology has {n_resources}"
                        ));
                    }
                    if !(f.is_finite() && f > 0.0 && f <= 1.0) {
                        return Err(format!("brownout factor {f} outside (0, 1]"));
                    }
                }
                Fault::Straggler(rank, m) => {
                    if rank >= n_ranks {
                        return Err(format!("straggler rank r{rank}, topology has {n_ranks}"));
                    }
                    if !(m.is_finite() && m >= 1.0) {
                        return Err(format!("straggler multiplier {m} below 1"));
                    }
                }
            }
        }
        Ok(())
    }

    /// A seeded random *chaos* timeline: flaps, brownouts and straggler
    /// windows with permanent kills and killed-then-restored outages in
    /// the mix — the full fault
    /// vocabulary a recovery stack must survive (retry, frontier resume,
    /// mask + recompile, heal). Deterministic per seed. Kills target
    /// resources below `n_resources`; a chaos campaign composes this with
    /// a masking/recompiling dispatcher and asserts the collective still
    /// delivers correct data within bounded retries.
    pub fn seeded_chaos(seed: u64, n_resources: u32, n_ranks: u32, horizon_ns: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tl = Self::new();
        let n_events = 2 + rng.gen_range(0..3);
        for _ in 0..n_events {
            let at = 0.05 * horizon_ns + 0.6 * horizon_ns * rng.gen::<f64>();
            let res = ResourceId::new(rng.gen_range(0..n_resources as u64) as u32);
            match rng.gen_range(0..5) {
                0 => tl = tl.kill(res, at),
                1 => {
                    // A kill that heals: down for a window, then restored.
                    let outage = 0.1 * horizon_ns + 0.2 * horizon_ns * rng.gen::<f64>();
                    tl = tl.kill(res, at).restore(res, at + outage);
                }
                2 => {
                    let down = 50_000.0 + 100_000.0 * rng.gen::<f64>();
                    let up = 200_000.0 + 200_000.0 * rng.gen::<f64>();
                    tl = tl.flap(res, at, down, up, 1 + rng.gen_range(0..2) as u32);
                }
                3 => {
                    let factor = 0.2 + 0.6 * rng.gen::<f64>();
                    tl = tl.brownout(res, at, factor, 0.3 * horizon_ns);
                }
                _ => {
                    let rank = rng.gen_range(0..n_ranks as u64) as u32;
                    let mult = 1.5 + 2.0 * rng.gen::<f64>();
                    tl = tl.straggler(rank, at, mult, 0.2 * horizon_ns);
                }
            }
        }
        tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_expand_to_primitive_transitions() {
        let r = ResourceId::new(3);
        let tl = FaultTimeline::new()
            .flap(r, 100.0, 10.0, 20.0, 2)
            .brownout(r, 500.0, 0.5, 50.0)
            .straggler(1, 0.0, 3.0, 40.0);
        assert_eq!(tl.events().len(), 4 + 2 + 2);
        assert_eq!(
            tl.events()[0],
            FaultEvent {
                at_ns: 100.0,
                fault: Fault::LinkDown(r)
            }
        );
        assert_eq!(tl.events()[3].at_ns, 140.0);
        assert!(!tl.is_permanent_down(r));
        assert!(FaultTimeline::new().kill(r, 7.0).is_permanent_down(r));
        // A kill followed by a later recovery is not permanent.
        assert!(!FaultTimeline::new()
            .kill(r, 7.0)
            .flap(r, 9.0, 1.0, 1.0, 1)
            .is_permanent_down(r));
    }

    #[test]
    fn advanced_shifts_into_the_past() {
        let r = ResourceId::new(0);
        let tl = FaultTimeline::new().kill(r, 1000.0).advanced(1500.0);
        assert_eq!(tl.events()[0].at_ns, -500.0);
        assert!(tl.is_permanent_down(r));
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let tl = FaultTimeline::new().kill(ResourceId::new(99), 1.0);
        assert!(tl.validate(10, 4).is_err());
        assert!(tl.validate(100, 4).is_ok());
        for f in [1.5, 0.0, -1.0, 1.01, f64::NAN] {
            let bad = FaultTimeline::new().brownout(ResourceId::new(0), 1.0, f, 10.0);
            assert!(bad.validate(10, 4).is_err(), "{f}");
        }
        let whole_run = FaultTimeline::new().brownout(ResourceId::new(9), 0.0, 0.5, f64::MAX);
        assert!(whole_run.validate(8, 4).is_err());
        assert!(whole_run.validate(10, 4).is_ok());
        let lazy = FaultTimeline::new().straggler(9, 1.0, 2.0, 10.0);
        assert!(lazy.validate(10, 4).is_err());
        assert!(lazy.validate(10, 16).is_ok());
    }

    #[test]
    fn restore_after_kill_is_not_permanent() {
        let r = ResourceId::new(4);
        let killed = FaultTimeline::new().kill(r, 100.0);
        assert!(killed.is_permanent_down(r));
        let healed = killed.restore(r, 500.0);
        assert!(!healed.is_permanent_down(r));
        // Shifted past the restore, the timeline replays as already-up.
        assert!(!healed.advanced(1000.0).is_permanent_down(r));
    }

    #[test]
    fn seeded_chaos_is_deterministic_and_validates() {
        let a = FaultTimeline::seeded_chaos(3, 40, 8, 1e6);
        let b = FaultTimeline::seeded_chaos(3, 40, 8, 1e6);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.validate(40, 8).is_ok());
        assert_ne!(a, FaultTimeline::seeded_chaos(4, 40, 8, 1e6));
        // Some seed in a small range must produce a permanent kill —
        // chaos without deaths would never exercise the recompile path.
        assert!((0..32).any(|s| {
            let tl = FaultTimeline::seeded_chaos(s, 40, 8, 1e6);
            tl.events()
                .iter()
                .filter_map(|e| e.fault.resource())
                .any(|r| tl.is_permanent_down(r))
        }));
    }
}
