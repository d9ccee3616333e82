//! The worker control plane: PI-controlled core re-allocation.
//!
//! The control plane "periodically (every 30ms) measures the growth rates of
//! the communication and compute engines' queues. It uses the difference
//! between their growth rates as an error signal for a
//! Proportional-Integral controller. If the control signal is positive, the
//! control plane re-assigns a CPU core from the communication engine type to
//! the compute engine type. If it is negative, it re-assigns a core from the
//! compute engine type to the communication engine type." (paper §5)
//!
//! [`PiController`] is the pure decision logic and [`Step`] one tick of it
//! against the current split: it takes the two queue depths and returns the
//! new split when it changes. Neither owns a thread or reads a clock. The
//! discrete-event simulator steps it at virtual control ticks; a worker node
//! with control on hands it, with the two engine pools, to its timers, which
//! sample the real queues, step and resize the pools every `interval` at the
//! clock the worker's driver, or a stepped worker's caller, keeps anyway.

use std::time::Duration;

use dandelion_common::config::ControllerConfig;

/// The actuation decided by one controller tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreMove {
    /// Move one core from communication to compute engines.
    ToCompute,
    /// Move one core from compute to communication engines.
    ToCommunication,
    /// Leave the allocation unchanged.
    Hold,
}

/// The current split of cores between the two engine types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreAllocation {
    /// Cores assigned to compute engines.
    pub compute: usize,
    /// Cores assigned to communication engines.
    pub communication: usize,
}

impl CoreAllocation {
    /// Creates an allocation.
    pub fn new(compute: usize, communication: usize) -> Self {
        Self {
            compute,
            communication,
        }
    }

    /// Total cores in the allocation.
    pub fn total(&self) -> usize {
        self.compute + self.communication
    }

    /// Applies a move, respecting the minimum cores per engine type.
    pub(crate) fn apply(&self, core_move: CoreMove, min_per_kind: usize) -> CoreAllocation {
        match core_move {
            CoreMove::ToCompute if self.communication > min_per_kind => CoreAllocation {
                compute: self.compute + 1,
                communication: self.communication - 1,
            },
            CoreMove::ToCommunication if self.compute > min_per_kind => CoreAllocation {
                compute: self.compute - 1,
                communication: self.communication + 1,
            },
            _ => *self,
        }
    }
}

/// Proportional-Integral controller over queue growth rates.
#[derive(Debug, Clone)]
pub(crate) struct PiController {
    config: ControllerConfig,
    integral: f64,
    previous_compute_len: Option<usize>,
    previous_communication_len: Option<usize>,
}

impl PiController {
    /// Creates a controller with the given gains.
    pub(crate) fn new(config: ControllerConfig) -> Self {
        Self {
            config,
            integral: 0.0,
            previous_compute_len: None,
            previous_communication_len: None,
        }
    }

    /// Feeds one sample of the two queue depths and returns the actuation.
    ///
    /// The first sample only establishes the baseline and always returns
    /// [`CoreMove::Hold`].
    pub(crate) fn tick(
        &mut self,
        compute_queue_len: usize,
        communication_queue_len: usize,
    ) -> CoreMove {
        let (Some(previous_compute), Some(previous_communication)) =
            (self.previous_compute_len, self.previous_communication_len)
        else {
            self.previous_compute_len = Some(compute_queue_len);
            self.previous_communication_len = Some(communication_queue_len);
            return CoreMove::Hold;
        };
        let compute_growth = compute_queue_len as f64 - previous_compute as f64;
        let communication_growth = communication_queue_len as f64 - previous_communication as f64;
        self.previous_compute_len = Some(compute_queue_len);
        self.previous_communication_len = Some(communication_queue_len);

        // Positive error: the compute queue is growing faster than the
        // communication queue, so compute needs more cores.
        let error = compute_growth - communication_growth;
        self.integral = (self.integral + error).clamp(-100.0, 100.0);
        let signal =
            self.config.proportional_gain * error + self.config.integral_gain * self.integral;

        if signal > self.config.actuation_threshold {
            // Never take a core from a backlogged communication pool to feed
            // an idle compute pool: that only converts noise into starvation.
            if compute_queue_len == 0 && communication_queue_len > 0 {
                return CoreMove::Hold;
            }
            // Bleed the integral when actuating to avoid wind-up oscillation.
            self.integral *= 0.5;
            CoreMove::ToCompute
        } else if signal < -self.config.actuation_threshold {
            if communication_queue_len == 0 && compute_queue_len > 0 {
                return CoreMove::Hold;
            }
            self.integral *= 0.5;
            CoreMove::ToCommunication
        } else {
            CoreMove::Hold
        }
    }
}

/// One control tick: the controller and the split it has decided so far.
#[derive(Debug, Clone)]
pub struct Step {
    controller: PiController,
    allocation: CoreAllocation,
}

impl Step {
    /// A controller with the given gains over the `initial` split.
    pub fn new(config: ControllerConfig, initial: CoreAllocation) -> Self {
        Self {
            controller: PiController::new(config),
            allocation: initial,
        }
    }

    /// The configured control interval.
    pub fn interval(&self) -> Duration {
        self.controller.config.interval
    }

    /// Feeds one sample of the two queue depths; returns the new split when
    /// it differs from the current one (a move the minimum per engine type
    /// forbids is no change).
    pub fn step(&mut self, compute: usize, communication: usize) -> Option<CoreAllocation> {
        let decision = self.controller.tick(compute, communication);
        let next = self
            .allocation
            .apply(decision, self.controller.config.min_cores_per_kind);
        (next != self.allocation).then(|| {
            self.allocation = next;
            next
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> PiController {
        PiController::new(ControllerConfig::default())
    }

    #[test]
    fn first_tick_establishes_baseline() {
        let mut pi = controller();
        assert_eq!(pi.tick(100, 0), CoreMove::Hold);
    }

    #[test]
    fn compute_queue_growth_moves_cores_to_compute() {
        let mut pi = controller();
        pi.tick(0, 0);
        // Compute queue grows by 10 per tick, communication stays flat.
        let mut moves = Vec::new();
        for step in 1..=5 {
            moves.push(pi.tick(step * 10, 0));
        }
        assert!(moves.contains(&CoreMove::ToCompute));
        assert!(!moves.contains(&CoreMove::ToCommunication));
    }

    #[test]
    fn communication_queue_growth_moves_cores_to_communication() {
        let mut pi = controller();
        pi.tick(0, 0);
        let mut moves = Vec::new();
        for step in 1..=5 {
            moves.push(pi.tick(0, step * 10));
        }
        assert!(moves.contains(&CoreMove::ToCommunication));
        assert!(!moves.contains(&CoreMove::ToCompute));
    }

    #[test]
    fn balanced_growth_holds() {
        let mut pi = controller();
        pi.tick(0, 0);
        for step in 1..=10 {
            assert_eq!(pi.tick(step * 5, step * 5), CoreMove::Hold);
        }
    }

    #[test]
    fn draining_queues_reverse_the_allocation() {
        let mut pi = controller();
        pi.tick(0, 0);
        for step in 1..=5 {
            pi.tick(step * 20, 0);
        }
        // Compute queue drains while communication builds up.
        let mut moves = Vec::new();
        for step in 1..=10u32 {
            let compute = 100usize.saturating_sub((step * 20) as usize);
            moves.push(pi.tick(compute, (step * 15) as usize));
        }
        assert!(moves.contains(&CoreMove::ToCommunication));
    }

    #[test]
    fn allocation_respects_minimums() {
        let allocation = CoreAllocation::new(2, 1);
        assert_eq!(allocation.total(), 3);
        // Cannot shrink communication below the minimum of 1.
        assert_eq!(allocation.apply(CoreMove::ToCompute, 1), allocation);
        let grown = allocation.apply(CoreMove::ToCommunication, 1);
        assert_eq!(grown, CoreAllocation::new(1, 2));
        // Cannot shrink compute below the minimum either.
        assert_eq!(grown.apply(CoreMove::ToCommunication, 1), grown);
        assert_eq!(allocation.apply(CoreMove::Hold, 1), allocation);
    }

    /// `Step` by table: a split, the `(compute, communication)` depths fed
    /// one tick each, and what each tick returns.
    #[test]
    fn a_step_returns_the_split_only_when_it_changes() {
        type Case<'a> = (
            &'a str,
            CoreAllocation,
            &'a [(usize, usize)],
            &'a [Option<CoreAllocation>],
        );
        let split = CoreAllocation::new;
        let cases: [Case; 5] = [
            ("the first sample holds", split(2, 2), &[(100, 0)], &[None]),
            (
                "sustained compute growth moves one core",
                split(2, 2),
                &[(0, 0), (10, 0), (20, 0), (30, 0)],
                &[None, Some(split(3, 1)), None, None],
            ),
            (
                "communication growth moves one core back",
                split(2, 2),
                &[(0, 0), (0, 10)],
                &[None, Some(split(1, 3))],
            ),
            (
                "a move past min_cores_per_kind is no change",
                split(3, 1),
                &[(0, 0), (10, 0), (20, 0)],
                &[None, None, None],
            ),
            (
                "balanced growth holds",
                split(2, 2),
                &[(0, 0), (5, 5), (10, 10), (15, 15)],
                &[None, None, None, None],
            ),
        ];
        for (case, initial, depths, expected) in cases {
            let mut step = Step::new(ControllerConfig::default(), initial);
            let returned: Vec<_> = depths
                .iter()
                .map(|&(compute, communication)| step.step(compute, communication))
                .collect();
            assert_eq!(returned, expected, "{case}");
        }
    }
}
