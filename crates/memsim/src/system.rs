//! The user-facing memory system: request submission, simulation driving,
//! and completion collection.

use crate::address::Location;
use crate::config::MemoryConfig;
use crate::controller::{BurstJob, ChannelController};
use crate::request::{Completion, Request, RequestId};
use crate::stats::MemoryStats;
use crate::Cycle;

/// Per-request tracking while its bursts are in flight.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival: Cycle,
    remaining: u32,
    start_cycle: Cycle,
    finish_cycle: Cycle,
    row_hits: u32,
    row_misses: u32,
    row_conflicts: u32,
}

/// Where a request stands.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Some of its bursts are still in flight.
    Pending(Pending),
    /// Finished, waiting for [`MemorySystem::take_completions`].
    Done(Completion),
    /// Finished and taken.
    Taken,
}

/// A complete simulated DDR4 memory system.
///
/// Submit [`Request`]s, then either step cycle-by-cycle with
/// [`MemorySystem::tick`] or drain everything with
/// [`MemorySystem::run_until_idle`], and read back [`Completion`]s.
///
/// ```
/// use fafnir_mem::{MemoryConfig, MemorySystem, Request};
///
/// let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
/// let a = mem.submit(Request::read(0x0000, 512));
/// let b = mem.submit(Request::read(0x8000, 512));
/// mem.run_until_idle();
/// assert!(mem.completion(a).is_some() && mem.completion(b).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemoryConfig,
    controllers: Vec<ChannelController>,
    /// One slot per request id from `id_base` on: ids are dense and
    /// sequential, so a request's slot is `slots[id − id_base]`.
    slots: Vec<Slot>,
    id_base: u64,
    /// Requests in `Slot::Pending`.
    in_flight: usize,
    request_stats: MemoryStats,
    next_id: u64,
    next_seq: u64,
    now: Cycle,
    /// Cycles skipped by event-driven fast-forwarding (diagnostic only;
    /// deliberately not part of [`MemoryStats`] so stepped and
    /// fast-forwarded runs produce identical stats).
    skipped_cycles: u64,
}

impl MemorySystem {
    /// Creates a memory system from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MemoryConfig::validate`].
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("invalid memory config: {e}"));
        let controllers = (0..config.topology.channels)
            .map(|channel| ChannelController::with_channel(config, channel))
            .collect();
        Self {
            config,
            controllers,
            slots: Vec::new(),
            id_base: 0,
            in_flight: 0,
            request_stats: MemoryStats::new(),
            next_id: 0,
            next_seq: 0,
            now: 0,
            skipped_cycles: 0,
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Current simulation cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Submits a request, splitting it into bursts routed to the owning
    /// channels. Returns the id used to look up its [`Completion`].
    pub fn submit(&mut self, request: Request) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let bursts = request.bursts(self.config.topology.burst_bytes) as u32;
        debug_assert_eq!(self.slot_index(id), Some(self.slots.len()));
        self.slots.push(Slot::Pending(Pending {
            arrival: request.arrival,
            remaining: bursts,
            start_cycle: Cycle::MAX,
            finish_cycle: 0,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
        }));
        self.in_flight += 1;
        for burst in 0..bursts {
            let addr = crate::PhysAddr(
                request.addr.0 + u64::from(burst) * self.config.topology.burst_bytes as u64,
            );
            let location = self.config.mapping.decode(addr, &self.config.topology);
            let job = BurstJob {
                id,
                burst_index: burst,
                location,
                kind: request.kind,
                arrival: request.arrival,
                seq: self.next_seq,
            };
            self.next_seq += 1;
            self.controllers[location.channel].enqueue(job);
        }
        id
    }

    /// Convenience: submits a read of `bytes` at the explicit device
    /// `location` (encoded through the configured mapping).
    pub fn submit_read_at(
        &mut self,
        location: Location,
        bytes: usize,
        arrival: Cycle,
    ) -> RequestId {
        let addr = self.config.mapping.encode(location, &self.config.topology);
        self.submit(Request::read(addr.0, bytes).at(arrival))
    }

    /// Advances the simulation one command-clock cycle.
    pub fn tick(&mut self) {
        let mut results = Vec::new();
        for controller in &mut self.controllers {
            controller.tick(self.now, &mut results);
        }
        self.absorb(results);
        self.now += 1;
    }

    /// Folds finished bursts into per-request tracking; requests whose last
    /// burst landed become [`Completion`]s. Every fold is commutative (min
    /// start, max finish, outcome counts, integer sums), so the absorption
    /// order across controllers is immaterial.
    fn absorb(&mut self, results: Vec<crate::controller::BurstResult>) {
        for result in results {
            let Some(slot) = self.slot_index(result.id).and_then(|i| self.slots.get_mut(i)) else {
                continue;
            };
            let Slot::Pending(pending) = slot else { continue };
            pending.start_cycle = pending.start_cycle.min(result.issue_cycle);
            pending.finish_cycle = pending.finish_cycle.max(result.finish_cycle);
            match result.outcome {
                crate::bank::RowOutcome::Hit => pending.row_hits += 1,
                crate::bank::RowOutcome::Miss => pending.row_misses += 1,
                crate::bank::RowOutcome::Conflict => pending.row_conflicts += 1,
            }
            pending.remaining -= 1;
            if pending.remaining == 0 {
                self.in_flight -= 1;
                self.request_stats.requests_completed += 1;
                self.request_stats.total_request_latency +=
                    pending.finish_cycle.saturating_sub(pending.arrival);
                *slot = Slot::Done(Completion {
                    id: result.id,
                    finish_cycle: pending.finish_cycle,
                    start_cycle: pending.start_cycle,
                    row_hits: pending.row_hits,
                    row_misses: pending.row_misses,
                    row_conflicts: pending.row_conflicts,
                });
            }
        }
    }

    /// Runs until every queued burst has issued, then advances the clock to
    /// the last data beat. Returns the final cycle.
    ///
    /// Time advances by **next-event fast-forwarding**: whenever a tick
    /// dequeues nothing, the clock jumps straight to the earliest cycle at
    /// which *any* controller could do something observable (issue a
    /// command, fire a refresh, close an idle row). Controller event bounds
    /// are conservative-early, never late, so every command issues on
    /// exactly the same cycle as the unit-stepped reference
    /// [`MemorySystem::run_until_idle_stepped`] — the parity suite asserts
    /// identical command logs, stats and completions.
    pub fn run_until_idle(&mut self) -> Cycle {
        // Periodic refresh and adaptive closes fire on controllers even
        // while they hold no queued work, coupling every channel to the
        // global clock; those modes keep the lockstep driver.
        if self.config.refresh
            || matches!(self.config.page_policy, crate::config::PagePolicy::Adaptive { .. })
        {
            return self.run_until_idle_lockstep();
        }
        // Otherwise channels share no simulation state, so each controller
        // drains to empty on its own private clock — skipping every cycle
        // on which only *other* channels had events — and issues each
        // command on exactly the same cycle the lockstep driver would.
        let start = self.now;
        let mut end = self.now;
        let mut results = Vec::new();
        for controller in &mut self.controllers {
            if controller.is_idle() {
                continue;
            }
            let (local_end, skipped) = controller.drain(start, &mut results);
            end = end.max(local_end);
            self.skipped_cycles += skipped;
        }
        self.now = end;
        self.absorb(results);
        self.finish_clock()
    }

    /// Lockstep driver: ticks every controller on one shared clock,
    /// fast-forwarding only when *no* controller dequeued anything. Needed
    /// whenever idle controllers still have scheduled events (refresh,
    /// adaptive closes); kept as the general-case fallback.
    fn run_until_idle_lockstep(&mut self) -> Cycle {
        while self.controllers.iter().any(|c| !c.is_idle()) {
            let before = self.total_queued();
            self.tick();
            if self.total_queued() == before {
                // Nothing issued: fast-forward to the next cycle at which
                // any controller (idle ones included — their refreshes must
                // still fire on schedule) could make progress.
                if let Some(next) =
                    self.controllers.iter().filter_map(|c| c.next_event_cycle(self.now)).min()
                {
                    if next > self.now {
                        self.skipped_cycles += next - self.now;
                        self.now = next;
                    }
                }
            }
        }
        self.finish_clock()
    }

    /// Reference driver: identical contract to
    /// [`MemorySystem::run_until_idle`] but advances strictly one cycle at a
    /// time, never jumping the clock. O(total simulated cycles); kept as the
    /// ground truth the fast-forwarding driver is verified against.
    pub fn run_until_idle_stepped(&mut self) -> Cycle {
        while self.controllers.iter().any(|c| !c.is_idle()) {
            self.tick();
        }
        self.finish_clock()
    }

    /// Advances the clock to the last in-flight data beat and returns it.
    fn finish_clock(&mut self) -> Cycle {
        let last_finish = self
            .slots
            .iter()
            .filter_map(|slot| match slot {
                Slot::Done(completion) => Some(completion.finish_cycle),
                _ => None,
            })
            .max()
            .unwrap_or(self.now);
        self.now = self.now.max(last_finish);
        self.now
    }

    /// Cycles the event-driven driver skipped instead of simulating
    /// (diagnostic; always 0 after a purely stepped run).
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// The completion record for `id`, if it has finished.
    #[must_use]
    pub fn completion(&self, id: RequestId) -> Option<&Completion> {
        match self.slots.get(self.slot_index(id)?)? {
            Slot::Done(completion) => Some(completion),
            _ => None,
        }
    }

    /// Index of `id`'s slot, if `id` is not older than the slots.
    fn slot_index(&self, id: RequestId) -> Option<usize> {
        id.0.checked_sub(self.id_base).map(|offset| offset as usize)
    }

    /// Drains and returns all recorded completions (e.g. between batches),
    /// ordered by `(finish_cycle, id)`. Requests still in flight stay
    /// tracked; the slots rebase past the leading taken ones.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        for slot in &mut self.slots {
            if let Slot::Done(completion) = *slot {
                all.push(completion);
                *slot = Slot::Taken;
            }
        }
        all.sort_by_key(|c| (c.finish_cycle, c.id));
        let taken = self
            .slots
            .iter()
            .position(|slot| !matches!(slot, Slot::Taken))
            .unwrap_or(self.slots.len());
        self.slots.drain(..taken);
        self.id_base += taken as u64;
        all
    }

    /// Whether the whole system is quiescent: no request partially
    /// completed and no controller with queued bursts.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.controllers.iter().all(ChannelController::is_idle)
    }

    /// Zeroes every accumulated counter (request-level and per-channel) at
    /// an experiment-phase boundary.
    ///
    /// Resetting while requests are in flight would split one request's
    /// counters across two phases (its bursts issued before the reset
    /// vanish, but its completion latency lands in the new phase), so this
    /// is the checked entry point: it debug-asserts the system is idle.
    /// Drain with [`MemorySystem::run_until_idle`] first.
    ///
    /// The idle check and zeroing both go through
    /// [`MemoryStats::reset_phase`], the same path the fast-functional
    /// model uses, so the phase-reset contract cannot drift between
    /// backends.
    pub fn reset_stats(&mut self) {
        let idle = self.is_idle();
        let (pending, queued) = (self.in_flight, self.total_queued());
        self.request_stats.reset_phase(idle, || {
            format!(
                "{pending} pending requests, {queued} queued bursts — counters of in-flight \
                 work would be split across phases"
            )
        });
        for controller in &mut self.controllers {
            controller.reset_stats();
        }
    }

    /// Merged counters across all channels plus request-level stats.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        let mut merged = self.request_stats;
        for controller in &self.controllers {
            merged.merge(controller.stats());
        }
        merged
    }

    fn total_queued(&self) -> usize {
        self.controllers.iter().map(ChannelController::queue_len).sum()
    }

    /// Starts recording every issued command on every channel (see
    /// [`crate::verify`]).
    pub fn enable_command_logs(&mut self) {
        for controller in &mut self.controllers {
            controller.enable_command_log();
        }
    }

    /// Takes the per-channel command logs (empty if logging was never
    /// enabled); logging stays on with fresh logs.
    pub fn take_command_logs(&mut self) -> Vec<crate::verify::CommandLog> {
        self.controllers.iter_mut().filter_map(ChannelController::take_command_log).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Timing;

    #[test]
    fn vector_read_is_eight_bursts_one_activation() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let id = mem.submit(Request::read(0x10000, 512));
        mem.run_until_idle();
        let done = mem.completion(id).unwrap();
        assert_eq!(done.row_hits + done.row_misses + done.row_conflicts, 8);
        // One activation, seven hits: the vector streams from one row.
        assert_eq!(mem.stats().activations, 1);
        assert_eq!(mem.stats().row_hits, 7);
    }

    #[test]
    fn vector_read_latency_is_activation_plus_burst_stream() {
        let mem_config = MemoryConfig::ddr4_2400_4ch();
        let t = Timing::ddr4_2400();
        let mut mem = MemorySystem::new(mem_config);
        let id = mem.submit(Request::read(0, 512));
        mem.run_until_idle();
        let done = mem.completion(id).unwrap();
        // Lower bound: ACT + tRCD + tCL + 8 bursts at tCCD_L pacing.
        let lower = t.tRCD + t.tCL + 7 * t.tCCD_L.min(t.tBL) + t.tBL;
        assert!(done.finish_cycle >= lower, "{} < {}", done.finish_cycle, lower);
        // And it should not be wildly above that.
        assert!(done.finish_cycle <= lower + 3 * t.tCCD_L, "{}", done.finish_cycle);
    }

    #[test]
    fn reads_to_different_channels_are_fully_parallel() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        // Same-rank-coordinates, different channels.
        let base = crate::Location { row: 1, ..crate::Location::default() };
        let mut ids = Vec::new();
        for channel in 0..4 {
            let loc = crate::Location { channel, ..base };
            ids.push(mem.submit_read_at(loc, 512, 0));
        }
        mem.run_until_idle();
        let finishes: Vec<Cycle> =
            ids.iter().map(|&id| mem.completion(id).unwrap().finish_cycle).collect();
        let spread = finishes.iter().max().unwrap() - finishes.iter().min().unwrap();
        assert_eq!(spread, 0, "channels should not interfere: {finishes:?}");
    }

    #[test]
    fn reads_to_same_bank_different_rows_serialize() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let a = mem.submit_read_at(crate::Location { row: 1, ..Default::default() }, 64, 0);
        let b = mem.submit_read_at(crate::Location { row: 2, ..Default::default() }, 64, 0);
        mem.run_until_idle();
        let fa = mem.completion(a).unwrap().finish_cycle;
        let fb = mem.completion(b).unwrap().finish_cycle;
        let t = Timing::ddr4_2400();
        assert!(fb > fa + t.tRP, "conflict should pay precharge: {fa} vs {fb}");
    }

    #[test]
    fn arrival_cycle_delays_service() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let id = mem.submit(Request::read(0, 64).at(500));
        mem.run_until_idle();
        let done = mem.completion(id).unwrap();
        assert!(done.start_cycle >= 500);
    }

    #[test]
    fn reset_stats_gives_clean_per_phase_counters() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        mem.submit(Request::read(0x10000, 512));
        mem.run_until_idle();
        assert!(mem.is_idle());
        let phase_one = mem.stats();
        assert_eq!(phase_one.reads, 8);
        mem.reset_stats();
        assert_eq!(mem.stats(), MemoryStats::default());
        // Phase two counts only its own work — nothing carried over.
        mem.submit(Request::read(0x20000, 512));
        mem.run_until_idle();
        assert_eq!(mem.stats().reads, 8);
        assert_eq!(mem.stats().requests_completed, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "reset_stats on a busy memory system")]
    fn reset_stats_mid_flight_is_rejected() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        mem.submit(Request::read(0, 512));
        assert!(!mem.is_idle());
        mem.reset_stats(); // Counters of the in-flight read would be split.
    }

    #[test]
    fn take_completions_drains_in_finish_order() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let _ = mem.submit(Request::read(0, 64));
        let _ = mem.submit(Request::read(1 << 20, 64));
        mem.run_until_idle();
        let completions = mem.take_completions();
        assert_eq!(completions.len(), 2);
        assert!(completions[0].finish_cycle <= completions[1].finish_cycle);
        assert!(mem.take_completions().is_empty());
    }

    #[test]
    fn take_completions_leaves_requests_in_flight_trackable() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let early = mem.submit(Request::read(0, 512));
        let late = mem.submit(Request::read(1 << 20, 512).at(5_000));
        while mem.completion(early).is_none() {
            mem.tick();
        }
        let taken = mem.take_completions();
        assert_eq!(taken.iter().map(|c| c.id).collect::<Vec<_>>(), vec![early]);
        assert!(mem.completion(late).is_none(), "still in flight");
        assert!(!mem.is_idle());
        mem.run_until_idle();
        let done = *mem.completion(late).expect("completes after the take");
        assert!(done.start_cycle >= 5_000);
        assert_eq!(mem.take_completions(), vec![done]);
    }

    #[test]
    fn completion_of_a_taken_id_is_none() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let id = mem.submit(Request::read(0, 64));
        mem.run_until_idle();
        assert!(mem.completion(id).is_some());
        assert_eq!(mem.take_completions().len(), 1);
        assert!(mem.completion(id).is_none());
        // Later requests do not resurrect it.
        mem.submit(Request::read(64, 64));
        mem.run_until_idle();
        assert!(mem.completion(id).is_none());
    }

    #[test]
    fn ids_keep_rising_across_takes() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        let mut last = None;
        for round in 0..4u64 {
            let ids: Vec<RequestId> =
                (0..3).map(|i| mem.submit(Request::read((round * 3 + i) << 12, 64))).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            assert!(last.is_none_or(|last| last < ids[0]), "round {round}: {ids:?} after {last:?}");
            last = ids.last().copied();
            mem.run_until_idle();
            assert!(ids.iter().all(|&id| mem.completion(id).is_some()));
            assert_eq!(mem.take_completions().len(), 3);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "2 pending requests")]
    fn reset_stats_message_counts_pending_requests_after_a_take() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        mem.submit(Request::read(0, 512));
        mem.run_until_idle();
        mem.take_completions();
        mem.submit(Request::read(0, 512));
        mem.submit(Request::read(1 << 20, 64));
        mem.reset_stats();
    }

    #[test]
    fn stats_accumulate_across_requests() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        for i in 0..10 {
            mem.submit(Request::read(i * 4096, 512));
        }
        mem.run_until_idle();
        let stats = mem.stats();
        assert_eq!(stats.requests_completed, 10);
        assert_eq!(stats.reads, 80);
        assert!(stats.mean_request_latency() > 0.0);
    }

    #[test]
    fn command_logs_verify_against_jedec_constraints() {
        let config = MemoryConfig::ddr4_2400_4ch();
        let mut mem = MemorySystem::new(config);
        mem.enable_command_logs();
        for i in 0..24u64 {
            // Mixed sizes and overlapping banks/rows.
            mem.submit(Request::read(i * 3_000, if i % 3 == 0 { 512 } else { 64 }));
        }
        mem.run_until_idle();
        for log in mem.take_command_logs() {
            let violations =
                crate::verify::verify_log(&log, &config.timing, config.topology.banks_per_group);
            assert!(violations.is_empty(), "{violations:?}");
        }
    }

    #[test]
    fn channel_interleaved_mapping_spreads_a_stream() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.mapping = crate::AddressMapping::ChannelInterleaved;
        let mut mem = MemorySystem::new(config);
        // A contiguous 2 KB stream: bursts round-robin over the channels, so
        // all four channels carry traffic.
        let id = mem.submit(Request::read(0, 2048));
        mem.run_until_idle();
        assert!(mem.completion(id).is_some());
        let stats = mem.stats();
        assert_eq!(stats.reads, 32);
        // Each channel served 8 bursts: the stream completed much faster
        // than a single-channel serial read would allow.
        let t = config.timing;
        let single_channel_floor = 32 * t.tBL;
        assert!(
            mem.completion(id).unwrap().finish_cycle < single_channel_floor + t.tRCD + t.tCL,
            "interleaving should engage all channels"
        );
    }

    #[test]
    fn straggler_rank_slows_only_its_own_reads() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.straggler = Some((0, 0, 500));
        config.ndp_data_path = true; // per-rank ports: reads are independent
        let mut mem = MemorySystem::new(config);
        let slow = mem.submit_read_at(crate::Location { row: 1, ..Default::default() }, 64, 0);
        let fast =
            mem.submit_read_at(crate::Location { rank: 1, row: 1, ..Default::default() }, 64, 0);
        mem.run_until_idle();
        let slow_done = mem.completion(slow).unwrap().finish_cycle;
        let fast_done = mem.completion(fast).unwrap().finish_cycle;
        assert!(slow_done >= fast_done + 400, "slow {slow_done} vs fast {fast_done}");
    }

    #[test]
    fn run_until_idle_on_empty_system_is_a_noop() {
        let mut mem = MemorySystem::new(MemoryConfig::ddr4_2400_4ch());
        assert_eq!(mem.run_until_idle(), 0);
    }
}
