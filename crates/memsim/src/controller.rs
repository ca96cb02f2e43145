//! Per-channel FR-FCFS memory controller.
//!
//! The controller works at *burst* granularity: the [`crate::MemorySystem`]
//! splits every request into 64-byte bursts and enqueues each burst on the
//! channel that owns it. Each command-clock cycle the controller issues at
//! most one command on the channel command bus, picked FR-FCFS:
//!
//! 1. the oldest burst whose row is already open and whose column command is
//!    legal now (the "first-ready" / row-hit-first part), else
//! 2. the oldest burst whose bank is idle and may be activated, else
//! 3. the oldest burst whose bank holds a conflicting row that may be
//!    precharged.
//!
//! Data beats of reads and writes reserve the shared [`DataBus`], which is
//! what serializes rank-parallel accesses on one channel.
//!
//! Bursts are queued **per bank** (in arrival order), so the FR-FCFS scan is
//! O(banks-with-work) per cycle rather than O(window): row-hit candidates are
//! found by checking each active bank's open row against its own queue, and
//! ACT/PRE candidates are always queue fronts. The bounded transaction window
//! ([`SCHED_WINDOW`]) is preserved by computing the window's limiting
//! sequence number — the `SCHED_WINDOW`-th oldest queued burst — and hiding
//! anything younger from the scan, which is exactly the set the previous
//! single-queue `take(SCHED_WINDOW)` scan considered.
//!
//! The controller also knows how to report the earliest future cycle at
//! which *anything* observable could happen ([`ChannelController::
//! next_event_cycle`]), which is what lets [`crate::MemorySystem`]
//! fast-forward the clock over idle gaps without changing a single issue
//! cycle (see DESIGN.md, "Time advance").
//!
//! Simplifications (documented in DESIGN.md): under the closed-page policy
//! the precharge after the last burst to a row does not consume a
//! command-bus slot.

use std::collections::VecDeque;

use crate::address::Location;
use crate::bank::RowOutcome;
use crate::channel::DataBus;
use crate::config::{MemoryConfig, PagePolicy, SchedulerPolicy};
use crate::rank::Rank;
use crate::request::{AccessKind, RequestId};
use crate::stats::MemoryStats;
use crate::verify::{CommandKind, CommandLog, CommandRecord};
use crate::Cycle;

/// One 64-byte burst of a request, as queued at a channel controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstJob {
    /// Owning request.
    pub id: RequestId,
    /// Index of this burst within the request.
    pub burst_index: u32,
    /// Decoded target coordinates.
    pub location: Location,
    /// Read or write.
    pub kind: AccessKind,
    /// Earliest cycle this burst may be served.
    pub arrival: Cycle,
    /// Global submission order, used for FCFS tie-breaking.
    pub seq: u64,
}

/// Outcome of one completed burst, reported back to the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstResult {
    /// Owning request.
    pub id: RequestId,
    /// Index of this burst within the request.
    pub burst_index: u32,
    /// Cycle the column command issued.
    pub issue_cycle: Cycle,
    /// Cycle the last data beat crossed the bus.
    pub finish_cycle: Cycle,
    /// How the burst met the row buffer.
    pub outcome: RowOutcome,
}

/// Book-keeping flags for a queued burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct BurstProgress {
    issued_pre: bool,
    issued_act: bool,
}

/// Scheduling-window size: only the oldest `SCHED_WINDOW` queued bursts are
/// considered for issue each cycle, like a real controller's bounded
/// transaction queue. Keeps per-cycle work O(window) for large backlogs.
pub const SCHED_WINDOW: usize = 48;

/// FR-FCFS controller for one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelController {
    config: MemoryConfig,
    ranks: Vec<Rank>,
    /// Shared channel bus (one entry), or one bus per rank when the
    /// configuration enables the NDP data path.
    buses: Vec<DataBus>,
    /// Per-bank burst queues in submission (seq) order, indexed
    /// `rank * banks_per_rank + flat_bank`. Deques because the scheduler
    /// overwhelmingly removes at or near the front (sequential bursts of
    /// one read are same-row hits issued in seq order).
    bank_queues: Vec<VecDeque<(BurstJob, BurstProgress)>>,
    /// Indices of non-empty entries in `bank_queues` (unordered).
    busy_banks: Vec<usize>,
    /// Total queued bursts across all banks.
    queued: usize,
    /// Every queued burst's `(seq, bank queue index)`, seq-ascending.
    /// Appends go to the back (submission order is global seq order) and
    /// the scheduler only ever removes bursts inside the window — the
    /// `SCHED_WINDOW` smallest — so maintenance is O(window), the window's
    /// limiting seq is O(1), and the set of banks the scheduler needs to
    /// scan at all is the (typically small) set of banks holding window
    /// bursts rather than every busy bank.
    window_seqs: VecDeque<(u64, u32)>,
    /// Distinct bank queues currently holding at least one window burst
    /// (unordered — every scheduler selection is a min over unique seqs or
    /// cycles, so scan order is irrelevant). Maintained incrementally from
    /// `window_bank_count` on enqueue/removal instead of being rebuilt by
    /// deduplicating the window every cycle.
    window_banks: Vec<u32>,
    /// Per bank queue: its index in `window_banks`, or `u32::MAX`.
    window_bank_pos: Vec<u32>,
    /// Per bank queue: number of its bursts inside the scheduling window.
    window_bank_count: Vec<u32>,
    /// Banks per rank, cached for queue indexing.
    banks_per_rank: usize,
    stats: MemoryStats,
    /// Per-rank cycle of the next due refresh (staggered across ranks).
    next_refresh: Vec<Cycle>,
    /// Per-rank cycle until which the rank is blocked by a refresh.
    refresh_until: Vec<Cycle>,
    /// Optional command log for independent timing verification.
    log: Option<CommandLog>,
    /// This controller's channel index (for fault injection).
    channel: usize,
}

impl ChannelController {
    /// A controller for one channel of `config`, all banks idle; channel
    /// index 0 (see [`ChannelController::with_channel`]).
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self::with_channel(config, 0)
    }

    /// A controller knowing its channel index (needed for per-rank fault
    /// injection).
    #[must_use]
    pub fn with_channel(config: MemoryConfig, channel: usize) -> Self {
        let ranks: Vec<Rank> =
            (0..config.topology.ranks_per_channel()).map(|_| Rank::new(&config.topology)).collect();
        let bus_count = if config.ndp_data_path { ranks.len() } else { 1 };
        let rank_count = ranks.len();
        let banks_per_rank = config.topology.banks_per_rank();
        let bank_count = rank_count * banks_per_rank;
        // Stagger refreshes so ranks do not all block at once.
        let next_refresh = (0..rank_count)
            .map(|r| (r as Cycle + 1) * config.timing.tREFI / rank_count.max(1) as Cycle)
            .collect();
        Self {
            config,
            ranks,
            buses: vec![DataBus::new(); bus_count],
            // Built, not cloned: `vec![VecDeque::new(); n]` would clone an
            // empty deque n − 1 times, which dominated construction.
            bank_queues: (0..bank_count).map(|_| VecDeque::new()).collect(),
            busy_banks: Vec::new(),
            queued: 0,
            window_seqs: VecDeque::new(),
            window_banks: Vec::new(),
            window_bank_pos: vec![u32::MAX; bank_count],
            window_bank_count: vec![0; bank_count],
            banks_per_rank,
            stats: MemoryStats::new(),
            next_refresh,
            refresh_until: vec![0; rank_count],
            log: None,
            channel,
        }
    }

    /// Extra read cycles if `rank` is the configured straggler.
    fn straggler_penalty(&self, rank: usize) -> u64 {
        match self.config.straggler {
            Some((channel, straggler_rank, penalty))
                if channel == self.channel && straggler_rank == rank =>
            {
                penalty
            }
            _ => 0,
        }
    }

    /// Starts recording every issued command (see [`crate::verify`]).
    pub fn enable_command_log(&mut self) {
        self.log = Some(CommandLog::new());
    }

    /// Takes the recorded log, leaving logging enabled with a fresh log.
    pub fn take_command_log(&mut self) -> Option<CommandLog> {
        self.log.replace(CommandLog::new())
    }

    /// Records a command if logging is enabled.
    fn record(&mut self, cycle: Cycle, kind: CommandKind, rank: usize, bank: usize, row: usize) {
        if let Some(log) = &mut self.log {
            log.push(CommandRecord { cycle, kind, rank, bank, row });
        }
    }

    /// Index of the data bus serving `rank`.
    fn bus_index(&self, rank: usize) -> usize {
        if self.config.ndp_data_path {
            rank
        } else {
            0
        }
    }

    /// Index into `bank_queues` for (`rank`, `flat_bank`).
    fn queue_index(&self, rank: usize, flat_bank: usize) -> usize {
        rank * self.banks_per_rank + flat_bank
    }

    /// Adds a burst to its bank's queue. Bursts must be enqueued in
    /// increasing `seq` order (the system's global submission order).
    pub fn enqueue(&mut self, job: BurstJob) {
        let qi = self.queue_index(job.location.rank, job.location.flat_bank(&self.config.topology));
        debug_assert!(
            self.bank_queues[qi].back().is_none_or(|(last, _)| last.seq < job.seq),
            "bursts must arrive in seq order"
        );
        if self.bank_queues[qi].is_empty() {
            self.busy_banks.push(qi);
        }
        debug_assert!(self.window_seqs.back().is_none_or(|&(last, _)| last < job.seq));
        self.window_seqs.push_back((job.seq, qi as u32));
        if self.window_seqs.len() <= SCHED_WINDOW {
            self.window_bank_add(qi as u32);
        }
        self.bank_queues[qi].push_back((job, BurstProgress::default()));
        self.queued += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued as u64);
    }

    /// Removes the burst at `pos` of bank queue `qi`, maintaining the busy
    /// set and total count.
    fn remove_job(&mut self, qi: usize, pos: usize) -> (BurstJob, BurstProgress) {
        let entry = self.bank_queues[qi].remove(pos).expect("position in bounds");
        // The scheduler only issues seqs at or below the window limit, i.e.
        // among the SCHED_WINDOW globally oldest — a bounded front scan.
        let seq_at = self
            .window_seqs
            .iter()
            .take(SCHED_WINDOW)
            .position(|&(seq, _)| seq == entry.0.seq)
            .expect("queued burst tracked in window_seqs");
        self.window_seqs.remove(seq_at);
        self.window_bank_remove(qi as u32);
        if self.window_seqs.len() >= SCHED_WINDOW {
            let (_, slid_in) = self.window_seqs[SCHED_WINDOW - 1];
            self.window_bank_add(slid_in);
        }
        self.queued -= 1;
        if self.bank_queues[qi].is_empty() {
            let at = self.busy_banks.iter().position(|&b| b == qi).expect("busy bank tracked");
            self.busy_banks.swap_remove(at);
        }
        entry
    }

    /// True when no bursts are waiting.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queued == 0
    }

    /// Number of queued bursts.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queued
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Zeroes the accumulated counters. Callers are responsible for only
    /// doing this on an idle controller — see
    /// [`crate::MemorySystem::reset_stats`] for the checked phase-boundary
    /// entry point.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Data-bus occupancy trackers (one, or one per rank under the NDP data
    /// path).
    #[must_use]
    pub fn buses(&self) -> &[DataBus] {
        &self.buses
    }

    /// The largest `seq` inside the scheduling window: bursts younger than
    /// this are invisible to the scheduler this cycle.
    ///
    /// The window holds the `SCHED_WINDOW` globally-oldest queued bursts,
    /// which is exactly the `SCHED_WINDOW`-th entry of the sorted
    /// `window_seqs` deque — O(1) per cycle instead of the k-way merge
    /// over bank-queue fronts this used to rebuild every scan.
    fn window_limit_seq(&self) -> u64 {
        if self.queued <= SCHED_WINDOW {
            return u64::MAX;
        }
        self.window_seqs[SCHED_WINDOW - 1].0
    }

    /// Counts one more window burst for bank queue `qi`, adding it to the
    /// scan list on its first. Only banks in that list can legally issue
    /// anything: every issue rule requires `seq <= window_limit_seq()`, and
    /// a bank whose oldest burst is outside the window has no such burst.
    /// Bursts of one read cluster in one bank, so the list is typically far
    /// smaller than the busy-bank set.
    fn window_bank_add(&mut self, qi: u32) {
        let count = &mut self.window_bank_count[qi as usize];
        *count += 1;
        if *count == 1 {
            self.window_bank_pos[qi as usize] = self.window_banks.len() as u32;
            self.window_banks.push(qi);
        }
    }

    /// Counts one window burst gone from bank queue `qi`, dropping it from
    /// the scan list on its last.
    fn window_bank_remove(&mut self, qi: u32) {
        let count = &mut self.window_bank_count[qi as usize];
        *count -= 1;
        if *count == 0 {
            let pos = self.window_bank_pos[qi as usize] as usize;
            self.window_bank_pos[qi as usize] = u32::MAX;
            self.window_banks.swap_remove(pos);
            if let Some(&moved) = self.window_banks.get(pos) {
                self.window_bank_pos[moved as usize] = pos as u32;
            }
        }
    }

    /// Under strict FCFS only the oldest *arrived* burst may issue; returns
    /// its seq (None means no restriction / nothing arrived).
    fn fcfs_only_seq(&self, now: Cycle) -> Option<u64> {
        if self.config.scheduler != SchedulerPolicy::Fcfs {
            return None;
        }
        let mut best: Option<u64> = None;
        for &qi in &self.busy_banks {
            for (job, _) in &self.bank_queues[qi] {
                if best.is_some_and(|b| job.seq >= b) {
                    break; // seq-sorted: nothing older further in
                }
                if job.arrival <= now {
                    best = Some(job.seq);
                    break;
                }
            }
        }
        best
    }

    /// Advances one command-clock cycle, issuing at most one command.
    ///
    /// Completed bursts are appended to `out` (their `finish_cycle` may lie
    /// in the future relative to `now`; the data is in flight).
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<BurstResult>) {
        if self.config.refresh {
            self.service_refreshes(now);
        }
        if let PagePolicy::Adaptive { timeout } = self.config.page_policy {
            self.service_adaptive_closes(now, timeout);
        }
        // The scheduling window and FCFS head are functions of the queue
        // contents only, which no failed issue attempt mutates — compute
        // them once per cycle instead of once per attempted command class.
        let limit = self.window_limit_seq();
        let fcfs_only = self.fcfs_only_seq(now);
        if self.try_issue_column(now, limit, fcfs_only, out) {
            return;
        }
        if self.try_issue_act(now, limit, fcfs_only) {
            return;
        }
        let _ = self.try_issue_pre(now, limit, fcfs_only);
    }

    /// Drains this controller's queue to empty on a private clock starting
    /// at `start`, fast-forwarding over dead cycles exactly like
    /// [`crate::MemorySystem::run_until_idle`]. Returns the local cycle
    /// after the last command issued plus the cycles skipped.
    ///
    /// Only valid while channels are decoupled: with periodic refresh off
    /// and a non-adaptive page policy, every issue decision is a function
    /// of this controller's own state and the cycle number, so draining
    /// channels one at a time issues every command on exactly the same
    /// cycle as the global lockstep driver (the parity suite pins this).
    pub fn drain(&mut self, start: Cycle, out: &mut Vec<BurstResult>) -> (Cycle, u64) {
        debug_assert!(
            !self.config.refresh && !matches!(self.config.page_policy, PagePolicy::Adaptive { .. }),
            "drain requires decoupled channels (no refresh, non-adaptive page policy)"
        );
        let mut now = start;
        let mut skipped = 0;
        while !self.is_idle() {
            self.tick(now, out);
            now += 1;
            // Jump over dead cycles after *every* tick (the lockstep driver
            // only jumps after a globally-empty one): cycles before the next
            // event bound are provably no-ops, issued command or not.
            if let Some(next) = self.next_event_cycle(now) {
                if next > now {
                    skipped += next - now;
                    now = next;
                }
            }
        }
        (now, skipped)
    }

    /// Fires any due refresh: close the rank's banks and block it for tRFC.
    ///
    /// A refresh is deferred while any open row cannot legally precharge
    /// yet (tRAS/tRTP/tWR), exactly as a real controller holds REF behind
    /// the precharge-all.
    fn service_refreshes(&mut self, now: Cycle) {
        let timing = self.config.timing;
        for rank_index in 0..self.ranks.len() {
            if now >= self.next_refresh[rank_index] && now >= self.refresh_until[rank_index] {
                let all_precharge_ready = (0..self.ranks[rank_index].bank_count()).all(|bank| {
                    let bank = self.ranks[rank_index].bank(bank);
                    matches!(bank.state(), crate::bank::BankState::Idle)
                        || bank.pre_ready(now) <= now
                });
                if !all_precharge_ready {
                    continue;
                }
                let rank = &mut self.ranks[rank_index];
                for bank in 0..rank.bank_count() {
                    rank.bank_mut(bank).force_precharge(now);
                }
                self.refresh_until[rank_index] = now + timing.tRFC;
                // Allow drift instead of cascading catch-up refreshes.
                self.next_refresh[rank_index] = now + timing.tREFI;
                self.record(now, CommandKind::Ref, rank_index, 0, 0);
                self.stats.refreshes += 1;
            }
        }
    }

    /// Speculatively closes rows idle past the adaptive timeout with no
    /// queued access (free of command-bus cost, like the closed-page
    /// auto-precharge — see the module docs).
    fn service_adaptive_closes(&mut self, now: Cycle, timeout: u64) {
        let timing = self.config.timing;
        for rank_index in 0..self.ranks.len() {
            for flat in 0..self.ranks[rank_index].bank_count() {
                let bank = self.ranks[rank_index].bank(flat);
                let crate::bank::BankState::Active(open_row) = bank.state() else { continue };
                // Idle long enough? pre_ready is the last activity horizon.
                if now < bank.pre_ready(0).saturating_add(timeout) {
                    continue;
                }
                let qi = self.queue_index(rank_index, flat);
                let wanted =
                    self.bank_queues[qi].iter().any(|(job, _)| job.location.row == open_row);
                if wanted {
                    continue;
                }
                let at = self.ranks[rank_index].bank(flat).pre_ready(now);
                self.record(at, CommandKind::Pre, rank_index, flat, 0);
                self.ranks[rank_index].bank_mut(flat).precharge(at, &timing);
                self.stats.precharges += 1;
            }
        }
    }

    /// True when `rank` is currently blocked by a refresh.
    fn rank_refreshing(&self, rank: usize, now: Cycle) -> bool {
        self.config.refresh && now < self.refresh_until[rank]
    }

    /// The earliest cycle `>= now` at which this controller could do
    /// anything observable: issue a command for a queued burst, fire a
    /// refresh, or speculatively close a row under the adaptive policy.
    ///
    /// Used by [`crate::MemorySystem::run_until_idle`] to fast-forward the
    /// clock over dead cycles. The bound is *conservative-early* (the
    /// controller may land and still find nothing legal, e.g. under FCFS
    /// ordering or command-bus contention, and jump again) but never late:
    /// every term is exact while device state is static, and any state
    /// change before the reported cycle is itself an earlier event. See
    /// DESIGN.md, "Time advance".
    #[must_use]
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        let timing = self.config.timing;
        let mut best = Cycle::MAX;
        // (1) Queued bursts inside the scheduling window. Row hits can issue
        // from any queue position (FR-FCFS bypass); ACT/PRE only ever go to
        // the head of a bank queue, so a blocked non-head burst's progress
        // is bounded by its head's event and needs no term of its own.
        let limit = self.window_limit_seq();
        for &qi in &self.window_banks {
            let qi = qi as usize;
            let rank_index = qi / self.banks_per_rank;
            let flat = qi % self.banks_per_rank;
            let rank = &self.ranks[rank_index];
            let bank = rank.bank(flat);
            let refresh_floor =
                if self.config.refresh { self.refresh_until[rank_index] } else { 0 };
            match bank.state() {
                // Idle bank: every queued row is a miss, and ACT only ever
                // goes to the queue head.
                crate::bank::BankState::Idle => {
                    let job = &self.bank_queues[qi][0].0;
                    if job.seq > limit {
                        continue;
                    }
                    let device_ready = bank.act_ready(now).max(rank.act_ready(now, flat, &timing));
                    best = best.min(device_ready.max(job.arrival).max(refresh_floor).max(now));
                }
                // Open row: hits may issue from any position (FR-FCFS
                // bypass); a conflicting head is bounded by its precharge.
                // Device and bus readiness are per-bank constants, hoisted
                // out of the position scan. The column command must issue
                // exactly tCL/tCWL before its data phase can start on the
                // bus, so an existing bus reservation bounds the issue
                // cycle.
                crate::bank::BankState::Active(open_row) => {
                    let hit_base = bank
                        .column_ready(now)
                        .max(rank.column_ready(now, flat, &timing))
                        .max(refresh_floor)
                        .max(now);
                    let bus_start =
                        self.buses[self.bus_index(rank_index)].earliest_start(rank_index, &timing);
                    let floor_read = bus_start.saturating_sub(timing.tCL);
                    let floor_write = bus_start.saturating_sub(timing.tCWL);
                    // The earliest any hit in this bank could issue,
                    // regardless of kind or arrival.
                    let min_base = hit_base.max(floor_read.min(floor_write));
                    for (pos, (job, _)) in self.bank_queues[qi].iter().enumerate() {
                        if job.seq > limit {
                            break;
                        }
                        if job.location.row == open_row {
                            let base = hit_base.max(match job.kind {
                                AccessKind::Read => floor_read,
                                AccessKind::Write => floor_write,
                            });
                            best = best.min(base.max(job.arrival));
                            if job.arrival <= base && base == min_base {
                                // This hit already issues at the bank's
                                // floor; no later hit here can bound
                                // earlier (only a smaller arrival or a
                                // cheaper kind could, and neither can go
                                // below `min_base`).
                                break;
                            }
                        } else if pos == 0 {
                            let bound =
                                bank.pre_ready(now).max(job.arrival).max(refresh_floor).max(now);
                            best = best.min(bound);
                        }
                    }
                }
            }
        }
        // (2) Refresh fire times: a refresh is observable (Ref record, rank
        // blocked for tRFC) even when no burst is queued, and it is held
        // behind the latest open row's precharge horizon.
        if self.config.refresh {
            for rank_index in 0..self.ranks.len() {
                let rank = &self.ranks[rank_index];
                let mut fire =
                    self.next_refresh[rank_index].max(self.refresh_until[rank_index]).max(now);
                for flat in 0..rank.bank_count() {
                    let bank = rank.bank(flat);
                    if matches!(bank.state(), crate::bank::BankState::Active(_)) {
                        fire = fire.max(bank.pre_ready(now));
                    }
                }
                best = best.min(fire);
            }
        }
        // (3) Adaptive speculative closes of unwanted open rows.
        if let PagePolicy::Adaptive { timeout } = self.config.page_policy {
            for rank_index in 0..self.ranks.len() {
                for flat in 0..self.ranks[rank_index].bank_count() {
                    let bank = self.ranks[rank_index].bank(flat);
                    let crate::bank::BankState::Active(open_row) = bank.state() else { continue };
                    let qi = self.queue_index(rank_index, flat);
                    if self.bank_queues[qi].iter().any(|(job, _)| job.location.row == open_row) {
                        continue;
                    }
                    best = best.min(bank.pre_ready(0).saturating_add(timeout).max(now));
                }
            }
        }
        (best != Cycle::MAX).then_some(best)
    }

    /// Attempts to issue a RD/WR for the oldest ready row-hit burst.
    fn try_issue_column(
        &mut self,
        now: Cycle,
        limit: u64,
        fcfs_only: Option<u64>,
        out: &mut Vec<BurstResult>,
    ) -> bool {
        let timing = self.config.timing;
        let topology = self.config.topology;
        let mut best: Option<(usize, usize, u64)> = None;
        for i in 0..self.window_banks.len() {
            let qi = self.window_banks[i] as usize;
            let rank_index = qi / self.banks_per_rank;
            let flat = qi % self.banks_per_rank;
            if self.rank_refreshing(rank_index, now) {
                continue;
            }
            let rank = &self.ranks[rank_index];
            let bank = rank.bank(flat);
            let crate::bank::BankState::Active(open_row) = bank.state() else { continue };
            if bank.column_ready(now) > now || rank.column_ready(now, flat, &timing) > now {
                continue;
            }
            // The data phase must start exactly when the device produces
            // it; if the bus is busy then, hold the command. Whether it is
            // free at `now + tCL/tCWL` is a per-bank constant, hoisted out
            // of the position scan.
            let bus = &self.buses[self.bus_index(rank_index)];
            let read_ok = bus.ready(now + timing.tCL, rank_index, &timing) == now + timing.tCL;
            let write_ok = bus.ready(now + timing.tCWL, rank_index, &timing) == now + timing.tCWL;
            if !read_ok && !write_ok {
                continue;
            }
            for (pos, (job, _)) in self.bank_queues[qi].iter().enumerate() {
                if job.seq > limit {
                    break;
                }
                if job.arrival > now
                    || job.location.row != open_row
                    || fcfs_only.is_some_and(|only| job.seq != only)
                {
                    continue;
                }
                let bus_free = match job.kind {
                    AccessKind::Read => read_ok,
                    AccessKind::Write => write_ok,
                };
                if !bus_free {
                    continue;
                }
                if best.is_none_or(|(_, _, seq)| job.seq < seq) {
                    best = Some((qi, pos, job.seq));
                }
                break; // later entries in this queue only have larger seqs
            }
        }
        let Some((qi, pos, _)) = best else { return false };
        let (job, progress) = self.remove_job(qi, pos);
        let flat = job.location.flat_bank(&topology);
        let kind = match job.kind {
            AccessKind::Read => CommandKind::Rd,
            AccessKind::Write => CommandKind::Wr,
        };
        self.record(now, kind, job.location.rank, flat, job.location.row);
        let rank = &mut self.ranks[job.location.rank];
        let finish = match job.kind {
            AccessKind::Read => {
                self.stats.reads += 1;
                rank.bank_mut(flat).read(now, &timing)
            }
            AccessKind::Write => {
                self.stats.writes += 1;
                rank.bank_mut(flat).write(now, &timing)
            }
        };
        rank.record_column(now, flat);
        let finish = finish + self.straggler_penalty(job.location.rank);
        let data_start = finish - timing.tBL;
        let bus_index = self.bus_index(job.location.rank);
        self.buses[bus_index].reserve(data_start, timing.tBL, job.location.rank);
        self.stats.bytes_transferred += topology.burst_bytes as u64;
        let outcome = if progress.issued_pre {
            RowOutcome::Conflict
        } else if progress.issued_act {
            RowOutcome::Miss
        } else {
            RowOutcome::Hit
        };
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        self.maybe_auto_precharge(&job, finish);
        out.push(BurstResult {
            id: job.id,
            burst_index: job.burst_index,
            issue_cycle: now,
            finish_cycle: finish,
            outcome,
        });
        true
    }

    /// Attempts to activate the row needed by the oldest head-of-bank burst.
    fn try_issue_act(&mut self, now: Cycle, limit: u64, fcfs_only: Option<u64>) -> bool {
        let timing = self.config.timing;
        let mut best: Option<(usize, u64)> = None;
        for i in 0..self.window_banks.len() {
            let qi = self.window_banks[i] as usize;
            let rank_index = qi / self.banks_per_rank;
            let flat = qi % self.banks_per_rank;
            let (job, _) = &self.bank_queues[qi][0];
            if job.seq > limit
                || job.arrival > now
                || self.rank_refreshing(rank_index, now)
                || fcfs_only.is_some_and(|only| job.seq != only)
            {
                continue;
            }
            let rank = &self.ranks[rank_index];
            let bank = rank.bank(flat);
            if bank.outcome_for(job.location.row) != RowOutcome::Miss {
                continue;
            }
            if bank.act_ready(now) > now || rank.act_ready(now, flat, &timing) > now {
                continue;
            }
            if best.is_none_or(|(_, seq)| job.seq < seq) {
                best = Some((qi, job.seq));
            }
        }
        let Some((qi, _)) = best else { return false };
        let (job, progress) = &mut self.bank_queues[qi][0];
        let flat = job.location.flat_bank(&self.config.topology);
        let row = job.location.row;
        let rank_index = job.location.rank;
        progress.issued_act = true;
        self.record(now, CommandKind::Act, rank_index, flat, row);
        let rank = &mut self.ranks[rank_index];
        rank.bank_mut(flat).activate(now, row, &timing);
        rank.record_act(now, flat);
        self.stats.activations += 1;
        true
    }

    /// Attempts to precharge a bank whose open row blocks its oldest burst.
    fn try_issue_pre(&mut self, now: Cycle, limit: u64, fcfs_only: Option<u64>) -> bool {
        let timing = self.config.timing;
        let mut best: Option<(usize, u64)> = None;
        for i in 0..self.window_banks.len() {
            let qi = self.window_banks[i] as usize;
            let rank_index = qi / self.banks_per_rank;
            let flat = qi % self.banks_per_rank;
            let (job, _) = &self.bank_queues[qi][0];
            if job.seq > limit
                || job.arrival > now
                || self.rank_refreshing(rank_index, now)
                || fcfs_only.is_some_and(|only| job.seq != only)
            {
                continue;
            }
            let rank = &self.ranks[rank_index];
            let bank = rank.bank(flat);
            if bank.outcome_for(job.location.row) != RowOutcome::Conflict {
                continue;
            }
            if bank.pre_ready(now) > now {
                continue;
            }
            if best.is_none_or(|(_, seq)| job.seq < seq) {
                best = Some((qi, job.seq));
            }
        }
        let Some((qi, _)) = best else { return false };
        let (job, progress) = &mut self.bank_queues[qi][0];
        let flat = job.location.flat_bank(&self.config.topology);
        let rank_index = job.location.rank;
        progress.issued_pre = true;
        self.record(now, CommandKind::Pre, rank_index, flat, 0);
        self.ranks[rank_index].bank_mut(flat).precharge(now, &timing);
        self.stats.precharges += 1;
        true
    }

    /// Under the closed-page policy, precharges after the last queued burst
    /// to this row (free of command-bus cost — see module docs).
    fn maybe_auto_precharge(&mut self, job: &BurstJob, data_end: Cycle) {
        if self.config.page_policy != PagePolicy::Closed {
            return;
        }
        let flat = job.location.flat_bank(&self.config.topology);
        let qi = self.queue_index(job.location.rank, flat);
        let more_to_row =
            self.bank_queues[qi].iter().any(|(other, _)| other.location.row == job.location.row);
        if more_to_row {
            return;
        }
        let timing = self.config.timing;
        let rank_index = job.location.rank;
        let bank = self.ranks[rank_index].bank_mut(flat);
        let at = bank.pre_ready(data_end);
        bank.precharge(at, &timing);
        self.record(at, CommandKind::Pre, rank_index, flat, 0);
        self.stats.precharges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressMapping;
    use crate::request::Request;

    fn controller(policy: PagePolicy) -> ChannelController {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.page_policy = policy;
        ChannelController::new(config)
    }

    fn job(seq: u64, location: Location, kind: AccessKind) -> BurstJob {
        BurstJob { id: RequestId(seq), burst_index: 0, location, kind, arrival: 0, seq }
    }

    fn run_to_idle(ctrl: &mut ChannelController) -> Vec<BurstResult> {
        let mut out = Vec::new();
        let mut now = 0;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
            assert!(now < 1_000_000, "controller livelock");
        }
        out
    }

    #[test]
    fn single_read_miss_takes_trcd_plus_tcl_plus_tbl() {
        let mut ctrl = controller(PagePolicy::Open);
        let loc = Location { row: 5, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        let t = crate::config::Timing::ddr4_2400();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].outcome, RowOutcome::Miss);
        assert_eq!(results[0].finish_cycle, t.tRCD + t.tCL + t.tBL);
    }

    #[test]
    fn second_read_to_same_row_is_a_hit() {
        let mut ctrl = controller(PagePolicy::Open);
        let loc = Location { row: 5, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        ctrl.enqueue(job(1, Location { column: 1, ..loc }, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        assert_eq!(results[1].outcome, RowOutcome::Hit);
        assert_eq!(ctrl.stats().row_hits, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
    }

    #[test]
    fn conflicting_row_forces_precharge() {
        let mut ctrl = controller(PagePolicy::Open);
        let bank = Location::default();
        ctrl.enqueue(job(0, Location { row: 1, ..bank }, AccessKind::Read));
        ctrl.enqueue(job(1, Location { row: 2, ..bank }, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        assert_eq!(results[1].outcome, RowOutcome::Conflict);
        assert_eq!(ctrl.stats().precharges, 1);
        assert_eq!(ctrl.stats().activations, 2);
    }

    #[test]
    fn closed_page_precharges_after_last_burst_to_row() {
        let mut ctrl = controller(PagePolicy::Closed);
        let loc = Location { row: 9, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        let _ = run_to_idle(&mut ctrl);
        assert_eq!(ctrl.stats().precharges, 1);
        // A later access to the same row misses (row was closed).
        ctrl.enqueue(job(1, Location { column: 3, ..loc }, AccessKind::Read));
        let mut out = Vec::new();
        let mut now = 200;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out[0].outcome, RowOutcome::Miss);
    }

    #[test]
    fn rank_parallel_reads_overlap() {
        // Two reads to different ranks finish much sooner than 2× a single
        // read, because only their data beats serialize on the bus.
        let mut ctrl = controller(PagePolicy::Open);
        let t = crate::config::Timing::ddr4_2400();
        ctrl.enqueue(job(0, Location { rank: 0, row: 1, ..Location::default() }, AccessKind::Read));
        ctrl.enqueue(job(1, Location { rank: 1, row: 2, ..Location::default() }, AccessKind::Read));
        let results = run_to_idle(&mut ctrl);
        let last = results.iter().map(|r| r.finish_cycle).max().unwrap();
        let single = t.tRCD + t.tCL + t.tBL;
        assert!(last < 2 * single, "no overlap: last={last}, single={single}");
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_over_older_conflict() {
        let mut ctrl = controller(PagePolicy::Open);
        let bank0 = Location::default();
        // Open row 1 on bank 0.
        ctrl.enqueue(job(0, Location { row: 1, ..bank0 }, AccessKind::Read));
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        // Older burst conflicts (row 2, bank 0); younger hits (row 1).
        ctrl.enqueue(BurstJob {
            arrival: now,
            ..job(1, Location { row: 2, ..bank0 }, AccessKind::Read)
        });
        ctrl.enqueue(BurstJob {
            arrival: now,
            ..job(2, Location { row: 1, column: 7, ..bank0 }, AccessKind::Read)
        });
        let results = run_to_idle(&mut ctrl);
        let order: Vec<u64> = results.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![2, 1], "row hit should bypass older conflict");
    }

    #[test]
    fn writes_are_counted_and_complete() {
        let mut ctrl = controller(PagePolicy::Open);
        ctrl.enqueue(job(0, Location { row: 3, ..Location::default() }, AccessKind::Write));
        let results = run_to_idle(&mut ctrl);
        assert_eq!(results.len(), 1);
        assert_eq!(ctrl.stats().writes, 1);
        assert_eq!(ctrl.stats().reads, 0);
    }

    #[test]
    fn adaptive_policy_closes_idle_rows_but_keeps_hot_ones() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.page_policy = PagePolicy::Adaptive { timeout: 100 };
        let mut ctrl = ChannelController::new(config);
        let loc = Location { row: 9, ..Location::default() };
        ctrl.enqueue(job(0, loc, AccessKind::Read));
        let _ = run_to_idle(&mut ctrl);
        // Immediately after: row still open (within timeout).
        let t = config.timing;
        let mut out = Vec::new();
        ctrl.enqueue(BurstJob {
            arrival: 60,
            ..job(1, Location { column: 1, ..loc }, AccessKind::Read)
        });
        let mut now = 60;
        while !ctrl.is_idle() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        assert_eq!(out[0].outcome, RowOutcome::Hit, "hot row stays open");
        // Far beyond the timeout: an idle tick closes it, so a later access
        // to the same row misses.
        for idle in 0..(t.tRAS + 300) {
            ctrl.tick(now + idle, &mut out);
        }
        let late = now + t.tRAS + 400;
        ctrl.enqueue(BurstJob {
            arrival: late,
            ..job(2, Location { column: 2, ..loc }, AccessKind::Read)
        });
        let mut results = Vec::new();
        let mut cycle = late;
        while !ctrl.is_idle() {
            ctrl.tick(cycle, &mut results);
            cycle += 1;
        }
        assert_eq!(results[0].outcome, RowOutcome::Miss, "idle row was closed");
    }

    #[test]
    fn fcfs_never_bypasses_the_oldest_request() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.scheduler = crate::config::SchedulerPolicy::Fcfs;
        let mut ctrl = ChannelController::new(config);
        let bank0 = Location::default();
        // Open row 1 on bank 0.
        ctrl.enqueue(job(0, Location { row: 1, ..bank0 }, AccessKind::Read));
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            ctrl.tick(now, &mut out);
            now += 1;
        }
        // Older conflicting burst, younger row hit: FCFS must serve the
        // conflict first (contrast with the FR-FCFS test above).
        ctrl.enqueue(BurstJob {
            arrival: now,
            ..job(1, Location { row: 2, ..bank0 }, AccessKind::Read)
        });
        ctrl.enqueue(BurstJob {
            arrival: now,
            ..job(2, Location { row: 1, column: 7, ..bank0 }, AccessKind::Read)
        });
        let results = run_to_idle(&mut ctrl);
        let order: Vec<u64> = results.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![1, 2], "FCFS preserves age order");
    }

    #[test]
    fn refresh_blocks_the_rank_and_is_counted() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.refresh = true;
        let mut ctrl = ChannelController::new(config);
        let t = config.timing;
        // A burst arriving exactly when rank 0's first refresh is due must
        // wait out tRFC.
        let due = t.tREFI / config.topology.ranks_per_channel() as u64;
        ctrl.enqueue(BurstJob {
            arrival: due,
            ..job(0, Location { row: 5, ..Location::default() }, AccessKind::Read)
        });
        let mut out = Vec::new();
        let mut now = due;
        while out.is_empty() {
            ctrl.tick(now, &mut out);
            now += 1;
            assert!(now < due + 10 * t.tRFC, "livelock");
        }
        assert!(ctrl.stats().refreshes >= 1);
        // The first command could not issue before the refresh finished.
        assert!(out[0].issue_cycle >= due + t.tRFC, "{} < {}", out[0].issue_cycle, due + t.tRFC);
    }

    #[test]
    fn refresh_disabled_never_fires() {
        let mut ctrl = controller(PagePolicy::Open);
        ctrl.enqueue(job(0, Location::default(), AccessKind::Read));
        let _ = run_to_idle(&mut ctrl);
        assert_eq!(ctrl.stats().refreshes, 0);
    }

    #[test]
    fn request_helper_burst_count_matches_controller_use() {
        // Sanity link between Request::bursts and mapping granularity.
        let config = MemoryConfig::ddr4_2400_4ch();
        let req = Request::read(0, 512);
        assert_eq!(req.bursts(config.topology.burst_bytes), 8);
        let _ = AddressMapping::RowRankBankColumn;
    }

    #[test]
    fn next_event_cycle_is_exact_for_a_future_arrival() {
        let mut ctrl = controller(PagePolicy::Open);
        ctrl.enqueue(BurstJob {
            arrival: 777,
            ..job(0, Location { row: 5, ..Location::default() }, AccessKind::Read)
        });
        assert_eq!(ctrl.next_event_cycle(0), Some(777));
        assert_eq!(ctrl.next_event_cycle(800), Some(800));
    }

    #[test]
    fn next_event_cycle_reports_refresh_on_an_empty_queue() {
        let mut config = MemoryConfig::ddr4_2400_4ch();
        config.refresh = true;
        let ctrl = ChannelController::new(config);
        let first = ctrl.next_event_cycle(0).expect("refresh event");
        let stagger = config.timing.tREFI / config.topology.ranks_per_channel() as u64;
        assert_eq!(first, stagger, "first staggered refresh");
    }
}
