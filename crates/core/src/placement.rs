//! Mapping embedding vectors to memory and producing their values.
//!
//! Fig. 4b of the paper maps embedding vectors (512 B each) to distinct
//! ranks, with the rank selected by index bits. The engine only needs two
//! things from a placement: *where* a vector lives (to generate the DRAM
//! read and to pick the leaf PE it enters the tree through) and *what* its
//! value is (to validate tree outputs functionally). Workload crates
//! implement [`EmbeddingSource`] for realistic table layouts; the built-in
//! [`StripedSource`] reproduces the paper's rank-striped mapping with
//! deterministic synthetic values.

use std::collections::HashMap;

use fafnir_mem::{Location, Topology};

use crate::index::VectorIndex;

/// Provides placement and values for embedding vectors.
pub trait EmbeddingSource {
    /// The DRAM location (rank, bank, row, column) holding the first byte of
    /// the vector.
    fn location_of(&self, index: VectorIndex) -> Location;

    /// The vector's value, `vector_dim` elements long.
    fn value_of(&self, index: VectorIndex) -> Vec<f32>;

    /// The vector's value behind a shared handle.
    ///
    /// The engine materializes one value per unique index per batch; sources
    /// that keep values resident (caches, in-memory tables) can override
    /// this to hand out a reference-counted view instead of copying
    /// `vector_dim * 4` bytes per lookup. The returned slice must be
    /// element-identical to [`EmbeddingSource::value_of`].
    fn shared_value_of(&self, index: VectorIndex) -> std::sync::Arc<[f32]> {
        self.value_of(index).into()
    }

    /// Elements per vector.
    fn vector_dim(&self) -> usize;
}

/// The paper's Fig. 4b layout: vector `i` lives on rank `i mod ranks`,
/// occupying consecutive columns of a row chosen by `i / ranks`, with
/// deterministic pseudo-random values derived from the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedSource {
    topology: Topology,
    vector_dim: usize,
}

impl StripedSource {
    /// A striped source over the given topology and vector dimension.
    #[must_use]
    pub fn new(topology: Topology, vector_dim: usize) -> Self {
        Self { topology, vector_dim }
    }

    /// Bytes per vector.
    #[must_use]
    pub fn vector_bytes(&self) -> usize {
        self.vector_dim * std::mem::size_of::<f32>()
    }

    /// The topology this source stripes over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

/// How a cluster partitions the embedding-index space across shards.
///
/// Each strategy maps every [`VectorIndex`] to exactly one *home* shard.
/// Replication (hot rows present on every shard) layers on top via
/// [`ShardPlan::with_replicated`]; the strategy itself stays a pure
/// function of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Whole tables stay together: shard = table id modulo shard count,
    /// where the table id is `index / rows_per_table` (the
    /// `EmbeddingTableSet` flattening).
    TableWise {
        /// Rows per table in the flattened index space.
        rows_per_table: u32,
    },
    /// Row-wise hash sharding: shard = `splitmix64(index) % shards`.
    /// Statistically balances any access pattern, at the cost of splitting
    /// almost every multi-index query across shards.
    RowHash,
    /// Row-wise contiguous ranges: shard `s` owns indices
    /// `[s * ceil(universe / shards), (s + 1) * ceil(universe / shards))`,
    /// with the last shard absorbing the remainder. Keeps range-local
    /// queries on one shard; skewed traffic concentrates on the shard
    /// owning the hot prefix.
    RowRange {
        /// Total number of indices being partitioned.
        universe: u32,
    },
}

/// The SplitMix64 finalizer: a cheap, well-mixed hash for row sharding.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A snapshot of how indices map to shards: a [`ShardStrategy`] plus a
/// frozen set of replicated (hot) rows present on every shard.
///
/// The replica set is fixed at construction — a *snapshot-consistent*
/// replica set in the sense that every query routed through one plan sees
/// the same ownership, so a row is never half-replicated mid-batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    strategy: ShardStrategy,
    /// Sorted, deduplicated indices replicated on every shard.
    replicated: Vec<VectorIndex>,
}

impl ShardPlan {
    /// A plan over `shards` shards with no replication.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or if the strategy's parameters are
    /// degenerate (`rows_per_table == 0`, `universe == 0`).
    #[must_use]
    pub fn new(shards: usize, strategy: ShardStrategy) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        match strategy {
            ShardStrategy::TableWise { rows_per_table } => {
                assert!(rows_per_table > 0, "tables must have at least one row");
            }
            ShardStrategy::RowRange { universe } => {
                assert!(universe > 0, "range sharding needs a non-empty universe");
            }
            ShardStrategy::RowHash => {}
        }
        Self { shards, strategy, replicated: Vec::new() }
    }

    /// The same plan with `hot` rows replicated to every shard. Input order
    /// and duplicates don't matter; the stored set is sorted and unique.
    #[must_use]
    pub fn with_replicated(mut self, hot: impl IntoIterator<Item = VectorIndex>) -> Self {
        let mut replicated: Vec<VectorIndex> = hot.into_iter().collect();
        replicated.sort_unstable();
        replicated.dedup();
        self.replicated = replicated;
        self
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The partitioning strategy.
    #[must_use]
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// The strategy's CLI-facing name.
    #[must_use]
    pub fn strategy_name(&self) -> &'static str {
        match self.strategy {
            ShardStrategy::TableWise { .. } => "tablewise",
            ShardStrategy::RowHash => "rowhash",
            ShardStrategy::RowRange { .. } => "rowrange",
        }
    }

    /// The frozen replica set (sorted, unique).
    #[must_use]
    pub fn replicated(&self) -> &[VectorIndex] {
        &self.replicated
    }

    /// The shard that owns `index` under the strategy alone, ignoring
    /// replication.
    #[must_use]
    pub fn home_shard(&self, index: VectorIndex) -> usize {
        let value = index.value();
        match self.strategy {
            ShardStrategy::TableWise { rows_per_table } => {
                (value / rows_per_table) as usize % self.shards
            }
            ShardStrategy::RowHash => (splitmix64(u64::from(value)) % self.shards as u64) as usize,
            ShardStrategy::RowRange { universe } => {
                let span = universe.div_ceil(self.shards as u32).max(1);
                ((value / span) as usize).min(self.shards - 1)
            }
        }
    }

    /// Whether `index` is in the replica set (present on every shard).
    #[must_use]
    pub fn is_replicated(&self, index: VectorIndex) -> bool {
        self.replicated.binary_search(&index).is_ok()
    }

    /// Every shard holding `index`: all shards for replicated rows, the
    /// home shard otherwise. The home shard is always `owners(i)[0]` —
    /// replica lists rotate so each shard appears first for some rows.
    #[must_use]
    pub fn owners(&self, index: VectorIndex) -> Vec<usize> {
        let home = self.home_shard(index);
        if self.is_replicated(index) {
            (0..self.shards).map(|offset| (home + offset) % self.shards).collect()
        } else {
            vec![home]
        }
    }
}

/// A multiplicative (Fx-style) hasher for the value cache's small integer
/// keys. SipHash's cost showed on every gathered vector, and its flooding
/// resistance buys little here: the keys are vector indices the simulator
/// generated, and the cache is capped, which bounds what colliding keys
/// could cost.
#[derive(Default)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type BuildKeyHasher = std::hash::BuildHasherDefault<KeyHasher>;

impl EmbeddingSource for StripedSource {
    fn location_of(&self, index: VectorIndex) -> Location {
        let ranks = self.topology.total_ranks();
        let global_rank = index.value() as usize % ranks;
        let slot = index.value() as usize / ranks;
        let bursts_per_vector = self.vector_bytes().div_ceil(self.topology.burst_bytes);
        let vectors_per_row = (self.topology.columns / bursts_per_vector).max(1);
        let banks = self.topology.banks_per_rank();
        // Walk bank-group-major so consecutive slots alternate bank groups
        // (maximizing bank-level parallelism within a rank).
        let flat_bank = slot % banks;
        let row = (slot / banks / vectors_per_row) % self.topology.rows;
        let column = (slot / banks % vectors_per_row) * bursts_per_vector;
        Location {
            channel: global_rank / self.topology.ranks_per_channel(),
            rank: global_rank % self.topology.ranks_per_channel(),
            bank_group: flat_bank / self.topology.banks_per_group,
            bank: flat_bank % self.topology.banks_per_group,
            row,
            column,
        }
    }

    fn value_of(&self, index: VectorIndex) -> Vec<f32> {
        self.shared_value_of(index).to_vec()
    }

    fn shared_value_of(&self, index: VectorIndex) -> std::sync::Arc<[f32]> {
        // Values depend only on (index, dim), so memoizing is functionally
        // transparent; it removes the dominant cost of serving workloads,
        // which revisit a small hot set every batch. Per-thread, capped:
        // no locks on the shared-engine path, bounded memory on huge-
        // universe sweeps (past the cap, misses just compute). Handing out
        // `Arc` views means a cache hit is a refcount bump, not a 512 B
        // copy.
        type ValueCache = HashMap<(u64, usize), std::sync::Arc<[f32]>, BuildKeyHasher>;
        thread_local! {
            static CACHE: std::cell::RefCell<ValueCache> =
                std::cell::RefCell::new(HashMap::default());
        }
        const CACHE_CAP: usize = 32_768;
        let key = (u64::from(index.value()), self.vector_dim);
        CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(value) = cache.get(&key) {
                return std::sync::Arc::clone(value);
            }
            // Deterministic, cheap, and distinct per index: a small LCG
            // seeded by the index, one step per element.
            let mut state = key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let value: std::sync::Arc<[f32]> = (0..self.vector_dim)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    // Map the top bits into a small, well-conditioned float.
                    ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
                })
                .collect();
            if cache.len() < CACHE_CAP {
                cache.insert(key, std::sync::Arc::clone(&value));
            }
            value
        })
    }

    fn vector_dim(&self) -> usize {
        self.vector_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fafnir_mem::MemoryConfig;

    fn source() -> StripedSource {
        StripedSource::new(MemoryConfig::ddr4_2400_4ch().topology, 128)
    }

    #[test]
    fn consecutive_indices_stripe_across_ranks() {
        let source = source();
        let topology = *source.topology();
        let ranks: Vec<usize> =
            (0..32).map(|i| source.location_of(VectorIndex(i)).global_rank(&topology)).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "all 32 ranks covered: {ranks:?}");
    }

    #[test]
    fn locations_are_in_bounds_and_vector_aligned() {
        let source = source();
        let topology = *source.topology();
        for i in (0..100_000).step_by(97) {
            let loc = source.location_of(VectorIndex(i));
            assert!(loc.in_bounds(&topology), "out of bounds for {i}: {loc:?}");
            assert_eq!(loc.column % 8, 0, "512 B vectors start on an 8-burst boundary");
        }
    }

    #[test]
    fn same_rank_vectors_use_different_banks_first() {
        let source = source();
        let topology = *source.topology();
        // Vectors 0, 32, 64 … all live on rank 0; their banks should differ
        // before rows repeat.
        let a = source.location_of(VectorIndex(0));
        let b = source.location_of(VectorIndex(32));
        assert_eq!(a.global_rank(&topology), b.global_rank(&topology));
        assert_ne!(a.flat_bank(&topology), b.flat_bank(&topology));
    }

    #[test]
    fn values_are_deterministic_and_distinct() {
        let source = source();
        let a1 = source.value_of(VectorIndex(7));
        let a2 = source.value_of(VectorIndex(7));
        let b = source.value_of(VectorIndex(8));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.len(), 128);
        assert!(a1.iter().all(|x| x.abs() <= 0.5));
    }

    fn owned_by(plan: &ShardPlan, shard: usize, universe: u32) -> Vec<u32> {
        (0..universe).filter(|&i| plan.home_shard(VectorIndex(i)) == shard).collect()
    }

    #[test]
    fn range_sharding_leaves_tail_shards_empty_on_tiny_universes() {
        // 3 indices over 8 shards: span = ceil(3/8) = 1, so shards 3..8 own
        // nothing. Ownership must still be total and stable.
        let plan = ShardPlan::new(8, ShardStrategy::RowRange { universe: 3 });
        for shard in 0..3 {
            assert_eq!(owned_by(&plan, shard, 3), vec![shard as u32]);
        }
        for shard in 3..8 {
            assert!(owned_by(&plan, shard, 3).is_empty(), "shard {shard} should be empty");
        }
    }

    #[test]
    fn single_row_tables_spread_round_robin() {
        // rows_per_table = 1 degenerates table-wise sharding into
        // index-modulo round-robin.
        let plan = ShardPlan::new(4, ShardStrategy::TableWise { rows_per_table: 1 });
        for i in 0..32 {
            assert_eq!(plan.home_shard(VectorIndex(i)), i as usize % 4);
        }
    }

    #[test]
    fn all_rows_hot_replicates_everything_everywhere() {
        let universe = 16u32;
        let plan = ShardPlan::new(4, ShardStrategy::RowHash)
            .with_replicated((0..universe).map(VectorIndex));
        for i in 0..universe {
            let index = VectorIndex(i);
            assert!(plan.is_replicated(index));
            let mut owners = plan.owners(index);
            owners.sort_unstable();
            assert_eq!(owners, vec![0, 1, 2, 3]);
            // The rotation keeps the home shard first.
            assert_eq!(plan.owners(index)[0], plan.home_shard(index));
        }
    }

    #[test]
    fn range_boundaries_split_exactly_on_span_multiples() {
        // universe = 100, shards = 4 → span = 25: index 24 is the last of
        // shard 0, index 25 the first of shard 1, and so on.
        let plan = ShardPlan::new(4, ShardStrategy::RowRange { universe: 100 });
        for (boundary, shard) in [(24u32, 0usize), (25, 1), (49, 1), (50, 2), (74, 2), (75, 3)] {
            assert_eq!(
                plan.home_shard(VectorIndex(boundary)),
                shard,
                "index {boundary} belongs to shard {shard}"
            );
        }
        // Out-of-universe stragglers clamp to the last shard rather than
        // indexing past it.
        assert_eq!(plan.home_shard(VectorIndex(1_000)), 3);
    }

    #[test]
    fn replica_set_is_sorted_deduped_and_frozen() {
        let plan = ShardPlan::new(2, ShardStrategy::RowHash).with_replicated([
            VectorIndex(9),
            VectorIndex(3),
            VectorIndex(9),
        ]);
        assert_eq!(plan.replicated(), &[VectorIndex(3), VectorIndex(9)]);
        assert!(plan.is_replicated(VectorIndex(3)));
        assert!(!plan.is_replicated(VectorIndex(4)));
        assert_eq!(plan.owners(VectorIndex(4)).len(), 1);
        assert_eq!(plan.owners(VectorIndex(9)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardPlan::new(0, ShardStrategy::RowHash);
    }
}
