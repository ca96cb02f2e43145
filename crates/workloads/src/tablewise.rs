//! DLRM-style table-wise query generation.
//!
//! Production recommendation models look up *every* embedding table once
//! (or a few times) per inference, pooling multi-hot features per table —
//! rather than sampling q indices from one global pool. This generator
//! models that: a query draws one index from each of a configurable subset
//! of tables, with per-table Zipf popularity, producing exactly the
//! cross-table gather pattern the paper's Fig. 4b layout serves (each table
//! striped over the ranks).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fafnir_core::{Batch, IndexSet};

use crate::embedding::EmbeddingTableSet;
use crate::zipf::Zipf;

/// Generates queries that gather one row from each of `tables_per_query`
/// embedding tables.
///
/// # Examples
///
/// ```
/// use fafnir_mem::MemoryConfig;
/// use fafnir_workloads::{EmbeddingTableSet, TablewiseGenerator};
///
/// let tables = EmbeddingTableSet::new(
///     MemoryConfig::ddr4_2400_4ch().topology, 32, 4_096, 128);
/// let mut generator = TablewiseGenerator::new(&tables, 8, 1.05, 7);
/// assert_eq!(generator.query().len(), 8); // one row from each of 8 tables
/// ```
#[derive(Debug, Clone)]
pub struct TablewiseGenerator {
    tables: u32,
    rows_per_table: u32,
    tables_per_query: usize,
    per_table: Zipf,
    rng: StdRng,
}

impl TablewiseGenerator {
    /// Creates a generator over a table set: each query samples
    /// `tables_per_query` distinct tables and one Zipf(θ)-popular row from
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `tables_per_query` is zero or exceeds the table count.
    #[must_use]
    pub fn new(
        tables: &EmbeddingTableSet,
        tables_per_query: usize,
        exponent: f64,
        seed: u64,
    ) -> Self {
        assert!(
            tables_per_query > 0 && tables_per_query <= tables.tables() as usize,
            "tables_per_query must be in 1..={}",
            tables.tables()
        );
        Self {
            tables: tables.tables(),
            rows_per_table: tables.rows_per_table(),
            tables_per_query,
            per_table: Zipf::new(u64::from(tables.rows_per_table()), exponent),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One query: a distinct table subset, one popular row per table.
    pub fn query(&mut self) -> IndexSet {
        // Sample distinct tables by partial Fisher-Yates over table ids.
        let mut table_ids: Vec<u32> = (0..self.tables).collect();
        for slot in 0..self.tables_per_query {
            let pick = self.rng.gen_range(slot..table_ids.len());
            table_ids.swap(slot, pick);
        }
        table_ids[..self.tables_per_query]
            .iter()
            .map(|&table| {
                let row = self.per_table.sample(&mut self.rng) as u32;
                fafnir_core::VectorIndex::from_table_row(table, row, self.rows_per_table)
            })
            .collect()
    }

    /// A batch of `batch_size` queries.
    pub fn batch(&mut self, batch_size: usize) -> Batch {
        (0..batch_size).map(|_| self.query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fafnir_mem::MemoryConfig;

    fn tables() -> EmbeddingTableSet {
        EmbeddingTableSet::new(MemoryConfig::ddr4_2400_4ch().topology, 32, 4_096, 128)
    }

    #[test]
    fn queries_touch_distinct_tables() {
        let set = tables();
        let mut generator = TablewiseGenerator::new(&set, 16, 1.05, 1);
        for _ in 0..20 {
            let query = generator.query();
            assert_eq!(query.len(), 16);
            let mut seen = std::collections::HashSet::new();
            for index in query.iter() {
                let (table, row) = set.coordinates_of(index);
                assert!(seen.insert(table), "table {table} sampled twice");
                assert!(row < set.rows_per_table());
            }
        }
    }

    #[test]
    fn hot_rows_repeat_across_queries() {
        let set = tables();
        let mut generator = TablewiseGenerator::new(&set, 16, 1.3, 2);
        let batch = generator.batch(32);
        assert!(
            batch.unique_fraction() < 0.9,
            "per-table skew should produce sharing: {}",
            batch.unique_fraction()
        );
    }

    #[test]
    fn full_fanout_covers_every_table() {
        let set = tables();
        let mut generator = TablewiseGenerator::new(&set, 32, 1.0, 3);
        let query = generator.query();
        let touched: std::collections::HashSet<u32> =
            query.iter().map(|index| set.coordinates_of(index).0).collect();
        assert_eq!(touched.len(), 32);
    }

    #[test]
    #[should_panic(expected = "tables_per_query")]
    fn oversubscribed_fanout_panics() {
        let set = tables();
        let _ = TablewiseGenerator::new(&set, 33, 1.0, 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let set = tables();
        let mut a = TablewiseGenerator::new(&set, 8, 1.1, 5);
        let mut b = TablewiseGenerator::new(&set, 8, 1.1, 5);
        assert_eq!(a.batch(4), b.batch(4));
    }
}
