//! The overall reduction tree: topology and dataflow simulation.
//!
//! The tree's leaves are the ranks of the memory system and its nodes are
//! PEs (Fig. 2d / Fig. 4a of the paper). Items enter at the leaf PEs as DRAM
//! reads complete and climb level by level; every query's reduction finishes
//! somewhere inside the tree — at a leaf when its vectors are neighbours, at
//! the root when they are remotest. The simulation is event-timed: each item
//! carries a `ready_ns` timestamp, PEs add compare/reduce/forward/merge
//! latencies, output ports serialize their items, and links add transfer
//! time.

use crate::config::FafnirConfig;
use crate::error::FafnirError;
use crate::index::QueryId;
use crate::item::Item;
use crate::pe::{PeOpCounts, ProcessingElement};
use crate::reduce::ReduceOperator;

/// Aggregated statistics of one tree traversal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeStats {
    /// Summed PE operation counters.
    pub ops: PeOpCounts,
    /// Tree levels (leaf PEs are level 0).
    pub levels: usize,
    /// Total PEs that fired.
    pub pes: usize,
    /// Output-item count per level, leaves first.
    pub per_level_outputs: Vec<usize>,
    /// Timestamp of the last root output in nanoseconds.
    pub completion_ns: f64,
    /// Largest input-side occupancy over all PEs (buffer sizing, Table I).
    pub max_buffer_items: u64,
    /// Root outputs whose pending entries were not all complete (indicates
    /// indices missing from the leaf inputs).
    pub incomplete_outputs: usize,
}

impl TreeStats {
    /// Adds another traversal's counters into these: op counts, PEs,
    /// incomplete outputs and per-level outputs (element-wise) add; levels
    /// and buffer occupancy take the max. `completion_ns` is left to the
    /// caller, which knows how the two traversals overlapped in time.
    pub fn merge(&mut self, other: &TreeStats) {
        self.ops.merge(&other.ops);
        self.levels = self.levels.max(other.levels);
        self.pes += other.pes;
        if self.per_level_outputs.len() < other.per_level_outputs.len() {
            self.per_level_outputs.resize(other.per_level_outputs.len(), 0);
        }
        for (total, count) in self.per_level_outputs.iter_mut().zip(&other.per_level_outputs) {
            *total += count;
        }
        self.max_buffer_items = self.max_buffer_items.max(other.max_buffer_items);
        self.incomplete_outputs += other.incomplete_outputs;
    }
}

/// Result of running a batch through the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRun {
    /// Items emitted by the root PE.
    pub outputs: Vec<Item>,
    /// Aggregated statistics.
    pub stats: TreeStats,
}

impl TreeRun {
    /// Extracts the finished per-query values from the root outputs. Root
    /// items hold accumulators, which are finalized through
    /// [`ReduceOperator::finalize`] (e.g. the mean division using the count
    /// carried in the accumulator).
    ///
    /// Queries whose reduction never completed are omitted (they are counted
    /// in [`TreeStats::incomplete_outputs`]).
    #[must_use]
    pub fn query_outputs_with(&self, operator: &dyn ReduceOperator) -> Vec<(QueryId, Vec<f32>)> {
        let mut results: Vec<(QueryId, Vec<f32>)> = Vec::new();
        for item in &self.outputs {
            for pending in &item.header.queries {
                if pending.is_complete() {
                    results.push((pending.query, operator.finalize(&item.value)));
                }
            }
        }
        results.sort_by_key(|(query, _)| *query);
        results.dedup_by_key(|(query, _)| *query);
        results
    }

    /// Per-query completion time: the `ready_ns` of the root item answering
    /// each query.
    #[must_use]
    pub fn query_completion_ns(&self) -> Vec<(QueryId, f64)> {
        let mut times: Vec<(QueryId, f64)> = Vec::new();
        for item in &self.outputs {
            for pending in &item.header.queries {
                if pending.is_complete() {
                    times.push((pending.query, item.ready_ns));
                }
            }
        }
        times.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        times.dedup_by_key(|(query, _)| *query);
        times
    }
}

/// The FAFNIR reduction tree over a memory system's ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionTree {
    config: FafnirConfig,
    leaf_count: usize,
}

impl ReductionTree {
    /// Builds a tree for a system with `ranks` ranks.
    ///
    /// # Errors
    ///
    /// Returns [`FafnirError::InvalidConfig`] if the configuration is
    /// invalid, `ranks` is not divisible by `ranks_per_leaf`, or the leaf
    /// count is not a power of two.
    pub fn new(config: FafnirConfig, ranks: usize) -> Result<Self, FafnirError> {
        config.validate()?;
        if ranks == 0 || !ranks.is_multiple_of(config.ranks_per_leaf) {
            return Err(FafnirError::InvalidConfig(format!(
                "ranks ({ranks}) must be a positive multiple of ranks_per_leaf ({})",
                config.ranks_per_leaf
            )));
        }
        let leaf_count = ranks / config.ranks_per_leaf;
        if !leaf_count.is_power_of_two() {
            return Err(FafnirError::InvalidConfig(format!(
                "leaf count ({leaf_count}) must be a power of two"
            )));
        }
        Ok(Self { config, leaf_count })
    }

    /// The configuration this tree was built with.
    #[must_use]
    pub fn config(&self) -> &FafnirConfig {
        &self.config
    }

    /// Leaf-PE count.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Total PEs (`2 × leaves − 1`).
    #[must_use]
    pub fn pe_count(&self) -> usize {
        2 * self.leaf_count - 1
    }

    /// Tree levels including the leaf level.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.leaf_count.trailing_zeros() as usize + 1
    }

    /// Runs one hardware batch through the tree, its PEs combining item
    /// values with `operator`.
    ///
    /// `rank_inputs[r]` holds the items gathered from global rank `r` (in
    /// this tree's rank ordering), with `ready_ns` set to their memory
    /// completion times. The items must already be lifted accumulators (see
    /// [`crate::inject::build_rank_inputs_with`]). Timing does not depend on
    /// the operator — link and PE latencies derive from the configured
    /// `vector_dim`, not the accumulator width.
    ///
    /// # Panics
    ///
    /// Panics if `rank_inputs.len() != leaf_count × ranks_per_leaf`.
    #[must_use]
    pub fn run_with(&self, operator: &dyn ReduceOperator, rank_inputs: Vec<Vec<Item>>) -> TreeRun {
        self.run_inner(operator, rank_inputs, None)
    }

    /// Like [`ReductionTree::run_with`], but also records a per-PE firing
    /// trace (see [`crate::exec_trace`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ReductionTree::run_with`].
    #[must_use]
    pub fn run_traced(
        &self,
        operator: &dyn ReduceOperator,
        rank_inputs: Vec<Vec<Item>>,
    ) -> (TreeRun, crate::exec_trace::ExecutionTrace) {
        let mut trace = crate::exec_trace::ExecutionTrace::new();
        let run = self.run_inner(operator, rank_inputs, Some(&mut trace));
        (run, trace)
    }

    fn run_inner(
        &self,
        operator: &dyn ReduceOperator,
        rank_inputs: Vec<Vec<Item>>,
        mut trace: Option<&mut crate::exec_trace::ExecutionTrace>,
    ) -> TreeRun {
        assert_eq!(
            rank_inputs.len(),
            self.leaf_count * self.config.ranks_per_leaf,
            "one input list per rank required"
        );
        let pe = ProcessingElement { timing: self.config.pe_timing };
        let mut stats = TreeStats { levels: self.levels(), ..TreeStats::default() };

        // Leaf level: each PE joins the streams of its ranks, split into the
        // two PE inputs. Levels are consumed by value — items move up the
        // tree, they are never copied.
        let half = self.config.ranks_per_leaf.div_ceil(2);
        let mut level: Vec<Vec<Item>> = Vec::with_capacity(self.leaf_count);
        let mut ranks_iter = rank_inputs.into_iter();
        for index in 0..self.leaf_count {
            let a: Vec<Item> = ranks_iter.by_ref().take(half).flatten().collect();
            let b: Vec<Item> =
                ranks_iter.by_ref().take(self.config.ranks_per_leaf - half).flatten().collect();
            level.push(self.fire_pe(
                &pe,
                operator,
                a,
                b,
                &mut stats,
                0,
                index,
                trace.as_deref_mut(),
            ));
        }
        stats.per_level_outputs.push(level.iter().map(Vec::len).sum());

        // Internal levels: pair up child outputs.
        let mut depth = 1;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2);
            let mut children = level.into_iter();
            let mut index = 0;
            while let Some(first) = children.next() {
                let a = self.after_link(first);
                let b = self.after_link(children.next().unwrap_or_default());
                next.push(self.fire_pe(
                    &pe,
                    operator,
                    a,
                    b,
                    &mut stats,
                    depth,
                    index,
                    trace.as_deref_mut(),
                ));
                index += 1;
            }
            stats.per_level_outputs.push(next.iter().map(Vec::len).sum());
            level = next;
            depth += 1;
        }

        let outputs = level.pop().unwrap_or_default();
        stats.completion_ns = outputs.iter().map(|item| item.ready_ns).fold(0.0, f64::max);
        stats.incomplete_outputs = outputs
            .iter()
            .filter(|item| item.header.queries.iter().any(|p| !p.is_complete()))
            .count();
        TreeRun { outputs, stats }
    }

    /// Fires one PE and applies output-port serialization.
    #[allow(clippy::too_many_arguments)]
    fn fire_pe(
        &self,
        pe: &ProcessingElement,
        operator: &dyn ReduceOperator,
        a: Vec<Item>,
        b: Vec<Item>,
        stats: &mut TreeStats,
        level: usize,
        index: usize,
        trace: Option<&mut crate::exec_trace::ExecutionTrace>,
    ) -> Vec<Item> {
        let first_input_ns =
            a.iter().chain(&b).map(|item| item.ready_ns).fold(f64::INFINITY, f64::min);
        let (inputs_a, inputs_b) = (a.len(), b.len());
        let (mut out, counts) = pe.process_owned(operator, a, b);
        stats.ops.merge(&counts);
        stats.pes += 1;
        stats.max_buffer_items = stats.max_buffer_items.max(counts.max_input_items);
        // Output port: one item per initiation interval.
        out.sort_by(|x, y| x.ready_ns.total_cmp(&y.ready_ns));
        let interval =
            self.config.pe_timing.output_interval_cycles as f64 * self.config.pe_timing.cycle_ns();
        for pos in 1..out.len() {
            let earliest = out[pos - 1].ready_ns + interval;
            if out[pos].ready_ns < earliest {
                out[pos].ready_ns = earliest;
            }
        }
        if let Some(trace) = trace {
            trace.record(crate::exec_trace::PeFiring {
                level,
                index,
                inputs_a,
                inputs_b,
                outputs: out.len(),
                first_input_ns: if first_input_ns.is_finite() { first_input_ns } else { 0.0 },
                last_output_ns: out.iter().map(|item| item.ready_ns).fold(0.0, f64::max),
                ops: counts,
            });
        }
        out
    }

    /// Adds the link-transfer latency for items moving to a parent PE.
    fn after_link(&self, mut items: Vec<Item>) -> Vec<Item> {
        let transfer = self.config.link_transfer_ns();
        for item in &mut items {
            item.ready_ns += transfer;
        }
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::index::VectorIndex;
    use crate::indexset;
    use crate::item::Header;
    use crate::reduce::{ReduceOp, SumOperator};

    /// Distributes a batch's leaf items over `ranks` ranks by `index mod
    /// ranks`, with synthetic values `[index; dim]`, honouring the per-side
    /// invariant via the injector.
    fn rank_inputs_ratio(
        batch: &Batch,
        ranks: usize,
        dim: usize,
        ranks_per_leaf: usize,
    ) -> Vec<Vec<Item>> {
        let gathered: Vec<crate::inject::GatheredVector> = batch
            .unique_indices()
            .iter()
            .map(|index| crate::inject::GatheredVector {
                index,
                rank: index.value() as usize % ranks,
                value: vec![index.value() as f32; dim].into(),
                ready_ns: 0.0,
            })
            .collect();
        crate::inject::build_rank_inputs_with(
            batch,
            &gathered,
            ranks,
            ranks_per_leaf,
            &SumOperator,
            &crate::timing::PeTiming::default(),
        )
    }

    fn rank_inputs(batch: &Batch, ranks: usize, dim: usize) -> Vec<Vec<Item>> {
        rank_inputs_ratio(batch, ranks, dim, 2)
    }

    fn tree(ranks: usize) -> ReductionTree {
        ReductionTree::new(FafnirConfig { vector_dim: 4, ..FafnirConfig::paper_default() }, ranks)
            .unwrap()
    }

    fn check_against_reference(batch: &Batch, ranks: usize) {
        let tree = tree(ranks);
        let run = tree.run_with(&SumOperator, rank_inputs(batch, ranks, 4));
        assert_eq!(run.stats.incomplete_outputs, 0);
        let outputs = run.query_outputs_with(&SumOperator);
        let reference = batch.reference_outputs_with(&SumOperator, |i| vec![i.value() as f32; 4]);
        assert_eq!(outputs.len(), batch.len());
        for ((qa, got), (qb, expected)) in outputs.iter().zip(&reference) {
            assert_eq!(qa, qb);
            let expected = expected.as_ref().unwrap();
            for (x, y) in got.iter().zip(expected) {
                assert!((x - y).abs() < 1e-3, "query {qa}: {got:?} vs {expected:?}");
            }
        }
    }

    #[test]
    fn fig6_batch_reduces_correctly_on_8_ranks() {
        let batch = Batch::from_index_sets([
            indexset![11, 44, 32, 83, 77],
            indexset![50, 83, 94],
            indexset![11, 50, 44, 94, 26],
            indexset![4, 15, 77],
        ]);
        check_against_reference(&batch, 8);
    }

    #[test]
    fn single_query_spanning_remotest_ranks_completes_at_root() {
        // Indices 0 and 31 sit on ranks 0 and 31: reduction can only happen
        // at the root (the paper's worst case).
        let batch = Batch::from_index_sets([indexset![0, 31]]);
        check_against_reference(&batch, 32);
    }

    #[test]
    fn neighbour_indices_reduce_at_the_leaf() {
        // Indices 0 and 1 share a leaf PE (1PE:2R): one reduce, no forwards
        // needed above the leaf level.
        let batch = Batch::from_index_sets([indexset![0, 1]]);
        let tree = tree(32);
        let run = tree.run_with(&SumOperator, rank_inputs(&batch, 32, 4));
        // Both compare directions fire the reduce; the merge unit folds them
        // into one output (hardware-faithful counting).
        assert_eq!(run.stats.ops.reduces, 2);
        assert_eq!(run.stats.ops.merges, 1);
        let outputs = run.query_outputs_with(&SumOperator);
        assert_eq!(outputs[0].1, vec![1.0; 4]);
    }

    #[test]
    fn tree_shape_matches_config() {
        let tree = tree(32);
        assert_eq!(tree.leaf_count(), 16);
        assert_eq!(tree.pe_count(), 31);
        assert_eq!(tree.levels(), 5);
    }

    #[test]
    fn invalid_rank_counts_are_rejected() {
        let config = FafnirConfig::paper_default();
        assert!(ReductionTree::new(config, 0).is_err());
        assert!(ReductionTree::new(config, 3).is_err());
        assert!(ReductionTree::new(config, 12).is_err()); // 6 leaves: not 2^k
        assert!(ReductionTree::new(config, 32).is_ok());
    }

    #[test]
    fn missing_index_yields_incomplete_output() {
        // Query references index 100 but only index 0 is provided.
        let batch = Batch::from_index_sets([indexset![0, 100]]);
        let tree = tree(4);
        let mut inputs = vec![Vec::new(); 4];
        let headers = batch.leaf_headers();
        let (index, pending) = headers.into_iter().find(|(i, _)| *i == VectorIndex(0)).unwrap();
        inputs[0].push(Item::new(Header::leaf(index, pending), vec![0.0; 4]));
        let run = tree.run_with(&SumOperator, inputs);
        assert_eq!(run.stats.incomplete_outputs, 1);
        assert!(run.query_outputs_with(&SumOperator).is_empty());
    }

    #[test]
    fn shared_index_served_to_both_queries() {
        // Both queries need index 5 (the paper's v5 example, Fig. 1/2).
        let batch = Batch::from_index_sets([indexset![1, 2, 5, 6], indexset![3, 4, 5]]);
        check_against_reference(&batch, 8);
    }

    #[test]
    fn completion_time_grows_with_tree_depth() {
        let batch = Batch::from_index_sets([indexset![0, 1]]);
        // Same batch, deeper tree (more ranks): completion no earlier.
        let shallow = tree(4).run_with(&SumOperator, rank_inputs(&batch, 4, 4));
        let deep = tree(32).run_with(&SumOperator, rank_inputs(&batch, 32, 4));
        assert!(deep.stats.completion_ns >= shallow.stats.completion_ns);
    }

    #[test]
    fn one_pe_to_one_rank_ratio_works() {
        let config =
            FafnirConfig { ranks_per_leaf: 1, vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 8).unwrap();
        assert_eq!(tree.pe_count(), 15);
        let batch = Batch::from_index_sets([indexset![0, 1, 6, 7]]);
        let run = tree.run_with(&SumOperator, rank_inputs_ratio(&batch, 8, 4, 1));
        let outputs = run.query_outputs_with(&SumOperator);
        assert_eq!(outputs[0].1, vec![14.0; 4]);
    }

    #[test]
    fn one_pe_to_four_ranks_ratio_works() {
        let config =
            FafnirConfig { ranks_per_leaf: 4, vector_dim: 4, ..FafnirConfig::paper_default() };
        let tree = ReductionTree::new(config, 16).unwrap();
        assert_eq!(tree.pe_count(), 7);
        let batch = Batch::from_index_sets([indexset![0, 5, 10, 15]]);
        let run = tree.run_with(&SumOperator, rank_inputs_ratio(&batch, 16, 4, 4));
        let outputs = run.query_outputs_with(&SumOperator);
        assert_eq!(outputs[0].1, vec![30.0; 4]);
    }

    #[test]
    fn mean_through_the_tree_divides_exactly_once() {
        let batch = Batch::from_index_sets([indexset![0, 5, 9, 31], indexset![5, 6]]);
        let operator = ReduceOp::Mean.operator();
        let gathered: Vec<crate::inject::GatheredVector> = batch
            .unique_indices()
            .iter()
            .map(|index| crate::inject::GatheredVector {
                index,
                rank: index.value() as usize % 32,
                value: vec![index.value() as f32; 4].into(),
                ready_ns: 0.0,
            })
            .collect();
        let inputs = crate::inject::build_rank_inputs_with(
            &batch,
            &gathered,
            32,
            2,
            &*operator,
            &crate::timing::PeTiming::default(),
        );
        let run = tree(32).run_with(&*operator, inputs);
        let outputs = run.query_outputs_with(&*operator);
        assert_eq!(outputs[0].1, vec![(0.0 + 5.0 + 9.0 + 31.0) / 4.0; 4]);
        assert_eq!(outputs[1].1, vec![5.5; 4]);
    }

    #[test]
    fn topk_through_the_tree_selects_best_indices() {
        use crate::reduce::TopKOperator;
        let batch = Batch::from_index_sets([indexset![0, 7, 13, 21, 30]]);
        let operator = TopKOperator::new(2); // score = element sum = 4·index
        let gathered: Vec<crate::inject::GatheredVector> = batch
            .unique_indices()
            .iter()
            .map(|index| crate::inject::GatheredVector {
                index,
                rank: index.value() as usize % 32,
                value: vec![index.value() as f32; 4].into(),
                ready_ns: 0.0,
            })
            .collect();
        let inputs = crate::inject::build_rank_inputs_with(
            &batch,
            &gathered,
            32,
            2,
            &operator,
            &crate::timing::PeTiming::default(),
        );
        let run = tree(32).run_with(&operator, inputs);
        assert_eq!(run.stats.incomplete_outputs, 0);
        let outputs = run.query_outputs_with(&operator);
        let decoded = TopKOperator::decode(&outputs[0].1);
        assert_eq!(decoded, vec![(VectorIndex(30), 120.0), (VectorIndex(21), 84.0)]);
    }

    #[test]
    fn buffer_occupancy_respects_batch_bound() {
        // Sixteen queries sharing hot indices: no PE buffer may exceed the
        // query count (Table I invariant).
        let sets: Vec<_> = (0..16u32).map(|i| indexset![i % 8, (i + 3) % 8, 16 + i % 4]).collect();
        let batch = Batch::from_index_sets(sets);
        let tree = tree(8);
        let run = tree.run_with(&SumOperator, rank_inputs(&batch, 8, 4));
        assert!(
            run.stats.max_buffer_items <= 16 + batch.unique_indices().len() as u64,
            "buffer occupancy {} out of range",
            run.stats.max_buffer_items
        );
        check_against_reference(&batch, 8);
    }
}
