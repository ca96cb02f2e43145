//! The flat SpMV engine against its specification.
//!
//! The specification is the dataflow of paper Sec. IV-D written the plain
//! way: every column becomes its own `PartialStream::from_sorted` leaf
//! stream of `value × x[col]` products, every round of up to `vector_size`
//! streams reduces through a pairwise tree of `merge_two` calls (pairs
//! (0, 1), (2, 3), …, an odd last stream carried up unmerged), and merge
//! iterations repeat that on the previous iteration's outputs. The flat
//! engine (`LilMatrix`'s column-compressed lists and the level-buffer merge
//! tree behind `execute_to_stream`) must return the same stream bit for
//! bit, the same volumes and the same `StreamOps`.

use fafnir_sparse::stream::{merge_tree, merge_two};
use fafnir_sparse::{fafnir_spmv, CooMatrix, LilMatrix, PartialStream, StreamOps};
use proptest::prelude::*;

/// A balanced pairwise reduction, one `Vec` per level.
fn pairwise(mut streams: Vec<PartialStream>, ops: &mut StreamOps) -> PartialStream {
    while streams.len() > 1 {
        let mut next = Vec::with_capacity(streams.len().div_ceil(2));
        for pair in streams.chunks(2) {
            match pair {
                [a, b] => next.push(merge_two(a, b, ops)),
                [a] => next.push(a.clone()),
                _ => unreachable!("chunks of two"),
            }
        }
        streams = next;
    }
    streams.pop().unwrap_or_default()
}

/// The per-column lists the LIL must hold: entries appended in COO order,
/// then stably sorted by row.
fn spec_columns(coo: &CooMatrix) -> Vec<Vec<(usize, f64)>> {
    let mut columns = vec![Vec::new(); coo.cols()];
    for &(row, col, value) in coo.entries() {
        columns[col].push((row, value));
    }
    for list in &mut columns {
        list.sort_by_key(|&(row, _)| row);
    }
    columns
}

/// The specified run: final stream, per-iteration volumes and counters.
fn spec_run(
    columns: &[Vec<(usize, f64)>],
    x: &[f64],
    vector_size: usize,
) -> (PartialStream, Vec<u64>, StreamOps) {
    let mut ops = StreamOps::default();
    let nnz: usize = columns.iter().map(Vec::len).sum();
    ops.multiplies = nnz as u64;
    let mut volumes = vec![nnz as u64];
    let leaves: Vec<PartialStream> = columns
        .iter()
        .zip(x)
        .map(|(list, &scale)| {
            PartialStream::from_sorted(list.iter().map(|&(row, v)| (row, v * scale)).collect())
        })
        .collect();
    let mut streams: Vec<PartialStream> =
        leaves.chunks(vector_size).map(|round| pairwise(round.to_vec(), &mut ops)).collect();
    while streams.len() > 1 {
        volumes.push(streams.iter().map(|s| s.len() as u64).sum());
        streams =
            streams.chunks(vector_size).map(|round| pairwise(round.to_vec(), &mut ops)).collect();
    }
    (streams.pop().unwrap_or_default(), volumes, ops)
}

fn bits(entries: &[(usize, f64)]) -> Vec<(usize, u64)> {
    entries.iter().map(|&(row, value)| (row, value.to_bits())).collect()
}

/// Builds the COO under test. `shape` 1 forces one row, 2 one column;
/// `order` 0 keeps the pushes as drawn (unsorted, duplicates kept), 1 sums
/// duplicates (row-major, the generators' form), 2 sorts row-major but
/// keeps duplicates.
fn build(
    rows: usize,
    cols: usize,
    shape: u8,
    order: u8,
    pushes: &[(usize, usize, f64, bool)],
) -> CooMatrix {
    let (rows, cols) = match shape {
        1 => (1, cols),
        2 => (rows, 1),
        _ => (rows, cols),
    };
    let mut triplets = Vec::new();
    for &(row, col, value, twice) in pushes {
        let (row, col) = (row % rows, col % cols);
        triplets.push((row, col, value));
        if twice {
            triplets.push((row, col, -value * 0.5));
        }
    }
    if order == 2 {
        triplets.sort_by_key(|&(row, col, _)| (row, col));
    }
    let mut coo = CooMatrix::new(rows, cols);
    for (row, col, value) in triplets {
        coo.push(row, col, value);
    }
    if order == 1 {
        coo.sum_duplicates();
    }
    coo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_engine_matches_the_pairwise_specification(
        dims in (1usize..40, 1usize..40, 0u8..4, 0u8..3),
        pushes in proptest::collection::vec(
            (0usize..40, 0usize..40, -10.0f64..10.0, proptest::arbitrary::any::<bool>()),
            0..80,
        ),
        vector_size in 2usize..10,
        seed in 0u64..1_000,
    ) {
        let (rows, cols, shape, order) = dims;
        let coo = build(rows, cols, shape, order, &pushes);
        let x: Vec<f64> =
            (0..coo.cols()).map(|i| ((i as u64 * 7 + seed) % 13) as f64 * 0.37 - 2.0).collect();

        // The flat LIL holds exactly the per-column stable sort.
        let columns = spec_columns(&coo);
        let lil = LilMatrix::from(&coo);
        prop_assert_eq!((lil.rows(), lil.cols(), lil.nnz()), (coo.rows(), coo.cols(), coo.nnz()));
        for (col, list) in columns.iter().enumerate() {
            prop_assert_eq!(bits(lil.column(col)), bits(list), "column {}", col);
        }

        let (stream, volumes, ops) = spec_run(&columns, &x, vector_size);
        let run = fafnir_spmv::execute_to_stream(&lil, &x, vector_size);
        prop_assert_eq!(bits(run.stream.entries()), bits(stream.entries()));
        prop_assert_eq!(&run.volumes, &volumes);
        prop_assert_eq!(run.ops, ops);
        prop_assert_eq!(run.plan.rounds_per_iteration.len(), volumes.len());
    }

    #[test]
    fn merge_tree_is_the_pairwise_reduction(
        lists in proptest::collection::vec(
            proptest::collection::vec((0usize..24, -10.0f64..10.0), 0..12),
            0..12,
        ),
    ) {
        let streams: Vec<PartialStream> = lists
            .into_iter()
            .map(|mut list| {
                list.sort_by_key(|&(row, _)| row);
                PartialStream::from_sorted(list)
            })
            .collect();
        let (mut flat_ops, mut spec_ops) = (StreamOps::default(), StreamOps::default());
        let flat = merge_tree(streams.clone(), &mut flat_ops);
        let spec = pairwise(streams, &mut spec_ops);
        prop_assert_eq!(bits(flat.entries()), bits(spec.entries()));
        prop_assert_eq!(flat_ops, spec_ops);
    }
}
