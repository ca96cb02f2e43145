//! Physical-address ↔ device-location mapping.
//!
//! FAFNIR maps each embedding vector contiguously inside one rank so a
//! vector read streams from a single open row (Fig. 4b of the paper), while
//! TensorDIMM stripes a vector across all ranks. Both layouts are expressed
//! here as [`AddressMapping`] schemes plus direct [`Location`] construction.

use crate::config::Topology;

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Returns the raw address value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl From<u64> for PhysAddr {
    fn from(value: u64) -> Self {
        Self(value)
    }
}

impl std::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A fully decoded DRAM coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// Rank index *within the channel* (flattens DIMM × rank-per-DIMM).
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Column (64-byte burst index) within the row.
    pub column: usize,
}

impl Location {
    /// Flat bank index within the rank (`bank_group × banks_per_group + bank`).
    #[must_use]
    pub fn flat_bank(&self, topology: &Topology) -> usize {
        self.bank_group * topology.banks_per_group + self.bank
    }

    /// Globally unique rank index across the whole system.
    #[must_use]
    pub fn global_rank(&self, topology: &Topology) -> usize {
        self.channel * topology.ranks_per_channel() + self.rank
    }

    /// The DIMM (within the channel) this location's rank belongs to.
    #[must_use]
    pub fn dimm(&self, topology: &Topology) -> usize {
        self.rank / topology.ranks_per_dimm
    }

    /// Checks all coordinates are inside the topology's bounds.
    #[must_use]
    pub fn in_bounds(&self, topology: &Topology) -> bool {
        self.channel < topology.channels
            && self.rank < topology.ranks_per_channel()
            && self.bank_group < topology.bank_groups
            && self.bank < topology.banks_per_group
            && self.row < topology.rows
            && self.column < topology.columns
    }
}

/// How physical address bits are distributed over device coordinates.
///
/// Bit order is listed from least significant upward; the burst offset
/// (`log2(burst_bytes)` bits) is always the lowest field.
///
/// # Examples
///
/// ```
/// use fafnir_mem::{AddressMapping, MemoryConfig, PhysAddr};
///
/// let topology = MemoryConfig::ddr4_2400_4ch().topology;
/// let mapping = AddressMapping::RowRankBankColumn;
/// let loc = mapping.decode(PhysAddr(0x10040), &topology);
/// assert_eq!(mapping.encode(loc, &topology), PhysAddr(0x10040));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressMapping {
    /// `offset | column | bank | bank_group | rank | channel | row`.
    ///
    /// Consecutive bursts walk columns of one open row — the layout FAFNIR
    /// uses for embedding vectors (a 512 B vector is 8 sequential bursts in
    /// one row of one rank).
    RowRankBankColumn,
    /// `offset | channel | column | bank | bank_group | rank | row`.
    ///
    /// Fine-grained channel interleaving: consecutive bursts round-robin
    /// over channels. Useful as a contrast configuration.
    ChannelInterleaved,
}

impl AddressMapping {
    /// Decodes a physical address into a device location.
    ///
    /// Addresses beyond the topology capacity wrap (the row field is taken
    /// modulo the row count), which keeps synthetic address generators
    /// simple and safe. Every field count is a power of two
    /// ([`Topology::validate`]), so each field, the row included, is a
    /// mask: this runs once per burst and needs no division.
    #[must_use]
    pub fn decode(self, addr: PhysAddr, topology: &Topology) -> Location {
        debug_assert!(topology.rows.is_power_of_two());
        let row_mask = topology.rows - 1;
        let mut bits = addr.0 >> log2(topology.burst_bytes);
        let mut take = |count: usize| -> usize {
            let mask = (count as u64) - 1;
            let field = (bits & mask) as usize;
            bits >>= log2(count);
            field
        };
        match self {
            AddressMapping::RowRankBankColumn => {
                let column = take(topology.columns);
                let bank = take(topology.banks_per_group);
                let bank_group = take(topology.bank_groups);
                let rank = take(topology.ranks_per_channel());
                let channel = take(topology.channels);
                let row = (bits as usize) & row_mask;
                Location { channel, rank, bank_group, bank, row, column }
            }
            AddressMapping::ChannelInterleaved => {
                let channel = take(topology.channels);
                let column = take(topology.columns);
                let bank = take(topology.banks_per_group);
                let bank_group = take(topology.bank_groups);
                let rank = take(topology.ranks_per_channel());
                let row = (bits as usize) & row_mask;
                Location { channel, rank, bank_group, bank, row, column }
            }
        }
    }

    /// How many consecutive bursts, starting with the one decoded to
    /// `location`, stay in its (channel, rank, bank, row).
    ///
    /// Under `RowRankBankColumn` the column is the lowest field, so the run
    /// lasts to the row's last column; the next burst carries into the bank
    /// field. `ChannelInterleaved` moves every burst to another channel
    /// (or, on one channel, another column of the same row; a run of 1 is
    /// exact either way).
    #[must_use]
    pub fn row_run(self, location: Location, topology: &Topology) -> usize {
        match self {
            AddressMapping::RowRankBankColumn => topology.columns - location.column,
            AddressMapping::ChannelInterleaved => 1,
        }
    }

    /// Encodes a device location back into a physical address.
    ///
    /// Inverse of [`AddressMapping::decode`] for in-bounds locations.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `location` is out of bounds for
    /// `topology`.
    #[must_use]
    pub fn encode(self, location: Location, topology: &Topology) -> PhysAddr {
        debug_assert!(location.in_bounds(topology), "location out of bounds: {location:?}");
        let mut bits: u64 = location.row as u64;
        let mut push = |field: usize, count: usize| {
            bits = (bits << log2(count)) | field as u64;
        };
        match self {
            AddressMapping::RowRankBankColumn => {
                push(location.channel, topology.channels);
                push(location.rank, topology.ranks_per_channel());
                push(location.bank_group, topology.bank_groups);
                push(location.bank, topology.banks_per_group);
                push(location.column, topology.columns);
            }
            AddressMapping::ChannelInterleaved => {
                push(location.rank, topology.ranks_per_channel());
                push(location.bank_group, topology.bank_groups);
                push(location.bank, topology.banks_per_group);
                push(location.column, topology.columns);
                push(location.channel, topology.channels);
            }
        }
        PhysAddr(bits << log2(topology.burst_bytes))
    }
}

/// log2 of a power of two.
fn log2(value: usize) -> u32 {
    debug_assert!(value.is_power_of_two());
    value.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;
    use proptest::prelude::*;

    fn topo() -> Topology {
        MemoryConfig::ddr4_2400_4ch().topology
    }

    #[test]
    fn sequential_bursts_share_a_row() {
        let topology = topo();
        let mapping = AddressMapping::RowRankBankColumn;
        let base = mapping.decode(PhysAddr(0x10000), &topology);
        for burst in 1..8 {
            let loc = mapping.decode(PhysAddr(0x10000 + burst * 64), &topology);
            assert_eq!(loc.row, base.row);
            assert_eq!(loc.rank, base.rank);
            assert_eq!(loc.channel, base.channel);
            assert_eq!(loc.column, base.column + burst as usize);
        }
    }

    #[test]
    fn channel_interleaved_rotates_channels() {
        let topology = topo();
        let mapping = AddressMapping::ChannelInterleaved;
        let channels: Vec<usize> =
            (0..4).map(|burst| mapping.decode(PhysAddr(burst * 64), &topology).channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_address_is_origin() {
        let topology = topo();
        for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
            assert_eq!(mapping.decode(PhysAddr(0), &topology), Location::default());
        }
    }

    #[test]
    fn global_rank_and_dimm_are_consistent() {
        let topology = topo();
        let loc = Location { channel: 2, rank: 5, ..Location::default() };
        assert_eq!(loc.global_rank(&topology), 2 * 8 + 5);
        assert_eq!(loc.dimm(&topology), 2); // rank 5 with 2 ranks/DIMM
    }

    /// Every preset topology the crate ships.
    fn preset_topologies() -> Vec<Topology> {
        let mut presets = vec![
            MemoryConfig::ddr4_2400_4ch().topology,
            MemoryConfig::ddr5_4800_4ch().topology,
            MemoryConfig::hbm2_32pc().topology,
            MemoryConfig::ddr4_2400_1ch_1rank().topology,
        ];
        presets.extend((0..=5).map(|shift| MemoryConfig::with_total_ranks(1 << shift).topology));
        presets
    }

    /// The row field taken with a division, as `decode` computed it before
    /// it masked: the reference the masked decode must reproduce.
    fn decode_by_modulo(mapping: AddressMapping, addr: PhysAddr, topology: &Topology) -> Location {
        let mut bits = addr.0 / topology.burst_bytes as u64;
        let mut take = |count: usize| -> usize {
            let field = (bits % count as u64) as usize;
            bits /= count as u64;
            field
        };
        let order: [usize; 5] = match mapping {
            AddressMapping::RowRankBankColumn => [0, 1, 2, 3, 4],
            AddressMapping::ChannelInterleaved => [4, 0, 1, 2, 3],
        };
        let counts = [
            topology.columns,
            topology.banks_per_group,
            topology.bank_groups,
            topology.ranks_per_channel(),
            topology.channels,
        ];
        let mut fields = [0usize; 5];
        for field in order {
            fields[field] = take(counts[field]);
        }
        let [column, bank, bank_group, rank, channel] = fields;
        let row = (bits % topology.rows as u64) as usize;
        Location { channel, rank, bank_group, bank, row, column }
    }

    proptest! {
        #[test]
        fn a_row_run_keeps_bank_and_row_then_leaves_them(raw in any::<u64>()) {
            use AddressMapping::{ChannelInterleaved, RowRankBankColumn};
            for topology in preset_topologies() {
                let burst = topology.burst_bytes as u64;
                for mapping in [RowRankBankColumn, ChannelInterleaved] {
                    let decode =
                        |k: u64| mapping.decode(PhysAddr(raw.wrapping_add(k * burst)), &topology);
                    let first = decode(0);
                    let run = mapping.row_run(first, &topology) as u64;
                    let same_row =
                        |loc: Location| Location { column: first.column, ..loc } == first;
                    for k in 1..run {
                        prop_assert!(same_row(decode(k)), "burst {} of {} left the row", k, run);
                        prop_assert_eq!(decode(k).column, first.column + k as usize);
                    }
                    if mapping == RowRankBankColumn {
                        prop_assert!(!same_row(decode(run)), "the run ended before the row did");
                    }
                }
            }
        }

        #[test]
        fn masked_decode_matches_the_modulo_formula_on_every_preset(raw in any::<u64>()) {
            for topology in preset_topologies() {
                for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
                    // The raw address wraps far past capacity; its low bits
                    // alone also exercise in-capacity addresses.
                    for addr in [raw, raw % topology.capacity_bytes()] {
                        let addr = PhysAddr(addr);
                        prop_assert_eq!(
                            mapping.decode(addr, &topology),
                            decode_by_modulo(mapping, addr, &topology)
                        );
                    }
                }
            }
        }

        #[test]
        fn encode_decode_round_trips(
            c0 in any::<u64>(),
            c1 in any::<u64>(),
            c2 in any::<u64>(),
            c3 in any::<u64>(),
            c4 in any::<u64>(),
            c5 in any::<u64>(),
        ) {
            for topology in preset_topologies() {
                let pick = |value: u64, count: usize| (value % count as u64) as usize;
                let loc = Location {
                    channel: pick(c0, topology.channels),
                    rank: pick(c1, topology.ranks_per_channel()),
                    bank_group: pick(c2, topology.bank_groups),
                    bank: pick(c3, topology.banks_per_group),
                    row: pick(c4, topology.rows),
                    column: pick(c5, topology.columns),
                };
                for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
                    prop_assert_eq!(mapping.decode(mapping.encode(loc, &topology), &topology), loc);
                }
            }
        }

        #[test]
        fn decode_encode_round_trips_within_capacity(raw in 0u64..(1u64 << 40)) {
            let topology = topo();
            let capacity = topology.capacity_bytes();
            let addr = PhysAddr((raw % capacity) & !63); // burst aligned
            for mapping in [AddressMapping::RowRankBankColumn, AddressMapping::ChannelInterleaved] {
                let loc = mapping.decode(addr, &topology);
                prop_assert!(loc.in_bounds(&topology));
                prop_assert_eq!(mapping.encode(loc, &topology), addr);
            }
        }
    }
}
