//! Golden digests of both memory models.
//!
//! Seeded request streams run through the cycle-accurate and the
//! fast-functional model on every configuration variant of
//! `property_memsim.rs`, plus channel-interleaved mapping, a straggler rank,
//! a short adaptive timeout, and DDR5/HBM presets. The streams mix reads and
//! writes, staggered and chained arrivals, unaligned addresses, and 512 B
//! reads that wrap past a row's last column. Every [`Completion`] (in
//! `take_completions` order), every `completion(id)` lookup, and each
//! phase's [`MemoryStats`] fold into one FNV-1a digest per (variant, model).
//!
//! The digests pin the models' exact output: a change that moves any
//! modeled cycle or counter changes a digest. Re-record them only for a
//! change that means to alter modeled output, and say so.

use fafnir_mem::{
    AddressMapping, AnyMemory, Location, MemoryConfig, MemoryModel, MemoryModelKind, PagePolicy,
    Request, RequestId,
};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

/// SplitMix64: a fixed, dependency-free stream for the request generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The variants of `property_memsim.rs`, then the extra cases.
fn variants() -> Vec<(&'static str, MemoryConfig)> {
    let base = MemoryConfig::ddr4_2400_4ch();
    let with = |edit: fn(&mut MemoryConfig)| {
        let mut config = base;
        edit(&mut config);
        config
    };
    vec![
        ("base", base),
        ("closed", with(|c| c.page_policy = PagePolicy::Closed)),
        ("adaptive", with(|c| c.page_policy = PagePolicy::Adaptive { timeout: 150 })),
        ("ndp", with(|c| c.ndp_data_path = true)),
        ("refresh", with(|c| c.refresh = true)),
        ("hbm2", MemoryConfig::hbm2_32pc()),
        ("ddr5", MemoryConfig::ddr5_4800_4ch()),
        ("interleaved", with(|c| c.mapping = AddressMapping::ChannelInterleaved)),
        ("straggler", with(|c| c.straggler = Some((0, 1, 300)))),
        (
            "ndp-straggler",
            with(|c| {
                c.ndp_data_path = true;
                c.straggler = Some((1, 0, 90));
            }),
        ),
        // A timeout below the burst gap: the adaptive policy closes the row
        // between the bursts of one vector.
        ("adaptive-eager", with(|c| c.page_policy = PagePolicy::Adaptive { timeout: 2 })),
        ("1ch-1rank", MemoryConfig::ddr4_2400_1ch_1rank()),
    ]
}

/// Drains the model, folds the drained completions, the lookups of `ids`
/// and the phase's counters into the digest, then starts a new phase.
fn drain(memory: &mut AnyMemory, ids: &[RequestId], digest: &mut Fnv) {
    digest.word(memory.run_until_idle());
    take(memory, ids, digest);
    digest.debug(&memory.stats());
    memory.reset_stats();
}

/// Takes whatever has completed, then folds it and the lookups of `ids`.
fn take(memory: &mut AnyMemory, ids: &[RequestId], digest: &mut Fnv) {
    for completion in memory.take_completions() {
        digest.debug(&completion);
    }
    for &id in ids {
        digest.debug(&memory.completion(id));
    }
}

/// A random request somewhere in the first `span` bytes.
fn random_request(rng: &mut Rng, span: u64, arrival: u64) -> Request {
    let mut addr = rng.below(span - 4096);
    if rng.below(2) == 0 {
        addr &= !63;
    }
    let bytes = [0, 64, 128, 200, 512, 512][rng.below(6) as usize];
    let request =
        if rng.below(5) == 0 { Request::write(addr, bytes) } else { Request::read(addr, bytes) };
    request.at(arrival)
}

fn digest(config: MemoryConfig, seed: u64) -> u64 {
    let mut memory = AnyMemory::new(config);
    let mut rng = Rng(seed);
    let mut digest = Fnv::new();
    let topology = config.topology;
    let span = topology.capacity_bytes();

    // A random mix with staggered arrivals.
    let ids: Vec<RequestId> = (0..60)
        .map(|_| {
            let arrival = rng.below(3_000);
            memory.submit(random_request(&mut rng, span, arrival))
        })
        .collect();
    drain(&mut memory, &ids, &mut digest);

    // 512 B reads that start 1..8 columns before a row's end, some
    // unaligned, so they wrap into the next bank.
    let base = memory.now();
    let ids: Vec<RequestId> = (0..16)
        .map(|i| {
            let location = Location {
                channel: rng.below(topology.channels as u64) as usize,
                rank: rng.below(topology.ranks_per_channel() as u64) as usize,
                bank_group: rng.below(topology.bank_groups as u64) as usize,
                bank: rng.below(topology.banks_per_group as u64) as usize,
                row: rng.below(topology.rows as u64) as usize,
                column: topology.columns - 1 - i % 8,
            };
            let addr = config.mapping.encode(location, &topology).0 + rng.below(2) * 17;
            memory.submit(Request::read(addr, 512).at(base + rng.below(400)))
        })
        .collect();
    drain(&mut memory, &ids, &mut digest);

    // Completions taken while later requests are still in flight: they stay
    // trackable, complete later, and ids keep rising.
    let base = memory.now();
    let ids: Vec<RequestId> = (0..30)
        .map(|_| {
            let arrival = base + rng.below(600);
            memory.submit(random_request(&mut rng, span, arrival))
        })
        .collect();
    if let AnyMemory::Cycle(cycle) = &mut memory {
        while cycle.now() < base + 120 {
            cycle.tick();
        }
    }
    take(&mut memory, &ids, &mut digest);
    drain(&mut memory, &ids, &mut digest);

    // Back-to-back vectors on one bank, each arriving one cycle before, at,
    // or one after the previous one's finish: the backlog boundary.
    let location = Location { row: 3, ..Location::default() };
    let mut arrival = memory.now();
    let mut ids = Vec::new();
    for i in 0..24u64 {
        let location = Location { row: location.row + (i % 3 == 0) as usize, ..location };
        let id = memory.submit_read_at(location, 512, arrival);
        memory.run_until_idle();
        let finish = memory.completion(id).expect("drained").finish_cycle;
        arrival = (finish + i % 3).saturating_sub(1);
        ids.push(id);
    }
    drain(&mut memory, &ids, &mut digest);

    // Sparse arrivals: every request finds the system drained.
    let base = memory.now();
    let ids: Vec<RequestId> = (0..8)
        .map(|i| memory.submit(random_request(&mut rng, span, base + 50_000 * (i + 1))))
        .collect();
    drain(&mut memory, &ids, &mut digest);

    digest.debug(&memory.submit(Request::read(0, 64)));
    digest.word(memory.run_until_idle());
    digest.debug(&memory.stats());
    digest.0
}

/// Digests recorded before run pricing and dense request slots, per
/// variant: (cycle model, fast model).
const GOLDEN: &[(&str, u64, u64)] = &[
    ("base", 0xad57f2c1d4706df7, 0x3c5964743493260d),
    ("closed", 0xdceda55e028cf6e7, 0x3fb365e428c25459),
    ("adaptive", 0x44c172f05a397dde, 0x01b84a9cafa871ec),
    ("ndp", 0xd6f86976b5a54670, 0xc2c4e8fdc0a11966),
    ("refresh", 0x8ec9d40b4592a355, 0xbf2839baf87f00b4),
    ("hbm2", 0x05fc1f4999f254e1, 0x84f09fb97be4bd95),
    ("ddr5", 0xdd03baffa2b916e5, 0xa6f4548821d549d5),
    ("interleaved", 0xc6df811d5efa765f, 0x4f3a0a210388d15a),
    ("straggler", 0x89525a5360fe3a07, 0x2b7e27242b09d45f),
    ("ndp-straggler", 0xbd82cec60a005223, 0x0b5859bf86b69780),
    ("adaptive-eager", 0x113c9d493ac414d0, 0xab9aa21facd77657),
    ("1ch-1rank", 0xd07bd24d03279edb, 0x91c39fa714629275),
];

#[test]
fn both_memory_models_reproduce_their_golden_digests() {
    let mut actual = Vec::new();
    for (seed, (name, config)) in variants().into_iter().enumerate() {
        let mut by_model = [0; 2];
        for (slot, model) in [MemoryModelKind::Cycle, MemoryModelKind::Fast].into_iter().enumerate()
        {
            by_model[slot] = digest(MemoryConfig { model, ..config }, seed as u64 + 1);
        }
        actual.push((name, by_model[0], by_model[1]));
    }
    let table: String = actual
        .iter()
        .map(|(name, cycle, fast)| format!("    (\"{name}\", {cycle:#018x}, {fast:#018x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "digests moved; this run's table:\n{table}");
}
