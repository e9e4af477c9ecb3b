//! `SimConfig::validate` is total, and what it accepts runs.
//!
//! Every scalar field of the configuration is outside input (`coyote-sim`
//! flags, library callers), so no value of any field may panic the
//! validator — tier-1 runs this in the debug profile, where arithmetic
//! overflow panics — and a config the validator accepts must construct
//! a `Simulation` and run `examples/asm/hello.s` to halt or to the cycle
//! limit — and a spin loop, which never halts or stalls, to the cycle
//! limit in bounded host time. Each hole this harness (or a person)
//! found is a row of `committed_regressions`.

use coyote::{L2Sharing, MappingPolicy, NocModel, ProfMode, RunError, SimConfig, Simulation};
use proptest::prelude::*;

const HELLO: &str = include_str!("../../../examples/asm/hello.s");

/// Never halts, never misses after the first fetch, never stalls: only
/// the cycle limit ends it.
const SPIN: &str = "_start:\n j _start";

/// Number of scalar fields [`set_field`] can reach.
const FIELDS: usize = 39;

/// Overwrites scalar field `field` of `config` with `value` (reduced
/// modulo the variant count for enums and booleans).
fn set_field(config: &mut SimConfig, field: usize, value: u64) {
    let size = value as usize;
    let flag = value & 1 == 1;
    match field {
        0 => config.cores = size,
        1 => config.cores_per_tile = size,
        2 => config.banks_per_tile = size,
        3 => config.core.l1i.size_bytes = value,
        4 => config.core.l1i.ways = value,
        5 => config.core.l1i.line_bytes = value,
        6 => config.core.l1d.size_bytes = value,
        7 => config.core.l1d.ways = value,
        8 => config.core.l1d.line_bytes = value,
        9 => config.core.vlen_bits = value,
        10 => config.l2.bank_size_bytes = value,
        11 => config.l2.ways = value,
        12 => config.l2.line_bytes = value,
        13 => config.l2.mshrs = size,
        14 => config.l2.hit_latency = value,
        15 => config.l2.miss_latency = value,
        16 => {
            config.sharing = if flag {
                L2Sharing::Private
            } else {
                L2Sharing::Shared
            }
        }
        17 => {
            config.mapping = if flag {
                MappingPolicy::SetInterleave
            } else {
                MappingPolicy::PageToBank { page_bytes: 4096 }
            }
        }
        18 => config.mapping = MappingPolicy::PageToBank { page_bytes: value },
        19 => {
            config.noc = NocModel::IdealCrossbar {
                request_latency: value,
                response_latency: 8,
            }
        }
        20 => {
            config.noc = NocModel::IdealCrossbar {
                request_latency: 8,
                response_latency: value,
            }
        }
        21..=24 => {
            let (mut width, mut height, mut hop_latency, mut base_latency) = (4, 4, 1, 1);
            match field {
                21 => width = size,
                22 => height = size,
                23 => hop_latency = value,
                _ => base_latency = value,
            }
            config.noc = NocModel::Mesh {
                width,
                height,
                hop_latency,
                base_latency,
            };
        }
        25 => config.mc.count = size,
        26 => config.mc.channels_per_mc = size,
        27 => config.mc.access_latency = value,
        28 => config.mc.cycles_per_line = value,
        29 => config.mc.row_bytes = value,
        30 => config.mc.row_hit_latency = value,
        31 => config.mc.row_miss_latency = value,
        32 => config.mc.interleave_bytes = value,
        33 => config.prefetch_degree = size,
        34 => config.interleave = size,
        35 => config.max_cycles = value,
        36 => config.metrics_interval = value,
        37 => config.attribution_top_k = size,
        38 => {
            // The on/off planes, one bit each.
            config.trace = value & 1 != 0;
            config.oracle = value & 2 != 0;
            config.telemetry = value & 4 != 0;
            config.chrome_trace = value & 8 != 0;
            config.core.fusion = value & 16 != 0;
            config.perturb_seed = value >> 8;
            config.profiling =
                [ProfMode::Off, ProfMode::Wall, ProfMode::Counter][(value >> 5) as usize % 3];
        }
        _ => unreachable!("field index {field} >= FIELDS"),
    }
}

/// The property: `validate()` returns, and an accepted config runs.
fn validate_is_total_and_accepted_configs_run(config: SimConfig) {
    if config.validate().is_err() {
        return;
    }
    let program = coyote_asm::assemble(HELLO).expect("hello.s assembles");
    let mut sim = Simulation::new(config, &program)
        .unwrap_or_else(|e| panic!("validated config refused: {e}\n{config:?}"));
    match sim.run() {
        Ok(_) | Err(RunError::CycleLimit { .. }) => {}
        Err(other) => panic!("validated config failed to run: {other}\n{config:?}"),
    }

    // Whatever a config lets one core do inside one cycle must be
    // bounded, or the cycle limit never gets its turn: the spin loop
    // must hit a limit set two cycles past its first retirement. (A
    // limit that expires during the first fetch's fill would pass
    // without one instruction having run.) Per-cycle work is per core,
    // so a tile's worth of cores shows it and keeps the debug-profile
    // cost at 2 × 8 × `MAX_INTERLEAVE` steps.
    let mut spin_config = SimConfig {
        cores: config.cores.min(8),
        ..config
    };
    if spin_config.validate().is_err() {
        return;
    }
    let spin = coyote_asm::assemble(SPIN).expect("the spin loop assembles");
    let new_sim = |config: SimConfig| {
        Simulation::new(config, &spin)
            .unwrap_or_else(|e| panic!("validated config refused: {e}\n{config:?}"))
    };
    // Until something retires nothing depends on `interleave`, so a
    // probe at 1 finds the first-retirement cycle cheaply; stalled
    // cycles fast-forward, so a few dozen calls cross any fill latency.
    let mut probe = new_sim(SimConfig {
        interleave: 1,
        ..spin_config
    });
    let first_retire = (0..64).find_map(|_| {
        probe.step_cycle().expect("the spin loop cannot fault");
        (probe.cores()[0].stats().retired > 0).then(|| probe.cycle())
    });
    let Some(first_retire) = first_retire else {
        return;
    };
    spin_config.max_cycles = first_retire + 2;
    match new_sim(spin_config).run() {
        Err(RunError::CycleLimit { .. }) => {}
        other => panic!("spin loop did not hit the cycle limit: {other:?}\n{spin_config:?}"),
    }
}

/// A field value: the edges, a typical small value, or anything.
fn field_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX / 2),
        Just(u64::MAX),
        0u64..64,
        (0u32..40).prop_map(|shift| 1u64 << shift),
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The default machine with one to three fields overwritten: few
    /// enough that most cases are still accepted and so exercise the run
    /// half, while every field sees every edge value.
    #[test]
    fn any_field_values_validate_without_panicking_and_accepted_configs_run(
        edits in prop::collection::vec((0..FIELDS, field_value()), 1..4),
    ) {
        let mut config = SimConfig::default();
        for &(field, value) in &edits {
            set_field(&mut config, field, value);
        }
        validate_is_total_and_accepted_configs_run(config);
    }
}

/// Every field at every edge value, one at a time — the exhaustive
/// small universe under the random one.
#[test]
fn each_field_at_each_edge() {
    for field in 0..FIELDS {
        for value in [0, 1, 2, u64::MAX / 2, u64::MAX / 2 + 1, u64::MAX] {
            let mut config = SimConfig::default();
            set_field(&mut config, field, value);
            validate_is_total_and_accepted_configs_run(config);
        }
    }
}

/// Hostile configs that once panicked, hung, wrapped or aborted on a
/// failed allocation, each now refused with a message naming the field
/// and its bound.
#[test]
fn committed_regressions() {
    let base = SimConfig {
        cores: 4,
        ..SimConfig::default()
    };
    let mut cases = vec![
        // `--noc-latency 18446744073709551615`: `now + latency` wrapped
        // (debug panic; release reported *shorter* stalls).
        (
            "NoC traversal latency 18446744073709551615 exceeds the supported maximum of 1048576",
            SimConfig {
                noc: NocModel::IdealCrossbar {
                    request_latency: u64::MAX,
                    response_latency: u64::MAX,
                },
                ..base
            },
        ),
        // `--banks-per-tile 100000`: never started.
        (
            "100000 banks_per_tile exceeds the supported maximum of 16384 L2 banks",
            SimConfig {
                banks_per_tile: 100_000,
                ..base
            },
        ),
        // Found by the harness: divide by zero in the bank mapping.
        (
            "page size 0",
            SimConfig {
                mapping: MappingPolicy::PageToBank { page_bytes: 0 },
                ..base
            },
        ),
    ];
    // Found by the harness: `ways * line_bytes` overflowed in the
    // validator itself; a 2^63-byte L1, a zero VLEN and 2^63 memory
    // controllers were accepted and died in `Simulation::new`.
    let mut config = base;
    config.core.l1d.ways = u64::MAX / 2;
    cases.push(("l1d: capacity 32768 not divisible by ways*line (0)", config));
    let mut config = base;
    config.core.l1i.size_bytes = 1 << 63;
    cases.push(("cache lines in total", config));
    let mut config = base;
    config.core.vlen_bits = 0;
    cases.push(("vlen_bits 0 must be a power of two", config));
    let mut config = base;
    config.mc.count = usize::MAX / 2 + 1;
    cases.push((
        "exceeds the supported maximum of 4096 memory channels",
        config,
    ));
    // `--interleave 9223372036854775807` on the spin loop: the batch
    // never left its first cycle, so `--max-cycles` never fired.
    cases.push((
        "interleave 9223372036854775807 exceeds the supported maximum of 65536",
        SimConfig {
            interleave: usize::MAX / 2,
            ..base
        },
    ));

    for (needle, config) in cases {
        let error = config.validate().expect_err(needle).to_string();
        assert!(error.contains(needle), "{error}");
    }
}
