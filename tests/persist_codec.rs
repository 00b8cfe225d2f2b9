//! Codec correctness for the persistent cache tier: round trips over
//! random compilation results, plus corruption fuzz — byte flips,
//! truncations and version bumps must all decode to a clean miss, never
//! a panic. The wire's `result_fp` hashes this encoding, so it is pinned
//! here too: stable across the round trip, moved by any one field.

use proptest::prelude::*;
use qompress::persist::{decode_result, encode_result, CODEC_VERSION};
use qompress::{CompilationResult, Compiler, Strategy};
use qompress_arch::Topology;
use qompress_circuit::{Circuit, Gate};
use qompress_service::result_fingerprint;
use qompress_store::{decode_envelope, encode_envelope};
use qompress_workloads::random_circuit;

/// Renders every observable field of a compilation, so "byte-identical"
/// is a literal string comparison (the shared shape of the session and
/// batch suites).
fn render(r: &CompilationResult) -> String {
    format!(
        "{}\nmetrics: {:?}\nschedule: {:?}\nplacements: {:?} -> {:?}\nencoded: {:?}\npairs: {:?}\ngates: {}\ntrace: {:?}\n",
        r.strategy,
        r.metrics,
        r.schedule,
        r.initial_placements,
        r.final_placements,
        r.encoded_units,
        r.pairs,
        r.logical_gates,
        r.trace,
    )
}

fn strategy_from_index(i: usize) -> Strategy {
    [
        Strategy::QubitOnly,
        Strategy::Eqm,
        Strategy::RingBased,
        Strategy::Awe,
        Strategy::ProgressivePairing,
    ][i % 5]
}

fn topology_from_index(i: usize, n: usize) -> Topology {
    match i % 3 {
        0 => Topology::grid(n),
        1 => Topology::line(n),
        _ => Topology::ring(n.max(3)),
    }
}

fn sample(
    n: usize,
    gates: usize,
    seed: u64,
    strategy_idx: usize,
    topo_idx: usize,
) -> CompilationResult {
    let session = Compiler::builder().caching(false).build();
    let result = session.compile(
        &random_circuit(n, gates, seed),
        &topology_from_index(topo_idx, n),
        strategy_from_index(strategy_idx),
    );
    (*result).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// decode(encode(r)) rebuilds every observable field bit-exactly, and
    /// the encoding is canonical (re-encoding is byte-identical).
    #[test]
    fn round_trip_over_random_results(
        n in 3usize..6,
        gates in 6usize..24,
        seed in 0u64..1000,
        strategy_idx in 0usize..5,
        topo_idx in 0usize..3,
    ) {
        let result = sample(n, gates, seed, strategy_idx, topo_idx);
        let encoded = encode_result(&result);
        let decoded = decode_result(&encoded).expect("round trip must decode");
        prop_assert_eq!(render(&result), render(&decoded));
        prop_assert_eq!(encode_result(&decoded), encoded);
    }

    /// `result_fp` is FNV-1a of the canonical encoding: the round trip
    /// keeps it, and changing one field — the strategy label or one
    /// placement — changes it.
    #[test]
    fn result_fingerprint_follows_the_encoding(
        n in 3usize..6,
        gates in 6usize..24,
        seed in 0u64..1000,
        strategy_idx in 0usize..5,
        topo_idx in 0usize..3,
    ) {
        let result = sample(n, gates, seed, strategy_idx, topo_idx);
        let fp = result_fingerprint(&result);
        let decoded = decode_result(&encode_result(&result)).expect("round trip must decode");
        prop_assert_eq!(result_fingerprint(&decoded), fp);

        let mut relabeled = result.clone();
        relabeled.strategy.push('*');
        prop_assert_ne!(result_fingerprint(&relabeled), fp);

        let mut moved = result.clone();
        moved.initial_placements[0].1 ^= 1;
        prop_assert_ne!(result_fingerprint(&moved), fp);
    }

    /// Single-byte corruption anywhere in the payload must never panic:
    /// it decodes to `None` (a miss) or — since not every byte is
    /// load-bearing for *validity* — to some well-formed result. Wrapped
    /// in the store envelope, the same flip is always rejected outright.
    #[test]
    fn single_byte_flips_never_panic(
        seed in 0u64..1000,
        flip_seed in 0u64..u64::MAX,
    ) {
        let result = sample(4, 12, seed, seed as usize, seed as usize);
        let encoded = encode_result(&result);

        // A pseudo-random batch of positions (cheap LCG over the seed)
        // rather than every byte — proptest multiplies the cases.
        let mut state = flip_seed | 1;
        for _ in 0..32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % encoded.len();
            let bit = 1u8 << ((state >> 29) & 7);
            let mut bad = encoded.clone();
            bad[pos] ^= bit;
            // Must not panic; a `Some` is acceptable for the bare codec.
            let _ = decode_result(&bad);

            // Behind the envelope the flip is caught by the FNV
            // fingerprint every time.
            let mut enveloped = encode_envelope(&encoded);
            let hdr = enveloped.len() - encoded.len();
            enveloped[hdr + pos] ^= bit;
            prop_assert_eq!(decode_envelope(&enveloped), None);
        }
    }

    /// Every strict prefix decodes to a clean miss — truncation can never
    /// panic or produce a value.
    #[test]
    fn truncations_are_clean_misses(seed in 0u64..200) {
        let result = sample(3, 8, seed, seed as usize, seed as usize);
        let encoded = encode_result(&result);
        // Sample the prefix lengths (the in-crate unit test sweeps all of
        // a fixed payload; here the payloads vary).
        let step = (encoded.len() / 64).max(1);
        for len in (0..encoded.len()).step_by(step) {
            prop_assert!(decode_result(&encoded[..len]).is_none(), "prefix {len} decoded");
        }
    }
}

#[test]
fn version_bump_is_a_clean_miss() {
    let result = sample(4, 10, 7, 1, 0);
    let mut encoded = encode_result(&result);
    for other in [
        CODEC_VERSION + 1,
        CODEC_VERSION.wrapping_sub(1),
        0,
        u32::MAX,
    ] {
        if other == CODEC_VERSION {
            continue;
        }
        encoded[..4].copy_from_slice(&other.to_le_bytes());
        assert!(
            decode_result(&encoded).is_none(),
            "foreign version {other} decoded"
        );
    }
}

#[test]
fn arbitrary_garbage_never_panics() {
    // Deterministic pseudo-random byte soup at assorted lengths.
    let mut state = 0x9e3779b97f4a7c15u64;
    for len in [0usize, 1, 3, 4, 7, 16, 64, 256, 4096] {
        let mut bytes = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bytes.push((state >> 56) as u8);
        }
        let _ = decode_result(&bytes);
        assert_eq!(decode_envelope(&bytes), None, "garbage of length {len}");
    }
    // Garbage that *claims* the right version must still fail cleanly.
    let mut versioned = CODEC_VERSION.to_le_bytes().to_vec();
    versioned.extend_from_slice(&[0xAB; 100]);
    assert!(decode_result(&versioned).is_none());
}

#[test]
fn distinct_results_encode_distinctly() {
    let a = sample(4, 12, 1, 0, 0);
    let b = sample(4, 12, 2, 0, 0);
    assert_ne!(
        encode_result(&a),
        encode_result(&b),
        "different compilations must not share an encoding"
    );
}

#[test]
fn result_fingerprint_sees_a_one_ulp_angle_change() {
    // Two circuits that differ only in one rotation angle, by one ulp:
    // the angle reaches the schedule, and the fingerprint must see it.
    let circuit = |angle: f64| {
        let mut c = Circuit::new(3);
        c.push(Gate::h(0));
        c.push(Gate::rz(angle, 1));
        c.push(Gate::cx(0, 1));
        c.push(Gate::cx(1, 2));
        c
    };
    let session = Compiler::builder().caching(false).build();
    let topology = Topology::grid(4);
    for i in 0..5 {
        let strategy = strategy_from_index(i);
        let a = session.compile(&circuit(0.5), &topology, strategy);
        let b = session.compile(&circuit(0.5f64.next_up()), &topology, strategy);
        assert_ne!(
            render(&a),
            render(&b),
            "{strategy:?}: the angle reached the result"
        );
        assert_ne!(
            result_fingerprint(&a),
            result_fingerprint(&b),
            "{strategy:?}: one ulp must move the fingerprint"
        );
    }
}
