//! The workspace's one JSON codec against the committed artifacts: each
//! round-trips byte for byte, and seeded byte-level mutants of them never
//! make either parser (`Json::parse`, `WireSnapshot::parse`) panic —
//! every accepted mutant re-renders to text that parses back to an equal
//! value. Mutants are drawn from the in-tree seeded PRNG, so every run
//! checks the same inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use jcr_ctx::json::Json;
use jcr_ctx::obs::wire::WireSnapshot;
use jcr_ctx::rng::{Rng, SeedableRng, StdRng};

/// Committed JSON artifacts, relative to the workspace root.
const ARTIFACTS: [&str; 3] = [
    "BENCH_BASELINE.json",
    "OBS_BASELINE.json",
    "tests/data/lp_equivalence.json",
];

const MUTANTS_PER_ARTIFACT: u64 = 1500;

fn read(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Bytes that steer mutants into the parsers' interesting branches.
const STRUCTURAL: &[u8] = b"{}[]\",:\\u0-e. \n";

/// Applies one to three random edits: a bit flip, a structural-byte
/// overwrite, a truncation, a deletion or a duplication of a short run.
fn mutate(rng: &mut StdRng, text: &[u8]) -> Vec<u8> {
    let mut b = text.to_vec();
    for _ in 0..rng.gen_range(1..=3u32) {
        if b.is_empty() {
            break;
        }
        let at = rng.gen_range(0..b.len());
        let end = (at + rng.gen_range(1..=16usize)).min(b.len());
        match rng.gen_range(0..5u32) {
            0 => b[at] ^= 1 << rng.gen_range(0..8u32),
            1 => b[at] = STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())],
            2 => b.truncate(at),
            3 => {
                b.drain(at..end);
            }
            _ => {
                let run = b[at..end].to_vec();
                b.splice(at..at, run);
            }
        }
    }
    b
}

/// Both parsers on `text`: no panic, and an accepted document survives
/// render → parse unchanged.
fn check_contract(text: &str) {
    if let Ok(value) = Json::parse(text) {
        assert_eq!(Json::parse(&value.render()).as_ref(), Ok(&value));
    }
    if let Ok(wire) = WireSnapshot::parse(text) {
        assert_eq!(WireSnapshot::parse(&wire.render()).as_ref(), Ok(&wire));
    }
}

#[test]
fn committed_artifacts_round_trip_byte_identically() {
    for rel in ARTIFACTS {
        let text = read(rel);
        let value = Json::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(
            value.render() == text,
            "{rel} does not re-render identically"
        );
    }
    let obs = read("OBS_BASELINE.json");
    let wire = WireSnapshot::parse(&obs).expect("OBS_BASELINE.json is a valid snapshot");
    assert!(wire.render() == obs, "OBS_BASELINE.json is not canonical");
}

#[test]
fn mutated_artifacts_never_panic_either_parser() {
    let mut accepted = 0;
    for (seed, rel) in ARTIFACTS.iter().enumerate() {
        let text = read(rel);
        let mut rng = StdRng::seed_from_u64(0x6a73_6f6e + seed as u64);
        for i in 0..MUTANTS_PER_ARTIFACT {
            let bytes = mutate(&mut rng, text.as_bytes());
            let mutant = String::from_utf8_lossy(&bytes);
            let outcome = catch_unwind(AssertUnwindSafe(|| check_contract(&mutant)));
            assert!(
                outcome.is_ok(),
                "{rel} mutant {i} broke the contract:\n{mutant}"
            );
            accepted += usize::from(Json::parse(&mutant).is_ok());
        }
    }
    // Duplications and whitespace edits keep some mutants valid, so the
    // round-trip half of the contract is exercised too.
    assert!(accepted > 0, "no mutant parsed");
}

#[test]
fn hostile_documents_are_errors() {
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    assert!(Json::parse(&deep).is_err());
    assert!(WireSnapshot::parse(&deep).is_err());

    // Node 1 of the committed snapshot lists itself as a child.
    let mut doc = Json::parse(&read("OBS_BASELINE.json")).unwrap();
    let Json::Obj(top) = &mut doc else {
        panic!("snapshot is an object")
    };
    let Some(Json::Arr(nodes)) = top.get_mut("nodes") else {
        panic!("snapshot has a node list")
    };
    let Json::Obj(node) = &mut nodes[1] else {
        panic!("node is an object")
    };
    node.insert("children".to_string(), Json::Str("1".to_string()));
    let err = WireSnapshot::parse(&doc.render()).unwrap_err();
    assert!(err.contains("node 1: child index 1"), "{err}");
}
