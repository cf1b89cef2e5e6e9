//! Property tests for the std-only JSON codec (`ebcp_harness::json`)
//! and the typed result codec built on it.
//!
//! The codec backs the result store and both results artifacts, so the
//! properties pin exactly what those rely on: `u64` counters survive
//! with no `f64` round-trip, every escape class in strings survives,
//! and arbitrarily nested documents re-parse to the same tree from both
//! the compact and the pretty renderer.
//!
//! The typed codec (`write_result`/`read_result` and their CMP forms)
//! is checked against the tree path it replaces on the warm paths: the
//! writer's bytes equal `result_to_json(..).to_json()`, the pull reader
//! decodes compact, pretty and key-shuffled encodings to what
//! `result_from_json(&parse(..))` gives, and hostile input — arbitrary
//! bytes, mutated encodings, every truncated prefix of a result or a
//! store entry — yields an error, a miss or a quarantine, never a panic
//! or a loop.

use ebcp_harness::cmp::{
    cmp_result_from_json, cmp_result_to_json, read_cmp_result, write_cmp_result,
};
use ebcp_harness::json::{parse, Reader, Value};
use ebcp_harness::store::{read_result, result_from_json, result_to_json, write_result};
use ebcp_harness::{fnv1a64, CacheRead, CmpJob, Fnv64, Job, ResultStore};
use ebcp_sim::{CmpResult, CmpSpec, PrefetcherSpec, RunSpec, SimConfig, SimResult};
use ebcp_trace::WorkloadSpec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters chosen to hit every writer branch: plain ASCII, the
/// named escapes, raw control bytes (`\u00xx`), multi-byte UTF-8, and
/// the solidus the parser accepts escaped.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', 'é',
    'λ', '中', '💾',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

/// Generates one value at `depth` remaining levels of nesting.
fn gen_value(rng: &mut TestRng, depth: usize) -> Value {
    let arms = if depth == 0 { 5 } else { 7 };
    match rng.below(arms) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::Int(rng.next_u64()),
        // Finite floats only (the writer maps NaN/inf to null).
        3 => Value::Num(rng.next_u64() as i64 as f64 / 777.0),
        4 => {
            use proptest::strategy::Strategy as _;
            Value::Str(arb_string().generate(rng))
        }
        5 => Value::Arr(
            (0..rng.below(4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => {
            use proptest::strategy::Strategy as _;
            Value::Obj(
                (0..rng.below(4))
                    .map(|_| (arb_string().generate(rng), gen_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Arbitrary documents nested up to four levels deep.
struct ArbValue;

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        gen_value(rng, 4)
    }
}

/// What the codec canonicalizes on a write→parse pass: a non-negative
/// integral float re-parses as the exact integer it prints as, and
/// non-finite floats print as `null`. Everything else is preserved.
fn normalize(v: &Value) -> Value {
    match v {
        Value::Num(f) if !f.is_finite() => Value::Null,
        Value::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
            // Display prints e.g. 42.0 as "42", which parses as Int —
            // but only when the shortest decimal rendering carries no
            // '.', 'e' or '+', i.e. the value also survives u64 parse.
            match format!("{f}").parse::<u64>() {
                Ok(n) => Value::Int(n),
                Err(_) => Value::Num(*f),
            }
        }
        Value::Arr(items) => Value::Arr(items.iter().map(normalize).collect()),
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), normalize(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

proptest! {
    #[test]
    fn u64_counters_round_trip_exactly(n in any::<u64>()) {
        // No f64 detour: 2^53-adjacent and max values stay bit-exact.
        prop_assert_eq!(parse(&Value::Int(n).to_json()).unwrap(), Value::Int(n));
        prop_assert_eq!(
            parse(&Value::Int(n).to_json_pretty()).unwrap().as_u64(),
            Some(n)
        );
    }

    #[test]
    fn strings_with_every_escape_class_round_trip(s in arb_string()) {
        let v = Value::Str(s.clone());
        for text in [v.to_json(), v.to_json_pretty()] {
            prop_assert_eq!(parse(&text).unwrap().as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn nested_documents_round_trip_compact_and_pretty(v in ArbValue) {
        let want = normalize(&v);
        prop_assert_eq!(parse(&v.to_json()).unwrap(), want.clone());
        prop_assert_eq!(parse(&v.to_json_pretty()).unwrap(), want);
    }

    #[test]
    fn parse_then_write_is_a_fixed_point(v in ArbValue) {
        // After one write→parse pass the representation is canonical:
        // writing and re-parsing it changes nothing, which is what the
        // byte-identical results.json contract leans on.
        let once = parse(&v.to_json()).unwrap();
        let twice = parse(&once.to_json()).unwrap();
        prop_assert_eq!(&twice, &once);
        prop_assert_eq!(parse(&once.to_json_pretty()).unwrap(), once);
    }
}

/// A counter value from the classes that matter: zero, the `f64`
/// precision edge, `u64::MAX`, and arbitrary bits.
fn gen_counter(rng: &mut TestRng) -> u64 {
    match rng.below(5) {
        0 => 0,
        1 => (1 << 53) + 1,
        2 => u64::MAX,
        3 => rng.next_u64() % 1000,
        _ => rng.next_u64(),
    }
}

/// Replaces every integer of `v` with a fresh [`gen_counter`] draw.
fn randomize_ints(v: &Value, rng: &mut TestRng) -> Value {
    match v {
        Value::Int(_) => Value::Int(gen_counter(rng)),
        Value::Arr(items) => Value::Arr(items.iter().map(|x| randomize_ints(x, rng)).collect()),
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .map(|(k, x)| (k.clone(), randomize_ints(x, rng)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// A result with random counters and names drawn from [`PALETTE`].
/// Built through the tree codec so the test does not restate the
/// field list.
fn gen_result(rng: &mut TestRng) -> SimResult {
    let tree = randomize_ints(&result_to_json(&SimResult::default()), rng);
    let mut r = result_from_json(&tree).expect("the default result's shape decodes");
    r.prefetcher = arb_string().generate(rng);
    r.workload = arb_string().generate(rng);
    r
}

/// Arbitrary [`SimResult`]s.
struct ArbResult;

impl Strategy for ArbResult {
    type Value = SimResult;

    fn generate(&self, rng: &mut TestRng) -> SimResult {
        gen_result(rng)
    }
}

/// Arbitrary [`CmpResult`]s with zero to three cores.
struct ArbCmpResult;

impl Strategy for ArbCmpResult {
    type Value = CmpResult;

    fn generate(&self, rng: &mut TestRng) -> CmpResult {
        CmpResult {
            cores: (0..rng.below(4)).map(|_| gen_result(rng)).collect(),
            aggregate: gen_result(rng),
        }
    }
}

/// `v` with every object's keys in a random order.
fn shuffle_keys(v: &Value, rng: &mut TestRng) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(items.iter().map(|x| shuffle_keys(x, rng)).collect()),
        Value::Obj(fields) => {
            let mut fields: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, x)| (k.clone(), shuffle_keys(x, rng)))
                .collect();
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.below(i + 1));
            }
            Value::Obj(fields)
        }
        other => other.clone(),
    }
}

/// `v` with every object's fields followed by a second copy of each
/// key holding a different value. The first occurrence is the one that
/// counts, so this decodes like `v`.
fn with_repeats(v: &Value, rng: &mut TestRng) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(items.iter().map(|x| with_repeats(x, rng)).collect()),
        Value::Obj(fields) => {
            let mut out: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, x)| (k.clone(), with_repeats(x, rng)))
                .collect();
            for (k, x) in fields {
                let other = match x {
                    Value::Str(_) => Value::Str(arb_string().generate(rng)),
                    _ => randomize_ints(x, rng),
                };
                out.push((k.clone(), other));
            }
            Value::Obj(out)
        }
        other => other.clone(),
    }
}

/// The texts a reader must accept for `tree`: compact, pretty, both
/// again with every object's keys shuffled, and one with every key
/// repeated.
fn encodings(tree: &Value, rng: &mut TestRng) -> [String; 5] {
    let shuffled = shuffle_keys(tree, rng);
    [
        tree.to_json(),
        tree.to_json_pretty(),
        shuffled.to_json(),
        shuffled.to_json_pretty(),
        with_repeats(tree, rng).to_json(),
    ]
}

/// Decodes a whole document with a typed reader (trailing data is an
/// error, as for `parse`).
fn read_all<T>(
    text: &str,
    read: impl Fn(&mut Reader<'_>) -> Result<Option<T>, ebcp_harness::json::ParseError>,
) -> Result<Option<T>, ebcp_harness::json::ParseError> {
    let mut rd = Reader::new(text);
    let v = read(&mut rd)?;
    rd.finish()?;
    Ok(v)
}

/// The typed readers and the tree path agree on `text`: both fail, or
/// both succeed with the same decoded value.
fn assert_readers_agree(text: &str) {
    let tree = parse(text);
    let typed = read_all(text, read_result);
    assert_eq!(
        typed.as_ref().ok(),
        tree.as_ref().ok().map(result_from_json).as_ref(),
        "{text:?}"
    );
    let typed = read_all(text, read_cmp_result);
    assert_eq!(
        typed.as_ref().ok(),
        tree.as_ref().ok().map(cmp_result_from_json).as_ref(),
        "{text:?}"
    );
}

/// Bytes that steer a random walk through JSON's grammar.
const JSONISH: &[u8] = b"{}[]\",:0123456789-+.eE \n\\ntrufalsu\x01\xc3\xa9";

/// One random edit of `text`: a byte replaced, deleted or duplicated.
fn mutate(text: &str, rng: &mut TestRng) -> String {
    let mut b = text.as_bytes().to_vec();
    if b.is_empty() {
        return String::new();
    }
    let at = rng.below(b.len());
    match rng.below(3) {
        0 => b[at] = JSONISH[rng.below(JSONISH.len())],
        1 => {
            b.remove(at);
        }
        _ => b.insert(at, b[at]),
    }
    String::from_utf8_lossy(&b).into_owned()
}

proptest! {
    #[test]
    fn typed_writers_match_the_tree_encoding(r in ArbResult, c in ArbCmpResult) {
        let mut text = String::new();
        write_result(&mut text, &r);
        prop_assert_eq!(&text, &result_to_json(&r).to_json());
        let mut h = Fnv64::new();
        write_result(&mut h, &r);
        prop_assert_eq!(h.finish(), fnv1a64(text.as_bytes()));

        let mut text = String::new();
        write_cmp_result(&mut text, &c);
        prop_assert_eq!(&text, &cmp_result_to_json(&c).to_json());
        let mut h = Fnv64::new();
        write_cmp_result(&mut h, &c);
        prop_assert_eq!(h.finish(), fnv1a64(text.as_bytes()));
    }

    #[test]
    fn pull_reader_decodes_every_encoding_like_the_tree_path(
        r in ArbResult,
        c in ArbCmpResult,
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::deterministic(seed, 0);
        for text in encodings(&result_to_json(&r), &mut rng) {
            let want = result_from_json(&parse(&text).unwrap());
            prop_assert_eq!(want.as_ref(), Some(&r));
            prop_assert_eq!(read_all(&text, read_result), Ok(want));
        }
        for text in encodings(&cmp_result_to_json(&c), &mut rng) {
            let want = cmp_result_from_json(&parse(&text).unwrap());
            prop_assert_eq!(want.as_ref(), Some(&c));
            prop_assert_eq!(read_all(&text, read_cmp_result), Ok(want));
        }
    }

    #[test]
    fn mutated_encodings_decode_like_the_tree_path(r in ArbResult, seed in any::<u64>()) {
        // Differential fuzzing: one random edit of a valid encoding (or
        // a few stacked), then the typed reader must agree with
        // parse + result_from_json — both reject, or both decode the
        // same value (or the same "not a result").
        let mut rng = TestRng::deterministic(seed, 1);
        let mut text = result_to_json(&r).to_json_pretty();
        for _ in 0..4 {
            text = mutate(&text, &mut rng);
            assert_readers_agree(&text);
        }
    }

    #[test]
    fn arbitrary_text_never_panics_the_readers(
        picks in proptest::collection::vec(0usize..JSONISH.len(), 0..48),
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| JSONISH[i]).collect();
        assert_readers_agree(&String::from_utf8_lossy(&bytes));
    }
}

/// Every truncated prefix of an encoded result is an error. A plain
/// loop over a few results: each one costs quadratic time in its
/// length.
#[test]
fn every_truncated_result_is_an_error() {
    let mut rng = TestRng::deterministic(proptest::fnv("truncated-results"), 0);
    for _ in 0..16 {
        let mut single = String::new();
        write_result(&mut single, &gen_result(&mut rng));
        let mut multi = String::new();
        write_cmp_result(&mut multi, &ArbCmpResult.generate(&mut rng));
        for n in (0..single.len()).filter(|&n| single.is_char_boundary(n)) {
            let prefix = &single[..n];
            assert!(read_all(prefix, read_result).is_err(), "{prefix:?}");
        }
        for n in (0..multi.len()).filter(|&n| multi.is_char_boundary(n)) {
            let prefix = &multi[..n];
            assert!(read_all(prefix, read_cmp_result).is_err(), "{prefix:?}");
        }
    }
}

#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let text = open.repeat(100_000);
        assert!(parse(&text).is_err());
        assert_readers_agree(&text);
    }
}

fn tiny_job(seed: u64) -> Job {
    Job::new(
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 16),
            seed,
            warmup_insts: 100,
            measure_insts: 100,
            sim: SimConfig::scaled_down(16),
        },
        PrefetcherSpec::None,
    )
}

/// Writes every truncated prefix of `intact`, then a batch of random
/// byte strings, over `path`; none may read as a hit (`hit` loads the
/// entry). The intact bytes must hit again afterwards.
fn assert_damage_never_hits(
    path: &std::path::Path,
    intact: &[u8],
    rng: &mut TestRng,
    hit: impl Fn() -> bool,
) {
    // A prefix that only drops trailing whitespace is still the whole
    // entry.
    let mut damaged: Vec<Vec<u8>> = (0..intact.len())
        .filter(|&n| !intact[n..].iter().all(u8::is_ascii_whitespace))
        .map(|n| intact[..n].to_vec())
        .collect();
    for _ in 0..64 {
        let len = rng.below(512);
        damaged.push((0..len).map(|_| rng.next_u64() as u8).collect());
        damaged.push(
            (0..len)
                .map(|_| JSONISH[rng.below(JSONISH.len())])
                .collect(),
        );
    }
    for bytes in damaged {
        std::fs::write(path, &bytes).unwrap();
        assert!(
            !hit(),
            "damaged entry read as a hit: {:?}",
            String::from_utf8_lossy(&bytes)
        );
    }
    std::fs::write(path, intact).unwrap();
    assert!(hit(), "the intact entry must hit");
}

/// Every truncated prefix of a saved store entry, and arbitrary bytes
/// in its place, read as a miss or a quarantine — never a hit, never a
/// panic — for both result shapes.
#[test]
fn damaged_store_entries_miss_or_quarantine() {
    let dir = std::env::temp_dir().join(format!("ebcp-json-props-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let mut rng = TestRng::deterministic(proptest::fnv("store-entries"), 0);
    let job = tiny_job(1);
    let cmp_job = CmpJob::new(
        CmpSpec::homogeneous(
            WorkloadSpec::database().scaled(1, 32),
            2,
            100,
            100,
            SimConfig::scaled_down(16),
        ),
        PrefetcherSpec::None,
    );
    let r = gen_result(&mut rng);
    let c = ArbCmpResult.generate(&mut rng);
    store.save(&job, &r).unwrap();
    store.save_cmp(&cmp_job, &c).unwrap();

    let path = store.entry_path(&job);
    let intact = std::fs::read(&path).unwrap();
    assert_damage_never_hits(
        &path,
        &intact,
        &mut rng,
        || matches!(store.load_checked(&job), CacheRead::Hit(ref got) if *got == r),
    );
    let path = store.cmp_entry_path(&cmp_job);
    let intact = std::fs::read(&path).unwrap();
    assert_damage_never_hits(
        &path,
        &intact,
        &mut rng,
        || matches!(store.load_checked_cmp(&cmp_job), CacheRead::Hit(ref got) if *got == c),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
