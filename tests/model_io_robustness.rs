//! Property-based robustness tests for model persistence: no byte-level
//! corruption of a serialized model may cause a panic or a silently
//! wrong load — every mutation either round-trips to a *valid* model or
//! returns an error.

use proptest::prelude::*;
use tkdc::model_io::{load_model_from, save_model_to, FORMAT_VERSION};
use tkdc::{Classifier, ExecPolicy, Params};
use tkdc_common::error::Error;
use tkdc_common::{Matrix, Rng};

fn reference_model_bytes() -> Vec<u8> {
    let mut rng = Rng::seed_from(4242);
    let mut data = Matrix::with_cols(2);
    for _ in 0..300 {
        data.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)])
            .unwrap();
    }
    let clf = Classifier::fit(&data, &Params::default().with_seed(7)).unwrap();
    let mut buf = Vec::new();
    save_model_to(&clf, &mut buf).unwrap();
    buf
}

/// Wrong magic bytes must be rejected with a clear `Parse`-class error,
/// never a panic or a silent misread.
#[test]
fn wrong_magic_is_a_parse_error() {
    let mut bytes = reference_model_bytes();
    bytes[..4].copy_from_slice(b"NOPE");
    let err = load_model_from(bytes.as_slice()).unwrap_err();
    assert!(
        matches!(err, Error::Parse { line: 0, .. }),
        "expected Parse, got {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("magic"), "unhelpful message: {msg}");
}

/// A header from one format version in the future must be refused with
/// a message that names both versions, not misread field-by-field.
#[test]
fn future_format_version_is_a_parse_error() {
    let mut bytes = reference_model_bytes();
    // Layout: 4-byte magic, then u32 LE version.
    bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let err = load_model_from(bytes.as_slice()).unwrap_err();
    assert!(
        matches!(err, Error::Parse { line: 0, .. }),
        "expected Parse, got {err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{}", FORMAT_VERSION + 1))
            && msg.contains(&FORMAT_VERSION.to_string()),
        "message should name both versions: {msg}"
    );
}

/// A length field patched to 2^40 − 1 (just under the decoder's
/// plausibility cap) must fail the load with an error once the bytes run
/// out, not abort the process by reserving 8 TiB up front.
#[test]
fn huge_points_length_is_an_error_not_an_abort() {
    let mut bytes = reference_model_bytes();
    // The tree payload begins `dim: u64, leaf_size: u64, points: [f64]`,
    // and the points length is rows × dim = 300 × 2.
    let dim = 2u64.to_le_bytes();
    let len = 600u64.to_le_bytes();
    let at: Vec<usize> = (0..bytes.len() - 24)
        .filter(|&i| bytes[i..i + 8] == dim && bytes[i + 16..i + 24] == len)
        .collect();
    assert_eq!(at.len(), 1, "points length field not found uniquely");
    let field = at[0] + 16;
    bytes[field..field + 8].copy_from_slice(&((1u64 << 40) - 1).to_le_bytes());
    assert!(load_model_from(bytes.as_slice()).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_never_panics(cut in 0usize..100_000) {
        let bytes = reference_model_bytes();
        let cut = cut % (bytes.len() + 1);
        // Either loads (cut == len) or errors; must never panic.
        let result = load_model_from(&bytes[..cut]);
        if cut == bytes.len() {
            prop_assert!(result.is_ok());
        } else {
            // A strict prefix is missing data; loading may only succeed
            // if the format were self-terminating earlier, which it is
            // not — expect an error.
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn byte_flips_never_panic(offset in 0usize..100_000, xor in 1u8..=255) {
        let mut bytes = reference_model_bytes();
        let len = bytes.len();
        let offset = offset % len;
        bytes[offset] ^= xor;
        // Must not panic. If it loads, the classifier must still answer
        // queries without panicking (the mutation hit a benign field,
        // e.g. a point coordinate).
        if let Ok(clf) = load_model_from(bytes.as_slice()) {
            let _ = clf.classify(&[0.0, 0.0]);
        }
    }

    #[test]
    fn appended_garbage_is_ignored_or_rejected(extra in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut bytes = reference_model_bytes();
        bytes.extend_from_slice(&extra);
        // The reader consumes exactly the encoded structure; trailing
        // bytes are simply unread. Loading must succeed and match the
        // clean model's behaviour.
        let clf = load_model_from(bytes.as_slice()).unwrap();
        let clean = load_model_from(reference_model_bytes().as_slice()).unwrap();
        // Bit-identical: same bytes decode to the same threshold.
        prop_assert_eq!(clf.threshold().to_bits(), clean.threshold().to_bits());
    }

    /// fit → save → load → classify: the round-tripped model must label
    /// arbitrary query sets identically to the original, through the
    /// unified batch API under both scheduling policies.
    #[test]
    fn round_tripped_model_labels_identically(
        seed in any::<u64>(),
        n_queries in 1usize..120,
        spread in 0.5f64..4.0,
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut data = Matrix::with_cols(2);
        for _ in 0..250 {
            data.push_row(&[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)]).unwrap();
        }
        let clf = Classifier::fit(&data, &Params::default().with_seed(seed ^ 0xA5)).unwrap();
        let mut buf = Vec::new();
        save_model_to(&clf, &mut buf).unwrap();
        let loaded = load_model_from(buf.as_slice()).unwrap();

        let mut queries = Matrix::with_cols(2);
        for _ in 0..n_queries {
            queries.push_row(&[rng.normal(0.0, spread), rng.normal(0.0, spread)]).unwrap();
        }
        let (original, _) = clf
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        let (reloaded, _) = loaded
            .classify_batch_with(&queries, ExecPolicy::Serial)
            .unwrap();
        prop_assert_eq!(&original, &reloaded);
        let (reloaded_par, _) = loaded
            .classify_batch_with(&queries, ExecPolicy::with_threads(4))
            .unwrap();
        prop_assert_eq!(&original, &reloaded_par);
    }
}
