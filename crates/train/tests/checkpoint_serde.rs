//! Checkpoint format pinning: property-based round-trips (every finite
//! f32 bit pattern must survive encode → decode bitwise), golden files
//! committed to the repo so accidental format drift breaks CI instead of
//! silently orphaning users' saved checkpoints, and hostile inputs that
//! must fail with a structured error rather than a panic or a huge
//! allocation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use mbs_core::fnv1a64;
use mbs_train::checkpoint::{decode, encode, CKPT_MAGIC, CKPT_VERSION};
use mbs_train::{CheckpointError, EpochStats, StateEntry, TrainCheckpoint};

/// A finite f32 drawn uniformly from the *bit* space (subnormals,
/// negative zero, huge and tiny magnitudes included) — the values JSON
/// round-tripping is most likely to mangle.
fn finite_f32(rng: &mut StdRng) -> f32 {
    loop {
        let v = f32::from_bits(rng.next_u32());
        if v.is_finite() {
            return v;
        }
    }
}

/// A random shape of rank 1–3 holding at most `max_elems` values.
fn arbitrary_shape(rng: &mut StdRng, max_elems: usize) -> Vec<usize> {
    let n = rng.gen_range(1..=max_elems.max(1));
    match rng.gen_range(0usize..3) {
        0 => vec![n],
        1 => vec![n, rng.gen_range(1usize..4)],
        _ => vec![rng.gen_range(1usize..3), n, rng.gen_range(1usize..3)],
    }
}

fn arbitrary_checkpoint(seed: u64, entries: usize, max_elems: usize) -> TrainCheckpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let tensor = |rng: &mut StdRng| {
        let shape = arbitrary_shape(rng, max_elems);
        let n = shape.iter().product();
        StateEntry {
            shape,
            data: (0..n).map(|_| finite_f32(rng)).collect(),
        }
    };
    TrainCheckpoint {
        fingerprint: rng.next_u64(),
        net: format!("Net{seed}"),
        epoch: rng.gen_range(0usize..100),
        step_in_epoch: rng.gen_range(0usize..50),
        loss_sum: finite_f32(&mut rng),
        steps: rng.gen_range(0usize..50),
        rng: (0..4).map(|_| rng.next_u64()).collect(),
        model: (0..entries).map(|_| tensor(&mut rng)).collect(),
        velocities: (0..entries).map(|_| tensor(&mut rng)).collect(),
        curve: (0..rng.gen_range(0usize..4))
            .map(|epoch| EpochStats {
                epoch,
                train_loss: finite_f32(&mut rng),
                val_error_pct: (rng.next_u64() % 10_000) as f64 / 100.0,
                preact_first: finite_f32(&mut rng),
                preact_last: finite_f32(&mut rng),
            })
            .collect(),
    }
}

fn assert_bitwise_eq(a: &TrainCheckpoint, b: &TrainCheckpoint) {
    // PartialEq is not enough: -0.0 == 0.0 under f32 comparison. Compare
    // every float through its bit pattern.
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.net, b.net);
    assert_eq!(a.epoch, b.epoch);
    assert_eq!(a.step_in_epoch, b.step_in_epoch);
    assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits());
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.rng, b.rng);
    for (x, y) in [(&a.model, &b.model), (&a.velocities, &b.velocities)] {
        assert_eq!(x.len(), y.len());
        for (ea, eb) in x.iter().zip(y) {
            assert_eq!(ea.shape, eb.shape);
            assert_eq!(ea.data.len(), eb.data.len());
            for (va, vb) in ea.data.iter().zip(&eb.data) {
                assert_eq!(va.to_bits(), vb.to_bits(), "tensor value drifted");
            }
        }
    }
    assert_eq!(a.curve.len(), b.curve.len());
    for (ca, cb) in a.curve.iter().zip(&b.curve) {
        assert_eq!(ca.epoch, cb.epoch);
        assert_eq!(ca.train_loss.to_bits(), cb.train_loss.to_bits());
        assert_eq!(ca.val_error_pct.to_bits(), cb.val_error_pct.to_bits());
        assert_eq!(ca.preact_first.to_bits(), cb.preact_first.to_bits());
        assert_eq!(ca.preact_last.to_bits(), cb.preact_last.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the identity on finite bit patterns drawn from
    /// the whole bit space, across several entries of mixed shapes and
    /// sizes per section.
    #[test]
    fn round_trip_is_bitwise(
        seed in 0u64..10_000,
        entries in 1usize..6,
        max_elems in 1usize..300,
    ) {
        let ckpt = arbitrary_checkpoint(seed, entries, max_elems);
        let decoded = decode(&encode(&ckpt).expect("finite state encodes"))
            .expect("self-encoded bytes must decode");
        assert_bitwise_eq(&ckpt, &decoded);
    }

    /// Encoding is deterministic: the same checkpoint always produces the
    /// same bytes (rotation, checksums, and the golden test rely on it).
    #[test]
    fn encoding_is_deterministic(seed in 0u64..10_000) {
        let ckpt = arbitrary_checkpoint(seed, 2, 8);
        assert_eq!(encode(&ckpt).unwrap(), encode(&ckpt).unwrap());
    }
}

/// A strided sweep of the whole f32 bit space (every exponent, both
/// signs, subnormals) plus the edge values, split over entries larger
/// than the encoder's streaming chunk: every finite pattern survives.
#[test]
fn finite_bit_space_sweep_round_trips() {
    let edges = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        f32::from_bits(0x807f_ffff),
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
    ];
    let sweep: Vec<f32> = (0..=u32::MAX / 0x1_0001)
        .map(|i| f32::from_bits(i * 0x1_0001))
        .chain(edges)
        .filter(|v| v.is_finite())
        .collect();
    let mut ckpt = arbitrary_checkpoint(7, 1, 1);
    let half = sweep.len() / 2;
    ckpt.model = vec![StateEntry::from_slice(&sweep[..half])];
    ckpt.velocities = vec![
        StateEntry::from_slice(&sweep[half..]),
        StateEntry {
            shape: vec![3, 0],
            data: vec![],
        },
    ];
    let decoded = decode(&encode(&ckpt).unwrap()).unwrap();
    assert_bitwise_eq(&ckpt, &decoded);
}

/// The fixed checkpoint pinned in `tests/data/golden-v1.mbsckpt`.
fn golden_checkpoint() -> TrainCheckpoint {
    TrainCheckpoint {
        fingerprint: 0x0123_4567_89ab_cdef,
        net: "GoldenNet".into(),
        epoch: 2,
        step_in_epoch: 3,
        loss_sum: 1.5,
        steps: 3,
        rng: vec![
            0x1111_1111_1111_1111,
            0x2222_2222_2222_2222,
            0x3333_3333_3333_3333,
            0x4444_4444_4444_4444,
        ],
        model: vec![
            StateEntry {
                shape: vec![2, 3],
                data: vec![1.0, -0.5, 0.25, f32::MIN_POSITIVE, -0.0, 3.0e10],
            },
            StateEntry {
                shape: vec![2],
                data: vec![0.1, -0.1],
            },
        ],
        velocities: vec![StateEntry {
            shape: vec![6],
            data: vec![0.0; 6],
        }],
        curve: vec![
            EpochStats {
                epoch: 0,
                train_loss: 2.0,
                val_error_pct: 75.0,
                preact_first: 0.5,
                preact_last: -0.25,
            },
            EpochStats {
                epoch: 1,
                train_loss: 1.75,
                val_error_pct: 60.0,
                preact_first: 0.5,
                preact_last: -0.25,
            },
        ],
    }
}

fn golden_path(version: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join(format!("golden-v{version}.mbsckpt"))
}

fn read_golden(version: u64) -> Vec<u8> {
    std::fs::read(golden_path(version)).expect(
        "golden checkpoint missing; run \
         `cargo test -p mbs-train --test checkpoint_serde -- --ignored regenerate_golden`",
    )
}

/// Migration pin: the committed version-1 (all-JSON) golden file still
/// decodes bitwise to the known checkpoint, though nothing writes v1.
#[test]
fn golden_v1_file_still_decodes() {
    let decoded = decode(&read_golden(1)).expect("v1 golden file must decode");
    assert_bitwise_eq(&decoded, &golden_checkpoint());
}

/// Format-drift tripwire: the committed golden file of the current
/// version must still decode to the known checkpoint, and re-encoding
/// that checkpoint must reproduce the committed bytes exactly. Either
/// direction failing means the on-disk format changed — bump
/// `CKPT_VERSION` and add a migration instead of editing the golden file
/// in place.
#[test]
fn golden_file_pins_the_format() {
    let bytes = read_golden(CKPT_VERSION);
    let decoded = decode(&bytes).expect("golden file must decode");
    assert_bitwise_eq(&decoded, &golden_checkpoint());
    assert_eq!(
        encode(&golden_checkpoint()).unwrap(),
        bytes,
        "encoder output drifted from the committed golden file"
    );
}

/// Writes the golden file of the current version. Run explicitly (and
/// review the diff!) only when the format version is intentionally
/// bumped; older golden files stay as committed:
/// `cargo test -p mbs-train --test checkpoint_serde -- --ignored regenerate_golden`
#[test]
#[ignore]
fn regenerate_golden() {
    let path = golden_path(CKPT_VERSION);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, encode(&golden_checkpoint()).unwrap()).unwrap();
}

/// The golden checkpoint's payload split into its metadata line (with
/// the newline) and tensor blob.
fn golden_parts() -> (String, Vec<u8>) {
    let bytes = encode(&golden_checkpoint()).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let payload = &bytes[header_end..];
    let meta_end = payload.iter().position(|&b| b == b'\n').unwrap() + 1;
    let meta = String::from_utf8(payload[..meta_end].to_vec()).unwrap();
    (meta, payload[meta_end..].to_vec())
}

/// `meta` + `blob` behind a header whose length and checksum match, so
/// decoding gets past the integrity checks to the payload's own.
fn sealed(meta: &str, blob: &[u8]) -> Vec<u8> {
    let mut payload = meta.as_bytes().to_vec();
    payload.extend_from_slice(blob);
    let mut bytes = format!(
        "{CKPT_MAGIC} {CKPT_VERSION} {} {:016x}\n",
        payload.len(),
        fnv1a64(&payload)
    )
    .into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

fn assert_format_error(bytes: &[u8], needle: &str, case: &str) {
    match decode(bytes) {
        Err(CheckpointError::Format(msg)) => {
            assert!(msg.contains(needle), "{case}: {msg:?} lacks {needle:?}")
        }
        other => panic!("{case}: expected a Format error, got {other:?}"),
    }
}

#[test]
fn hostile_byte_flips_and_truncations_are_format_errors() {
    let (meta, blob) = golden_parts();
    let good = sealed(&meta, &blob);
    assert_bitwise_eq(&decode(&good).unwrap(), &golden_checkpoint());
    let header_len = good.len() - meta.len() - blob.len();

    let mut flipped = good.clone();
    flipped[header_len + meta.find("GoldenNet").unwrap()] ^= 0x20;
    assert_format_error(&flipped, "checksum", "flip in metadata");

    let mut flipped = good.clone();
    flipped[header_len + meta.len() + 5] ^= 0x01;
    assert_format_error(&flipped, "checksum", "flip in tensor blob");

    // Torn mid-tensor under the original header: the length check.
    let torn = &good[..good.len() - 6];
    assert_format_error(torn, "truncated", "truncated mid-tensor");
    // The same tear behind a matching header: the shapes check.
    let resealed = sealed(&meta, &blob[..blob.len() - 6]);
    assert_format_error(&resealed, "shapes declare", "resealed mid-tensor tear");
    // Torn inside the metadata line, resealed.
    let cut = sealed(&meta[..meta.len() / 2], &[]);
    assert_format_error(&cut, "metadata", "torn metadata");
}

#[test]
fn hostile_metadata_shapes_are_format_errors_before_allocation() {
    let (meta, blob) = golden_parts();
    let shapes = r#""model":[[2,3],[2]]"#;
    assert!(meta.contains(shapes), "{meta}");
    for (case, replacement) in [
        ("one element more", r#""model":[[2,4],[2]]"#),
        ("one element fewer", r#""model":[[2,2],[2]]"#),
        ("an entry too many", r#""model":[[2,3],[2],[1]]"#),
        ("an entry missing", r#""model":[[2,3]]"#),
        // 2^60 values: a declared size no allocator could satisfy.
        ("2^60 values", r#""model":[[1152921504606846976],[2]]"#),
        // The byte count overflows usize.
        ("overflow", r#""model":[[4611686018427387904,4],[2]]"#),
    ] {
        let bytes = sealed(&meta.replace(shapes, replacement), &blob);
        assert_format_error(&bytes, "shapes declare", case);
    }
}
