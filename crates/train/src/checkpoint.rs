//! Crash-safe checkpointing for [`train_grouped`](crate::training::train_grouped).
//!
//! A checkpoint is everything needed to resume an interrupted grouped
//! training run **bitwise identically**: model parameters and
//! normalization running statistics ([`Module::export_state`]), SGD
//! momentum buffers, the shuffle RNG state, the epoch/step cursor, and
//! the per-epoch curve recorded so far. A [`Schedule::fingerprint`]
//! guards identity — a checkpoint saved for one (network, schedule) pair
//! refuses to load into another.
//!
//! # On-disk format (version 2)
//!
//! Each checkpoint is one file named `ckpt-{seq:08}.mbsckpt`: a single
//! ASCII header line, then a payload of one JSON metadata line followed
//! by the raw tensor bytes — the idiom the `*.mbsds` dataset format uses
//! (a JSON index, then raw records):
//!
//! ```text
//! MBSCKPT <version> <payload-bytes> <fnv1a64-hex>\n
//! {"fingerprint":...,"net":...,"curve":[...],"model":[[2,3],...],"velocities":[...]}\n
//! <model entry 0 as little-endian f32>...<velocities entry 0>...
//! ```
//!
//! The metadata holds every scalar field plus the shape of each `model`
//! and `velocities` entry; the blob holds their values in that order,
//! bit for bit. The header pins the format version, the exact payload
//! length (detects truncation), and an FNV-1a 64 checksum of the payload
//! (detects bit flips). Loading validates magic → version → length →
//! checksum → metadata JSON → blob length (the shapes must account for
//! every blob byte, checked before any tensor is allocated) → finite
//! values, in that order, so every torn, corrupted or poisoned file is
//! rejected with a descriptive error instead of producing a silently
//! wrong resume. The fingerprint is checked by the caller
//! ([`load_latest`]).
//!
//! Version 1 files (the whole checkpoint as one JSON payload, floats
//! printed as shortest-round-trip text) still load through the JSON
//! decoder; nothing writes them any more.
//!
//! # Non-finite state
//!
//! A NaN or ±Inf anywhere in the state means the run has diverged;
//! resuming it would only reproduce the divergence. [`save`] and
//! [`encode`] refuse such state with [`CheckpointError::NonFinite`]
//! before writing a byte, and [`decode`] rejects it the same way, so
//! [`load_latest`] falls back past a poisoned file to an older good one.
//!
//! # Durability
//!
//! [`save`] is atomic: the bytes are written to `<name>.tmp`, fsynced,
//! renamed over the final name, and the directory is fsynced so the
//! rename itself survives a crash. A crash mid-save therefore leaves
//! either the previous set of checkpoints intact or the new file fully
//! present — never a half-written `*.mbsckpt`. Rotation keeps the newest
//! `keep` files; [`load_latest`] scans newest → oldest and falls back
//! past corrupt files — each one recorded in the returned [`LoadReport`]
//! so callers can count and surface the damage — so a torn latest
//! checkpoint degrades to the previous good one rather than a panic.
//!
//! [`Module::export_state`]: crate::module::Module::export_state
//! [`Schedule::fingerprint`]: mbs_core::Schedule::fingerprint

use std::fmt;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use mbs_core::hash::{fnv1a64, fnv1a64_step};

use crate::module::StateEntry;
use crate::training::EpochStats;

/// Current checkpoint format version (the second header field).
pub const CKPT_VERSION: u64 = 2;

/// Header magic (the first header field).
pub const CKPT_MAGIC: &str = "MBSCKPT";

/// File extension of finished checkpoints (`.tmp` is appended while a
/// save is in flight; loaders ignore `.tmp` files).
pub const CKPT_EXT: &str = "mbsckpt";

/// Everything [`train_grouped`](crate::training::train_grouped) needs to
/// resume a run bitwise identically.
///
/// The cursor convention: `rng` is the shuffle RNG state **at the start
/// of `epoch`** (before that epoch's shuffle), and `step_in_epoch`
/// batches of that epoch are already complete with `loss_sum` the sum of
/// their losses over `steps` steps. An end-of-epoch checkpoint stores
/// the *next* epoch with `step_in_epoch == 0`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct TrainCheckpoint {
    /// [`Schedule::fingerprint`](mbs_core::Schedule::fingerprint) of the
    /// (network, schedule) pair this state belongs to.
    pub fingerprint: u64,
    /// Network name, for error messages only (identity is `fingerprint`).
    pub net: String,
    /// Epoch the resumed run continues in (0-based).
    pub epoch: usize,
    /// Batches of `epoch` already completed.
    pub step_in_epoch: usize,
    /// Sum of training losses over the completed steps of `epoch`.
    pub loss_sum: f32,
    /// Completed steps of `epoch` (equals `step_in_epoch`; kept separate
    /// so the loss average stays self-describing).
    pub steps: usize,
    /// xoshiro256++ shuffle-RNG state at the start of `epoch` (4 words).
    pub rng: Vec<u64>,
    /// Model state in [`Module::export_state`] order
    /// (parameters plus normalization running statistics).
    ///
    /// [`Module::export_state`]: crate::module::Module::export_state
    pub model: Vec<StateEntry>,
    /// SGD momentum buffers in `visit_params` order.
    pub velocities: Vec<StateEntry>,
    /// Per-epoch curve recorded so far (epochs `0..epoch`).
    pub curve: Vec<EpochStats>,
}

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file exists but is not a valid checkpoint (bad magic, torn
    /// write, checksum mismatch, unparseable payload, ...).
    Format(String),
    /// The file has a newer format version than this build understands.
    Version(u64),
    /// The checkpoint belongs to a different (network, schedule) pair.
    FingerprintMismatch {
        /// Fingerprint of the run trying to resume.
        expected: u64,
        /// Fingerprint stored in the checkpoint (network named in the
        /// error message).
        found: u64,
        /// Network name stored in the checkpoint.
        net: String,
    },
    /// The state holds a NaN or infinity: the run has diverged, and a
    /// resume from it would too. Raised by [`save`]/[`encode`] before a
    /// byte is written and by [`decode`] on a poisoned file.
    NonFinite {
        /// Which part of the state: `"model"`, `"velocities"`,
        /// `"loss_sum"` or `"curve"`.
        section: &'static str,
        /// Entry within the section (the curve's epoch row; 0 for
        /// `loss_sum`).
        entry: usize,
        /// Element within the entry (for `curve`: 0 `train_loss`,
        /// 1 `val_error_pct`, 2 `preact_first`, 3 `preact_last`).
        index: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            Self::Format(msg) => write!(f, "invalid checkpoint: {msg}"),
            Self::Version(v) => write!(
                f,
                "checkpoint format version {v} is newer than this build (max {CKPT_VERSION})"
            ),
            Self::FingerprintMismatch {
                expected,
                found,
                net,
            } => write!(
                f,
                "checkpoint was saved for a different network/schedule \
                 (stored {found:#018x} for net {net:?}, this run is {expected:#018x})"
            ),
            Self::NonFinite {
                section,
                entry,
                index,
            } => write!(
                f,
                "checkpoint state is not finite: {section} entry {entry} holds NaN or Inf \
                 at index {index} (diverged run?)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The version-2 metadata line: every field of a [`TrainCheckpoint`]
/// except the tensor values, which follow it as raw bytes.
#[derive(Serialize, Deserialize)]
struct Metadata {
    fingerprint: u64,
    net: String,
    epoch: usize,
    step_in_epoch: usize,
    loss_sum: f32,
    steps: usize,
    rng: Vec<u64>,
    curve: Vec<EpochStats>,
    /// Shape of each `model` entry, in order.
    model: Vec<Vec<usize>>,
    /// Shape of each `velocities` entry, in order.
    velocities: Vec<Vec<usize>>,
}

/// The two tensor sections, in blob order.
fn sections(ckpt: &TrainCheckpoint) -> [(&'static str, &[StateEntry]); 2] {
    [("model", &ckpt.model), ("velocities", &ckpt.velocities)]
}

/// Fails with [`CheckpointError::NonFinite`] at the first NaN or ±Inf in
/// `ckpt`, scalars first, then the tensors in blob order.
fn check_finite(ckpt: &TrainCheckpoint) -> Result<(), CheckpointError> {
    let non_finite = |section, entry, index| CheckpointError::NonFinite {
        section,
        entry,
        index,
    };
    if !ckpt.loss_sum.is_finite() {
        return Err(non_finite("loss_sum", 0, 0));
    }
    for (entry, e) in ckpt.curve.iter().enumerate() {
        let fields = [
            e.train_loss.is_finite(),
            e.val_error_pct.is_finite(),
            e.preact_first.is_finite(),
            e.preact_last.is_finite(),
        ];
        if let Some(index) = fields.iter().position(|&ok| !ok) {
            return Err(non_finite("curve", entry, index));
        }
    }
    for (section, entries) in sections(ckpt) {
        for (entry, e) in entries.iter().enumerate() {
            if let Some(index) = e.data.iter().position(|v| !v.is_finite()) {
                return Err(non_finite(section, entry, index));
            }
        }
    }
    Ok(())
}

/// Values a shape holds, or `None` if the product overflows.
fn elements(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Streams every tensor value of `ckpt`, in blob order, to `sink` as
/// little-endian bytes, a bounded chunk at a time.
fn for_each_blob_chunk(
    ckpt: &TrainCheckpoint,
    mut sink: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    const CHUNK: usize = 16 * 1024;
    let mut buf = Vec::with_capacity(CHUNK * 4);
    for (_, entries) in sections(ckpt) {
        for e in entries {
            for values in e.data.chunks(CHUNK) {
                buf.clear();
                buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
                sink(&buf)?;
            }
        }
    }
    Ok(())
}

/// Writes `ckpt` in the current on-disk format to `w`: the one writer
/// behind [`encode`] and [`save`].
///
/// The tensor values are streamed twice — once through the checksum,
/// once to `w` — in bounded chunks, so no copy of the state is built.
///
/// # Errors
///
/// [`CheckpointError::NonFinite`] if the state holds a NaN or ±Inf and
/// [`CheckpointError::Format`] if an entry's data does not fill its
/// shape — both before anything is written; [`CheckpointError::Io`] if
/// `w` fails.
pub fn encode_into<W: Write>(ckpt: &TrainCheckpoint, w: &mut W) -> Result<(), CheckpointError> {
    check_finite(ckpt)?;
    let mut blob_len = 0usize;
    for (section, entries) in sections(ckpt) {
        for (entry, e) in entries.iter().enumerate() {
            if elements(&e.shape) != Some(e.data.len()) {
                return Err(CheckpointError::Format(format!(
                    "{section} entry {entry} has shape {:?} but {} values",
                    e.shape,
                    e.data.len()
                )));
            }
            blob_len += e.data.len() * 4;
        }
    }
    let shapes = |entries: &[StateEntry]| entries.iter().map(|e| e.shape.clone()).collect();
    let mut meta = serde_json::to_string(&Metadata {
        fingerprint: ckpt.fingerprint,
        net: ckpt.net.clone(),
        epoch: ckpt.epoch,
        step_in_epoch: ckpt.step_in_epoch,
        loss_sum: ckpt.loss_sum,
        steps: ckpt.steps,
        rng: ckpt.rng.clone(),
        curve: ckpt.curve.clone(),
        model: shapes(&ckpt.model),
        velocities: shapes(&ckpt.velocities),
    })
    .expect("checkpoint metadata always serializes");
    // Compact JSON escapes every newline inside strings, so this one
    // ends the metadata unambiguously.
    meta.push('\n');
    let mut checksum = fnv1a64(meta.as_bytes());
    for_each_blob_chunk(ckpt, |bytes| {
        checksum = fnv1a64_step(checksum, bytes);
        Ok(())
    })?;
    let payload_len = meta.len() + blob_len;
    writeln!(
        w,
        "{CKPT_MAGIC} {CKPT_VERSION} {payload_len} {checksum:016x}"
    )?;
    w.write_all(meta.as_bytes())?;
    for_each_blob_chunk(ckpt, |bytes| w.write_all(bytes))?;
    Ok(())
}

/// Encodes a checkpoint to its on-disk bytes (see [`encode_into`]).
///
/// # Errors
///
/// As [`encode_into`], minus I/O.
pub fn encode(ckpt: &TrainCheckpoint) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = Vec::new();
    encode_into(ckpt, &mut bytes)?;
    Ok(bytes)
}

/// Decodes and fully validates on-disk checkpoint bytes, of the current
/// version or version 1.
///
/// # Errors
///
/// [`CheckpointError::Format`] on bad magic, malformed header, length
/// mismatch (truncation), checksum mismatch (corruption), unparseable
/// metadata, or shapes that do not account for the tensor bytes exactly;
/// [`CheckpointError::Version`] when the header declares a version newer
/// than [`CKPT_VERSION`]; [`CheckpointError::NonFinite`] when the state
/// holds a NaN or ±Inf.
pub fn decode(bytes: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let bad = |msg: String| CheckpointError::Format(msg);
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad("missing header line".into()))?;
    let header =
        std::str::from_utf8(&bytes[..nl]).map_err(|_| bad("header is not valid UTF-8".into()))?;
    let mut fields = header.split_ascii_whitespace();
    let magic = fields.next().unwrap_or("");
    if magic != CKPT_MAGIC {
        return Err(bad(format!("bad magic {magic:?} (want {CKPT_MAGIC:?})")));
    }
    let version: u64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("header version field is not an integer".into()))?;
    if version > CKPT_VERSION {
        return Err(CheckpointError::Version(version));
    }
    let declared_len: usize = fields
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("header length field is not an integer".into()))?;
    let checksum = fields
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| bad("header checksum field is not hex".into()))?;
    if fields.next().is_some() {
        return Err(bad("trailing header fields".into()));
    }
    let payload = &bytes[nl + 1..];
    if payload.len() != declared_len {
        return Err(bad(format!(
            "payload is {} bytes but the header declares {declared_len} (truncated write?)",
            payload.len()
        )));
    }
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(bad(format!(
            "payload checksum {actual:016x} does not match header {checksum:016x} (corrupt file?)"
        )));
    }
    let ckpt = if version == CKPT_VERSION {
        decode_v2(payload)?
    } else {
        decode_v1(payload)?
    };
    check_finite(&ckpt)?;
    Ok(ckpt)
}

/// Version 1: the whole checkpoint as one JSON document.
fn decode_v1(payload: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let bad = |msg: String| CheckpointError::Format(msg);
    let payload =
        std::str::from_utf8(payload).map_err(|_| bad("payload is not valid UTF-8".into()))?;
    serde_json::from_str(payload).map_err(|e| bad(format!("payload does not parse: {e}")))
}

/// Version 2: a metadata line, then the raw tensor blob.
fn decode_v2(payload: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let bad = |msg: String| CheckpointError::Format(msg);
    let nl = payload
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad("metadata line is not terminated".into()))?;
    let meta = std::str::from_utf8(&payload[..nl])
        .map_err(|_| bad("metadata is not valid UTF-8".into()))?;
    let meta: Metadata =
        serde_json::from_str(meta).map_err(|e| bad(format!("metadata does not parse: {e}")))?;
    let blob = &payload[nl + 1..];
    // Prove the shapes account for the blob exactly before allocating
    // anything they declare.
    let declared = meta
        .model
        .iter()
        .chain(&meta.velocities)
        .try_fold(0usize, |sum, shape| {
            elements(shape)?.checked_mul(4)?.checked_add(sum)
        });
    if declared != Some(blob.len()) {
        let declared = declared.map_or("more than usize::MAX".into(), |n| n.to_string());
        return Err(bad(format!(
            "metadata shapes declare {declared} tensor bytes but the blob holds {}",
            blob.len()
        )));
    }
    let mut rest = blob;
    let mut take = |shapes: Vec<Vec<usize>>| -> Vec<StateEntry> {
        shapes
            .into_iter()
            .map(|shape| {
                let n = elements(&shape).expect("checked above");
                let (head, tail) = rest.split_at(n * 4);
                rest = tail;
                let data = head
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect();
                StateEntry { shape, data }
            })
            .collect()
    };
    let model = take(meta.model);
    let velocities = take(meta.velocities);
    Ok(TrainCheckpoint {
        fingerprint: meta.fingerprint,
        net: meta.net,
        epoch: meta.epoch,
        step_in_epoch: meta.step_in_epoch,
        loss_sum: meta.loss_sum,
        steps: meta.steps,
        rng: meta.rng,
        model,
        velocities,
        curve: meta.curve,
    })
}

/// File name of checkpoint number `seq` (`ckpt-00000042.mbsckpt`).
pub fn file_name(seq: usize) -> String {
    format!("ckpt-{seq:08}.{CKPT_EXT}")
}

/// Atomically writes checkpoint `seq` into `dir` and rotates old files,
/// keeping the newest `keep` (`keep == 0` is treated as 1).
///
/// The bytes stream from [`encode_into`] into `<name>.tmp`, are fsynced,
/// renamed over the final name, and the directory is fsynced — a crash
/// at any point leaves either the old checkpoint set or the new file
/// complete, never a torn `*.mbsckpt`.
///
/// # Errors
///
/// Propagates filesystem failures as [`CheckpointError::Io`]; refuses
/// non-finite state with [`CheckpointError::NonFinite`], leaving the
/// directory as it was.
pub fn save(
    dir: &Path,
    seq: usize,
    ckpt: &TrainCheckpoint,
    keep: usize,
) -> Result<PathBuf, CheckpointError> {
    let path = write_atomic(dir, seq, |w| encode_into(ckpt, w))?;
    rotate(dir, keep.max(1))?;
    Ok(path)
}

/// The atomic tmp-write/fsync/rename/dir-fsync sequence behind [`save`],
/// taking the writer as a closure so fault-injection tests can write
/// corrupted images through the same code path. A failed write removes
/// its `.tmp` file.
fn write_atomic(
    dir: &Path,
    seq: usize,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), CheckpointError>,
) -> Result<PathBuf, CheckpointError> {
    fs::create_dir_all(dir)?;
    let path = dir.join(file_name(seq));
    let tmp = dir.join(format!("{}.tmp", file_name(seq)));
    let written = write_synced(&tmp, write);
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    fs::rename(&tmp, &path)?;
    sync_dir(dir);
    Ok(path)
}

/// Creates `path`, fills it through `write`, and fsyncs it.
fn write_synced(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), CheckpointError>,
) -> Result<(), CheckpointError> {
    let mut w = BufWriter::with_capacity(1 << 16, File::create(path)?);
    write(&mut w)?;
    let f = w.into_inner().map_err(|e| e.into_error())?;
    f.sync_all()?;
    Ok(())
}

/// Fsyncs the directory so a just-renamed file survives a crash. Best
/// effort: some platforms cannot fsync directories, and losing *this*
/// sync only risks the rename, never a torn file.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Deletes all but the newest `keep` finished checkpoints in `dir`.
fn rotate(dir: &Path, keep: usize) -> Result<(), CheckpointError> {
    let mut found = list(dir)?;
    if found.len() > keep {
        let cut = found.len() - keep;
        for (_, path) in found.drain(..cut) {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// Finished checkpoints in `dir` as `(seq, path)`, oldest first. In-flight
/// `*.tmp` files and unrelated names are ignored; a missing directory is
/// an empty list.
pub fn list(dir: &Path) -> Result<Vec<(usize, PathBuf)>, CheckpointError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        let seq = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(&format!(".{CKPT_EXT}")))
            .and_then(|digits| digits.parse::<usize>().ok());
        if let Some(seq) = seq {
            found.push((seq, path));
        }
    }
    found.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// Loads and validates one checkpoint file.
///
/// # Errors
///
/// See [`decode`]; I/O failures surface as [`CheckpointError::Io`].
pub fn load_file(path: &Path) -> Result<TrainCheckpoint, CheckpointError> {
    decode(&fs::read(path)?)
}

/// Which files [`load_latest`] had to skip on its way to a loadable
/// checkpoint, and why.
///
/// The durable-write protocol makes corrupt finished checkpoints possible
/// only via external damage, but damaged files must *degrade visibly*,
/// not crash — and not vanish into a stderr warning either. Callers (the
/// resume path in `train_grouped`, the serving hot-swap path) inspect the
/// report to count and surface corruption instead of silently serving an
/// older model than they thought.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// `(path, reason)` for every file that looked like a checkpoint but
    /// failed to load, newest first (the scan order).
    pub skipped: Vec<(PathBuf, String)>,
}

impl LoadReport {
    /// `true` when no file had to be skipped.
    pub fn is_clean(&self) -> bool {
        self.skipped.is_empty()
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.skipped.is_empty() {
            return write!(f, "no checkpoints skipped");
        }
        write!(
            f,
            "skipped {} unreadable checkpoint(s):",
            self.skipped.len()
        )?;
        for (path, reason) in &self.skipped {
            write!(f, "\n  {}: {reason}", path.display())?;
        }
        Ok(())
    }
}

/// Loads the newest checkpoint in `dir` that matches `fingerprint`.
///
/// Scans newest → oldest. Corrupt or torn files are skipped — recorded in
/// the returned [`LoadReport`] (and warned on stderr) — so a torn latest
/// checkpoint degrades to the previous good one rather than a panic.
/// Returns `Ok((None, report))` when the directory holds no loadable
/// checkpoint — the caller starts cold, with the report saying whether
/// that is an empty directory or a directory full of damage.
///
/// # Errors
///
/// A checkpoint that *decodes* but carries a different fingerprint is a
/// **hard** [`CheckpointError::FingerprintMismatch`]: resuming a
/// different network/schedule silently would corrupt the run, so the
/// caller must choose a fresh directory instead.
pub fn load_latest(
    dir: &Path,
    fingerprint: u64,
) -> Result<(Option<(usize, TrainCheckpoint)>, LoadReport), CheckpointError> {
    let mut report = LoadReport::default();
    for (seq, path) in list(dir)?.into_iter().rev() {
        match load_file(&path) {
            Ok(ckpt) if ckpt.fingerprint == fingerprint => return Ok((Some((seq, ckpt)), report)),
            Ok(ckpt) => {
                return Err(CheckpointError::FingerprintMismatch {
                    expected: fingerprint,
                    found: ckpt.fingerprint,
                    net: ckpt.net,
                })
            }
            Err(e) => {
                eprintln!(
                    "warning: skipping unreadable checkpoint {}: {e}",
                    path.display()
                );
                report.skipped.push((path, e.to_string()));
            }
        }
    }
    Ok((None, report))
}

/// Where, how often, and how durably
/// [`train_grouped`](crate::training::train_grouped) checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Directory the `ckpt-*.mbsckpt` files live in (created on demand).
    pub dir: PathBuf,
    /// Save every `every_steps` training steps; `0` saves only at epoch
    /// boundaries. Epoch boundaries always save regardless.
    pub every_steps: usize,
    /// How many finished checkpoints rotation keeps (minimum 1).
    pub keep: usize,
    /// Whether to resume from the newest matching checkpoint in `dir`
    /// (`false` trains cold but still saves).
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpointing into `dir` with the defaults: epoch-boundary saves
    /// only, keep 3, resume enabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every_steps: 0,
            keep: 3,
            resume: true,
        }
    }

    /// Builds a config from the `MBS_CKPT_DIR` / `MBS_CKPT_EVERY`
    /// environment knobs, or `None` when `MBS_CKPT_DIR` is unset.
    /// Malformed values warn and fall back (an unparseable `MBS_CKPT_DIR`
    /// cannot exist — any string is a path; a malformed `MBS_CKPT_EVERY`
    /// falls back to epoch-boundary saves).
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var_os("MBS_CKPT_DIR")?;
        let mut cfg = Self::new(PathBuf::from(dir));
        if let Some(every) = mbs_tensor::env::knob(
            "MBS_CKPT_EVERY",
            "a non-negative step count (0 = epoch boundaries only)",
            |s| s.parse::<usize>().ok(),
        ) {
            cfg.every_steps = every;
        }
        Some(cfg)
    }
}

/// One way a [`FaultPlan`] damages a save (test-only harness; the
/// training loop itself never corrupts files).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The process "dies" after writing the `.tmp` file but before the
    /// rename: the finished checkpoint never appears, the torn `.tmp`
    /// must be ignored by loaders.
    KillMidWrite,
    /// The file appears but its last `n` bytes are missing (header
    /// length check must reject it).
    Truncate(usize),
    /// The file appears with byte `i` (mod length) bit-flipped
    /// (checksum must reject it).
    FlipByte(usize),
}

/// Deterministic fault-injection plan for checkpoint saves.
///
/// `train_grouped` threads each save through
/// [`FaultPlan::apply`]; tests attach faults to specific save indices
/// and a kill point, making "crashed mid-write at save 2, then died
/// after save 3" a reproducible scenario instead of a race.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(save_index, fault)` pairs: the `i`-th save (0-based, counted
    /// across the whole run) suffers `fault`.
    pub faults: Vec<(usize, Fault)>,
    /// Deterministically "kill" the run (return
    /// [`TrainError::Killed`](crate::training::TrainError::Killed))
    /// after this many saves have completed.
    pub kill_after_saves: Option<usize>,
}

impl FaultPlan {
    /// A plan that kills the run after `n` saves, damaging none of them.
    pub fn kill_after(n: usize) -> Self {
        Self {
            faults: Vec::new(),
            kill_after_saves: Some(n),
        }
    }

    /// A plan that applies `fault` to save `index` and never kills.
    pub fn fault_at(index: usize, fault: Fault) -> Self {
        Self {
            faults: vec![(index, fault)],
            kill_after_saves: None,
        }
    }

    /// Performs save number `index` (0-based) of checkpoint `seq` into
    /// `dir`, injecting this plan's fault for that index if any.
    ///
    /// # Errors
    ///
    /// Same as [`save`]; injected damage is not an error (the point is
    /// that *loading* detects it).
    pub fn apply(
        &self,
        index: usize,
        dir: &Path,
        seq: usize,
        ckpt: &TrainCheckpoint,
        keep: usize,
    ) -> Result<(), CheckpointError> {
        let fault = self
            .faults
            .iter()
            .find(|(i, _)| *i == index)
            .map(|&(_, f)| f);
        match fault {
            None => {
                save(dir, seq, ckpt, keep)?;
            }
            Some(Fault::KillMidWrite) => {
                // Write and fsync the tmp file, then "die": no rename.
                fs::create_dir_all(dir)?;
                let tmp = dir.join(format!("{}.tmp", file_name(seq)));
                write_synced(&tmp, |w| encode_into(ckpt, w))?;
            }
            Some(Fault::Truncate(n)) => {
                let bytes = encode(ckpt)?;
                let cut = bytes.len().saturating_sub(n.max(1));
                write_atomic(dir, seq, |w| Ok(w.write_all(&bytes[..cut])?))?;
                rotate(dir, keep.max(1))?;
            }
            Some(Fault::FlipByte(i)) => {
                let mut bytes = encode(ckpt)?;
                let at = i % bytes.len();
                bytes[at] ^= 0x40;
                write_atomic(dir, seq, |w| Ok(w.write_all(&bytes)?))?;
                rotate(dir, keep.max(1))?;
            }
        }
        Ok(())
    }

    /// Whether the run should die now, having completed `saves` saves.
    pub fn should_kill(&self, saves: usize) -> bool {
        self.kill_after_saves.is_some_and(|n| saves >= n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbsckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(fingerprint: u64) -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint,
            net: "TestNet".into(),
            epoch: 3,
            step_in_epoch: 2,
            loss_sum: 1.25,
            steps: 2,
            rng: vec![1, 2, 3, 4],
            model: vec![StateEntry {
                shape: vec![2, 2],
                data: vec![0.5, -0.25, f32::MIN_POSITIVE, 1.0e10],
            }],
            velocities: vec![StateEntry {
                shape: vec![4],
                data: vec![0.0, -0.0, 0.125, 3.0],
            }],
            curve: vec![EpochStats {
                epoch: 0,
                train_loss: 1.5,
                val_error_pct: 42.0,
                preact_first: 0.25,
                preact_last: -0.5,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let ckpt = sample(0xdead_beef);
        let decoded = decode(&encode(&ckpt).unwrap()).unwrap();
        assert_eq!(decoded, ckpt);
        // PartialEq on f32 treats -0.0 == 0.0; check the sign survived.
        assert_eq!(decoded.velocities[0].data[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn decode_rejects_damage_with_descriptive_errors() {
        let good = encode(&sample(7)).unwrap();
        // Truncation: header length no longer matches.
        let torn = &good[..good.len() - 5];
        assert!(
            matches!(decode(torn), Err(CheckpointError::Format(msg)) if msg.contains("truncated"))
        );
        // Bit flip in the payload: checksum mismatch.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(
            matches!(decode(&flipped), Err(CheckpointError::Format(msg)) if msg.contains("checksum"))
        );
        // Wrong magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(
            matches!(decode(&magic), Err(CheckpointError::Format(msg)) if msg.contains("magic"))
        );
        // Future version.
        let mut bumped = format!("{CKPT_MAGIC} 99").into_bytes();
        bumped.extend_from_slice(&good[format!("{CKPT_MAGIC} {CKPT_VERSION}").len()..]);
        assert!(matches!(decode(&bumped), Err(CheckpointError::Version(99))));
    }

    /// `payload` behind a header that passes the length and checksum
    /// checks, so decoding reaches the payload's own validation.
    fn reseal(version: u64, payload: &[u8]) -> Vec<u8> {
        let mut bytes = format!(
            "{CKPT_MAGIC} {version} {} {:016x}\n",
            payload.len(),
            fnv1a64(payload)
        )
        .into_bytes();
        bytes.extend_from_slice(payload);
        bytes
    }

    fn payload(bytes: &[u8]) -> &[u8] {
        let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        &bytes[nl + 1..]
    }

    #[test]
    fn save_refuses_non_finite_state_and_writes_nothing() {
        let dir = scratch("nonfinite-save");
        save(&dir, 0, &sample(3), 3).unwrap();
        let poisoned = |poison: fn(&mut TrainCheckpoint)| {
            let mut ckpt = sample(3);
            poison(&mut ckpt);
            ckpt
        };
        let cases = [
            (poisoned(|c| c.model[0].data[2] = f32::NAN), ("model", 0, 2)),
            (
                poisoned(|c| c.velocities[0].data[3] = f32::INFINITY),
                ("velocities", 0, 3),
            ),
            (
                poisoned(|c| c.loss_sum = f32::NEG_INFINITY),
                ("loss_sum", 0, 0),
            ),
            (
                poisoned(|c| c.curve[0].val_error_pct = f64::NAN),
                ("curve", 0, 1),
            ),
        ];
        for (ckpt, want) in cases {
            let err = save(&dir, 1, &ckpt, 3).unwrap_err();
            assert!(
                matches!(err, CheckpointError::NonFinite { section, entry, index }
                    if (section, entry, index) == want),
                "{err}"
            );
            assert!(matches!(
                encode(&ckpt),
                Err(CheckpointError::NonFinite { .. })
            ));
        }
        // Only the good file is there: no finished or .tmp leftovers.
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from(file_name(0))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_non_finite_values_in_both_versions() {
        // v2: overwrite the last model value (blob bytes right before the
        // 16 velocity bytes) with +Inf.
        let good = encode(&sample(4)).unwrap();
        let mut p = payload(&good).to_vec();
        let at = p.len() - 16 - 4;
        p[at..at + 4].copy_from_slice(&f32::INFINITY.to_le_bytes());
        let err = decode(&reseal(CKPT_VERSION, &p)).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::NonFinite {
                    section: "model",
                    entry: 0,
                    index: 3
                }
            ),
            "{err}"
        );
        // v1 wrote NaN and Inf as JSON `null`, which reads back as NaN.
        let v1 = br#"{"fingerprint":1,"net":"N","epoch":0,"step_in_epoch":0,"loss_sum":0.0,"steps":0,"rng":[1,2,3,4],"model":[{"shape":[2],"data":[1.0,null]}],"velocities":[],"curve":[]}"#;
        let err = decode(&reseal(1, v1)).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::NonFinite {
                    section: "model",
                    entry: 0,
                    index: 1
                }
            ),
            "{err}"
        );
        // The same document with the null replaced loads.
        let fixed = String::from_utf8(v1.to_vec())
            .unwrap()
            .replace("null", "2.0");
        assert_eq!(
            decode(&reseal(1, fixed.as_bytes())).unwrap().model[0].data,
            [1.0, 2.0]
        );
    }

    #[test]
    fn load_latest_falls_back_past_a_poisoned_file() {
        let dir = scratch("poisoned");
        save(&dir, 0, &sample(6), 3).unwrap();
        let good = encode(&sample(6)).unwrap();
        let mut p = payload(&good).to_vec();
        let last = p.len() - 4;
        p[last..].copy_from_slice(&f32::NAN.to_le_bytes());
        write_atomic(&dir, 1, |w| Ok(w.write_all(&reseal(CKPT_VERSION, &p))?)).unwrap();
        let (found, report) = load_latest(&dir, 6).unwrap();
        assert_eq!(found.unwrap().0, 0, "must fall back past the NaN file");
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].0.ends_with(file_name(1)));
        assert!(report.skipped[0].1.contains("not finite"), "{report}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_rotates_and_load_latest_picks_newest() {
        let dir = scratch("rotate");
        for seq in 0..5 {
            let mut ckpt = sample(11);
            ckpt.epoch = seq;
            save(&dir, seq, &ckpt, 3).unwrap();
        }
        let kept: Vec<usize> = list(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        let (found, report) = load_latest(&dir, 11).unwrap();
        let (seq, ckpt) = found.unwrap();
        assert_eq!((seq, ckpt.epoch), (4, 4));
        assert!(report.is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_falls_back_past_corrupt_newest() {
        let dir = scratch("fallback");
        save(&dir, 0, &sample(5), 3).unwrap();
        // Newest is damaged two different ways; both must be skipped.
        FaultPlan::fault_at(0, Fault::Truncate(10))
            .apply(0, &dir, 1, &sample(5), 3)
            .unwrap();
        FaultPlan::fault_at(0, Fault::FlipByte(40))
            .apply(0, &dir, 2, &sample(5), 3)
            .unwrap();
        let (found, report) = load_latest(&dir, 5).unwrap();
        let (seq, _) = found.unwrap();
        assert_eq!(seq, 0, "must fall back to the oldest intact file");
        // Both damaged files are surfaced, newest first, with reasons.
        assert_eq!(report.skipped.len(), 2);
        assert!(report.skipped[0].0.ends_with("ckpt-00000002.mbsckpt"));
        assert!(report.skipped[0].1.contains("checksum"));
        assert!(report.skipped[1].0.ends_with("ckpt-00000001.mbsckpt"));
        assert!(report.skipped[1].1.contains("truncated"));
        assert!(report.to_string().contains("skipped 2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_files_are_invisible() {
        let dir = scratch("torn");
        FaultPlan::fault_at(0, Fault::KillMidWrite)
            .apply(0, &dir, 0, &sample(9), 3)
            .unwrap();
        assert!(dir.join("ckpt-00000000.mbsckpt.tmp").exists());
        assert!(list(&dir).unwrap().is_empty());
        let (found, report) = load_latest(&dir, 9).unwrap();
        assert!(found.is_none());
        assert!(report.is_clean(), "tmp files are not skipped checkpoints");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_fingerprint_is_a_hard_error() {
        let dir = scratch("fpr");
        save(&dir, 0, &sample(1), 3).unwrap();
        let err = load_latest(&dir, 2).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::FingerprintMismatch {
                expected: 2,
                found: 1,
                ..
            }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_a_cold_start() {
        let dir = scratch("missing");
        let (found, report) = load_latest(&dir, 0).unwrap();
        assert!(found.is_none());
        assert!(report.is_clean());
    }
}
