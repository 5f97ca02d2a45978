//! Checkpoint sidecar files: `checkpoint-NNNNNN.ckpt` next to the log
//! segments. A checkpoint captures an opaque engine snapshot (the
//! platform serializes row-store + column-store state) at a commit ID,
//! so recovery restores the snapshot and replays only the log suffix.
//!
//! Write protocol: serialize into a temp file, fsync it, rename into
//! place, fsync the directory — a crash leaves either the old set of
//! checkpoints or the old set plus one complete new file, never a
//! half-written one that validates. The content is one CRC-framed
//! blob — `cid`, `max_tid` and the snapshot in codec encoding — so a
//! damaged file is detected and skipped at load time.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use hana_types::codec::{corrupt, Reader, Writer};
use hana_types::Result;

use super::frame::{decode_frame, encode_frame, FrameOutcome};
use super::segment::{numbered_files, sync_dir};
use super::WalCheckpoint;

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:06}.ckpt")
}

/// Checkpoint files, oldest sequence first.
fn list(dir: &Path) -> Vec<(u64, PathBuf)> {
    numbered_files(dir, "checkpoint-", ".ckpt").unwrap_or_default()
}

/// Durably write checkpoint `seq`.
pub(crate) fn write(dir: &Path, seq: u64, cid: u64, max_tid: u64, payload: &[u8]) -> Result<()> {
    fs::create_dir_all(dir)?;
    let mut body = Writer::default();
    body.uint(cid);
    body.uint(max_tid);
    body.bytes(payload);
    let body = body.into_bytes();
    let mut framed = Vec::with_capacity(body.len() + 8);
    encode_frame(&body, &mut framed);
    let tmp = dir.join(format!(".checkpoint-{seq:06}.tmp"));
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&framed)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, dir.join(checkpoint_name(seq)))?;
    sync_dir(dir);
    hana_obs::registry()
        .counter("hana_wal_checkpoints_total")
        .inc();
    Ok(())
}

/// Load the newest valid checkpoint whose `cid` is at most `cid_limit`.
///
/// The limit makes recovery robust against a sidecar that is *ahead* of
/// the surviving log (possible when a crash or a torture-test
/// truncation removes the log tail after the sidecar was written): a
/// checkpoint is only trusted once the log itself proves commits up to
/// its `cid` were durable. Damaged sidecars are skipped with a warning.
pub(crate) fn load_latest(dir: &Path, cid_limit: u64) -> Option<WalCheckpoint> {
    for (_seq, path) in list(dir).into_iter().rev() {
        let mut bytes = Vec::new();
        let Ok(mut f) = File::open(&path) else {
            continue;
        };
        if f.read_to_end(&mut bytes).is_err() {
            continue;
        }
        let ckpt = match decode_frame(&bytes) {
            FrameOutcome::Complete { payload, .. } => decode(payload),
            _ => Err(corrupt("checkpoint frame")),
        };
        match ckpt {
            Ok(ckpt) if ckpt.cid <= cid_limit => return Some(ckpt),
            Ok(_) => {}
            Err(e) => hana_obs::warn(format!(
                "ignoring damaged checkpoint sidecar {}: {e}",
                path.display()
            )),
        }
    }
    None
}

fn decode(body: &[u8]) -> Result<WalCheckpoint> {
    let mut r = Reader::new(body);
    let ckpt = WalCheckpoint {
        cid: r.uint()?,
        max_tid: r.uint()?,
        payload: r.bytes()?.to_vec(),
    };
    r.finish()?;
    Ok(ckpt)
}

/// Highest checkpoint sequence on disk (0 when none).
pub(crate) fn max_seq(dir: &Path) -> u64 {
    list(dir).last().map_or(0, |&(s, _)| s)
}
