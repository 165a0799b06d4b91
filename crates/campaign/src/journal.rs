//! The crash-safe campaign journal.
//!
//! One JSONL file per campaign: a header line identifying the campaign
//! (name + fuel budget, so a resume with different settings is refused
//! rather than silently mixed), then one record per finished job. The
//! writer fsyncs every [`SYNC_BATCH`] records and once more at the end,
//! so at most one batch of finished jobs is lost to a `SIGKILL` — and a
//! torn final line (the classic crash artifact) is detected and
//! truncated away on reopen, never treated as data.
//!
//! Record layout (one line, itself valid JSON):
//!
//! ```text
//! {"v":1,"id":"<job id>","outcome":"<tag>","attempts":N[,"repro":"<path>"],"payload":<raw JSON>}
//! ```
//!
//! The payload field is written **last** and stored as the raw string
//! the campaign produced: on resume the engine slices it back out
//! byte-for-byte (no parse/re-render wobble), which is what makes
//! resumed aggregates byte-identical to an uninterrupted run.

use std::io::{Seek as _, Write as _};
use std::sync::Mutex;

use crate::json::{self, Layout, ToJson, Writer};

/// Records per fsync batch. Small enough that a kill loses little;
/// large enough that the fsync cost disappears under the VM runs.
pub const SYNC_BATCH: usize = 32;

/// One journaled job outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The deterministic job id.
    pub id: String,
    /// The outcome tag (`completed` / `fuel_exhausted` / `timed_out` /
    /// `panicked`).
    pub outcome: String,
    /// How many attempts the job took (1 = first try, 2 = retried).
    pub attempts: u32,
    /// Path of the repro artifact, for final failures.
    pub repro: Option<String>,
    /// The raw single-line JSON payload the campaign journaled.
    pub payload: String,
}

/// What [`Journal::open`] found in an existing file.
#[derive(Debug)]
pub struct Loaded {
    /// Records recovered from a previous run, in file order.
    pub records: Vec<Record>,
    /// 1 if a torn final line was truncated away, else 0.
    pub torn_lines: usize,
}

struct Inner {
    file: std::fs::File,
    pending: usize,
    appended: usize,
    kill_after: Option<usize>,
}

/// An append-only, fsync-batched journal handle. Shared across worker
/// threads behind its internal mutex.
pub struct Journal {
    inner: Mutex<Inner>,
}

/// The header line: the campaign's identity. A reopen compares it byte
/// for byte.
fn header_line(campaign: &str, fuel: u64) -> String {
    let mut w = Writer::new(Layout::Compact);
    w.obj().field("v", &1u8).field("campaign", campaign).field("fuel", &fuel).end();
    w.finish()
}

/// The record line. The payload is written last and raw, so a reopen
/// can slice it back out byte for byte.
impl ToJson for Record {
    fn write_json(&self, w: &mut Writer) {
        w.obj().field("v", &1u8).field("id", &self.id).field("outcome", &self.outcome);
        w.field("attempts", &self.attempts);
        if let Some(repro) = &self.repro {
            w.field("repro", repro);
        }
        w.key("payload").raw(&self.payload).end();
    }
}

/// Validates a job id: journal ids embed into JSON and file paths
/// without escaping, so the charset is locked down here once.
pub fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '/' | '.' | ':'))
}

impl Journal {
    /// Opens (or creates) the journal at `path`.
    ///
    /// A fresh or empty file gets the header written and synced. An
    /// existing file must carry a matching header — same campaign name
    /// and fuel budget — or the open fails (resuming under different
    /// settings would corrupt the aggregates). A torn final line is
    /// truncated away and counted in [`Loaded::torn_lines`]; a torn
    /// *header* means the previous run died before its first sync, so
    /// the file is reset. `kill_after` arms the crash-injection hook:
    /// the process aborts (as if `SIGKILL`ed) right after the file's
    /// nth record reaches the disk, counting the records it already
    /// held, so a campaign that reopens its journal between batches
    /// (`fuzz` does, once per round) still dies at the nth — test-only,
    /// driven by `OPEC_CAMPAIGN_KILL_AFTER` in the nightly CI
    /// kill-and-resume job. While armed, every append syncs so the
    /// abort point is exact.
    pub fn open(
        path: &str,
        campaign: &str,
        fuel: u64,
        kill_after: Option<usize>,
    ) -> Result<(Journal, Loaded), String> {
        let header = header_line(campaign, fuel);
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("cannot read journal {path}: {e}")),
        };

        let mut records = Vec::new();
        let mut torn_lines = 0usize;
        // Byte length of the valid prefix we keep; everything after is
        // torn tail and gets truncated before appends resume.
        let mut keep = 0usize;
        let mut fresh = true;

        if !existing.is_empty() {
            let mut lines: Vec<&str> = existing.split_inclusive('\n').collect();
            // A final chunk without its newline never finished writing.
            let torn_tail = lines.last().map(|l| !l.ends_with('\n')).unwrap_or(false);
            let tail = if torn_tail { lines.pop() } else { None };

            match lines.first() {
                None => {
                    // Only a torn header fragment: reset the file.
                    torn_lines += usize::from(tail.is_some());
                }
                Some(first) => {
                    if first.trim_end() != header {
                        return Err(format!(
                            "journal {path} belongs to a different campaign \
                             (header {:?}, expected {:?}); delete it or pass \
                             a different --journal path",
                            first.trim_end(),
                            header
                        ));
                    }
                    fresh = false;
                    keep = first.len();
                    for line in &lines[1..] {
                        match parse_record(line.trim_end()) {
                            Ok(rec) => {
                                keep += line.len();
                                records.push(rec);
                            }
                            Err(e) => {
                                return Err(format!("journal {path} is corrupt mid-file: {e}"))
                            }
                        }
                    }
                    if let Some(tail) = tail {
                        // A syntactically complete record that merely
                        // lost its newline to the crash still counts.
                        match parse_record(tail) {
                            Ok(rec) => {
                                keep += tail.len();
                                records.push(rec);
                            }
                            Err(_) => torn_lines += 1,
                        }
                    }
                }
            }
        }

        // Keep existing bytes (`set_len(keep)` below prunes only the
        // torn tail), so explicitly not `truncate(true)`.
        let mut file = std::fs::File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {path}: {e}"))?;
        file.set_len(keep as u64).map_err(|e| format!("cannot truncate journal {path}: {e}"))?;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| format!("cannot seek journal {path}: {e}"))?;
        if fresh {
            file.write_all(header.as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .and_then(|()| file.sync_data())
                .map_err(|e| format!("cannot write journal header to {path}: {e}"))?;
        }

        let appended = records.len();
        let journal =
            Journal { inner: Mutex::new(Inner { file, pending: 0, appended, kill_after }) };
        Ok((journal, Loaded { records, torn_lines }))
    }

    /// Appends one record. The payload must be single-line JSON; ids
    /// must satisfy [`valid_id`]. Syncs every [`SYNC_BATCH`] records
    /// (every record while the kill hook is armed).
    pub fn append(&self, rec: &Record) -> Result<(), String> {
        if !valid_id(&rec.id) {
            return Err(format!("invalid job id {:?}", rec.id));
        }
        if rec.payload.contains('\n') {
            return Err(format!("job {} payload is not single-line JSON", rec.id));
        }
        let mut line = json::to_string(rec, Layout::Compact);
        line.push('\n');

        let mut inner = self.inner.lock().unwrap();
        inner.file.write_all(line.as_bytes()).map_err(|e| format!("journal write: {e}"))?;
        inner.pending += 1;
        if inner.pending >= SYNC_BATCH || inner.kill_after.is_some() {
            inner.file.sync_data().map_err(|e| format!("journal sync: {e}"))?;
            inner.appended += inner.pending;
            inner.pending = 0;
            if let Some(n) = inner.kill_after {
                if inner.appended >= n {
                    // Simulate SIGKILL mid-campaign: no unwinding, no
                    // flush of anything else, straight down.
                    std::process::abort();
                }
            }
        }
        Ok(())
    }

    /// Final flush + fsync; call once after the worker pool joins.
    pub fn finish(&self) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap();
        if inner.pending > 0 {
            inner.file.sync_data().map_err(|e| format!("journal sync: {e}"))?;
            inner.appended += inner.pending;
            inner.pending = 0;
        }
        Ok(())
    }
}

/// Parses one record line, extracting the payload as the raw source
/// substring (it is the last field, so it slices out unambiguously).
fn parse_record(line: &str) -> Result<Record, String> {
    let (head, payload) =
        json::split_raw_tail(line, "payload").ok_or("no payload field, or unterminated record")?;
    // Validate both halves: the prefix fields re-closed as an object,
    // and the payload as standalone JSON (a torn payload fails here).
    let head = json::parse(&head)?;
    json::parse(payload)?;
    let id: String = head.field("id")?;
    if !valid_id(&id) {
        return Err(format!("invalid job id {id:?}"));
    }
    Ok(Record {
        id,
        outcome: head.field("outcome")?,
        attempts: head.field("attempts")?,
        repro: head.field("repro")?,
        payload: payload.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn records_round_trip(
            outcome in any::<String>(),
            attempts in any::<u32>(),
            repro in any::<String>(),
            with_repro in any::<bool>(),
            note in any::<String>(),
        ) {
            let payload = json::to_string(&vec![note], Layout::Compact);
            let rec = Record {
                id: "check/gen:3".to_string(),
                outcome,
                attempts,
                repro: with_repro.then_some(repro),
                payload,
            };
            let line = json::to_string(&rec, Layout::Compact);
            prop_assert_eq!(parse_record(&line), Ok(rec));
        }

        #[test]
        fn headers_parse_back(campaign in any::<String>(), fuel in any::<u64>()) {
            let v = json::parse(&header_line(&campaign, fuel)).unwrap();
            prop_assert_eq!(v.field::<String>("campaign"), Ok(campaign));
            prop_assert_eq!(v.field::<u64>("fuel"), Ok(fuel));
        }
    }

    #[test]
    fn attempts_out_of_range_are_refused() {
        let line = r#"{"v":1,"id":"a","outcome":"completed","attempts":4294967297,"payload":1}"#;
        assert_eq!(parse_record(line).unwrap_err(), "attempts: 4294967297 out of range for u32");
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("opec-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn rec(id: &str, payload: &str) -> Record {
        Record {
            id: id.to_string(),
            outcome: "completed".to_string(),
            attempts: 1,
            repro: None,
            payload: payload.to_string(),
        }
    }

    #[test]
    fn roundtrips_records_and_preserves_payload_bytes() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let payload = r#"{"cells": [1, 2, 3], "note": "a\nb"}"#;
        {
            let (j, loaded) = Journal::open(&path, "check", 100, None).unwrap();
            assert!(loaded.records.is_empty());
            j.append(&rec("check/app/pinlock/opec", payload)).unwrap();
            j.append(&Record { repro: Some("repros/x.json".into()), ..rec("a/b", "null") })
                .unwrap();
            j.finish().unwrap();
        }
        let (_, loaded) = Journal::open(&path, "check", 100, None).unwrap();
        assert_eq!(loaded.torn_lines, 0);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0].payload, payload);
        assert_eq!(loaded.records[1].repro.as_deref(), Some("repros/x.json"));
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let (j, _) = Journal::open(&path, "check", 100, None).unwrap();
            j.append(&rec("one", "1")).unwrap();
            j.append(&rec("two", "2")).unwrap();
            j.finish().unwrap();
        }
        // Chop the file mid-record, as a kill during a write would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let (j, loaded) = Journal::open(&path, "check", 100, None).unwrap();
        assert_eq!(loaded.torn_lines, 1);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].id, "one");
        // The journal stays appendable after truncation.
        j.append(&rec("two", "2")).unwrap();
        j.finish().unwrap();
        let (_, loaded) = Journal::open(&path, "check", 100, None).unwrap();
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.torn_lines, 0);
    }

    #[test]
    fn mismatched_header_is_refused() {
        let path = tmp("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let (j, _) = Journal::open(&path, "check", 100, None).unwrap();
        j.finish().unwrap();
        assert!(Journal::open(&path, "check", 200, None).is_err());
        assert!(Journal::open(&path, "attack", 100, None).is_err());
        assert!(Journal::open(&path, "check", 100, None).is_ok());
    }

    #[test]
    fn rejects_multiline_payloads_and_bad_ids() {
        let path = tmp("reject.jsonl");
        let _ = std::fs::remove_file(&path);
        let (j, _) = Journal::open(&path, "check", 100, None).unwrap();
        assert!(j.append(&rec("ok", "{\"a\":\n1}")).is_err());
        assert!(j.append(&rec("bad\"id", "1")).is_err());
        assert!(j.append(&rec("", "1")).is_err());
    }
}
