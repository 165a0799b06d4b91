//! Kill-and-resume regression for `opec-eval fuzz`.
//!
//! The fuzz campaign journals every job, and coverage is a feature
//! *set*, so a run killed mid-campaign and resumed from its journal
//! must end in exactly the state of an uninterrupted run: same corpus
//! entries (byte-identical on disk), same aggregate coverage digest —
//! resumed jobs replay their journaled payloads instead of re-running,
//! and replayed coverage must not be double-counted or drift. The kill
//! lands in the first round (32 jobs each) and, because the journal is
//! reopened per round, in a later one too.

use std::path::Path;
use std::process::Command;

fn tmp(seeds: &str, name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("opec-fuzz-resume-{}-{seeds}-{name}", std::process::id()))
}

fn fuzz_cmd(seeds: &str, corpus: &Path, journal: Option<&Path>, json: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_opec-eval"));
    cmd.args(["fuzz", "--seeds", seeds, "--workers", "1"])
        .arg("--corpus")
        .arg(corpus)
        .arg("--json")
        .arg(json)
        .env_remove("OPEC_CAMPAIGN_KILL_AFTER");
    if let Some(j) = journal {
        cmd.arg("--journal").arg(j);
    }
    cmd
}

/// Sorted `(name, bytes)` of every corpus entry in `dir`.
fn corpus_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|ent| {
            let p = ent.unwrap().path();
            (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&p).unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn killed_fuzz_campaign_resumes_to_the_uninterrupted_state() {
    kill_and_resume("12", "5");
}

#[test]
fn a_kill_in_a_later_round_resumes_to_the_uninterrupted_state() {
    // Rounds 0 and 1 journal 64 records; the kill lands in round 2.
    kill_and_resume("72", "66");
}

/// Runs `fuzz --seeds seeds` once uninterrupted and once killed after
/// `kill_after` journal records and then resumed, and compares the two
/// end states.
fn kill_and_resume(seeds: &str, kill_after: &str) {
    let tmp = |name| tmp(seeds, name);
    let fuzz_cmd = |corpus, journal, json| fuzz_cmd(seeds, corpus, journal, json);
    let (control_dir, victim_dir) = (tmp("control"), tmp("victim"));
    let (control_json, victim_json) = (tmp("control.json"), tmp("victim.json"));
    let journal = tmp("journal.jsonl");
    for p in [&control_dir, &victim_dir] {
        std::fs::remove_dir_all(p).ok();
    }
    for p in [&control_json, &victim_json, &journal] {
        std::fs::remove_file(p).ok();
    }

    // The reference: one uninterrupted, journal-free run.
    let status = fuzz_cmd(&control_dir, None, &control_json).status().expect("spawn opec-eval");
    assert!(status.success(), "control run failed: {status:?}");

    // The victim: same campaign, journaled, killed once the journal
    // holds `kill_after` records (std::process::abort — no save, no
    // cleanup).
    let out = fuzz_cmd(&victim_dir, Some(&journal), &victim_json)
        .env("OPEC_CAMPAIGN_KILL_AFTER", kill_after)
        .output()
        .expect("spawn opec-eval");
    assert!(!out.status.success(), "kill_after={kill_after} must abort the process");
    let journaled = std::fs::read_to_string(&journal).expect("the abort must leave the journal");
    // The header line, then exactly the records up to the kill point.
    assert_eq!(journaled.lines().count() - 1, kill_after.parse().unwrap(), "kill point");
    // The report file is opened up front but only written at the end —
    // the killed run must never have gotten there.
    assert_eq!(
        std::fs::metadata(&victim_json).map(|m| m.len()).unwrap_or(0),
        0,
        "the killed run must not have reached its report"
    );

    // Resume from the journal: completed jobs replay their journaled
    // payloads, the rest run live.
    let out =
        fuzz_cmd(&victim_dir, Some(&journal), &victim_json).output().expect("spawn opec-eval");
    assert!(out.status.success(), "resume failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("(0 resumed)"),
        "the resumed run must reuse journaled jobs, not restart: {stderr}"
    );

    // Byte-identical end state: every corpus entry, and the report's
    // aggregate coverage digest.
    let (control, resumed) = (corpus_files(&control_dir), corpus_files(&victim_dir));
    assert!(!control.is_empty(), "control run admitted no corpus entries");
    assert_eq!(
        control.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        resumed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
    );
    assert_eq!(control, resumed, "corpus entries differ after kill+resume");

    let control_report = std::fs::read_to_string(&control_json).unwrap();
    let resumed_report = std::fs::read_to_string(&victim_json).unwrap();
    for key in ["\"coverage_digest\"", "\"corpus_entries\"", "\"features\"", "\"new_entries\""] {
        let field = |s: &str| {
            s.lines()
                .find(|l| l.contains(key))
                .map(String::from)
                .unwrap_or_else(|| panic!("report missing {key}: {s}"))
        };
        assert_eq!(field(&control_report), field(&resumed_report), "{key} drifted");
    }

    for p in [&control_dir, &victim_dir] {
        std::fs::remove_dir_all(p).ok();
    }
    for p in [&control_json, &victim_json, &journal] {
        std::fs::remove_file(p).ok();
    }
}
