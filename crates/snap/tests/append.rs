//! Property tests for the crash-safe append log: a crash may cut the file
//! at any byte, and recovery must keep exactly the rows that were complete.

use sas_ptest::{check, gen};
use sas_snap::{temp_path, AppendLog, Recovered};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sas-snap-append-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn texts(log: &Recovered) -> Vec<String> {
    log.rows().map(|r| r.text.expect("UTF-8 row").to_string()).collect()
}

#[test]
fn every_cut_recovers_exactly_the_complete_rows() {
    let row = gen::text(0..12).map(|s| s.replace('\n', " "));
    let rows_gen = gen::vec_of(&row, 1..6);
    check("append_log_every_cut", 32, |rng| {
        let rows = rows_gen.sample(rng);
        let path = scratch("cut.jsonl");
        let mut log = AppendLog::open(&path).unwrap();
        for r in &rows {
            log.append(r).unwrap();
        }
        drop(log);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let complete = full[..cut].iter().filter(|&&b| b == b'\n').count();
            let kept: usize = rows[..complete].iter().map(|r| r.len() + 1).sum();
            let rec = AppendLog::recover(&path).unwrap();
            assert_eq!(texts(&rec), rows[..complete], "cut at {cut}");
            assert_eq!(rec.torn, cut > kept, "cut at {cut}");
            // The torn tail is gone from the file itself ...
            assert_eq!(std::fs::metadata(&path).unwrap().len(), kept as u64, "cut at {cut}");
            // ... so the next append starts a clean row.
            AppendLog::open(&path).unwrap().append("next").unwrap();
            let again = AppendLog::recover(&path).unwrap();
            assert!(!again.torn);
            let mut want = rows[..complete].to_vec();
            want.push("next".to_string());
            assert_eq!(texts(&again), want, "cut at {cut}");
        }
    });
}

#[test]
fn rows_carry_their_offsets_and_utf8_status() {
    let path = scratch("offsets.jsonl");
    std::fs::write(&path, b"ab\n\n\xff\xfe\nxyz\n").unwrap();
    let rec = AppendLog::recover(&path).unwrap();
    let rows: Vec<(u64, Option<&str>)> = rec.rows().map(|r| (r.start, r.text)).collect();
    assert_eq!(rows, vec![(0, Some("ab")), (3, Some("")), (4, None), (7, Some("xyz"))]);
    AppendLog::truncate(&path, 4).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"ab\n\n");
}

#[test]
fn a_missing_log_is_empty_and_rewrite_replaces_it_whole() {
    let path = scratch("never-written.jsonl");
    let rec = AppendLog::recover(&path).unwrap();
    assert_eq!(rec.rows().count(), 0);
    assert!(!rec.torn && !path.exists());
    AppendLog::open(&path).unwrap().append("old").unwrap();
    AppendLog::rewrite(&path, &["a".to_string(), "b".to_string()]).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\n");
    assert!(!temp_path(&path).exists());
    AppendLog::rewrite(&path, &[]).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
}
