//! The crash-resilient job journal.
//!
//! Every *accepted* job is appended to a JSONL journal **before** it is
//! enqueued, and every terminal outcome (done / failed / cancelled) is
//! appended when the job resolves. The file discipline is
//! `sas_snap::AppendLog`'s, shared with the `sas-runner` manifest
//! (DESIGN.md §8): one write + flush per row, so a crash can tear at most
//! the final line, and recovery truncates a torn trailing line in place —
//! even one that looks complete, since a row without its newline was never
//! acknowledged. A corrupt *complete* row is this file's own policy: the
//! journal is refused, never silently trimmed.
//!
//! On startup [`Journal::open`] replays the journal: rows that parse, pair
//! up, and an accepted job without a terminal row is **pending** — the
//! daemon re-enqueues it, and if the job's `sas-snap` checkpoint survived
//! the crash the simulation resumes mid-run instead of replaying. The
//! journal is then compacted (rewritten with only the pending rows, via
//! temp + rename) so it cannot grow without bound across restarts.

use crate::job::JobSpec;
use crate::queue::Priority;
use sas_snap::AppendLog;
use sas_telemetry::json::{self, escape, Json};
use std::path::Path;

/// A job recovered from the journal: accepted, never resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// The job id (ids keep increasing across restarts).
    pub id: u64,
    /// Queue priority it was accepted at.
    pub priority: Priority,
    /// The work itself.
    pub spec: JobSpec,
    /// Remaining deadline budget, in milliseconds (deadlines are durable
    /// as *budget*, not wall-clock instants: a restart re-arms the clock).
    pub deadline_ms: u64,
    /// The submitting client tag.
    pub client: String,
}

impl PendingJob {
    /// The journal's `accepted` row for this job.
    pub(crate) fn to_row(&self) -> String {
        let mut row = format!(
            "{{\"event\":\"accepted\",\"job\":{},\"priority\":\"{}\",\"deadline_ms\":{},\"client\":\"{}\"",
            self.id,
            self.priority.token(),
            self.deadline_ms,
            escape(&self.client)
        );
        for (key, value) in self.spec.journal_fields() {
            row.push_str(&format!(",\"{key}\":{value}"));
        }
        row.push('}');
        row
    }

    /// Decodes an `accepted` row (inverse of [`PendingJob::to_row`]).
    pub(crate) fn from_row(row: &Json) -> Option<PendingJob> {
        Some(PendingJob {
            id: row.get("job")?.as_u64()?,
            priority: Priority::parse(row.get("priority")?.as_str()?)?,
            spec: JobSpec::from_journal(row)?,
            deadline_ms: row.get("deadline_ms")?.as_u64()?,
            client: row.get("client")?.as_str()?.to_string(),
        })
    }
}

/// What replaying the journal found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Accepted jobs without a terminal row, in acceptance order.
    pub pending: Vec<PendingJob>,
    /// First job id the restarted daemon may hand out.
    pub next_job_id: u64,
    /// Whether a torn trailing line was truncated away.
    pub truncated: bool,
    /// Resolved rows dropped by compaction.
    pub compacted: usize,
}

/// Append-only journal handle.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying and compacting
    /// any existing contents first.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Recovery)> {
        let recovery = replay_and_compact(path)?;
        Ok((Journal { log: AppendLog::open(path)? }, recovery))
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Records an accepted job. Call **before** enqueueing: a job the
    /// journal never saw would be lost by a crash, while a journaled job
    /// that never ran is merely re-run.
    pub fn accepted(&mut self, job: &PendingJob) -> std::io::Result<()> {
        self.log.append(&job.to_row())
    }

    /// Records a terminal outcome for a job.
    pub fn resolved(&mut self, id: u64, outcome: &str) -> std::io::Result<()> {
        self.log.append(&format!(
            "{{\"event\":\"resolved\",\"job\":{id},\"outcome\":\"{}\"}}",
            escape(outcome)
        ))
    }
}

fn replay_and_compact(path: &Path) -> std::io::Result<Recovery> {
    let log = AppendLog::recover(path)?;
    let corrupt = |n: usize, what: &str, text: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {what} {n}: {text:?}", path.display()),
        )
    };
    let mut recovery = Recovery { truncated: log.torn, ..Recovery::default() };
    let mut pending: Vec<PendingJob> = Vec::new();
    let mut rows = 0usize;
    for (i, row) in log.rows().enumerate() {
        let text = row.text.unwrap_or("<not UTF-8>");
        if text.trim().is_empty() {
            continue;
        }
        let parsed = row.text.and_then(|t| json::parse(t).ok()).and_then(|doc| {
            let event = doc.get("event")?.as_str()?.to_string();
            let id = doc.get("job")?.as_u64()?;
            Some((event, id, doc))
        });
        let Some((event, id, doc)) = parsed else {
            return Err(corrupt(i + 1, "corrupt journal row", text));
        };
        rows += 1;
        recovery.next_job_id = recovery.next_job_id.max(id + 1);
        match event.as_str() {
            "accepted" => match PendingJob::from_row(&doc) {
                Some(j) => pending.push(j),
                None => return Err(corrupt(i + 1, "unreadable accepted row", text)),
            },
            "resolved" => pending.retain(|j| j.id != id),
            _ => {} // forward compatibility: unknown events are ignored
        }
    }
    recovery.compacted = rows.saturating_sub(pending.len());
    recovery.pending = pending;

    // Compact: rewrite only the pending accepted rows, so restarts never
    // replay an ever-growing history.
    let kept: Vec<String> = recovery.pending.iter().map(PendingJob::to_row).collect();
    AppendLog::rewrite(path, &kept)?;
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, Target};
    use sas_ptest::{check, gen, Gen};
    use std::path::PathBuf;

    fn dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!("sas-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn spec() -> JobSpec {
        JobSpec::Simulate {
            target: Target::Spec("505.mcf_r".into()),
            mitigation: specasan::Mitigation::Stt,
            iters: 25,
        }
    }

    #[test]
    fn pending_jobs_survive_reopen_and_resolved_jobs_do_not() {
        let path = dir().join("j1.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, r) = Journal::open(&path).unwrap();
        assert!(r.pending.is_empty());
        let a = PendingJob {
            id: 1,
            priority: Priority::Normal,
            spec: spec(),
            deadline_ms: 60_000,
            client: "t".into(),
        };
        let b = PendingJob { id: 2, ..a.clone() };
        j.accepted(&a).unwrap();
        j.accepted(&b).unwrap();
        j.resolved(1, "completed").unwrap();
        drop(j);
        let (_, r) = Journal::open(&path).unwrap();
        assert_eq!(r.pending, vec![b]);
        assert_eq!(r.next_job_id, 3);
        // Compaction dropped the resolved pair.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
    }

    #[test]
    fn a_torn_trailing_line_is_dropped_not_fatal() {
        let path = dir().join("j2.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path).unwrap();
        let a = PendingJob {
            id: 7,
            priority: Priority::High,
            spec: JobSpec::Lint { program: "ld x1, [x2]\nhlt".into(), suggest: true },
            deadline_ms: 5_000,
            client: "c".into(),
        };
        j.accepted(&a).unwrap();
        drop(j);
        // Simulate a crash mid-append: garbage without a trailing newline.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"resolved\",\"jo").unwrap();
        drop(f);
        let (_, r) = Journal::open(&path).unwrap();
        assert!(r.truncated);
        assert_eq!(r.pending, vec![a], "the torn terminal row must not resolve job 7");
    }

    #[test]
    fn corrupt_interior_rows_are_refused() {
        let path = dir().join("j3.jsonl");
        std::fs::write(&path, "not json at all\n{\"event\":\"resolved\",\"job\":1}\n").unwrap();
        assert!(Journal::open(&path).is_err());
    }

    /// The journal's row format, byte for byte: a restarted daemon must
    /// replay journals that older builds wrote (`{DEL}` stands for U+007F,
    /// which is not escaped).
    const PINNED: [&str; 6] = [
        r#"{"event":"accepted","job":41,"priority":"high","deadline_ms":120000,"client":"cli\"ent\\\t✓","kind":"simulate","program":".entry main\nmain:\n\tMOVZ X1, #7 // \"q\" \\ é\u0001{DEL}\rHALT\n","mitigation":"specasan","iters":3}"#,
        r#"{"event":"accepted","job":42,"priority":"high","deadline_ms":120000,"client":"cli\"ent\\\t✓","kind":"trace","target":"spectre-v1","mitigation":"fence","iters":50,"chrome":true}"#,
        r#"{"event":"accepted","job":43,"priority":"high","deadline_ms":120000,"client":"cli\"ent\\\t✓","kind":"lint","program":"LDRW X1, [X2]\nHALT\n","suggest":false}"#,
        r#"{"event":"accepted","job":44,"priority":"high","deadline_ms":120000,"client":"cli\"ent\\\t✓","kind":"spin","millis":7}"#,
        r#"{"event":"accepted","job":45,"priority":"high","deadline_ms":120000,"client":"cli\"ent\\\t✓","kind":"simulate","target":"505.mcf_r","mitigation":"stt","iters":25}"#,
        r#"{"event":"resolved","job":44,"outcome":"failed:stall \"x\""}"#,
    ];

    #[test]
    fn rows_keep_their_pinned_bytes() {
        let path = dir().join("j4.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path).unwrap();
        let specs = [
            JobSpec::Simulate {
                target: Target::Sasm(
                    ".entry main\nmain:\n\tMOVZ X1, #7 // \"q\" \\ é\u{1}\u{7f}\rHALT\n".into(),
                ),
                mitigation: specasan::Mitigation::SpecAsan,
                iters: 3,
            },
            JobSpec::Trace {
                target: Target::SpectreV1,
                mitigation: specasan::Mitigation::Fence,
                iters: 50,
                chrome: true,
            },
            JobSpec::Lint { program: "LDRW X1, [X2]\nHALT\n".into(), suggest: false },
            JobSpec::Spin { millis: 7 },
            spec(),
        ];
        for (id, spec) in (41..).zip(specs) {
            let client = "cli\"ent\\\t✓".to_string();
            j.accepted(&PendingJob {
                id,
                priority: Priority::High,
                spec,
                deadline_ms: 120_000,
                client,
            })
            .unwrap();
        }
        j.resolved(44, "failed:stall \"x\"").unwrap();
        let want: String = PINNED.iter().map(|r| r.replace("{DEL}", "\u{7f}") + "\n").collect();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
    }

    #[test]
    fn an_id_beyond_exact_integers_is_refused() {
        for row in [
            r#"{"event":"resolved","job":18446744073709551615}"#,
            r#"{"event":"resolved","job":9007199254740993}"#,
            r#"{"event":"resolved","job":-1}"#,
            r#"{"event":"resolved","job":1.5}"#,
        ] {
            let path = dir().join("j5.jsonl");
            std::fs::write(&path, format!("{row}\n")).unwrap();
            let err = Journal::open(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{row}");
        }
    }

    #[test]
    fn an_unterminated_row_is_torn_even_when_complete() {
        let path = dir().join("j6.jsonl");
        let _ = std::fs::remove_file(&path);
        let (mut j, _) = Journal::open(&path).unwrap();
        let a = PendingJob {
            id: 3,
            priority: Priority::Normal,
            spec: spec(),
            deadline_ms: 1_000,
            client: "c".into(),
        };
        j.accepted(&a).unwrap();
        drop(j);
        // A whole resolved row that lost its newline was never
        // acknowledged: it must not resolve job 3.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(br#"{"event":"resolved","job":3,"outcome":"completed"}"#).unwrap();
        drop(f);
        let (_, r) = Journal::open(&path).unwrap();
        assert!(r.truncated);
        assert_eq!(r.pending, vec![a]);
    }

    #[test]
    fn pending_jobs_round_trip_through_their_row() {
        let text = gen::text(0..40);
        let target = gen::one_of(vec![
            Gen::constant(Target::SpectreV1),
            gen::select(sas_workloads::spec_suite().iter().map(|p| p.name.to_string()).collect())
                .map(Target::Spec),
            text.map(Target::Sasm),
        ]);
        let mitigation = gen::select(specasan::Mitigation::all().to_vec());
        check("journal_pending_job_round_trip", 256, |rng| {
            let iters = gen::u32s(0..u32::MAX).sample(rng);
            let spec = match rng.below(4) {
                0 => JobSpec::Simulate {
                    target: target.sample(rng),
                    mitigation: mitigation.sample(rng),
                    iters,
                },
                1 => JobSpec::Trace {
                    target: target.sample(rng),
                    mitigation: mitigation.sample(rng),
                    iters,
                    chrome: rng.chance(0.5),
                },
                2 => JobSpec::Lint { program: text.sample(rng), suggest: rng.chance(0.5) },
                _ => JobSpec::Spin { millis: gen::u64s(0..1 << 53).sample(rng) },
            };
            let job = PendingJob {
                id: gen::u64s(0..1 << 53).sample(rng),
                priority: gen::select(vec![Priority::High, Priority::Normal, Priority::Low])
                    .sample(rng),
                spec,
                deadline_ms: gen::u64s(0..1 << 53).sample(rng),
                client: text.sample(rng),
            };
            let row = job.to_row();
            let doc = json::parse(&row).unwrap_or_else(|e| panic!("{row}: {e}"));
            assert_eq!(PendingJob::from_row(&doc), Some(job), "{row}");
        });
    }
}
