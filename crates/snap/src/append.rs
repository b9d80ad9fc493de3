//! The crash-safe append-only row log behind every JSONL artifact: the
//! `sas-runner` manifest, the `sas-serve` journal and the bench result file.
//!
//! [`AppendLog`] owns only the framing. Each [`AppendLog::append`] is one
//! `write_all(row + "\n")` on a descriptor opened in append mode, then a
//! flush, so concurrent writers never interleave inside a row and a crash
//! can tear at most the final line. [`AppendLog::recover`] reads the
//! newline-terminated rows back and cuts a torn tail (a final line without
//! `\n`) off the file in place, complete-looking or not: an unterminated
//! row was never acknowledged. What a *corrupt* complete row means is the
//! caller's policy (the manifest truncates there with [`AppendLog::truncate`],
//! the journal refuses the file). [`AppendLog::rewrite`] replaces the whole
//! log through temp + rename for compaction.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// An open append-only log of newline-terminated rows.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    path: PathBuf,
}

/// One complete row read back by [`AppendLog::recover`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    /// Byte offset of the row's first byte in the file.
    pub start: u64,
    /// The row without its `\n`; `None` when it is not UTF-8.
    pub text: Option<&'a str>,
}

/// The complete rows of a log, as [`AppendLog::recover`] found them.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The file's bytes up to and including its last `\n`.
    bytes: Vec<u8>,
    /// Whether a torn tail was cut off the file.
    pub torn: bool,
}

impl Recovered {
    /// The complete rows, in file order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let mut start = 0usize;
        self.bytes.split_inclusive(|&b| b == b'\n').map(move |line| {
            let row = Row {
                start: start as u64,
                text: std::str::from_utf8(&line[..line.len() - 1]).ok(),
            };
            start += line.len();
            row
        })
    }
}

impl AppendLog {
    /// Opens (creating it and its parent directory if needed) the log at
    /// `path` for appending.
    pub fn open(path: &Path) -> io::Result<AppendLog> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AppendLog { file, path: path.to_path_buf() })
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `row` (which must not contain `\n`) as one write of the row
    /// and its newline, then flushes.
    pub fn append(&mut self, row: &str) -> io::Result<()> {
        let mut line = String::with_capacity(row.len() + 1);
        line.push_str(row);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }

    /// Reads the complete rows of the log at `path`, truncating a torn
    /// tail in place first. A missing file is an empty log.
    pub fn recover(path: &Path) -> io::Result<Recovered> {
        let mut bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Recovered::default()),
            Err(e) => return Err(e),
        };
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
        let torn = complete < bytes.len();
        if torn {
            AppendLog::truncate(path, complete as u64)?;
            bytes.truncate(complete);
        }
        Ok(Recovered { bytes, torn })
    }

    /// Cuts the log at `path` back to its first `len` bytes.
    pub fn truncate(path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    /// Replaces the log at `path` with exactly `rows`, atomically: the rows
    /// go to [`crate::temp_path`] first and are renamed over `path` once
    /// fully written, so a crash leaves the old log or the new one.
    pub fn rewrite(path: &Path, rows: &[String]) -> io::Result<()> {
        let mut text = String::new();
        for row in rows {
            text.push_str(row);
            text.push('\n');
        }
        let tmp = crate::temp_path(path);
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}
