//! Shutdown leaves no thread behind: a stopped server's watchdog exits and
//! `stop_accepting` joins it. Its own test binary, so no other test's
//! servers share the process while the threads are counted.

use sas_serve::server::{Config, Server, WATCHDOG_THREAD};
use std::time::Duration;

/// Live threads of this process named like a server watchdog (Linux
/// `/proc`), or `None` where the task list cannot be read.
fn live_watchdogs() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(Result::ok)
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == WATCHDOG_THREAD)
            .count(),
    )
}

/// Polls (up to 2 s) until `want` watchdogs are live; returns the last count.
/// A new thread names itself as it starts, and an exited one leaves the
/// task list shortly after its join, so both edges need a moment.
fn settle_at(want: usize) -> Option<usize> {
    let mut live = live_watchdogs();
    for _ in 0..200 {
        if live == Some(want) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        live = live_watchdogs();
    }
    live
}

#[test]
fn stopped_servers_leave_no_watchdog_thread() {
    let Some(before) = live_watchdogs() else { return };
    assert_eq!(before, 0);
    let dir = std::env::temp_dir().join(format!("sas-serve-shutdown-{}", std::process::id()));
    let mut servers = Vec::new();
    for i in 0..4 {
        let mut cfg = Config::new(dir.join(format!("s{i}")));
        cfg.workers = 1;
        servers.push(Server::start(cfg).expect("start"));
    }
    assert_eq!(settle_at(4), Some(4));
    for server in &servers {
        server.drain();
        assert!(server.drain_wait());
        server.stop_accepting();
    }
    assert_eq!(settle_at(0), Some(0), "watchdog threads outlived their stopped servers");
    // A second stop is a no-op.
    servers[0].stop_accepting();
    let _ = std::fs::remove_dir_all(&dir);
}
