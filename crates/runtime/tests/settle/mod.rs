//! Settling a test process before a counted interval: a thread that is
//! still starting, or still spinning towards its park, runs code the
//! interval would otherwise charge to the path it measures.

use std::time::{Duration, Instant};

/// Wait until every thread of this process but the calling one sleeps
/// (state `S` in `/proc`): an idle worker spins a while before it parks,
/// and a thread just spawned runs its start-up (std's stack-overflow
/// handler stores its name) when the OS first schedules it. Gives up
/// after 5 s, leaving the count to show what did not settle.
pub fn others_asleep() {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = std::fs::read_link("/proc/thread-self").expect("this thread's /proc entry");
    let me = link.file_name().expect("a thread id").to_string_lossy().into_owned();
    let asleep = |tid: &str| {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap_or_default();
        stat.rsplit_once(')').is_some_and(|(_, rest)| rest.trim_start().starts_with('S'))
    };
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        let tasks = std::fs::read_dir("/proc/self/task").expect("list this process's threads");
        let tids: Vec<String> = tasks.map(|t| t.unwrap().file_name().to_string_lossy().into_owned()).collect();
        if tids.iter().all(|tid| *tid == me || asleep(tid)) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
