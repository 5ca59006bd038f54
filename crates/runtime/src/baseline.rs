//! The locked baseline: one global queue, one lock.
//!
//! This is the design the paper's Figure 3 (single file) condemns, ported
//! to user level for the `rt_throughput` benchmark: every call goes
//! through a single mutex-protected request queue served by a fixed pool
//! of server threads. Latency is fine; scalability is not.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::slot::CallSlot;

type BaselineHandler = Arc<dyn Fn([u64; 8]) -> [u64; 8] + Send + Sync>;

/// The mutex-protected state. `shutdown` lives *inside* the lock: setting
/// it and notifying outside the lock can race a server thread between its
/// empty-queue check and its `wait`, losing the wakeup forever.
struct Queue {
    items: VecDeque<Arc<CallSlot>>,
    shutdown: bool,
}

struct Inner {
    queue: Mutex<Queue>,
    cv: Condvar,
    handler: BaselineHandler,
    /// Completed calls.
    pub calls: AtomicU64,
}

/// A server with one global locked queue.
pub struct LockedServer {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl LockedServer {
    /// Start `n_threads` server threads running `handler`.
    pub fn start(n_threads: usize, handler: BaselineHandler) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue { items: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            handler,
            calls: AtomicU64::new(0),
        });
        let threads = (0..n_threads.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("locked-server-{i}"))
                    .spawn(move || server_loop(inner))
                    .expect("spawn server thread")
            })
            .collect();
        LockedServer { inner, threads }
    }

    /// Synchronous call through the global queue. The critical section is
    /// exactly one `push_back`: the slot is built, filled, and cloned
    /// before the lock, and the notification happens after release so the
    /// woken server never stalls on a still-held mutex.
    pub fn call(&self, args: [u64; 8]) -> [u64; 8] {
        let slot: Arc<CallSlot> = CallSlot::new().into();
        slot.fill(args, 0, true);
        let posted = Arc::clone(&slot);
        {
            let mut q = self.inner.queue.lock();
            q.items.push_back(posted);
        }
        self.inner.cv.notify_one();
        slot.wait_done(crate::wait::Spin::default(), || ());
        slot.read_rets()
    }

    /// Completed calls.
    pub fn completed(&self) -> u64 {
        self.inner.calls.load(Ordering::Relaxed)
    }
}

fn server_loop(inner: Arc<Inner>) {
    loop {
        let slot = {
            let mut q = inner.queue.lock();
            loop {
                // Drain before honoring shutdown so no client is left
                // parked on a slot nobody will complete.
                if let Some(s) = q.items.pop_front() {
                    break s;
                }
                if q.shutdown {
                    return;
                }
                inner.cv.wait(&mut q);
            }
        };
        // The handler runs outside the lock, of course — the point of the
        // baseline is the *queue* contention, not artificial serialization
        // of the service body.
        let rets = (inner.handler)(slot.read_args());
        inner.calls.fetch_add(1, Ordering::Relaxed);
        slot.complete(rets);
    }
}

impl Drop for LockedServer {
    fn drop(&mut self) {
        self.inner.queue.lock().shutdown = true;
        self.inner.cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_through_locked_queue() {
        let s = LockedServer::start(2, Arc::new(|a| a));
        assert_eq!(s.call([3; 8]), [3; 8]);
        assert_eq!(s.call([4; 8]), [4; 8]);
        assert_eq!(s.completed(), 2);
    }

    #[test]
    fn concurrent_clients() {
        let s = Arc::new(LockedServer::start(2, Arc::new(|a| [a[0] * 2; 8])));
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    assert_eq!(s.call([i; 8])[0], i * 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.completed(), 200);
    }
}
