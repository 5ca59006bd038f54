//! The name service (§4.5.5), user-level edition.
//!
//! As in the paper, naming is separate from authentication: entry points
//! are small integers, and the name table simply maps strings to them.
//! Registration is a cold path; the table lives inside Frank (the
//! single owner of cold-path registry state — reclaim drops a dead
//! entry's automatic registration with the entry itself) and lookup
//! results should be cached by clients, as the paper's clients do — "a
//! client obtains the server's entry point ID from the Name Server, and
//! uses the ID as an argument on subsequent PPC operations".

use crate::{EntryId, Runtime};

impl Runtime {
    /// Register `name -> ep` (also done automatically by `bind` when the
    /// service was bound with a non-empty name). Returns any previous
    /// binding.
    pub fn ns_register(&self, name: &str, ep: EntryId) -> Option<EntryId> {
        self.frank.lock().names.insert(name.to_string(), ep)
    }

    /// Resolve `name`.
    pub fn ns_lookup(&self, name: &str) -> Option<EntryId> {
        self.frank.lock().names.get(name).copied()
    }

    /// Remove `name`, returning its binding.
    pub fn ns_unregister(&self, name: &str) -> Option<EntryId> {
        self.frank.lock().names.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use crate::entry::EntryOptions;
    use crate::Runtime;
    use std::sync::Arc;

    #[test]
    fn bind_registers_name() {
        let rt = Runtime::new(1);
        let ep = rt.bind("svc", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        assert_eq!(rt.ns_lookup("svc"), Some(ep));
        assert_eq!(rt.ns_unregister("svc"), Some(ep));
        assert_eq!(rt.ns_lookup("svc"), None);
    }

    #[test]
    fn manual_registration() {
        let rt = Runtime::new(1);
        assert_eq!(rt.ns_register("a", 7), None);
        assert_eq!(rt.ns_register("a", 9), Some(7));
        assert_eq!(rt.ns_lookup("a"), Some(9));
    }
}
