//! Critical-path profiler: fold retained span records into per-entry
//! phase-breakdown profiles.
//!
//! The tracing plane (PR 4) records causally-linked spans — call,
//! rendezvous wait, handler run, bulk copy, Frank excursion, nested
//! calls — into per-vCPU rings. Each record is already a begin/end
//! pair (`start_ns`, `dur_ns`); what it *doesn't* say is where the
//! time went. This module rebuilds the span trees (parent links inside
//! each trace) and answers that:
//!
//! * **Per-entry phase breakdown** — for every entry point, total and
//!   *self* time per [`SpanPhase`] (self = duration minus attributed
//!   children, so a handler that spends its time in a nested call into
//!   another entry doesn't double-bill its own entry).
//! * **Collapsed stacks** — one `frame;frame;frame value` line per
//!   distinct tree path, summed self-nanoseconds: the format
//!   `flamegraph.pl` and speedscope load directly. A frame is
//!   `entry:phase`, so a nested call shows up as a new entry frame
//!   under the parent handler — the cross-entry critical path is
//!   visible in the flame shape.
//!
//! Everything here is cold-path batch aggregation over
//! [`SpanPlane::all_records`](crate::span::SpanPlane::all_records);
//! nothing touches dispatch. Serve it over HTTP (`/profile`,
//! `/profile.folded`) or render it offline with the `ppc-profile`
//! bench bin.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::flight::Record;
use crate::span::{SpanPhase, NPHASES, PHASES};
use crate::Runtime;

/// Aggregate for one phase within one entry's profile.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseAgg {
    /// Spans folded in.
    pub count: u64,
    /// Σ span duration (ns). Phases nest, so totals across phases
    /// overlap — `call` contains `rendezvous` and usually `handler`.
    pub total_ns: u64,
    /// Σ self time (ns): duration minus the spans parented under it.
    /// Self times partition each tree, so these sum to root wall time
    /// (modulo cross-thread clock skew, clamped at 0 per span).
    pub self_ns: u64,
    /// Worst single span (ns).
    pub max_ns: u64,
}

/// One entry point's aggregated profile.
#[derive(Clone, Debug)]
pub struct EntryProfile {
    /// Entry ID.
    pub ep: u16,
    /// Diagnostic name at fold time (`ep<N>` when unresolvable —
    /// entry already unbound).
    pub name: String,
    /// Root spans (traced calls that began at this entry).
    pub roots: u64,
    /// Σ root span duration (ns): traced wall time under this entry.
    pub root_ns: u64,
    /// Per-phase aggregates, indexed by [`SpanPhase`] discriminant
    /// (slot 0 unused).
    pub phases: [PhaseAgg; NPHASES],
    /// Time this entry's spans spent in *nested calls into other
    /// entries* (ns) — the cross-entry child attribution.
    pub child_ns: u64,
}

/// A folded profile over one batch of span records.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-entry profiles, sorted by descending root time (entries
    /// that only ever appear nested sort by total phase time).
    pub entries: Vec<EntryProfile>,
    /// Collapsed stacks: distinct `frame;frame` paths with summed
    /// self-nanoseconds, sorted by path.
    pub stacks: Vec<(String, u64)>,
    /// Records folded in.
    pub records: usize,
    /// Distinct traces seen.
    pub traces: usize,
    /// Spans whose parent was not retained (ring wrap mid-trace);
    /// folded as roots of their own subtree so no time is dropped.
    pub orphans: usize,
}

/// Walk guard: a span tree deeper than this means a parent-link cycle
/// from span-id reuse inside one trace (16-bit mint); stop rather than
/// recurse forever. Real trees are bounded by call nesting (≤ 255).
const MAX_WALK_DEPTH: usize = 64;

/// `ep`'s profile in `entries`, made empty on first sight.
fn entry<'a>(
    entries: &'a mut HashMap<u16, EntryProfile>,
    names: &HashMap<u16, String>,
    ep: u16,
) -> &'a mut EntryProfile {
    entries.entry(ep).or_insert_with(|| EntryProfile {
        ep,
        name: names.get(&ep).cloned().unwrap_or_else(|| format!("ep{ep}")),
        roots: 0,
        root_ns: 0,
        phases: [PhaseAgg::default(); NPHASES],
        child_ns: 0,
    })
}

/// Fold the spans among `records` into a [`Profile`]. `names` maps
/// entry IDs to diagnostic names (missing IDs render as `ep<N>`).
pub fn build(records: &[Record], names: &HashMap<u16, String>) -> Profile {
    let mut by_trace: HashMap<u32, Vec<(&Record, SpanPhase)>> = HashMap::new();
    for r in records {
        if let Some(phase) = r.phase() {
            by_trace.entry(r.trace_id()).or_default().push((r, phase));
        }
    }

    let mut entries: HashMap<u16, EntryProfile> = HashMap::new();
    let mut stacks: HashMap<String, u64> = HashMap::new();
    let mut orphans = 0usize;

    let frame = |ep: u16, phase: SpanPhase| -> String {
        match names.get(&ep) {
            Some(n) if !n.is_empty() => format!("{n}:{}", phase.label()),
            _ => format!("ep{ep}:{}", phase.label()),
        }
    };

    // Sort each trace for deterministic child order, index children by
    // parent span id, then walk each root computing self time and the
    // collapsed path.
    let mut trace_ids: Vec<u32> = by_trace.keys().copied().collect();
    trace_ids.sort_unstable();
    for tid in &trace_ids {
        let mut spans = by_trace.remove(tid).unwrap();
        spans.sort_by_key(|(r, _)| (r.start_ns, r.seq));
        let ids: std::collections::HashSet<u16> =
            spans.iter().map(|(r, _)| r.span_id).collect();
        let mut children: HashMap<u16, Vec<usize>> = HashMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (i, (r, _)) in spans.iter().enumerate() {
            if r.parent_id != 0 && ids.contains(&r.parent_id) && r.parent_id != r.span_id
            {
                children.entry(r.parent_id).or_default().push(i);
            } else {
                if r.parent_id != 0 {
                    orphans += 1;
                }
                roots.push(i);
            }
        }

        // Explicit stack: (span index, path string, child cursor).
        for &root in &roots {
            let (r, phase) = spans[root];
            let e = entry(&mut entries, names, r.ep);
            if r.parent_id == 0 {
                e.roots += 1;
                e.root_ns += r.dur_ns;
            }

            let mut walk: Vec<(usize, String)> = vec![(root, frame(r.ep, phase))];
            while let Some((i, path)) = walk.pop() {
                let (s, phase) = spans[i];
                let kids = children.get(&s.span_id).map(Vec::as_slice).unwrap_or(&[]);
                let mut kid_ns = 0u64;
                for &k in kids {
                    let (kr, kid_phase) = spans[k];
                    kid_ns = kid_ns.saturating_add(kr.dur_ns);
                    if path.matches(';').count() + 1 < MAX_WALK_DEPTH {
                        walk.push((k, format!("{path};{}", frame(kr.ep, kid_phase))));
                    }
                    // Cross-entry child attribution: a nested call into
                    // a *different* entry bills the parent's entry as
                    // child time.
                    if kr.ep != s.ep {
                        entry(&mut entries, names, s.ep).child_ns += kr.dur_ns;
                    }
                }
                let self_ns = s.dur_ns.saturating_sub(kid_ns);
                let agg = &mut entry(&mut entries, names, s.ep).phases[phase as usize];
                agg.count += 1;
                agg.total_ns += s.dur_ns;
                agg.self_ns += self_ns;
                agg.max_ns = agg.max_ns.max(s.dur_ns);
                *stacks.entry(path).or_insert(0) += self_ns;
            }
        }
    }

    let mut entries: Vec<EntryProfile> = entries.into_values().collect();
    entries.sort_by_key(|e| {
        let phase_ns: u64 = e.phases.iter().map(|p| p.total_ns).sum();
        (std::cmp::Reverse(e.root_ns), std::cmp::Reverse(phase_ns), e.ep)
    });
    let mut stacks: Vec<(String, u64)> = stacks.into_iter().collect();
    stacks.sort();

    Profile { entries, stacks, records: records.len(), traces: trace_ids.len(), orphans }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl Profile {
    /// Top-down text report: per entry, the phase breakdown
    /// (total / self / count / worst), child attribution, and a
    /// critical-path line ordering phases by self time.
    pub fn text_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path profile: {} span(s) in {} trace(s), {} entries{}",
            self.records,
            self.traces,
            self.entries.len(),
            if self.orphans > 0 {
                format!(", {} orphan span(s) (ring wrapped)", self.orphans)
            } else {
                String::new()
            },
        );
        if self.records == 0 {
            let _ = writeln!(
                out,
                "(no spans retained — enable tracing and issue traced calls first)"
            );
            return out;
        }
        for e in &self.entries {
            let avg = e.root_ns.checked_div(e.roots).unwrap_or(0);
            let _ = writeln!(
                out,
                "\nentry {} ({}): {} traced root(s), {} total{}{}",
                e.ep,
                e.name,
                e.roots,
                fmt_ns(e.root_ns),
                if e.roots > 0 { format!(", {} avg", fmt_ns(avg)) } else { String::new() },
                if e.child_ns > 0 {
                    format!(", {} in nested calls", fmt_ns(e.child_ns))
                } else {
                    String::new()
                },
            );
            let _ = writeln!(
                out,
                "  {:<12} {:>10} {:>10} {:>8} {:>10}",
                "phase", "total", "self", "count", "worst"
            );
            for &p in &PHASES {
                let a = &e.phases[p as usize];
                if a.count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<12} {:>10} {:>10} {:>8} {:>10}",
                    p.label(),
                    fmt_ns(a.total_ns),
                    fmt_ns(a.self_ns),
                    a.count,
                    fmt_ns(a.max_ns),
                );
            }
            // The critical path, by where the time actually stuck.
            let mut by_self: Vec<&SpanPhase> = PHASES
                .iter()
                .filter(|&&p| e.phases[p as usize].count > 0)
                .collect();
            by_self.sort_by_key(|&&p| std::cmp::Reverse(e.phases[p as usize].self_ns));
            let path: Vec<String> = by_self
                .iter()
                .take(3)
                .filter(|&&&p| e.phases[p as usize].self_ns > 0)
                .map(|&&p| {
                    format!("{} {}", p.label(), fmt_ns(e.phases[p as usize].self_ns))
                })
                .collect();
            if !path.is_empty() {
                let _ = writeln!(out, "  critical path: {}", path.join(" > "));
            }
        }
        out
    }

    /// Collapsed-stack rendering (`frame;frame;frame value`, one line
    /// per distinct path) — load with `flamegraph.pl` or speedscope.
    /// Values are self-nanoseconds.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, ns) in &self.stacks {
            let _ = writeln!(out, "{path} {ns}");
        }
        out
    }
}

impl Runtime {
    /// Fold every retained span record into a critical-path
    /// [`Profile`], resolving entry names through the registry (cold
    /// path; see [`profile`](crate::profile)).
    pub fn profile(&self) -> Profile {
        let records = self.spans().all_records();
        let mut names: HashMap<u16, String> = HashMap::new();
        for r in &records {
            if let std::collections::hash_map::Entry::Vacant(v) = names.entry(r.ep) {
                if let Ok(e) = self.frank_entry(r.ep as crate::EntryId) {
                    v.insert(e.name.clone());
                }
            }
        }
        build(&records, &names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        trace_id: u32,
        span_id: u16,
        parent_id: u16,
        phase: SpanPhase,
        ep: u16,
        start_ns: u64,
        dur_ns: u64,
    ) -> Record {
        Record {
            seq: span_id as u64,
            kind: crate::flight::Kind::Span(phase),
            vcpu: 0,
            ep,
            data: trace_id,
            span_id,
            parent_id,
            depth: 0,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn folds_nested_tree_with_self_time() {
        // call(1000) -> rendezvous(200) + handler(700); handler ->
        // nested call into another entry (300).
        let records = vec![
            rec(7, 1, 0, SpanPhase::Call, 3, 0, 1000),
            rec(7, 2, 1, SpanPhase::Rendezvous, 3, 10, 200),
            rec(7, 3, 1, SpanPhase::Handler, 3, 50, 700),
            rec(7, 4, 3, SpanPhase::Call, 5, 100, 300),
        ];
        let mut names = HashMap::new();
        names.insert(3u16, "svc".to_string());
        let p = build(&records, &names);
        assert_eq!(p.traces, 1);
        assert_eq!(p.records, 4);
        assert_eq!(p.orphans, 0);

        let svc = p.entries.iter().find(|e| e.ep == 3).unwrap();
        assert_eq!(svc.roots, 1);
        assert_eq!(svc.root_ns, 1000);
        let call = svc.phases[SpanPhase::Call as usize];
        assert_eq!(call.total_ns, 1000);
        assert_eq!(call.self_ns, 100); // 1000 - (200 + 700)
        let handler = svc.phases[SpanPhase::Handler as usize];
        assert_eq!(handler.self_ns, 400); // 700 - 300 nested
        assert_eq!(svc.child_ns, 300); // nested call into ep 5

        let nested = p.entries.iter().find(|e| e.ep == 5).unwrap();
        assert_eq!(nested.roots, 0); // not a root — it was parented
        assert_eq!(nested.phases[SpanPhase::Call as usize].total_ns, 300);

        // Self times partition the root: 100 + 200 + 400 + 300 = 1000.
        let total_self: u64 = p.stacks.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total_self, 1000);

        // Collapsed stacks name the cross-entry path.
        let folded = p.folded();
        assert!(folded.contains("svc:call;svc:handler;ep5:call 300"), "{folded}");
    }

    #[test]
    fn orphan_spans_fold_as_subtree_roots() {
        // Parent 9 was lost to ring wrap; the span still folds.
        let records = vec![rec(1, 2, 9, SpanPhase::Handler, 0, 0, 50)];
        let p = build(&records, &HashMap::new());
        assert_eq!(p.orphans, 1);
        assert_eq!(p.entries[0].phases[SpanPhase::Handler as usize].total_ns, 50);
        assert!(p.folded().contains("ep0:handler 50"));
    }
}
