//! # ppc-bench — the benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation from the
//! deterministic simulators, and hosts the operator tools. `ppc-rt` is
//! measured elsewhere: its numbers come from `ppcbench/` (the repo
//! benchmark, `BENCHMARK.json`) and accumulate in `BENCH_HISTORY.jsonl`.
//!
//! | binary | paper artefact |
//! |---|---|
//! | `figure2` | Figure 2 — PPC round-trip breakdown, 8 conditions |
//! | `figure3` | Figure 3 — GetLength throughput vs. processors |
//! | `table_uniprocessor` | §1 uniprocessor IPC comparison table |
//! | `fastpath_footprint` | §5 "200 instructions and 6 cache lines" |
//! | `ablation_locks` | lock-free PPC vs locked-pool / LRPC / message RPC |
//! | `ablation_stack_policy`, `ablation_stack_sharing` | §4.5.4 multi-page stack policy, §2 serial stack sharing |
//! | `ppc_top`, `ppc_profile`, `ppc_blackbox` | operator tools: live telemetry, critical-path profile, postmortem analysis |

pub mod ablation;
pub mod fig3;
pub mod report;
