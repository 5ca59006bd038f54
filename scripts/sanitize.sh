#!/usr/bin/env bash
# ThreadSanitizer over the ring, the claim cells, the hand-off and the
# counters: `ppc-rt`'s `ring::` unit tests, the `tests/ring.rs` suite (the
# in-process front-end and the conformance bodies), five `xproc::`
# tests (three ring tests of the sequence-word protocol across the
# segment: a forged future-lap word, scribbled CQE words, forged staging
# offsets; and two over the slot path, where the serve thread runs each
# call itself: a mix of slot ops without a reset between calls, and a
# dropped client's detach; the server runs on a thread of the test
# process), the ring trace test
# (`tests/trace.rs`: a batch's ring span, written by the client, and its
# handler span, written by the ring worker, land in one vCPU's span
# ring from two threads), the claim-cell storm
# (kill, reclaim, rebind and exchange beside two callers), the
# `slot::`, `worker::` and `wait::` unit tests (the slot rendezvous, the
# worker's post/shutdown race, the wait primitive), and the stats test
# that shares a vCPU's counters between four callers and hands a cell's
# ownership from thread to thread (owner and shared copies, every access
# atomic), the `flight::` unit tests (the record ring's seqlock, which
# the flight recorder, the span plane and the exemplar rings all write:
# concurrent writers beside a reader, and a writer stalled mid-record
# while others lap it; about 5 s of the run, warm), the `region::` and
# `shm::` unit tests (the bulk registry's access-word slots under
# concurrent readers and writers, and a futex wake across threads),
# the `tests/bulk.rs` suite (revoke and unregister racing streaming
# copies, owner and server in-place writes excluding each other),
# and the `baseline::` unit
# tests (the locked comparator: `LockedServer`'s queue sits behind std's
# uninstrumented mutex, so `scripts/tsan.supp` suppresses its reports;
# the step shows the slots it hands through that queue stay clean
# otherwise, about 2 s), built with the
# nightly toolchain's TSan runtime. TSan does not model `membarrier`; the storm is still checked,
# because a claim's release (`Release`) and the writer's scan of it
# (`Acquire`) are the edge that orders every use of an entry before its
# free.
#
#     scripts/sanitize.sh            run all eleven, exit nonzero on any report
#
# std is not instrumented (no `rust-src`, so no `-Zbuild-std`): races
# TSan sees inside std's own synchronisation are false reports, and
# `scripts/tsan.supp` suppresses them, each line with its reason. For
# the same reason a test that frees what its spawned threads touched
# joins them one by one (`pthread_join`, which TSan sees) instead of
# leaving it to `thread::scope`'s own join. Runs
# offline; the build goes to target/tsan so the normal build cache is
# left alone. Run from the repository root.
set -euo pipefail

export RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
export RUSTDOCFLAGS="$RUSTFLAGS"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/tsan}"
export TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp halt_on_error=0 exitcode=66 ${TSAN_OPTIONS:-}"
target=x86_64-unknown-linux-gnu

cargo +nightly test -p ppc-rt --target "$target" --lib -- ring::
cargo +nightly test -p ppc-rt --target "$target" --test ring
cargo +nightly test -p ppc-rt --target "$target" --lib -- --exact \
    xproc::tests::forged_future_lap_seq_detaches_client_not_server \
    xproc::tests::scribbled_cqe_seq_words_replay_and_rewrite_nothing \
    xproc::tests::forged_offset_cannot_reach_a_neighbours_staging_page \
    xproc::tests::slot_ops_mix_without_a_reset_between_calls \
    xproc::tests::a_dropped_client_detaches_promptly
cargo +nightly test -p ppc-rt --target "$target" --test trace -- --exact ring_submissions_parent_their_handler_spans
cargo +nightly test -p ppc-rt --target "$target" --lib -- --exact claims::tests::storm_at_one_id_beside_inline_callers
cargo +nightly test -p ppc-rt --target "$target" --lib -- slot:: worker:: wait::
cargo +nightly test -p ppc-rt --target "$target" --lib -- --exact stats::tests::counts_stay_exact_when_callers_share_a_vcpu_or_a_cell_changes_hands
cargo +nightly test -p ppc-rt --target "$target" --lib -- flight::
cargo +nightly test -p ppc-rt --target "$target" --lib -- region:: shm::
cargo +nightly test -p ppc-rt --target "$target" --test bulk
cargo +nightly test -p ppc-rt --target "$target" --lib -- baseline::
