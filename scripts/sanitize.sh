#!/usr/bin/env bash
# ThreadSanitizer over the ring and the claim cells: `ppc-rt`'s `ring::`
# unit tests, the `tests/ring.rs` suite (the in-process front-end and the
# conformance bodies) and the claim-cell storm (kill, reclaim, rebind and
# exchange beside two callers), built with the nightly toolchain's TSan
# runtime. TSan does not model `membarrier`; the storm is still checked,
# because a claim's release (`Release`) and the writer's scan of it
# (`Acquire`) are the edge that orders every use of an entry before its
# free.
#
#     scripts/sanitize.sh            run all three, exit nonzero on any report
#
# std is not instrumented (no `rust-src`, so no `-Zbuild-std`): races
# TSan sees inside std's own synchronisation are false reports, and
# `scripts/tsan.supp` suppresses them, each line with its reason. Runs
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
cargo +nightly test -p ppc-rt --target "$target" --lib -- --exact claims::tests::storm_at_one_id_beside_inline_callers
