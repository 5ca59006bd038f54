//! Property-based and stress tests of the real-threads runtime.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::Config;

use ppc_rt::slot::CallSlot;
use ppc_rt::{BulkDesc, EntryOptions, Runtime};

proptest! {
    #![proptest_config(Config { cases: 64, ..Config::default() })]

    /// Every descriptor expressible within the bit budget survives the
    /// trip through its single argument word.
    #[test]
    fn bulk_desc_roundtrips_through_one_word(region in any::<u16>(),
                                             offset in any::<u32>(),
                                             len in any::<u32>(),
                                             write in any::<bool>()) {
        let d = BulkDesc {
            region: region & 0x0fff,          // 12-bit region id
            offset: offset & 0x00ff_ffff,     // 24-bit offset
            len: len & 0x00ff_ffff,           // 24-bit length
            write,
        };
        let word = d.encode().expect("masked fields fit the bit budget");
        prop_assert_eq!(BulkDesc::decode(word), Some(d));
    }

    /// Fields past the bit budget never encode — in release builds too —
    /// so an oversized descriptor can't silently become a smaller span.
    #[test]
    fn bulk_desc_out_of_range_fields_refuse_to_encode(region in any::<u16>(),
                                                      offset in any::<u32>(),
                                                      len in any::<u32>(),
                                                      write in any::<bool>()) {
        let d = BulkDesc { region, offset, len, write };
        let in_range = region <= 0x0fff && offset <= 0x00ff_ffff && len <= 0x00ff_ffff;
        prop_assert_eq!(d.encode().is_some(), in_range);
    }

    /// Decoding is the exact inverse of encoding on tagged words, and
    /// rejects every untagged word — an ordinary argument can never be
    /// mistaken for a descriptor.
    #[test]
    fn bulk_desc_decode_partitions_words(word in any::<u64>()) {
        match BulkDesc::decode(word) {
            Some(d) => prop_assert_eq!(d.encode(), Some(word)),
            None => prop_assert_ne!(word >> 61, 0b101),
        }
    }

    #[test]
    fn slot_frames_roundtrip(args in prop::array::uniform8(any::<u64>()),
                             rets in prop::array::uniform8(any::<u64>()),
                             program in any::<u32>()) {
        let s = CallSlot::new();
        s.fill(args, program, false);
        prop_assert_eq!(s.read_args(), args);
        prop_assert_eq!(s.caller_program(), program);
        s.complete(rets);
        prop_assert_eq!(s.read_rets(), rets);
        s.reset();
    }

    #[test]
    fn calls_echo_arbitrary_payloads(args in prop::array::uniform8(any::<u64>())) {
        let rt = Runtime::new(1);
        let ep = rt.bind("echo", EntryOptions::default(), Arc::new(|c| c.args)).unwrap();
        let client = rt.client(0, 3);
        prop_assert_eq!(client.call(ep, args).unwrap(), args);
    }

    #[test]
    fn interleaved_sync_async_preserve_results(seq in prop::collection::vec(any::<bool>(), 1..24)) {
        let rt = Runtime::new(1);
        let ep = rt
            .bind("inc", EntryOptions::default(), Arc::new(|c| [c.args[0] + 1; 8]))
            .unwrap();
        let client = rt.client(0, 1);
        let mut pending = Vec::new();
        for (i, is_async) in seq.iter().enumerate() {
            let x = i as u64;
            if *is_async {
                pending.push((x, client.call_async(ep, [x; 8]).unwrap()));
            } else {
                prop_assert_eq!(client.call(ep, [x; 8]).unwrap()[0], x + 1);
            }
        }
        for (x, p) in pending {
            prop_assert_eq!(p.wait()[0], x + 1);
        }
    }
}

/// Deterministic stress: several client threads per vCPU hammering two
/// services, checking every reply. Exercises pool growth, slot recycling,
/// and the rendezvous protocol under real contention.
#[test]
fn stress_many_clients_two_services() {
    let rt = Runtime::new(2);
    let double = rt.bind("double", EntryOptions::default(), Arc::new(|c| [c.args[0] * 2; 8])).unwrap();
    let add7 = rt.bind("add7", EntryOptions::default(), Arc::new(|c| [c.args[0] + 7; 8])).unwrap();
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let client = rt.client((t % 2) as usize, t as u32 + 1);
        handles.push(std::thread::spawn(move || {
            for i in 0..300u64 {
                let x = t * 1000 + i;
                if i % 2 == 0 {
                    assert_eq!(client.call(double, [x; 8]).unwrap()[0], x * 2);
                } else {
                    assert_eq!(client.call(add7, [x; 8]).unwrap()[0], x + 7);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(rt.stats.calls(), 6 * 300);
}

/// Stress the async path: a burst of async calls larger than any pool.
#[test]
fn stress_async_burst() {
    let rt = Runtime::new(1);
    let ep = rt
        .bind(
            "spin",
            EntryOptions::default(),
            Arc::new(|c| {
                std::thread::yield_now();
                [c.args[0] + 1; 8]
            }),
        )
        .unwrap();
    let client = rt.client(0, 1);
    let pending: Vec<_> = (0..40u64).map(|i| (i, client.call_async(ep, [i; 8]).unwrap())).collect();
    for (i, p) in pending {
        assert_eq!(p.wait()[0], i + 1);
    }
    assert!(rt.stats.workers_created() > 0);
}

/// One lifecycle operation in the randomized interleaving below.
#[derive(Clone, Copy, Debug)]
enum LifeOp {
    Call,
    Exchange,
    SoftKill,
    HardKill,
    Reclaim,
    Rebind,
}

/// What the model says entry 5 currently is. (`wait_drained` marks a
/// soft-killed entry Dead once it drains, so a drained soft kill and a
/// hard kill land in the same model state.)
#[derive(Clone, Copy, Debug, PartialEq)]
enum LifeState {
    Vacant,
    Active,
    Dead,
}

proptest! {
    #![proptest_config(Config { cases: 16, ..Config::default() })]

    /// Random interleavings of call / exchange / soft-kill / hard-kill /
    /// reclaim / rebind against a single entry ID, checked against an
    /// explicit lifecycle model — while a concurrent client thread
    /// hammers the same ID and must only ever observe the lifecycle
    /// error set. Pins the Frank state machine: every operation's
    /// outcome is a function of the entry's lifecycle state alone, and
    /// reclaim really vacates the ID (later ops see `UnknownEntry`, a
    /// rebind revives it at the same ID).
    #[test]
    fn lifecycle_interleavings_follow_the_model(
        raw_ops in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        // Weighted op mix: calls dominate, lifecycle ops interleave.
        let ops: Vec<LifeOp> = raw_ops
            .iter()
            .map(|b| match b % 12 {
                0..=2 => LifeOp::Call,
                3..=4 => LifeOp::Exchange,
                5 => LifeOp::SoftKill,
                6..=7 => LifeOp::HardKill,
                8..=9 => LifeOp::Reclaim,
                _ => LifeOp::Rebind,
            })
            .collect();
        use std::sync::atomic::{AtomicBool, Ordering};
        use ppc_rt::RtError;

        const EP: usize = 5;
        let rt = Runtime::new(1);
        let opts = EntryOptions { want_ep: Some(EP), ..Default::default() };
        let c = rt.client(0, 1);

        let stop = Arc::new(AtomicBool::new(false));
        let background = {
            let c = rt.client(0, 2);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match c.call(EP, [1; 8]) {
                        Ok(r) => assert_eq!(r, [1; 8], "echo never torn"),
                        Err(RtError::EntryDead(_))
                        | Err(RtError::UnknownEntry(_))
                        | Err(RtError::Aborted(_)) => {}
                        Err(e) => panic!("background caller saw {e}"),
                    }
                }
            })
        };

        let mut model = LifeState::Vacant;
        for op in ops {
            match op {
                LifeOp::Call => {
                    let got = c.call(EP, [9; 8]);
                    match model {
                        LifeState::Active => prop_assert_eq!(got.unwrap(), [9; 8]),
                        LifeState::Vacant => {
                            prop_assert_eq!(got, Err(RtError::UnknownEntry(EP)))
                        }
                        // A drained soft-killed or dead entry rejects.
                        _ => prop_assert_eq!(got, Err(RtError::EntryDead(EP))),
                    }
                }
                LifeOp::Exchange => {
                    let got = rt.exchange(EP, Arc::new(|x| x.args), 0);
                    match model {
                        LifeState::Active => prop_assert_eq!(got, Ok(())),
                        LifeState::Vacant => {
                            prop_assert_eq!(got, Err(RtError::UnknownEntry(EP)))
                        }
                        _ => prop_assert_eq!(got, Err(RtError::EntryDead(EP))),
                    }
                }
                LifeOp::SoftKill => {
                    let got = rt.soft_kill(EP, 0);
                    match model {
                        LifeState::Active => {
                            prop_assert_eq!(got, Ok(()));
                            // Deterministic model: drain immediately —
                            // `wait_drained` marks the entry Dead.
                            rt.wait_drained(EP).unwrap();
                            model = LifeState::Dead;
                        }
                        LifeState::Vacant => {
                            prop_assert_eq!(got, Err(RtError::UnknownEntry(EP)))
                        }
                        _ => prop_assert_eq!(got, Err(RtError::EntryDead(EP))),
                    }
                }
                LifeOp::HardKill => {
                    let got = rt.hard_kill(EP, 0);
                    match model {
                        LifeState::Active => {
                            prop_assert_eq!(got, Ok(()));
                            model = LifeState::Dead;
                        }
                        LifeState::Vacant => {
                            prop_assert_eq!(got, Err(RtError::UnknownEntry(EP)))
                        }
                        LifeState::Dead => {
                            prop_assert_eq!(got, Err(RtError::EntryDead(EP)))
                        }
                    }
                }
                LifeOp::Reclaim => {
                    let got = rt.reclaim_slot(EP, 0);
                    match model {
                        LifeState::Dead => {
                            prop_assert_eq!(got, Ok(()));
                            model = LifeState::Vacant;
                        }
                        LifeState::Vacant => {
                            prop_assert_eq!(got, Err(RtError::UnknownEntry(EP)))
                        }
                        LifeState::Active => {
                            prop_assert_eq!(got, Err(RtError::EntryDead(EP)))
                        }
                    }
                }
                LifeOp::Rebind => {
                    let got = rt.bind("prop-life", opts, Arc::new(|x| x.args));
                    match model {
                        LifeState::Vacant => {
                            prop_assert_eq!(got.unwrap(), EP);
                            model = LifeState::Active;
                        }
                        _ => prop_assert_eq!(got, Err(RtError::TableFull)),
                    }
                }
            }
        }

        stop.store(true, Ordering::Release);
        background.join().unwrap();
    }
}
