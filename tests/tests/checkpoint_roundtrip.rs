//! Checkpoint integrity: the GVT-round [`Checkpoint`] images that crash
//! recovery stands on must (a) survive JSON serialization losslessly,
//! (b) restore to a process whose state image is identical to the
//! original's, and (c) make mid-run crash-restore invisible — identical
//! counters to an uninterrupted run — across every schedule policy and a
//! spread of seeds. Over arbitrary images and deltas, with every integer
//! drawn from its full domain, the codec round-trips and `json_len` equals
//! the length of the emitted text.

use dvs_core::json::JsonEncode;
use dvs_core::multiway::{partition_multiway, MultiwayConfig};
use dvs_core::{FromJson, Json, ToJson};
use dvs_integration_tests::elaborate;
use dvs_sim::cluster::ClusterPlan;
use dvs_sim::stimulus::VectorStimulus;
use dvs_sim::timewarp::dst::first_cut_channel;
use dvs_sim::timewarp::proc::ClusterProcess;
use dvs_sim::timewarp::{
    run_timewarp, Checkpoint, CheckpointCadence, CheckpointDelta, CkptEvent, CkptSource,
    DeltaError, FaultPlan, LogDelta, SchedulePolicy, StateSaving, TimeWarpConfig, Transport,
    TwMessage, ValuesDelta, CHECKPOINT_SCHEMA,
};
use dvs_sim::wheel::NetEvent;
use dvs_sim::{Logic, SimStats};
use dvs_verilog::{NetId, Netlist};
use dvs_workloads::seqcirc::generate_counter;
use dvs_workloads::viterbi::{generate_viterbi, ViterbiParams};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

/// Drive a two-cluster system by hand for `epochs` scheduling steps,
/// shuttling messages between the processes, and return the processes —
/// a realistic mid-run state with pending events, tombstones, rollback
/// history and outstanding output log entries.
fn pump_two_clusters<'a>(
    nl: &'a Netlist,
    plan: &'a ClusterPlan,
    stim_seed: u64,
    epochs: u32,
    state_saving: StateSaving,
) -> Vec<ClusterProcess<'a, 'a>> {
    let stim = VectorStimulus::from_netlist(nl, 10, stim_seed);
    let cycles = 30;
    let mut procs: Vec<ClusterProcess> = (0..2)
        .map(|c| ClusterProcess::new(nl, plan, c, stim.clone(), cycles, state_saving))
        .collect();
    let mut queues: Vec<Vec<TwMessage>> = vec![Vec::new(); 2];
    for step in 0..epochs {
        let c = (step % 2) as usize;
        // Deliver everything queued for `c` first, then advance one epoch.
        let inbox = std::mem::take(&mut queues[c]);
        let mut outbox: Vec<TwMessage> = Vec::new();
        let mut send = |m: TwMessage| outbox.push(m);
        for m in inbox {
            procs[c].handle_message(m, &mut send);
        }
        procs[c].process_next_epoch(u64::MAX, &mut send);
        for m in outbox {
            queues[m.dst as usize].push(m);
        }
    }
    procs
}

fn two_cluster_fixture() -> (Netlist, Vec<u32>) {
    let nl = elaborate(&generate_counter(6));
    let gb: Vec<u32> = (0..nl.gate_count()).map(|i| (i % 2) as u32).collect();
    (nl, gb)
}

/// Pump a two-cluster system and capture a per-cluster *sequence* of
/// evolving images, one every `stride` scheduling steps — the raw material
/// for base+delta chains with realistic edits (fossil drains, rollback
/// truncations, fresh appends) between consecutive rounds.
fn image_sequence<'a>(
    nl: &'a Netlist,
    plan: &'a ClusterPlan,
    stim_seed: u64,
    rounds: u32,
    stride: u32,
    state_saving: StateSaving,
) -> Vec<Vec<Checkpoint>> {
    let stim = VectorStimulus::from_netlist(nl, 10, stim_seed);
    let cycles = 30;
    let mut procs: Vec<ClusterProcess> = (0..2)
        .map(|c| ClusterProcess::new(nl, plan, c, stim.clone(), cycles, state_saving))
        .collect();
    let mut queues: Vec<Vec<TwMessage>> = vec![Vec::new(); 2];
    let mut images: Vec<Vec<Checkpoint>> = vec![Vec::new(); 2];
    let mut step = 0u32;
    for round in 0..rounds {
        for _ in 0..stride {
            let c = (step % 2) as usize;
            step += 1;
            let inbox = std::mem::take(&mut queues[c]);
            let mut outbox: Vec<TwMessage> = Vec::new();
            let mut send = |m: TwMessage| outbox.push(m);
            for m in inbox {
                procs[c].handle_message(m, &mut send);
            }
            procs[c].process_next_epoch(u64::MAX, &mut send);
            for m in outbox {
                queues[m.dst as usize].push(m);
            }
        }
        for (c, p) in procs.iter().enumerate() {
            images[c].push(p.checkpoint(round as u64));
        }
    }
    images
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Checkpoint -> json -> Checkpoint` is lossless on realistic mid-run
    /// states, and capturing the same state twice yields byte-identical
    /// artifacts (unordered collections are sorted at capture).
    #[test]
    fn checkpoint_json_roundtrip_is_lossless(
        stim_seed in any::<u64>(),
        epochs in 1u32..40,
        gvt in 0u64..50,
        checkpoint_saving in any::<bool>(),
    ) {
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let saving = if checkpoint_saving {
            StateSaving::Checkpoint { interval: 4 }
        } else {
            StateSaving::IncrementalUndo
        };
        let procs = pump_two_clusters(&nl, &plan, stim_seed, epochs, saving);
        for p in &procs {
            let ck = p.checkpoint(gvt);
            let text = ck.to_json().emit().expect("emit");
            let back = Checkpoint::from_json(&Json::parse(&text).expect("parse"))
                .expect("checkpoint deserializes");
            prop_assert_eq!(&back, &ck, "round-trip lost information");
            prop_assert_eq!(ck.json_len(), text.len() as u64);
            // Determinism of capture and of serialization.
            let again = p.checkpoint(gvt);
            prop_assert_eq!(&again, &ck);
            prop_assert_eq!(again.to_json().emit().expect("emit"), text);
        }
    }

    /// Restoring a checkpoint yields a process whose own state image is
    /// identical to the one it was built from — capture/restore is a
    /// fixed point.
    #[test]
    fn restored_process_reproduces_its_image(
        stim_seed in any::<u64>(),
        epochs in 1u32..40,
    ) {
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let stim = VectorStimulus::from_netlist(&nl, 10, stim_seed);
        let procs = pump_two_clusters(&nl, &plan, stim_seed, epochs, StateSaving::IncrementalUndo);
        for p in &procs {
            let ck = p.checkpoint(7);
            let restored = ClusterProcess::from_checkpoint(
                &nl,
                &plan,
                stim.clone(),
                30,
                StateSaving::IncrementalUndo,
                &ck,
            );
            prop_assert_eq!(restored.checkpoint(7), ck);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `CheckpointDelta -> json -> CheckpointDelta` is lossless and
    /// byte-deterministic on realistic consecutive-round edits, and
    /// applying the decoded delta reproduces the next image exactly.
    #[test]
    fn delta_chain_roundtrip_is_bit_exact(
        stim_seed in any::<u64>(),
        stride in 1u32..8,
        checkpoint_saving in any::<bool>(),
    ) {
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let saving = if checkpoint_saving {
            StateSaving::Checkpoint { interval: 4 }
        } else {
            StateSaving::IncrementalUndo
        };
        let images = image_sequence(&nl, &plan, stim_seed, 6, stride, saving);
        for seq in &images {
            for pair in seq.windows(2) {
                let d = CheckpointDelta::between(&pair[0], &pair[1]);
                let text = d.to_json().emit().expect("emit");
                let back = CheckpointDelta::from_json(&Json::parse(&text).expect("parse"))
                    .expect("delta deserializes");
                prop_assert_eq!(&back, &d, "round-trip lost information");
                prop_assert_eq!(d.json_len(), text.len() as u64);
                prop_assert_eq!(back.to_json().emit().expect("emit"), text);
                let next = pair[0].apply_delta(&back).expect("delta applies");
                prop_assert_eq!(&next, &pair[1], "decoded delta does not reproduce next image");
            }
        }
    }

    /// Restoring from base + replayed deltas equals restoring from the full
    /// image, at every round of the chain — through the actual process
    /// restore path, not just the image algebra.
    #[test]
    fn restore_from_chain_equals_restore_from_full_at_every_round(
        stim_seed in any::<u64>(),
        stride in 1u32..8,
    ) {
        let (nl, gb) = two_cluster_fixture();
        let plan = ClusterPlan::new(&nl, &gb, 2);
        let stim = VectorStimulus::from_netlist(&nl, 10, stim_seed);
        let images = image_sequence(&nl, &plan, stim_seed, 5, stride, StateSaving::IncrementalUndo);
        for seq in &images {
            let base = &seq[0];
            let deltas: Vec<CheckpointDelta> = seq
                .windows(2)
                .map(|pair| CheckpointDelta::between(&pair[0], &pair[1]))
                .collect();
            for (r, expected) in seq.iter().enumerate() {
                prop_assert_eq!(
                    &base.apply_chain(&deltas[..r]).expect("chain applies"),
                    expected,
                    "chain diverged at round {}", r
                );
                let (restored, image) = ClusterProcess::from_chain(
                    &nl,
                    &plan,
                    stim.clone(),
                    30,
                    StateSaving::IncrementalUndo,
                    base,
                    &deltas[..r],
                )
                .expect("process restores from chain");
                prop_assert_eq!(&image, expected);
                prop_assert_eq!(&restored.checkpoint(expected.gvt), expected);
            }
        }
    }
}

// --- arbitrary images and deltas over the full integer domain -------------

/// A `u64` from the whole domain, with the encoding boundaries (zero, the
/// `i64::MAX` edge where the integer encoding turns into a decimal string,
/// `u64::MAX`) drawn far more often than uniform sampling would.
fn any_u64(rng: &mut TestRng) -> u64 {
    match rng.gen_range(0..6) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.gen_range(i64::MAX as u64 - 2..=i64::MAX as u64 + 2),
        3 => rng.gen_range(0..1_000),
        _ => rng.gen_range(0..=u64::MAX),
    }
}

fn any_u32(rng: &mut TestRng) -> u32 {
    match rng.gen_range(0..4) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.gen_range(0..=u32::MAX),
    }
}

/// Empty about a third of the time, so every elision path is exercised.
fn any_vec<T>(rng: &mut TestRng, mut item: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let n = rng.gen_range(0..4usize);
    (0..n).map(|_| item(rng)).collect()
}

fn any_logic(rng: &mut TestRng) -> Logic {
    [Logic::Zero, Logic::One, Logic::X, Logic::Z][rng.gen_range(0..4usize)]
}

fn any_logic_vec(rng: &mut TestRng) -> Vec<Logic> {
    let n = rng.gen_range(0..9usize);
    (0..n).map(|_| any_logic(rng)).collect()
}

fn any_event(rng: &mut TestRng) -> CkptEvent {
    let source = match rng.gen_range(0..3) {
        0 => CkptSource::Stimulus,
        1 => CkptSource::Local {
            created_at: any_u64(rng),
            lseq: any_u64(rng),
        },
        _ => CkptSource::Remote {
            src: any_u32(rng),
            seq: any_u64(rng),
        },
    };
    CkptEvent {
        time: any_u64(rng),
        net: any_u32(rng),
        value: any_logic(rng),
        source,
        order: any_u64(rng),
    }
}

fn any_message(rng: &mut TestRng) -> TwMessage {
    TwMessage {
        src: any_u32(rng),
        dst: any_u32(rng),
        seq: any_u64(rng),
        ev: NetEvent {
            time: any_u64(rng),
            net: NetId(any_u32(rng)),
            value: any_logic(rng),
        },
        anti: rng.gen_bool(0.5),
    }
}

fn any_stats(rng: &mut TestRng) -> SimStats {
    SimStats {
        events: any_u64(rng),
        gate_evals: any_u64(rng),
        net_toggles: any_u64(rng),
        cycles: any_u64(rng),
        end_time: any_u64(rng),
        messages: any_u64(rng),
        anti_messages: any_u64(rng),
        rollbacks: any_u64(rng),
        rolled_back_events: any_u64(rng),
        gvt_rounds: any_u64(rng),
        fossil_collected: any_u64(rng),
    }
}

fn any_undo(rng: &mut TestRng) -> (u64, u32, Logic) {
    (any_u64(rng), any_u32(rng), any_logic(rng))
}

fn any_snapshot(rng: &mut TestRng) -> (u64, Vec<Logic>) {
    (any_u64(rng), any_logic_vec(rng))
}

fn any_pair(rng: &mut TestRng) -> (u64, u64) {
    (any_u64(rng), any_u64(rng))
}

fn any_remote(rng: &mut TestRng) -> (u32, u64) {
    (any_u32(rng), any_u64(rng))
}

fn any_log<T>(rng: &mut TestRng, item: impl FnMut(&mut TestRng) -> T) -> LogDelta<T> {
    if rng.gen_range(0..4) == 0 {
        return LogDelta::keep_all();
    }
    LogDelta {
        drop_front: any_u32(rng),
        keep: any_u32(rng),
        append: any_vec(rng, item),
    }
}

/// An arbitrary full image: not one a run would produce, but one the codec
/// must carry exactly.
struct AnyCheckpoint;

impl Strategy for AnyCheckpoint {
    type Value = Checkpoint;

    fn generate(&self, rng: &mut TestRng) -> Checkpoint {
        Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            cluster: any_u32(rng),
            gvt: any_u64(rng),
            values: any_logic_vec(rng),
            pending: any_vec(rng, any_event),
            tomb_remote: any_vec(rng, any_remote),
            tomb_local: any_vec(rng, any_u64),
            processed: any_vec(rng, any_event),
            undo: any_vec(rng, any_undo),
            snapshots: any_vec(rng, any_snapshot),
            epochs_since_snapshot: any_u32(rng),
            outlog: any_vec(rng, |r| (any_u64(r), any_message(r))),
            sched_log: any_vec(rng, any_pair),
            stim_cycle: any_u64(rng),
            last_time: any_u64(rng),
            settled: rng.gen_bool(0.5),
            order: any_u64(rng),
            lseq: any_u64(rng),
            mseq: any_u64(rng),
            stats: any_stats(rng),
        }
    }
}

/// An arbitrary delta, `values` either a dense replacement or sparse runs.
struct AnyDelta;

impl Strategy for AnyDelta {
    type Value = CheckpointDelta;

    fn generate(&self, rng: &mut TestRng) -> CheckpointDelta {
        let values = if rng.gen_bool(0.5) {
            ValuesDelta::Full(any_logic_vec(rng))
        } else {
            ValuesDelta::Runs(any_vec(rng, |r| (any_u32(r), any_logic_vec(r))))
        };
        CheckpointDelta {
            schema: CHECKPOINT_SCHEMA,
            cluster: any_u32(rng),
            base_gvt: any_u64(rng),
            gvt: any_u64(rng),
            values,
            pending_removed: any_vec(rng, any_pair),
            pending_added: any_vec(rng, any_event),
            tomb_remote_removed: any_vec(rng, any_remote),
            tomb_remote_added: any_vec(rng, any_remote),
            tomb_local_removed: any_vec(rng, any_u64),
            tomb_local_added: any_vec(rng, any_u64),
            processed: any_log(rng, any_event),
            undo: any_log(rng, any_undo),
            snapshots: any_log(rng, any_snapshot),
            epochs_since_snapshot: any_u32(rng),
            outlog: any_log(rng, |r| (any_u64(r), any_message(r))),
            sched_log: any_log(rng, any_pair),
            stim_cycle: any_u64(rng),
            last_time: any_u64(rng),
            settled: rng.gen_bool(0.5),
            order: any_u64(rng),
            lseq: any_u64(rng),
            mseq: any_u64(rng),
            stats: any_stats(rng),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `json_len` is the exact length of the emitted text, and values above
    /// `i64::MAX` in every field survive the round trip (they travel as
    /// decimal strings, never as a wrapped negative integer).
    #[test]
    fn full_domain_images_round_trip_and_json_len_is_exact(ck in AnyCheckpoint) {
        let tree = ck.to_json();
        let text = tree.emit().expect("emit");
        prop_assert_eq!(ck.json_len(), text.len() as u64);
        prop_assert_eq!(&Checkpoint::from_json(&tree).expect("tree decodes"), &ck);
        let parsed = Json::parse(&text).expect("parse");
        prop_assert_eq!(&Checkpoint::from_json(&parsed).expect("text decodes"), &ck);
    }

    #[test]
    fn full_domain_deltas_round_trip_and_json_len_is_exact(d in AnyDelta) {
        let tree = d.to_json();
        let text = tree.emit().expect("emit");
        prop_assert_eq!(d.json_len(), text.len() as u64);
        prop_assert_eq!(&CheckpointDelta::from_json(&tree).expect("tree decodes"), &d);
        let parsed = Json::parse(&text).expect("parse");
        prop_assert_eq!(&CheckpointDelta::from_json(&parsed).expect("text decodes"), &d);
    }
}

/// Broken chains fail with typed [`DeltaError`]s instead of panicking or
/// silently producing a wrong image: out-of-order and truncated chains are
/// chain mismatches, cross-cluster deltas are cluster mismatches, tampered
/// payloads are corruption, and a foreign schema is a schema mismatch.
#[test]
fn broken_delta_chains_fail_with_typed_errors() {
    let (nl, gb) = two_cluster_fixture();
    let plan = ClusterPlan::new(&nl, &gb, 2);
    let images = image_sequence(&nl, &plan, 5, 4, 3, StateSaving::IncrementalUndo);
    let seq = &images[0];
    let deltas: Vec<CheckpointDelta> = seq
        .windows(2)
        .map(|pair| CheckpointDelta::between(&pair[0], &pair[1]))
        .collect();

    // Out of order: the second delta applied straight to the base.
    let err = seq[0].apply_delta(&deltas[1]).unwrap_err();
    assert!(matches!(err, DeltaError::ChainMismatch { .. }), "{err}");

    // Truncated: a chain with the middle link missing.
    let gapped = [deltas[0].clone(), deltas[2].clone()];
    let err = seq[0].apply_chain(&gapped).unwrap_err();
    assert!(matches!(err, DeltaError::ChainMismatch { .. }), "{err}");

    // Cross-cluster: cluster 1's delta against cluster 0's base.
    let foreign = CheckpointDelta::between(&images[1][0], &images[1][1]);
    let err = seq[0].apply_delta(&foreign).unwrap_err();
    assert!(
        matches!(
            err,
            DeltaError::ClusterMismatch { .. } | DeltaError::ChainMismatch { .. }
        ),
        "{err}"
    );

    // Tampered payload: a log window that claims more history than exists.
    let mut corrupt = deltas[0].clone();
    corrupt.processed.drop_front = u32::MAX;
    let err = seq[0].apply_delta(&corrupt).unwrap_err();
    assert!(matches!(err, DeltaError::Corrupt(_)), "{err}");

    // Foreign schema version.
    let mut wrong_schema = deltas[0].clone();
    wrong_schema.schema = 999;
    let err = seq[0].apply_delta(&wrong_schema).unwrap_err();
    assert!(matches!(err, DeltaError::SchemaMismatch { .. }), "{err}");
}

/// Schema and kind are enforced on read: a tampered artifact is rejected
/// instead of silently misinterpreted.
#[test]
fn checkpoint_rejects_wrong_kind_and_schema() {
    let (nl, gb) = two_cluster_fixture();
    let plan = ClusterPlan::new(&nl, &gb, 2);
    let procs = pump_two_clusters(&nl, &plan, 1, 8, StateSaving::IncrementalUndo);
    let ck = procs[0].checkpoint(3);

    let mut wrong_kind = ck.to_json();
    if let Json::Object(members) = &mut wrong_kind {
        for (k, v) in members.iter_mut() {
            if k == "kind" {
                *v = Json::Str("flow_report".into());
            }
        }
    }
    assert!(Checkpoint::from_json(&wrong_kind).is_err());

    let mut wrong_schema = ck.to_json();
    if let Json::Object(members) = &mut wrong_schema {
        for (k, v) in members.iter_mut() {
            if k == "checkpoint_schema" {
                *v = Json::Int(999);
            }
        }
    }
    assert!(Checkpoint::from_json(&wrong_schema).is_err());
}

/// The satellite acceptance sweep: a crash-and-restore in the middle of a
/// deterministic run leaves every counter identical to the uninterrupted
/// run, for 16 seeds × all four schedule policies.
#[test]
fn mid_run_restore_is_invisible_for_sixteen_seeds_and_all_policies() {
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = elaborate(&src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(3, 20.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, 3);
    let stim = VectorStimulus::from_netlist(&nl, 10, 7);
    let delay = first_cut_channel(&plan).expect("cut channel");
    let policies = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
        SchedulePolicy::DelayChannel {
            src: delay.0,
            dst: delay.1,
        },
    ];
    for policy in policies {
        for seed in 0..16u64 {
            let base = TimeWarpConfig::builder()
                .transport(Transport::in_proc(seed, policy))
                .window(8)
                .epochs_per_quantum(2)
                .gvt_interval(1)
                .state_saving(StateSaving::IncrementalUndo)
                .build()
                .expect("valid config");
            let clean = run_timewarp(&nl, &plan, &stim, 20, &base).expect("clean run stalled");
            let cfg = TimeWarpConfig::builder()
                .transport(Transport::in_proc(seed, policy))
                .window(8)
                .epochs_per_quantum(2)
                .gvt_interval(1)
                .state_saving(StateSaving::IncrementalUndo)
                .fault(FaultPlan::crash((seed % 3) as u32, 20 + seed * 9))
                .build()
                .expect("valid config");
            let tw = run_timewarp(&nl, &plan, &stim, 20, &cfg).expect("crash run stalled");
            let label = format!("{} seed {seed}", policy.name());
            assert_eq!(tw.recovery.crashes, 1, "{label}: fault did not fire");
            assert_eq!(tw.stats, clean.stats, "{label}: stats diverged");
            assert_eq!(
                tw.cluster_stats, clean.cluster_stats,
                "{label}: cluster stats diverged"
            );
            assert_eq!(tw.values, clean.values, "{label}: values diverged");
            assert_eq!(tw.gvt_rounds, clean.gvt_rounds, "{label}: GVT diverged");
        }
    }
}

/// The delta-cadence leg of the sweep: with bases only every 4th GVT round
/// and deltas in between, a mid-window crash restores from base + replayed
/// deltas + input-log replay — and stays invisible across every policy.
/// Also pins that a cadence-4 run without faults equals a cadence-1 run:
/// the capture path is side-effect-free.
#[test]
fn mid_run_restore_with_delta_cadence_is_invisible() {
    let src = generate_viterbi(&ViterbiParams::tiny());
    let nl = elaborate(&src);
    let part = partition_multiway(&nl, &MultiwayConfig::new(3, 20.0));
    let plan = ClusterPlan::new(&nl, &part.gate_blocks, 3);
    let stim = VectorStimulus::from_netlist(&nl, 10, 7);
    let delay = first_cut_channel(&plan).expect("cut channel");
    let policies = [
        SchedulePolicy::RoundRobin,
        SchedulePolicy::SeededRandom,
        SchedulePolicy::StragglerHeavy,
        SchedulePolicy::DelayChannel {
            src: delay.0,
            dst: delay.1,
        },
    ];
    let build = |seed: u64, policy: SchedulePolicy, cadence: u32, fault: Option<FaultPlan>| {
        let mut b = TimeWarpConfig::builder()
            .transport(Transport::in_proc(seed, policy))
            .window(8)
            .epochs_per_quantum(2)
            .gvt_interval(1)
            .state_saving(StateSaving::IncrementalUndo)
            .checkpoint_cadence(CheckpointCadence::every_n_rounds(cadence));
        if let Some(fault) = fault {
            b = b.fault(fault);
        }
        b.build().expect("valid config")
    };
    for policy in policies {
        for seed in 0..8u64 {
            let plain = build(seed, policy, 1, None);
            let clean = run_timewarp(&nl, &plan, &stim, 20, &plain).expect("clean run stalled");
            let cadenced = build(seed, policy, 4, None);
            let quiet =
                run_timewarp(&nl, &plan, &stim, 20, &cadenced).expect("cadence run stalled");
            let label = format!("{} seed {seed}", policy.name());
            assert_eq!(quiet.stats, clean.stats, "{label}: cadence perturbed stats");
            assert_eq!(
                quiet.values, clean.values,
                "{label}: cadence perturbed values"
            );

            let faulty = build(
                seed,
                policy,
                4,
                Some(FaultPlan::crash((seed % 3) as u32, 20 + seed * 9)),
            );
            let tw = run_timewarp(&nl, &plan, &stim, 20, &faulty).expect("crash run stalled");
            assert_eq!(tw.recovery.crashes, 1, "{label}: fault did not fire");
            assert_eq!(tw.stats, clean.stats, "{label}: stats diverged");
            assert_eq!(
                tw.cluster_stats, clean.cluster_stats,
                "{label}: cluster stats diverged"
            );
            assert_eq!(tw.values, clean.values, "{label}: values diverged");
            assert_eq!(tw.gvt_rounds, clean.gvt_rounds, "{label}: GVT diverged");
            assert!(
                tw.recovery.checkpoint_bytes_delta > 0,
                "{label}: no delta bytes counted — cadence leg did not exercise deltas"
            );
        }
    }
}
