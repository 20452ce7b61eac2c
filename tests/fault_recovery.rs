//! Integration: lineage-based fault tolerance across the real transport.
//!
//! A decode-style session builds remote state, the device crashes
//! mid-loop, recovery replays the minimal recipe set on the same server,
//! and generation continues to produce exactly the tokens an unfailed run
//! produces (§3.5: "recovery of long-running decode loops").

use genie::backend::{spawn_server, RemoteSession};
use genie::lineage::{
    is_state_loss, recover, CommitLog, LineageLog, PendingOutput, Recipe, RemoteReplayer,
};
use genie::prelude::*;
use genie::tensor::Tensor;
use std::collections::BTreeSet;

/// A deterministic "decode step": state' = relu(state + client_input(i)).
fn step_recipe(i: usize) -> Recipe {
    let ctx = CaptureCtx::new(format!("step{i}"));
    let prev = ctx.input("prev", [4], ElemType::F32, None);
    let inc = ctx.input(
        "inc",
        [4],
        ElemType::F32,
        Some(Tensor::full([4], (i + 1) as f32)),
    );
    let y = prev.add(&inc).relu();
    y.mark_output();
    let mut cap = ctx.finish();
    cap.values.remove(&prev.node);
    Recipe {
        defines: "state".into(),
        cap,
        handle_inputs: vec![(prev.node, "state".into())],
        output: y.node,
    }
}

fn seed_recipe() -> Recipe {
    let ctx = CaptureCtx::new("seed");
    let x = ctx.input(
        "x",
        [4],
        ElemType::F32,
        Some(Tensor::from_vec([4], vec![0.5, -1.0, 2.0, 0.0])),
    );
    let y = x.relu();
    y.mark_output();
    Recipe {
        defines: "state".into(),
        cap: ctx.finish(),
        handle_inputs: vec![],
        output: y.node,
    }
}

fn run_recipe(
    session: &mut RemoteSession,
    r: &Recipe,
) -> Result<(), genie::transport::TransportError> {
    let handle_refs: Vec<(genie::srg::NodeId, &str)> = r
        .handle_inputs
        .iter()
        .map(|(n, s)| (*n, s.as_str()))
        .collect();
    session
        .execute(&r.cap, &handle_refs, &[], &[(r.output, r.defines.as_str())])
        .map(|_| ())
}

#[test]
fn recovery_mid_session_is_exact() {
    // Reference: an unfailed run of 6 steps.
    let (server_a, _) = spawn_server().unwrap();
    let mut clean = RemoteSession::connect(server_a.addr()).unwrap();
    let seed = seed_recipe();
    run_recipe(&mut clean, &seed).unwrap();
    for i in 0..6 {
        run_recipe(&mut clean, &step_recipe(i)).unwrap();
    }
    let expected = clean.fetch("state").unwrap();

    // Failing run: crash after step 3, recover, continue.
    let (server_b, exec) = spawn_server().unwrap();
    let mut session = RemoteSession::connect(server_b.addr()).unwrap();
    let mut log = LineageLog::new();
    let seed = seed_recipe();
    run_recipe(&mut session, &seed).unwrap();
    log.record(seed);
    for i in 0..4 {
        let r = step_recipe(i);
        run_recipe(&mut session, &r).unwrap();
        log.record(r);
    }

    // 💥 device loss.
    let lost = session.inject_crash().unwrap();
    assert_eq!(exec.resident_count(), 0);
    let lost_names: Vec<String> = lost.iter().map(|(n, _)| n.clone()).collect();

    // A stale-handle attempt is detected as state loss.
    let probe = step_recipe(99);
    session.handles.bind("state", lost[0].1);
    let err = run_recipe(&mut session, &probe).unwrap_err();
    assert!(is_state_loss(&err), "stale handle must classify as loss");
    session.handles.invalidate_all();

    // Recover and continue the remaining steps.
    let report = recover(
        &log,
        &lost_names,
        &BTreeSet::new(),
        &mut RemoteReplayer {
            session: &mut session,
        },
    )
    .unwrap();
    assert_eq!(report.replayed.len(), log.len(), "all state was lost");

    for i in 4..6 {
        run_recipe(&mut session, &step_recipe(i)).unwrap();
    }
    let recovered = session.fetch("state").unwrap();
    assert_eq!(
        recovered.as_f("state").data(),
        expected.as_f("state").data(),
        "post-recovery continuation must match the unfailed run exactly"
    );
}

#[test]
fn partition_mid_decode_loop_replays_exactly() {
    use genie::backend::{classify_error, ErrorClass};
    use genie::transport::RetryPolicy;

    // Reference: an unfailed run of 6 steps.
    let (server_a, _) = spawn_server().unwrap();
    let mut clean = RemoteSession::connect(server_a.addr()).unwrap();
    run_recipe(&mut clean, &seed_recipe()).unwrap();
    for i in 0..6 {
        run_recipe(&mut clean, &step_recipe(i)).unwrap();
    }
    let expected = clean.fetch("state").unwrap();

    // Chaotic run: the serving host is partitioned away after step 3 —
    // the server vanishes mid-loop, taking all pinned state with it.
    let (server_b, _exec_b) = spawn_server().unwrap();
    let mut session = RemoteSession::connect_with(server_b.addr(), RetryPolicy::fast()).unwrap();
    let mut log = LineageLog::new();
    let seed = seed_recipe();
    run_recipe(&mut session, &seed).unwrap();
    log.record(seed);
    for i in 0..4 {
        let r = step_recipe(i);
        run_recipe(&mut session, &r).unwrap();
        log.record(r);
    }

    // 💥 network partition: even retries cannot reach the host.
    drop(server_b);
    let err = run_recipe(&mut session, &step_recipe(4)).unwrap_err();
    assert!(
        is_state_loss(&err),
        "a severed session must classify as state loss, got {err}"
    );
    assert_eq!(classify_error(&err), ErrorClass::StateLoss);
    let lost_names: Vec<String> = session
        .handles
        .invalidate_all()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(lost_names, vec!["state".to_string()]);

    // Recovery re-plans onto a reachable standby and replays lineage.
    let (server_c, _exec_c) = spawn_server().unwrap();
    let mut session = RemoteSession::connect(server_c.addr()).unwrap();
    let report = recover(
        &log,
        &lost_names,
        &BTreeSet::new(),
        &mut RemoteReplayer {
            session: &mut session,
        },
    )
    .unwrap();
    assert_eq!(report.replayed.len(), log.len(), "all state was lost");

    // The decode loop continues where it left off — step 4 never landed.
    for i in 4..6 {
        run_recipe(&mut session, &step_recipe(i)).unwrap();
    }
    let recovered = session.fetch("state").unwrap();
    assert_eq!(
        recovered.as_f("state").data(),
        expected.as_f("state").data(),
        "post-partition continuation must match the unfailed run exactly"
    );
}

#[test]
fn external_outputs_stay_idempotent_across_replay() {
    // Tokens emitted before a crash must not re-emit when the replay
    // regenerates them.
    let mut commits: CommitLog<i64> = CommitLog::new();

    // Pre-crash: steps 0..3 emit tokens and commit.
    for seq in 0..3u64 {
        assert!(commits.stage(PendingOutput {
            key: 1,
            epoch: 0,
            seq,
            value: 100 + seq as i64,
        }));
    }
    let emitted = commits.commit();
    assert_eq!(emitted, vec![100, 101, 102]);

    // Replay regenerates the same scoped outputs: all dropped.
    for seq in 0..3u64 {
        assert!(!commits.stage(PendingOutput {
            key: 1,
            epoch: 0,
            seq,
            value: 100 + seq as i64,
        }));
    }
    // Fresh post-recovery steps continue the stream.
    assert!(commits.stage(PendingOutput {
        key: 1,
        epoch: 0,
        seq: 3,
        value: 103,
    }));
    commits.commit();
    assert_eq!(commits.committed(), &[100, 101, 102, 103]);
}

#[test]
fn partial_survival_minimizes_replay() {
    // With the seed surviving (e.g. checkpointed), only the step chain
    // replays.
    let mut log = LineageLog::new();
    log.record(seed_recipe());
    for i in 0..5 {
        log.record(step_recipe(i));
    }
    let surviving: BTreeSet<String> = BTreeSet::new();
    let full = log.replay_set(&["state".into()], &surviving);
    assert_eq!(full.len(), 6);

    // Note: because every step redefines "state", survival of the *name*
    // cuts everything — model a checkpoint by marking it surviving.
    let surviving: BTreeSet<String> = ["state".to_string()].into_iter().collect();
    let cut = log.replay_set(&[], &surviving);
    assert!(cut.is_empty());
}
