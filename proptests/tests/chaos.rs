//! Chaos testing for lineage recovery: random recipe DAGs, random loss
//! sets, and the invariant that recovery always reproduces exactly the
//! state of an unfailed execution.

use genie_frontend::capture::CaptureCtx;
use genie_lineage::{recover, LineageLog, LocalReplayer, Recipe};
use genie_srg::ElemType;
use genie_tensor::Tensor;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build a random chain of recipes over `objects` named objects. Each
/// recipe derives one object from client data and up to two previously
/// defined objects, with deterministic arithmetic.
fn random_log(objects: usize, steps: usize, seed: u64) -> (LineageLog, LocalReplayer) {
    let mut log = LineageLog::new();
    let mut replayer = LocalReplayer::new();
    let mut rng = seed;
    let mut next = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut defined: Vec<String> = Vec::new();

    for step in 0..steps {
        let name = format!("obj{}", next() % objects);
        let ctx = CaptureCtx::new(format!("step{step}"));
        let client = ctx.input(
            "client",
            [4],
            ElemType::F32,
            Some(Tensor::full([4], (step % 7) as f32 + 0.5)),
        );
        let mut acc = client.relu();
        let mut handle_inputs = Vec::new();
        if !defined.is_empty() {
            for _ in 0..(next() % 2 + usize::from(next() % 2 == 0)) {
                let dep = defined[next() % defined.len()].clone();
                let input = ctx.input(&format!("in_{dep}"), [4], ElemType::F32, None);
                acc = acc.add(&input);
                handle_inputs.push((input.node, dep));
            }
        }
        acc.mark_output();
        let mut cap = ctx.finish();
        for (node, _) in &handle_inputs {
            cap.values.remove(node);
        }
        let recipe = Recipe {
            defines: name.clone(),
            cap,
            handle_inputs,
            output: acc.node,
        };
        replayer.replay(&recipe).expect("forward execution");
        log.record(recipe);
        if !defined.contains(&name) {
            defined.push(name);
        }
    }
    (log, replayer)
}

use genie_lineage::Replayer;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn recovery_always_reproduces_lost_state(
        objects in 1usize..5,
        steps in 1usize..12,
        seed in any::<u64>(),
        loss_mask in any::<u32>(),
    ) {
        let (log, mut replayer) = random_log(objects, steps, seed);
        let oracle = replayer.store.clone();

        // Lose a random subset of live objects.
        let names: Vec<String> = {
            let mut v: Vec<String> = oracle.keys().cloned().collect();
            v.sort();
            v
        };
        let lost: Vec<String> = names
            .iter()
            .enumerate()
            .filter(|(i, _)| loss_mask >> (i % 32) & 1 == 1)
            .map(|(_, n)| n.clone())
            .collect();
        if lost.is_empty() {
            return Ok(());
        }
        for name in &lost {
            replayer.store.remove(name);
        }
        let surviving: BTreeSet<String> = replayer.store.keys().cloned().collect();

        let report = recover(&log, &lost, &surviving, &mut replayer).unwrap();
        // The whole store — lost AND surviving — matches the unfailed
        // oracle exactly after recovery.
        for (name, value) in &oracle {
            prop_assert_eq!(
                replayer.store.get(name),
                Some(value),
                "object {} diverged after recovery",
                name
            );
        }
        // Replay indices are sorted (execution order) and within range.
        let mut sorted = report.replayed.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &report.replayed);
        prop_assert!(report.replayed.iter().all(|&i| i < log.len()));
        // Savings are a valid fraction.
        prop_assert!((0.0..=1.0).contains(&report.savings));
    }

    #[test]
    fn surviving_state_is_never_recomputed_unnecessarily(
        steps in 2usize..10,
        seed in any::<u64>(),
    ) {
        // Lose only the LAST-defined object; everything else survives.
        let (log, mut replayer) = random_log(3, steps, seed);
        let last = log.recipes().last().unwrap().defines.clone();
        let oracle = replayer.store.clone();
        replayer.store.remove(&last);
        let surviving: BTreeSet<String> = replayer.store.keys().cloned().collect();

        let report = recover(&log, std::slice::from_ref(&last), &surviving, &mut replayer).unwrap();
        // Replay is bounded by the definitions reachable from the lost
        // object, and the WHOLE store ends identical to the unfailed run
        // — including surviving names the replay may have re-written.
        prop_assert!(!report.replayed.is_empty());
        prop_assert!(report.replayed.len() <= log.len());
        for (name, value) in &oracle {
            prop_assert_eq!(
                replayer.store.get(name),
                Some(value),
                "object {} diverged",
                name
            );
        }
    }
}
