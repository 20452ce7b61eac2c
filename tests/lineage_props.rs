//! Chaos testing for lineage recovery: random recipe DAGs, random loss
//! sets, and the invariant that recovery always reproduces exactly the
//! state of an unfailed execution — as seeded loops. A case is a
//! function of its index alone, a failing case prints the index that
//! reproduces it, and the two inputs a failure was once shrunk to run
//! first, by name.

use genie::frontend::capture::CaptureCtx;
use genie::lineage::{recover, LineageLog, LocalReplayer, Recipe, Replayer};
use genie::netsim::XorShift64;
use genie::srg::ElemType;
use genie::tensor::Tensor;
use std::collections::BTreeSet;
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 32;

/// One case's inputs; a panic while it is alive names the case.
struct Case {
    label: String,
    objects: usize,
    steps: usize,
    seed: u64,
    loss_mask: u32,
}

impl Case {
    /// Case `index`: object and step counts from the given ranges, any
    /// seed, any loss mask.
    fn drawn(index: u64, objects: Range<u64>, steps: Range<u64>) -> Self {
        // Odd multiplier: distinct indices give distinct, nonzero seeds.
        let mut rng = XorShift64::new((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut within = |r: Range<u64>| (r.start + rng.next_below(r.end - r.start)) as usize;
        Case {
            label: index.to_string(),
            objects: within(objects),
            steps: within(steps),
            seed: rng.next_u64(),
            loss_mask: rng.next_u64() as u32,
        }
    }

    /// `objects = 3, steps = 4`: a recorded failure of
    /// `recovery_always_reproduces_lost_state`.
    fn shrunk_loss() -> Self {
        Case {
            label: "shrunk_loss".into(),
            objects: 3,
            steps: 4,
            seed: 15645050341152185147,
            loss_mask: 346376244,
        }
    }

    /// `steps = 3`: a recorded failure of
    /// `surviving_state_is_never_recomputed_unnecessarily` (three objects,
    /// the last-defined one lost).
    fn shrunk_last() -> Self {
        Case {
            label: "shrunk_last".into(),
            objects: 3,
            steps: 3,
            seed: 3898805092753308522,
            loss_mask: 0,
        }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "failing case: {} (objects = {}, steps = {}, seed = {}, loss_mask = {})",
                self.label, self.objects, self.steps, self.seed, self.loss_mask
            );
        }
    }
}

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

#[test]
fn recovery_always_reproduces_lost_state() {
    let cases = (0..CASES).map(|index| Case::drawn(index, 1..5, 1..12));
    for case in std::iter::once(Case::shrunk_loss()).chain(cases) {
        let (log, mut replayer) = random_log(case.objects, case.steps, case.seed);
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
            .filter(|(i, _)| case.loss_mask >> (i % 32) & 1 == 1)
            .map(|(_, n)| n.clone())
            .collect();
        if lost.is_empty() {
            continue;
        }
        for name in &lost {
            replayer.store.remove(name);
        }
        let surviving: BTreeSet<String> = replayer.store.keys().cloned().collect();

        let report = recover(&log, &lost, &surviving, &mut replayer).unwrap();
        // The whole store — lost AND surviving — matches the unfailed
        // oracle exactly after recovery.
        for (name, value) in &oracle {
            assert_eq!(
                replayer.store.get(name),
                Some(value),
                "object {name} diverged after recovery"
            );
        }
        // Replay indices are sorted (execution order) and within range.
        let mut sorted = report.replayed.clone();
        sorted.sort_unstable();
        assert_eq!(&sorted, &report.replayed);
        assert!(report.replayed.iter().all(|&i| i < log.len()));
        // Savings are a valid fraction.
        assert!((0.0..=1.0).contains(&report.savings));
    }
}

#[test]
fn surviving_state_is_never_recomputed_unnecessarily() {
    let cases = (0..CASES).map(|index| Case::drawn(index, 3..4, 2..10));
    for case in std::iter::once(Case::shrunk_last()).chain(cases) {
        // Lose only the LAST-defined object; everything else survives.
        let (log, mut replayer) = random_log(case.objects, case.steps, case.seed);
        let last = log.recipes().last().unwrap().defines.clone();
        let oracle = replayer.store.clone();
        replayer.store.remove(&last);
        let surviving: BTreeSet<String> = replayer.store.keys().cloned().collect();

        let report = recover(&log, std::slice::from_ref(&last), &surviving, &mut replayer).unwrap();
        // Replay is bounded by the definitions reachable from the lost
        // object, and the WHOLE store ends identical to the unfailed run
        // — including surviving names the replay may have re-written.
        assert!(!report.replayed.is_empty());
        assert!(report.replayed.len() <= log.len());
        for (name, value) in &oracle {
            assert_eq!(
                replayer.store.get(name),
                Some(value),
                "object {name} diverged"
            );
        }
    }
}
