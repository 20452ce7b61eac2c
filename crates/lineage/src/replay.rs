//! The lineage log: recipes for every remote-resident object.
//!
//! The SRG is the unit of lineage (§3.5): nodes are deterministic operator
//! invocations, edges are explicit dependencies. A [`Recipe`] records how
//! one named remote object was materialized — which captured graph, which
//! client-held inline inputs, which *other* named objects it consumed.
//! After a failure, [`LineageLog::replay_set`] computes the minimal
//! ordered subset of recipes that rebuilds exactly the lost state.

use genie_frontend::capture::CapturedGraph;
use genie_srg::NodeId;
use std::collections::BTreeSet;

/// How one named remote object is (re)materialized.
#[derive(Clone)]
pub struct Recipe {
    /// The object this recipe defines (e.g. `"k_cache_3"`).
    pub defines: String,
    /// The captured graph to execute. Its `values` hold the client-side
    /// inline inputs, which the client retains and can always re-ship.
    pub cap: CapturedGraph,
    /// Graph inputs bound to other named objects `(node, name)` — the
    /// cross-recipe lineage edges.
    pub handle_inputs: Vec<(NodeId, String)>,
    /// The node whose value becomes the object.
    pub output: NodeId,
}

/// Append-only log of recipes in execution order. A later recipe for the
/// same name supersedes earlier ones (a KV cache has one recipe per
/// append), and consumers reference the *latest definition before them*.
#[derive(Clone, Default)]
pub struct LineageLog {
    recipes: Vec<Recipe>,
}

impl LineageLog {
    /// Empty log.
    pub fn new() -> Self {
        LineageLog::default()
    }

    /// Record a recipe.
    pub fn record(&mut self, recipe: Recipe) {
        self.recipes.push(recipe);
    }

    /// Number of recorded recipes.
    pub fn len(&self) -> usize {
        self.recipes.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.recipes.is_empty()
    }

    /// Recipes in order.
    pub fn recipes(&self) -> &[Recipe] {
        &self.recipes
    }

    /// Index of the defining recipe for `name` visible at position `at`
    /// (i.e. the latest definition strictly before `at`).
    fn definition_before(&self, name: &str, at: usize) -> Option<usize> {
        self.recipes[..at].iter().rposition(|r| r.defines == name)
    }

    /// The minimal, ordered set of recipe indices that must re-execute to
    /// rebuild `lost` objects.
    ///
    /// Versioning: names are redefined over time (a KV cache has one
    /// recipe per append), but a surviving object holds only its *latest*
    /// version. Two rules keep recovery exact:
    ///
    /// 1. a surviving input cuts the recursion **only** when the consumer
    ///    used the input's latest definition — an older version must be
    ///    recomputed even though the name "survives";
    /// 2. once any old definition of a name replays, every later
    ///    definition of that name replays too (forward closure), so the
    ///    store always ends at the latest version rather than a clobbered
    ///    intermediate.
    pub fn replay_set(&self, lost: &[String], surviving: &BTreeSet<String>) -> Vec<usize> {
        // Latest definition index per name.
        let mut last_def: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (i, r) in self.recipes.iter().enumerate() {
            last_def.insert(r.defines.as_str(), i);
        }

        let mut needed: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = Vec::new();
        for name in lost {
            if let Some(idx) = self.definition_before(name, self.recipes.len()) {
                stack.push(idx);
            }
        }
        while let Some(idx) = stack.pop() {
            if !needed.insert(idx) {
                continue;
            }
            // Backward: dependencies (rule 1).
            for (_, input_name) in &self.recipes[idx].handle_inputs {
                let Some(dep) = self.definition_before(input_name, idx) else {
                    continue;
                };
                let is_latest = last_def.get(input_name.as_str()) == Some(&dep);
                if surviving.contains(input_name) && is_latest {
                    continue;
                }
                stack.push(dep);
            }
            // Forward closure: later definitions of this name (rule 2).
            let name = &self.recipes[idx].defines;
            for (j, r) in self.recipes.iter().enumerate().skip(idx + 1) {
                if &r.defines == name {
                    stack.push(j);
                }
            }
        }
        needed.into_iter().collect()
    }

    /// Fraction of the log's total recorded flops that a replay set
    /// skips — the headline savings of lineage recovery over restart.
    pub fn replay_savings(&self, replay: &[usize]) -> f64 {
        let total: f64 = self.recipes.iter().map(|r| r.cap.srg.total_flops()).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let replayed: f64 = replay
            .iter()
            .map(|&i| self.recipes[i].cap.srg.total_flops())
            .sum();
        1.0 - replayed / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::capture::CaptureCtx;
    use genie_srg::ElemType;

    fn dummy_recipe(defines: &str, inputs: &[&str]) -> Recipe {
        let ctx = CaptureCtx::new(defines);
        let mut nodes = Vec::new();
        for (i, name) in inputs.iter().enumerate() {
            let lt = ctx.input(name, [1], ElemType::F32, None);
            nodes.push((lt.node, name.to_string()));
            let _ = i;
        }
        let x = ctx.input("client_data", [1], ElemType::F32, None);
        let y = x.relu();
        y.mark_output();
        let cap = ctx.finish();
        Recipe {
            defines: defines.to_string(),
            cap,
            handle_inputs: nodes,
            output: y.node,
        }
    }

    fn chain_log() -> LineageLog {
        // weights ← (client); kv0 ← weights; kv1 ← kv0, weights;
        // kv2 ← kv1, weights
        let mut log = LineageLog::new();
        log.record(dummy_recipe("weights", &[]));
        log.record(dummy_recipe("kv0", &["weights"]));
        log.record(dummy_recipe("kv1", &["kv0", "weights"]));
        log.record(dummy_recipe("kv2", &["kv1", "weights"]));
        log
    }

    #[test]
    fn losing_everything_replays_everything() {
        let log = chain_log();
        let replay = log.replay_set(&["weights".into(), "kv2".into()], &BTreeSet::new());
        assert_eq!(replay, vec![0, 1, 2, 3]);
    }

    #[test]
    fn surviving_inputs_cut_the_replay() {
        let log = chain_log();
        // Only kv2 lost; weights and kv1 survive (e.g. on another device).
        let surviving: BTreeSet<String> = ["weights".to_string(), "kv1".to_string()]
            .into_iter()
            .collect();
        let replay = log.replay_set(&["kv2".into()], &surviving);
        assert_eq!(replay, vec![3], "only the final append replays");
        assert!(log.replay_savings(&replay) > 0.5);
    }

    #[test]
    fn chain_loss_replays_in_order() {
        let log = chain_log();
        let surviving: BTreeSet<String> = ["weights".to_string()].into_iter().collect();
        let replay = log.replay_set(&["kv2".into()], &surviving);
        // kv2 needs kv1 needs kv0; weights survives.
        assert_eq!(replay, vec![1, 2, 3]);
    }

    #[test]
    fn superseding_definitions_use_latest_before_consumer() {
        let mut log = LineageLog::new();
        log.record(dummy_recipe("kv", &[]));
        log.record(dummy_recipe("kv", &["kv"])); // append step: kv@1 ← kv@0
        let replay = log.replay_set(&["kv".into()], &BTreeSet::new());
        assert_eq!(replay, vec![0, 1]);
    }

    #[test]
    fn empty_log_replays_nothing() {
        let log = LineageLog::new();
        assert!(log.replay_set(&["x".into()], &BTreeSet::new()).is_empty());
        assert_eq!(log.replay_savings(&[]), 0.0);
    }
}
