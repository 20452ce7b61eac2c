//! Cross-tenant decode batching (§3.6 "How").
//!
//! Two tenants decoding against the *same public model* can share one
//! batched kernel invocation: the weights are read from HBM once per step
//! regardless of batch size, so a memory-bound decode step serves `b`
//! requests for little more than the cost of one. Only a scheduler that
//! can see model identity (the weight fingerprint in the semantic graph)
//! can discover this; this module finds the groups, and
//! `genie_backend::batched_step_time` prices the step they share.

use crate::global::tenant::TenantRequest;
use std::collections::BTreeMap;

/// A batch group: tenants sharing a model fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchGroup {
    /// Shared model fingerprint.
    pub fingerprint: u64,
    /// Tenant ids in the group, sorted.
    pub tenants: Vec<u64>,
}

/// Group batchable tenants by model fingerprint. Singleton groups are
/// returned too (callers decide whether to run them unbatched).
pub fn group_by_model(tenants: &[TenantRequest]) -> Vec<BatchGroup> {
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for t in tenants {
        groups.entry(t.model_fingerprint).or_default().push(t.id);
    }
    groups
        .into_iter()
        .map(|(fingerprint, mut tenants)| {
            tenants.sort_unstable();
            BatchGroup {
                fingerprint,
                tenants,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::tenant::Slo;
    use genie_srg::Srg;

    fn tenant(id: u64, fp: u64) -> TenantRequest {
        TenantRequest {
            id,
            name: format!("t{id}"),
            srg: Srg::new("g"),
            slo: Slo::Interactive,
            model_fingerprint: fp,
        }
    }

    #[test]
    fn grouping_by_fingerprint() {
        let tenants = vec![tenant(1, 10), tenant(2, 20), tenant(3, 10), tenant(4, 10)];
        let groups = group_by_model(&tenants);
        assert_eq!(groups.len(), 2);
        let big = groups.iter().find(|g| g.fingerprint == 10).unwrap();
        assert_eq!(big.tenants, vec![1, 3, 4]);
    }
}
