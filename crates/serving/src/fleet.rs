//! Fleet admission glue: binding a serving tenant through the global
//! scheduler before its loop starts.
//!
//! The serving loop itself is fleet-agnostic (lanes + capacities); this
//! module asks [`GlobalScheduler`] which devices a tenant may occupy and
//! converts the answer into lane count and per-lane KV budget (device
//! memory minus resident weights). The scheduler refuses a tenant on the
//! plan's deny-level findings (GA101: a device overcommitted); a refused
//! tenant sheds its trace, [`ShedReason::AdmissionRejected`](crate::ShedReason::AdmissionRejected).
//!
//! Before the scheduler ever sees the tenant, its spec graph runs through
//! the full `genie-analysis` SRG pass stack (shape/phase/residency GA0xx
//! plus the GA3xx precision family): a graph with deny-level findings is
//! refused outright rather than scheduled onto the fleet.

use genie_analysis::{run_srg_passes, LintConfig};
use genie_cluster::{DevId, Topology};
use genie_models::TransformerConfig;
use genie_netsim::Nanos;
use genie_scheduler::global::tenant::TenantRequest;
use genie_scheduler::global::{FleetEvent, GlobalScheduler};
use genie_srg::shard::ShardSpec;

/// The fleet's answer for one serving tenant.
#[derive(Clone, Debug)]
pub struct FleetBinding {
    /// Whether admission control accepted the tenant.
    pub admitted: bool,
    /// Devices assigned (empty when refused).
    pub devices: Vec<DevId>,
    /// Serving lanes — one per assigned device.
    pub lanes: u32,
    /// Per-lane KV byte budget: the tightest assigned device's memory
    /// after the model's weights are resident.
    pub kv_capacity_bytes: u64,
}

/// Admit `tenant` through the global scheduler at virtual time `now` and
/// derive the serving-loop geometry from its device assignment. The
/// assigned devices are grouped into shard sets of `spec.shards()` —
/// one serving lane per complete group ([`ShardSpec::single`]: one lane
/// per device, each holding the whole model). Each device in a group
/// holds `1/shards` of the weights, so the per-lane KV budget is
/// derived from that resident footprint.
///
/// A tenant whose spec is invalid or whose graph carries deny-level
/// lint findings never reaches the scheduler; one the scheduler
/// rejects, or whose assignment cannot fill one complete group with KV
/// headroom, departs it again, so a refusal leaves nothing charged to
/// the fleet and nothing waiting to be planned later.
pub fn bind_tenant(
    sched: &mut GlobalScheduler,
    topo: &Topology,
    model: &TransformerConfig,
    tenant: TenantRequest,
    spec: ShardSpec,
    now: Nanos,
) -> FleetBinding {
    let refused = FleetBinding {
        admitted: false,
        devices: Vec::new(),
        lanes: 0,
        kv_capacity_bytes: 0,
    };
    let id = tenant.id;
    if spec.validate().is_err() || run_srg_passes(&tenant.srg, &LintConfig::new()).has_deny() {
        return refused;
    }
    let plan = sched.step(now, vec![FleetEvent::Admit(tenant)]);
    let assigned = match plan.assignments.get(&id) {
        Some(devices) if !plan.rejected.contains_key(&id) => devices.as_slice(),
        _ => &[],
    };
    // Keep only complete shard groups; each holds 1/shards of the
    // weights per device.
    let shards = spec.shards() as usize;
    let groups = assigned.len() / shards;
    let devices = assigned[..groups * shards].to_vec();
    let per_shard_weights = model.weight_bytes() / shards as u64;
    let per_lane = devices
        .iter()
        .map(|d| {
            topo.device(*d)
                .spec
                .mem_capacity
                .saturating_sub(per_shard_weights)
        })
        .min()
        .unwrap_or(0);
    if per_lane == 0 {
        sched.step(now, vec![FleetEvent::Depart(id)]);
        return refused;
    }
    FleetBinding {
        admitted: true,
        lanes: groups as u32,
        devices,
        kv_capacity_bytes: per_lane,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ServingReport;
    use crate::request::{Outcome, ServingRequest, ShedReason};
    use genie_models::Workload;
    use genie_scheduler::CostModel;

    fn llm(id: u64) -> TenantRequest {
        TenantRequest {
            id,
            srg: Workload::LlmServing.spec_graph(),
        }
    }

    #[test]
    fn llm_tenant_binds_with_kv_headroom() {
        let topo = Topology::heterogeneous_fleet(2, 25e9);
        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
        let cfg = TransformerConfig::gptj_6b();
        let single = ShardSpec::single();
        let binding = bind_tenant(&mut sched, &topo, &cfg, llm(1), single, Nanos::ZERO);
        assert!(binding.admitted, "roomy fleet must admit one LLM tenant");
        assert!(binding.lanes >= 1);
        assert_eq!(binding.lanes as usize, binding.devices.len());
        // Every fleet device keeps >10 GiB of KV headroom beyond the
        // ~12.1 GB of GPT-J weights (the smallest part is the 24 GiB L4).
        assert!(
            binding.kv_capacity_bytes > 10 << 30,
            "kv budget {}",
            binding.kv_capacity_bytes
        );
    }

    #[test]
    fn sharded_tenant_groups_devices_and_gains_kv_headroom() {
        let topo = Topology::heterogeneous_fleet(2, 25e9);
        let cfg = TransformerConfig::gptj_6b();
        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
        let flat = bind_tenant(
            &mut sched,
            &topo,
            &cfg,
            llm(1),
            ShardSpec::single(),
            Nanos::ZERO,
        );
        assert!(flat.admitted);

        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
        let spec = ShardSpec::tensor(2);
        let sharded = bind_tenant(&mut sched, &topo, &cfg, llm(1), spec, Nanos::ZERO);
        if sharded.admitted {
            // Lanes are whole shard groups, and each device holds half
            // the weights, so the per-lane KV budget can only improve.
            assert_eq!(sharded.devices.len() as u32, sharded.lanes * spec.shards());
            assert!(sharded.kv_capacity_bytes >= flat.kv_capacity_bytes);
        } else {
            // Refusal is only legitimate when no complete group fits.
            assert!((flat.devices.len() as u32) < spec.shards());
        }

        // A plan wider than the whole fleet can never bind.
        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
        let wide = bind_tenant(
            &mut sched,
            &topo,
            &cfg,
            llm(2),
            ShardSpec::new(64, 64),
            Nanos::ZERO,
        );
        assert!(!wide.admitted);
        assert!(wide.devices.is_empty());
    }

    #[test]
    fn a_refusal_leaves_nothing_charged_to_the_fleet() {
        let topo = Topology::heterogeneous_fleet(2, 25e9);
        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
        let cfg = TransformerConfig::gptj_6b();
        // Thirty plans wider than the fleet: each is planned by the
        // scheduler (weights pinned, kernels queued) and then refused
        // for want of one complete shard group.
        for id in 2..=31 {
            let spec = ShardSpec::new(64, 64);
            let wide = bind_tenant(&mut sched, &topo, &cfg, llm(id), spec, Nanos::ZERO);
            assert!(!wide.admitted && wide.devices.is_empty());
        }
        // The fleet is as empty as `llm_tenant_binds_with_kv_headroom`
        // found it.
        let single = ShardSpec::single();
        let binding = bind_tenant(&mut sched, &topo, &cfg, llm(1), single, Nanos::ZERO);
        assert!(binding.admitted, "refused tenants still hold the fleet");
        assert!(binding.lanes >= 1);
    }

    #[test]
    fn a_tenant_the_scheduler_rejected_is_not_planned_behind_its_callers_back() {
        // 2 x 48 GB of bandwidth-optimized memory cannot hold five
        // GPT-J tenants: the scheduler rejects the overflow.
        let topo = Topology::heterogeneous_fleet(1, 25e9);
        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
        let cfg = TransformerConfig::gptj_6b();
        let admitted: Vec<bool> = (1..=5)
            .map(|id| {
                bind_tenant(
                    &mut sched,
                    &topo,
                    &cfg,
                    llm(id),
                    ShardSpec::single(),
                    Nanos::ZERO,
                )
            })
            .map(|binding| binding.admitted)
            .collect();
        assert!(admitted[0] && admitted.contains(&false), "{admitted:?}");
        // Their callers shed the refused tenants' traces; room freed
        // later must not admit them with nobody left to serve them.
        let later = sched.step(Nanos::ZERO, vec![FleetEvent::Depart(1)]);
        assert!(later.plans.is_empty() && later.rejected.is_empty());
    }

    #[test]
    fn deny_level_lint_findings_refuse_admission() {
        use genie_srg::{ElemType, Node, NodeId, OpKind, Srg, TensorMeta};
        // Shape-incompatible matmul: GA001 denies at the static gate, so
        // the tenant must be refused before the scheduler is consulted.
        let mut g = Srg::new("bad-tenant");
        let a = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "a"));
        let b = g.add_node(Node::new(NodeId::new(0), OpKind::Input, "b"));
        let mm = g.add_node(Node::new(NodeId::new(0), OpKind::MatMul, "mm"));
        g.connect(a, mm, TensorMeta::new([2, 3], ElemType::F32));
        g.connect(b, mm, TensorMeta::new([5, 7], ElemType::F32));

        let topo = Topology::heterogeneous_fleet(2, 25e9);
        let mut sched = GlobalScheduler::new(topo.clone(), CostModel::paper_stack());
        let cfg = TransformerConfig::gptj_6b();
        let tenant = TenantRequest { id: 2, srg: g };
        let binding = bind_tenant(
            &mut sched,
            &topo,
            &cfg,
            tenant,
            ShardSpec::single(),
            Nanos::ZERO,
        );
        assert!(!binding.admitted, "deny-level graph must be refused");
        assert!(binding.devices.is_empty());
        assert_eq!(binding.lanes, 0);
    }

    #[test]
    fn refused_tenant_sheds_whole_trace_with_typed_reason() {
        let reqs = vec![ServingRequest {
            id: 9,
            tenant: 1,
            arrival: Nanos::ZERO,
            prompt: vec![1],
            total_tokens: 1,
        }];
        let shed = ServingReport::all_shed(&reqs, ShedReason::AdmissionRejected);
        assert!(matches!(
            shed.outcomes[&9],
            Outcome::Shed {
                reason: ShedReason::AdmissionRejected,
                ..
            }
        ));
    }
}
