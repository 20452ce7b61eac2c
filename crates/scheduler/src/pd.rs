//! Prefill/decode disaggregation (§2.2).
//!
//! The paper's indictment of data-aware-but-phase-blind scheduling is
//! that "it would still entirely miss the potential benefits of PD
//! disaggregation": serving LLM requests with prefill and decode on
//! *separate* device pools (Splitwise/DistServe). Compute-bound prefill
//! bursts no longer preempt latency-sensitive decode steps; the price is
//! a one-time KV-cache handoff per request. Only a scheduler that sees
//! phase annotations can weigh that trade — this module is that weighing.

/// The per-request phase profile the SRG exposes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PdProfile {
    /// Prefill kernel seconds per request (compute-bound, preemptive).
    pub prefill_s: f64,
    /// Decode kernel seconds per generated token (memory-bound).
    pub decode_step_s: f64,
    /// Tokens generated per request.
    pub decode_tokens: usize,
    /// KV-cache bytes produced by prefill that a disaggregated decode
    /// pool must receive (prompt KV handoff).
    pub kv_handoff_bytes: f64,
    /// Interconnect bandwidth between pools, bytes/s.
    pub interconnect: f64,
}

impl PdProfile {
    /// The paper's GPT-J workload on the calibrated A100 numbers:
    /// 0.21 s prefill, 30.6 ms/token, 72-token prompt KV ≈ 33 MB (f16),
    /// pools linked at 25 GbE.
    pub fn gptj_paper() -> Self {
        PdProfile {
            prefill_s: 0.21,
            decode_step_s: 0.0306,
            decode_tokens: 50,
            kv_handoff_bytes: 72.0 * 458_752.0,
            interconnect: 25e9 / 8.0,
        }
    }

    /// Decode kernel seconds per request.
    pub fn decode_s(&self) -> f64 {
        self.decode_step_s * self.decode_tokens as f64
    }

    /// KV handoff seconds per request.
    pub fn handoff_s(&self) -> f64 {
        self.kv_handoff_bytes / self.interconnect
    }
}

/// Outcome of a pool-sizing evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PdPlan {
    /// Devices serving prefill (0 = colocated).
    pub prefill_devices: usize,
    /// Devices serving decode (or all devices when colocated).
    pub decode_devices: usize,
    /// Sustainable requests/second.
    pub throughput_rps: f64,
    /// Mean added latency a decode *token* suffers from prefill
    /// interference (zero when disaggregated).
    pub decode_interference_s: f64,
}

/// Colocated serving: every device interleaves prefill and decode. The
/// sustainable rate is bounded by total work; each decode token queues
/// behind, on average, the prefill work in flight on its device — the
/// head-of-line blocking PD disaggregation removes.
pub fn colocated(profile: &PdProfile, devices: usize, rate_rps: f64) -> PdPlan {
    let per_request = profile.prefill_s + profile.decode_s();
    let capacity = devices as f64 / per_request;
    let utilization = (rate_rps / capacity).min(1.0);
    // A token arriving while its device runs someone's prefill waits, on
    // average, half a prefill, weighted by how often prefill occupies the
    // device (M/D/1-flavored first-order model).
    let prefill_share = profile.prefill_s / per_request;
    let interference =
        0.5 * profile.prefill_s * prefill_share * utilization / (1.0 - utilization).max(1e-6);
    PdPlan {
        prefill_devices: 0,
        decode_devices: devices,
        throughput_rps: capacity,
        decode_interference_s: interference,
    }
}

/// Disaggregated serving with `p` prefill and `d` decode devices.
/// Throughput is the min of the two pools; decode runs interference-free;
/// each request pays the KV handoff (overlapped with decode of others, so
/// it gates throughput only via the decode pool's occupancy).
pub fn disaggregated(profile: &PdProfile, p: usize, d: usize, _rate_rps: f64) -> PdPlan {
    let prefill_capacity = p as f64 / profile.prefill_s;
    let decode_capacity = d as f64 / (profile.decode_s() + profile.handoff_s());
    PdPlan {
        prefill_devices: p,
        decode_devices: d,
        throughput_rps: prefill_capacity.min(decode_capacity),
        decode_interference_s: 0.0,
    }
}

/// Search pool splits of `devices` for the best disaggregated throughput;
/// returns the winner and the colocated baseline.
pub fn best_split(profile: &PdProfile, devices: usize, rate_rps: f64) -> (PdPlan, PdPlan) {
    let baseline = colocated(profile, devices, rate_rps);
    let mut best = disaggregated(profile, 1, devices.saturating_sub(1).max(1), rate_rps);
    for p in 1..devices {
        let plan = disaggregated(profile, p, devices - p, rate_rps);
        if plan.throughput_rps > best.throughput_rps {
            best = plan;
        }
    }
    (best, baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gptj_profile_sanity() {
        let p = PdProfile::gptj_paper();
        assert!((p.decode_s() - 1.53).abs() < 0.01);
        assert!(p.handoff_s() < 0.02, "33 MB over 25 GbE ≈ 10 ms");
    }

    #[test]
    fn disaggregation_removes_interference() {
        let p = PdProfile::gptj_paper();
        let colo = colocated(&p, 8, 3.0);
        let (split, _) = best_split(&p, 8, 3.0);
        assert!(colo.decode_interference_s > 0.0);
        assert_eq!(split.decode_interference_s, 0.0);
    }

    #[test]
    fn optimal_split_matches_work_ratio() {
        // Prefill is ~12% of request work; the best split should give it
        // roughly that share of devices.
        let p = PdProfile::gptj_paper();
        let (split, _) = best_split(&p, 16, 5.0);
        assert!(
            (1..=4).contains(&split.prefill_devices),
            "prefill pool {}",
            split.prefill_devices
        );
        assert_eq!(split.prefill_devices + split.decode_devices, 16);
    }

    #[test]
    fn disaggregated_throughput_is_competitive() {
        // PD splits approach colocated throughput (within the handoff
        // tax) while eliminating interference entirely.
        let p = PdProfile::gptj_paper();
        let (split, colo) = best_split(&p, 16, 5.0);
        assert!(split.throughput_rps > 0.85 * colo.throughput_rps);
    }

    #[test]
    fn expensive_handoff_erodes_pd() {
        // Over a 1 Gbps interconnect the 33 MB handoff costs ~0.26 s per
        // request — PD throughput degrades markedly.
        let cheap = PdProfile::gptj_paper();
        let dear = PdProfile {
            interconnect: 1e9 / 8.0,
            ..cheap
        };
        let (s_cheap, _) = best_split(&cheap, 8, 3.0);
        let (s_dear, _) = best_split(&dear, 8, 3.0);
        assert!(s_dear.throughput_rps < s_cheap.throughput_rps);
    }

    #[test]
    fn interference_grows_with_load() {
        let p = PdProfile::gptj_paper();
        let lo = colocated(&p, 8, 1.0);
        let hi = colocated(&p, 8, 4.4); // near capacity (~4.6 rps)
        assert!(hi.decode_interference_s > lo.decode_interference_s * 2.0);
    }
}
