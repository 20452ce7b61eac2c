//! The diagnostics framework: lint codes, severities, anchors, and the
//! deterministic [`Report`] the passes accumulate into.

use genie_cluster::DevId;
use genie_srg::json::Value;
use genie_srg::{json_object, EdgeId, NodeId};
use genie_telemetry::Counter;
use std::fmt;
use std::sync::OnceLock;

/// Every lint the engine knows, numbered like compiler diagnostics:
/// `GA0xx` are SRG-level (checkable on a captured graph alone), `GA1xx`
/// are plan-level (need placements, transfers, and cluster state),
/// `GA2xx` are schedule-timeline safety passes (liveness, transfer
/// ordering, deadlock), and `GA3xx` are precision/criticality
/// consistency passes (error-interval propagation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// GA001 — an op's input tensor shapes are mutually inconsistent
    /// (matmul inner dims, concat axes, elementwise operands, KV dims).
    ShapeMismatch,
    /// GA002 — an op mixes element types across its data inputs.
    DtypeMismatch,
    /// GA003 — a phase-incoherent dependency: an earlier pipeline phase
    /// consumes a later one (prefill depending on decode, forward on
    /// backward).
    PhaseIncoherence,
    /// GA004 — a `StatefulKvCache` value flows into a consumer that is
    /// neither a KV append nor an attention op, breaking the stateful
    /// co-location contract.
    KvResidencyViolation,
    /// GA005 — a compute-heavy op (matmul / attention / conv) carries a
    /// zero-FLOP cost hint, blinding every cost-model decision downstream.
    ZeroFlopCompute,
    /// GA006 — a cost hint disagrees with what the tensor shapes imply by
    /// more than 4×.
    CostHintInconsistent,
    /// GA007 — an edge's rate annotation claims the consumer reads more
    /// bytes than the producer emits.
    RateInconsistent,
    /// GA008 — a compute node reached the scheduler with no phase and no
    /// module path: semantics were lost in translation.
    AnnotationGap,
    /// GA101 — a plan's pinned + transient bytes exceed a device's free
    /// memory.
    DeviceOvercommit,
    /// GA102 — a transfer's endpoints disagree with the placements of the
    /// edge it claims to realize.
    TransferEndpointMismatch,
    /// GA103 — a persistent weight or embedding shard ships by value to a
    /// device instead of by resident-object handle.
    WeightReshippedByValue,
    /// GA104 — a stateful KV cache crosses a location boundary, forcing a
    /// per-step re-ship of growing state.
    KvCacheNotColocated,
    /// GA201 — a transfer is queued behind another transfer on the same
    /// channel whose consumer runs later, so FIFO delivery lands it after
    /// its own consumer's start.
    TransferOrderHazard,
    /// GA202 — the same (tensor, device) buffer is pinned more than once,
    /// double-charging device memory for one logical object.
    DoublePinnedBuffer,
    /// GA203 — the waits-for graph of node steps and channel-FIFO
    /// transfers contains a cycle: the plan deadlocks before any dynamic
    /// scheduler can help.
    TransferDependencyCycle,
    /// GA204 — the per-device participation order of blocking collectives
    /// contains a waits-for cycle across shards: two devices each block in
    /// a collective the other has not reached yet.
    CollectiveScheduleCycle,
    /// GA301 — a criticality/tolerance annotation demands a tighter
    /// numerical error bound than the scheduled kernel tier / device
    /// class statically delivers.
    CriticalityToleranceExceeded,
    /// GA302 — a node downcasts to a lossier element type on a path that
    /// feeds a `Criticality::Critical` edge.
    PrecisionLossyCriticalPath,
    /// GA303 — an op with no static error model (fused/custom kernels)
    /// makes the error interval unbounded from that point on.
    ErrorIntervalUnknown,
}

impl LintCode {
    /// Every code, in report order.
    pub const ALL: [LintCode; 19] = [
        LintCode::ShapeMismatch,
        LintCode::DtypeMismatch,
        LintCode::PhaseIncoherence,
        LintCode::KvResidencyViolation,
        LintCode::ZeroFlopCompute,
        LintCode::CostHintInconsistent,
        LintCode::RateInconsistent,
        LintCode::AnnotationGap,
        LintCode::DeviceOvercommit,
        LintCode::TransferEndpointMismatch,
        LintCode::WeightReshippedByValue,
        LintCode::KvCacheNotColocated,
        LintCode::TransferOrderHazard,
        LintCode::DoublePinnedBuffer,
        LintCode::TransferDependencyCycle,
        LintCode::CollectiveScheduleCycle,
        LintCode::CriticalityToleranceExceeded,
        LintCode::PrecisionLossyCriticalPath,
        LintCode::ErrorIntervalUnknown,
    ];

    /// The stable `GAnnn` identifier.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::ShapeMismatch => "GA001",
            LintCode::DtypeMismatch => "GA002",
            LintCode::PhaseIncoherence => "GA003",
            LintCode::KvResidencyViolation => "GA004",
            LintCode::ZeroFlopCompute => "GA005",
            LintCode::CostHintInconsistent => "GA006",
            LintCode::RateInconsistent => "GA007",
            LintCode::AnnotationGap => "GA008",
            LintCode::DeviceOvercommit => "GA101",
            LintCode::TransferEndpointMismatch => "GA102",
            LintCode::WeightReshippedByValue => "GA103",
            LintCode::KvCacheNotColocated => "GA104",
            LintCode::TransferOrderHazard => "GA201",
            LintCode::DoublePinnedBuffer => "GA202",
            LintCode::TransferDependencyCycle => "GA203",
            LintCode::CollectiveScheduleCycle => "GA204",
            LintCode::CriticalityToleranceExceeded => "GA301",
            LintCode::PrecisionLossyCriticalPath => "GA302",
            LintCode::ErrorIntervalUnknown => "GA303",
        }
    }

    /// The severity a fresh [`LintConfig`] assigns this code.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::ShapeMismatch
            | LintCode::DtypeMismatch
            | LintCode::PhaseIncoherence
            | LintCode::KvResidencyViolation
            | LintCode::ZeroFlopCompute
            | LintCode::DeviceOvercommit
            | LintCode::TransferEndpointMismatch
            | LintCode::TransferOrderHazard
            | LintCode::DoublePinnedBuffer
            | LintCode::TransferDependencyCycle
            | LintCode::CollectiveScheduleCycle
            | LintCode::CriticalityToleranceExceeded => Severity::Deny,
            LintCode::CostHintInconsistent
            | LintCode::RateInconsistent
            | LintCode::WeightReshippedByValue
            | LintCode::KvCacheNotColocated
            | LintCode::PrecisionLossyCriticalPath => Severity::Warn,
            LintCode::AnnotationGap | LintCode::ErrorIntervalUnknown => Severity::Info,
        }
    }

    /// Whether the code needs a plan (placements, transfers, pins) rather
    /// than a raw SRG. `GA3xx` codes are graph-checkable — a plan only
    /// sharpens them with device classes — so they report `false`.
    pub fn is_plan_level(self) -> bool {
        matches!(self.family(), LintFamily::Plan | LintFamily::Schedule)
    }

    /// The pass family (`GA0xx` / `GA1xx` / `GA2xx` / `GA3xx`) this code
    /// belongs to, the granularity at which [`LintConfig`] can switch
    /// whole pass families off.
    pub fn family(self) -> LintFamily {
        match self {
            LintCode::ShapeMismatch
            | LintCode::DtypeMismatch
            | LintCode::PhaseIncoherence
            | LintCode::KvResidencyViolation
            | LintCode::ZeroFlopCompute
            | LintCode::CostHintInconsistent
            | LintCode::RateInconsistent
            | LintCode::AnnotationGap => LintFamily::Graph,
            LintCode::DeviceOvercommit
            | LintCode::TransferEndpointMismatch
            | LintCode::WeightReshippedByValue
            | LintCode::KvCacheNotColocated => LintFamily::Plan,
            LintCode::TransferOrderHazard
            | LintCode::DoublePinnedBuffer
            | LintCode::TransferDependencyCycle
            | LintCode::CollectiveScheduleCycle => LintFamily::Schedule,
            LintCode::CriticalityToleranceExceeded
            | LintCode::PrecisionLossyCriticalPath
            | LintCode::ErrorIntervalUnknown => LintFamily::Precision,
        }
    }

    /// One-line statement of the invariant this code protects.
    pub fn invariant(self) -> &'static str {
        match self {
            LintCode::ShapeMismatch => "every op's input shapes must compose",
            LintCode::DtypeMismatch => "arithmetic ops must not mix element types",
            LintCode::PhaseIncoherence => "earlier phases never depend on later ones",
            LintCode::KvResidencyViolation => {
                "KV-cache state flows only through kv_append and attention"
            }
            LintCode::ZeroFlopCompute => "compute-heavy ops must carry FLOP estimates",
            LintCode::CostHintInconsistent => "cost hints must agree with tensor shapes",
            LintCode::RateInconsistent => "a consumer cannot read more bytes than produced",
            LintCode::AnnotationGap => "compute nodes should carry phase or module context",
            LintCode::DeviceOvercommit => "per-device demand must fit free device memory",
            LintCode::TransferEndpointMismatch => "transfers must match node placements",
            LintCode::WeightReshippedByValue => "persistent weights ship once, then by handle",
            LintCode::KvCacheNotColocated => "decode-state KV caches stay with their consumer",
            LintCode::TransferOrderHazard => "a transfer must land before its consumer starts",
            LintCode::DoublePinnedBuffer => "one logical buffer pins at most once per device",
            LintCode::TransferDependencyCycle => "the waits-for graph must stay acyclic",
            LintCode::CollectiveScheduleCycle => {
                "every device must reach the plan's collectives in one consistent order"
            }
            LintCode::CriticalityToleranceExceeded => {
                "scheduled precision must meet the demanded tolerance"
            }
            LintCode::PrecisionLossyCriticalPath => {
                "critical-path data should not silently downcast"
            }
            LintCode::ErrorIntervalUnknown => "every op should have a static error model",
        }
    }
}

/// A family of lint passes: one code range, run by one pass module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintFamily {
    /// `GA0xx` — SRG-level semantic checks (capture-time gate).
    Graph,
    /// `GA1xx` — plan-level placement/transfer checks.
    Plan,
    /// `GA2xx` — schedule-timeline safety (liveness watermark, transfer
    /// ordering, static deadlock).
    Schedule,
    /// `GA3xx` — precision/criticality consistency (error intervals).
    Precision,
}

impl LintFamily {
    /// Every family, in code order.
    pub const ALL: [LintFamily; 4] = [
        LintFamily::Graph,
        LintFamily::Plan,
        LintFamily::Schedule,
        LintFamily::Precision,
    ];

    /// The stable range label used in reports.
    pub fn key(self) -> &'static str {
        match self {
            LintFamily::Graph => "GA0xx",
            LintFamily::Plan => "GA1xx",
            LintFamily::Schedule => "GA2xx",
            LintFamily::Precision => "GA3xx",
        }
    }
}

impl fmt::Display for LintFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How a diagnostic is treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Severity {
    /// Informational; never blocks anything.
    Info,
    /// Suspicious but not necessarily wrong.
    #[default]
    Warn,
    /// A semantic contract violation; gates fail on these.
    Deny,
}

impl Severity {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a diagnostic points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Anchor {
    /// The graph as a whole.
    Graph,
    /// A node.
    Node(NodeId),
    /// An edge.
    Edge(EdgeId),
    /// A device.
    Device(DevId),
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anchor::Graph => write!(f, "graph"),
            Anchor::Node(n) => write!(f, "{n}"),
            Anchor::Edge(e) => write!(f, "{e}"),
            Anchor::Device(d) => write!(f, "{d}"),
        }
    }
}

/// One finding: a code, its effective severity, where, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Severity after config overrides.
    pub severity: Severity,
    /// What it points at.
    pub anchor: Anchor,
    /// Human-readable explanation with concrete values.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.code, self.severity, self.anchor, self.message
        )
    }
}

/// Per-graph lint policy, built in code: codes demoted to warnings and
/// codes suppressed outright.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintConfig {
    warned: std::collections::BTreeSet<LintCode>,
    allowed: std::collections::BTreeSet<LintCode>,
}

impl LintConfig {
    /// The default policy: every code at its built-in severity.
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Suppress a code entirely (diagnostics are dropped, like
    /// `#[allow(...)]`).
    pub fn allow(mut self, code: LintCode) -> Self {
        self.allowed.insert(code);
        self
    }

    /// Demote a code to [`Severity::Warn`].
    pub fn warn(mut self, code: LintCode) -> Self {
        self.warned.insert(code);
        self
    }

    /// Whether a code is suppressed.
    pub fn is_allowed(&self, code: LintCode) -> bool {
        self.allowed.contains(&code)
    }

    /// The effective severity of a code under this config.
    pub fn severity(&self, code: LintCode) -> Severity {
        if self.warned.contains(&code) {
            Severity::Warn
        } else {
            code.default_severity()
        }
    }
}

/// The outcome of a lint run over one graph or plan: diagnostics in a
/// deterministic order plus enough context to render them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Name of the graph or plan that was linted.
    pub subject: String,
    /// All findings, sorted by (severity desc, code, anchor, message).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        Report {
            subject: subject.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Record a finding unless the config suppresses its code; the
    /// config's severity override is applied here.
    pub fn push(&mut self, cfg: &LintConfig, code: LintCode, anchor: Anchor, message: String) {
        if cfg.is_allowed(code) {
            return;
        }
        self.diagnostics.push(Diagnostic {
            code,
            severity: cfg.severity(code),
            anchor,
            message,
        });
    }

    /// [`push`](Self::push) with the effective severity capped at
    /// `cap`. Used by fallback passes that must never gate (e.g. the
    /// pessimistic GA101 sum when liveness is unavailable).
    pub fn push_capped(
        &mut self,
        cfg: &LintConfig,
        code: LintCode,
        cap: Severity,
        anchor: Anchor,
        message: String,
    ) {
        if cfg.is_allowed(code) {
            return;
        }
        self.diagnostics.push(Diagnostic {
            code,
            severity: cfg.severity(code).min(cap),
            anchor,
            message,
        });
    }

    /// Sort into the canonical order. Idempotent; passes call this once
    /// after accumulating.
    pub fn finish(mut self) -> Self {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then(a.anchor.cmp(&b.anchor))
                .then(a.message.cmp(&b.message))
        });
        self
    }

    /// Append another report's diagnostics (re-sorting canonically).
    pub fn merge(mut self, other: Report) -> Self {
        self.diagnostics.extend(other.diagnostics);
        self.finish()
    }

    /// No findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any deny-level finding is present (the gate condition).
    pub fn has_deny(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Findings with a given code.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Render the human-readable multi-line form.
    pub fn render(&self) -> String {
        let mut out = format!(
            "lint report for {}: {} deny, {} warn, {} info\n",
            self.subject,
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            out.push_str("  ");
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// The machine-readable form written by `lint_report`: codes as
    /// their `GAnnn` strings, severities and anchor kinds by variant name
    /// (`"Deny"`, `"Graph"`, `{"Node":3}`).
    pub fn to_json(&self) -> Value {
        let diagnostic = |d: &Diagnostic| {
            let anchor = |kind: &str, id: u32| Value::Object(vec![(kind.into(), id.into())]);
            json_object! {
                "code": d.code.code(),
                "severity": format!("{:?}", d.severity),
                "anchor": match d.anchor {
                    Anchor::Graph => "Graph".into(),
                    Anchor::Node(n) => anchor("Node", n.0),
                    Anchor::Edge(e) => anchor("Edge", e.0),
                    Anchor::Device(d) => anchor("Device", d.0),
                },
                "message": d.message.as_str(),
            }
        };
        json_object! {
            "subject": self.subject.as_str(),
            "diagnostics": self.diagnostics.iter().map(diagnostic).collect::<Vec<_>>(),
        }
    }

    /// Bump the `genie_lint_findings_total{code}` counter once per
    /// finding, so fleet dashboards see which lints fire how often.
    /// Returns `self` for call chaining from pass runners.
    ///
    /// Every capture's lint gate comes here, so each code's handle is
    /// resolved once per process, the first time the code fires (a series
    /// still appears exactly when it first moves): a registry lookup
    /// builds its key and searches under the registry mutex, a held
    /// handle is one atomic add.
    pub fn record_metrics(self) -> Self {
        static FINDINGS: [OnceLock<Counter>; LintCode::ALL.len()] =
            [const { OnceLock::new() }; LintCode::ALL.len()];
        for d in &self.diagnostics {
            FINDINGS[d.code as usize]
                .get_or_init(|| {
                    let metrics = &genie_telemetry::global().metrics;
                    metrics.counter("genie_lint_findings_total", &[("code", d.code.code())])
                })
                .inc();
        }
        self
    }
}

/// Run one lint pass under a timing span (`lint.<pass>` in the `lint`
/// category), so per-pass cost shows up in trace exports. The span
/// copies no string: a clean graph's gate allocates nothing for it.
pub(crate) fn timed_pass(name: &'static str, f: impl FnOnce()) {
    let _span = genie_telemetry::global().collector.span(name, "lint");
    f();
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, code) in LintCode::ALL.into_iter().enumerate() {
            assert!(seen.insert(code.code()), "duplicate {code}");
            assert!(!code.invariant().is_empty());
            // `record_metrics` indexes its handles by discriminant.
            assert_eq!(code as usize, i, "{code} out of declaration order");
        }
    }

    #[test]
    fn severity_ordering_gates_on_deny() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
    }

    #[test]
    fn config_overrides_and_allows() {
        let cfg = LintConfig::new()
            .warn(LintCode::DeviceOvercommit)
            .allow(LintCode::AnnotationGap);
        assert_eq!(cfg.severity(LintCode::DeviceOvercommit), Severity::Warn);
        assert_eq!(cfg.severity(LintCode::KvCacheNotColocated), Severity::Warn);
        assert_eq!(cfg.severity(LintCode::ShapeMismatch), Severity::Deny);
        assert!(cfg.is_allowed(LintCode::AnnotationGap));

        let mut r = Report::new("g");
        r.push(
            &cfg,
            LintCode::AnnotationGap,
            Anchor::Graph,
            "hidden".into(),
        );
        assert!(r.is_empty(), "allowed codes are dropped");
        r.push(
            &cfg,
            LintCode::DeviceOvercommit,
            Anchor::Device(DevId(0)),
            "x".into(),
        );
        assert_eq!(r.diagnostics[0].severity, Severity::Warn);
    }

    #[test]
    fn report_orders_deny_first_and_renders() {
        let cfg = LintConfig::new();
        let mut r = Report::new("g");
        r.push(
            &cfg,
            LintCode::RateInconsistent,
            Anchor::Edge(EdgeId::new(3)),
            "rate".into(),
        );
        r.push(
            &cfg,
            LintCode::ShapeMismatch,
            Anchor::Node(NodeId::new(1)),
            "shape".into(),
        );
        let r = r.finish();
        assert_eq!(r.diagnostics[0].code, LintCode::ShapeMismatch);
        assert!(r.has_deny());
        assert_eq!(r.count(Severity::Warn), 1);
        let text = r.render();
        assert!(text.contains("GA001[deny] n1: shape"), "{text}");
        assert!(text.contains("1 deny, 1 warn"), "{text}");
    }

    #[test]
    fn families_partition_the_namespace() {
        for code in LintCode::ALL {
            let fam = code.family();
            assert!(
                code.code().starts_with(&fam.key()[..3]),
                "{code} sits in family {fam}"
            );
        }
        assert!(LintCode::TransferOrderHazard.is_plan_level());
        assert!(
            !LintCode::CriticalityToleranceExceeded.is_plan_level(),
            "GA3xx is graph-checkable"
        );
    }

    #[test]
    fn push_capped_never_exceeds_cap() {
        let cfg = LintConfig::new();
        let mut r = Report::new("g");
        r.push_capped(
            &cfg,
            LintCode::DeviceOvercommit,
            Severity::Warn,
            Anchor::Device(DevId(0)),
            "fallback estimate".into(),
        );
        assert_eq!(r.diagnostics[0].severity, Severity::Warn);
        assert!(!r.has_deny());
    }

    #[test]
    fn report_json_spells_codes_severities_and_anchors() {
        let cfg = LintConfig::new();
        let mut r = Report::new("g");
        r.push(
            &cfg,
            LintCode::DeviceOvercommit,
            Anchor::Device(DevId(2)),
            "needs 10 B, free 5 B".into(),
        );
        r.push(&cfg, LintCode::AnnotationGap, Anchor::Graph, "gap".into());
        assert_eq!(
            r.to_json().to_string(),
            r#"{"subject":"g","diagnostics":[{"code":"GA101","severity":"Deny","anchor":{"Device":2},"message":"needs 10 B, free 5 B"},{"code":"GA008","severity":"Info","anchor":"Graph","message":"gap"}]}"#
        );
    }
}
