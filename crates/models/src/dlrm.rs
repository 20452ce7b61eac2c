//! DLRM-style recommendation model: sparse embedding bags + dense MLP.

use crate::config::DlrmConfig;
use genie_frontend::capture::{CaptureCtx, LazyTensor};
use genie_srg::{ElemType, Modality, Name};
use genie_tensor::{init, Tensor};

/// A recommendation model in the DLRM mold: one pooled embedding lookup
/// per sparse table, concatenated with processed dense features, fed
/// through an interaction MLP to a click-probability score.
#[derive(Clone, Debug)]
pub struct Dlrm {
    /// Architecture.
    pub config: DlrmConfig,
    tables: Option<Vec<Tensor>>,
    dense: Option<DenseWeights>,
}

#[derive(Clone, Debug)]
struct DenseWeights {
    bottom_w: Tensor,
    top_w1: Tensor,
    top_w2: Tensor,
}

impl Dlrm {
    /// Functional model (tiny configs only).
    pub fn new_functional(config: DlrmConfig, seed: u64) -> Self {
        assert!(
            config.table_bytes() < 16 << 20,
            "functional tables must be small"
        );
        assert_eq!(config.elem, ElemType::F32);
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        };
        let tables = (0..config.tables)
            .map(|_| {
                init::uniform(
                    [config.rows_per_table, config.embedding_dim],
                    -0.1,
                    0.1,
                    next(),
                )
            })
            .collect();
        let concat_width = config.embedding_dim * (config.tables + 1);
        let dense = DenseWeights {
            bottom_w: init::uniform(
                [config.dense_features, config.embedding_dim],
                -0.3,
                0.3,
                next(),
            ),
            top_w1: init::uniform([concat_width, config.mlp_hidden], -0.2, 0.2, next()),
            top_w2: init::uniform([config.mlp_hidden, 1], -0.2, 0.2, next()),
        };
        Dlrm {
            config,
            tables: Some(tables),
            dense: Some(dense),
        }
    }

    /// Spec-only model at production scale.
    pub fn new_spec(config: DlrmConfig) -> Self {
        Dlrm {
            config,
            tables: None,
            dense: None,
        }
    }

    /// Whether this model carries real weights.
    pub fn is_functional(&self) -> bool {
        self.tables.is_some()
    }

    /// Capture one inference. `sparse_ids[t]` are the multi-hot indices
    /// for table `t`; `dense_features` is the dense input row.
    pub fn capture_inference(
        &self,
        ctx: &CaptureCtx,
        sparse_ids: &[Vec<i64>],
        dense_features: Option<Tensor>,
    ) -> LazyTensor {
        let cfg = &self.config;
        assert_eq!(sparse_ids.len(), cfg.tables, "one id list per table");
        ctx.modality_scope(Modality::Tabular, || {
            // Sparse side: pooled gathers.
            let mut pooled: Vec<LazyTensor> = Vec::with_capacity(cfg.tables);
            for (t, ids) in sparse_ids.iter().enumerate() {
                let p = ctx.scope("sparse", || {
                    ctx.scope(&Name::render(&t), || {
                        let table = ctx.parameter(
                            "table",
                            [cfg.rows_per_table, cfg.embedding_dim],
                            cfg.elem,
                            self.tables.as_ref().map(|ts| ts[t].clone()),
                        );
                        let idx = if self.is_functional() {
                            ctx.input_ids("ids", ids)
                        } else {
                            ctx.input_ids_spec("ids", ids.len())
                        };
                        table.gather_sum(&idx).reshape([1, cfg.embedding_dim])
                    })
                });
                pooled.push(p);
            }

            // Dense side: bottom MLP.
            let dense_vec = ctx.scope("dense_bottom", || {
                let x = ctx.input("dense", [1, cfg.dense_features], cfg.elem, dense_features);
                let w = ctx.parameter(
                    "bottom_w",
                    [cfg.dense_features, cfg.embedding_dim],
                    cfg.elem,
                    self.dense.as_ref().map(|d| d.bottom_w.clone()),
                );
                x.matmul(&w).relu()
            });

            // Interaction: concat everything, top MLP.
            ctx.scope("interaction", || {
                let mut cat = dense_vec;
                for p in &pooled {
                    cat = cat.concat(p, 1);
                }
                let w1 = ctx.parameter(
                    "top_w1",
                    [cfg.embedding_dim * (cfg.tables + 1), cfg.mlp_hidden],
                    cfg.elem,
                    self.dense.as_ref().map(|d| d.top_w1.clone()),
                );
                let w2 = ctx.parameter(
                    "top_w2",
                    [cfg.mlp_hidden, 1],
                    cfg.elem,
                    self.dense.as_ref().map(|d| d.top_w2.clone()),
                );
                cat.matmul(&w1).relu().matmul(&w2)
            })
        })
    }

    /// Functional inference: click score in `[0, 1]` via sigmoid.
    pub fn predict(&self, sparse_ids: &[Vec<i64>], dense_features: Tensor) -> f32 {
        assert!(self.is_functional());
        let ctx = CaptureCtx::new("dlrm.predict");
        let logit = self.capture_inference(&ctx, sparse_ids, Some(dense_features));
        logit.mark_output();
        let cap = ctx.finish();
        let out = genie_frontend::interp::run_single_output(&cap).expect("dlrm executes");
        1.0 / (1.0 + (-out.data()[0]).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_frontend::patterns;
    use genie_srg::{Phase, Residency};

    fn ids(cfg: &DlrmConfig, seed: i64) -> Vec<Vec<i64>> {
        (0..cfg.tables)
            .map(|t| {
                (0..cfg.lookups_per_table)
                    .map(|i| {
                        ((seed + t as i64 * 7 + i as i64 * 13) % cfg.rows_per_table as i64).abs()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn prediction_is_probability_and_deterministic() {
        let cfg = DlrmConfig::tiny();
        let m = Dlrm::new_functional(cfg.clone(), 3);
        let dense = init::randn([1, cfg.dense_features], 5);
        let a = m.predict(&ids(&cfg, 1), dense.clone());
        let b = m.predict(&ids(&cfg, 1), dense);
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn different_ids_change_prediction() {
        let cfg = DlrmConfig::tiny();
        let m = Dlrm::new_functional(cfg.clone(), 3);
        let dense = init::randn([1, cfg.dense_features], 5);
        let a = m.predict(&ids(&cfg, 1), dense.clone());
        let b = m.predict(&ids(&cfg, 2), dense);
        assert!((a - b).abs() > 1e-7);
    }

    #[test]
    fn spec_capture_recognized_as_recsys() {
        let cfg = DlrmConfig::production_like();
        let m = Dlrm::new_spec(cfg.clone());
        let ctx = CaptureCtx::new("dlrm");
        let id_lists: Vec<Vec<i64>> = (0..cfg.tables)
            .map(|_| vec![0; cfg.lookups_per_table])
            .collect();
        let out = m.capture_inference(&ctx, &id_lists, None);
        out.mark_output();
        let mut srg = ctx.finish().srg;
        for node in srg.nodes_mut() {
            node.modality = genie_srg::Modality::Unknown;
        }
        let fired = patterns::run_all(&mut srg);
        assert!(fired.iter().any(|r| r.recognizer == "recsys"));
        // Tables reclassified for tiering.
        let tables = srg
            .nodes()
            .filter(|n| n.residency == Residency::EmbeddingTable)
            .count();
        assert_eq!(tables, cfg.tables);
        assert!(srg.nodes().any(|n| n.phase == Phase::DenseInteraction));
    }
}
