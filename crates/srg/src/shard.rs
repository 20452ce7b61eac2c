//! Shard vocabulary over the SRG: the pipeline × tensor-parallel
//! [`ShardSpec`] every layer speaks.
//!
//! Shards are assigned where the structure is known — at capture time,
//! by `genie_models::sharded`, which also records the collectives as
//! first-class nodes.

/// How to shard a model: `pipeline_stages` contiguous layer blocks,
/// each split over `tensor_parallel` ranks. The linear shard id of
/// `(stage, rank)` is `stage * tensor_parallel + rank`; shard 0 is the
/// single-device case when both factors are 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Number of pipeline stages (contiguous layer blocks), ≥ 1.
    pub pipeline_stages: u32,
    /// Tensor-parallel ranks per stage (row/column-split matmuls), ≥ 1.
    pub tensor_parallel: u32,
}

impl ShardSpec {
    /// The unsharded single-device spec.
    pub fn single() -> Self {
        ShardSpec {
            pipeline_stages: 1,
            tensor_parallel: 1,
        }
    }

    /// Pure pipeline parallelism over `stages` stages.
    pub fn pipeline(stages: u32) -> Self {
        ShardSpec {
            pipeline_stages: stages,
            tensor_parallel: 1,
        }
    }

    /// Pure tensor parallelism over `ranks` ranks.
    pub fn tensor(ranks: u32) -> Self {
        ShardSpec {
            pipeline_stages: 1,
            tensor_parallel: ranks,
        }
    }

    /// Combined pipeline × tensor parallelism.
    pub fn new(pipeline_stages: u32, tensor_parallel: u32) -> Self {
        ShardSpec {
            pipeline_stages,
            tensor_parallel,
        }
    }

    /// Total shard (device) count.
    pub fn shards(&self) -> u32 {
        self.pipeline_stages * self.tensor_parallel
    }

    /// Linear shard id of `(stage, rank)`.
    pub fn shard_id(&self, stage: u32, rank: u32) -> u32 {
        stage * self.tensor_parallel + rank
    }

    /// Both factors must be ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.pipeline_stages == 0 || self.tensor_parallel == 0 {
            return Err(format!(
                "ShardSpec factors must be >= 1, got {} x {}",
                self.pipeline_stages, self.tensor_parallel
            ));
        }
        Ok(())
    }

    /// Compact label for reports: `"pp2xtp4"`.
    pub fn label(&self) -> String {
        format!("pp{}xtp{}", self.pipeline_stages, self.tensor_parallel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_arithmetic() {
        let s = ShardSpec::new(2, 4);
        assert_eq!(s.shards(), 8);
        assert_eq!(s.shard_id(1, 3), 7);
        assert_eq!(ShardSpec::single().shards(), 1);
        assert!(ShardSpec::new(0, 2).validate().is_err());
        assert_eq!(s.label(), "pp2xtp4");
    }
}
