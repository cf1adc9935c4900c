//! Operator definitions.

use super::ValueId;

/// The operator kinds of the Llama-2 decode graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Gather the current token's embedding row into a fresh value.
    Embed,
    /// RMS normalization with a gain weight.
    RmsNorm,
    /// Dense `rows × cols` matrix–vector product.
    MatMul {
        /// Output rows.
        rows: usize,
        /// Input columns.
        cols: usize,
    },
    /// Rotary position embedding over heads of `head_dim`.
    Rope {
        /// Per-head width.
        head_dim: usize,
    },
    /// Append the current position's K and V rows to the HBM-resident KV
    /// cache (no output value).
    KvAppend {
        /// Owning transformer layer.
        layer: usize,
    },
    /// Full single-position attention: scores, softmax, and value mix over
    /// the cached context.
    Attention {
        /// Owning transformer layer.
        layer: usize,
        /// Query heads.
        n_heads: usize,
        /// KV heads (GQA when smaller).
        n_kv_heads: usize,
        /// Per-head width.
        head_dim: usize,
    },
    /// SiLU activation (element-wise).
    Silu,
    /// Element-wise product of two values.
    ElemMul,
    /// Element-wise sum of two values (residual connection).
    Add,
}

impl OpKind {
    /// Short mnemonic for labels and traces.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Embed => "embed",
            OpKind::RmsNorm => "rmsnorm",
            OpKind::MatMul { .. } => "matmul",
            OpKind::Rope { .. } => "rope",
            OpKind::KvAppend { .. } => "kv_append",
            OpKind::Attention { .. } => "attention",
            OpKind::Silu => "silu",
            OpKind::ElemMul => "mul",
            OpKind::Add => "add",
        }
    }

    /// True if the op runs on the Matrix Processing Engine (dense MACs);
    /// false for Special Function Unit ops.
    #[must_use]
    pub fn uses_mpe(&self) -> bool {
        matches!(self, OpKind::MatMul { .. } | OpKind::Attention { .. })
    }
}

/// One operator instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Operator kind with static shape parameters.
    pub kind: OpKind,
    /// Input values (read).
    pub inputs: Vec<ValueId>,
    /// Output values (written). Empty only for [`OpKind::KvAppend`].
    pub outputs: Vec<ValueId>,
    /// Display label, e.g. `"L3.w1"`.
    pub label: String,
}

impl Op {
    /// The op's single output, panicking if it has none or several.
    #[must_use]
    pub fn output(&self) -> ValueId {
        assert_eq!(
            self.outputs.len(),
            1,
            "{} has {} outputs",
            self.label,
            self.outputs.len()
        );
        self.outputs[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpe_vs_sfu_classification() {
        assert!(OpKind::MatMul { rows: 1, cols: 1 }.uses_mpe());
        assert!(OpKind::Attention {
            layer: 0,
            n_heads: 1,
            n_kv_heads: 1,
            head_dim: 2
        }
        .uses_mpe());
        assert!(!OpKind::RmsNorm.uses_mpe());
        assert!(!OpKind::Silu.uses_mpe());
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(OpKind::Embed.mnemonic(), "embed");
        assert_eq!(OpKind::KvAppend { layer: 0 }.mnemonic(), "kv_append");
    }

    #[test]
    #[should_panic(expected = "has 0 outputs")]
    fn output_panics_without_output() {
        let op = Op {
            kind: OpKind::KvAppend { layer: 0 },
            inputs: vec![ValueId(0), ValueId(1)],
            outputs: vec![],
            label: "kv".into(),
        };
        let _ = op.output();
    }
}
