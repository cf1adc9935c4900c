//! Decode-step graph construction and validation.

use speedllm_llama::config::ModelConfig;

use super::op::{Op, OpKind};
use super::{ValueId, ValueInfo};

/// A topologically ordered operator graph for one decode step.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Architecture the graph was built for.
    pub config: ModelConfig,
    /// SSA values, indexed by [`ValueId`].
    pub values: Vec<ValueInfo>,
    /// Ops in execution order.
    pub ops: Vec<Op>,
}

/// Structural errors detected by [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A value is read before any op produced it.
    UseBeforeDef {
        /// The offending op's label.
        op: String,
        /// The value read too early.
        value: ValueId,
    },
    /// Two ops write the same value (SSA violation).
    MultipleWriters {
        /// The value with more than one producer.
        value: ValueId,
    },
    /// An op's operand element counts are inconsistent with its kind.
    ShapeMismatch {
        /// The offending op's label.
        op: String,
        /// Explanation of the mismatch.
        detail: String,
    },
    /// A value is produced but never read and is not the graph output.
    DeadValue {
        /// The unused value.
        value: ValueId,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UseBeforeDef { op, value } => {
                write!(f, "op {op} reads value {value:?} before it is defined")
            }
            GraphError::MultipleWriters { value } => {
                write!(f, "value {value:?} has multiple writers")
            }
            GraphError::ShapeMismatch { op, detail } => {
                write!(f, "op {op} shape mismatch: {detail}")
            }
            GraphError::DeadValue { value } => write!(f, "value {value:?} is never consumed"),
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// The graph's final output value (the logits), by convention the
    /// output of the last op.
    #[must_use]
    pub fn output(&self) -> ValueId {
        self.ops.last().expect("empty graph").output()
    }

    /// Element count of a value.
    #[must_use]
    pub fn elems(&self, v: ValueId) -> usize {
        self.values[v.0].elems
    }

    /// Index of the op producing `v`, if any.
    #[must_use]
    pub fn producer(&self, v: ValueId) -> Option<usize> {
        self.ops.iter().position(|op| op.outputs.contains(&v))
    }

    /// Indices of ops reading `v`.
    #[must_use]
    pub fn consumers(&self, v: ValueId) -> Vec<usize> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.inputs.contains(&v))
            .map(|(i, _)| i)
            .collect()
    }

    /// Checks SSA discipline, topological order, shape consistency, and
    /// absence of dead values.
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut defined = vec![false; self.values.len()];
        for op in &self.ops {
            for &inp in &op.inputs {
                if !defined[inp.0] {
                    return Err(GraphError::UseBeforeDef {
                        op: op.label.clone(),
                        value: inp,
                    });
                }
            }
            for &out in &op.outputs {
                if defined[out.0] {
                    return Err(GraphError::MultipleWriters { value: out });
                }
                defined[out.0] = true;
            }
            self.check_shapes(op)?;
        }
        // Every defined value except the graph output must be consumed.
        let output = self.output();
        let mut used = vec![false; self.values.len()];
        for op in &self.ops {
            for &inp in &op.inputs {
                used[inp.0] = true;
            }
        }
        for (i, (&d, &u)) in defined.iter().zip(&used).enumerate() {
            if d && !u && ValueId(i) != output {
                return Err(GraphError::DeadValue { value: ValueId(i) });
            }
        }
        Ok(())
    }

    fn check_shapes(&self, op: &Op) -> Result<(), GraphError> {
        let err = |detail: String| {
            Err(GraphError::ShapeMismatch {
                op: op.label.clone(),
                detail,
            })
        };
        match op.kind {
            OpKind::MatMul { rows, cols } => {
                let x = self.elems(op.inputs[0]);
                let y = self.elems(op.outputs[0]);
                if x != cols {
                    return err(format!("input has {x} elems, expected cols={cols}"));
                }
                if y != rows {
                    return err(format!("output has {y} elems, expected rows={rows}"));
                }
            }
            OpKind::RmsNorm | OpKind::Silu => {
                if self.elems(op.inputs[0]) != self.elems(op.outputs[0]) {
                    return err("elementwise op changes length".into());
                }
            }
            OpKind::ElemMul | OpKind::Add => {
                let a = self.elems(op.inputs[0]);
                let b = self.elems(op.inputs[1]);
                let o = self.elems(op.outputs[0]);
                if a != b || a != o {
                    return err(format!("operand lengths {a}/{b}/{o} differ"));
                }
            }
            OpKind::Rope { head_dim } => {
                let n = self.elems(op.inputs[0]);
                if !n.is_multiple_of(head_dim) || head_dim % 2 != 0 {
                    return err(format!("{n} elems not whole even heads of {head_dim}"));
                }
            }
            OpKind::Attention {
                n_heads, head_dim, ..
            } => {
                let q = self.elems(op.inputs[0]);
                if q != n_heads * head_dim {
                    return err(format!("q has {q} elems, expected {}", n_heads * head_dim));
                }
            }
            OpKind::Embed | OpKind::KvAppend { .. } => {}
        }
        Ok(())
    }

    /// Total ops of each MPE/SFU class (for quick sanity checks).
    #[must_use]
    pub fn op_census(&self) -> (usize, usize) {
        let mpe = self.ops.iter().filter(|o| o.kind.uses_mpe()).count();
        (mpe, self.ops.len() - mpe)
    }
}

/// Builder carrying naming and value bookkeeping.
struct Builder {
    values: Vec<ValueInfo>,
    ops: Vec<Op>,
}

impl Builder {
    fn value(&mut self, name: String, elems: usize) -> ValueId {
        let id = ValueId(self.values.len());
        self.values.push(ValueInfo { id, name, elems });
        id
    }

    fn push(&mut self, op: Op) -> Option<ValueId> {
        let out = op.outputs.first().copied();
        self.ops.push(op);
        out
    }
}

/// Builds the SSA decode graph for one token of a Llama-2 network: the
/// exact llama2.c dataflow (RMSNorm → QKV → RoPE → KV append → attention →
/// output projection → residual → RMSNorm → SwiGLU FFN → residual, then
/// final norm and classifier).
#[must_use]
pub fn build_decode_graph(config: &ModelConfig) -> Graph {
    config.validate().expect("invalid model config");
    let d = config.dim;
    let kv = config.kv_dim();
    let h = config.hidden_dim;
    let hd = config.head_dim();
    let mut b = Builder {
        values: Vec::new(),
        ops: Vec::new(),
    };

    // Embedding gather.
    let mut x = b.value("x0".into(), d);
    b.push(Op {
        kind: OpKind::Embed,
        inputs: vec![],
        outputs: vec![x],
        label: "embed".into(),
    });

    for l in 0..config.n_layers {
        let tag = |s: &str| format!("L{l}.{s}");
        // ---- Attention block ----
        let xb = b.value(tag("xb"), d);
        b.push(Op {
            kind: OpKind::RmsNorm,
            inputs: vec![x],
            outputs: vec![xb],
            label: tag("rms_att"),
        });
        let q = b.value(tag("q"), d);
        b.push(Op {
            kind: OpKind::MatMul { rows: d, cols: d },
            inputs: vec![xb],
            outputs: vec![q],
            label: tag("wq"),
        });
        let k = b.value(tag("k"), kv);
        b.push(Op {
            kind: OpKind::MatMul { rows: kv, cols: d },
            inputs: vec![xb],
            outputs: vec![k],
            label: tag("wk"),
        });
        let v = b.value(tag("v"), kv);
        b.push(Op {
            kind: OpKind::MatMul { rows: kv, cols: d },
            inputs: vec![xb],
            outputs: vec![v],
            label: tag("wv"),
        });
        let q_rot = b.value(tag("q_rot"), d);
        b.push(Op {
            kind: OpKind::Rope { head_dim: hd },
            inputs: vec![q],
            outputs: vec![q_rot],
            label: tag("rope_q"),
        });
        let k_rot = b.value(tag("k_rot"), kv);
        b.push(Op {
            kind: OpKind::Rope { head_dim: hd },
            inputs: vec![k],
            outputs: vec![k_rot],
            label: tag("rope_k"),
        });
        b.push(Op {
            kind: OpKind::KvAppend { layer: l },
            inputs: vec![k_rot, v],
            outputs: vec![],
            label: tag("kv_append"),
        });
        let att = b.value(tag("att"), d);
        b.push(Op {
            kind: OpKind::Attention {
                layer: l,
                n_heads: config.n_heads,
                n_kv_heads: config.n_kv_heads,
                head_dim: hd,
            },
            inputs: vec![q_rot],
            outputs: vec![att],
            label: tag("attention"),
        });
        let proj = b.value(tag("proj"), d);
        b.push(Op {
            kind: OpKind::MatMul { rows: d, cols: d },
            inputs: vec![att],
            outputs: vec![proj],
            label: tag("wo"),
        });
        let x_att = b.value(tag("x_att"), d);
        b.push(Op {
            kind: OpKind::Add,
            inputs: vec![x, proj],
            outputs: vec![x_att],
            label: tag("res_att"),
        });

        // ---- FFN block ----
        let xb2 = b.value(tag("xb2"), d);
        b.push(Op {
            kind: OpKind::RmsNorm,
            inputs: vec![x_att],
            outputs: vec![xb2],
            label: tag("rms_ffn"),
        });
        let h1 = b.value(tag("h1"), h);
        b.push(Op {
            kind: OpKind::MatMul { rows: h, cols: d },
            inputs: vec![xb2],
            outputs: vec![h1],
            label: tag("w1"),
        });
        let h3 = b.value(tag("h3"), h);
        b.push(Op {
            kind: OpKind::MatMul { rows: h, cols: d },
            inputs: vec![xb2],
            outputs: vec![h3],
            label: tag("w3"),
        });
        let h1s = b.value(tag("h1_silu"), h);
        b.push(Op {
            kind: OpKind::Silu,
            inputs: vec![h1],
            outputs: vec![h1s],
            label: tag("silu"),
        });
        let hg = b.value(tag("h_gated"), h);
        b.push(Op {
            kind: OpKind::ElemMul,
            inputs: vec![h1s, h3],
            outputs: vec![hg],
            label: tag("swiglu_mul"),
        });
        let down = b.value(tag("down"), d);
        b.push(Op {
            kind: OpKind::MatMul { rows: d, cols: h },
            inputs: vec![hg],
            outputs: vec![down],
            label: tag("w2"),
        });
        let x_ffn = b.value(tag("x_ffn"), d);
        b.push(Op {
            kind: OpKind::Add,
            inputs: vec![x_att, down],
            outputs: vec![x_ffn],
            label: tag("res_ffn"),
        });
        x = x_ffn;
    }

    // Final norm + classifier.
    let x_final = b.value("x_final".into(), d);
    b.push(Op {
        kind: OpKind::RmsNorm,
        inputs: vec![x],
        outputs: vec![x_final],
        label: "rms_final".into(),
    });
    let logits = b.value("logits".into(), config.vocab_size);
    b.push(Op {
        kind: OpKind::MatMul {
            rows: config.vocab_size,
            cols: d,
        },
        inputs: vec![x_final],
        outputs: vec![logits],
        label: "classifier".into(),
    });

    let graph = Graph {
        config: *config,
        values: b.values,
        ops: b.ops,
    };
    debug_assert_eq!(graph.validate(), Ok(()));
    graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_graph_validates() {
        for cfg in [ModelConfig::test_tiny(), ModelConfig::stories15m()] {
            let g = build_decode_graph(&cfg);
            g.validate().expect("graph must validate");
        }
    }

    #[test]
    fn op_count_matches_structure() {
        let cfg = ModelConfig::test_tiny();
        let g = build_decode_graph(&cfg);
        // 1 embed + 17 per layer (norm, 3 matmuls, 2 ropes, kv-append,
        // attention, wo, add, norm, w1, w3, silu, mul, w2, add) + 2 final.
        assert_eq!(g.ops.len(), 1 + 17 * cfg.n_layers + 2);
        let (mpe, sfu) = g.op_census();
        // Per layer: 7 matmuls + attention = 8 MPE ops; plus classifier.
        assert_eq!(mpe, 8 * cfg.n_layers + 1);
        assert_eq!(sfu, g.ops.len() - mpe);
    }

    #[test]
    fn output_is_logits_sized() {
        let cfg = ModelConfig::test_tiny();
        let g = build_decode_graph(&cfg);
        assert_eq!(g.elems(g.output()), cfg.vocab_size);
    }

    #[test]
    fn producer_consumer_relations() {
        let cfg = ModelConfig::test_tiny();
        let g = build_decode_graph(&cfg);
        // The first rmsnorm output (xb of layer 0) feeds exactly wq, wk, wv.
        let xb = g.ops[1].output();
        assert_eq!(g.producer(xb), Some(1));
        assert_eq!(g.consumers(xb).len(), 3);
        // x0 feeds rmsnorm and the first residual add.
        let x0 = g.ops[0].output();
        assert_eq!(g.consumers(x0).len(), 2);
    }

    #[test]
    fn use_before_def_detected() {
        let cfg = ModelConfig::test_tiny();
        let mut g = build_decode_graph(&cfg);
        g.ops.swap(1, 2); // wq before its rmsnorm input
        assert!(matches!(g.validate(), Err(GraphError::UseBeforeDef { .. })));
    }

    #[test]
    fn multiple_writers_detected() {
        let cfg = ModelConfig::test_tiny();
        let mut g = build_decode_graph(&cfg);
        let out = g.ops[1].output();
        g.ops[2].outputs = vec![out];
        assert!(matches!(
            g.validate(),
            Err(GraphError::MultipleWriters { .. })
        ));
    }

    #[test]
    fn shape_mismatch_detected() {
        let cfg = ModelConfig::test_tiny();
        let mut g = build_decode_graph(&cfg);
        if let OpKind::MatMul { rows, .. } = &mut g.ops[2].kind {
            *rows += 1;
        }
        assert!(matches!(
            g.validate(),
            Err(GraphError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn dead_value_detected() {
        let cfg = ModelConfig::test_tiny();
        let mut g = build_decode_graph(&cfg);
        // Make an op's output dead by redirecting its consumer to another
        // input of the right size: point silu at h3 instead of h1.
        let h1 = g.ops.iter().position(|o| o.label == "L0.w1").unwrap();
        let h3 = g.ops.iter().position(|o| o.label == "L0.w3").unwrap();
        let h1_out = g.ops[h1].output();
        let h3_out = g.ops[h3].output();
        let silu = g.ops.iter().position(|o| o.label == "L0.silu").unwrap();
        g.ops[silu].inputs = vec![h3_out];
        let _ = h1_out;
        assert!(matches!(g.validate(), Err(GraphError::DeadValue { .. })));
    }

    #[test]
    fn kv_append_has_no_output() {
        let cfg = ModelConfig::test_tiny();
        let g = build_decode_graph(&cfg);
        let kv_ops: Vec<&Op> = g
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::KvAppend { .. }))
            .collect();
        assert_eq!(kv_ops.len(), cfg.n_layers);
        assert!(kv_ops.iter().all(|o| o.outputs.is_empty()));
    }

    #[test]
    fn graphs_are_deterministic() {
        let cfg = ModelConfig::stories260k();
        assert_eq!(build_decode_graph(&cfg), build_decode_graph(&cfg));
    }
}
