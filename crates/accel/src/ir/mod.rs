//! Operator-graph intermediate representation.
//!
//! One decode step of the Llama-2 network is represented as a topologically
//! ordered list of [`Op`]s over SSA-style *values* ([`ValueId`]): every op
//! produces fresh values, so buffer lifetimes are explicit and the memory
//! planner can choose — per value — between a recycled on-chip segment, a
//! fresh HBM buffer (the naive baseline), or nothing at all when fusion
//! keeps the value inside a composite kernel's on-fabric streams.
//!
//! The IR is *shape-complete* (every value knows its element count and
//! every matmul its dimensions) but *position-parametric*: attention cost
//! depends on the decode position, which the engine supplies at execution
//! time.

pub mod dot;
pub mod graph;
pub mod op;

pub use graph::{build_decode_graph, Graph, GraphError};
pub use op::{Op, OpKind};

/// Identifies an SSA value (a logical activation tensor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub usize);

/// Metadata of one SSA value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueInfo {
    /// The value's id (its index in [`Graph::values`]).
    pub id: ValueId,
    /// Human-readable name, e.g. `"L2.q_rot"`.
    pub name: String,
    /// Element count (`f32` elements; activations stay f32 in all MPE
    /// precisions).
    pub elems: usize,
}

impl ValueInfo {
    /// Size in bytes when materialized.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.elems * std::mem::size_of::<f32>()) as u64
    }
}
