//! Typed engine failures.
//!
//! The engine is a serving layer: bad input, cold caches, and overload are
//! ordinary events, so every one of them surfaces as a variant here —
//! never as a panic (the `cargo xtask lint` panic rules apply to this
//! whole crate).

use mbt_fmm::FmmError;
use mbt_geometry::ChargeError;
use mbt_treecode::TreecodeError;

use crate::registry::DatasetId;
use crate::tenant::TenantId;

/// Everything that can go wrong between accepting a request and returning
/// its values.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// No dataset is registered under this id.
    UnknownDataset(DatasetId),
    /// A dataset with this name already exists (names are stable handles;
    /// re-registering under the same name is almost always a caller bug).
    DuplicateDataset(String),
    /// The submitted particle set was empty.
    EmptyDataset,
    /// A particle position or charge was NaN or infinite.
    NonFiniteParticle {
        /// Index of the offending particle in the submitted order.
        index: usize,
    },
    /// A sharded registration asked for an impossible shard count (zero,
    /// or more shards than particles — every shard must own at least one
    /// particle for its octree to exist).
    InvalidShardCount {
        /// The shard count the caller asked for.
        requested: usize,
        /// Particles in the submitted set.
        particles: usize,
    },
    /// A charge update's vector does not have one charge per particle.
    ChargeCountMismatch {
        /// Particles in the registered dataset.
        expected: usize,
        /// Charges in the submitted vector.
        got: usize,
    },
    /// A charge update contained a NaN or infinite charge.
    NonFiniteCharge {
        /// Index of the offending charge in the submitted vector.
        index: usize,
    },
    /// A charge update named a sharded dataset. Its per-shard particle
    /// copies and skeleton would have to follow the update; it is refused
    /// rather than served stale.
    ShardedChargeUpdate(DatasetId),
    /// The request's resolved treecode parameters failed validation.
    InvalidParams(TreecodeError),
    /// Plan construction failed below the engine.
    Build(TreecodeError),
    /// A routed FMM plan build failed below the engine (depth-cap
    /// overflows fall back to the treecode instead; this variant carries
    /// the non-recoverable failures).
    FmmBuild(FmmError),
    /// The admission queue is full: the request was shed immediately
    /// rather than queued behind work it cannot overtake.
    Overloaded {
        /// Requests currently being evaluated.
        in_flight: usize,
        /// Requests already waiting for an evaluation slot.
        queued: usize,
    },
    /// The request's deadline expired before its evaluation started.
    DeadlineExceeded,
    /// The caller leading this plan's single-flight build panicked.
    /// Coalesced waiters receive this instead of hanging on the dead
    /// flight; the next request for the key retries the build.
    BuildPanicked,
    /// No pipeline stage answered this request — an engine fault, never
    /// client-caused shedding. (A sweep that panics unwinds to its own
    /// caller, the only thread riding it.)
    WorkerPanicked,
    /// The requesting tenant exhausted one of its configured budgets;
    /// the request was shed before costing any work.
    QuotaExceeded {
        /// The tenant whose budget is exhausted.
        tenant: TenantId,
        /// Which budget: `"plan_bytes"` or `"eval_ms"`.
        resource: &'static str,
    },
    /// An engine invariant was violated (an evaluation sweep returned
    /// the wrong number of outputs). Always an engine bug, never a
    /// caller error — reported instead of silently substituting empty
    /// results.
    Internal(&'static str),
    /// The engine configuration was rejected at construction.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDataset(id) => write!(f, "unknown dataset {id:?}"),
            EngineError::DuplicateDataset(name) => {
                write!(f, "dataset {name:?} is already registered")
            }
            EngineError::EmptyDataset => write!(f, "dataset has no particles"),
            EngineError::NonFiniteParticle { index } => {
                write!(f, "particle {index} has a non-finite position or charge")
            }
            EngineError::InvalidShardCount {
                requested,
                particles,
            } => write!(
                f,
                "cannot cut {particles} particles into {requested} shards \
                 (need 1 <= shards <= particles)"
            ),
            EngineError::ChargeCountMismatch { expected, got } => write!(
                f,
                "charge update has {got} charges for a dataset of {expected} particles"
            ),
            EngineError::NonFiniteCharge { index } => {
                write!(f, "charge {index} of the update is not finite")
            }
            EngineError::ShardedChargeUpdate(id) => {
                write!(
                    f,
                    "dataset {id:?} is sharded; its charges cannot be updated"
                )
            }
            EngineError::InvalidParams(e) => write!(f, "invalid query parameters: {e}"),
            EngineError::Build(e) => write!(f, "plan construction failed: {e}"),
            EngineError::FmmBuild(e) => write!(f, "FMM plan construction failed: {e}"),
            EngineError::Overloaded { in_flight, queued } => write!(
                f,
                "engine overloaded: {in_flight} in flight, {queued} queued"
            ),
            EngineError::DeadlineExceeded => write!(f, "deadline expired before evaluation"),
            EngineError::BuildPanicked => {
                write!(
                    f,
                    "plan build panicked in the flight leader; retry the request"
                )
            }
            EngineError::WorkerPanicked => {
                write!(f, "no pipeline stage answered the request; retry it")
            }
            EngineError::QuotaExceeded { tenant, resource } => {
                write!(f, "tenant {} exhausted its {resource} budget", tenant.0)
            }
            EngineError::Internal(why) => write!(f, "engine invariant violated: {why}"),
            EngineError::InvalidConfig(why) => write!(f, "invalid engine config: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ChargeError> for EngineError {
    fn from(e: ChargeError) -> Self {
        match e {
            ChargeError::CountMismatch { expected, got } => {
                Self::ChargeCountMismatch { expected, got }
            }
            ChargeError::NonFinite { index } => Self::NonFiniteCharge { index },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<EngineError> = vec![
            EngineError::UnknownDataset(DatasetId(7)),
            EngineError::DuplicateDataset("galaxy".into()),
            EngineError::EmptyDataset,
            EngineError::NonFiniteParticle { index: 3 },
            EngineError::InvalidShardCount {
                requested: 8,
                particles: 5,
            },
            EngineError::ChargeCountMismatch {
                expected: 5,
                got: 4,
            },
            EngineError::NonFiniteCharge { index: 2 },
            EngineError::ShardedChargeUpdate(DatasetId(1)),
            EngineError::InvalidParams(TreecodeError::InvalidAlpha(-1.0)),
            EngineError::Build(TreecodeError::DegreeTooLarge(99)),
            EngineError::FmmBuild(FmmError::Empty),
            EngineError::Overloaded {
                in_flight: 4,
                queued: 9,
            },
            EngineError::DeadlineExceeded,
            EngineError::BuildPanicked,
            EngineError::WorkerPanicked,
            EngineError::QuotaExceeded {
                tenant: TenantId(3),
                resource: "plan_bytes",
            },
            EngineError::Internal("sweep output count mismatch"),
            EngineError::InvalidConfig("alpha"),
        ];
        for e in cases {
            assert!(!format!("{e}").is_empty());
        }
    }
}
