//! Skeleton compilation for parameter-sweep traffic.
//!
//! The pipeline is **angle-independent**: mapping, routing, gate merging
//! and scheduling decide everything from gate *classes* and operands, and
//! rotation angles survive into the output only as payloads of
//! [`PhysicalOp::Single`] / [`PhysicalOp::Merged`] kinds in the final
//! [`crate::Schedule`]. A [`SkeletonArtifact`] exploits that: it compiles
//! a [`ParametricCircuit`] **once** with traceable sentinel angles at
//! every parametric site, records where each sentinel surfaced in the
//! scheduled ops (the *stamp plan*), and then serves any angle binding by
//! cloning the template and overwriting exactly those payloads — an
//! `O(gates)` stamp instead of a full pipeline run, byte-identical to
//! compiling the bound circuit directly (pinned by
//! `tests/parametric_sweep.rs`).
//!
//! Sentinels are quiet NaNs carrying the parameter id in their low bits.
//! NaN payloads are inert in this pipeline — no pass compares rotation
//! kinds for equality or branches on angle values — and they cannot
//! collide with user angles, which are always finite
//! ([`ParametricCircuit::bind`] enforces it). If a sentinel were ever
//! duplicated, dropped or mangled, the plan length would disagree with the
//! skeleton's site count and construction panics loudly rather than
//! serving corrupt sweeps.

use crate::jobs::BatchJob;
use crate::physical::PhysicalOp;
use crate::pipeline::CompilationResult;
use crate::result_cache::CacheStats;
use crate::strategies::Strategy;
use qompress_arch::Topology;
use qompress_circuit::{
    Circuit, Gate, ParamId, ParametricCircuit, ParametricGate, SingleQubitKind,
};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Quiet-NaN bit pattern marking a parametric rotation site; the low 32
/// bits carry the parameter id.
const SENTINEL_BASE: u64 = 0x7FF8_DEAD_0000_0000;

/// Mask selecting the sentinel signature (everything above the id bits).
const SENTINEL_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// The sentinel angle for parameter `param`.
fn sentinel(param: ParamId) -> f64 {
    f64::from_bits(SENTINEL_BASE | param as u64)
}

/// The parameter id if `kind` carries a sentinel angle.
fn sentinel_param(kind: &SingleQubitKind) -> Option<ParamId> {
    let angle = match *kind {
        SingleQubitKind::Rx(a) | SingleQubitKind::Ry(a) | SingleQubitKind::Rz(a) => a,
        _ => return None,
    };
    let bits = angle.to_bits();
    (bits & SENTINEL_MASK == SENTINEL_BASE).then_some((bits & 0xFFFF_FFFF) as ParamId)
}

/// `kind` with its angle payload replaced (axis preserved).
fn with_angle(kind: SingleQubitKind, angle: f64) -> SingleQubitKind {
    match kind {
        SingleQubitKind::Rx(_) => SingleQubitKind::Rx(angle),
        SingleQubitKind::Ry(_) => SingleQubitKind::Ry(angle),
        SingleQubitKind::Rz(_) => SingleQubitKind::Rz(angle),
        other => panic!("stamp plan points at non-rotation kind {other:?}"),
    }
}

/// Which angle payload of a scheduled op a stamp site addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StampField {
    /// The kind of a [`PhysicalOp::Single`].
    Single,
    /// `kind0` of a [`PhysicalOp::Merged`].
    Merged0,
    /// `kind1` of a [`PhysicalOp::Merged`].
    Merged1,
}

/// One entry of the stamp plan: write `angles[param]` into `field` of
/// scheduled op `op_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StampSite {
    op_index: usize,
    field: StampField,
    param: ParamId,
}

/// The angle-independent compilation of a [`ParametricCircuit`]: a fully
/// mapped/routed/scheduled template plus the plan for stamping concrete
/// angles into it (the module-level comment explains the sentinel
/// probe that recovers the plan).
///
/// Obtained from [`crate::Compiler::compile_skeleton`] (cached per
/// session under the skeleton's structural fingerprint) and consumed via
/// [`SkeletonArtifact::stamp`].
#[derive(Debug, Clone)]
pub struct SkeletonArtifact {
    template: CompilationResult,
    plan: Vec<StampSite>,
    n_params: usize,
}

impl SkeletonArtifact {
    /// Compiles `skeleton` through `compile_fn` (one full pipeline run on
    /// the sentinel probe circuit) and extracts the stamp plan.
    ///
    /// # Panics
    ///
    /// Panics when a sentinel is dropped, duplicated or mangled by the
    /// pipeline — i.e. the recovered plan does not cover the skeleton's
    /// parametric sites exactly — or when the skeleton has more than
    /// `2^32` parameters (the sentinel id width).
    pub(crate) fn build(
        skeleton: &ParametricCircuit,
        compile_fn: impl FnOnce(&Circuit) -> CompilationResult,
    ) -> SkeletonArtifact {
        assert!(
            skeleton.n_params() as u64 <= u64::from(u32::MAX) + 1,
            "skeleton has {} parameters; sentinel ids carry at most 2^32",
            skeleton.n_params()
        );
        let mut probe = Circuit::new(skeleton.n_qubits());
        for gate in skeleton.gates() {
            match *gate {
                ParametricGate::Fixed(g) => probe.push(g),
                ParametricGate::Rotation { axis, param, qubit } => {
                    probe.push(Gate::single(axis.kind(sentinel(param)), qubit))
                }
            }
        }
        let template = compile_fn(&probe);

        let mut plan = Vec::with_capacity(skeleton.site_count());
        for (op_index, sop) in template.schedule.ops().iter().enumerate() {
            match sop.op {
                PhysicalOp::Single { ref kind, .. } => {
                    if let Some(param) = sentinel_param(kind) {
                        plan.push(StampSite {
                            op_index,
                            field: StampField::Single,
                            param,
                        });
                    }
                }
                PhysicalOp::Merged {
                    ref kind0,
                    ref kind1,
                    ..
                } => {
                    if let Some(param) = sentinel_param(kind0) {
                        plan.push(StampSite {
                            op_index,
                            field: StampField::Merged0,
                            param,
                        });
                    }
                    if let Some(param) = sentinel_param(kind1) {
                        plan.push(StampSite {
                            op_index,
                            field: StampField::Merged1,
                            param,
                        });
                    }
                }
                _ => {}
            }
        }
        assert_eq!(
            plan.len(),
            skeleton.site_count(),
            "stamp plan covers {} sites but the skeleton has {}: the \
             pipeline dropped, duplicated or rewrote a parametric rotation",
            plan.len(),
            skeleton.site_count()
        );
        SkeletonArtifact {
            template,
            plan,
            n_params: skeleton.n_params(),
        }
    }

    /// Length of the angle vector [`SkeletonArtifact::stamp`] expects.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Number of stamp sites in the compiled template.
    pub fn site_count(&self) -> usize {
        self.plan.len()
    }

    /// The sentinel-compiled template. Angle payloads at parametric sites
    /// are NaN sentinels — use [`SkeletonArtifact::stamp`] for a servable
    /// result.
    pub fn template(&self) -> &CompilationResult {
        &self.template
    }

    /// Stamps `angles` into the template, producing the result a direct
    /// `compile(skeleton.bind(angles))` would — byte-identical, at the
    /// cost of one clone plus `O(sites)` payload writes.
    ///
    /// # Panics
    ///
    /// Panics when `angles.len() != self.n_params()` or any angle is
    /// non-finite (same contract as [`ParametricCircuit::bind`]).
    pub fn stamp(&self, angles: &[f64]) -> CompilationResult {
        assert_eq!(
            angles.len(),
            self.n_params,
            "skeleton artifact has {} parameter(s) but {} angle(s) were bound",
            self.n_params,
            angles.len()
        );
        for (p, a) in angles.iter().enumerate() {
            assert!(a.is_finite(), "bound angle theta{p} = {a} is not finite");
        }
        let mut result = self.template.clone();
        let ops = result.schedule.ops_mut();
        for site in &self.plan {
            let angle = angles[site.param];
            match (&mut ops[site.op_index].op, site.field) {
                (PhysicalOp::Single { kind, .. }, StampField::Single) => {
                    *kind = with_angle(*kind, angle);
                }
                (PhysicalOp::Merged { kind0, .. }, StampField::Merged0) => {
                    *kind0 = with_angle(*kind0, angle);
                }
                (PhysicalOp::Merged { kind1, .. }, StampField::Merged1) => {
                    *kind1 = with_angle(*kind1, angle);
                }
                _ => unreachable!("stamp plan out of sync with template ops"),
            }
        }
        result
    }
}

/// The sweep-side binding data riding along with a [`BatchJob`]: which
/// skeleton the job came from, its angles, and the sweep-shared slot for
/// the compiled artifact ([`OnceLock`], so concurrent workers do exactly
/// one structural compile per sweep even before the session-level
/// skeleton cache is warm).
#[derive(Debug, Clone)]
pub(crate) struct SweepBinding {
    pub(crate) skeleton: Arc<ParametricCircuit>,
    pub(crate) angles: Vec<f64>,
    pub(crate) artifact: Arc<OnceLock<Arc<SkeletonArtifact>>>,
}

/// A handle for fanning one skeleton out into per-binding service jobs.
///
/// All jobs minted from one `ParamSweep` share an artifact slot: whichever
/// worker claims the first job compiles the structure, every other job
/// stamps. Independent `ParamSweep`s over the same structure still share
/// work through the session's skeleton cache.
#[derive(Debug, Clone)]
pub struct ParamSweep {
    skeleton: Arc<ParametricCircuit>,
    artifact: Arc<OnceLock<Arc<SkeletonArtifact>>>,
}

impl ParamSweep {
    /// Wraps `skeleton` for sweep submission.
    pub fn new(skeleton: ParametricCircuit) -> Self {
        ParamSweep {
            skeleton: Arc::new(skeleton),
            artifact: Arc::new(OnceLock::new()),
        }
    }

    /// The wrapped skeleton.
    pub fn skeleton(&self) -> &ParametricCircuit {
        &self.skeleton
    }

    /// Mints the [`BatchJob`] for one binding, ready for
    /// [`crate::Compiler::submit`] / [`crate::Compiler::submit_watched`] /
    /// [`crate::Compiler::compile_batch`]. The job carries the bound
    /// concrete circuit (so labels, logs and fallbacks see a normal job)
    /// plus the sweep binding that routes it through the stamp path.
    ///
    /// # Panics
    ///
    /// Panics when `angles` has the wrong length or a non-finite entry
    /// (validated eagerly by [`ParametricCircuit::bind`]).
    pub fn job(
        &self,
        label: impl Into<String>,
        strategy: Strategy,
        topology: Topology,
        angles: &[f64],
    ) -> BatchJob {
        let mut job = BatchJob::new(label, self.skeleton.bind(angles), strategy, topology);
        job.binding = Some(SweepBinding {
            skeleton: Arc::clone(&self.skeleton),
            angles: angles.to_vec(),
            artifact: Arc::clone(&self.artifact),
        });
        job
    }
}

/// The outcome of [`crate::Compiler::compile_sweep`]: per-binding results
/// in input order plus the sweep's skeleton-cache activity.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One compiled result per binding, in input order; each is
    /// byte-identical to directly compiling `skeleton.bind(angles)`.
    pub results: Vec<Arc<CompilationResult>>,
    /// Skeleton-cache counters observed during this sweep (exact when the
    /// session runs one sweep at a time): a cold sweep of N bindings
    /// shows 1 miss and N−1 hits.
    pub skeleton_cache: CacheStats,
    /// Wall-clock time for the whole sweep.
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_round_trip_param_ids() {
        for param in [0usize, 1, 7, 65_535, u32::MAX as usize] {
            let s = sentinel(param);
            assert!(s.is_nan(), "sentinel must be NaN");
            assert_eq!(
                sentinel_param(&SingleQubitKind::Rz(s)),
                Some(param),
                "{param}"
            );
            assert_eq!(sentinel_param(&SingleQubitKind::Rx(s)), Some(param));
        }
        // Ordinary angles — including NaN from user space — are not
        // sentinels.
        assert_eq!(sentinel_param(&SingleQubitKind::Rz(0.5)), None);
        assert_eq!(sentinel_param(&SingleQubitKind::Rz(f64::NAN)), None);
        assert_eq!(sentinel_param(&SingleQubitKind::Rz(f64::INFINITY)), None);
        assert_eq!(sentinel_param(&SingleQubitKind::H), None);
    }

    #[test]
    fn with_angle_preserves_axis() {
        assert_eq!(
            with_angle(SingleQubitKind::Rx(1.0), 2.0),
            SingleQubitKind::Rx(2.0)
        );
        assert_eq!(
            with_angle(SingleQubitKind::Ry(1.0), 2.0),
            SingleQubitKind::Ry(2.0)
        );
        assert_eq!(
            with_angle(SingleQubitKind::Rz(1.0), 2.0),
            SingleQubitKind::Rz(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "non-rotation kind")]
    fn with_angle_rejects_fixed_kinds() {
        with_angle(SingleQubitKind::H, 1.0);
    }
}
