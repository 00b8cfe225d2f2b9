//! Binary serialization of [`CompilationResult`]s for the persistent
//! cache tier.
//!
//! The on-disk cache splits in two layers. `qompress-store` owns the
//! *container*: content-addressed files, a self-checking envelope (magic,
//! format version, length, FNV-1a integrity fingerprint), atomic writes
//! and byte-capped eviction — it never interprets payloads. This module
//! owns the *payload*: a hand-rolled, versioned, little-endian codec for
//! [`CompilationResult`] (serde is unavailable offline). It lives in
//! `qompress` rather than the store crate because the encoding must
//! exhaustively destructure types with private fields
//! ([`crate::Schedule`]'s op list is crate-internal) — and that split
//! keeps the dependency arrow pointing one way: core depends on the
//! store, never the reverse.
//!
//! ## Invariants
//!
//! * **Exhaustive destructure everywhere**: every struct the codec
//!   touches is taken apart field-by-field with no `..`, so adding a
//!   field to [`CompilationResult`], [`Metrics`], [`CoherenceTrace`] or
//!   `Schedule` fails to compile here until the format (and
//!   [`CODEC_VERSION`]) is updated — a new field can never silently skip
//!   the on-disk format.
//! * **Decoding never panics.** [`decode_result`] is total over arbitrary
//!   byte strings: truncations, bad tags, absurd lengths and version
//!   mismatches all return `None`. Callers treat `None` as a cache miss.
//!   (In the store pipeline the envelope's integrity fingerprint already
//!   rejects corrupt payloads before this layer; the codec is defensive
//!   anyway so it is safe on bytes from anywhere.)
//! * **Strict round trip**: `decode_result(&encode_result(r))` rebuilds
//!   `r` exactly (floats travel by bit pattern; the schedule's derived
//!   duration is recomputed by the same deterministic fold that first
//!   produced it). Trailing bytes after a well-formed payload are an
//!   error, so a decode accepts exactly the canonical encoding.
//!
//! Bump [`CODEC_VERSION`] on any layout change; old entries then decode
//! to `None`, the caller recompiles, and the write-back replaces the
//! entry in the new format (see the `qompress-store` crate docs for the
//! shared-directory upgrade story).

use crate::metrics::Metrics;
use crate::physical::{PhysicalOp, Schedule, ScheduledOp};
use crate::pipeline::CompilationResult;
use crate::scheduling::CoherenceTrace;
use qompress_circuit::SingleQubitKind;
use qompress_pulse::{GateClass, ALL_GATE_CLASSES};
use std::collections::BTreeMap;

/// Version of the payload layout below. Stored as the leading `u32` of
/// every encoded result; a mismatch decodes to `None` (= cache miss).
pub const CODEC_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Little-endian byte sink.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Floats travel by bit pattern: exact round trip, NaN-safe.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Bounds-checked little-endian cursor; every accessor returns `None`
/// past the end instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.remaining() {
            return None;
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Option<usize> {
        self.u64()?.try_into().ok()
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Strict boolean: exactly 0 or 1 (a flipped flag byte is a decode
    /// failure, not a silent `true`).
    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn str(&mut self) -> Option<String> {
        let len = self.seq_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Reads a sequence length and sanity-bounds it: a corrupt length
    /// field cannot request more elements than the remaining bytes could
    /// possibly hold (`min_elem_bytes` per element), so hostile lengths
    /// fail fast instead of driving a huge allocation.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let len = self.usize()?;
        if len.checked_mul(min_elem_bytes.max(1))? > self.remaining() {
            return None;
        }
        Some(len)
    }

    /// `true` once every byte has been consumed — required at the end of
    /// a decode so only the exact canonical encoding is accepted.
    fn finished(&self) -> bool {
        self.remaining() == 0
    }
}

// ---------------------------------------------------------------------
// Enum tags
// ---------------------------------------------------------------------

/// Stable wire tag of a gate class: its index in [`ALL_GATE_CLASSES`].
/// The exhaustive match (no `_` arm) means a new variant fails to compile
/// here until it gets a tag; the codec tests pin the match against the
/// canonical array order.
fn class_tag(class: GateClass) -> u8 {
    match class {
        GateClass::X => 0,
        GateClass::X0 => 1,
        GateClass::X1 => 2,
        GateClass::X01 => 3,
        GateClass::Cx0 => 4,
        GateClass::Cx1 => 5,
        GateClass::SwapIn => 6,
        GateClass::Enc => 7,
        GateClass::Dec => 8,
        GateClass::Cx2 => 9,
        GateClass::Swap2 => 10,
        GateClass::CxE0Bare => 11,
        GateClass::CxE1Bare => 12,
        GateClass::CxBareE0 => 13,
        GateClass::CxBareE1 => 14,
        GateClass::SwapBareE0 => 15,
        GateClass::SwapBareE1 => 16,
        GateClass::Cx00 => 17,
        GateClass::Cx01 => 18,
        GateClass::Cx10 => 19,
        GateClass::Cx11 => 20,
        GateClass::Swap00 => 21,
        GateClass::Swap01 => 22,
        GateClass::Swap11 => 23,
        GateClass::Swap4 => 24,
    }
}

fn class_from_tag(tag: u8) -> Option<GateClass> {
    ALL_GATE_CLASSES.get(tag as usize).copied()
}

/// Encodes a single-qubit kind: tag byte (mirroring the fingerprint tags
/// in `result_cache::hash_gate`), then the angle for rotation kinds.
fn put_kind(w: &mut Writer, kind: SingleQubitKind) {
    match kind {
        SingleQubitKind::X => w.u8(0),
        SingleQubitKind::Y => w.u8(1),
        SingleQubitKind::Z => w.u8(2),
        SingleQubitKind::H => w.u8(3),
        SingleQubitKind::T => w.u8(4),
        SingleQubitKind::Tdg => w.u8(5),
        SingleQubitKind::S => w.u8(6),
        SingleQubitKind::Sdg => w.u8(7),
        SingleQubitKind::Rz(a) => {
            w.u8(8);
            w.f64(a);
        }
        SingleQubitKind::Rx(a) => {
            w.u8(9);
            w.f64(a);
        }
        SingleQubitKind::Ry(a) => {
            w.u8(10);
            w.f64(a);
        }
    }
}

fn get_kind(r: &mut Reader) -> Option<SingleQubitKind> {
    Some(match r.u8()? {
        0 => SingleQubitKind::X,
        1 => SingleQubitKind::Y,
        2 => SingleQubitKind::Z,
        3 => SingleQubitKind::H,
        4 => SingleQubitKind::T,
        5 => SingleQubitKind::Tdg,
        6 => SingleQubitKind::S,
        7 => SingleQubitKind::Sdg,
        8 => SingleQubitKind::Rz(r.f64()?),
        9 => SingleQubitKind::Rx(r.f64()?),
        10 => SingleQubitKind::Ry(r.f64()?),
        _ => return None,
    })
}

fn put_op(w: &mut Writer, op: &PhysicalOp) {
    match *op {
        PhysicalOp::Single { unit, kind, class } => {
            w.u8(0);
            w.usize(unit);
            put_kind(w, kind);
            w.u8(class_tag(class));
        }
        PhysicalOp::Merged { unit, kind0, kind1 } => {
            w.u8(1);
            w.usize(unit);
            put_kind(w, kind0);
            put_kind(w, kind1);
        }
        PhysicalOp::Internal { unit, class } => {
            w.u8(2);
            w.usize(unit);
            w.u8(class_tag(class));
        }
        PhysicalOp::TwoUnit { a, b, class } => {
            w.u8(3);
            w.usize(a);
            w.usize(b);
            w.u8(class_tag(class));
        }
    }
}

fn get_op(r: &mut Reader) -> Option<PhysicalOp> {
    Some(match r.u8()? {
        0 => PhysicalOp::Single {
            unit: r.usize()?,
            kind: get_kind(r)?,
            class: class_from_tag(r.u8()?)?,
        },
        1 => PhysicalOp::Merged {
            unit: r.usize()?,
            kind0: get_kind(r)?,
            kind1: get_kind(r)?,
        },
        2 => PhysicalOp::Internal {
            unit: r.usize()?,
            class: class_from_tag(r.u8()?)?,
        },
        3 => PhysicalOp::TwoUnit {
            a: r.usize()?,
            b: r.usize()?,
            class: class_from_tag(r.u8()?)?,
        },
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Aggregate layouts
// ---------------------------------------------------------------------

fn put_f64_seq(w: &mut Writer, values: &[f64]) {
    w.usize(values.len());
    for &v in values {
        w.f64(v);
    }
}

fn get_f64_seq(r: &mut Reader) -> Option<Vec<f64>> {
    let len = r.seq_len(8)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(r.f64()?);
    }
    Some(out)
}

fn put_pair_seq(w: &mut Writer, pairs: &[(usize, usize)]) {
    w.usize(pairs.len());
    for &(a, b) in pairs {
        w.usize(a);
        w.usize(b);
    }
}

fn get_pair_seq(r: &mut Reader) -> Option<Vec<(usize, usize)>> {
    let len = r.seq_len(16)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push((r.usize()?, r.usize()?));
    }
    Some(out)
}

fn put_schedule(w: &mut Writer, schedule: &Schedule) {
    let (ops, n_units) = schedule.codec_parts();
    w.usize(n_units);
    w.usize(ops.len());
    for sop in ops {
        // Exhaustive destructure: a new `ScheduledOp` field must be
        // encoded here before this compiles again.
        let ScheduledOp {
            op,
            start_ns,
            duration_ns,
        } = sop;
        put_op(w, op);
        w.f64(*start_ns);
        w.f64(*duration_ns);
    }
}

fn get_schedule(r: &mut Reader) -> Option<Schedule> {
    let n_units = r.usize()?;
    // Minimum op footprint: 1 tag + 8 operand + 1 kind/class + 16 times.
    let len = r.seq_len(18)?;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = get_op(r)?;
        let start_ns = r.f64()?;
        let duration_ns = r.f64()?;
        ops.push(ScheduledOp {
            op,
            start_ns,
            duration_ns,
        });
    }
    // `Schedule::new` recomputes the derived critical-path duration with
    // the same deterministic fold that produced the original.
    Some(Schedule::new(ops, n_units))
}

fn put_metrics(w: &mut Writer, metrics: &Metrics) {
    // Exhaustive destructure: a new `Metrics` field fails to compile here
    // until the format covers it.
    let Metrics {
        gate_eps,
        coherence_eps,
        total_eps,
        duration_ns,
        gate_counts,
        communication_ops,
        qubit_state_ns,
        ququart_state_ns,
    } = metrics;
    w.f64(*gate_eps);
    w.f64(*coherence_eps);
    w.f64(*total_eps);
    w.f64(*duration_ns);
    w.usize(gate_counts.len());
    for (&class, &count) in gate_counts {
        w.u8(class_tag(class));
        w.usize(count);
    }
    w.usize(*communication_ops);
    w.f64(*qubit_state_ns);
    w.f64(*ququart_state_ns);
}

fn get_metrics(r: &mut Reader) -> Option<Metrics> {
    let gate_eps = r.f64()?;
    let coherence_eps = r.f64()?;
    let total_eps = r.f64()?;
    let duration_ns = r.f64()?;
    let n_counts = r.seq_len(9)?;
    let mut gate_counts = BTreeMap::new();
    for _ in 0..n_counts {
        let class = class_from_tag(r.u8()?)?;
        let count = r.usize()?;
        if gate_counts.insert(class, count).is_some() {
            // Duplicate keys are not canonical (a BTreeMap encodes each
            // key once): reject rather than silently keep one.
            return None;
        }
    }
    Some(Metrics {
        gate_eps,
        coherence_eps,
        total_eps,
        duration_ns,
        gate_counts,
        communication_ops: r.usize()?,
        qubit_state_ns: r.f64()?,
        ququart_state_ns: r.f64()?,
    })
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Serializes a [`CompilationResult`] into the versioned little-endian
/// payload format (wrap it in the `qompress-store` envelope before
/// writing to disk).
pub fn encode_result(result: &CompilationResult) -> Vec<u8> {
    // Exhaustive destructure: a new `CompilationResult` field fails to
    // compile here until the on-disk format covers it.
    let CompilationResult {
        strategy,
        schedule,
        metrics,
        initial_placements,
        final_placements,
        encoded_units,
        pairs,
        logical_gates,
        trace,
    } = result;
    let mut w = Writer::default();
    w.u32(CODEC_VERSION);
    w.str(strategy);
    put_schedule(&mut w, schedule);
    put_metrics(&mut w, metrics);
    put_pair_seq(&mut w, initial_placements);
    put_pair_seq(&mut w, final_placements);
    w.usize(encoded_units.len());
    for &flag in encoded_units {
        w.bool(flag);
    }
    put_pair_seq(&mut w, pairs);
    w.usize(*logical_gates);
    let CoherenceTrace {
        qubit_ns,
        ququart_ns,
    } = trace;
    put_f64_seq(&mut w, qubit_ns);
    put_f64_seq(&mut w, ququart_ns);
    w.buf
}

/// Deserializes a payload produced by [`encode_result`].
///
/// Total over arbitrary bytes: any truncation, trailing garbage, bad tag,
/// hostile length or [`CODEC_VERSION`] mismatch returns `None` (a cache
/// miss) — never a panic.
pub fn decode_result(bytes: &[u8]) -> Option<CompilationResult> {
    let mut r = Reader::new(bytes);
    if r.u32()? != CODEC_VERSION {
        return None;
    }
    let strategy = r.str()?;
    let schedule = get_schedule(&mut r)?;
    let metrics = get_metrics(&mut r)?;
    let initial_placements = get_pair_seq(&mut r)?;
    let final_placements = get_pair_seq(&mut r)?;
    let n_flags = r.seq_len(1)?;
    let mut encoded_units = Vec::with_capacity(n_flags);
    for _ in 0..n_flags {
        encoded_units.push(r.bool()?);
    }
    let pairs = get_pair_seq(&mut r)?;
    let logical_gates = r.usize()?;
    let qubit_ns = get_f64_seq(&mut r)?;
    let ququart_ns = get_f64_seq(&mut r)?;
    if !r.finished() {
        return None;
    }
    Some(CompilationResult {
        strategy,
        schedule,
        metrics,
        initial_placements,
        final_placements,
        encoded_units,
        pairs,
        logical_gates,
        trace: CoherenceTrace {
            qubit_ns,
            ququart_ns,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingOptions;
    use crate::session::Compiler;
    use qompress_arch::Topology;
    use qompress_circuit::{Circuit, Gate};
    use std::sync::Arc;

    fn uncached() -> Compiler {
        Compiler::builder().caching(false).build()
    }

    fn sample_result() -> Arc<CompilationResult> {
        let mut c = Circuit::new(4);
        c.push(Gate::h(0));
        c.push(Gate::rz(0.75, 1));
        for i in 0..3 {
            c.push(Gate::cx(i, i + 1));
        }
        uncached().compile_with_options(&c, &Topology::grid(4), &MappingOptions::eqm())
    }

    #[test]
    fn class_tags_match_canonical_order() {
        for (i, &class) in ALL_GATE_CLASSES.iter().enumerate() {
            assert_eq!(class_tag(class) as usize, i, "{class}");
            assert_eq!(class_from_tag(i as u8), Some(class));
        }
        assert_eq!(class_from_tag(ALL_GATE_CLASSES.len() as u8), None);
    }

    #[test]
    fn round_trip_is_exact() {
        let result = sample_result();
        let encoded = encode_result(&result);
        let decoded = decode_result(&encoded).expect("round trip");
        // Debug-rendering equality covers every field bit-exactly (floats
        // print from their full bit patterns via Debug).
        assert_eq!(format!("{result:?}"), format!("{decoded:?}"));
        // And re-encoding the decoded value is byte-identical: the
        // encoding is canonical.
        assert_eq!(encode_result(&decoded), encoded);
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let mut encoded = encode_result(&sample_result());
        let bumped = (CODEC_VERSION + 1).to_le_bytes();
        encoded[..4].copy_from_slice(&bumped);
        assert_eq!(decode_result(&encoded).map(|r| r.strategy), None);
    }

    #[test]
    fn truncations_never_panic() {
        let encoded = encode_result(&sample_result());
        for len in 0..encoded.len() {
            assert!(
                decode_result(&encoded[..len]).is_none(),
                "strict prefix of length {len} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut encoded = encode_result(&sample_result());
        encoded.push(0);
        assert!(decode_result(&encoded).is_none());
    }

    #[test]
    fn hostile_lengths_fail_fast() {
        // A version header followed by a huge declared string length must
        // not drive a giant allocation or a panic.
        let mut bytes = CODEC_VERSION.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_result(&bytes).is_none());
    }

    #[test]
    fn empty_result_round_trips() {
        let empty = uncached().compile_with_options(
            &Circuit::new(2),
            &Topology::line(2),
            &MappingOptions::qubit_only(),
        );
        let decoded = decode_result(&encode_result(&empty)).expect("round trip");
        assert_eq!(format!("{empty:?}"), format!("{decoded:?}"));
    }
}
