//! The OpenQASM-2.0-subset parser.
//!
//! One pass over the source: [`Statements`] cuts the bytes into
//! `;`-terminated statements as it goes, and each statement is parsed in
//! place and its gates appended to one output buffer. No statement,
//! operand list or gate costs an allocation of its own; the only
//! allocations are the gate buffer and the program built from it, the
//! register table, and a scratch string reused by statements that span
//! several lines.

use crate::QasmError;
use qompress_circuit::{
    Circuit, Gate, ParamId, ParametricCircuit, ParametricGate, RotationAxis, SingleQubitKind,
};
use std::ops::Range;

/// Upper bound on formal parameter ids (`theta<id>`): keeps a hostile
/// program from forcing a gigantic bind vector via `rz(theta999999999)`.
const MAX_PARAM_ID: ParamId = 1 << 16;

/// Default upper bound on a program's total qubit count (the sum of all
/// `qreg` sizes). A single 24-byte line — `qreg q[1000000000];` — would
/// otherwise size a billion-qubit circuit before any gate is parsed;
/// this cap rejects the declaration at the line it appears on, before
/// anything is allocated. Callers admitting untrusted programs should
/// tighten it further via [`parse_qasm_bounded`] /
/// [`parse_parametric_qasm_bounded`].
pub const DEFAULT_MAX_QUBITS: usize = 1 << 16;

/// Parses an OpenQASM 2.0 subset program into a [`Circuit`].
///
/// Quantum registers are flattened into one qubit space in declaration
/// order (`qreg a[2]; qreg b[1];` gives qubits `a[0]=0, a[1]=1, b[0]=2`).
/// See the crate docs for the accepted statement set.
///
/// # Errors
///
/// Returns a [`QasmError`] with the offending line for malformed syntax,
/// unknown or unsupported statements, references to undeclared registers,
/// out-of-range qubit indices, duplicate registers, wrong gate arity, bad
/// angle expressions, and two-qubit gates addressing one qubit twice.
pub fn parse_qasm(source: &str) -> Result<Circuit, QasmError> {
    parse_qasm_bounded(source, DEFAULT_MAX_QUBITS)
}

/// [`parse_qasm`] with an explicit `max_qubits` cap on the program's
/// total qubit count (never looser than [`DEFAULT_MAX_QUBITS`] is by
/// default).
///
/// # Errors
///
/// Everything [`parse_qasm`] rejects, plus any `qreg` declaration that
/// pushes the running qubit total past `max_qubits` — reported with that
/// declaration's line number, before any circuit storage is sized.
pub fn parse_qasm_bounded(source: &str, max_qubits: usize) -> Result<Circuit, QasmError> {
    parse_qasm_limited(source, max_qubits, None)
}

/// Parses an OpenQASM 2.0 subset program that may carry formal rotation
/// parameters (`rz(theta0) q[0];`) into a [`ParametricCircuit`] skeleton.
///
/// A formal parameter is spelled `theta<id>` with a decimal id (`theta0`,
/// `theta17`); every other angle expression is evaluated to a concrete
/// value exactly as in [`parse_qasm`]. The same id may appear at several
/// rotation sites, which then share one bound angle.
///
/// # Errors
///
/// Everything [`parse_qasm`] rejects, plus parameter ids at or above
/// `2^16` (an anti-DoS bound on the bind-vector length).
pub fn parse_parametric_qasm(source: &str) -> Result<ParametricCircuit, QasmError> {
    parse_parametric_qasm_bounded(source, DEFAULT_MAX_QUBITS)
}

/// [`parse_parametric_qasm`] with an explicit `max_qubits` cap on the
/// program's total qubit count — the parametric twin of
/// [`parse_qasm_bounded`].
///
/// # Errors
///
/// Everything [`parse_parametric_qasm`] rejects, plus any `qreg`
/// declaration that pushes the running qubit total past `max_qubits`,
/// reported with that declaration's line number.
pub fn parse_parametric_qasm_bounded(
    source: &str,
    max_qubits: usize,
) -> Result<ParametricCircuit, QasmError> {
    parse_qasm_limited(source, max_qubits, None)
}

/// Parses a program under both admission caps: at most `max_qubits`
/// qubits over all `qreg` declarations, and, when `max_gates` is set, at
/// most that many gates. Gates are counted after lowering (`cz` is three
/// gates, a whole-register broadcast one per qubit), so the cap bounds
/// exactly what `len()` of the result reports. The wire service parses
/// untrusted programs through this with its configured limits.
///
/// The output type picks the dialect: [`Circuit`] parses like
/// [`parse_qasm`] and rejects formal parameters; [`ParametricCircuit`]
/// parses like [`parse_parametric_qasm`]. No other type implements the
/// (sealed) bound.
///
/// ```
/// use qompress_circuit::Circuit;
/// use qompress_qasm::parse_qasm_limited;
///
/// let src = "OPENQASM 2.0;\nqreg q[4];\nh q;\n";
/// let circuit: Circuit = parse_qasm_limited(src, 4, Some(4)).unwrap();
/// assert_eq!(circuit.len(), 4);
/// let err = parse_qasm_limited::<Circuit>(src, 4, Some(3)).unwrap_err();
/// assert_eq!((err.line, err.message.as_str()), (3, "program exceeds the limit of 3 gates"));
/// ```
///
/// # Errors
///
/// Everything the `_bounded` parser of the chosen dialect rejects, plus
/// the first statement that would take the gate count past `max_gates`.
/// That statement fails at its own line with the message
/// `program exceeds the limit of {max_gates} gates`, before the gate
/// buffer grows. As with every error, an unterminated trailing statement
/// is reported instead.
pub fn parse_qasm_limited<P: Program>(
    source: &str,
    max_qubits: usize,
    max_gates: Option<usize>,
) -> Result<P, QasmError> {
    let mut statements = Statements::new(source);
    let mut builder = Builder::new(P::PARAMETRIC, max_qubits, max_gates.unwrap_or(usize::MAX));
    while let Some((line, text)) = statements.next() {
        if let Err(err) = builder.statement(text, line) {
            // The whole source is split before any statement is judged,
            // so an unterminated trailing statement outranks this error.
            statements.finish()?;
            return Err(err);
        }
    }
    statements.finish()?;
    if !builder.saw_header {
        return Err(QasmError::new(1, "expected `OPENQASM 2.0;` header"));
    }
    Ok(P::build(builder.n_qubits, builder.gates))
}

mod sealed {
    use qompress_circuit::ParametricGate;

    /// The program types [`super::parse_qasm_limited`] can produce.
    pub trait Program: Sized {
        /// Whether `theta<id>` rotation arguments are formal parameters.
        const PARAMETRIC: bool;
        /// Builds the program from gates whose operands were already
        /// checked against the `n_qubits` declared qubits.
        fn build(n_qubits: usize, gates: Vec<ParametricGate>) -> Self;
    }
}

use sealed::Program;

impl Program for Circuit {
    const PARAMETRIC: bool = false;

    fn build(n_qubits: usize, gates: Vec<ParametricGate>) -> Self {
        let mut circuit = Circuit::new(n_qubits);
        for gate in gates {
            match gate {
                ParametricGate::Fixed(g) => circuit.push(g),
                ParametricGate::Rotation { .. } => {
                    unreachable!("the concrete dialect rejects formal parameters")
                }
            }
        }
        circuit
    }
}

impl Program for ParametricCircuit {
    const PARAMETRIC: bool = true;

    fn build(n_qubits: usize, gates: Vec<ParametricGate>) -> Self {
        let mut skeleton = ParametricCircuit::new(n_qubits);
        for gate in gates {
            match gate {
                ParametricGate::Fixed(g) => skeleton.push(g),
                ParametricGate::Rotation { axis, param, qubit } => {
                    skeleton.push_param(axis, param, qubit)
                }
            }
        }
        skeleton
    }
}

/// Cuts the source into `;`-terminated statements on demand, in one scan
/// over its bytes.
///
/// Each statement comes back as its trimmed text and the line of its
/// first non-blank character. Lines split like `str::lines` (at `\n`,
/// dropping one `\r` before it), and a comment runs from `//` to the end
/// of its line. A statement on one line is a slice of the source; one
/// that spans lines reads with each line break as one space, so its text
/// is assembled in a scratch string.
struct Statements<'a> {
    src: &'a str,
    /// Next byte to scan.
    cursor: usize,
    /// 1-based number of the line being scanned.
    line: usize,
    /// Byte offset where that line starts.
    line_start: usize,
    /// The statement that has begun but not yet reached its `;`.
    open: Option<Open>,
    /// The text so far of an open statement that began on an earlier
    /// line.
    scratch: String,
}

/// An open statement: its first line, and where its text starts if it
/// began on the line being scanned (`None` once it lives in the scratch
/// string).
struct Open {
    line: usize,
    start: Option<usize>,
}

impl<'a> Statements<'a> {
    fn new(src: &'a str) -> Self {
        Statements {
            src,
            cursor: 0,
            line: 1,
            line_start: 0,
            open: None,
            scratch: String::new(),
        }
    }

    /// The next statement as `(line, text)`, or `None` once the source is
    /// exhausted (see [`Self::finish`] for what may be left open).
    fn next(&mut self) -> Option<(usize, &str)> {
        let src = self.src;
        let bytes = src.as_bytes();
        while self.cursor < bytes.len() {
            let at = self.cursor;
            match bytes[at] {
                b'\n' => {
                    let content_end = if at > self.line_start && bytes[at - 1] == b'\r' {
                        at - 1
                    } else {
                        at
                    };
                    self.end_line(content_end, at + 1);
                }
                b'/' if bytes.get(at + 1) == Some(&b'/') => {
                    // The comment runs to the newline, which ends the line.
                    let newline = bytes[at..].iter().position(|&b| b == b'\n');
                    match newline {
                        Some(offset) => self.end_line(at, at + offset + 1),
                        None => self.end_line(at, bytes.len()),
                    }
                }
                b';' => {
                    self.cursor = at + 1;
                    if let Some(open) = self.open.take() {
                        let text = match open.start {
                            Some(start) => &src[start..at],
                            None => {
                                self.scratch.push_str(&src[self.line_start..at]);
                                &self.scratch
                            }
                        };
                        // The text starts at a non-blank character, so
                        // only its end needs trimming.
                        return Some((open.line, text.trim_end()));
                    }
                }
                _ if self.open.is_some() => {
                    // Inside a statement only `;`, `\n` and `//` matter.
                    let skip = bytes[at..]
                        .iter()
                        .position(|&b| matches!(b, b';' | b'\n' | b'/'))
                        .unwrap_or(bytes.len() - at);
                    self.cursor = at + skip.max(1);
                }
                byte => {
                    let c = if byte.is_ascii() {
                        char::from(byte)
                    } else {
                        src[at..].chars().next().unwrap_or_default()
                    };
                    if !c.is_whitespace() {
                        self.open = Some(Open {
                            line: self.line,
                            start: Some(at),
                        });
                    }
                    self.cursor = at + c.len_utf8();
                }
            }
        }
        // A last line without its `\n` ends with the source.
        if self.line_start < bytes.len() {
            self.end_line(bytes.len(), bytes.len());
        }
        None
    }

    /// Ends the current line: its text runs to `content_end` and the next
    /// line starts at `next`. An open statement continues on the next
    /// line after one space.
    fn end_line(&mut self, content_end: usize, next: usize) {
        if let Some(open) = &mut self.open {
            let from = match open.start.take() {
                Some(start) => {
                    self.scratch.clear();
                    start
                }
                None => self.line_start,
            };
            self.scratch.push_str(&self.src[from..content_end]);
            self.scratch.push(' ');
        }
        self.line += 1;
        self.line_start = next;
        self.cursor = next;
    }

    /// Scans the rest of the source and reports a statement left without
    /// its `;`.
    fn finish(mut self) -> Result<(), QasmError> {
        while self.next().is_some() {}
        match &self.open {
            None => Ok(()),
            Some(open) => Err(QasmError::new(
                open.line,
                format!(
                    "statement not terminated by `;`: `{}`",
                    self.scratch.trim_end()
                ),
            )),
        }
    }
}

/// A declared quantum register: offset into the flattened qubit space.
struct QReg {
    /// The name's byte range in [`Builder::names`].
    name: Range<usize>,
    offset: usize,
    size: usize,
}

/// One resolved gate operand: a single qubit (`q[3]`) or a whole-register
/// broadcast (`q`), which OpenQASM applies element-wise.
#[derive(Clone, Copy)]
enum Operand {
    One(usize),
    /// Flattened qubit range `offset..offset + size` of the register.
    All {
        offset: usize,
        size: usize,
    },
}

impl Operand {
    /// The flattened qubit indices this operand covers, in register order.
    fn qubits(self) -> Range<usize> {
        match self {
            Operand::One(q) => q..q + 1,
            Operand::All { offset, size } => offset..offset + size,
        }
    }
}

/// The gates a statement may name.
#[derive(Clone, Copy)]
enum GateName {
    Fixed(SingleQubitKind),
    Rotation(RotationAxis),
    Cx,
    Cz,
    Swap,
}

impl GateName {
    fn of(name: &str) -> Option<GateName> {
        Some(match name {
            "x" => GateName::Fixed(SingleQubitKind::X),
            "y" => GateName::Fixed(SingleQubitKind::Y),
            "z" => GateName::Fixed(SingleQubitKind::Z),
            "h" => GateName::Fixed(SingleQubitKind::H),
            "s" => GateName::Fixed(SingleQubitKind::S),
            "sdg" => GateName::Fixed(SingleQubitKind::Sdg),
            "t" => GateName::Fixed(SingleQubitKind::T),
            "tdg" => GateName::Fixed(SingleQubitKind::Tdg),
            "rx" => GateName::Rotation(RotationAxis::Rx),
            "ry" => GateName::Rotation(RotationAxis::Ry),
            "rz" => GateName::Rotation(RotationAxis::Rz),
            "cx" | "CX" => GateName::Cx,
            "cz" => GateName::Cz,
            "swap" => GateName::Swap,
            _ => return None,
        })
    }
}

/// Parse state: the register table and the output gate buffer.
struct Builder {
    /// Whether `theta<id>` spellings are accepted as formal parameters.
    allow_params: bool,
    max_qubits: usize,
    max_gates: usize,
    saw_header: bool,
    /// Every register name, back to back.
    names: String,
    qregs: Vec<QReg>,
    n_qubits: usize,
    gates: Vec<ParametricGate>,
}

impl Builder {
    fn new(allow_params: bool, max_qubits: usize, max_gates: usize) -> Self {
        Builder {
            allow_params,
            max_qubits,
            max_gates,
            saw_header: false,
            names: String::new(),
            qregs: Vec::new(),
            n_qubits: 0,
            gates: Vec::new(),
        }
    }

    /// Parses one statement.
    fn statement(&mut self, text: &str, line: usize) -> Result<(), QasmError> {
        let (keyword, rest) = split_keyword(text);
        if !self.saw_header {
            if keyword != "OPENQASM" {
                return Err(QasmError::new(line, "expected `OPENQASM 2.0;` header"));
            }
            if rest.trim() != "2.0" {
                return Err(QasmError::new(
                    line,
                    format!("unsupported OPENQASM version `{}`", rest.trim()),
                ));
            }
            self.saw_header = true;
            return Ok(());
        }
        match keyword {
            "OPENQASM" => Err(QasmError::new(line, "duplicate OPENQASM header")),
            "include" => Ok(()), // headers carry no semantics for this subset
            "creg" => Ok(()),    // classical registers are ignored
            "barrier" => Ok(()), // scheduling hint; the compiler re-schedules anyway
            "qreg" => self.declare(rest, line),
            "measure" | "reset" | "gate" | "if" | "opaque" => Err(QasmError::new(
                line,
                format!("unsupported statement `{keyword}` (subset parser)"),
            )),
            "" => Err(QasmError::new(line, "empty statement")),
            _ => self.gate(keyword, rest, line),
        }
    }

    /// Declares the register of a `qreg` statement.
    fn declare(&mut self, rest: &str, line: usize) -> Result<(), QasmError> {
        let (name, size) = parse_declaration(rest, line)?;
        if self.register(name).is_some() {
            return Err(QasmError::new(line, format!("duplicate register `{name}`")));
        }
        // Checked *before* the running total grows (and with overflow-safe
        // arithmetic), so a hostile `qreg q[1000000000];` is rejected here
        // — nothing downstream ever sees the huge count, let alone
        // allocates for it.
        let total = self
            .n_qubits
            .checked_add(size)
            .filter(|&t| t <= self.max_qubits);
        let Some(total) = total else {
            return Err(QasmError::new(
                line,
                format!(
                    "register `{name}` of size {size} pushes the program past \
                     the limit of {} qubits",
                    self.max_qubits
                ),
            ));
        };
        let start = self.names.len();
        self.names.push_str(name);
        self.qregs.push(QReg {
            name: start..self.names.len(),
            offset: self.n_qubits,
            size,
        });
        self.n_qubits = total;
        Ok(())
    }

    /// The declared register called `name`.
    fn register(&self, name: &str) -> Option<&QReg> {
        let names = self.names.as_bytes();
        self.qregs
            .iter()
            .find(|r| &names[r.name.clone()] == name.as_bytes())
    }

    /// Parses one gate statement and appends its gates, lowered into the
    /// compiler's gate set.
    ///
    /// Every operand is resolved before the gate name is looked up, so a
    /// bad operand outranks an unknown gate, and every other error of the
    /// statement outranks the gate cap. With `allow_params` set,
    /// `theta<id>` rotation arguments become rotation sites.
    fn gate(&mut self, name: &str, rest: &str, line: usize) -> Result<(), QasmError> {
        let rest = trim(rest);
        // Optional parenthesized parameter list.
        let (params, mut operands_text) = if let Some(stripped) = rest.strip_prefix('(') {
            let close = find_byte(stripped, b')')
                .ok_or_else(|| QasmError::new(line, "unclosed parameter list"))?;
            (Some(trim(&stripped[..close])), trim(&stripped[close + 1..]))
        } else {
            (None, rest)
        };
        // Resolve every comma-separated operand; only the first two are
        // ever used.
        let mut operands = [Operand::One(0); 2];
        let mut count = 0usize;
        loop {
            let comma = find_byte(operands_text, b',');
            let text = &operands_text[..comma.unwrap_or(operands_text.len())];
            let operand = self.operand(text, line)?;
            if let Some(slot) = operands.get_mut(count) {
                *slot = operand;
            }
            count += 1;
            match comma {
                Some(comma) => operands_text = &operands_text[comma + 1..],
                None => break,
            }
        }
        let gate = GateName::of(name)
            .ok_or_else(|| QasmError::new(line, format!("unknown gate `{name}`")))?;
        let arity = |want: usize| {
            if count == want {
                Ok(())
            } else {
                Err(QasmError::new(
                    line,
                    format!("`{name}` takes {want} operand(s), got {count}"),
                ))
            }
        };
        let no_params = || match params {
            Some(_) => Err(QasmError::new(
                line,
                format!("`{name}` takes no parameters"),
            )),
            None => Ok(()),
        };
        // Two-qubit gates take exactly one qubit per operand: whole-register
        // broadcast is a single-qubit-gate convenience in this subset.
        let two_distinct = || {
            arity(2)?;
            let (Operand::One(a), Operand::One(b)) = (operands[0], operands[1]) else {
                return Err(QasmError::new(
                    line,
                    format!(
                        "`{name}` does not support whole-register broadcast \
                         (single-qubit gates only)"
                    ),
                ));
            };
            if a == b {
                return Err(QasmError::new(
                    line,
                    format!("`{name}` addresses the same qubit twice"),
                ));
            }
            no_params()?;
            Ok((a, b))
        };
        // Single-qubit gates broadcast: `h q;` applies `h` to every qubit
        // of `q` in register order.
        let qubits = operands[0].qubits();
        let fixed = ParametricGate::Fixed;
        match gate {
            GateName::Fixed(kind) => {
                arity(1)?;
                no_params()?;
                self.append(qubits.map(|q| fixed(Gate::single(kind, q))), line)
            }
            GateName::Rotation(axis) => {
                arity(1)?;
                let text = params.ok_or_else(|| {
                    QasmError::new(line, format!("`{name}` needs an angle parameter"))
                })?;
                let Some(param) = parse_formal_param(text) else {
                    let kind = axis.kind(parse_angle(text, line)?);
                    return self.append(qubits.map(|q| fixed(Gate::single(kind, q))), line);
                };
                if !self.allow_params {
                    return Err(QasmError::new(
                        line,
                        format!(
                            "formal parameter `{}` is only accepted by the \
                             parametric parser",
                            trim(text)
                        ),
                    ));
                }
                if param >= MAX_PARAM_ID {
                    return Err(QasmError::new(
                        line,
                        format!("parameter id {param} exceeds the limit of {MAX_PARAM_ID}"),
                    ));
                }
                // Rotations broadcast like every single-qubit gate;
                // broadcast sites share the formal parameter (and thus the
                // bound angle).
                let sites = qubits.map(|qubit| ParametricGate::Rotation { axis, param, qubit });
                self.append(sites, line)
            }
            GateName::Cx => {
                let (c, t) = two_distinct()?;
                self.append([fixed(Gate::cx(c, t))].into_iter(), line)
            }
            GateName::Cz => {
                let (c, t) = two_distinct()?;
                // CZ = (I⊗H)·CX·(I⊗H): lowered into the compiler's gate set.
                let lowered = [Gate::h(t), Gate::cx(c, t), Gate::h(t)].map(fixed);
                self.append(lowered.into_iter(), line)
            }
            GateName::Swap => {
                let (a, b) = two_distinct()?;
                self.append([fixed(Gate::swap(a, b))].into_iter(), line)
            }
        }
    }

    /// Resolves `name[index]` to a flattened qubit index, or a bare
    /// declared register name to a broadcast over its qubits.
    fn operand(&self, text: &str, line: usize) -> Result<Operand, QasmError> {
        let text = trim(text);
        let lookup = |name: &str| {
            self.register(name)
                .ok_or_else(|| QasmError::new(line, format!("undeclared register `{name}`")))
        };
        let Some(open) = find_byte(text, b'[') else {
            if !is_identifier(text) {
                return Err(QasmError::new(
                    line,
                    format!("expected `name[index]` or a register name, got `{text}`"),
                ));
            }
            let reg = lookup(text)?;
            return Ok(Operand::All {
                offset: reg.offset,
                size: reg.size,
            });
        };
        let (name, idx) = split_indexed_at(text, open, line)?;
        let reg = lookup(name)?;
        if idx >= reg.size {
            return Err(QasmError::new(
                line,
                format!("index {idx} out of range for `{name}[{}]`", reg.size),
            ));
        }
        Ok(Operand::One(reg.offset + idx))
    }

    /// Appends one statement's gates once the gate cap admits them all.
    ///
    /// The gate-cap message is matched word for word by the wire service
    /// (`parse_error_line` in `qompress-service`'s `server.rs`), which
    /// answers it with a `circuit_gates` quota line; the hardening test
    /// `broadcast_amplified_submit_hits_the_gate_cap_while_parsing` pins the
    /// pair.
    fn append(
        &mut self,
        gates: impl ExactSizeIterator<Item = ParametricGate>,
        line: usize,
    ) -> Result<(), QasmError> {
        if self.gates.len().saturating_add(gates.len()) > self.max_gates {
            return Err(QasmError::new(
                line,
                format!("program exceeds the limit of {} gates", self.max_gates),
            ));
        }
        self.gates.extend(gates);
        Ok(())
    }
}

/// Splits a statement into its leading keyword and the remainder.
fn split_keyword(text: &str) -> (&str, &str) {
    // A byte scan: the first non-ASCII byte also ends the keyword, at a
    // character boundary.
    let end = text
        .bytes()
        .position(|b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.'))
        .unwrap_or(text.len());
    (&text[..end], &text[end..])
}

/// Parses `name[size]` from a qreg/creg declaration.
fn parse_declaration(rest: &str, line: usize) -> Result<(&str, usize), QasmError> {
    let (name, idx) = split_indexed(trim(rest), line)?;
    if name.is_empty() {
        return Err(QasmError::new(line, "register declaration needs a name"));
    }
    if idx == 0 {
        return Err(QasmError::new(line, "register size must be positive"));
    }
    Ok((name, idx))
}

/// Parses `name[index]` from already trimmed text, rejecting anything else.
fn split_indexed(text: &str, line: usize) -> Result<(&str, usize), QasmError> {
    let open = find_byte(text, b'[')
        .ok_or_else(|| QasmError::new(line, format!("expected `name[index]`, got `{text}`")))?;
    split_indexed_at(text, open, line)
}

/// [`split_indexed`] once its first `[` is known to sit at byte `open`.
fn split_indexed_at(text: &str, open: usize, line: usize) -> Result<(&str, usize), QasmError> {
    // The last `]` must end the text and come after the `[`.
    let close = text.len() - 1;
    if !(text.as_bytes()[close] == b']' && close > open) {
        return Err(QasmError::new(
            line,
            format!("unbalanced brackets in `{text}`"),
        ));
    }
    let name = trim(&text[..open]);
    if !is_identifier(name) {
        return Err(QasmError::new(line, format!("bad identifier `{name}`")));
    }
    let idx = parse_index(trim(&text[open + 1..close]))
        .ok_or_else(|| QasmError::new(line, format!("bad index in `{text}`")))?;
    Ok((name, idx))
}

/// Reads a decimal index exactly as `str::parse::<usize>` accepts it (an
/// optional `+`, then at least one digit, without overflow), with a plain
/// digit loop.
fn parse_index(text: &str) -> Option<usize> {
    let digits = text.strip_prefix('+').unwrap_or(text);
    if digits.is_empty() {
        return None;
    }
    digits.bytes().try_fold(0usize, |n, b| {
        let digit = b.is_ascii_digit().then(|| usize::from(b - b'0'))?;
        n.checked_mul(10)?.checked_add(digit)
    })
}

fn is_identifier(s: &str) -> bool {
    // Bytewise: a non-ASCII character fails both tests at its first byte.
    let mut bytes = s.bytes();
    matches!(bytes.next(), Some(b) if b.is_ascii_lowercase() || b == b'_')
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// `str::trim`, without decoding characters in the usual case: once the
/// ASCII blanks are gone, both ends are visible ASCII characters, which
/// `str::trim` would stop at too. Anything else goes to `str::trim`.
fn trim(text: &str) -> &str {
    let inner = text.trim_ascii();
    match inner.as_bytes() {
        [first, .., last] if first.is_ascii_graphic() && last.is_ascii_graphic() => inner,
        [only] if only.is_ascii_graphic() => inner,
        _ => text.trim(),
    }
}

/// The offset of the first `byte` in `text`: a plain scan, which beats
/// `str::find` on the few bytes of a token.
fn find_byte(text: &str, byte: u8) -> Option<usize> {
    text.bytes().position(|b| b == byte)
}

/// Recognizes a formal parameter spelling `theta<decimal id>`.
///
/// Anything else (including `theta` with no digits or with a sign) is not
/// a formal parameter and falls through to concrete angle evaluation.
fn parse_formal_param(text: &str) -> Option<ParamId> {
    let digits = trim(text).strip_prefix("theta")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Evaluates an angle expression: `['-'] factor (('*'|'/') factor)*` where
/// a factor is a float literal or `pi`.
fn parse_angle(text: &str, line: usize) -> Result<f64, QasmError> {
    let text = trim(text);
    let bad = || QasmError::new(line, format!("bad angle expression `{text}`"));
    let (negated, body) = match text.strip_prefix('-') {
        Some(b) => (true, trim(b)),
        None => (false, text),
    };
    if body.is_empty() {
        return Err(bad());
    }
    let mut value = 1.0f64;
    let mut op = '*';
    let mut rest = body;
    loop {
        let end = rest
            .bytes()
            .position(|b| b == b'*' || b == b'/')
            .unwrap_or(rest.len());
        let factor_text = trim(&rest[..end]);
        let factor = if factor_text == "pi" {
            std::f64::consts::PI
        } else {
            factor_text.parse::<f64>().map_err(|_| bad())?
        };
        match op {
            '*' => value *= factor,
            '/' => value /= factor,
            _ => unreachable!(),
        }
        if end == rest.len() {
            break;
        }
        op = rest.as_bytes()[end] as char;
        rest = &rest[end + 1..];
        if trim(rest).is_empty() {
            return Err(bad());
        }
    }
    let value = if negated { -value } else { value };
    // `f64::parse` happily accepts `inf`/`NaN` literals, and division by
    // zero (`pi/0`) overflows to infinity. A non-finite angle would poison
    // fingerprints and routing costs downstream, so reject it here with
    // the offending line.
    if !value.is_finite() {
        return Err(QasmError::new(
            line,
            format!("angle expression `{text}` is not finite"),
        ));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn parse(body: &str) -> Result<Circuit, QasmError> {
        parse_qasm(&format!("{HEADER}{body}"))
    }

    #[test]
    fn minimal_program() {
        let c = parse("qreg q[3];\nh q[0];\ncx q[0], q[1];\nswap q[1], q[2];\n").unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.gates(), &[Gate::h(0), Gate::cx(0, 1), Gate::swap(1, 2)]);
    }

    #[test]
    fn multiple_registers_flatten_in_order() {
        let c = parse("qreg a[2];\nqreg b[2];\ncx a[1], b[0];\n").unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.gates(), &[Gate::cx(1, 2)]);
    }

    #[test]
    fn cz_lowers_to_h_cx_h() {
        let c = parse("qreg q[2];\ncz q[0], q[1];\n").unwrap();
        assert_eq!(c.gates(), &[Gate::h(1), Gate::cx(0, 1), Gate::h(1)]);
    }

    #[test]
    fn rotations_and_angle_expressions() {
        let c =
            parse("qreg q[1];\nrz(pi/2) q[0];\nrx(-pi) q[0];\nry(3*pi/4) q[0];\nrz(0.25) q[0];\n")
                .unwrap();
        let angles: Vec<f64> = c
            .gates()
            .iter()
            .map(|g| match g {
                Gate::Single { kind, .. } => match kind {
                    SingleQubitKind::Rz(a) | SingleQubitKind::Rx(a) | SingleQubitKind::Ry(a) => *a,
                    _ => panic!("unexpected kind"),
                },
                _ => panic!("unexpected gate"),
            })
            .collect();
        let pi = std::f64::consts::PI;
        assert_eq!(angles, vec![pi / 2.0, -pi, 3.0 * pi / 4.0, 0.25]);
    }

    #[test]
    fn barriers_comments_and_creg_are_ignored() {
        let c = parse(
            "qreg q[2];\ncreg c[2];\n// comment\nh q[0]; barrier q[0], q[1];\ncx q[0], q[1];\n",
        )
        .unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn broadcast_expands_single_qubit_gates() {
        let c = parse("qreg q[3];\nh q;\n").unwrap();
        assert_eq!(c.gates(), &[Gate::h(0), Gate::h(1), Gate::h(2)]);
        // Broadcast respects register offsets and declaration order.
        let c = parse("qreg a[2];\nqreg b[2];\nx b;\n").unwrap();
        assert_eq!(c.gates(), &[Gate::x(2), Gate::x(3)]);
        // Rotations broadcast with one shared angle.
        let c = parse("qreg q[2];\nrz(pi/2) q;\n").unwrap();
        let pi = std::f64::consts::PI;
        assert_eq!(c.gates(), &[Gate::rz(pi / 2.0, 0), Gate::rz(pi / 2.0, 1)]);
    }

    #[test]
    fn broadcast_rejected_for_two_qubit_gates() {
        for stmt in ["cx q, r;", "cx q[0], r;", "swap q, r;", "cz r, q[1];"] {
            let err = parse(&format!("qreg q[2];\nqreg r[2];\n{stmt}\n")).unwrap_err();
            assert!(
                err.message.contains("whole-register broadcast"),
                "{stmt}: {}",
                err.message
            );
        }
    }

    #[test]
    fn broadcast_of_undeclared_register_rejected() {
        let err = parse("qreg q[2];\nh r;\n").unwrap_err();
        assert!(err.message.contains("undeclared register `r`"));
        let err = parse("qreg q[2];\nh 3;\n").unwrap_err();
        assert!(err.message.contains("register name"), "{}", err.message);
    }

    #[test]
    fn missing_header_rejected() {
        let err = parse_qasm("qreg q[1];\n").unwrap_err();
        assert!(err.message.contains("OPENQASM"));
    }

    #[test]
    fn undeclared_register_rejected() {
        let err = parse("qreg q[2];\nh r[0];\n").unwrap_err();
        assert!(err.message.contains("undeclared register `r`"));
        assert_eq!(err.line, 4);
    }

    #[test]
    fn out_of_range_index_rejected() {
        let err = parse("qreg q[2];\nx q[2];\n").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn duplicate_operand_rejected() {
        let err = parse("qreg q[2];\ncx q[1], q[1];\n").unwrap_err();
        assert!(err.message.contains("same qubit twice"));
    }

    #[test]
    fn unknown_gate_rejected() {
        let err = parse("qreg q[2];\nccx q[0], q[1], q[0];\n").unwrap_err();
        assert!(err.message.contains("unknown gate"));
    }

    #[test]
    fn unsupported_statement_rejected() {
        let err = parse("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n").unwrap_err();
        assert!(err.message.contains("unsupported statement"));
    }

    #[test]
    fn missing_semicolon_rejected() {
        let err = parse("qreg q[1];\nh q[0]\n").unwrap_err();
        assert!(err.message.contains("not terminated"));
    }

    #[test]
    fn wrong_arity_rejected() {
        let err = parse("qreg q[2];\ncx q[0];\n").unwrap_err();
        assert!(err.message.contains("takes 2 operand(s)"));
    }

    #[test]
    fn bad_angle_rejected() {
        let err = parse("qreg q[1];\nrz(two) q[0];\n").unwrap_err();
        assert!(err.message.contains("bad angle"));
        let err = parse("qreg q[1];\nrz() q[0];\n").unwrap_err();
        assert!(err.message.contains("bad angle"));
    }

    #[test]
    fn non_finite_angle_rejected() {
        for expr in ["inf", "-inf", "NaN", "nan", "pi/0", "1e308*1e308", "0/0"] {
            let err = parse(&format!("qreg q[1];\nrz({expr}) q[0];\n")).unwrap_err();
            assert!(
                err.message.contains("not finite"),
                "{expr}: {}",
                err.message
            );
            assert_eq!(err.line, 4, "{expr}");
        }
    }

    #[test]
    fn formal_params_rejected_by_concrete_parser() {
        let err = parse("qreg q[1];\nrz(theta0) q[0];\n").unwrap_err();
        assert!(err.message.contains("parametric parser"), "{}", err.message);
    }

    #[test]
    fn parametric_program_parses_to_skeleton() {
        let src = format!(
            "{HEADER}qreg q[3];\nh q[0];\nrz(theta0) q[0];\ncx q[0], q[1];\n\
             rx(theta1) q[1];\nrz(pi/2) q[2];\nrz(theta0) q[2];\n"
        );
        let s = parse_parametric_qasm(&src).unwrap();
        assert_eq!(s.n_qubits(), 3);
        assert_eq!(s.n_params(), 2);
        assert_eq!(s.site_count(), 3);
        let pi = std::f64::consts::PI;
        let c = s.bind(&[0.25, -0.5]);
        assert_eq!(
            c.gates(),
            &[
                Gate::h(0),
                Gate::rz(0.25, 0),
                Gate::cx(0, 1),
                Gate::single(SingleQubitKind::Rx(-0.5), 1),
                Gate::rz(pi / 2.0, 2),
                Gate::rz(0.25, 2),
            ]
        );
    }

    #[test]
    fn parametric_rotations_broadcast_sharing_the_param() {
        let src = format!("{HEADER}qreg q[2];\nry(theta3) q;\n");
        let s = parse_parametric_qasm(&src).unwrap();
        assert_eq!(s.n_params(), 4);
        assert_eq!(s.site_count(), 2);
        let c = s.bind(&[0.0, 0.0, 0.0, 1.5]);
        assert_eq!(
            c.gates(),
            &[
                Gate::single(SingleQubitKind::Ry(1.5), 0),
                Gate::single(SingleQubitKind::Ry(1.5), 1),
            ]
        );
    }

    #[test]
    fn parametric_parser_still_accepts_concrete_programs() {
        let src = format!("{HEADER}qreg q[2];\nh q[0];\ncx q[0], q[1];\nrz(0.5) q[0];\n");
        let s = parse_parametric_qasm(&src).unwrap();
        assert_eq!(s.n_params(), 0);
        assert_eq!(s.bind(&[]), parse_qasm(&src).unwrap());
    }

    #[test]
    fn oversized_param_id_rejected() {
        let src = format!("{HEADER}qreg q[1];\nrz(theta9999999) q[0];\n");
        let err = parse_parametric_qasm(&src).unwrap_err();
        assert!(err.message.contains("exceeds the limit"), "{}", err.message);
    }

    #[test]
    fn theta_like_identifiers_are_not_params() {
        // `thetaX`, bare `theta`, and signed spellings are ordinary (bad)
        // angle expressions, not formal parameters.
        for expr in ["theta", "thetaX", "-theta0", "theta0x"] {
            let src = format!("{HEADER}qreg q[1];\nrz({expr}) q[0];\n");
            let err = parse_parametric_qasm(&src).unwrap_err();
            assert!(err.message.contains("bad angle"), "{expr}: {}", err.message);
        }
    }

    #[test]
    fn billion_qubit_qreg_rejected_with_line() {
        let err = parse("qreg ok[2];\nqreg q[1000000000];\n").unwrap_err();
        assert!(err.message.contains("limit"), "{}", err.message);
        assert_eq!(err.line, 4, "the oversized declaration's own line");
        // The parametric parser enforces the same default cap.
        let err = parse_parametric_qasm("OPENQASM 2.0;\nqreg q[1000000000];\n").unwrap_err();
        assert!(err.message.contains("limit"), "{}", err.message);
    }

    #[test]
    fn qubit_cap_boundary_is_exact() {
        let at = format!("{HEADER}qreg q[{DEFAULT_MAX_QUBITS}];\n");
        assert_eq!(
            parse_qasm(&at).unwrap().n_qubits(),
            DEFAULT_MAX_QUBITS,
            "exactly at the cap is accepted"
        );
        let over = format!("{HEADER}qreg q[{}];\n", DEFAULT_MAX_QUBITS + 1);
        assert!(parse_qasm(&over).is_err(), "one past the cap is rejected");
        // Tighter explicit bounds behave the same way.
        let at8 = format!("{HEADER}qreg q[8];\n");
        assert!(parse_qasm_bounded(&at8, 8).is_ok());
        assert!(parse_qasm_bounded(&at8, 7).is_err());
        assert!(parse_parametric_qasm_bounded(&at8, 8).is_ok());
        assert!(parse_parametric_qasm_bounded(&at8, 7).is_err());
    }

    #[test]
    fn qubit_cap_applies_to_the_register_sum() {
        // Each register is fine alone; the sum crosses the bound at the
        // second declaration, which is the line reported.
        let src = format!("{HEADER}qreg a[5];\nqreg b[4];\n");
        let err = parse_qasm_bounded(&src, 8).unwrap_err();
        assert!(err.message.contains("`b`"), "{}", err.message);
        assert_eq!(err.line, 4);
        assert_eq!(parse_qasm_bounded(&src, 9).unwrap().n_qubits(), 9);
        // Two huge registers must not overflow the running total.
        let huge = format!("{HEADER}qreg a[{0}];\nqreg b[{0}];\n", usize::MAX / 2 + 1);
        assert!(parse_qasm_bounded(&huge, usize::MAX).is_err());
    }

    #[test]
    fn gate_cap_admits_a_program_exactly_at_the_cap() {
        // 2 + 3 (cz lowers to three gates) + 4 (broadcast) = 9 gates.
        let src = format!("{HEADER}qreg q[4];\nh q[0];\nx q[1];\ncz q[0], q[1];\nh q;\n");
        let c: Circuit = parse_qasm_limited(&src, 4, Some(9)).unwrap();
        assert_eq!(c.len(), 9);
        assert_eq!(c, parse_qasm(&src).unwrap());
        let s: ParametricCircuit = parse_qasm_limited(&src, 4, Some(9)).unwrap();
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn gate_cap_fails_on_the_line_that_crosses_it() {
        let src = format!("{HEADER}qreg q[4];\nh q[0];\nx q[1];\ncz q[0], q[1];\nh q;\n");
        for (cap, line) in [(8, 7), (5, 7), (4, 6), (2, 6), (1, 5), (0, 4)] {
            let err = parse_qasm_limited::<Circuit>(&src, 4, Some(cap)).unwrap_err();
            assert_eq!(err.line, line, "cap {cap}");
            assert_eq!(
                err.message,
                format!("program exceeds the limit of {cap} gates")
            );
            let err = parse_qasm_limited::<ParametricCircuit>(&src, 4, Some(cap)).unwrap_err();
            assert_eq!(err.line, line, "parametric, cap {cap}");
        }
    }

    #[test]
    fn gate_cap_stops_broadcast_amplification() {
        // 4 bytes of `h q;` per 256 gates: the cap, not the circuit's
        // length after the fact, must stop the parse.
        let mut src = format!("{HEADER}qreg q[256];\n");
        for _ in 0..1000 {
            src.push_str("h q;\n");
        }
        let err = parse_qasm_limited::<Circuit>(&src, 256, Some(100_000)).unwrap_err();
        assert_eq!(
            err.line,
            3 + 100_000 / 256 + 1,
            "the 391st broadcast crosses the cap"
        );
        // Semantic errors in the crossing statement still come first.
        let bad = format!("{HEADER}qreg q[2];\nh q;\nh r;\n");
        let err = parse_qasm_limited::<Circuit>(&bad, 2, Some(2)).unwrap_err();
        assert!(
            err.message.contains("undeclared register"),
            "{}",
            err.message
        );
    }

    #[test]
    fn unterminated_tail_outranks_the_gate_cap() {
        let src = format!("{HEADER}qreg q[2];\nh q;\nh q[0]");
        let err = parse_qasm_limited::<Circuit>(&src, 2, Some(1)).unwrap_err();
        assert!(err.message.contains("not terminated"), "{}", err.message);
        assert_eq!(err.line, 5);
    }

    #[test]
    fn parse_index_accepts_what_usize_parse_accepts() {
        let max = usize::MAX.to_string();
        let over = format!("{max}0");
        for text in [
            "0", "7", "+7", "007", "+", "", "-0", "-1", "++1", "1+", " 1", "1 ", "1_0", "0x1", "١",
            &max, &over,
        ] {
            assert_eq!(parse_index(text), text.parse::<usize>().ok(), "{text:?}");
        }
    }

    #[test]
    fn trim_matches_str_trim() {
        for text in [
            "",
            " ",
            "q",
            " q",
            "q ",
            "\tq[0]\r",
            "\u{a0}q",
            "q\u{2003}",
            " \u{b}q",
            "\u{1}q ",
            "a b",
            " é ",
            "\u{85}",
        ] {
            assert_eq!(trim(text), text.trim(), "{text:?}");
        }
    }

    #[test]
    fn error_display_includes_line() {
        let err = parse("qreg q[1];\nbadgate q[0];\n").unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("line 4"), "{text}");
    }
}
