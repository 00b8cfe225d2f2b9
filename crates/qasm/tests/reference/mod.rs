//! The original OpenQASM parser, kept verbatim as the reference the one-pass
//! parser is pinned against (see `parser_differential.rs`). It splits the
//! source into owned statement strings first, then parses each one into
//! freshly allocated operand and gate vectors, then copies the gates into
//! a skeleton and binds it. Only the error constructor differs from the
//! original: `QasmError::new` is crate-private, so errors are built from
//! the public fields.

use qompress_circuit::{
    Circuit, Gate, ParamId, ParametricCircuit, ParametricGate, RotationAxis, SingleQubitKind,
};
use qompress_qasm::QasmError;

/// `QasmError::new` is crate-private; the error's fields are public.
fn qasm_error(line: usize, message: impl Into<String>) -> QasmError {
    QasmError {
        line,
        message: message.into(),
    }
}

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

/// One `;`-terminated statement with the line it started on.
struct Statement {
    text: String,
    line: usize,
}

/// A declared quantum register: offset into the flattened qubit space.
struct QReg {
    name: String,
    offset: usize,
    size: usize,
}

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
/// default). The wire service parses untrusted programs through this
/// with its configured limit.
///
/// # Errors
///
/// Everything [`parse_qasm`] rejects, plus any `qreg` declaration that
/// pushes the running qubit total past `max_qubits` — reported with that
/// declaration's line number, before any circuit storage is sized.
pub fn parse_qasm_bounded(source: &str, max_qubits: usize) -> Result<Circuit, QasmError> {
    // `allow_params = false` guarantees a zero-parameter skeleton, so the
    // empty bind is total and just moves the gates into a `Circuit`.
    Ok(parse_program(source, false, max_qubits)?.bind(&[]))
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
    parse_program(source, true, max_qubits)
}

/// The shared parse loop behind [`parse_qasm`] and
/// [`parse_parametric_qasm`]; `allow_params` gates whether `theta<id>`
/// spellings are accepted as formal parameters.
fn parse_program(
    source: &str,
    allow_params: bool,
    max_qubits: usize,
) -> Result<ParametricCircuit, QasmError> {
    let statements = split_statements(source)?;
    let mut qregs: Vec<QReg> = Vec::new();
    let mut n_qubits = 0usize;
    // Gates are collected before the circuit is sized: declarations may
    // appear between gates (each gate sees the registers declared so far,
    // per QASM's declare-before-use rule), so the final qubit count is
    // only known after the whole program is read.
    let mut gates: Vec<(ParametricGate, usize)> = Vec::new();
    let mut saw_header = false;

    for stmt in &statements {
        let text = stmt.text.as_str();
        let line = stmt.line;
        let (keyword, rest) = split_keyword(text);
        if !saw_header {
            if keyword != "OPENQASM" {
                return Err(qasm_error(line, "expected `OPENQASM 2.0;` header"));
            }
            if rest.trim() != "2.0" {
                return Err(qasm_error(
                    line,
                    format!("unsupported OPENQASM version `{}`", rest.trim()),
                ));
            }
            saw_header = true;
            continue;
        }
        match keyword {
            "OPENQASM" => {
                return Err(qasm_error(line, "duplicate OPENQASM header"));
            }
            "include" => {} // headers carry no semantics for this subset
            "creg" => {}    // classical registers are ignored
            "barrier" => {} // scheduling hint; the compiler re-schedules anyway
            "qreg" => {
                let (name, size) = parse_declaration(rest, line)?;
                if qregs.iter().any(|r| r.name == name) {
                    return Err(qasm_error(line, format!("duplicate register `{name}`")));
                }
                // Checked *before* the running total grows (and with
                // overflow-safe arithmetic), so a hostile `qreg
                // q[1000000000];` is rejected here — nothing downstream
                // ever sees the huge count, let alone allocates for it.
                let total = n_qubits.checked_add(size).filter(|&t| t <= max_qubits);
                let Some(total) = total else {
                    return Err(qasm_error(
                        line,
                        format!(
                            "register `{name}` of size {size} pushes the program past \
                             the limit of {max_qubits} qubits"
                        ),
                    ));
                };
                qregs.push(QReg {
                    name,
                    offset: n_qubits,
                    size,
                });
                n_qubits = total;
            }
            "measure" | "reset" | "gate" | "if" | "opaque" => {
                return Err(qasm_error(
                    line,
                    format!("unsupported statement `{keyword}` (subset parser)"),
                ));
            }
            "" => {
                return Err(qasm_error(line, "empty statement"));
            }
            _ => {
                for gate in parse_gate(keyword, rest, &qregs, line, allow_params)? {
                    gates.push((gate, line));
                }
            }
        }
    }
    if !saw_header {
        return Err(qasm_error(1, "expected `OPENQASM 2.0;` header"));
    }

    let mut skeleton = ParametricCircuit::new(n_qubits);
    for (gate, _line) in gates {
        // Operands were validated against the register table above, so the
        // pushes cannot panic.
        match gate {
            ParametricGate::Fixed(g) => skeleton.push(g),
            ParametricGate::Rotation { axis, param, qubit } => {
                skeleton.push_param(axis, param, qubit)
            }
        }
    }
    Ok(skeleton)
}

/// Strips comments and splits the source into `;`-terminated statements.
fn split_statements(source: &str) -> Result<Vec<Statement>, QasmError> {
    let mut statements = Vec::new();
    let mut current = String::new();
    let mut start_line = 1usize;
    for (lineno, raw) in source.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("");
        for ch in line.chars() {
            if ch == ';' {
                let text = current.trim().to_string();
                if !text.is_empty() {
                    statements.push(Statement {
                        text,
                        line: start_line,
                    });
                }
                current.clear();
            } else {
                if current.trim().is_empty() && !ch.is_whitespace() {
                    start_line = lineno + 1;
                }
                current.push(ch);
            }
        }
        current.push(' ');
    }
    if !current.trim().is_empty() {
        return Err(qasm_error(
            start_line,
            format!("statement not terminated by `;`: `{}`", current.trim()),
        ));
    }
    Ok(statements)
}

/// Splits a statement into its leading keyword and the remainder.
fn split_keyword(text: &str) -> (&str, &str) {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .unwrap_or(text.len());
    (&text[..end], &text[end..])
}

/// Parses `name[size]` from a qreg/creg declaration.
fn parse_declaration(rest: &str, line: usize) -> Result<(String, usize), QasmError> {
    let rest = rest.trim();
    let (name, idx) = split_indexed(rest, line)?;
    if name.is_empty() {
        return Err(qasm_error(line, "register declaration needs a name"));
    }
    if idx == 0 {
        return Err(qasm_error(line, "register size must be positive"));
    }
    Ok((name.to_string(), idx))
}

/// Parses `name[index]`, rejecting anything else.
fn split_indexed(text: &str, line: usize) -> Result<(&str, usize), QasmError> {
    let text = text.trim();
    let open = text
        .find('[')
        .ok_or_else(|| qasm_error(line, format!("expected `name[index]`, got `{text}`")))?;
    let close = text
        .rfind(']')
        .filter(|&c| c == text.len() - 1 && c > open)
        .ok_or_else(|| qasm_error(line, format!("unbalanced brackets in `{text}`")))?;
    let name = text[..open].trim();
    if !is_identifier(name) {
        return Err(qasm_error(line, format!("bad identifier `{name}`")));
    }
    let idx: usize = text[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| qasm_error(line, format!("bad index in `{text}`")))?;
    Ok((name, idx))
}

fn is_identifier(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_lowercase() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One resolved gate operand: a single qubit (`q[3]`) or a whole-register
/// broadcast (`q`), which OpenQASM applies element-wise.
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
    fn qubits(&self) -> std::ops::Range<usize> {
        match *self {
            Operand::One(q) => q..q + 1,
            Operand::All { offset, size } => offset..offset + size,
        }
    }
}

/// Resolves `name[index]` to a flattened qubit index, or a bare declared
/// register name to a broadcast over its qubits.
fn resolve_operand(text: &str, qregs: &[QReg], line: usize) -> Result<Operand, QasmError> {
    let text = text.trim();
    let lookup = |name: &str| -> Result<&QReg, QasmError> {
        qregs
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| qasm_error(line, format!("undeclared register `{name}`")))
    };
    if !text.contains('[') {
        if !is_identifier(text) {
            return Err(qasm_error(
                line,
                format!("expected `name[index]` or a register name, got `{text}`"),
            ));
        }
        let reg = lookup(text)?;
        return Ok(Operand::All {
            offset: reg.offset,
            size: reg.size,
        });
    }
    let (name, idx) = split_indexed(text, line)?;
    let reg = lookup(name)?;
    if idx >= reg.size {
        return Err(qasm_error(
            line,
            format!("index {idx} out of range for `{name}[{}]`", reg.size),
        ));
    }
    Ok(Operand::One(reg.offset + idx))
}

/// Parses one gate application, possibly lowering to several gates.
///
/// Concrete gates come back as [`ParametricGate::Fixed`]; with
/// `allow_params` set, `theta<id>` rotation arguments become
/// [`ParametricGate::Rotation`] sites.
fn parse_gate(
    name: &str,
    rest: &str,
    qregs: &[QReg],
    line: usize,
    allow_params: bool,
) -> Result<Vec<ParametricGate>, QasmError> {
    let rest = rest.trim();
    // Optional parenthesized parameter list.
    let (params, operands_text) = if let Some(stripped) = rest.strip_prefix('(') {
        let close = stripped
            .find(')')
            .ok_or_else(|| qasm_error(line, "unclosed parameter list"))?;
        (Some(stripped[..close].trim()), stripped[close + 1..].trim())
    } else {
        (None, rest)
    };
    let operands: Vec<Operand> = operands_text
        .split(',')
        .map(|op| resolve_operand(op, qregs, line))
        .collect::<Result<_, _>>()?;

    let arity = |want: usize| -> Result<(), QasmError> {
        if operands.len() == want {
            Ok(())
        } else {
            Err(qasm_error(
                line,
                format!("`{name}` takes {want} operand(s), got {}", operands.len()),
            ))
        }
    };
    let no_params = |gates: Vec<Gate>| -> Result<Vec<ParametricGate>, QasmError> {
        if params.is_some() {
            Err(qasm_error(line, format!("`{name}` takes no parameters")))
        } else {
            Ok(gates.into_iter().map(ParametricGate::Fixed).collect())
        }
    };
    // Two-qubit gates take exactly one qubit per operand: whole-register
    // broadcast is a single-qubit-gate convenience in this subset.
    let two_distinct = || -> Result<(usize, usize), QasmError> {
        arity(2)?;
        let (a, b) = match (&operands[0], &operands[1]) {
            (Operand::One(a), Operand::One(b)) => (*a, *b),
            _ => {
                return Err(qasm_error(
                    line,
                    format!(
                        "`{name}` does not support whole-register broadcast \
                         (single-qubit gates only)"
                    ),
                ))
            }
        };
        if a == b {
            Err(qasm_error(
                line,
                format!("`{name}` addresses the same qubit twice"),
            ))
        } else {
            Ok((a, b))
        }
    };
    // Single-qubit gates broadcast: `h q;` applies `h` to every qubit of
    // `q` in register order.
    let fixed_1q = |kind: SingleQubitKind| -> Result<Vec<ParametricGate>, QasmError> {
        arity(1)?;
        no_params(
            operands[0]
                .qubits()
                .map(|q| Gate::single(kind, q))
                .collect(),
        )
    };
    let rotation_1q = |axis: RotationAxis| -> Result<Vec<ParametricGate>, QasmError> {
        arity(1)?;
        let text =
            params.ok_or_else(|| qasm_error(line, format!("`{name}` needs an angle parameter")))?;
        if let Some(param) = parse_formal_param(text) {
            if !allow_params {
                return Err(qasm_error(
                    line,
                    format!(
                        "formal parameter `{}` is only accepted by the \
                         parametric parser",
                        text.trim()
                    ),
                ));
            }
            if param >= MAX_PARAM_ID {
                return Err(qasm_error(
                    line,
                    format!("parameter id {param} exceeds the limit of {MAX_PARAM_ID}"),
                ));
            }
            // Rotations broadcast like every single-qubit gate; broadcast
            // sites share the formal parameter (and thus the bound angle).
            return Ok(operands[0]
                .qubits()
                .map(|qubit| ParametricGate::Rotation { axis, param, qubit })
                .collect());
        }
        let angle = parse_angle(text, line)?;
        Ok(operands[0]
            .qubits()
            .map(|q| ParametricGate::Fixed(Gate::single(axis.kind(angle), q)))
            .collect())
    };
    match name {
        "x" => fixed_1q(SingleQubitKind::X),
        "y" => fixed_1q(SingleQubitKind::Y),
        "z" => fixed_1q(SingleQubitKind::Z),
        "h" => fixed_1q(SingleQubitKind::H),
        "s" => fixed_1q(SingleQubitKind::S),
        "sdg" => fixed_1q(SingleQubitKind::Sdg),
        "t" => fixed_1q(SingleQubitKind::T),
        "tdg" => fixed_1q(SingleQubitKind::Tdg),
        "rx" => rotation_1q(RotationAxis::Rx),
        "ry" => rotation_1q(RotationAxis::Ry),
        "rz" => rotation_1q(RotationAxis::Rz),
        "cx" | "CX" => {
            let (c, t) = two_distinct()?;
            no_params(vec![Gate::cx(c, t)])
        }
        "cz" => {
            let (c, t) = two_distinct()?;
            // CZ = (I⊗H)·CX·(I⊗H): lowered into the compiler's gate set.
            no_params(vec![Gate::h(t), Gate::cx(c, t), Gate::h(t)])
        }
        "swap" => {
            let (a, b) = two_distinct()?;
            no_params(vec![Gate::swap(a, b)])
        }
        _ => Err(qasm_error(line, format!("unknown gate `{name}`"))),
    }
}

/// Recognizes a formal parameter spelling `theta<decimal id>`.
///
/// Anything else (including `theta` with no digits or with a sign) is not
/// a formal parameter and falls through to concrete angle evaluation.
fn parse_formal_param(text: &str) -> Option<ParamId> {
    let digits = text.trim().strip_prefix("theta")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Evaluates an angle expression: `['-'] factor (('*'|'/') factor)*` where
/// a factor is a float literal or `pi`.
fn parse_angle(text: &str, line: usize) -> Result<f64, QasmError> {
    let text = text.trim();
    let bad = || qasm_error(line, format!("bad angle expression `{text}`"));
    let (negated, body) = match text.strip_prefix('-') {
        Some(b) => (true, b.trim()),
        None => (false, text),
    };
    if body.is_empty() {
        return Err(bad());
    }
    let mut value = 1.0f64;
    let mut op = '*';
    let mut rest = body;
    loop {
        let end = rest.find(['*', '/']).unwrap_or(rest.len());
        let factor_text = rest[..end].trim();
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
        if rest.trim().is_empty() {
            return Err(bad());
        }
    }
    let value = if negated { -value } else { value };
    // `f64::parse` happily accepts `inf`/`NaN` literals, and division by
    // zero (`pi/0`) overflows to infinity. A non-finite angle would poison
    // fingerprints and routing costs downstream, so reject it here with
    // the offending line.
    if !value.is_finite() {
        return Err(qasm_error(
            line,
            format!("angle expression `{text}` is not finite"),
        ));
    }
    Ok(value)
}
