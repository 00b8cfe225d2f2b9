//! Differential pin of the one-pass parser against the original parser kept
//! verbatim in `reference/`.
//!
//! The rewrite changes how the source is walked (no statement strings,
//! operand vectors or per-gate allocations), never what it means: on
//! every input both parsers must return the identical `Result` — the same
//! circuit or skeleton down to the angle bits, or the same error line and
//! message. That includes the original's precedence, where an unterminated
//! trailing statement is reported before an error in any earlier one.
//!
//! Inputs: serializer output of random circuits and skeletons, broadcast
//! programs, a token soup built from the grammar's own pieces (comments,
//! CRLF and bare CR, Unicode blanks, statements split across lines), the
//! fuzz suite's byte soup, single-byte mutations and truncations.

mod reference;

use proptest::prelude::*;
use qompress_circuit::{Circuit, ParametricCircuit};
use qompress_qasm::{
    parse_parametric_qasm_bounded, parse_qasm_bounded, parse_qasm_limited, random_circuit,
    random_parametric_circuit, to_parametric_qasm, to_qasm,
};

/// Qubit caps every input is parsed under besides the default: loose,
/// and tight enough to trip on the generators' registers.
const QUBIT_CAPS: [usize; 3] = [256, 5, 0];

/// Both dialects, under every qubit cap, must agree with the reference.
/// Results compare by their `Debug` rendering so `-0.0` and `0.0` angles
/// count as different.
fn agree(text: &str) -> Result<(), TestCaseError> {
    let (new, old) = (qompress_qasm::parse_qasm(text), reference::parse_qasm(text));
    prop_assert_eq!(format!("{new:?}"), format!("{old:?}"), "concrete");
    let (new, old) = (
        qompress_qasm::parse_parametric_qasm(text),
        reference::parse_parametric_qasm(text),
    );
    prop_assert_eq!(format!("{new:?}"), format!("{old:?}"), "parametric");
    for cap in QUBIT_CAPS {
        let (new, old) = (
            parse_qasm_bounded(text, cap),
            reference::parse_qasm_bounded(text, cap),
        );
        prop_assert_eq!(
            format!("{new:?}"),
            format!("{old:?}"),
            "concrete, cap {}",
            cap
        );
        let (new, old) = (
            parse_parametric_qasm_bounded(text, cap),
            reference::parse_parametric_qasm_bounded(text, cap),
        );
        prop_assert_eq!(
            format!("{new:?}"),
            format!("{old:?}"),
            "parametric, cap {}",
            cap
        );
    }
    Ok(())
}

/// The gate cap against the reference: a cap at or above the reference
/// circuit's length changes nothing, and one gate below it fails with the
/// cap's message.
fn agree_under_gate_cap(text: &str) -> Result<(), TestCaseError> {
    let Ok(circuit) = reference::parse_qasm_bounded(text, QUBIT_CAPS[0]) else {
        return Ok(());
    };
    let len = circuit.len();
    let at: Result<Circuit, _> = parse_qasm_limited(text, QUBIT_CAPS[0], Some(len));
    prop_assert_eq!(at, Ok(circuit));
    if len > 0 {
        let err = parse_qasm_limited::<Circuit>(text, QUBIT_CAPS[0], Some(len - 1)).unwrap_err();
        prop_assert_eq!(
            err.message,
            format!("program exceeds the limit of {} gates", len - 1)
        );
    }
    if let Ok(skeleton) = reference::parse_parametric_qasm_bounded(text, QUBIT_CAPS[0]) {
        let at: Result<ParametricCircuit, _> =
            parse_qasm_limited(text, QUBIT_CAPS[0], Some(skeleton.len()));
        prop_assert_eq!(at, Ok(skeleton));
    }
    Ok(())
}

/// Pieces of the grammar, glued at random by [`token_soup`]: keywords,
/// operands, punctuation, comments and every kind of blank the statement
/// splitter treats specially.
const TOKENS: &[&str] = &[
    "OPENQASM 2.0;",
    "OPENQASM",
    "2.0",
    "3.0",
    "include \"qelib1.inc\";",
    "qreg",
    "creg",
    "barrier",
    "measure",
    "q",
    "r",
    "q[0]",
    "q[1]",
    "q[3]",
    "r[0]",
    "q[9]",
    "[2]",
    "[",
    "]",
    "[0 ]",
    "[+1]",
    "h",
    "x",
    "sdg",
    "cx",
    "CX",
    "cz",
    "swap",
    "rz",
    "ry",
    "ccx",
    "(",
    ")",
    "(pi/2)",
    "(-pi)",
    "(theta0)",
    "(theta70000)",
    "(1e308*1e308)",
    "(0.5*pi/4)",
    "()",
    "pi",
    "theta2",
    "*",
    "/",
    "-",
    ",",
    ", ",
    ";",
    ";",
    ";",
    " ",
    " ",
    "\t",
    "\n",
    "\n",
    "\r\n",
    "\r",
    "\u{0b}",
    "\u{a0}",
    "\u{2028}",
    "é",
    "//",
    "// note;",
    "/",
    "qreg q[4];",
    "qreg r[2];",
    "h q;",
    "cx q[0], q[1];",
    "rz(theta1) q;",
];

/// A program of random grammar pieces, separated by nothing or a blank.
fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..TOKENS.len(), 0usize..3), 0..40).prop_map(|picks| {
        let mut text = String::new();
        for (token, sep) in picks {
            text.push_str(TOKENS[token]);
            text.push_str(["", " ", "\n"][sep]);
        }
        text
    })
}

/// A program of broadcast and indexed gate statements over two registers,
/// one of them declared mid-program, with statements that span lines and
/// trailing comments.
fn broadcast_program() -> impl Strategy<Value = String> {
    (
        1usize..6,
        1usize..4,
        proptest::collection::vec((0usize..12, 0usize..4, 0usize..4), 0..16),
    )
        .prop_map(|(n, m, statements)| {
            const GATES: [&str; 12] = [
                "h",
                "x",
                "t",
                "tdg",
                "rz(pi/3)",
                "ry(theta1)",
                "rx(-0.5)",
                "cx",
                "cz",
                "swap",
                "s",
                "y",
            ];
            let mut text = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\n");
            for (i, (gate, a, b)) in statements.into_iter().enumerate() {
                if i == 3 {
                    text.push_str(&format!("qreg r[{m}]; // late register\n"));
                }
                let operand = |pick: usize| match pick {
                    0 => "q".to_string(),
                    1 => "r".to_string(),
                    2 => format!("q[{}]", i % (n + 1)),
                    _ => format!("r[{}]", i % (m + 1)),
                };
                let name = GATES[gate];
                let operands = if (7..=9).contains(&gate) {
                    format!("{}, {}", operand(a), operand(b))
                } else {
                    operand(a)
                };
                // Every fifth statement breaks across a line.
                let sep = if i % 5 == 4 { "\n  " } else { " " };
                text.push_str(&format!("{name}{sep}{operands};\n"));
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn serializer_output_parses_identically(
        n in 1usize..9,
        gates in 0usize..60,
        params in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let text = to_qasm(&random_circuit(n, gates, seed));
        agree(&text)?;
        agree_under_gate_cap(&text)?;
        let text = to_parametric_qasm(&random_parametric_circuit(n, gates, params, seed));
        agree(&text)?;
        agree_under_gate_cap(&text)?;
    }

    #[test]
    fn broadcast_programs_parse_identically(text in broadcast_program()) {
        agree(&text)?;
        agree_under_gate_cap(&text)?;
    }

    #[test]
    fn token_soup_parses_identically(text in token_soup()) {
        agree(&text)?;
        agree(&format!("OPENQASM 2.0;\nqreg q[4];\n{text}"))?;
        agree_under_gate_cap(&format!("OPENQASM 2.0;\nqreg q[4];\n{text}"))?;
    }

    #[test]
    fn byte_soup_parses_identically(
        bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..512),
    ) {
        agree(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_programs_parse_identically(
        n in 1usize..7,
        gates in 0usize..30,
        seed in 0u64..10_000,
        at in 0usize..10_000,
        with in (0u16..256).prop_map(|b| b as u8),
    ) {
        let mut bytes = to_qasm(&random_circuit(n, gates, seed)).into_bytes();
        let at = at % bytes.len();
        bytes[at] = with;
        agree(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn truncated_programs_parse_identically(
        n in 1usize..6,
        gates in 0usize..20,
        params in 0usize..4,
        seed in 0u64..500,
        cut in 0usize..10_000,
    ) {
        let text = to_parametric_qasm(&random_parametric_circuit(n, gates, params, seed));
        let cut = cut % (text.len() + 1);
        agree(&text[..cut])?;
    }
}

#[test]
fn statement_splitting_corner_cases_agree() {
    // Hand-picked inputs around the splitter: blank and empty statements,
    // comments, CRLF and bare CR, a final line with and without its
    // newline, statements spanning lines, and unterminated tails behind
    // earlier errors.
    for text in [
        "",
        "\n",
        ";",
        " ; ;\n",
        "OPENQASM 2.0;",
        "OPENQASM 2.0;\n",
        "OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\n",
        "OPENQASM 2.0;\rqreg q[2];\rh q[0];\r",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0]\r",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],\n   q[1];\n",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0], // first\n q[1]; // second\n",
        "OPENQASM 2.0;\nqreg q[2];\nh // comment; not a terminator\n q[0];",
        "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\nh q[0]",
        "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];\nh\n q[0] // tail\n",
        "OPENQASM 3.0;\nh q",
        "qreg q[1];\nh q[0]\n\n   \n",
        "OPENQASM 2.0;\nqreg q[2];\nh q[\n0\n];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh q[x\r\n];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh q[x\r];\n",
        "OPENQASM 2.0;\nqreg q[2];\n\u{a0}h q[0];\u{2028}x q[1];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh\u{0b}q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\n///\nh q[0];//;\n",
        "OPENQASM 2.0;\nqreg q[2];\nrz(pi/2)\nq[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\nrz(-0.0) q[0];\n",
    ] {
        agree(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    }
}

#[test]
fn operand_and_index_spellings_agree() {
    // Hand-picked spellings around the operand and index readers: signs,
    // leading zeros, overflow, blanks inside and around the brackets, and
    // non-ASCII blanks at a token's edge.
    let body = [
        "h q[007];",
        "h q[+1];",
        "h q[-0];",
        "h q[+];",
        "h q[];",
        "h q[ 1 ];",
        "h q [1];",
        "h q[1] ;",
        "h q[1]];",
        "h q[[1];",
        "h q[1]x;",
        "h q[18446744073709551615];",
        "h q[18446744073709551616];",
        "h q[1_0];",
        "h q\u{a0}[1];",
        "h \u{a0}q[1];",
        "h q[1]\u{2003};",
        "h q[\u{a0}1];",
        "cx q[0],q[1];",
        "cx q[0] ,q[1];",
        "cx q[0],\tq[1];",
        "cx q[0], q[1],;",
        "cx ,q[1];",
        "h Q[0];",
        "h _q[0];",
        "h q1[0];",
        "rz( pi / 2 ) q[0];",
        "rz(\u{a0}pi) q[0];",
        "rz(theta1 ) q[0];",
        "rz(+theta1) q[0];",
        "rz(pi) q[0]);",
        "rz(pi q[0];",
    ];
    for statement in body {
        let text = format!("OPENQASM 2.0;\nqreg q[4];\n{statement}\n");
        agree(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    }
}
