//! The `qompress-cli` binary end to end: a program wider than the
//! strategy can place is refused with exit code 2 and the capacity
//! sentence the wire service answers, instead of a mapping panic.

use std::process::Command;

#[test]
fn oversized_program_exits_2_with_the_capacity_sentence() {
    let out = Command::new(env!("CARGO_BIN_EXE_qompress-cli"))
        .args([
            "--benchmark",
            "cuccaro",
            "--size",
            "70",
            "--topology",
            "heavy-hex",
            "--strategy",
            "qubit-only",
        ])
        .output()
        .expect("run qompress-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("program has 70 qubits but qubit-only places at most 65 on `heavy-hex-65`"),
        "stderr: {stderr}"
    );
}
