//! # qompress-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! Qompress paper's evaluation. Each `benches/*.rs` target (run via
//! `cargo bench`) prints the series the paper plots and writes a CSV under
//! `results/`. Shared machinery — the size sweeps, strategy sets, CSV
//! writer and relative-EPS helpers — lives here.
//!
//! Environment knobs: `QOMPRESS_QUICK=1` shrinks the sweeps for smoke
//! runs; `QOMPRESS_FULL=1` extends the expensive exhaustive-compression
//! sizes.

#![warn(missing_docs)]

use qompress::{CompilationResult, Compiler, CompilerConfig, Strategy};
use qompress_arch::Topology;
use qompress_circuit::Circuit;
use qompress_workloads::{build, Benchmark};
use std::io::Write as _;
use std::path::PathBuf;

/// The benchmark sizes swept by the figure harnesses.
pub fn sweep_sizes() -> Vec<usize> {
    if std::env::var_os("QOMPRESS_QUICK").is_some() {
        vec![5, 10, 15]
    } else {
        vec![5, 10, 15, 20, 25, 30, 35, 40]
    }
}

/// Sizes at which the exhaustive-compression line is evaluated (the paper's
/// EC line also "stops short for computational reasons", Figure 10).
pub fn ec_sizes() -> Vec<usize> {
    if std::env::var_os("QOMPRESS_QUICK").is_some() {
        vec![5, 10]
    } else if std::env::var_os("QOMPRESS_FULL").is_some() {
        vec![5, 10, 15, 20, 25]
    } else {
        vec![5, 10, 15, 20]
    }
}

/// The non-EC strategies plotted in Figures 7 and 10.
pub const LINE_STRATEGIES: [Strategy; 6] = [
    Strategy::QubitOnly,
    Strategy::FullQuquart,
    Strategy::Eqm,
    Strategy::RingBased,
    Strategy::Awe,
    Strategy::ProgressivePairing,
];

/// Clamps a requested size to a family's minimum and returns the circuit.
pub fn bench_circuit(bench: Benchmark, size: usize, seed: u64) -> Circuit {
    let size = size.max(bench.min_size());
    build(bench, size, seed)
}

/// Compiles one point of a sweep on the "just large enough" grid (§6.1),
/// on a caching-off session.
pub fn compile_point(
    bench: Benchmark,
    size: usize,
    strategy: Strategy,
    config: &CompilerConfig,
) -> CompilationResult {
    let size = size.max(bench.min_size());
    let circuit = bench_circuit(bench, size, 7);
    let topo = Topology::grid(size);
    let session = Compiler::builder()
        .config(config.clone())
        .caching(false)
        .build();
    std::sync::Arc::unwrap_or_clone(session.compile(&circuit, &topo, strategy))
}

/// A CSV file under `results/`, also echoed to stdout as aligned columns.
pub struct ResultSink {
    file: std::fs::File,
    columns: usize,
}

impl ResultSink {
    /// Creates `results/<name>.csv` with the given header.
    ///
    /// # Panics
    ///
    /// Panics when the results directory cannot be created or written.
    pub fn create(name: &str, header: &[&str]) -> Self {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path).expect("create csv");
        writeln!(file, "{}", header.join(",")).expect("write header");
        println!("# writing {}", path.display());
        println!("{}", header.join("\t"));
        ResultSink {
            file,
            columns: header.len(),
        }
    }

    /// Appends one row (stringified values).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch or I/O failure.
    pub fn row(&mut self, values: &[String]) {
        assert_eq!(values.len(), self.columns, "column mismatch");
        writeln!(self.file, "{}", values.join(",")).expect("write row");
        println!("{}", values.join("\t"));
    }
}

/// Root `results/` directory (workspace-relative).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results sit two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results")
}

/// Formats a float with fixed precision for CSV/table output.
pub fn fmt(x: f64) -> String {
    format!("{x:.6}")
}

/// `strategy EPS / qubit-only EPS` — the relative improvement the paper
/// plots. Returns 1.0 when the baseline is zero.
pub fn relative(value: f64, baseline: f64) -> f64 {
    if baseline > 0.0 {
        value / baseline
    } else {
        1.0
    }
}

/// Simple order statistics for the Figure 13 range plots.
///
/// # Panics
///
/// Panics on empty input.
pub fn min_median_max(values: &mut [f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = values[0];
    let max = values[values.len() - 1];
    let median = if values.len() % 2 == 1 {
        values[values.len() / 2]
    } else {
        0.5 * (values[values.len() / 2 - 1] + values[values.len() / 2])
    };
    (min, median, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_sorted_and_nonempty() {
        let s = sweep_sizes();
        assert!(!s.is_empty());
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn relative_handles_zero_baseline() {
        assert_eq!(relative(0.5, 0.0), 1.0);
        assert!((relative(0.4, 0.8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn order_statistics() {
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(min_median_max(&mut v), (1.0, 2.0, 3.0));
        let mut w = vec![4.0, 1.0, 2.0, 3.0];
        assert_eq!(min_median_max(&mut w), (1.0, 2.5, 4.0));
    }

    #[test]
    fn compile_point_respects_min_size() {
        let r = compile_point(
            Benchmark::QaoaTorus,
            5, // below min size 9: clamped
            Strategy::QubitOnly,
            &CompilerConfig::paper(),
        );
        assert!(r.metrics.total_eps > 0.0);
    }
}
