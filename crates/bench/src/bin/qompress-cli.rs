//! Command-line front end: compile a benchmark circuit with any strategy
//! on any of the paper's architectures and print the evaluation report.
//!
//! ```text
//! qompress-cli --benchmark cuccaro --size 12 --strategy eqm --topology grid
//! qompress-cli --benchmark qaoa-torus --size 25 --strategy rb --gates
//! qompress-cli --list
//! ```

use qompress::{Compiler, CompilerConfig, Strategy};
use qompress_arch::Topology;
use qompress_workloads::{build, Benchmark, ALL_BENCHMARKS};

struct Args {
    benchmark: Benchmark,
    size: usize,
    strategy: Strategy,
    topology: String,
    seed: u64,
    t1_ratio: f64,
    show_gates: bool,
    show_timeline: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: qompress-cli [--benchmark NAME] [--size N] [--strategy NAME]\n\
         \x20                  [--topology grid|heavy-hex|ring] [--seed N]\n\
         \x20                  [--t1-ratio X] [--gates] [--timeline] [--list]\n\n\
         benchmarks: {}\n\
         strategies: qubit-only, eqm, rb, awe, pp, ec, ec-unordered, fq",
        ALL_BENCHMARKS
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_benchmark(s: &str) -> Option<Benchmark> {
    ALL_BENCHMARKS.iter().copied().find(|b| b.name() == s)
}

fn parse_args() -> Args {
    let mut args = Args {
        benchmark: Benchmark::Cuccaro,
        size: 12,
        strategy: Strategy::Eqm,
        topology: "grid".into(),
        seed: 7,
        t1_ratio: 3.0,
        show_gates: false,
        show_timeline: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--benchmark" | "-b" => {
                let v = value(&mut i);
                args.benchmark = parse_benchmark(&v).unwrap_or_else(|| usage());
            }
            "--size" | "-n" => {
                args.size = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--strategy" | "-s" => {
                let v = value(&mut i);
                args.strategy = Strategy::from_name(&v).unwrap_or_else(|| usage());
            }
            "--topology" | "-t" => args.topology = value(&mut i),
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--t1-ratio" => {
                args.t1_ratio = value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--gates" | "-g" => args.show_gates = true,
            "--timeline" => args.show_timeline = true,
            "--list" => {
                for b in ALL_BENCHMARKS {
                    println!("{} (min size {})", b.name(), b.min_size());
                }
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let size = args.size.max(args.benchmark.min_size());
    let circuit = build(args.benchmark, size, args.seed);
    let topology = match args.topology.as_str() {
        "grid" => Topology::grid(size),
        "heavy-hex" => Topology::heavy_hex_65(),
        "ring" => Topology::ring(size.max(3)),
        _ => usage(),
    };
    let config = CompilerConfig::paper().with_t1_ratio(args.t1_ratio);

    // Mapping panics on a program wider than the strategy can place, so
    // refuse it up front with the sentence the wire service answers.
    let max = args.strategy.max_qubits(topology.n_nodes());
    if circuit.n_qubits() > max {
        eprintln!(
            "program has {} qubits but {} places at most {max} on `{}`",
            circuit.n_qubits(),
            args.strategy,
            topology.name()
        );
        std::process::exit(2);
    }

    println!(
        "benchmark {} @ {} qubits ({} gates, {} two-qubit) on {}",
        args.benchmark.name(),
        circuit.n_qubits(),
        circuit.len(),
        circuit.two_qubit_gate_count(),
        topology,
    );

    let session = Compiler::builder().config(config).caching(false).build();
    let result = session.compile(&circuit, &topology, args.strategy);
    let problems = result.schedule.validate(&topology);
    assert!(problems.is_empty(), "internal error: {problems:?}");
    print!("{result}");
    println!("  active units: {}", result.active_units());
    println!(
        "  residency: {:.0} ns qubit-state, {:.0} ns ququart-state",
        result.metrics.qubit_state_ns, result.metrics.ququart_state_ns
    );
    if !result.pairs.is_empty() {
        println!("  pairs: {:?}", result.pairs);
    }

    if args.show_gates {
        println!("\ngate mix:");
        for (class, count) in &result.metrics.gate_counts {
            println!("  {:<8} {count}", class.paper_name());
        }
    }

    if args.show_timeline {
        let stats = qompress::parallelism_stats(&result.schedule);
        println!(
            "\nutilization {:.2}, mean parallelism {:.2}, {} active units",
            stats.utilization, stats.mean_parallelism, stats.active_units
        );
        print!("{}", qompress::render_timeline(&result.schedule, 72));
    }
}
