//! Inspection tool: dump a benchmark's 3-address code, its scheduled
//! program graph at any optimization level, or its dynamic op-class mix.
//!
//! ```text
//! cargo run -p asip-bench --bin dump -- fir            # 3-address code
//! cargo run -p asip-bench --bin dump -- fir --level 1  # schedule graph
//! cargo run -p asip-bench --bin dump -- fir --mix      # dynamic class mix
//! ```
//!
//! `--level` takes 0, 1 or 2; any other value exits 2. The class mix
//! folds the session's cached profile over the program's instructions
//! (`Profile::class_mix`), so it costs no extra simulation.

use asip_explorer::{Explorer, ExplorerError};
use asip_opt::OptLevel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("fir");
    let level = args.iter().position(|a| a == "--level").map(|i| {
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        OptLevel::all()
            .into_iter()
            .find(|l| value == l.number().to_string())
            .unwrap_or_else(|| {
                eprintln!("invalid --level `{value}`; valid levels: 0, 1, 2");
                std::process::exit(2);
            })
    });
    let session = asip_bench::with_shared_store(Explorer::new());
    let compiled = match session.compile(name) {
        Ok(c) => c,
        Err(ExplorerError::UnknownBenchmark { .. }) => {
            eprintln!(
                "unknown benchmark `{name}`; available: {}",
                session
                    .registry()
                    .iter()
                    .map(|b| b.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
        Err(e) => panic!("built-ins compile: {e}"),
    };

    if args.iter().any(|a| a == "--mix") {
        let profiled = session.profile(name).expect("built-ins simulate");
        let total = profiled.profile.total_ops();
        println!("dynamic op-class mix for {name} ({total} ops):");
        let mix = profiled.profile.class_mix(&compiled.program);
        let mut rows: Vec<_> = mix.iter().map(|(c, &n)| (c.to_string(), n)).collect();
        // most executed first, ties by class name
        rows.sort_by(|(a, m), (b, n)| n.cmp(m).then_with(|| a.cmp(b)));
        for (class, count) in rows {
            println!(
                "  {class:12} {count:>10}  ({:5.2}%)",
                100.0 * count as f64 / total as f64
            );
        }
        return;
    }

    match level {
        None => print!("{}", compiled.program),
        Some(level) => {
            let scheduled = session.schedule(name, level).expect("built-ins schedule");
            print!("{}", scheduled.graph);
        }
    }
}
