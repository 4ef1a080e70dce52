//! The experiments driver — regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [all|table3|table4|table5|fig7|fig7a|fig7b|fig7c|fig8|fig9|fig10|fig11|ablation]
//!             [--quick] [--scale X] [--insertions N] [--deletions N]
//!             [--queries N] [--datasets KEY,KEY,...] [--seed N]
//! ```

use dspc_bench::exp::{self, Config};
use dspc_bench::runner;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [all|table3|table4|table5|fig7|fig7a|fig7b|fig7c|fig8|fig9|fig10|fig11|ablation]\n\
         \x20                 [--quick] [--scale X] [--insertions N] [--deletions N]\n\
         \x20                 [--queries N] [--datasets KEY,KEY,...] [--seed N]"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Config) {
    let mut cfg = Config::full();
    let mut target = "all".to_string();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                let only = std::mem::take(&mut cfg.only);
                cfg = Config::quick();
                cfg.only = only;
            }
            "--scale" => cfg.scale = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--insertions" => cfg.insertions = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--deletions" => cfg.deletions = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queries" => cfg.queries = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--datasets" => {
                cfg.only = value(&mut i)
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            flag if flag.starts_with("--") => usage(),
            t => target = t.to_ascii_lowercase(),
        }
        i += 1;
    }
    (target, cfg)
}

fn main() {
    let (target, cfg) = parse_args();
    eprintln!(
        "[experiments] target={target} scale={} insertions={} deletions={} queries={} datasets={}",
        cfg.scale,
        cfg.insertions,
        cfg.deletions,
        cfg.queries,
        if cfg.only.is_empty() {
            "all".to_string()
        } else {
            cfg.only.join(",")
        }
    );

    // Table 3, Figure 10, Figure 11 and the ablations manage their own
    // graphs; the rest share one measurement run per dataset.
    let needs_runs = matches!(
        target.as_str(),
        "all" | "table4" | "table5" | "fig7" | "fig7a" | "fig7b" | "fig7c" | "fig8" | "fig9"
    );
    let runs = if needs_runs {
        runner::run_all(&cfg)
    } else {
        Vec::new()
    };

    match target.as_str() {
        "table3" => println!("{}", exp::table3::run(&cfg)),
        "table4" => println!("{}", exp::table4::render(&runs)),
        "table5" => println!("{}", exp::table5::render(&runs)),
        "fig7a" => println!("{}", exp::fig7::render_a(&runs)),
        "fig7b" => println!("{}", exp::fig7::render_b(&runs)),
        "fig7c" => println!("{}", exp::fig7::render_c(&runs, &cfg)),
        "fig7" => {
            println!("{}", exp::fig7::render_a(&runs));
            println!("{}", exp::fig7::render_b(&runs));
            println!("{}", exp::fig7::render_c(&runs, &cfg));
        }
        "fig8" => println!("{}", exp::fig89::render_fig8(&runs)),
        "fig9" => println!("{}", exp::fig89::render_fig9(&runs)),
        "fig10" => println!("{}", exp::fig10::run(&cfg)),
        "fig11" => println!("{}", exp::fig11::run(&cfg)),
        "ablation" => println!("{}", exp::ablation::run(&cfg)),
        "all" => {
            println!("{}", exp::table3::run(&cfg));
            println!("{}", exp::table4::render(&runs));
            println!("{}", exp::fig7::render_a(&runs));
            println!("{}", exp::fig7::render_b(&runs));
            println!("{}", exp::fig7::render_c(&runs, &cfg));
            println!("{}", exp::fig89::render_fig8(&runs));
            println!("{}", exp::fig89::render_fig9(&runs));
            println!("{}", exp::fig10::run(&cfg));
            println!("{}", exp::fig11::run(&cfg));
            println!("{}", exp::table5::render(&runs));
            println!("{}", exp::ablation::run(&cfg));
        }
        _ => usage(),
    }
}
