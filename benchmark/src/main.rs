//! `speedllm-benchmark`: see `README.md` and `run.sh`.
//!
//! With `--workload NAME` it runs that workload once in this process and
//! prints, last, the one-line JSON result. Without, it runs every
//! workload — each in a process of its own, one after the other — prints
//! a summary and writes `out/results.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use speedllm_benchmark::json::Json;
use speedllm_benchmark::report::Opts;
use speedllm_benchmark::spec::{
    self, Better, Metric, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, TAILS, WORKLOADS,
};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--repeat] [--smoke] [--manifest]

  --workload NAME  run one workload in this process (default: all five, each
                   in its own process, then write benchmark/out/results.json)
  --seed N         seed of the generated traffic (default 7)
  --seconds S      seconds one run measures (default 35)
  --trace [0|1]    also (with --workload: only) run the traced pass and print
                   the per-layer metrics; writes
                   benchmark/out/<workload>.trace.json
  --repeat         run the untraced set twice and compare the two
  --smoke          tiny model, a handful of requests (the self-test size)
  --manifest       print BENCHMARK.json and exit";

struct Args {
    workload: Option<String>,
    repeat: bool,
    manifest: bool,
    opts: Opts,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        repeat: false,
        manifest: false,
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            out_dir: Some(PathBuf::from("benchmark/out")),
        },
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
    }
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = Some(value(&mut i, flag)?),
            "--seed" => args.opts.seed = number(flag, &value(&mut i, flag)?)?,
            "--seconds" => {
                let s: f64 = number(flag, &value(&mut i, flag)?)?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: {s} is out of range"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                // `--trace` alone, or the driver's `--trace 0|1`.
                args.opts.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => args.repeat = true,
            "--smoke" => args.opts.smoke = true,
            "--manifest" => args.manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{name}`; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => {
            let report = speedllm_benchmark::run_workload(name, &args.opts)
                .expect("the name was checked against the workload list");
            report.print();
            report.correct()
        }
        None => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run, as read back from its output.
struct Child {
    /// The result line.
    result: Json,
    /// The `aux` line.
    aux: Json,
}

impl Child {
    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    /// A metric of the result line or, for the tails, of the `aux` line
    /// (where one with too few samples is `null`).
    fn metric(&self, name: &str) -> Option<f64> {
        match self.result.get("metrics")?.get(name) {
            Some(m) => m.get("value")?.as_f64(),
            None => self.aux.get(name)?.as_f64(),
        }
    }

    fn unresolved(&self) -> bool {
        self.aux.get("unresolved").and_then(Json::as_bool) == Some(true)
    }

    fn aux_str(&self, key: &str) -> &str {
        self.aux.get(key).and_then(Json::as_str).unwrap_or("")
    }
}

/// Runs `workload` in a process of its own and reads its result back.
/// The child's table goes to our stdout as it is printed.
fn run_child(workload: &str, o: &Opts, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    // `output()` waits for the child; nothing is left running.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut lines = text.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload} printed nothing (exit {})", out.status))
        .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: bad result line: {e}")))?;
    let aux = lines
        .next()
        .and_then(|l| l.strip_prefix("aux "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    Ok(Child { result, aux })
}

/// One full set: every workload untraced, and traced too when asked.
struct Set {
    untraced: Vec<(&'static str, Child)>,
    traced: Vec<(&'static str, Child)>,
    ok: bool,
}

fn run_set(o: &Opts) -> Set {
    let mut set = Set {
        untraced: Vec::new(),
        traced: Vec::new(),
        ok: true,
    };
    for w in WORKLOADS {
        for trace in [false, true] {
            if trace && !o.trace {
                continue;
            }
            match run_child(w.name, o, trace) {
                Ok(child) => {
                    set.ok &= child.correct();
                    if trace {
                        set.traced.push((w.name, child));
                    } else {
                        set.untraced.push((w.name, child));
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    set.ok = false;
                }
            }
        }
    }
    // The speculative workload serves the plain one's request list, so
    // its checked streams must be the same ones.
    let digest = |name: &str| {
        set.untraced
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c.aux_str("digest").to_string())
    };
    if let (Some(plain), Some(spec)) = (digest("decode15m_f32_c1"), digest("spec15m_f32_k4_c1")) {
        if plain != spec {
            eprintln!(
                "INCORRECT: spec15m_f32_k4_c1's digest {spec} is not decode15m_f32_c1's {plain}"
            );
            set.ok = false;
        }
    }
    set
}

fn print_summary(title: &str, registry: &[Metric], runs: &[(&'static str, Child)]) {
    if runs.is_empty() {
        return;
    }
    println!("\n=== {title} ===");
    print!("{:<34}", "metric");
    for (name, _) in runs {
        print!(" {:>20}", name);
    }
    println!();
    for m in registry {
        print!("{:<34}", format!("{} [{}]", m.name, m.unit));
        for (_, child) in runs {
            match child.metric(m.name) {
                Some(v) => print!(" {v:>20.4}"),
                None => print!(" {:>20}", "-"),
            }
        }
        println!();
    }
    print!("{:<34}", "correct");
    for (_, child) in runs {
        print!(" {:>20}", child.correct());
    }
    println!();
    print!("{:<34}", "wall-clock rows");
    for (_, child) in runs {
        print!(
            " {:>20}",
            if child.unresolved() {
                "unresolved"
            } else {
                "resolved"
            }
        );
    }
    println!();
}

fn set_json(runs: &[(&'static str, Child)]) -> Json {
    Json::obj(runs.iter().map(|(name, c)| {
        (
            *name,
            Json::obj([
                ("result", c.result.clone()),
                ("aux", c.aux.clone()),
                // The host moved under this run: its wall-clock rows are
                // neither changed nor unchanged.
                (
                    "wall_clock_rows",
                    Json::str(if c.unresolved() {
                        "unresolved"
                    } else {
                        "resolved"
                    }),
                ),
            ]),
        )
    }))
}

/// How much worse `b` is than `a` on metric `m`, as a share of `a`
/// (negative when it is better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Values `--repeat` requires to be bit-identical across the two sets.
const EXACT_AUX: [&str; 5] = [
    "digest",
    "sim_decode_tok_s",
    "sim_tok_per_j",
    "sim_speedup_x",
    "sim_energy_gain_x",
];

fn compare_sets(a: &Set, b: &Set, smoke: bool) -> (bool, Json) {
    println!("\n=== repeat: second set against the first ===");
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut ok = true;
    let mut rows = Vec::new();
    for ((name, first), (_, second)) in a.untraced.iter().zip(&b.untraced) {
        let unresolved = first.unresolved() || second.unresolved();
        for m in END_TO_END.iter().chain(TAILS) {
            let (Some(x), Some(y)) = (first.metric(m.name), second.metric(m.name)) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let worse = worsening(m, x, y);
            // The same code ran twice: a gain beyond the bound is as much
            // a sign of an unsteady measurement as a loss.
            // A smoke run lasts microseconds and holds 3 MB: it settles
            // nothing. Otherwise the probe speaks for the wall-clock rows
            // only; the host's speed cannot move memory.
            let verdict = if smoke || (unresolved && m.name != "peak_rss_mb") {
                "UNRESOLVED"
            } else if worse.abs() <= bound {
                "PASS"
            } else {
                ok = false;
                "FAIL"
            };
            println!(
                "{name:<22} {:<14} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%  {verdict}",
                m.name,
                worse * 100.0,
                bound * 100.0
            );
            rows.push(Json::obj([
                ("workload", Json::str(*name)),
                ("metric", Json::str(m.name)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("worse_by", Json::Num(worse)),
                ("bound", Json::Num(bound)),
                ("verdict", Json::str(verdict)),
            ]));
        }
        for key in EXACT_AUX {
            let (x, y) = (first.aux.get(key), second.aux.get(key));
            if x.is_some() && x != y {
                ok = false;
                println!(
                    "{name:<22} {key:<14} differs between the sets: must repeat exactly  FAIL"
                );
            }
        }
    }
    (ok, Json::Arr(rows))
}

fn write_results(dir: &Path, doc: &Json) {
    let path = dir.join("results.json");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.pretty())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_all(args: &Args) -> bool {
    let o = &args.opts;
    let first = run_set(o);
    let end_to_end = [END_TO_END, TAILS].concat();
    print_summary("end-to-end (untraced pass)", &end_to_end, &first.untraced);
    print_summary("per-layer (traced pass)", PER_LAYER, &first.traced);
    let mut ok = first.ok;
    let mut doc = vec![
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("untraced", set_json(&first.untraced)),
        ("traced", set_json(&first.traced)),
    ];
    if args.repeat {
        let second = run_set(&Opts {
            trace: false,
            ..o.clone()
        });
        print_summary(
            "end-to-end (untraced pass), second set",
            &end_to_end,
            &second.untraced,
        );
        let (same, rows) = compare_sets(&first, &second, o.smoke);
        ok &= second.ok && same;
        doc.push(("untraced_second", set_json(&second.untraced)));
        doc.push(("repeat", rows));
    }
    if let Some(dir) = &o.out_dir {
        write_results(dir, &Json::obj(doc));
    }
    println!(
        "{}",
        if ok {
            "ALL CHECKS PASSED"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    ok
}
