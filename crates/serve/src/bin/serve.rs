//! Standalone serve daemon: a `VectorFilter` + `CountMin` ASketch behind
//! the sharded runtime, exposed over the binary protocol.
//!
//! ```text
//! serve [--addr HOST:PORT] [--shards N] [--batch N] [--queue N]
//!       [--bytes N] [--depth N] [--filter-items N] [--seed N] [--pin-workers]
//!       [--io-model reactor|threaded] [--reactors N] [--staging-keys N]
//!       [--shed] [--verbose]
//! ```
//!
//! Runs until stdin reaches EOF (or a `quit` line), then shuts down
//! gracefully — drains accepted writes, finishes the runtime, prints the
//! final health and server counters. Ephemeral-port runs print the bound
//! address on the first stdout line (`listening <addr>`) so harnesses can
//! scrape it.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

use std::io::BufRead;
use std::process::ExitCode;

use asketch::filter::VectorFilter;
use asketch::ASketch;
use asketch_parallel::{BackpressurePolicy, ConcurrentASketch, ConcurrentConfig};
use asketch_serve::{IoModel, ServeConfig, Server};
use sketches::CountMin;

struct Args {
    addr: String,
    shards: usize,
    batch: usize,
    queue: usize,
    bytes: usize,
    depth: usize,
    filter_items: usize,
    seed: u64,
    pin_workers: bool,
    io_model: IoModel,
    reactors: usize,
    staging_keys: usize,
    shed: bool,
    verbose: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7464".to_string(),
            shards: 4,
            batch: 256,
            queue: 1024,
            bytes: 1 << 22,
            depth: 4,
            filter_items: 32,
            seed: 0x5EED_2016,
            pin_workers: false,
            io_model: IoModel::default(),
            reactors: 0,
            staging_keys: 0,
            shed: false,
            verbose: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => args.shards = parse_num(&value("--shards")?)?,
            "--batch" => args.batch = parse_num(&value("--batch")?)?,
            "--queue" => args.queue = parse_num(&value("--queue")?)?,
            "--bytes" => args.bytes = parse_num(&value("--bytes")?)?,
            "--depth" => args.depth = parse_num(&value("--depth")?)?,
            "--filter-items" => args.filter_items = parse_num(&value("--filter-items")?)?,
            "--seed" => args.seed = parse_num(&value("--seed")?)? as u64,
            "--pin-workers" => args.pin_workers = true,
            "--io-model" => {
                args.io_model = match value("--io-model")?.as_str() {
                    "reactor" => IoModel::Reactor,
                    "threaded" => IoModel::Threaded,
                    other => return Err(format!("bad --io-model {other} (reactor|threaded)")),
                }
            }
            "--reactors" => args.reactors = parse_num(&value("--reactors")?)?,
            "--staging-keys" => args.staging_keys = parse_num(&value("--staging-keys")?)?,
            "--shed" => args.shed = true,
            "--verbose" => args.verbose = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.shards == 0 {
        return Err("--shards must be >= 1".to_string());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|e| format!("bad number {s}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("serve: {msg}");
            }
            eprintln!(
                "usage: serve [--addr HOST:PORT] [--shards N] [--batch N] [--queue N] \
                 [--bytes N] [--depth N] [--filter-items N] [--seed N] [--pin-workers] \
                 [--io-model reactor|threaded] [--reactors N] [--staging-keys N] \
                 [--shed] [--verbose]"
            );
            return ExitCode::from(2);
        }
    };

    let shards = args.shards;
    let per_shard = (args.bytes / shards).max(1 << 12);
    let rt_cfg = ConcurrentConfig {
        shards,
        batch: args.batch.max(1),
        pin_workers: args.pin_workers,
        ..ConcurrentConfig::default()
    };
    let (depth, items, seed) = (args.depth, args.filter_items, args.seed);
    let rt = ConcurrentASketch::spawn(rt_cfg, |i| {
        let sketch = match CountMin::with_byte_budget(seed ^ i as u64, depth, per_shard) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: sketch budget invalid: {e:?}");
                std::process::exit(2);
            }
        };
        ASketch::new(VectorFilter::new(items), sketch)
    });

    let serve_cfg = ServeConfig {
        addr: args.addr.clone(),
        ingest_queue: args.queue,
        policy: if args.shed {
            BackpressurePolicy::InlineFallback
        } else {
            BackpressurePolicy::Block
        },
        log_disconnects: args.verbose,
        io_model: args.io_model,
        reactors: args.reactors,
        staging_keys: args.staging_keys,
        ..ServeConfig::default()
    };
    let server = match Server::spawn(serve_cfg, rt) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind {} failed: {e}", args.addr);
            return ExitCode::from(1);
        }
    };
    println!("listening {}", server.addr());

    // Foreground lifecycle: stdin EOF (or a `quit` line) and SIGTERM
    // both end in the same graceful drain. glibc installs SIGTERM
    // handlers with SA_RESTART, so a blocking stdin read would never
    // observe the signal — stdin is read on its own thread and the main
    // loop polls both that channel and the signal latch.
    let term_ok = asketch_serve::signal::install_term_handler();
    let (line_tx, line_rx) = std::sync::mpsc::channel::<Option<String>>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) => {
                    if line_tx.send(Some(l)).is_err() {
                        return;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = line_tx.send(None); // EOF
    });
    loop {
        if term_ok && asketch_serve::signal::term_requested() {
            break;
        }
        match line_rx.recv_timeout(std::time::Duration::from_millis(50)) {
            Ok(Some(l)) if l.trim() == "quit" => break,
            Ok(Some(_)) => continue,
            Ok(None) => break, // stdin EOF
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    let (_kernels, health, gauge) = server.shutdown();
    println!(
        "done routed={} shed={} reader_blocked={} degraded={}",
        health.total_routed(),
        gauge.updates_shed,
        gauge.reader_blocked,
        health.degraded_durability_shards()
    );
    ExitCode::SUCCESS
}
