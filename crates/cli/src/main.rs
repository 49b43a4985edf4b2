//! `pit` — command-line interface to the PIT-Search engine.
//!
//! ```text
//! pit generate --dataset data_2k --scale 30 --out corpus/      # synthesize a corpus
//! pit build    --corpus corpus/ --out engine/ [--summarizer lrw|rcl]
//!              [--theta 0.01] [--walk-l 5] [--walk-r 32] [--reps 64]
//! pit query    --engine engine/ --user 3 --keywords query-0 [--k 10]
//! pit audience --engine engine/ --topic 0 --keyword query-0 [--k 3] [--sample 200]
//! pit stats    --engine engine/
//! pit serve    --engine engine/ [--addr 127.0.0.1:7878] [--workers 8]
//! pit shard-split --dir engine/ --out shards/ --shards 4     # slice a snapshot
//! pit route    --engine shards/shard-0 --shards h1:7878,h2:7878 [--addr 127.0.0.1:7979]
//! pit route    --engine engine/ --in-process 4               # one-process fleet
//! pit client   --addr 127.0.0.1:7878 --user 3 --keywords query-0 [--k 10]
//! pit client   --via-router 127.0.0.1:7979 --user 3 --keywords query-0
//! pit trace    --addr 127.0.0.1:7878 [--n 16]
//! pit reload   --addr 127.0.0.1:7878 --dir engine-v2/
//! pit update   --addr 127.0.0.1:7878 --edges 3:9:0.5 --assign 4:17
//! ```

use pit_cli::args::{self, CliError};
use pit_cli::commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => commands::generate(&parsed),
        "build" => commands::build(&parsed),
        "query" => commands::query(&parsed),
        "audience" => commands::audience(&parsed),
        "stats" => commands::stats(&parsed),
        "serve" => commands::serve(&parsed),
        "shard-split" => commands::shard_split(&parsed),
        "route" => commands::route(&parsed),
        "client" => commands::client(&parsed),
        "trace" => commands::trace(&parsed),
        "reload" => commands::reload(&parsed),
        "update" => commands::update(&parsed),
        "help" | "--help" | "-h" => {
            usage();
            return;
        }
        other => Err(format!("unknown subcommand {other}").into()),
    };
    match result {
        Ok(()) => {}
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n");
            usage();
            std::process::exit(2);
        }
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() {
    eprintln!(
        "pit — personalized influential topic search\n\
         \n\
         subcommands:\n\
         \x20 generate --dataset NAME --out DIR [--scale S]       synthesize a corpus\n\
         \x20          NAME ∈ data_2k | data_350k | data_1.2m | data_3m\n\
         \x20 build    --corpus DIR --out DIR [--summarizer lrw|rcl] [--theta F]\n\
         \x20          [--walk-l L] [--walk-r R] [--reps N]        run the offline stage\n\
         \x20 query    --engine DIR --user N --keywords a,b [--k K]\n\
         \x20 audience --engine DIR --topic T --keyword WORD [--k K] [--sample N]\n\
         \x20 stats    --engine DIR\n\
         \x20 serve    --engine DIR [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20          [--cache N] [--budget-ms MS] [--io-timeout-ms MS]   run the query daemon\n\
         \x20          [--io-threads N]                        event-loop front-end sizing\n\
         \x20          [--trace-sample N] [--slow-ms MS] [--trace-ring N]  per-query tracing\n\
         \x20          (a snapshot with a shard manifest comes up as that slice)\n\
         \x20 shard-split --dir DIR --out DIR --shards N   slice a snapshot into N shard\n\
         \x20          snapshots under out/shard-<i>, verifying the user partition\n\
         \x20 route    --engine DIR (--shards HOST:PORT,… | --in-process N)\n\
         \x20          [--addr HOST:PORT] [serve flags]     scatter-gather router daemon\n\
         \x20 client   --addr HOST:PORT [--op ping|stats|metrics|trace|shutdown|query]\n\
         \x20          [--user N --keywords a,b [--k K]]                   talk to a daemon\n\
         \x20          (--via-router HOST:PORT targets a pit route front door)\n\
         \x20 trace    --addr HOST:PORT [--n N]       dump a daemon's slow-query log and\n\
         \x20          sampled per-query traces (see serve --trace-sample/--slow-ms)\n\
         \x20 reload   --addr HOST:PORT --dir DIR      swap a running daemon onto a new\n\
         \x20          engine snapshot (queries keep flowing on the old one meanwhile)\n\
         \x20 update   --addr HOST:PORT [--edges u:v:p,…] [--assign u:t,…]\n\
         \x20          apply a live edge/assignment delta to a running daemon"
    );
}
