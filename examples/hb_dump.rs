//! Run the sharded calypso and realloc workloads with happens-before
//! trace records on (`shard.ev` / `shard.window`) and dump the rendered
//! traces for the `rbrace hb` race checker.
//!
//! Run with: `cargo run --example hb_dump -- /tmp/hb [shards]`
//! (writes `<dir>/calypso_hb.trace` and `<dir>/realloc_hb.trace`;
//! `shards` defaults to 4). Then check them:
//! `cargo run -p rb-analyze --bin rbrace -- hb /tmp/hb/calypso_hb.trace`

use resourcebroker::broker::DefaultPolicy;
use resourcebroker::proto::CommandSpec;
use resourcebroker::simcore::SimTime;
use resourcebroker::workloads::scenarios::{
    await_calypso_workers, broker_testbed_hb, submit_endless_calypso,
};
use resourcebroker::workloads::table2::prime_with_realloc_hb;

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| {
        eprintln!("usage: hb_dump <outdir> [shards]");
        std::process::exit(2);
    });
    let shards: usize = args
        .next()
        .map(|s| s.parse().expect("shards must be a number"))
        .unwrap_or(4);
    std::fs::create_dir_all(&dir).expect("create output dir");

    // The busy broker scenario the sharded-equivalence suite replays:
    // an adaptive calypso job grabs the cluster and keeps computing.
    let mut c = broker_testbed_hb(4, 42, Box::new(DefaultPolicy::default()), shards);
    submit_endless_calypso(&mut c, 4, 500);
    let limit = SimTime(c.world.now().as_micros() + 60_000_000);
    await_calypso_workers(&mut c, 4, limit);
    c.world.run_until(limit);
    let calypso = c.world.render_trace_with_stats();
    write(&dir, "calypso_hb.trace", &calypso);

    // Table 2's reallocation workload: the broker clears an occupied
    // machine for a sequential job while calypso adapts around it.
    let (_, c) = prime_with_realloc_hb(7, CommandSpec::Loop { cpu_millis: 3_000 }, shards);
    let realloc = c.world.render_trace_with_stats();
    write(&dir, "realloc_hb.trace", &realloc);
}

fn write(dir: &str, name: &str, contents: &str) {
    let path = format!("{dir}/{name}");
    std::fs::write(&path, contents).expect("write trace dump");
    eprintln!("wrote {} lines to {path}", contents.lines().count());
}
