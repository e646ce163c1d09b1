//! The `perfbench` command; see the library docs for its arguments.

fn main() {
    // Shard processes of the serve workload re-execute this binary;
    // send them to their entry point before any argument handling.
    if pdc_mpi::WireWorld::child_world_id().as_deref() == Some(perfbench::serve::WORLD_ID) {
        pdc_db::serve::run_shard_child();
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match perfbench::Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let (report, record) = perfbench::run(&opts);
    println!("{record}");
    println!("{}", report.result_line());
}
