//! Cold-pipeline parallel sweep → stdout table + `BENCH_pipeline.json`.
//!
//! Positional arguments are the thread counts to bench (default: `1` and
//! the host's core count). Exits non-zero when any assay's output differs
//! across thread counts — the CI gate for bit-identical parallel synthesis.

#![forbid(unsafe_code)]

fn main() {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut defaults = vec![1, host];
    defaults.dedup();
    let threads = match biochip_bench::parse_size_args(std::env::args().skip(1), &defaults) {
        Ok(threads) => threads,
        Err(message) => {
            eprintln!("usage: pipeline [thread-counts...]\n{message}");
            std::process::exit(2);
        }
    };
    println!("Cold-pipeline parallel sweep (schedule / place / route / layout / replay)\n");
    let rows = match biochip_bench::pipeline_rows(biochip_bench::DEFAULT_PIPELINE_ASSAYS, &threads)
    {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("pipeline sweep failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", biochip_bench::format_pipeline(&rows));
    biochip_bench::write_bench_json("pipeline", &rows);
    if let Err(divergence) = biochip_bench::assert_thread_equality(&rows) {
        eprintln!("DETERMINISM FAILURE: {divergence}");
        std::process::exit(1);
    }
    // Honesty about the host: rows benched with more threads than the host
    // has cores measure oversubscription. They keep their output_key check
    // (determinism holds anywhere) but carry no speedup claim.
    for row in &rows {
        if row.undersubscribed {
            eprintln!(
                "WARNING: {} at {} thread(s) on a {host}-core host is undersubscribed — \
                 wall times measure oversubscription, speedup_vs_single withheld",
                row.assay, row.threads
            );
        }
    }
    // Non-fatal tripwire: on a host with enough cores to actually run the
    // benched threads, a threaded row slower than the sequential row means
    // the extra threads are a pessimization there — worth a loud note even
    // though CI only hard-fails on determinism (shared runners are too
    // noisy for a hard speedup floor).
    for row in &rows {
        if let Some(speedup) = row.speedup_vs_single {
            if row.threads > 1 && speedup < 1.0 {
                eprintln!(
                    "WARNING: {} at {} thread(s) ran {speedup:.2}x vs sequential on a \
                     {host}-core host",
                    row.assay, row.threads
                );
            }
        }
    }
    println!("outputs are bit-identical across {threads:?} thread(s)");
}
