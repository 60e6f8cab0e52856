// Lint fixture: raw std::thread use outside the sanctioned executor
// module (rule 7). Scanned as crates/diknn-bench/src and crates/diknn-sim/src
// code; never compiled.

pub fn fan_out(jobs: Vec<u64>) -> Vec<u64> {
    let handle = std::thread::spawn(move || jobs.iter().sum::<u64>());
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| out.push(1));
    });
    let builder = std::thread::Builder::new();
    let _ = builder;
    let _ = handle.join();
    out
}
