//! Fingerprints of each simulation workload's canary (its small instance
//! at `sim::CANARY_SEED`), pinned at the commit that defined the
//! benchmark. A mismatch means the simulator's results changed; if the
//! change is intended, replace the pin with the value the run reports.

pub fn pinned(workload: &str) -> u64 {
    match workload {
        "wan_sweep" => 0xda6d_c36c_7698_b927,
        "dc_incast" => 0xb7d1_f561_0c22_73eb,
        _ => unreachable!("only simulation workloads have canaries"),
    }
}
