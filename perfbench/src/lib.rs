//! The repository's measurement spine.
//!
//! Four named workloads, eight end-to-end metrics with regression bounds,
//! and a per-layer budget taken entirely from outside the layers. The
//! `perf` binary runs one workload for the benchmark driver
//! (`--workload … --seed … --seconds … --trace 0|1`) or, without
//! `--workload`, the whole interleaved set with medians and spreads.
//!
//! The rules this code follows so that it survives the refactors it is
//! meant to judge: it drives only the library crates (`rabin`, `packet`,
//! `core`, `tcp`, `netsim`, `workload`) through their public functions,
//! builds its own topologies, and takes every mode from the product's
//! defaults — so deleting a losing mode never breaks the benchmark and
//! changing a default is measured as what users would get.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod counts;
pub mod gw;
pub mod host;
pub mod orchestrate;
pub mod replay;
pub mod run;
pub mod simw;
pub mod stats;
pub mod trace;

/// Derive an independent seed from `seed` and a `salt` (splitmix64
/// finalizer): every generated input takes its own stream from `--seed`.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `s` as a JSON string literal. (The benchmark only writes JSON; what a
/// child process tells its parent travels as flat `= name value` lines.)
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests;
