//! Shared pieces of the hand-rolled `BENCH_*.json` writers in the bench
//! binaries: the provenance commit and the number format.

/// The checked-out commit (`git rev-parse HEAD`), or `"unknown"` outside
/// a git checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON number with three decimals; non-finite values (which JSON
/// cannot carry) are written as `0.0`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_formats_and_guards_non_finite() {
        assert_eq!(json_f64(1.0), "1.000");
        assert_eq!(json_f64(2.34567), "2.346");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
    }
}
