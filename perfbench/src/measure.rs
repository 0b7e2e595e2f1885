//! Statistics, process memory, the in-run zgemm ceiling and the JSON
//! result line.

use qtx_linalg::{gemm, Complex64, Op, ZMat};
use std::fmt::Write as _;
use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q`-quantile of `v` with linear interpolation between closest
/// ranks; `NaN` for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current RSS, so [`peak_rss_mb`] reads the peak of what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// Single-thread `zgemm` rate (GFlop/s) on `s × s` operands — the kernel
/// ceiling at a workload's block size, measured in the same process as
/// the sweep it is compared with. Median of nine batches of ~20 ms.
pub fn zgemm_gflops(s: usize) -> f64 {
    let a = ZMat::random(s, s, 0xA11CE);
    let b = ZMat::random(s, s, 0xB0B);
    let mut c = ZMat::zeros(s, s);
    let flops = 8.0 * (s as f64).powi(3);
    let call = |c: &mut ZMat| {
        gemm(Complex64::ONE, &a, Op::None, &b, Op::None, Complex64::ZERO, c);
        std::hint::black_box(&*c);
    };
    // Size a batch to ~20 ms from a warm-up estimate.
    let t0 = Instant::now();
    let mut warm = 0usize;
    while t0.elapsed().as_secs_f64() < 0.01 {
        call(&mut c);
        warm += 1;
    }
    let per_call = t0.elapsed().as_secs_f64() / warm as f64;
    let batch = ((0.02 / per_call) as usize).max(1);
    let rates: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                call(&mut c);
            }
            flops * batch as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`null` otherwise — JSON has no NaN).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The benchmark's result line: `correct`, `attempted`, `failed` and the
/// metrics by name with their units.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(
            (percentile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 0.9) - 9.1).abs()
                < 1e-12
        );
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("sweep_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"sweep_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
