//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, a JSON writer, a layer-time ledger, and machine metadata.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// splitmix64: the benchmark's own input generator, so every input is a
/// pure function of `--seed` and independent of the crates' generators.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }

    pub fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit()).collect()
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A minimal JSON value: enough for the result line and the run record.
#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust's shortest round-trip formatting keeps every digit;
            // non-finite values have no JSON form.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }
}

/// The layer split of one round: seconds charged to each layer, in the
/// order the layers ran. Disabled (`on == false`) it records nothing and
/// costs one branch per call, which is what an untraced round runs.
#[derive(Default, Clone, Debug)]
pub struct Ledger {
    pub on: bool,
    pub map: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn new(on: bool) -> Self {
        Ledger {
            on,
            map: BTreeMap::new(),
        }
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.on {
            *self.map.entry(key).or_insert(0.0) += v;
        }
    }

    /// Runs `f`, charging its wall time to `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(key, secs(t));
        out
    }
}

/// Peak resident set (`VmHWM`) of this process, 10⁶ bytes; 0 if
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM:") * 1024.0 / 1e6
}

fn proc_status_kib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Size of the largest CPU cache level in bytes, from sysfs; 32 MiB when
/// sysfs does not report one.
pub fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(s) = std::fs::read_to_string(path) else {
            continue;
        };
        let s = s.trim();
        let (num, mul) = match s.chars().last() {
            Some('K') => (&s[..s.len() - 1], 1u64 << 10),
            Some('M') => (&s[..s.len() - 1], 1u64 << 20),
            Some('G') => (&s[..s.len() - 1], 1u64 << 30),
            _ => (s, 1),
        };
        if let Ok(v) = num.parse::<u64>() {
            best = best.max(v * mul);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// The commit the benchmark was built from: read from `.git` when the
/// working directory is a git checkout, else "unknown".
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a = Rng::new(5, 1).vec(1000);
        assert_eq!(a, Rng::new(5, 1).vec(1000));
        assert_ne!(a, Rng::new(6, 1).vec(1000));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn json_keeps_digits_and_escapes() {
        let j = Json::obj([
            ("x", Json::Num(0.1234567891234)),
            ("s", Json::Str("a\"b".into())),
            ("n", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.render(),
            r#"{"x": 0.1234567891234, "s": "a\"b", "n": null}"#
        );
    }
}
