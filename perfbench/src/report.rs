//! Metric collection and the result line.

/// Named metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints every metric as a readable line, then the one-line JSON
/// result, last.
pub fn emit(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    for (name, value, unit) in &metrics.0 {
        println!("# {name:<32} {:>16} {unit}", number(*value));
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Log-linear latency histogram: exact below 256 ns, then 256 buckets
/// per power of two (under 0.4 % relative width). Fixed size, so peak
/// memory does not grow with the number of samples.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as u64 + 1) * SUB) as usize],
            total: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - u64::from(v.leading_zeros());
        let mantissa = v >> (exp - u64::from(SUB_BITS));
        ((exp - u64::from(SUB_BITS) + 1) * SUB + (mantissa - SUB)) as usize
    }

    /// `(lower bound, width)` of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        (((SUB + i % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Percentile `q`, interpolated linearly inside its bucket.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (low, width) = Self::bucket(i);
                return low + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        f64::NAN
    }
}
