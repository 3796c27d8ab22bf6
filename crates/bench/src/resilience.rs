//! The resilience experiment (paper §VII-D), quantified.
//!
//! The paper asked a Netzob expert to reverse a Modbus trace: half an hour
//! sufficed for the plain protocol, while one obfuscation per field
//! defeated him after two hours. Here the expert is replaced by the
//! algorithms his tooling uses (alignment-based classification and format
//! inference from `protoobf-pre`), scored against ground truth, so the
//! claim becomes measurable: classification quality (purity, adjusted Rand
//! index) and inferred-structure quality (static-column fraction,
//! delimiter visibility) degrade as obfuscation levels rise.

use protoobf_core::Obfuscator;
use protoobf_pre::align::{similarity_matrix, ScoreParams};
use protoobf_pre::cluster::upgma;
use protoobf_pre::infer::multiple_alignment;
use protoobf_pre::score::{adjusted_rand_index, purity, type_count};
use protoobf_protocols::corpus::{self, Sample};
use protoobf_protocols::{dns, http, modbus};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// PRE quality on one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceRow {
    /// Scenario name (protocol).
    pub scenario: String,
    /// Obfuscation level of the trace.
    pub level: u32,
    /// Ground-truth number of message types in the trace.
    pub true_types: usize,
    /// Number of clusters the analyst's classification finds.
    pub clusters: usize,
    /// Cluster purity against ground truth.
    pub purity: f64,
    /// Adjusted Rand index against ground truth.
    pub ari: f64,
    /// Mean fraction of static alignment columns within each true type —
    /// how much structure format inference can recover.
    pub static_fraction: f64,
    /// Known delimiters still visible in inferred static fields, per
    /// message type (HTTP scenario; 0 for binary protocols).
    pub delimiters_visible: f64,
    /// Mean per-column byte entropy within each true type (bits; rises
    /// toward 8 as obfuscation randomizes the wire).
    pub mean_entropy: f64,
}

/// Runs PRE against a trace and scores it. `threshold` is the analyst's
/// similarity cut-off for classification (binary protocols need a lower
/// one than text protocols).
pub fn assess(
    scenario: &str,
    level: u32,
    samples: &[Sample],
    delims: &[&[u8]],
    threshold: f64,
) -> ResilienceRow {
    let msgs: Vec<&[u8]> = samples.iter().map(|s| s.wire.as_slice()).collect();
    let labels: Vec<&str> = samples.iter().map(|s| s.label.as_str()).collect();
    let params = ScoreParams::default();

    let sim = similarity_matrix(&msgs, params);
    let clusters = upgma(&sim, threshold);
    let p = purity(&clusters, &labels);
    let ari = adjusted_rand_index(&clusters, &labels);

    // Give the analyst perfect classification for the inference step: how
    // much structure is recoverable per *true* type?
    let mut fractions = Vec::new();
    let mut delim_counts = Vec::new();
    let mut entropies = Vec::new();
    let mut types: Vec<&str> = labels.clone();
    types.sort_unstable();
    types.dedup();
    for t in &types {
        let group: Vec<&[u8]> =
            samples.iter().filter(|s| s.label == *t).map(|s| s.wire.as_slice()).collect();
        if group.len() < 2 {
            continue;
        }
        let profile = multiple_alignment(&group, params);
        fractions.push(profile.static_fraction());
        let visible: usize = delims.iter().map(|d| profile.static_needle_count(d)).sum();
        delim_counts.push(visible as f64);
        entropies.push(protoobf_pre::entropy::mean_entropy(&profile));
    }
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };

    ResilienceRow {
        scenario: scenario.to_string(),
        level,
        true_types: type_count(&labels),
        clusters: clusters.len(),
        purity: p,
        ari,
        static_fraction: mean(&fractions),
        delimiters_visible: mean(&delim_counts),
        mean_entropy: mean(&entropies),
    }
}

/// The paper's §VII-D setup: a Modbus trace of four request types and
/// their responses, assessed plain and at increasing obfuscation levels.
pub fn modbus_resilience(per_type: usize, max_level: u32, seed: u64) -> Vec<ResilienceRow> {
    let req_graph = modbus::request_graph();
    let resp_graph = modbus::response_graph();
    let functions = [
        modbus::Function::ReadCoils,
        modbus::Function::ReadHoldingRegisters,
        modbus::Function::WriteSingleRegister,
        modbus::Function::WriteMultipleRegisters,
    ];
    let mut rows = Vec::new();
    for level in 0..=max_level {
        let req = Obfuscator::new(&req_graph)
            .seed(seed + u64::from(level))
            .max_per_node(level)
            .obfuscate()
            .expect("modbus request graph obfuscates");
        let resp = Obfuscator::new(&resp_graph)
            .seed(seed + 100 + u64::from(level))
            .max_per_node(level)
            .obfuscate()
            .expect("modbus response graph obfuscates");
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(level));
        let trace = corpus::modbus_trace(&req, &resp, &functions, per_type, &mut rng);
        rows.push(assess("TCP-Modbus", level, &trace, &[], 0.55));
    }
    rows
}

/// HTTP variant: delimiter visibility is the additional signal (known
/// `\r\n` / `": "` separators disappear under `BoundaryChange`).
pub fn http_resilience(n: usize, max_level: u32, seed: u64) -> Vec<ResilienceRow> {
    let graph = http::request_graph();
    let mut rows = Vec::new();
    for level in 0..=max_level {
        let codec = Obfuscator::new(&graph)
            .seed(seed + u64::from(level))
            .max_per_node(level)
            .obfuscate()
            .expect("http graph obfuscates");
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(level) << 8));
        let trace = corpus::http_requests(&codec, n, &mut rng);
        rows.push(assess("HTTP", level, &trace, &[b"\r\n", b": ", b" "], 0.55));
    }
    rows
}

/// Renders resilience rows as a table.
pub fn render(rows: &[ResilienceRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>6} {:>11} {:>9} {:>8} {:>8} {:>12} {:>8} {:>9}\n",
        "scenario",
        "level",
        "true types",
        "clusters",
        "purity",
        "ARI",
        "static frac",
        "delims",
        "entropy"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6} {:>11} {:>9} {:>8.2} {:>8.2} {:>12.2} {:>8.1} {:>9.2}\n",
            r.scenario,
            r.level,
            r.true_types,
            r.clusters,
            r.purity,
            r.ari,
            r.static_fraction,
            r.delimiters_visible,
            r.mean_entropy
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modbus_structure_degrades_with_obfuscation() {
        let rows = modbus_resilience(4, 1, 11);
        assert_eq!(rows.len(), 2);
        let plain = &rows[0];
        let obf = &rows[1];
        assert!(plain.static_fraction > 0.25, "plain static {}", plain.static_fraction);
        assert!(
            obf.static_fraction < plain.static_fraction,
            "obfuscation should reduce inferrable structure: {} -> {}",
            plain.static_fraction,
            obf.static_fraction
        );
    }

    #[test]
    fn http_delimiters_become_less_visible() {
        let rows = http_resilience(12, 1, 3);
        let plain = &rows[0];
        let obf = &rows[1];
        assert!(plain.delimiters_visible >= 3.0, "plain sees {}", plain.delimiters_visible);
        assert!(
            obf.delimiters_visible < plain.delimiters_visible,
            "delimiters should fade: {} -> {}",
            plain.delimiters_visible,
            obf.delimiters_visible
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = modbus_resilience(2, 1, 5);
        let text = render(&rows);
        assert!(text.contains("TCP-Modbus"));
        assert_eq!(text.lines().count(), 3);
    }
}

/// DNS variant: queries vs responses; the query header constants and the
/// label length structure are what plain inference recovers.
pub fn dns_resilience(n: usize, max_level: u32, seed: u64) -> Vec<ResilienceRow> {
    let qg = dns::query_graph();
    let rg = dns::response_graph();
    let mut rows = Vec::new();
    for level in 0..=max_level {
        let q = Obfuscator::new(&qg)
            .seed(seed + u64::from(level))
            .max_per_node(level)
            .obfuscate()
            .expect("dns query graph obfuscates");
        let r = Obfuscator::new(&rg)
            .seed(seed + 50 + u64::from(level))
            .max_per_node(level)
            .obfuscate()
            .expect("dns response graph obfuscates");
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(level) << 4));
        let trace = corpus::dns_trace(&q, &r, n, &mut rng);
        rows.push(assess("DNS", level, &trace, &[b"\x00"], 0.55));
    }
    rows
}

#[cfg(test)]
mod dns_tests {
    use super::*;

    #[test]
    fn dns_structure_degrades_with_obfuscation() {
        let rows = dns_resilience(8, 1, 21);
        let plain = &rows[0];
        let obf = &rows[1];
        assert!(plain.static_fraction > 0.08, "plain static {}", plain.static_fraction);
        assert!(
            obf.static_fraction < plain.static_fraction,
            "{} -> {}",
            plain.static_fraction,
            obf.static_fraction
        );
    }
}
