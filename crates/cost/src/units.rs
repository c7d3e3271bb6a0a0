//! The paper's memory units.
//!
//! Tables 1–2 of the paper report sizes in a quirky convention,
//! reverse-engineered from the exact values they print:
//! `1 "MB" = 1,024,000 bytes` and `1 "GB" = 1000 "MB"`. For example
//! `T1(b,c,d,f)` holds `480³·64 = 7,077,888,000` words of 8 bytes →
//! `56,623,104,000 B / (1000·1,024,000) = 55.296` → the paper's "55.3GB".
//! We reproduce the convention so that the regenerated tables match the
//! paper digit for digit, and also provide plain decimal formatting.

/// Bytes per double-precision word.
pub const WORD_BYTES: u128 = 8;

/// The paper's "MB": 1,024,000 bytes.
pub const PAPER_MB: f64 = 1_024_000.0;

/// The paper's "GB": 1000 of its MB (i.e. 1.024 × 10⁹ bytes).
pub const PAPER_GB: f64 = 1000.0 * PAPER_MB;

/// Bytes occupied by `words` double-precision elements.
pub fn words_to_bytes(words: u128) -> u128 {
    words * WORD_BYTES
}

/// Format a byte count in the paper's units, picking MB or GB like the
/// paper does (`"115.2MB"`, `"1.728GB"`).
pub fn fmt_paper_bytes(bytes: u128) -> String {
    let b = bytes as f64;
    if b >= PAPER_GB {
        format!("{:.3}GB", b / PAPER_GB)
    } else {
        format!("{:.1}MB", b / PAPER_MB)
    }
}

/// A byte count in the paper's units ([`fmt_paper_bytes`]), with two
/// significant digits below 0.1MB (`0.043MB`, not `0.0MB`), for the report
/// table and its memory line, where every small array would otherwise read
/// `0.0MB`. Zero and counts from 0.1MB up render as [`fmt_paper_bytes`]
/// renders them.
pub fn fmt_paper_bytes_legible(bytes: u128) -> String {
    let mb = bytes as f64 / PAPER_MB;
    if bytes == 0 || mb >= 0.1 {
        return fmt_paper_bytes(bytes);
    }
    // Two significant digits: one decimal per factor of ten that brings
    // the count up to 1MB, plus one. `bytes·10^k` is exact in `f64`, and
    // a `log10` here would link the system libm into every binary (about
    // 450 KiB more resident memory per process).
    let (mut decimals, mut scaled) = (1, bytes as f64);
    while scaled < PAPER_MB {
        scaled *= 10.0;
        decimals += 1;
    }
    format!("{mb:.decimals$}MB")
}

/// Two different byte counts in the paper's units, legibly
/// ([`fmt_paper_bytes_legible`]), with decimals added until they render
/// differently (`0.1MB` and `0.1MB` become `0.11MB` and `0.10MB`); counts
/// that already render apart keep the legible form.
pub fn fmt_paper_bytes_apart(a: u128, b: u128) -> (String, String) {
    let legible = (fmt_paper_bytes_legible(a), fmt_paper_bytes_legible(b));
    if legible.0 != legible.1 || a == b {
        return legible;
    }
    // Equal renderings share their unit and their number of decimals.
    let (unit, scale) =
        if a.max(b) as f64 >= PAPER_GB { ("GB", PAPER_GB) } else { ("MB", PAPER_MB) };
    let decimals = legible.0.len() - legible.0.find('.').map_or(legible.0.len(), |d| d + 1) - 2;
    let at = |p: usize| {
        (format!("{:.p$}{unit}", a as f64 / scale), format!("{:.p$}{unit}", b as f64 / scale))
    };
    (decimals + 1..=17).map(at).find(|(x, y)| x != y).unwrap_or(legible)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_memory_cells_reproduce() {
        // Per-node sizes in Table 1 are 2 processors × DistSize × 8 B.
        // D(c,d,e,l) at <d,e> on 8×8: 7,372,800 words/proc.
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 7_372_800)), "115.2MB");
        // B: 983,040 words/proc → 15.4MB/node.
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 983_040)), "15.4MB");
        // C: 491,520 words/proc → 7.7MB/node.
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 491_520)), "7.7MB");
        // A and T2: 3,686,400 words/proc → 57.6MB/node.
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 3_686_400)), "57.6MB");
        // T1: 110,592,000 words/proc → 1.728GB/node.
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 110_592_000)), "1.728GB");
    }

    #[test]
    fn table2_memory_cells_reproduce() {
        // 4×4 grid, 2 procs/node.
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 29_491_200)), "460.8MB"); // D
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 3_932_160)), "61.4MB"); // B (paper: 61.6)
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 14_745_600)), "230.4MB"); // A, T2, S
                                                                                // T1 reduced to (b,c,d): 6,912,000 words/proc → 108MB/node.
        assert_eq!(fmt_paper_bytes(words_to_bytes(2 * 6_912_000)), "108.0MB");
    }

    #[test]
    fn t1_total_is_55_3_gb() {
        let words: u128 = 480 * 480 * 480 * 64;
        assert_eq!(fmt_paper_bytes(words_to_bytes(words)), "55.296GB");
    }

    #[test]
    fn small_counts_keep_two_significant_digits() {
        assert_eq!(fmt_paper_bytes_legible(51_200), "0.050MB");
        assert_eq!(fmt_paper_bytes_legible(44_032), "0.043MB");
        assert_eq!(fmt_paper_bytes_legible(1_024), "0.0010MB");
        assert_eq!(fmt_paper_bytes_legible(16), "0.000016MB");
        assert_eq!(fmt_paper_bytes_legible(0), "0.0MB");
        // From 0.1MB up, and in GB, nothing changes.
        for bytes in [102_400u128, 118_000_000, 2_097_152_000] {
            assert_eq!(fmt_paper_bytes_legible(bytes), fmt_paper_bytes(bytes), "{bytes}");
        }
    }

    #[test]
    fn different_footprints_never_render_the_same() {
        let pair = |a: &str, b: &str| (a.to_string(), b.to_string());
        // Small counts already render apart in the legible form.
        assert_eq!(fmt_paper_bytes_apart(92_160, 51_200), pair("0.090MB", "0.050MB"));
        // Both are "0.1MB" at the paper's one decimal.
        assert_eq!(fmt_paper_bytes_apart(112_640, 102_400), pair("0.11MB", "0.10MB"));
        // Both are "0.050MB" legibly: decimals go on past the legible form.
        assert_eq!(fmt_paper_bytes_apart(51_264, 51_200), pair("0.0501MB", "0.0500MB"));
        assert_eq!(fmt_paper_bytes_apart(4_411_392_000, 2_097_152_000), pair("4.308GB", "2.048GB"));
        for base in [102_400u128, 2_097_152_000, 7 * 2_097_152_000] {
            let (a, b) = fmt_paper_bytes_apart(base + 8, base);
            assert_ne!(a, b, "{base}");
        }
    }
}
