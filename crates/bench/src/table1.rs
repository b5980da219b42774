//! Table I — the parameter set, cross-checked against the live library
//! values (ring, primes, gadget, geometry).

use ive_he::HeParams;
use ive_math::modulus::Modulus;
use ive_pir::PirParams;

/// One parameter row: symbol, meaning, value from the implementation.
pub fn rows() -> Vec<Vec<String>> {
    let he = HeParams::paper();
    let primes = Modulus::special_primes();
    let q_bits = 128 - he.q_big().leading_zeros();
    let pir = PirParams::paper_for_db_bytes(2 << 30).expect("paper geometry");
    vec![
        vec![
            "D".into(),
            "records".into(),
            format!("2^16..2^24 (2GB: 2^{})", (pir.num_records() as f64).log2() as u32),
        ],
        vec!["D0".into(), "initial dimension".into(), format!("{}", pir.d0())],
        vec!["d".into(), "binary dimensions".into(), format!("{} (2GB)", pir.dims())],
        vec!["N".into(), "ring degree".into(), format!("2^{}", he.n().trailing_zeros())],
        vec![
            "Q".into(),
            "ciphertext modulus".into(),
            format!("{} bits = {}", q_bits, primes.map(|m| m.value().to_string()).join(" * ")),
        ],
        vec!["P".into(), "plaintext modulus".into(), format!("2^{}", he.p_bits())],
        vec![
            "z, l".into(),
            "decomposition base/length".into(),
            [("evk", he.evk_gadget()), ("RGSW", he.rgsw_gadget())]
                .map(|(role, g)| format!("2^{}, {} ({role})", g.base_bits(), g.ell()))
                .join("; "),
        ],
    ]
}

/// Column headers.
pub fn headers() -> [&'static str; 3] {
    ["Sym.", "Meaning", "Value (from implementation)"]
}

#[cfg(test)]
mod tests {
    #[test]
    fn rows_cover_table1_symbols() {
        let rows = super::rows();
        let syms: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        for s in ["D", "D0", "d", "N", "Q", "P", "z, l"] {
            assert!(syms.contains(&s), "missing {s}");
        }
        // Q is 109 bits < 2^112 as in Table I.
        let q_row = &rows[4][2];
        assert!(q_row.contains("109 bits"), "{q_row}");
        // One gadget per role, both inside Table I's range.
        assert_eq!(rows[6][2], "2^14, 8 (evk); 2^22, 5 (RGSW)");
    }
}
