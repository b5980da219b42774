//! Plain-text table rendering for the experiment binaries.

/// Renders an aligned table with a title, header row, and body rows.
pub(crate) fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let head: Vec<String> =
        headers.iter().enumerate().map(|(i, h)| format!("{h:>w$}", w = widths[i])).collect();
    out.push_str(&head.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Prints a rendered table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
    println!();
}

/// Formats a float with engineering-friendly precision.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.1 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Formats bytes as GB with two decimals (binary units).
pub fn gb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 30) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s = render_table(
            "T",
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("long_header"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn float_formats() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(4261.4), "4261");
        assert_eq!(f(25.84), "25.8");
        assert_eq!(f(0.5), "0.50");
        assert_eq!(f(0.021), "0.0210");
        assert_eq!(pct(0.58), "58.0%");
        assert_eq!(gb(1 << 31), "2.00");
    }
}
