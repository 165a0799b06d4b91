//! The paper tables are part of the repo's contract: everything
//! `opec-eval all` prints — Tables 1–3, Figures 9–11 and the §6.1 case
//! study — is derived from deterministic simulated runs, so it must stay
//! byte-identical across refactors. The one measured value, Table 3's
//! host-time `Time(s)` column, is masked before the comparison.
//!
//! Regenerate the golden file after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test --test paper_tables`.

use opec_eval::report;

/// Header of the Table 3 column holding measured host time.
const TIME_COLUMN: &str = "Time(s)";

/// Replaces every value in Table 3's `Time(s)` column with `#`s of the
/// same length, leaving every other byte of the rendering untouched.
fn mask_table3_time(rendered: &str) -> String {
    let mut out = String::new();
    let mut column: Option<usize> = None;
    let mut in_table3 = false;
    for line in rendered.split_inclusive('\n') {
        if line.starts_with("Table 3:") {
            in_table3 = true;
        } else if in_table3 && line.trim().is_empty() {
            in_table3 = false;
            column = None;
        }
        if in_table3 && column.is_none() && line.contains(TIME_COLUMN) {
            column = line.split_whitespace().position(|h| h == TIME_COLUMN);
            out.push_str(line);
            continue;
        }
        match column.filter(|_| in_table3 && !line.starts_with('-')) {
            Some(col) => out.push_str(&mask_token(line, col)),
            None => out.push_str(line),
        }
    }
    out
}

/// `line` with its `col`-th whitespace-separated token replaced by `#`s.
fn mask_token(line: &str, col: usize) -> String {
    let mut out = String::with_capacity(line.len());
    let mut token = 0;
    let mut in_token = false;
    for c in line.chars() {
        if c.is_whitespace() {
            if in_token {
                token += 1;
            }
            in_token = false;
            out.push(c);
        } else {
            in_token = true;
            out.push(if token == col { '#' } else { c });
        }
    }
    out
}

/// The stdout of `opec-eval all`, in its order: one memoized pass over
/// the seven applications, then the ACES comparison served from the
/// same cache.
fn render_all() -> String {
    let evals = report::run_all_apps();
    let cmp = report::run_comparison_apps();
    [
        report::table1(&evals),
        report::figure9(&evals),
        report::table3(&evals),
        report::table2(&cmp),
        report::figure10(&cmp),
        report::figure11(&cmp),
        report::case_study(),
    ]
    .iter()
    .map(|section| format!("{section}\n"))
    .collect()
}

#[test]
fn masking_touches_only_the_time_column() {
    let table = "Table 3: x\nApp  #Icall  Time(s)  #Type\n---\nA    1       0.0123   2\n\nTable 4\n9 9 9 9\n";
    assert_eq!(
        mask_table3_time(table),
        "Table 3: x\nApp  #Icall  Time(s)  #Type\n---\nA    1       ######   2\n\nTable 4\n9 9 9 9\n"
    );
}

#[test]
fn paper_tables_match_golden_file() {
    let rendered = mask_table3_time(&render_all());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/paper_tables.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    if rendered != golden {
        let (i, (got, want)) = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((0, ("<length differs>", "<length differs>")));
        panic!(
            "paper tables drifted from the golden file at line {}:\n  got:  {got}\n  want: {want}\n\
             if the change is intentional, regenerate with UPDATE_GOLDEN=1",
            i + 1
        );
    }
}
