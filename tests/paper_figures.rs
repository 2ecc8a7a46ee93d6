//! Paper reproductions, byte for byte: Table 1, Figures 5 / 7 / 8 / 11
//! (the §6 multithreading bar included) and the ablations must keep
//! rendering exactly `tests/golden/paper_figures.txt`.
//!
//! Every number in those renders is a call count or a virtual time, so
//! the text is deterministic. The golden file was generated when
//! `pipeline::run` still had parallel-dispatch and adaptive entry
//! points of its own, and has held through each rewrite of the engine
//! beneath it since, the stage-by-stage loop's replacement by the pull
//! driver's stage mode included; regenerate it (only when a figure is
//! meant to change) with `MDQ_WRITE_GOLDEN=1 cargo test --release
//! --test paper_figures`.

use mdq_bench::experiments::{ablation, fig11, fig5, fig7, fig8, table1};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/paper_figures.txt"
);
const SEED: u64 = 2008;

#[test]
fn paper_figures_render_the_golden_text() {
    let sections = [
        ("table1", table1::render(SEED)),
        ("fig7", fig7::render()),
        ("fig5", fig5::render()),
        ("fig8", fig8::render()),
        ("fig11", fig11::render(SEED)),
        ("ablation", ablation::render()),
    ];
    let mut text = String::new();
    for (name, body) in &sections {
        text.push_str(&format!("== {name} ==\n{body}\n"));
    }
    if std::env::var_os("MDQ_WRITE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, text).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    for (n, (want, got)) in golden.lines().zip(text.lines()).enumerate() {
        assert_eq!(want, got, "line {} differs from the golden file", n + 1);
    }
    assert_eq!(golden, text, "render length differs from the golden file");
}
