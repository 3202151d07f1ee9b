//! Table 1: the datasets used in evaluation (paper dims + the reduced dims
//! this reproduction generates by default).

use fzgpu_bench::{parse_args, Table};
use fzgpu_data::{Scale, CATALOG};

const USAGE: &str = "usage:\n  table1_datasets";

fn main() {
    parse_args(USAGE, |_| Ok(()));
    let mut t = Table::new(&[
        "dataset",
        "domain",
        "paper dims",
        "paper size",
        "#fields",
        "examples",
        "repro dims",
    ]);
    for info in &CATALOG {
        let paper_mb = info.full_dims.count() as f64 * 4.0 / 1e6;
        t.row(vec![
            info.name.into(),
            info.domain.into(),
            info.full_dims.to_string_paper(),
            format!("{paper_mb:.2} MB"),
            info.num_fields.to_string(),
            info.example_fields.join(", "),
            info.dims(Scale::Reduced).to_string_paper(),
        ]);
    }
    println!("Table 1: real-world float datasets (SDRBench) and their synthetic stand-ins\n");
    print!("{}", t.render());
}
