//! Experiment E3 — regenerates **Table 3** (case-base memory consumption)
//! from the real encoders.
//!
//! `cargo run -p rqfa-bench --bin table3_memory`

use rqfa_memlist::{
    encode_case_base, encode_compact_case_base, encode_request, MemoryReport,
};
use rqfa_workloads::{CaseGen, RequestGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 3. Case-base memory consumption\n");
    println!("shape (paper): 15 function types × 10 implementations × 10 attributes");
    println!("               10 distinct attribute types, 10-attribute request\n");

    let case_base = CaseGen::paper_shape().seed(1).build();
    let request = RequestGen::new(&case_base)
        .seed(1)
        .count(1)
        .drop_fraction(0.0)
        .generate()
        .remove(0);

    let req_image = encode_request(&request)?;
    println!(
        "memory consumption of request:    {:>6} bytes   (paper: 64 bytes)",
        req_image.image().bytes()
    );

    let classic = encode_case_base(&case_base)?;
    let classic_report = MemoryReport::of(&classic);
    println!(
        "case base, canonical encoding:    {:>6} bytes ≈ {:.2} kB   (paper: ~4.5 kB)",
        classic_report.total_bytes(),
        classic_report.total_kib()
    );
    let compact = encode_compact_case_base(&case_base)?;
    let compact_report = MemoryReport::of_compact(&compact);
    println!(
        "case base, compact encoding:      {:>6} bytes ≈ {:.2} kB",
        compact_report.total_bytes(),
        compact_report.total_kib()
    );

    println!("\nsection breakdown (canonical):\n{classic_report}");
    println!("section breakdown (compact):\n{compact_report}");
    println!(
        "note: the paper's stated layout (2 words per attribute entry + \n\
         terminators) needs ~6.9 kB; the ~4.5 kB figure matches the packed\n\
         single-word attribute encoding the §5 outlook describes (both\n\
         breakdowns above)."
    );
    Ok(())
}
