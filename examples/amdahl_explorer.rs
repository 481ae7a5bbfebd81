//! Explore the paper's §4.2 performance-estimation equations.
//!
//! Prints the "is this optimization worth it?" landscape: application
//! speed-up as a function of kernel coverage and kernel speed-up (Eq. 1),
//! the paper's worked example, and the §5.5 scenario arithmetic built
//! from Table 1's numbers.
//!
//! ```sh
//! cargo run --release --example amdahl_explorer
//! ```

use marvel::app::paper_kernel_specs;
use portkit::amdahl::{
    coverage_ceiling, estimate_grouped, estimate_sequential, estimate_single,
    optimization_leverage, KernelSpec,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Eq. 1 landscape -------------------------------------------------
    println!("Application speed-up (Eq. 1) by kernel coverage x kernel speed-up:\n");
    print!("{:>10}", "cov \\ su");
    let speedups = [2.0, 5.0, 10.0, 50.0, 100.0];
    for s in speedups {
        print!("{s:>9.0}");
    }
    println!();
    for cov in [0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.98] {
        print!("{:>9.0}%", cov * 100.0);
        for s in speedups {
            print!("{:>9.3}", estimate_single(cov, s)?);
        }
        println!();
    }

    // ---- The paper's worked example ---------------------------------------
    println!("\nPaper §4.2 worked example:");
    println!(
        "  K_fr = 10%, 10x  -> S_app = {:.4} (paper: 1.0989)",
        estimate_single(0.10, 10.0)?
    );
    println!(
        "  K_fr = 10%, 100x -> S_app = {:.4} (paper: 1.1098)",
        estimate_single(0.10, 100.0)?
    );
    println!(
        "  leverage of that extra 10x of effort: {:.4} -> not worth it",
        optimization_leverage(0.10, 10.0, 100.0)?
    );

    // ---- The MARVEL scenario arithmetic -----------------------------------
    println!("\nMARVEL scenarios from the paper's Table 1 (speed-ups vs Desktop = Table1/3.2):");
    let kernels = paper_kernel_specs();
    println!(
        "  scenario 1 (sequential):      {:.2}  (paper 10.90)",
        estimate_sequential(&kernels)?
    );
    println!(
        "  scenario 2 (parallel + CD):   {:.2}  (paper 15.28)",
        estimate_grouped(&kernels, &[vec![0, 1, 2, 3], vec![4]])?
    );
    println!(
        "  scenario 3 (replicated CD):   {:.2}  (paper 15.64)",
        estimate_grouped(&kernels, &[vec![0, 1, 2, 3, 4]])?
    );
    println!(
        "  ceiling at 98% coverage:      {:.2}",
        coverage_ceiling(&kernels)?
    );

    // ---- What-if: kill the dominant kernel's advantage --------------------
    println!(
        "\nWhat-if: CCExtract only reaches 5x instead of {:.1}x:",
        kernels[1].speedup
    );
    let mut nerfed = kernels.clone();
    nerfed[1] = KernelSpec::new("CCExtract", 0.54, 5.0);
    println!(
        "  sequential drops to {:.2} — the dominant kernel's speed-up is the whole game",
        estimate_sequential(&nerfed)?
    );
    Ok(())
}
