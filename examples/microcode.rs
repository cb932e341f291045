//! Drive the ModSRAM datapath with an explicit micro-program: the FSM's
//! schedule is `Program::r4csa(k)`, the program `ModSram::mod_mul` runs.
//! Disassemble it, round-trip it as text, and run it through the
//! [`Executor`] on the same sequencer.
//!
//! ```sh
//! cargo run --example microcode
//! ```
//!
//! [`Executor`]: modsram::arch::Executor

use modsram::arch::{Executor, ModSram, ModSramConfig, Program};
use modsram::bigint::UBig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Figure 3 toy: 5-bit operands, p = 11000₂, B = 10010₂,
    // A = 10101₂ — three Booth digits, 17 cycles.
    let p = UBig::from(0b11000u64);
    let b = UBig::from(0b10010u64);
    let a = UBig::from(0b10101u64);

    let mut device = ModSram::new(ModSramConfig {
        n_bits: 5,
        ..Default::default()
    })?;
    device.load_modulus(&p)?;
    device.load_multiplicand(&b)?;

    // The compiler emits the paper's exact schedule for k = 3 digits.
    let program = Program::r4csa(3);
    println!("compiled micro-program ({program}):\n");
    for (pc, op) in program.ops().iter().enumerate() {
        println!("  {pc:>2}: {op}");
    }

    // Programs are plain text: round-trip through the assembler.
    let source = program.to_text();
    let reassembled = Program::parse(&source)?;
    assert_eq!(reassembled, program);

    let mut exec = Executor::new();
    let (c, stats) = exec.run(&mut device, &reassembled, &a)?;
    println!("\nA·B mod p = {a} · {b} mod {p} = {c}");
    println!(
        "cycles {} | activations {} | register writes {}",
        stats.cycles, stats.activations, stats.register_writes
    );
    assert_eq!(c, UBig::from(0b10101u64 * 0b10010 % 0b11000));

    // The same executor scales to the paper's 256-bit target; the
    // compiled schedule reproduces Table 3's 767 cycles.
    let p256 = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")?;
    let mut wide = ModSram::for_modulus(&p256)?;
    wide.load_multiplicand(&UBig::from_hex(
        "0fedcba9876543210fedcba9876543210fedcba9876543210fedcba987654321",
    )?)?;
    let a256 = UBig::from_hex("7234567812345678123456781234567812345678123456781234567812345678")?;
    let (_, wide_stats) = exec.run_mod_mul(&mut wide, &a256)?;
    println!(
        "\n256-bit run: {} cycles on a {}-op program (paper: 767)",
        wide_stats.cycles,
        exec.last_program().map(|p| p.ops().len()).unwrap_or(0)
    );
    Ok(())
}
