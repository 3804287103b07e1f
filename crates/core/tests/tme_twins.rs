//! The TME model against its oracle: the IR model
//! ([`program_nproc_ir`]) and the same model in the decode/encode DSL of
//! `graybox-oracles` compile to identical systems, exhaustively at
//! n = 2 (plain and fair) and n = 3 (plain, release only).

mod common;

use common::assert_nproc_twins_agree;
use graybox_core::tme_abstract::program_nproc_ir;
use graybox_oracles::tme::program_nproc_reference;

#[test]
#[ignore = "two full 7.5M-state compiles per model; CI runs it in release"]
fn lowered_ir_and_reference_compile_identically_at_n3() {
    // The lowering at n = 3, exhaustively: the unwrapped and wrapped
    // models compile to equal systems through the packed compiler
    // and the oracle DSL.
    for with_wrapper in [false, true] {
        let (packed, packed_init) = program_nproc_ir(3, with_wrapper);
        let (reference, reference_init) = program_nproc_reference(3, with_wrapper);
        let a = packed.compile(packed_init).unwrap();
        let b = reference.compile(reference_init).unwrap();
        assert_eq!(a.system(), &b, "wrapper={with_wrapper}");
    }
}

#[test]
fn nproc_packed_and_reference_twins_agree_at_n2() {
    // The full cross-validation on the real model (random-program
    // differential tests live in tests/gcl_differential.rs): systems,
    // per-command components, unions, and verdicts must be identical.
    for with_wrapper in [false, true] {
        assert_nproc_twins_agree(2, with_wrapper);
    }
}
