//! Tier-1 coverage of the static convergence certifier
//! (`graybox-lint certify`): the flagship stair is accepted, both seeded
//! mutants are rejected by the obligation that names their fault, and
//! the certificate mined from the two-process model is the pinned one.

use graybox_analyze::stair::NUM_PROJ;
use graybox_analyze::{certify_tme, tme_stair_certificate, CertifyTarget, Report};

fn assert_names(report: &Report, obligation: &str, command_prefix: Option<&str>) {
    assert!(!report.is_clean(), "{} was accepted", report.target);
    assert!(
        report.findings.iter().any(|f| {
            f.message.contains(obligation)
                && command_prefix.is_none_or(|prefix| {
                    f.command.as_deref().is_some_and(|c| c.starts_with(prefix))
                })
        }),
        "expected {obligation:?} in {}: {:?}",
        report.target,
        report.findings
    );
}

#[test]
fn flagship_is_certified_and_both_mutants_are_rejected() {
    let flagship = certify_tme(CertifyTarget::Flagship);
    assert!(flagship.is_clean(), "{:?}", flagship.findings);
    assert_eq!(flagship.certified.len(), 3, "{:?}", flagship.certified);

    let dropped = certify_tme(CertifyTarget::MutantDroppedGuard);
    assert_names(&dropped, "obligation noinc", Some("wrapper"));

    let bad_rank = certify_tme(CertifyTarget::MutantBadRank);
    assert_names(&bad_rank, "obligation progress", None);
}

#[test]
fn mined_certificate_matches_the_pinned_digest() {
    // FNV-1a 64 over, per projection code: the S₂ bit, the S₁ bit, then
    // for regions A, B, C the rank, the designated command (255 for
    // none) and the deferred bit.
    let cert = tme_stair_certificate();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for code in 0..NUM_PROJ {
        feed(u8::from(cert.levels[1].members[code]));
        feed(u8::from(cert.levels[0].members[code]));
        for region in &cert.regions {
            feed(region.weight[code]);
            feed(region.designated[code].unwrap_or(255));
            feed(u8::from(region.deferred[code]));
        }
    }
    assert_eq!(hash, 0xace3_9f9c_45d1_ebca);
}
