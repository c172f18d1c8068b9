//! Property-based corruption tests for the persistence layer: arbitrary
//! single-bit flips and truncations anywhere in a saved stream must
//! never panic, and any load that *succeeds* — strictly or through
//! recovery — must serve predictions identical to the original model
//! (the rebuilt sections are deterministic re-derivations, and CRC32
//! catches every single-bit flip in the sections that cannot be
//! rebuilt).

use std::sync::OnceLock;

use cf_matrix::{ItemId, Predictor, UserId};
use cfsf_core::{Cfsf, CfsfConfig};
use proptest::prelude::*;

fn model() -> &'static Cfsf {
    static MODEL: OnceLock<Cfsf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let d = cf_data::SyntheticConfig::small().generate();
        Cfsf::fit(&d.matrix, CfsfConfig::small()).expect("fit")
    })
}

fn saved() -> &'static [u8] {
    static SAVED: OnceLock<Vec<u8>> = OnceLock::new();
    SAVED.get_or_init(|| {
        let mut buf = Vec::new();
        model().save(&mut buf).expect("save");
        buf
    })
}

fn probes() -> impl Iterator<Item = (UserId, ItemId)> {
    (0..12).map(|k| (UserId::new(k * 11 % 80), ItemId::new(k * 17 % 120)))
}

/// Byte range of the `n`-th (0-based) section payload in a V4 stream
/// (8-byte header: magic, version).
fn section_payload(buf: &[u8], n: usize) -> std::ops::Range<usize> {
    let mut pos = 8usize;
    for _ in 0..n {
        let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().expect("frame")) as usize;
        pos += 12 + len + 4;
    }
    let len = u64::from_le_bytes(buf[pos + 4..pos + 12].try_into().expect("frame")) as usize;
    pos + 12..pos + 12 + len
}

/// A loaded model is either rejected or predicts exactly like the
/// original — there is no third outcome where corruption slips through.
fn assert_sound(loaded: Result<Cfsf, impl std::fmt::Debug>) {
    if let Ok(m) = loaded {
        for (u, i) in probes() {
            assert_eq!(m.predict(u, i), model().predict(u, i), "({u:?},{i:?})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_flips_never_panic_and_never_corrupt_predictions(
        pos in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let mut buf = saved().to_vec();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        assert_sound(Cfsf::load(buf.as_slice()));
        assert_sound(Cfsf::load_with_recovery(buf.as_slice()).map(|(m, _)| m));
    }

    #[test]
    fn truncations_never_panic_and_never_corrupt_predictions(
        cut in 0usize..1_000_000,
    ) {
        let full = saved();
        let cut = cut % (full.len() + 1);
        let buf = &full[..cut];
        // A truncated stream must never load strictly...
        if cut < full.len() {
            prop_assert!(Cfsf::load(buf).is_err());
        }
        // ...and recovery either rejects it or rebuilds an equivalent.
        assert_sound(Cfsf::load_with_recovery(buf).map(|(m, _)| m));
    }

    /// Any bit flip inside the GIS or cluster section payload must fail
    /// the strict load (CRC), and recovery must rebuild exactly that
    /// section from the stored matrix — deterministically, so
    /// predictions stay bit-identical.
    #[test]
    fn derived_section_flips_always_recover_bit_identically(
        section in 2usize..4,
        off in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let mut buf = saved().to_vec();
        let payload = section_payload(&buf, section);
        let pos = payload.start + off % payload.len();
        buf[pos] ^= 1 << bit;
        prop_assert!(Cfsf::load(buf.as_slice()).is_err());
        let (m, report) = Cfsf::load_with_recovery(buf.as_slice()).expect("section recovers");
        prop_assert_eq!((report.gis_rebuilt, report.clusters_rebuilt), (section == 2, section == 3));
        for (u, i) in probes() {
            prop_assert_eq!(m.predict(u, i), model().predict(u, i));
        }
    }

    #[test]
    fn double_corruption_never_panics(
        a in 0usize..1_000_000,
        b in 0usize..1_000_000,
        cut in 0usize..1_000_000,
    ) {
        let mut buf = saved().to_vec();
        let (a, b) = (a % buf.len(), b % buf.len());
        buf[a] ^= 0xFF;
        buf[b] ^= 0x55;
        buf.truncate(cut % (buf.len() + 1));
        assert_sound(Cfsf::load(buf.as_slice()));
        assert_sound(Cfsf::load_with_recovery(buf.as_slice()).map(|(m, _)| m));
    }
}
