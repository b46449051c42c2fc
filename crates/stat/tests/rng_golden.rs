//! Golden-value tests pinning the exact output streams of the in-tree
//! RNG.
//!
//! Every regenerated table and figure in the repo is a deterministic
//! function of these streams. A change to the generator (or its seeding)
//! that silently shifted them would invalidate all recorded experiment
//! outputs at once — these tests force such a change to be deliberate:
//! update the constants here *and* regenerate the reports together.
//!
//! The constants are cross-checkable against the reference
//! implementations: `derive_seed` is the SplitMix64 finalizer (its value
//! at (0,0) is SplitMix64's canonical first output), and `seeded(s)` is
//! xoshiro256++ with its state filled from the SplitMix64 sequence —
//! the seeding the xoshiro authors recommend.

use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

#[test]
fn seeded_stream_is_pinned() {
    let cases: [(u64, [u64; 4]); 4] = [
        (
            0,
            [
                0x53175D61490B23DF,
                0x61DA6F3DC380D507,
                0x5C0FDF91EC9A7BFC,
                0x02EEBF8C3BBE5E1A,
            ],
        ),
        (
            1,
            [
                0xCFC5D07F6F03C29B,
                0xBF424132963FE08D,
                0x19A37D5757AAF520,
                0xBF08119F05CD56D6,
            ],
        ),
        (
            42,
            [
                0xD0764D4F4476689F,
                0x519E4174576F3791,
                0xFBE07CFB0C24ED8C,
                0xB37D9F600CD835B8,
            ],
        ),
        (
            0xDEAD_BEEF,
            [
                0x0C520EB8FEA98EDE,
                0x2B74A6338B80E0E2,
                0xBE238770C3795322,
                0x5F235F98A244EA97,
            ],
        ),
    ];
    for (seed, expected) in cases {
        let mut rng = seeded(seed);
        for (i, &want) in expected.iter().enumerate() {
            let got = rng.next_u64();
            assert_eq!(got, want, "seeded({seed}) output {i}: {got:#018X}");
        }
    }
}

#[test]
fn derive_seed_is_pinned() {
    // (0, 0) is the canonical first SplitMix64 output for state 0.
    assert_eq!(derive_seed(0, 0), 0xE220A8397B1DCDAF);
    assert_eq!(derive_seed(0, 1), 0x6E789E6AA1B965F4);
    assert_eq!(derive_seed(1, 0), 0x910A2DEC89025CC1);
    assert_eq!(derive_seed(42, 7), 0xCCF635EE9E9E2FA4);
    assert_eq!(derive_seed(u64::MAX, u64::MAX), 0xB4D055FCF2CBBD7B);
}

#[test]
fn next_f64_stream_is_pinned() {
    let mut rng = seeded(5);
    let expected = [
        2.9202287154046747e-1,
        6.114394140810253e-1,
        9.796325663560501e-2,
        5.8611202242922045e-2,
    ];
    for (i, want) in expected.into_iter().enumerate() {
        let got = rng.next_f64();
        assert!(
            (got - want).abs() < 1e-16,
            "next_f64 output {i}: {got:.17e} vs {want:.17e}"
        );
    }
}

#[test]
fn normal_sample_stream_is_pinned() {
    // The regenerated tables depend on the composition RNG → polar
    // sampler, so pin that too: a change in either layer must show up.
    let mut rng = seeded(2013);
    let mut s = StandardNormal::new();
    let expected = [
        -2.584330973274891e-1,
        -4.3295555495440363e-1,
        1.1310660446579528e0,
        6.839945151486868e-1,
        -1.6968867242806929e0,
        -8.998591061511511e-1,
    ];
    for (i, want) in expected.into_iter().enumerate() {
        let got = s.sample(&mut rng);
        assert!(
            (got - want).abs() < 1e-14,
            "normal sample {i}: {got:.17e} vs {want:.17e}"
        );
    }
}

/// Sub-streams derived from the same master must be independent: the
/// property every multi-component experiment relies on when it hands
/// `derive_seed(master, label)` to each component.
#[test]
fn derived_streams_are_independent() {
    let master = 99;
    let mut a = seeded(derive_seed(master, 0));
    let mut b = seeded(derive_seed(master, 1));
    let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
    assert_ne!(xs, ys);
    // No trivial lockstep correlation: the streams never agree pointwise.
    let agreements = xs.iter().zip(&ys).filter(|(x, y)| x == y).count();
    assert_eq!(agreements, 0);
    // And a stream is not a shift of the other (offset collisions would
    // mean the "independent" repeats of an experiment overlap).
    for lag in 1..8 {
        assert_ne!(xs[lag..], ys[..64 - lag], "lag {lag} collision");
    }
}

/// Adding a consumer with a new stream label must not perturb existing
/// streams — the bit-reproducibility contract from the module docs.
#[test]
fn stream_labels_do_not_interfere() {
    let master = 7;
    let before: Vec<u64> = {
        let mut r = seeded(derive_seed(master, 3));
        (0..16).map(|_| r.next_u64()).collect()
    };
    // "Allocate" other labels in between; label 3's stream is unchanged.
    let _ = seeded(derive_seed(master, 0)).next_u64();
    let _ = seeded(derive_seed(master, 100)).next_u64();
    let after: Vec<u64> = {
        let mut r = seeded(derive_seed(master, 3));
        (0..16).map(|_| r.next_u64()).collect()
    };
    assert_eq!(before, after);
}
