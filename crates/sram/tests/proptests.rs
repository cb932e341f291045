//! Property tests for the SRAM PIM simulator.

use modsram_sram::{CellKind, SenseOut, SramArray, SramConfig, StuckAt};
use proptest::prelude::*;

/// Arbitrary geometry plus row data that fits it.
fn geometry() -> impl Strategy<Value = (usize, usize)> {
    (1usize..32, 1usize..200)
}

fn mask_words(words: &mut [u64], cols: usize) {
    let extra = words.len() * 64 - cols;
    if extra > 0 {
        if let Some(top) = words.last_mut() {
            *top &= u64::MAX >> extra;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_read_roundtrip((rows, cols) in geometry(), data in prop::collection::vec(any::<u64>(), 0..4), row_sel in any::<prop::sample::Index>()) {
        let mut array = SramArray::new(SramConfig::ideal(rows, cols));
        let words = cols.div_ceil(64);
        let mut padded = vec![0u64; words];
        for (i, v) in data.iter().take(words).enumerate() {
            padded[i] = *v;
        }
        mask_words(&mut padded, cols);
        let row = row_sel.index(rows);
        array.write_row(row, &padded);
        prop_assert_eq!(array.read_row(row), padded);
    }

    #[test]
    fn activation_is_exact_logic((rows, cols) in (3usize..16, 1usize..130), seeds in prop::collection::vec(any::<u64>(), 3)) {
        let mut array = SramArray::new(SramConfig::ideal(rows, cols));
        let words = cols.div_ceil(64);
        let mut expect = vec![vec![0u64; words]; 3];
        for (r, seed) in seeds.iter().enumerate() {
            let mut x = *seed | 1;
            for word in expect[r].iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *word = x;
            }
            mask_words(&mut expect[r], cols);
            array.write_row(r, &expect[r]);
        }
        let out = array.activate(&[0, 1, 2]);
        #[allow(clippy::needless_range_loop)] // w indexes four parallel vectors
        for w in 0..words {
            let (a, b, c) = (expect[0][w], expect[1][w], expect[2][w]);
            prop_assert_eq!(out.xor[w], a ^ b ^ c);
            prop_assert_eq!(out.maj[w], (a & b) | (a & c) | (b & c));
            prop_assert_eq!(out.or[w], a | b | c);
            prop_assert_eq!(out.and[w], a & b & c);
        }
    }

    #[test]
    fn eight_t_is_disturb_immune(disturb in 0.0f64..=1.0, seed in any::<u64>()) {
        let mut cfg = SramConfig::ideal(8, 64);
        cfg.cell = CellKind::EightT;
        cfg.fault.disturb_per_cell = disturb;
        cfg.fault.seed = seed;
        let mut array = SramArray::new(cfg);
        array.write_row(0, &[0xdead_beef_dead_beef]);
        array.write_row(1, &[u64::MAX]);
        for _ in 0..5 {
            array.activate(&[0, 1, 2]);
        }
        prop_assert_eq!(array.read_row(0), vec![0xdead_beef_dead_beef]);
        prop_assert_eq!(array.stats().disturb_flips, 0);
    }

    #[test]
    fn six_t_disturb_only_clears_ones(p_disturb in 0.1f64..=1.0, seed in any::<u64>()) {
        let mut cfg = SramConfig::ideal(8, 64);
        cfg.cell = CellKind::SixT;
        cfg.fault.disturb_per_cell = p_disturb;
        cfg.fault.seed = seed;
        let mut array = SramArray::new(cfg);
        let original = 0xF0F0_F0F0_F0F0_F0F0u64;
        array.write_row(0, &[original]);
        array.activate(&[0, 1, 2]);
        let after = array.read_row(0)[0];
        // Disturb only flips stored ones toward zero, never creates ones.
        prop_assert_eq!(after & !original, 0);
    }

    #[test]
    fn energy_is_monotone_in_activity(ops in 1usize..20) {
        let mut array = SramArray::new(SramConfig::ideal(8, 128));
        array.write_row(0, &[1, 2]);
        let mut last = 0.0f64;
        for _ in 0..ops {
            array.activate(&[0, 1, 2]);
            let e = array.stats().energy_pj;
            prop_assert!(e > last);
            last = e;
        }
    }

    #[test]
    fn activate_into_matches_activate_on_a_noisy_array(
        cols in 1usize..200,
        sigma in 0.05f64..0.6,
        disturb in 0.0f64..0.2,
        seed in any::<u64>(),
        data in prop::collection::vec(any::<u64>(), 12),
        picks in prop::collection::vec((0usize..6, 0usize..6, 0usize..6, 1usize..=3), 1..12),
    ) {
        // Same seed, same noisy 6T array with a stuck-at cell: one copy
        // senses through `activate`, the other reuses one `SenseOut`
        // through `activate_into`. Every output, every counter and the
        // stored contents (read-disturb flips) must agree, so a reused
        // sense buffer cannot reorder the fault RNG draws.
        let mut cfg = SramConfig::ideal(6, cols);
        cfg.cell = CellKind::SixT;
        cfg.fault.sa_offset_sigma = sigma;
        cfg.fault.disturb_per_cell = disturb;
        cfg.fault.seed = seed;
        cfg.fault.stuck_at.push(StuckAt { row: 1, col: cols / 2, value: true });
        let mut fresh = SramArray::new(cfg.clone());
        let mut reused = SramArray::new(cfg);
        let words = cols.div_ceil(64);
        for row in 0..6 {
            let mut w: Vec<u64> = (0..words).map(|i| data[(row * 2 + i) % data.len()]).collect();
            mask_words(&mut w, cols);
            fresh.write_row(row, &w);
            reused.write_row(row, &w);
        }
        let mut out = SenseOut::default();
        for (a, b, c, len) in picks {
            let mut rows = vec![a];
            for r in [b, c] {
                if rows.len() < len && !rows.contains(&r) {
                    rows.push(r);
                }
            }
            let want = fresh.activate(&rows);
            reused.activate_into(&rows, &mut out);
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(reused.stats(), fresh.stats());
        }
        for row in 0..6 {
            prop_assert_eq!(reused.peek_row(row), fresh.peek_row(row));
        }
    }
}
