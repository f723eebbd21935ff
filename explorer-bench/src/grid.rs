//! Seeded design-constraint grids for the design-sweep workload.
//!
//! Every pass draws a fresh grid, so the session's cached
//! `design_space` artifact of an earlier pass never answers a later one.
//! A grid is [`GRID_LEN`] distinct points of the 256-point lattice the
//! repository's one-shot sweep (`benches/explore.rs`) searches, drawn
//! with the generator's SplitMix64 stream keyed by `(seed, pass)`: the
//! same seed replays the same grids in the same order.

use asip_explorer::gen::GenRng;
use asip_explorer::opt::OptLevel;
use asip_explorer::synth::DesignConstraints;

/// Configs per grid.
pub const GRID_LEN: usize = 64;

/// Area budgets `750·{1..8}`, clocks `25 + 10·{0..3}` ns, extension caps
/// `1..=4`, optimization levels 1 and 2 (the levels whose schedules the
/// workload's set-up caches).
const AREA_STEPS: usize = 8;
const CLOCK_STEPS: usize = 4;
const MAX_CAP: usize = 4;
const LEVELS: [OptLevel; 2] = [OptLevel::Pipelined, OptLevel::PipelinedRenamed];

/// Points in the lattice.
pub const LATTICE_LEN: usize = AREA_STEPS * CLOCK_STEPS * MAX_CAP * LEVELS.len();

/// Lattice point `i` (`i < LATTICE_LEN`).
fn point(i: usize) -> DesignConstraints {
    let (area, i) = (i % AREA_STEPS, i / AREA_STEPS);
    let (clock, i) = (i % CLOCK_STEPS, i / CLOCK_STEPS);
    let (cap, level) = (i % MAX_CAP, i / MAX_CAP);
    DesignConstraints {
        area_budget: 750.0 * (area + 1) as f64,
        clock_ns: 25.0 + 10.0 * clock as f64,
        max_extensions: cap + 1,
        opt_level: LEVELS[level],
    }
}

/// The constraint grid of pass `pass` under `seed`: [`GRID_LEN`]
/// distinct lattice points in a seeded order (a partial Fisher–Yates
/// shuffle of the lattice).
pub fn grid(seed: u64, pass: u64) -> Vec<DesignConstraints> {
    let key = GenRng::new(seed).next_u64();
    let mut rng = GenRng::new(key ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut order: Vec<usize> = (0..LATTICE_LEN).collect();
    for i in 0..GRID_LEN {
        let j = i + rng.below(LATTICE_LEN - i);
        order.swap(i, j);
    }
    order[..GRID_LEN].iter().map(|&i| point(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn key(c: &DesignConstraints) -> (u64, u64, usize, u8) {
        (
            c.area_budget.to_bits(),
            c.clock_ns.to_bits(),
            c.max_extensions,
            c.opt_level.number(),
        )
    }

    fn keys(g: &[DesignConstraints]) -> Vec<(u64, u64, usize, u8)> {
        g.iter().map(key).collect()
    }

    #[test]
    fn same_seed_gives_the_same_grids() {
        for pass in 0..8 {
            assert_eq!(keys(&grid(7, pass)), keys(&grid(7, pass)));
        }
    }

    #[test]
    fn different_seeds_and_passes_give_different_grids() {
        assert_ne!(keys(&grid(7, 0)), keys(&grid(8, 0)));
        assert_ne!(keys(&grid(7, 0)), keys(&grid(7, 1)));
        assert_ne!(keys(&grid(0, 1)), keys(&grid(1, 0)));
    }

    #[test]
    fn the_lattice_is_the_one_shot_sweep_grid() {
        let all: BTreeSet<_> = (0..LATTICE_LEN).map(|i| key(&point(i))).collect();
        assert_eq!(all.len(), 256);
        let mut sweep = BTreeSet::new();
        for level in LEVELS {
            for area in 1..=8u32 {
                for clock in 0..4u32 {
                    for cap in 1..=4usize {
                        sweep.insert(key(&DesignConstraints {
                            area_budget: 750.0 * f64::from(area),
                            clock_ns: 25.0 + 10.0 * f64::from(clock),
                            max_extensions: cap,
                            opt_level: level,
                        }));
                    }
                }
            }
        }
        assert_eq!(all, sweep);
    }

    #[test]
    fn grids_are_distinct_lattice_points() {
        let lattice: BTreeSet<_> = (0..LATTICE_LEN).map(|i| key(&point(i))).collect();
        for seed in 0..16 {
            let g = keys(&grid(seed, seed * 3));
            assert_eq!(g.len(), GRID_LEN);
            let distinct: BTreeSet<_> = g.iter().copied().collect();
            assert_eq!(distinct.len(), GRID_LEN);
            assert!(distinct.is_subset(&lattice));
        }
    }
}
