//! `sim_dse`: the simulator's cold path as a design-space search drives
//! it. Every op simulates one new design point on the six benchmark
//! networks, so every `HwCostCache` lookup misses and inserts.

use crate::report::SIM_NETS;
use crate::runner::{span, time_serial, Pass, Workload};
use crate::util::{stream_seed, Digest, Rng};
use cq_accel::{CambriconQ, CqConfig};
use cq_mem::DdrConfig;
use cq_ndp::OptimizerKind;
use cq_quant::IntFormat;
use cq_sim::SimResult;
use cq_workloads::{models, Network};
use std::collections::HashSet;

/// One point of the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// PE array rows.
    pub pe_rows: usize,
    /// PE array columns.
    pub pe_cols: usize,
    /// PE arrays.
    pub pe_arrays: usize,
    /// NBin KiB.
    pub nbin_kb: usize,
    /// SB KiB.
    pub sb_kb: usize,
    /// NBout KiB.
    pub nbout_kb: usize,
    /// INT4 training instead of INT8.
    pub int4: bool,
    /// Weight update in the NDP engine.
    pub ndp: bool,
    /// DDR bandwidth multiple of the edge part (also the SQU count).
    pub bw_scale: usize,
    /// Core clock in MHz.
    pub clock_mhz: usize,
}

impl DesignPoint {
    /// The chip configuration of this point, derived from the edge part.
    pub fn config(&self) -> CqConfig {
        let mut c = CqConfig::edge();
        c.pe_rows = self.pe_rows;
        c.pe_cols = self.pe_cols;
        c.pe_arrays = self.pe_arrays;
        c.nbin_kb = self.nbin_kb;
        c.sb_kb = self.sb_kb;
        c.nbout_kb = self.nbout_kb;
        c.train_format = if self.int4 {
            IntFormat::Int4
        } else {
            IntFormat::Int8
        };
        c.ndp_enabled = self.ndp;
        c.squ_units = self.bw_scale;
        c.ddr = DdrConfig::cambricon_q().scaled_bandwidth(self.bw_scale);
        c.freq_ghz = self.clock_mhz as f64 / 1e3;
        c
    }
}

/// Design points per balanced block: NDP on/off × INT4/INT8 × three
/// bandwidths, each combination once.
pub const STRATA: usize = 2 * 2 * 3;

/// The levels of every other setting. Each divides [`STRATA`], so a
/// block can hold every level equally often.
const PE_DIMS: [usize; 3] = [32, 64, 128];
const PE_ARRAYS: [usize; 4] = [1, 2, 4, 8];
const NBIN_KB: [usize; 3] = [128, 256, 512];
const SB_KB: [usize; 3] = [256, 512, 1024];
const NBOUT_KB: [usize; 3] = [128, 256, 512];
const CLOCK_MHZ: [usize; 3] = [800, 1000, 1200];

/// `levels` repeated to fill a block, in a seeded order.
fn balanced(rng: &mut Rng, levels: &[usize]) -> Vec<usize> {
    let mut v: Vec<usize> = (0..STRATA).map(|i| levels[i % levels.len()]).collect();
    for i in (1..STRATA).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// `count` distinct design points for `seed`, in blocks of [`STRATA`].
/// Every block holds each NDP × format × bandwidth combination once and
/// each level of every other setting equally often; only which levels
/// meet in one point comes from the seed. NDP and the format decide most
/// of a point's host cost (DDR traffic, 20–120 ms per point), so this
/// keeps every run's mix of cheap and costly points the same whatever
/// the seed.
pub fn design_points(seed: u64, count: usize) -> Vec<DesignPoint> {
    let mut rng = Rng::new(stream_seed(seed, 300));
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count + STRATA);
    while out.len() < count {
        let mut draw = |levels: &[usize]| balanced(&mut rng, levels);
        let strata = draw(&(0..STRATA).collect::<Vec<_>>());
        let (rows, cols, arrays) = (draw(&PE_DIMS), draw(&PE_DIMS), draw(&PE_ARRAYS));
        let (nbin, sb, nbout) = (draw(&NBIN_KB), draw(&SB_KB), draw(&NBOUT_KB));
        let clock = draw(&CLOCK_MHZ);
        let block: Vec<DesignPoint> = (0..STRATA)
            .map(|i| {
                let s = strata[i];
                DesignPoint {
                    pe_rows: rows[i],
                    pe_cols: cols[i],
                    pe_arrays: arrays[i],
                    nbin_kb: nbin[i],
                    sb_kb: sb[i],
                    nbout_kb: nbout[i],
                    clock_mhz: clock[i],
                    ndp: s % 2 == 0,
                    int4: (s / 2) % 2 == 1,
                    bw_scale: [1, 2, 4][s / 4],
                }
            })
            .collect();
        // A block that repeats a point is drawn again whole, so every
        // block stays balanced.
        let fresh: HashSet<DesignPoint> = block.iter().copied().collect();
        if fresh.len() == STRATA && fresh.is_disjoint(&seen) {
            seen.extend(fresh);
            out.extend(block);
        }
    }
    out.truncate(count);
    out
}

/// The optimizer every design point trains with.
pub const OPTIMIZER: OptimizerKind = OptimizerKind::Adam {
    lr: 1e-3,
    beta1: 0.9,
    beta2: 0.999,
};

/// Design points re-simulated with the cache off after each pass.
pub const VERIFY_SAMPLE: usize = 6;

/// A record passes when it decodes back to itself with positive cycles
/// and energy.
fn record_ok(record: &str) -> bool {
    SimResult::from_record(record).is_some_and(|r| {
        r.to_record() == record && r.total_cycles() > 0 && r.total_energy_mj() > 0.0
    })
}

/// `sim_dse` state: the networks and the seeded design points (warm-up
/// points first).
pub struct SimDse {
    seed: u64,
    nets: Vec<Network>,
    points: Vec<DesignPoint>,
    /// Points consumed so far (warm-up and timed).
    next: usize,
}

impl SimDse {
    /// Simulates the next design point on every network; returns its
    /// records.
    fn op(&mut self, op: usize) -> Vec<String> {
        if self.next == self.points.len() {
            // A run longer than `setup` planned for: extend the same
            // seeded sequence.
            self.points = design_points(self.seed, self.points.len() * 2);
        }
        let chip = CambriconQ::new(self.points[self.next].config());
        self.next += 1;
        self.nets
            .iter()
            .zip(SIM_NETS)
            .map(|(net, (key, _))| {
                let mut sp = span("accel.simulate", op);
                sp.arg("net", key).arg("layers", net.layers.len());
                chip.simulate(net, OPTIMIZER).to_record()
            })
            .collect()
    }

    /// The design point of timed op `op`.
    fn timed_point(&self, op: usize) -> DesignPoint {
        self.points[Self::WARMUP_OPS + op]
    }
}

impl Workload for SimDse {
    const NAME: &'static str = "sim_dse";
    const COMPOSITION: &'static str = "one new seeded design point (PE rows/cols/arrays, \
        NBin/SB/NBout, INT4/INT8, NDP, bandwidth with SQU units, clock) simulated with \
        CambriconQ::simulate on the six all_benchmarks() networks, serially, Adam";
    const NOMINAL_OPS_PER_S: f64 = 18.0;
    const WARMUP_OPS: usize = STRATA;

    fn setup(seed: u64) -> Result<Self, String> {
        // Every set-up starts from an empty cache, so warm-up and timed
        // points all miss.
        cq_accel::clear_sim_cache();
        let mut w = SimDse {
            seed,
            nets: models::all_benchmarks(),
            points: design_points(seed, Self::WARMUP_OPS + 1024),
            next: 0,
        };
        for i in 0..Self::WARMUP_OPS {
            if !w.op(i).iter().all(|r| record_ok(r)) {
                return Err(format!("sim_dse warm-up point {i} gave a bad record"));
            }
        }
        Ok(w)
    }

    fn run(&mut self, ops: usize, _traced: bool) -> Pass {
        let mut records = Vec::with_capacity(ops);
        let mut ok = Vec::with_capacity(ops);
        let (timings, _) = time_serial(ops, |i| {
            let recs = self.op(i);
            ok.push(recs.iter().all(|r| record_ok(r)));
            records.push(recs);
            ok[i]
        });
        let mut digest = Digest::default();
        for r in records.iter().flatten() {
            digest.write(r.as_bytes());
        }
        // Reference: a seeded sample of the points again with the cache
        // off; the records must be byte-identical.
        let mut rng = Rng::new(stream_seed(self.seed, 301));
        let sample = rng.choose_sorted(ops, VERIFY_SAMPLE.min(ops));
        cq_sim::set_hwcache_enabled(false);
        let mut matched = 0;
        for &i in &sample {
            let chip = CambriconQ::new(self.timed_point(i).config());
            let same = self
                .nets
                .iter()
                .zip(&records[i])
                .all(|(net, rec)| chip.simulate(net, OPTIMIZER).to_record() == *rec);
            matched += usize::from(same);
            ok[i] &= same;
        }
        cq_sim::set_hwcache_enabled(true);
        Pass {
            timings,
            failed: ok.iter().filter(|&&o| !o).count(),
            digest: digest.value(),
            heldout_acc: matched as f64 / sample.len() as f64,
            checks_ok: matched == sample.len(),
        }
    }

    fn replay(&mut self, pass: &Pass) -> Vec<(&'static str, f64)> {
        let ops = pass.ops();
        let n = crate::runner::REPLAYS.min(ops);
        for r in 0..n {
            let op = r * ops / n;
            let chip = CambriconQ::new(self.timed_point(op).config());
            for net in &self.nets {
                let _sp = span("accel.cache_key", op);
                std::hint::black_box(chip.cache_key(net, OPTIMIZER));
            }
        }
        Vec::new()
    }
}
