//! Seeded benchmark inputs. Everything the program receives — arrival
//! times, Zipf ranks, VM lifetimes and the fault schedule — is generated
//! here from `--seed` with the benchmark's own generator, so the inputs do
//! not depend on the code under test.

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fault-free open loop of §4.2 orders against the three paper goldens.
    Steady,
    /// Zipf(1.1) demand over 120 DAG-distinct goldens under a capacity
    /// budget: warehouse lookup, eviction, re-derivation, chunk store.
    Zipf,
    /// The steady load through the failover client under lossy links,
    /// host reboots and one shop crash.
    FaultStorm,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Steady, Kind::Zipf, Kind::FaultStorm];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady_lifecycle",
            Kind::Zipf => "zipf_warehouse",
            Kind::FaultStorm => "fault_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Orders per pass: enough that the sim p99 has well over ten samples
    /// beyond it and holds steady across seeds (`fault_storm`'s tail
    /// comes from rare faults, so it needs the most).
    pub fn orders(self) -> usize {
        match self {
            Kind::Steady => 6_000,
            Kind::Zipf => 2_000,
            Kind::FaultStorm => 16_000,
        }
    }

    fn spacing_ms(self) -> u64 {
        match self {
            Kind::Zipf => 15_000,
            Kind::Steady | Kind::FaultStorm => 10_000,
        }
    }

    /// True for workloads whose orders travel the failover client.
    pub fn uses_client(self) -> bool {
        self == Kind::FaultStorm
    }
}

/// How long a created VM lives before the benchmark destroys it.
pub const LIFETIME_MS: u64 = 600_000;
/// Size of the Zipf golden population.
pub const ZIPF_GOLDENS: u32 = 120;
/// Zipf exponent of the golden popularity.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Warehouse capacity budget of the Zipf workload.
pub const ZIPF_BUDGET_BYTES: u64 = 32 << 30;

/// splitmix64: small, seedable and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf sampler over ranks `0..population`: rank *k* has weight
/// `1 / (k + 1)^exponent`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(population: u32, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..population)
            .map(|k| {
                acc += 1.0 / f64::from(k + 1).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c <= u);
        rank.min(self.cdf.len() - 1) as u32
    }
}

/// One client arrival.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Sim time the order is due, milliseconds from the start.
    pub at_ms: u64,
    /// Zipf rank of the requested golden; `None` asks for the §4.2 DAG.
    pub rank: Option<u32>,
    /// Sim lifetime of the VM once created.
    pub lifetime_ms: u64,
}

/// The fault schedule of `fault_storm`.
#[derive(Clone, Debug, PartialEq)]
pub struct Faults {
    /// Drop, duplicate and reorder probabilities on every shop link,
    /// for the whole run.
    pub loss: f64,
    pub duplicate: f64,
    pub reorder: f64,
    /// Host reboots: `(at_ms, host index)`, time-sorted.
    pub reboots: Vec<(u64, usize)>,
    pub reboot_downtime_ms: u64,
    /// The one shop crash.
    pub shop_crash_ms: u64,
    pub shop_downtime_ms: u64,
}

/// Hosts of the simulated testbed (one plant each).
pub const HOSTS: usize = 8;
const HOST_MTBF_S: f64 = 3_600.0;

/// A workload instance: the inputs of one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub arrivals: Vec<Arrival>,
    pub faults: Option<Faults>,
}

impl Plan {
    pub fn new(kind: Kind, seed: u64) -> Plan {
        // Independent streams per input, so resizing one leaves the
        // others unchanged.
        let mut ranks = Rng::new(seed ^ 0x5a1f_0001);
        let zipf = Zipf::new(ZIPF_GOLDENS, ZIPF_EXPONENT);
        let arrivals: Vec<Arrival> = (0..kind.orders() as u64)
            .map(|i| Arrival {
                at_ms: i * kind.spacing_ms(),
                rank: (kind == Kind::Zipf).then(|| zipf.sample(&mut ranks)),
                lifetime_ms: LIFETIME_MS,
            })
            .collect();
        let end_ms = arrivals.last().map_or(0, |a| a.at_ms);
        let faults = (kind == Kind::FaultStorm).then(|| {
            let mut rng = Rng::new(seed ^ 0xfa17_0002);
            let mut reboots = Vec::new();
            for host in 0..HOSTS {
                let mut t = 0.0;
                loop {
                    t += rng.exponential(HOST_MTBF_S) * 1_000.0;
                    if t >= end_ms as f64 {
                        break;
                    }
                    reboots.push((t as u64, host));
                }
            }
            reboots.sort_unstable();
            Faults {
                loss: 0.10,
                duplicate: 0.10,
                reorder: 0.20,
                reboots,
                reboot_downtime_ms: 120_000,
                shop_crash_ms: end_ms / 2,
                shop_downtime_ms: 60_000,
            }
        });
        Plan {
            kind,
            seed,
            arrivals,
            faults,
        }
    }

    /// Sim time of the last arrival.
    pub fn end_ms(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_generator_is_deterministic_per_seed() {
        let a = Plan::new(Kind::Zipf, 7);
        assert_eq!(a, Plan::new(Kind::Zipf, 7));
        let b = Plan::new(Kind::Zipf, 8);
        assert_ne!(a.arrivals, b.arrivals, "another seed draws other ranks");
    }

    #[test]
    fn zipf_ranks_are_skewed_towards_rank_zero() {
        let plan = Plan::new(Kind::Zipf, 11);
        let mut counts = vec![0usize; ZIPF_GOLDENS as usize];
        for a in &plan.arrivals {
            counts[a.rank.expect("zipf arrival has a rank") as usize] += 1;
        }
        // Zipf(1.1) over 120 ranks puts ~24% of the mass on rank 0.
        let share = counts[0] as f64 / plan.arrivals.len() as f64;
        assert!((0.18..0.30).contains(&share), "rank-0 share {share}");
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    }

    #[test]
    fn fault_storm_schedule_is_deterministic_and_spans_the_run() {
        let a = Plan::new(Kind::FaultStorm, 3);
        assert_eq!(a, Plan::new(Kind::FaultStorm, 3));
        let faults = a.faults.as_ref().expect("fault_storm has faults");
        assert!(!faults.reboots.is_empty());
        assert!(faults
            .reboots
            .iter()
            .all(|&(at, h)| at < a.end_ms() && h < HOSTS));
        assert!(Plan::new(Kind::Steady, 3).faults.is_none());
    }
}
