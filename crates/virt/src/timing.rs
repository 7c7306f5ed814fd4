//! The calibrated timing model.
//!
//! Every duration the simulated VMMs consume is sampled here, from
//! parameters anchored to the paper's §4.2 hardware description and §4.3
//! measurements. The calibration anchors:
//!
//! | Anchor (paper) | Model consequence |
//! |---|---|
//! | 2 GB/16-file golden disk full copy = 210 s | NFS pipe ≈ 10 MB/s + 0.3 s/file (in `vmplants-cluster`) |
//! | 32 MB cloning mode ≈ 10 s (Fig 5) | copy 48 MB ≈ 5.7 s + resume ≈ 3.7 s |
//! | 256 MB average cloning ≈ 210/4 ≈ 52 s, rising to ~70 s (Figs 5–6) | memory-state copy ≈ 27 s + resume 3 s + 6 s·(mem/256) all under host pressure |
//! | creation 17–85 s, averages 25–48 s (Fig 4, §1) | configuration ≈ 13 s lognormal + ~1 s shop overhead on top of cloning |
//! | UML 32 MB clone-and-boot average = 76 s (§4.3) | COW setup ≈ 1.5 s + boot ≈ 74 s lognormal |
//!
//! Host memory pressure multiplies the memory-touching phases (resume /
//! boot fully; file writes by `sqrt(pressure)`, since only the page-cache
//! half of a copy is memory-bound) — this is what bends the Figure 6
//! series upward as plants fill.

use vmplants_simkit::{SimDuration, SimRng};

/// All tunable constants of the virtualization timing model.
#[derive(Clone, Debug)]
pub struct TimingModel {
    /// Creating one symlink (clone-side disk extent).
    pub symlink: SimDuration,
    /// Fixed part of a VMware-like resume.
    pub resume_base: SimDuration,
    /// Memory-dependent part of a resume, per 256 MB of guest memory
    /// (reading the local `.vmss` copy and faulting the working set in).
    pub resume_per_256mb: SimDuration,
    /// Fixed part of a UML-like boot (kernel + init of the 2004-era
    /// distribution; §4.3 measures the whole clone-and-boot at 76 s).
    pub boot_base: SimDuration,
    /// Lognormal shape (sigma) of the boot time.
    pub boot_sigma: f64,
    /// UML copy-on-write overlay setup.
    pub cow_setup: SimDuration,
    /// Building a configuration ISO image (burning the scripts, §4.1).
    pub iso_build: SimDuration,
    /// Attaching an ISO as a virtual CD-ROM and the guest daemon mounting
    /// it.
    pub iso_attach: SimDuration,
    /// Default duration of one guest configuration action when the DAG
    /// node carries no `nominal_ms` (network setup, user creation, …).
    pub default_action: SimDuration,
    /// Time after resume/boot before the guest daemon is responsive
    /// (network re-init, service wake-up).
    pub guest_ready: SimDuration,
    /// Mean of the exponential delay until the guest daemon notices a
    /// newly attached CD-ROM (it polls).
    pub cdrom_poll_mean: SimDuration,
    /// Collecting script outputs back from the guest after a script runs.
    pub collect_outputs: SimDuration,
    /// Lognormal sigma of the per-clone state-copy noise (page-cache and
    /// NFS service-time variance on a busy 2004 cluster).
    pub copy_noise_sigma: f64,
    /// Mean of the exponential per-creation interference delay: background
    /// cluster activity (other users' NFS traffic, cron, VMM housekeeping)
    /// that the paper's real testbed exhibits and a clean simulation lacks.
    pub interference_mean: SimDuration,
    /// Relative jitter (standard deviation as a fraction of the mean)
    /// applied to every sampled phase.
    pub jitter: f64,
    /// Suspending a running VM (for publish-to-warehouse flows).
    pub suspend_base: SimDuration,
    /// Memory-dependent suspend cost per 256 MB (writing the state file to
    /// local disk).
    pub suspend_per_256mb: SimDuration,
    /// Tearing down a VM and reclaiming its files.
    pub destroy: SimDuration,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            symlink: SimDuration::from_millis(20),
            resume_base: SimDuration::from_millis(3_000),
            resume_per_256mb: SimDuration::from_millis(5_500),
            boot_base: SimDuration::from_millis(72_500),
            boot_sigma: 0.04,
            cow_setup: SimDuration::from_millis(1_500),
            iso_build: SimDuration::from_millis(250),
            iso_attach: SimDuration::from_millis(250),
            default_action: SimDuration::from_millis(2_500),
            guest_ready: SimDuration::from_millis(2_000),
            cdrom_poll_mean: SimDuration::from_millis(1_000),
            collect_outputs: SimDuration::from_millis(150),
            copy_noise_sigma: 0.18,
            interference_mean: SimDuration::from_millis(2_200),
            jitter: 0.08,
            suspend_base: SimDuration::from_millis(2_000),
            suspend_per_256mb: SimDuration::from_millis(7_000),
            destroy: SimDuration::from_millis(1_200),
        }
    }
}

impl TimingModel {
    /// Sampled duration of a resume for a guest of `memory_mb`, under the
    /// given host pressure factor.
    pub fn sample_resume(&self, rng: &mut SimRng, memory_mb: u64, pressure: f64) -> SimDuration {
        let nominal = self.resume_base
            + self.resume_per_256mb.mul_f64(memory_mb as f64 / 256.0);
        rng.jitter(nominal, self.jitter).mul_f64(pressure)
    }

    /// Sampled duration of a UML boot, under host pressure. Boot times are
    /// right-skewed (fsck, service timeouts), hence lognormal.
    pub(crate) fn sample_boot(&self, rng: &mut SimRng, memory_mb: u64, pressure: f64) -> SimDuration {
        // Memory size barely moves a boot (the kernel maps it lazily); add
        // a small proportional term for page-zeroing.
        let mean = self.boot_base.as_secs_f64() + memory_mb as f64 * 0.01;
        let secs = rng.lognormal_mean(mean, self.boot_sigma) * pressure;
        SimDuration::from_secs_f64(secs)
    }

    /// Sampled duration of COW overlay setup.
    pub(crate) fn sample_cow_setup(&self, rng: &mut SimRng) -> SimDuration {
        rng.jitter(self.cow_setup, self.jitter)
    }

    /// Sampled duration of the symlink pass for `count` extents.
    pub(crate) fn sample_links(&self, rng: &mut SimRng, count: usize) -> SimDuration {
        rng.jitter(self.symlink * count as u64, self.jitter)
    }

    /// Write-side slowdown applied to state-file copies under memory
    /// pressure: the network half is unaffected, the page-cache half
    /// degrades, so the compromise is `sqrt(pressure)`.
    pub(crate) fn copy_pressure_factor(pressure: f64) -> f64 {
        pressure.max(1.0).sqrt()
    }

    /// Sampled duration of one guest configuration action. Scripts are
    /// only partly memory-bound, so host pressure enters at `sqrt`.
    pub fn sample_action(
        &self,
        rng: &mut SimRng,
        nominal_ms: Option<u64>,
        pressure: f64,
    ) -> SimDuration {
        let nominal = nominal_ms
            .map(SimDuration::from_millis)
            .unwrap_or(self.default_action);
        rng.jitter(nominal, self.jitter)
            .mul_f64(Self::copy_pressure_factor(pressure))
    }

    /// Sampled ISO build + attach + guest mount overhead for one script
    /// delivery round, including the guest daemon's poll delay and output
    /// collection.
    pub(crate) fn sample_iso_round(&self, rng: &mut SimRng) -> SimDuration {
        let fixed = self.iso_build + self.iso_attach + self.collect_outputs;
        let poll = SimDuration::from_secs_f64(
            rng.exponential(self.cdrom_poll_mean.as_secs_f64()),
        );
        rng.jitter(fixed, self.jitter) + poll
    }

    /// Sampled delay after resume/boot before the guest accepts scripts
    /// (sqrt-pressure, like the scripts themselves).
    pub fn sample_guest_ready(&self, rng: &mut SimRng, pressure: f64) -> SimDuration {
        rng.jitter(self.guest_ready, self.jitter)
            .mul_f64(Self::copy_pressure_factor(pressure))
    }

    /// Sampled multiplicative noise on a clone's state-file copy.
    pub(crate) fn sample_copy_noise(&self, rng: &mut SimRng) -> f64 {
        rng.lognormal_mean(1.0, self.copy_noise_sigma)
    }

    /// Sampled background-interference delay for one creation.
    pub fn sample_interference(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.exponential(self.interference_mean.as_secs_f64()))
    }

    /// Sampled suspend duration (publishing a configured machine).
    pub fn sample_suspend(&self, rng: &mut SimRng, memory_mb: u64, pressure: f64) -> SimDuration {
        let nominal = self.suspend_base
            + self.suspend_per_256mb.mul_f64(memory_mb as f64 / 256.0);
        rng.jitter(nominal, self.jitter).mul_f64(pressure)
    }

    /// Sampled destroy duration.
    pub(crate) fn sample_destroy(&self, rng: &mut SimRng) -> SimDuration {
        rng.jitter(self.destroy, self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    fn mean_secs(mut f: impl FnMut(&mut SimRng) -> SimDuration) -> f64 {
        let mut r = rng();
        let n = 2000;
        (0..n).map(|_| f(&mut r).as_secs_f64()).sum::<f64>() / n as f64
    }

    #[test]
    fn resume_scales_with_memory() {
        let m = TimingModel::default();
        let r32 = mean_secs(|r| m.sample_resume(r, 32, 1.0));
        let r256 = mean_secs(|r| m.sample_resume(r, 256, 1.0));
        // 3 + 5.5*(32/256) = 3.69s; 3 + 5.5 = 8.5s.
        assert!((r32 - 3.69).abs() < 0.1, "r32={r32}");
        assert!((r256 - 8.5).abs() < 0.2, "r256={r256}");
    }

    #[test]
    fn pressure_multiplies_resume_fully_but_actions_by_sqrt() {
        let m = TimingModel::default();
        let base = mean_secs(|r| m.sample_resume(r, 64, 1.0));
        let loaded = mean_secs(|r| m.sample_resume(r, 64, 2.2));
        assert!((loaded / base - 2.2).abs() < 0.05);
        let a_base = mean_secs(|r| m.sample_action(r, Some(4_000), 1.0));
        let a_loaded = mean_secs(|r| m.sample_action(r, Some(4_000), 2.25));
        assert!((a_loaded / a_base - 1.5).abs() < 0.05, "{}", a_loaded / a_base);
    }

    #[test]
    fn boot_mean_supports_the_76s_uml_anchor() {
        let m = TimingModel::default();
        let boot = mean_secs(|r| m.sample_boot(r, 32, 1.0));
        // 72.5 + 0.32 ≈ 72.8 s; plus ~1.5 s COW setup and ~1.3 s of copy
        // in the production line, the end-to-end lands on the paper's 76 s.
        assert!((boot - 72.8).abs() < 1.0, "boot={boot}");
    }

    #[test]
    fn copy_pressure_is_sublinear_and_floored() {
        assert_eq!(TimingModel::copy_pressure_factor(0.5), 1.0);
        assert_eq!(TimingModel::copy_pressure_factor(1.0), 1.0);
        let f = TimingModel::copy_pressure_factor(2.25);
        assert!((f - 1.5).abs() < 1e-12);
    }

    #[test]
    fn action_uses_nominal_or_default() {
        let m = TimingModel::default();
        let with_nominal = mean_secs(|r| m.sample_action(r, Some(10_000), 1.0));
        assert!((with_nominal - 10.0).abs() < 0.3, "{with_nominal}");
        let defaulted = mean_secs(|r| m.sample_action(r, None, 1.0));
        assert!((defaulted - 2.5).abs() < 0.1, "{defaulted}");
    }

    #[test]
    fn samples_are_never_zero_or_negative() {
        let m = TimingModel::default();
        let mut r = rng();
        for _ in 0..500 {
            assert!(m.sample_resume(&mut r, 32, 1.0).as_millis() > 0);
            assert!(m.sample_boot(&mut r, 32, 1.0).as_millis() > 0);
            assert!(m.sample_iso_round(&mut r).as_millis() > 0);
        }
    }
}
