//! Run-time overhead model (experiment E9).
//!
//! §4.3 closes by quoting run-time overheads from related work: "the
//! overheads relative to a physical machine are very small — 3% for UML,
//! 2% for VMware and negligible for Xen" for SPEC INT2000; ~6% for
//! SPECseis/SPECchem under VMware; and 13% for the I/O-heavy parallel LSS
//! application. This module encodes that envelope so the
//! `runtime_overhead` bench can regenerate the comparison table, and so
//! examples can run synthetic applications inside simulated VMs at
//! realistic speed ratios.

use vmplants_simkit::{SimDuration, SimRng};

use crate::vm::VmmType;

/// A synthetic application profile: how its time divides between pure
/// computation and I/O / system activity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppProfile {
    /// Fraction of run time in user-level computation, `0.0..=1.0`.
    pub cpu_fraction: f64,
    /// Fraction in I/O and system calls (the remainder is assumed idle).
    pub io_fraction: f64,
}

impl AppProfile {
    /// A SPEC-INT-like CPU-bound job.
    pub fn cpu_bound() -> AppProfile {
        AppProfile {
            cpu_fraction: 0.98,
            io_fraction: 0.02,
        }
    }

    /// The paper's LSS case: frequent database accesses.
    pub fn io_heavy() -> AppProfile {
        AppProfile {
            cpu_fraction: 0.55,
            io_fraction: 0.45,
        }
    }

    /// A balanced scientific job (SPECseis/SPECchem-like).
    pub fn scientific() -> AppProfile {
        AppProfile {
            cpu_fraction: 0.82,
            io_fraction: 0.18,
        }
    }
}

/// Per-VMM overhead coefficients: multiplicative slowdown on the CPU part
/// and on the I/O part of an application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadCoefficients {
    /// CPU-path slowdown (1.0 = native).
    pub cpu: f64,
    /// I/O-path slowdown.
    pub io: f64,
}

/// Coefficients for a VMM type, fitted to the §4.3 citations:
/// * VMware: ~2% CPU-bound, ~6% scientific, ~13% I/O-heavy (LSS);
/// * UML: ~3% CPU-bound, heavier on I/O (syscall interception);
/// * a Xen-like paravirtualized reference: negligible CPU overhead.
pub(crate) fn coefficients(vmm: VmmType) -> OverheadCoefficients {
    match vmm {
        VmmType::VmwareLike => OverheadCoefficients {
            cpu: 1.015,
            io: 1.26,
        },
        VmmType::UmlLike => OverheadCoefficients {
            cpu: 1.028,
            io: 1.55,
        },
    }
}

/// The overall slowdown of `profile` under `coeffs`, relative to native.
pub(crate) fn slowdown(profile: AppProfile, coeffs: OverheadCoefficients) -> f64 {
    let idle = (1.0 - profile.cpu_fraction - profile.io_fraction).max(0.0);
    profile.cpu_fraction * coeffs.cpu + profile.io_fraction * coeffs.io + idle
}

/// Percentage overhead of `profile` on `vmm` relative to a physical host.
pub fn overhead_percent(vmm: VmmType, profile: AppProfile) -> f64 {
    (slowdown(profile, coefficients(vmm)) - 1.0) * 100.0
}

/// Simulated run time of an application whose native duration is `native`,
/// with sampled run-to-run noise.
pub fn sample_runtime(
    rng: &mut SimRng,
    vmm: VmmType,
    profile: AppProfile,
    native: SimDuration,
    noise: f64,
) -> SimDuration {
    let factor = slowdown(profile, coefficients(vmm));
    rng.jitter(native.mul_f64(factor), noise)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_bound_overheads_match_the_citations() {
        // §4.3: "3% for UML, 2% for VMware" on SPEC INT2000.
        let vmware = overhead_percent(VmmType::VmwareLike, AppProfile::cpu_bound());
        let uml = overhead_percent(VmmType::UmlLike, AppProfile::cpu_bound());
        assert!((1.4..2.6).contains(&vmware), "vmware {vmware}%");
        assert!((2.4..4.2).contains(&uml), "uml {uml}%");
        assert!(uml > vmware);
    }

    #[test]
    fn scientific_jobs_cost_about_six_percent_under_vmware() {
        // §4.3: "SPECseis and SPECchem … 6% overhead running under VMware".
        let p = overhead_percent(VmmType::VmwareLike, AppProfile::scientific());
        assert!((4.0..8.0).contains(&p), "{p}%");
    }

    #[test]
    fn io_heavy_jobs_cost_about_thirteen_percent() {
        // §4.3: the LSS application "demonstrate[s] an overhead of 13%".
        let p = overhead_percent(VmmType::VmwareLike, AppProfile::io_heavy());
        assert!((10.0..16.0).contains(&p), "{p}%");
    }

    #[test]
    fn idle_fraction_dilutes_overhead() {
        let mostly_idle = AppProfile {
            cpu_fraction: 0.1,
            io_fraction: 0.0,
        };
        let p = overhead_percent(VmmType::VmwareLike, mostly_idle);
        assert!(p < 0.5, "{p}%");
    }

    #[test]
    fn sampled_runtime_centers_on_the_model() {
        let mut rng = SimRng::seed_from_u64(3);
        let native = SimDuration::from_secs(100);
        let n = 1000;
        let mean: f64 = (0..n)
            .map(|_| {
                sample_runtime(
                    &mut rng,
                    VmmType::VmwareLike,
                    AppProfile::io_heavy(),
                    native,
                    0.02,
                )
                .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        let expected = 100.0 * slowdown(AppProfile::io_heavy(), coefficients(VmmType::VmwareLike));
        assert!((mean - expected).abs() < 1.0, "mean={mean} expected={expected}");
    }
}
