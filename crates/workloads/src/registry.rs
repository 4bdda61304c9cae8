//! The workload registry: every benchmark configuration the harnesses
//! sweep, behind one enumeration.
//!
//! The registry is the single source of truth for "all workloads": the
//! `regimes` bench runs every `Large` entry under every protocol suite,
//! and the determinism conformance suite proves each entry completes,
//! survives an injected fault and reports byte-identically across sweep
//! thread counts. Adding a workload family is: implement
//! [`Workload`], list configurations here, and every
//! downstream harness picks it up.

use std::sync::Arc;

use vlog_sim::NetProfile;

use crate::bursty::BurstyConfig;
use crate::fft_pipe::FftPipeConfig;
use crate::halo::HaloConfig;
use crate::nas::{Class, NasBench, NasConfig};
use crate::netpipe::NetpipeConfig;
use crate::workload::Workload;

/// Every registered workload family, in registry order.
pub const FAMILIES: [&str; 5] = ["nas", "netpipe", "bursty", "halo", "fft"];

/// How big the enumerated configurations should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryScale {
    /// Small rank counts and short runs: CI conformance and smoke
    /// benches. Every family still appears.
    Smoke,
    /// The scaled-regime spread of the `regimes` bench and `REPORT.md`:
    /// higher rank counts everywhere, the multi-server bursty service,
    /// larger seeded halo graphs, and the deep-tiling FFT ladder that
    /// saturates the Event Logger. Every entry also backs a hub-failure
    /// fault plan (see
    /// [`faults::hub_failure`](crate::runner::faults::hub_failure)).
    Large,
    /// `Large` plus the aggregated-bursty ladder: the same physical
    /// cluster and message schedule modeling 1k, 10k and 100k clients
    /// behind the client ranks (see [`BurstyConfig::aggregated`]). The
    /// regime behind REPORT.md's piggyback-scaling table.
    Huge,
}

/// One point on the fabric/EL sweep grid: a named network profile
/// paired with an Event-Logger shard count. The regimes bench and the
/// determinism conformance suite run registry workloads across every
/// axis returned by [`net_axes`], so a new profile or shard count added
/// there is automatically benched, reported and determinism-checked.
#[derive(Debug, Clone)]
pub struct NetAxis {
    /// Network fabric the cluster is built on.
    pub profile: NetProfile,
    /// Event-Logger shard count (1 = the single classic EL).
    pub el_count: usize,
}

impl NetAxis {
    /// Stable label used in report columns and bench IDs, e.g.
    /// `"gigabit/el4"`.
    pub fn label(&self) -> String {
        format!("{}/el{}", self.profile.name, self.el_count)
    }
}

/// The fabric × EL-shard axes swept at the given scale.
///
/// The first entry is always the paper's baseline —
/// FastEthernet-2005 with a single EL — so sweeps that only want the
/// classic setup can take `net_axes(scale)[0]`. `Smoke` keeps CI cheap
/// with the baseline plus one distributed-EL point; `Large` adds the
/// gigabit fabrics where the EL's CPU, not the ack round-trip, becomes
/// the bottleneck.
pub fn net_axes(scale: RegistryScale) -> Vec<NetAxis> {
    let mut v = vec![NetAxis {
        profile: NetProfile::fast_ethernet_2005(),
        el_count: 1,
    }];
    match scale {
        RegistryScale::Smoke => {
            v.push(NetAxis {
                profile: NetProfile::gigabit(),
                el_count: 2,
            });
        }
        RegistryScale::Large | RegistryScale::Huge => {
            v.push(NetAxis {
                profile: NetProfile::fast_ethernet_2005(),
                el_count: 4,
            });
            v.push(NetAxis {
                profile: NetProfile::gigabit(),
                el_count: 1,
            });
            v.push(NetAxis {
                profile: NetProfile::gigabit(),
                el_count: 4,
            });
            v.push(NetAxis {
                profile: NetProfile::dual_gigabit(),
                el_count: 4,
            });
            v.push(NetAxis {
                profile: NetProfile::hetero_uplink(),
                el_count: 2,
            });
        }
    }
    v
}

/// Enumerates every registered `(workload, np, params)` configuration
/// at the given scale. Every entry has checkpoints enabled so it can
/// survive fault injection, and its `np`/`valid_np` contract is
/// asserted here once for all consumers.
pub fn registry(scale: RegistryScale) -> Vec<Arc<dyn Workload>> {
    let mut v: Vec<Arc<dyn Workload>> = Vec::new();
    match scale {
        RegistryScale::Smoke => {
            v.push(Arc::new(NasConfig::new(NasBench::CG, Class::S, 4)));
            v.push(Arc::new(NasConfig::new(NasBench::FT, Class::S, 4)));
            v.push(Arc::new(
                NetpipeConfig::new(4 << 10, 0.05).with_checkpoints(),
            ));
            v.push(Arc::new(BurstyConfig::new(4, 6, 11)));
            v.push(Arc::new(HaloConfig::new(4, 6, 12)));
            v.push(Arc::new(FftPipeConfig::new(4, 3, 4)));
        }
        RegistryScale::Large | RegistryScale::Huge => {
            // NAS at 16 ranks: the paper's upper rank count.
            v.push(Arc::new(NasConfig::new(NasBench::CG, Class::S, 16)));
            v.push(Arc::new(NasConfig::new(NasBench::FT, Class::S, 16)));
            v.push(Arc::new(
                NetpipeConfig::new(64 << 10, 0.05).with_checkpoints(),
            ));
            // Multi-server bursty: clients hashed over server shards.
            v.push(Arc::new(BurstyConfig::new(16, 5, 11).with_servers(4)));
            v.push(Arc::new(BurstyConfig::new(24, 3, 11).with_servers(3)));
            // Larger seeded irregular graphs with pronounced hubs.
            v.push(Arc::new(HaloConfig::new(24, 5, 12)));
            v.push(Arc::new(HaloConfig::new(32, 4, 12)));
            // EL-saturation ladder: the same transpose at ever deeper
            // tiling — message count multiplies, payloads shrink, the
            // per-message determinant rate climbs.
            v.push(Arc::new(FftPipeConfig::new(16, 2, 1)));
            v.push(Arc::new(FftPipeConfig::new(16, 2, 8)));
            v.push(Arc::new(FftPipeConfig::new(16, 2, 32)));
            if scale == RegistryScale::Huge {
                // The aggregated-client ladder: identical 24-rank wire
                // schedule, modeled population climbing 1k -> 100k.
                for per_rank in [48, 480, 4800] {
                    v.push(Arc::new(
                        BurstyConfig::new(24, 3, 11)
                            .with_servers(3)
                            .aggregated(per_rank),
                    ));
                }
            }
        }
    }
    for w in &v {
        assert!(
            w.valid_np(w.np()),
            "registry entry {} mis-sized: np={} rejected by its own valid_np",
            w.label(),
            w.np()
        );
        assert!(
            w.hub_rank() < w.np(),
            "registry entry {} names hub rank {} outside its {} ranks",
            w.label(),
            w.hub_rank(),
            w.np()
        );
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_family_is_registered_at_every_scale() {
        for scale in [
            RegistryScale::Smoke,
            RegistryScale::Large,
            RegistryScale::Huge,
        ] {
            let fams: BTreeSet<&str> = registry(scale).iter().map(|w| w.family()).collect();
            for f in FAMILIES {
                assert!(fams.contains(f), "family {f} missing at {scale:?}");
            }
        }
    }

    #[test]
    fn labels_are_unique_within_a_scale() {
        for scale in [
            RegistryScale::Smoke,
            RegistryScale::Large,
            RegistryScale::Huge,
        ] {
            let entries = registry(scale);
            let labels: BTreeSet<String> = entries.iter().map(|w| w.label()).collect();
            assert_eq!(labels.len(), entries.len(), "duplicate label at {scale:?}");
        }
    }

    #[test]
    fn registered_workloads_have_sane_metadata() {
        for scale in [
            RegistryScale::Smoke,
            RegistryScale::Large,
            RegistryScale::Huge,
        ] {
            for w in registry(scale) {
                assert!(w.np() >= 2, "{}", w.label());
                assert!(w.state_bytes() > 0, "{}", w.label());
                assert!(!w.label().is_empty());
                assert!(FAMILIES.contains(&w.family()));
                assert!(w.hub_rank() < w.np(), "{}", w.label());
            }
        }
    }

    #[test]
    fn large_scale_raises_the_rank_counts() {
        let large = registry(RegistryScale::Large);
        let max_np = large.iter().map(|w| w.np()).max().unwrap();
        assert!(max_np >= 32, "large registry tops out at {max_np} ranks");
        // The multi-server bursty shape and the deep-tiling ladder are
        // the whole point of the scale; make sure they stay registered.
        assert!(large
            .iter()
            .any(|w| w.label().contains('s') && w.family() == "bursty" && w.hub_rank() < w.np()));
        let fft_labels: Vec<String> = large
            .iter()
            .filter(|w| w.family() == "fft")
            .map(|w| w.label())
            .collect();
        assert!(
            fft_labels.iter().any(|l| l.ends_with(".t32")),
            "deep-tiling entry missing: {fft_labels:?}"
        );
    }

    #[test]
    fn huge_scale_reaches_six_figure_modeled_populations() {
        let huge = registry(RegistryScale::Huge);
        let large = registry(RegistryScale::Large);
        // Huge strictly extends Large with the aggregated ladder.
        let large_labels: BTreeSet<String> = large.iter().map(|w| w.label()).collect();
        for w in &large {
            assert!(large_labels.contains(&w.label()));
        }
        let agg_labels: Vec<String> = huge
            .iter()
            .map(|w| w.label())
            .filter(|l| l.contains(".agg"))
            .collect();
        assert_eq!(
            agg_labels,
            vec![
                "1008c.3s.x3.agg48",
                "10080c.3s.x3.agg480",
                "100800c.3s.x3.agg4800"
            ],
            "aggregated ladder drifted"
        );
        assert_eq!(huge.len(), large.len() + agg_labels.len());
        // The whole ladder runs the same physical cluster size.
        assert!(huge
            .iter()
            .filter(|w| w.label().contains(".agg"))
            .all(|w| w.np() == 24));
    }

    #[test]
    fn net_axes_lead_with_the_paper_baseline_and_stay_unique() {
        for scale in [
            RegistryScale::Smoke,
            RegistryScale::Large,
            RegistryScale::Huge,
        ] {
            let axes = net_axes(scale);
            assert_eq!(axes[0].profile.name, "fast-ethernet-2005");
            assert_eq!(axes[0].el_count, 1, "baseline axis must be the classic EL");
            let labels: BTreeSet<String> = axes.iter().map(|a| a.label()).collect();
            assert_eq!(labels.len(), axes.len(), "duplicate net axis at {scale:?}");
            for a in &axes {
                assert!(a.el_count >= 1, "{}", a.label());
                assert!(
                    NetProfile::by_name(a.profile.name).is_some(),
                    "{}",
                    a.label()
                );
            }
        }
        // Large must include a faster-than-baseline fabric so the EL
        // service time can become the bottleneck (acceptance criterion).
        assert!(net_axes(RegistryScale::Large)
            .iter()
            .any(|a| a.profile.name == "gigabit" && a.el_count == 1));
    }
}
