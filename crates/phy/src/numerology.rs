//! Frame structure parameters for LTE and 5G NR.
//!
//! Paper §4.1: "The choice of TTI and subchannel size depends on the radio
//! access technology … LTE supports {1 ms, 180 kHz} and 5G NR numerology 3
//! supports {125 µs, 1440 kHz} … In LTE, a total of 100 RBs are available
//! for 20 MHz and in 5G, a total of 273 RBs are available for 100 MHz
//! (SC spacing = 30 kHz)."

use outran_simcore::Dur;

/// Radio access technology + numerology, fixing the scheduling resolution
/// (TTI/slot) and the per-RB subchannel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Numerology {
    /// 4G LTE: 1 ms TTI, 15 kHz subcarrier spacing (180 kHz subchannel).
    Lte,
    /// 5G NR with numerology µ ∈ 0..=3: slot = 1 ms / 2^µ,
    /// subcarrier spacing = 15·2^µ kHz.
    Nr(u8),
}

impl Numerology {
    /// Scheduling interval (TTI for LTE, slot for NR). Paper Figure 5.
    pub fn tti(self) -> Dur {
        match self {
            Numerology::Lte => Dur::from_micros(1000),
            Numerology::Nr(mu) => {
                assert!(mu <= 3, "NR numerology must be 0..=3, got {mu}");
                Dur::from_micros(1000 >> mu)
            }
        }
    }

    /// Subcarrier spacing in kHz.
    pub fn scs_khz(self) -> u32 {
        match self {
            Numerology::Lte => 15,
            Numerology::Nr(mu) => {
                assert!(mu <= 3);
                15 << mu
            }
        }
    }

    /// Subchannel (RB bandwidth) in kHz: 12 consecutive subcarriers.
    pub fn subchannel_khz(self) -> u32 {
        12 * self.scs_khz()
    }

    /// OFDM symbols per scheduling interval (14 with normal CP for both
    /// LTE subframes and NR slots).
    pub fn symbols_per_tti(self) -> u32 {
        14
    }

    /// Resource elements in one RB over one TTI (12 subcarriers × symbols).
    pub fn re_per_rb(self) -> u32 {
        12 * self.symbols_per_tti()
    }

    /// The µ value (0 for LTE).
    pub fn mu(self) -> u8 {
        match self {
            Numerology::Lte => 0,
            Numerology::Nr(mu) => mu,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> String {
        match self {
            Numerology::Lte => "LTE".to_string(),
            Numerology::Nr(mu) => format!("NR-mu{mu}"),
        }
    }
}

/// A cell's radio configuration: numerology + bandwidth + overhead model.
#[derive(Debug, Clone, Copy)]
pub struct RadioConfig {
    /// Frame numerology.
    pub numerology: Numerology,
    /// System bandwidth in kHz.
    pub bandwidth_khz: u32,
    /// Fraction of resource elements consumed by control channels,
    /// reference signals, etc. (PDCCH/DMRS/CRS). 0.0–1.0.
    pub overhead: f64,
    /// Pin the RB count explicitly (Colosseum runs used exactly 15 RBs);
    /// `None` derives it from bandwidth/numerology.
    pub rb_override: Option<u16>,
}

impl RadioConfig {
    /// LTE 20 MHz — the paper's testbed & LTE simulation config (100 RBs).
    pub fn lte20() -> RadioConfig {
        RadioConfig {
            numerology: Numerology::Lte,
            bandwidth_khz: 20_000,
            overhead: 0.18, // ~3 control symbols equivalent + CRS
            rb_override: None,
        }
    }

    /// LTE with an explicit RB count (Colosseum runs used 15 RBs).
    pub fn lte_rbs(rbs: u16) -> RadioConfig {
        RadioConfig {
            numerology: Numerology::Lte,
            bandwidth_khz: rbs as u32 * 180,
            overhead: 0.18,
            rb_override: Some(rbs),
        }
    }

    /// NR 100 MHz with numerology µ (µ = 1, 30 kHz SCS, is §4.1's 273
    /// RBs). The RB count follows 3GPP TS 38.101 Table 5.3.2-1
    /// transmission bandwidth configurations.
    pub fn nr100_mu(mu: u8) -> RadioConfig {
        RadioConfig {
            numerology: Numerology::Nr(mu),
            bandwidth_khz: 100_000,
            overhead: 0.14, // NR has leaner always-on reference signals
            rb_override: None,
        }
    }

    /// Number of schedulable RBs in the bandwidth.
    ///
    /// For standard configurations we pin the 3GPP table values (e.g.
    /// 273 RBs for NR 100 MHz @30 kHz, 100 RBs for LTE 20 MHz); otherwise
    /// we derive from bandwidth at a 0.98 guard-band utilisation.
    pub fn num_rbs(&self) -> u16 {
        if let Some(rbs) = self.rb_override {
            return rbs;
        }
        match (self.numerology, self.bandwidth_khz) {
            (Numerology::Lte, 20_000) => 100,
            (Numerology::Lte, 10_000) => 50,
            (Numerology::Lte, 5_000) => 25,
            (Numerology::Nr(0), 100_000) => 270,
            (Numerology::Nr(1), 100_000) => 273,
            (Numerology::Nr(2), 100_000) => 135,
            (Numerology::Nr(3), 100_000) => 66,
            (n, bw) => {
                let sub = n.subchannel_khz();
                ((bw as f64 * 0.98 / sub as f64).floor() as u16).max(1)
            }
        }
    }

    /// Data-bearing resource elements per RB per TTI after overhead.
    pub fn data_re_per_rb(&self) -> f64 {
        self.numerology.re_per_rb() as f64 * (1.0 - self.overhead)
    }

    /// The scheduling interval.
    pub fn tti(&self) -> Dur {
        self.numerology.tti()
    }

    /// Peak cell rate in bits/s given a peak spectral efficiency per RE
    /// (e.g. 256-QAM ≈ 7.4 bits/RE): used for sanity checks against the
    /// paper's "97 Mbps at 256QAM SISO over 20 MHz".
    pub fn peak_rate_bps(&self, bits_per_re: f64) -> f64 {
        let bits_per_tti = self.num_rbs() as f64 * self.data_re_per_rb() * bits_per_re;
        bits_per_tti / self.tti().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tti_values() {
        assert_eq!(Numerology::Lte.tti(), Dur::from_micros(1000));
        assert_eq!(Numerology::Nr(0).tti(), Dur::from_micros(1000));
        assert_eq!(Numerology::Nr(1).tti(), Dur::from_micros(500));
        assert_eq!(Numerology::Nr(2).tti(), Dur::from_micros(250));
        assert_eq!(Numerology::Nr(3).tti(), Dur::from_micros(125));
    }

    #[test]
    fn paper_subchannel_values() {
        // §4.1: LTE {1 ms, 180 kHz}; NR numerology 3 {125 µs, 1440 kHz}.
        assert_eq!(Numerology::Lte.subchannel_khz(), 180);
        assert_eq!(Numerology::Nr(3).subchannel_khz(), 1440);
    }

    #[test]
    fn paper_rb_counts() {
        assert_eq!(RadioConfig::lte20().num_rbs(), 100);
        assert_eq!(RadioConfig::nr100_mu(1).num_rbs(), 273);
        assert_eq!(RadioConfig::lte_rbs(15).num_rbs(), 15);
    }

    #[test]
    fn lte20_peak_rate_near_testbed_bitrate() {
        // §6.1: 20 MHz, 256QAM SISO => 97 Mbps ≈ 4.85 bit/s/Hz.
        let cfg = RadioConfig::lte20();
        let peak = cfg.peak_rate_bps(7.4063); // 256-QAM top CQI efficiency
        let mbps = peak / 1e6;
        assert!((85.0..110.0).contains(&mbps), "peak={mbps} Mbps");
        let se = peak / (cfg.bandwidth_khz as f64 * 1e3);
        assert!((4.2..5.5).contains(&se), "se={se}");
    }

    #[test]
    #[should_panic]
    fn nr_mu_out_of_range_panics() {
        let _ = Numerology::Nr(4).tti();
    }

    #[test]
    fn derived_rb_count_for_odd_bandwidth() {
        let cfg = RadioConfig {
            numerology: Numerology::Lte,
            bandwidth_khz: 1_800,
            overhead: 0.18,
            rb_override: None,
        };
        // 1800 kHz * 0.98 / 180 kHz = 9.8 -> 9 RBs.
        assert_eq!(cfg.num_rbs(), 9);
    }

    #[test]
    fn data_re_accounts_overhead() {
        let cfg = RadioConfig::lte20();
        assert!(cfg.data_re_per_rb() < 168.0);
        assert!(cfg.data_re_per_rb() > 100.0);
    }
}
