//! CQI — Channel Quality Indicator tables and SINR mapping.
//!
//! UEs report a 4-bit CQI per wideband/subband; the eNodeB maps it to a
//! modulation-and-coding scheme whose *efficiency* (information bits per
//! resource element) determines the per-RB achievable rate that feeds the
//! per-RB metric in eq. (1) of the paper.
//!
//! Two tables from 3GPP TS 36.213 are provided: the classic 64-QAM table
//! (7.2.3-1) and the 256-QAM table (7.2.3-2) used in the paper's testbed
//! ("256QAM, SISO … 4.85 bit/s/Hz").

/// A reported channel quality index. 0 means out-of-range (no service);
/// valid reports are 1..=15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cqi(pub u8);

// A report indexes the rate table: 4 bits, 0..=15.
outran_simcore::snap_fields! { Cqi { 0 in le(15) } }

impl Cqi {
    /// Highest quality.
    pub const MAX: Cqi = Cqi(15);

    /// Whether this CQI permits any transmission.
    pub fn usable(self) -> bool {
        self.0 >= 1 && self.0 <= 15
    }
}

/// Which 3GPP MCS table the cell is configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqiTable {
    /// TS 36.213 Table 7.2.3-1 (up to 64-QAM), the LTE default.
    Qam64,
    /// TS 36.213 Table 7.2.3-2 (up to 256-QAM), used in the paper testbed.
    Qam256,
}

/// Modulation order (bits per symbol) and nominal code rate for a CQI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McsEntry {
    /// Bits per modulation symbol (2 = QPSK, 4 = 16QAM, 6 = 64QAM, 8 = 256QAM).
    pub modulation_bits: u8,
    /// Code rate × 1024 as tabulated by 3GPP.
    pub code_rate_x1024: u16,
}

impl McsEntry {
    /// Spectral efficiency in information bits per resource element.
    pub fn efficiency(&self) -> f64 {
        self.modulation_bits as f64 * self.code_rate_x1024 as f64 / 1024.0
    }
}

/// TS 36.213 Table 7.2.3-1 (64-QAM), indexed by CQI 1..=15.
const TABLE_64QAM: [McsEntry; 15] = [
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 78,
    },
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 120,
    },
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 193,
    },
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 308,
    },
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 449,
    },
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 602,
    },
    McsEntry {
        modulation_bits: 4,
        code_rate_x1024: 378,
    },
    McsEntry {
        modulation_bits: 4,
        code_rate_x1024: 490,
    },
    McsEntry {
        modulation_bits: 4,
        code_rate_x1024: 616,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 466,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 567,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 666,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 772,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 873,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 948,
    },
];

/// TS 36.213 Table 7.2.3-2 (256-QAM), indexed by CQI 1..=15.
const TABLE_256QAM: [McsEntry; 15] = [
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 78,
    },
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 193,
    },
    McsEntry {
        modulation_bits: 2,
        code_rate_x1024: 449,
    },
    McsEntry {
        modulation_bits: 4,
        code_rate_x1024: 378,
    },
    McsEntry {
        modulation_bits: 4,
        code_rate_x1024: 490,
    },
    McsEntry {
        modulation_bits: 4,
        code_rate_x1024: 616,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 466,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 567,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 666,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 772,
    },
    McsEntry {
        modulation_bits: 6,
        code_rate_x1024: 873,
    },
    McsEntry {
        modulation_bits: 8,
        code_rate_x1024: 711,
    },
    McsEntry {
        modulation_bits: 8,
        code_rate_x1024: 797,
    },
    McsEntry {
        modulation_bits: 8,
        code_rate_x1024: 885,
    },
    McsEntry {
        modulation_bits: 8,
        code_rate_x1024: 948,
    },
];

impl CqiTable {
    /// MCS entry for a usable CQI; `None` for CQI 0 (out of range).
    pub fn entry(self, cqi: Cqi) -> Option<McsEntry> {
        if !cqi.usable() {
            return None;
        }
        let idx = cqi.0 as usize - 1;
        Some(match self {
            CqiTable::Qam64 => TABLE_64QAM[idx],
            CqiTable::Qam256 => TABLE_256QAM[idx],
        })
    }

    /// Spectral efficiency in bits per RE (0.0 for out-of-range CQI).
    pub fn efficiency(self, cqi: Cqi) -> f64 {
        self.entry(cqi).map_or(0.0, |e| e.efficiency())
    }

    /// Peak efficiency (CQI 15).
    pub fn peak_efficiency(self) -> f64 {
        self.efficiency(Cqi::MAX)
    }

    /// Map post-equalisation SINR (dB) to the highest CQI whose required
    /// SINR is met, targeting ≈10 % initial BLER: the number of entries of
    /// [`CQI_THRESH_DB`] at or below `sinr_db` (CQI 0 below the bottom
    /// threshold, and for NaN). Both tables share the thresholds; the
    /// table only changes what a high CQI is worth.
    pub fn sinr_to_cqi(self, sinr_db: f64) -> Cqi {
        classify_guarded(sinr_db, 0.0).0
    }

    /// The SINR (dB) required to sustain `cqi` at the 10 % BLER target —
    /// inverse of [`CqiTable::sinr_to_cqi`], used by the BLER truth model.
    pub fn required_sinr_db(self, cqi: Cqi) -> f64 {
        if !cqi.usable() {
            return f64::NEG_INFINITY;
        }
        CQI_THRESH_DB[cqi.0 as usize - 1]
    }
}

/// Required SINR (dB) to support CQI `i + 1` at 10 % BLER, ascending.
///
/// Thresholds follow the widely used exponential-ESM calibration
/// (~1.9–2 dB per CQI step starting near −6 dB), as used by the LENA
/// module's default error model.
pub const CQI_THRESH_DB: [f64; 15] = [
    -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1, 10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7,
];

/// The CQI of `sinr_db` — 15 compares, counted, no branch — and whether
/// `sinr_db` lies within `guard_db` of a threshold. The channel's CQI
/// measurement classifies an approximate SINR through this and redoes
/// the row exactly whenever the flag is set: an error smaller than the
/// guard cannot carry a value across a threshold it is not flagged near.
#[inline]
pub(crate) fn classify_guarded(sinr_db: f64, guard_db: f64) -> (Cqi, bool) {
    let mut cqi = 0u8;
    let mut near = false;
    for &t in &CQI_THRESH_DB {
        cqi += (sinr_db >= t) as u8;
        near |= (sinr_db - t).abs() <= guard_db;
    }
    (Cqi(cqi), near)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_monotonic_in_cqi() {
        for table in [CqiTable::Qam64, CqiTable::Qam256] {
            let mut prev = 0.0;
            for c in 1..=15u8 {
                let e = table.efficiency(Cqi(c));
                assert!(e > prev, "{table:?} CQI {c}: {e} <= {prev}");
                prev = e;
            }
        }
    }

    #[test]
    fn table_peaks_match_3gpp() {
        // 64-QAM CQI15: 6 * 948/1024 = 5.5547 bits/RE.
        assert!((CqiTable::Qam64.peak_efficiency() - 5.5547).abs() < 1e-3);
        // 256-QAM CQI15: 8 * 948/1024 = 7.4063 bits/RE.
        assert!((CqiTable::Qam256.peak_efficiency() - 7.4063).abs() < 1e-3);
    }

    #[test]
    fn out_of_range_cqi_is_zero_rate() {
        assert_eq!(CqiTable::Qam64.efficiency(Cqi(0)), 0.0);
        assert!(CqiTable::Qam64.entry(Cqi(0)).is_none());
        assert!(CqiTable::Qam64.entry(Cqi(16)).is_none());
    }

    #[test]
    fn sinr_mapping_monotonic() {
        let t = CqiTable::Qam64;
        let mut prev = 0;
        for s in -12..30 {
            let c = t.sinr_to_cqi(s as f64).0;
            assert!(c >= prev, "sinr={s}: cqi {c} < {prev}");
            prev = c;
        }
    }

    #[test]
    fn sinr_mapping_extremes() {
        let t = CqiTable::Qam256;
        assert_eq!(t.sinr_to_cqi(-20.0), Cqi(0));
        assert_eq!(t.sinr_to_cqi(40.0), Cqi(15));
        // Paper Fig 2b: "Medium" UEs around 10 dB should be mid-range CQI.
        let mid = t.sinr_to_cqi(10.0).0;
        assert!((6..=9).contains(&mid), "cqi@10dB={mid}");
    }

    #[test]
    fn required_sinr_inverts_mapping_at_every_entry() {
        // One table behind both directions: each threshold maps to its
        // own CQI, and the next double below it to the CQI one lower.
        assert!(CQI_THRESH_DB.windows(2).all(|w| w[0] < w[1]));
        for t in [CqiTable::Qam64, CqiTable::Qam256] {
            for (i, &thresh) in CQI_THRESH_DB.iter().enumerate() {
                let c = Cqi(i as u8 + 1);
                assert_eq!(t.required_sinr_db(c).to_bits(), thresh.to_bits());
                assert_eq!(t.sinr_to_cqi(thresh), c);
                // One ulp toward −∞ (the bit pattern of a negative double
                // grows with its magnitude).
                let step = if thresh > 0.0 { -1i64 } else { 1 };
                let below = f64::from_bits((thresh.to_bits() as i64 + step) as u64);
                assert!(below < thresh);
                assert_eq!(t.sinr_to_cqi(below), Cqi(c.0 - 1), "below {thresh}");
            }
            assert_eq!(t.sinr_to_cqi(f64::NAN), Cqi(0));
        }
    }

    #[test]
    fn guard_flags_exactly_the_band_around_each_threshold() {
        for &t in &CQI_THRESH_DB {
            assert!(classify_guarded(t, 0.0).1);
            assert!(classify_guarded(t + 0.5e-9, 1e-9).1);
            assert!(classify_guarded(t - 0.5e-9, 1e-9).1);
            assert!(!classify_guarded(t + 2e-9, 1e-9).1);
            assert!(!classify_guarded(t - 2e-9, 1e-9).1);
        }
        assert!(!classify_guarded(f64::NAN, 1e-9).1);
    }
}
