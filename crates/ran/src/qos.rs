//! 3GPP QoS profiles and the Table 1 classification.
//!
//! Table 1 of the paper measures, on a commercial-grade 5G NSA testbed,
//! which QoS profile each application actually receives: only VoIP gets a
//! dedicated GBR bearer (QCI 1); IMS signalling rides QCI 5; **every
//! internet application — web browsing, social networking, TCP video,
//! file transfer — shares the default best-effort bearer with QCI 6.**
//! That observation motivates the whole paper: the latency-sensitive
//! Interactive class and the heavy Background class are "the same
//! citizens" at the base station.

/// 3GPP generic traffic classes (TS 23.107).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Real-time conversational (VoIP, video calls).
    Conversational,
    /// Streaming (real-time audio/video distribution).
    Streaming,
    /// Interactive (web browsing, social networking, signalling).
    Interactive,
    /// Background (file transfer, TCP video prefetch).
    Background,
}

/// Bearer type carrying the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BearerKind {
    /// Dedicated GBR bearer (guaranteed bit rate).
    DedicatedGbr,
    /// Default bearer (best effort, non-GBR).
    Default,
}

/// Application categories probed in the Table 1 measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// VoIP / VoLTE.
    Voip,
    /// IMS signalling.
    ImsSignaling,
    /// Web browsing (e.g. Chrome).
    WebBrowsing,
    /// Social networking (e.g. Instagram).
    SocialNetworking,
    /// TCP-based video (e.g. YouTube prefetch).
    TcpVideo,
    /// Bulk file transfer (e.g. ftp).
    FileTransfer,
}

/// A resolved QoS profile (one Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosProfile {
    /// The LTE QCI (identical to the 5QI observed on 5G NSA/SA).
    pub qci: u8,
    /// Traffic class of the application.
    pub class: TrafficClass,
    /// Bearer carrying it.
    pub bearer: BearerKind,
    /// Guaranteed bit rate in bit/s, if any.
    pub gbr_bps: Option<u64>,
    /// Service description as in the table.
    pub service: &'static str,
}

/// Classify an application the way the commercial network of Table 1
/// does.
pub fn classify(app: AppKind) -> QosProfile {
    match app {
        AppKind::Voip => QosProfile {
            qci: 1,
            class: TrafficClass::Conversational,
            bearer: BearerKind::DedicatedGbr,
            gbr_bps: Some(14_000), // "GBR = 14 kbps"
            service: "Guaranteed Bitrate (GBR)",
        },
        AppKind::ImsSignaling => QosProfile {
            qci: 5,
            class: TrafficClass::Interactive,
            bearer: BearerKind::Default,
            gbr_bps: None,
            service: "High priority, Best-effort",
        },
        AppKind::WebBrowsing | AppKind::SocialNetworking => QosProfile {
            qci: 6,
            class: TrafficClass::Interactive,
            bearer: BearerKind::Default,
            gbr_bps: None,
            service: "Low priority, Best-effort",
        },
        AppKind::TcpVideo | AppKind::FileTransfer => QosProfile {
            qci: 6,
            class: TrafficClass::Background,
            bearer: BearerKind::Default,
            gbr_bps: None,
            service: "Low priority, Best-effort",
        },
    }
}

/// All Table 1 rows in display order.
pub fn table1_rows() -> Vec<(AppKind, QosProfile)> {
    [
        AppKind::Voip,
        AppKind::ImsSignaling,
        AppKind::WebBrowsing,
        AppKind::SocialNetworking,
        AppKind::TcpVideo,
        AppKind::FileTransfer,
    ]
    .into_iter()
    .map(|a| (a, classify(a)))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_voip_gets_dedicated_bearer() {
        for (app, p) in table1_rows() {
            if app == AppKind::Voip {
                assert_eq!(p.bearer, BearerKind::DedicatedGbr);
                assert_eq!(p.qci, 1);
                assert_eq!(p.gbr_bps, Some(14_000));
            } else {
                assert_eq!(p.bearer, BearerKind::Default, "{app:?} must be best-effort");
                assert!(p.gbr_bps.is_none());
            }
        }
    }

    #[test]
    fn interactive_and_background_share_qci6() {
        // The paper's central observation.
        let web = classify(AppKind::WebBrowsing);
        let ftp = classify(AppKind::FileTransfer);
        assert_eq!(web.qci, 6);
        assert_eq!(ftp.qci, 6);
        assert_eq!(web.bearer, ftp.bearer);
        // Same citizens at the base station despite different classes.
        assert_eq!(web.class, TrafficClass::Interactive);
        assert_eq!(ftp.class, TrafficClass::Background);
    }

    #[test]
    fn ims_is_qci5_best_effort() {
        let ims = classify(AppKind::ImsSignaling);
        assert_eq!(ims.qci, 5);
        assert_eq!(ims.bearer, BearerKind::Default);
    }
}
