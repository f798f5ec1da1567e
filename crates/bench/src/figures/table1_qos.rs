//! Table 1 — QoS profiling of mobile applications.
//!
//! Reproduces the classification the paper measured on a commercial-grade
//! 5G NSA testbed: all internet traffic shares the default best-effort
//! bearer (QCI 6); only VoIP gets a dedicated GBR bearer.

use super::*;
use outran_ran::qos::{table1_rows, AppKind, BearerKind};

fn app_name(a: AppKind) -> &'static str {
    match a {
        AppKind::Voip => "VoIP (i.e., VoLTE)",
        AppKind::ImsSignaling => "IMS signaling",
        AppKind::WebBrowsing => "Web browsing",
        AppKind::SocialNetworking => "Social networking",
        AppKind::TcpVideo => "TCP-based video",
        AppKind::FileTransfer => "File transfer",
    }
}

pub(super) fn run(_threads: usize, out: &mut String) {
    let mut t = Table::new(
        "Table 1: QoS profiling of mobile applications (5G NSA testbed model)",
        &["Application", "Traffic Class", "Bearer", "QCI", "Service"],
    );
    for (app, p) in table1_rows() {
        let bearer = match p.bearer {
            BearerKind::DedicatedGbr => "Dedicated GBR".to_string(),
            BearerKind::Default => "Default".to_string(),
        };
        t.row(&[
            app_name(app).to_string(),
            format!("{:?}", p.class),
            bearer,
            p.qci.to_string(),
            p.service.to_string(),
        ]);
    }
    *out += &t.render();
    *out += "\nObservation (paper §3): every internet application shares QCI 6 — the\n\
         latency-sensitive Interactive class and heavy Background class are the\n\
         same citizens at the base station scheduler.\n";
}
