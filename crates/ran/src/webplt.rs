//! Web page-load driver — the PLT experiments of §6.1.
//!
//! Reproduces the testbed workload: a UE loads a page (a set of
//! sub-flows fetched by a browser with at most 6 concurrent connections,
//! HTML first) while background websearch flows keep the cell at the
//! configured load. PLT = last object completion − navigation start +
//! the page's render time (the §6.1 observation that some pages are
//! render-dominated is carried by the per-page `render_ms`).

use std::collections::{BTreeMap, VecDeque};

use outran_simcore::{Dur, Rng, Time};
use outran_workload::{BrowserModel, WebObject, WebPage};

use crate::cell::Cell;

/// Result of one page load.
#[derive(Debug, Clone)]
pub struct PltRun {
    /// Page name.
    pub page: &'static str,
    /// Page load time (fetch + render).
    pub plt: Dur,
    /// Per-object fetch times (the sub-flow FCTs the paper reports
    /// improving by 20 % on average).
    pub object_fcts: Vec<Dur>,
}

/// Flow arrivals for an idle-heavy browsing session: starting at 50 ms,
/// a UE loads one small Table-2 page every `think` (its objects arrive
/// a few milliseconds apart, approximating the browser fan-out), then
/// the cell sits idle until the next page — the workload shape the
/// event-driven stepper is built for (the overwhelming majority of TTIs
/// carry no work). Yields `(at, ue, bytes)` triples for
/// [`Cell::schedule_flow`] in time order, deterministic in `seed`, one
/// page at a time: a day of arrivals is never materialised beside the
/// cell that schedules them.
pub fn idle_heavy_arrivals(
    horizon: Time,
    think: Dur,
    n_ues: usize,
    seed: u64,
) -> impl Iterator<Item = (Time, usize, u64)> {
    assert!(n_ues > 0);
    assert!(think > Dur::ZERO);
    let pages = WebPage::table2();
    let mut rng = Rng::new(seed ^ 0x1D7E_CAFE);
    let starts = (0usize..).map(move |i| (i, Time::from_millis(50) + Dur(think.0 * i as u64)));
    starts
        .take_while(move |&(_, t)| t < horizon)
        .flat_map(move |(i, t)| {
            // Cycle the two smallest pages so each active burst stays
            // short relative to the think gap.
            let ue = i % n_ues;
            let objects = pages[i % 2].objects(&mut rng).into_iter().enumerate();
            objects.map(move |(j, obj)| {
                let at = Time(t.0 + j as u64 * Dur::from_millis(3).0);
                (at, ue, obj.bytes.max(64))
            })
        })
}

/// Drive one page load on `cell` for `ue`, starting at the cell's
/// current time. Steps the cell until the page completes (or the 120 s
/// safety horizon passes). Background flows already scheduled on the
/// cell keep running; their completions are consumed and ignored here
/// (they remain in the cell's own FCT collector).
pub fn load_page(
    cell: &mut Cell,
    page: &WebPage,
    ue: usize,
    browser: BrowserModel,
    rng: &mut Rng,
    conn_base: u64,
) -> PltRun {
    let objects = page.objects(rng);
    assert!(!objects.is_empty());
    let start = cell.now();
    let deadline = Time(start.0 + Time::from_secs(120).0);

    // Connection-slot accounting: a QUIC page's multiplexed connection
    // occupies one slot no matter how many streams ride it.
    let conn_of = |o: &WebObject| -> u64 {
        if o.is_quic {
            conn_base // shared QUIC five-tuple
        } else {
            conn_base + 1 + o.conn as u64
        }
    };

    let mut pending: VecDeque<WebObject> = objects.into_iter().collect();
    // Ordered maps: no iteration today, but keeping the sim crates
    // hash-free (`clippy.toml`) means a future traversal cannot regress replay.
    let mut in_flight: BTreeMap<usize, (u64, Time)> = BTreeMap::new(); // flow -> (conn, launch)
    let mut active_conns: BTreeMap<u64, usize> = BTreeMap::new(); // conn -> live objects
    let mut object_fcts = Vec::new();
    let mut last_done = start;

    // HTML-first: launch only the first object, wait for it.
    let Some(html) = pending.pop_front() else {
        // Unreachable (non-empty asserted above): an object-less page is
        // pure render time.
        return PltRun {
            page: page.name,
            plt: Dur::from_millis(page.render_ms),
            object_fcts,
        };
    };
    let html_conn = conn_of(&html);
    let fid = cell.schedule_flow(start, ue, html.bytes.max(64), Some(html_conn));
    in_flight.insert(fid, (html_conn, start));
    *active_conns.entry(html_conn).or_insert(0) += 1;
    let mut html_done = !browser.html_first;

    while (!pending.is_empty() || !in_flight.is_empty()) && cell.now() < deadline {
        cell.step();
        let now = cell.now();
        for d in cell.take_completions() {
            if let Some((conn, launched)) = in_flight.remove(&d.id) {
                object_fcts.push(now.saturating_since(launched));
                last_done = now;
                if let Some(c) = active_conns.get_mut(&conn) {
                    *c -= 1;
                    if *c == 0 {
                        active_conns.remove(&conn);
                    }
                }
                html_done = true; // first completion is necessarily the HTML
            }
            // Background completions fall through (already recorded by
            // the cell's collector).
        }
        if !html_done {
            continue;
        }
        // Launch pending objects while connection slots are free.
        while let Some(obj) = pending.front() {
            let conn = conn_of(obj);
            let occupies_new_slot = !active_conns.contains_key(&conn);
            if occupies_new_slot && active_conns.len() >= browser.max_concurrent as usize {
                break;
            }
            let Some(obj) = pending.pop_front() else {
                break; // unreachable: front() just returned Some
            };
            let fid = cell.schedule_flow(now, ue, obj.bytes.max(64), Some(conn));
            in_flight.insert(fid, (conn, now));
            *active_conns.entry(conn).or_insert(0) += 1;
        }
    }

    let fetch = last_done.saturating_since(start);
    PltRun {
        page: page.name,
        plt: fetch + Dur::from_millis(page.render_ms),
        object_fcts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellConfig, SchedulerKind};

    fn small_cell(kind: SchedulerKind, seed: u64) -> Cell {
        let mut cfg = CellConfig::lte_default(2, kind, seed);
        cfg.channel.radio = outran_phy::numerology::RadioConfig::lte_rbs(25);
        cfg.channel.n_subbands = 4;
        Cell::new(cfg)
    }

    #[test]
    fn page_load_completes() {
        let mut cell = small_cell(SchedulerKind::Pf, 1);
        let page = &WebPage::table2()[1]; // google.com
        let mut rng = Rng::new(5);
        let run = load_page(&mut cell, page, 0, BrowserModel::default(), &mut rng, 10);
        assert_eq!(run.object_fcts.len(), page.n_flows as usize);
        // PLT includes render time and at least a couple of RTTs.
        assert!(run.plt >= Dur::from_millis(page.render_ms));
        assert!(run.plt < Dur::from_secs(60), "plt={}", run.plt);
    }

    #[test]
    fn render_dominated_page_has_floor() {
        let mut cell = small_cell(SchedulerKind::OutRan, 2);
        let zoom = WebPage::table2()
            .into_iter()
            .find(|p| p.name == "zoom.us")
            .unwrap();
        let mut rng = Rng::new(6);
        let run = load_page(&mut cell, &zoom, 0, BrowserModel::default(), &mut rng, 20);
        assert!(run.plt >= Dur::from_millis(4200));
    }

    #[test]
    fn deterministic_page_load() {
        let go = || {
            let mut cell = small_cell(SchedulerKind::OutRan, 3);
            let page = &WebPage::table2()[0];
            let mut rng = Rng::new(9);
            load_page(&mut cell, page, 1, BrowserModel::default(), &mut rng, 30).plt
        };
        assert_eq!(go(), go());
    }
}
