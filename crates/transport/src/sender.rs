//! TCP sender: window management, loss recovery, RTT estimation.

use outran_simcore::snap::SnapError;
use outran_simcore::{Dur, Time};

/// Sender configuration. Congestion avoidance is CUBIC
/// (RFC 8312-flavoured), the paper's transport (§3, §6.2).
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: u32,
    /// Initial congestion window in segments (RFC 6928: 10).
    pub init_cwnd_segs: u32,
    /// Minimum retransmission timeout.
    pub min_rto: Dur,
    /// Maximum retransmission timeout.
    pub max_rto: Dur,
    /// Cubic C constant (units: MSS/s³).
    pub cubic_c: f64,
    /// Cubic multiplicative decrease β.
    pub cubic_beta: f64,
    /// Upper bound on cwnd in segments (receive/system window).
    pub max_cwnd_segs: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1400,
            init_cwnd_segs: 10,
            min_rto: Dur::from_millis(200),
            max_rto: Dur::from_secs(60),
            cubic_c: 0.4,
            cubic_beta: 0.7,
            max_cwnd_segs: 1000,
        }
    }
}

/// A data segment the sender wants on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// Whether this is a retransmission.
    pub is_retx: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SlowStart,
    CongestionAvoidance,
    FastRecovery,
}

/// RFC 6298 RTT estimator.
#[derive(Debug, Clone, Copy)]
struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    min_rto: f64,
    max_rto: f64,
}

impl RttEstimator {
    fn new(min_rto: Dur, max_rto: Dur) -> RttEstimator {
        RttEstimator {
            srtt: None,
            rttvar: 0.0,
            rto: max_rto.as_secs_f64().min(1.0), // RFC 6298 initial RTO: 1 s
            min_rto: min_rto.as_secs_f64(),
            max_rto: max_rto.as_secs_f64(),
        }
    }

    fn sample(&mut self, rtt: f64) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = rtt / 2.0;
                rtt
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - rtt).abs();
                0.875 * srtt + 0.125 * rtt
            }
        };
        self.srtt = Some(srtt);
        self.rto = (srtt + (4.0 * self.rttvar).max(0.001)).clamp(self.min_rto, self.max_rto);
    }

    fn backoff(&mut self) {
        self.rto = (self.rto * 2.0).min(self.max_rto);
    }
}

/// The TCP sender for one downlink flow.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    /// Total bytes this flow will transfer.
    flow_size: u64,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Next new byte to send.
    snd_nxt: u64,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    phase: Phase,
    dup_acks: u32,
    /// Recovery point for NewReno-style fast recovery.
    recover: u64,
    /// One pending fast-retransmit segment.
    retx_pending: Option<Segment>,
    rtt: RttEstimator,
    /// Send timestamp of the earliest in-flight segment (for RTT samples;
    /// Karn's rule: retransmitted ranges don't produce samples).
    sample_seq: Option<(u64, Time)>,
    /// Current RTO deadline (None when nothing is in flight).
    rto_deadline: Option<Time>,
    /// Statistics: retransmitted bytes, timeouts.
    pub retx_bytes: u64,
    /// Statistics: RTO events.
    pub timeouts: u64,
    /// Most recent RTT sample (diagnostics; Fig 17's RTT column).
    pub last_rtt: Option<Dur>,
    /// CUBIC window-curve state.
    cubic: CubicState,
}

#[derive(Debug, Clone, Copy, Default)]
struct CubicState {
    epoch_start: Option<Time>,
    /// Window (in segments) at the last loss event.
    w_max: f64,
    /// Time to return to w_max (seconds).
    k: f64,
}

impl TcpSender {
    /// Create a sender whose RTO estimator is seeded from a handshake
    /// RTT sample (real connections take one on SYN/SYN-ACK, so the
    /// first data RTO is a few RTTs — not the 1 s cold-start default).
    pub fn with_initial_rtt(cfg: TcpConfig, flow_size: u64, rtt: Dur) -> TcpSender {
        let mut s = TcpSender::new(cfg, flow_size);
        s.rtt.sample(rtt.as_secs_f64());
        s
    }

    /// Create a sender for a flow of `flow_size` bytes.
    pub fn new(cfg: TcpConfig, flow_size: u64) -> TcpSender {
        TcpSender {
            cfg,
            flow_size,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (cfg.init_cwnd_segs * cfg.mss) as f64,
            ssthresh: f64::INFINITY,
            phase: Phase::SlowStart,
            dup_acks: 0,
            recover: 0,
            retx_pending: None,
            rtt: RttEstimator::new(cfg.min_rto, cfg.max_rto),
            sample_seq: None,
            rto_deadline: None,
            retx_bytes: 0,
            timeouts: 0,
            last_rtt: None,
            cubic: CubicState::default(),
        }
    }

    /// Whether every byte has been acknowledged.
    pub fn done(&self) -> bool {
        self.snd_una >= self.flow_size
    }

    /// Bytes in flight.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window (bytes).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current RTO deadline if armed.
    pub fn rto_deadline(&self) -> Option<Time> {
        if self.done() {
            None
        } else {
            self.rto_deadline
        }
    }

    /// Total flow size.
    pub fn flow_size(&self) -> u64 {
        self.flow_size
    }

    /// The RTT sample in flight: `(seq, sent_at)` of the segment whose
    /// ACK will produce the next sample. It is what a sender that emits
    /// nothing more still owes [`TcpSender::last_rtt`]: since
    /// `seq ≥ snd_una` always holds (a sample is taken at `snd_nxt`, and
    /// an ACK that passes `seq` clears it), the first later ACK with
    /// `cum > seq` sets `last_rtt = now − sent_at`, and no other does.
    pub fn rtt_probe(&self) -> Option<(u64, Time)> {
        debug_assert!(!matches!(self.sample_seq, Some((seq, _)) if seq < self.snd_una));
        self.sample_seq
    }

    /// Emit segments permitted by the window at `now`. Call after every
    /// state change (ack/timeout) and at flow start.
    ///
    /// Allocating wrapper around [`TcpSender::emit_into`]; hot per-TTI
    /// callers should pass a recycled buffer instead.
    pub fn emit(&mut self, now: Time) -> Vec<Segment> {
        let mut out = Vec::new();
        self.emit_into(now, &mut out);
        out
    }

    /// Append window-permitted segments at `now` to `out` (not cleared),
    /// avoiding a fresh `Vec` per call on the per-TTI hot path.
    pub fn emit_into(&mut self, now: Time, out: &mut Vec<Segment>) {
        let before = out.len();
        if let Some(seg) = self.retx_pending.take() {
            self.retx_bytes += seg.len as u64;
            out.push(seg);
        }
        let cwnd = self.cwnd.max(self.cfg.mss as f64) as u64;
        while self.in_flight() < cwnd && self.snd_nxt < self.flow_size {
            let len = (self.flow_size - self.snd_nxt).min(self.cfg.mss as u64) as u32;
            out.push(Segment {
                seq: self.snd_nxt,
                len,
                is_retx: false,
            });
            if self.sample_seq.is_none() {
                self.sample_seq = Some((self.snd_nxt, now));
            }
            self.snd_nxt += len as u64;
        }
        if out.len() > before && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + Dur::from_secs_f64(self.rtt.rto));
        }
    }

    /// Process a cumulative ACK.
    pub fn on_ack(&mut self, now: Time, cum_ack: u64) {
        if cum_ack > self.snd_una {
            // New data acknowledged.
            let newly = cum_ack - self.snd_una;
            self.snd_una = cum_ack;
            // A late ACK after a go-back-N reset can outrun snd_nxt
            // (the "lost" data actually arrived); resume from the ACK.
            self.snd_nxt = self.snd_nxt.max(cum_ack);
            self.dup_acks = 0;
            // RTT sample (Karn: only if the sampled seq was not retx'd and
            // is now covered).
            if let Some((seq, sent_at)) = self.sample_seq {
                if cum_ack > seq {
                    let rtt = now.saturating_since(sent_at).as_secs_f64();
                    self.rtt.sample(rtt);
                    self.last_rtt = Some(now.saturating_since(sent_at));
                    self.sample_seq = None;
                }
            }
            match self.phase {
                Phase::FastRecovery => {
                    if cum_ack >= self.recover {
                        // Full recovery.
                        self.phase = Phase::CongestionAvoidance;
                        self.cwnd = self.ssthresh;
                    } else {
                        // Partial ACK: retransmit the next hole.
                        self.queue_retx();
                    }
                }
                Phase::SlowStart => {
                    self.cwnd += newly as f64;
                    if self.cwnd >= self.ssthresh {
                        self.phase = Phase::CongestionAvoidance;
                        self.cubic_epoch_reset(now);
                    }
                }
                Phase::CongestionAvoidance => self.ca_growth(now, newly),
            }
            self.clamp_cwnd();
            // Re-arm RTO.
            self.rto_deadline = if self.done() && self.in_flight() == 0 {
                None
            } else {
                Some(now + Dur::from_secs_f64(self.rtt.rto))
            };
        } else if cum_ack == self.snd_una && self.in_flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.phase != Phase::FastRecovery {
                self.enter_fast_recovery(now);
            } else if self.phase == Phase::FastRecovery {
                // NewReno window inflation: each further dupack signals a
                // segment has left the network; keep the pipe full so the
                // sender doesn't stall into an RTO during recovery.
                self.cwnd += self.cfg.mss as f64;
                self.clamp_cwnd();
            }
        }
    }

    /// Handle RTO expiry. Caller must check `rto_deadline()` first.
    pub fn on_rto(&mut self, now: Time) {
        if self.done() {
            self.rto_deadline = None;
            return;
        }
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2.0).max((2 * self.cfg.mss) as f64);
        self.cwnd = self.cfg.mss as f64;
        self.phase = Phase::SlowStart;
        self.dup_acks = 0;
        // Go-back-N: everything unacked is presumed lost.
        self.snd_nxt = self.snd_una;
        self.retx_pending = None;
        self.sample_seq = None; // Karn's rule
        self.rtt.backoff();
        self.rto_deadline = Some(now + Dur::from_secs_f64(self.rtt.rto));
        self.cubic = CubicState::default();
    }

    fn enter_fast_recovery(&mut self, now: Time) {
        self.phase = Phase::FastRecovery;
        self.recover = self.snd_nxt;
        // Cubic remembers the pre-loss window as W_max.
        self.cubic.w_max = self.cwnd / self.cfg.mss as f64;
        self.ssthresh = (self.cwnd * self.cfg.cubic_beta).max((2 * self.cfg.mss) as f64);
        self.cwnd = self.ssthresh;
        self.cubic_epoch_reset(now);
        self.queue_retx();
    }

    fn queue_retx(&mut self) {
        let len = (self.flow_size - self.snd_una).min(self.cfg.mss as u64) as u32;
        if len > 0 {
            self.retx_pending = Some(Segment {
                seq: self.snd_una,
                len,
                is_retx: true,
            });
        }
    }

    fn ca_growth(&mut self, now: Time, newly_acked: u64) {
        let mss = self.cfg.mss as f64;
        if self.cubic.epoch_start.is_none() {
            self.cubic_epoch_reset(now);
        }
        // Total: the reset above guarantees `Some`; fall back to
        // a zero-length epoch rather than panicking.
        let epoch = self.cubic.epoch_start.unwrap_or(now);
        let t = now.saturating_since(epoch).as_secs_f64();
        let target_segs = self.cfg.cubic_c * (t - self.cubic.k).powi(3) + self.cubic.w_max;
        let target = target_segs * mss;
        if target > self.cwnd {
            // Approach the cubic target over one RTT.
            let step = (target - self.cwnd) * (newly_acked as f64) / self.cwnd.max(mss);
            self.cwnd += step.min(mss * (newly_acked as f64) / mss); // ≤ slow-start pace
        } else {
            // TCP-friendly minimal growth.
            self.cwnd += 0.01 * mss * (newly_acked as f64) / self.cwnd.max(mss);
        }
    }

    fn cubic_epoch_reset(&mut self, now: Time) {
        let mss = self.cfg.mss as f64;
        let w = self.cwnd / mss;
        if self.cubic.w_max < w {
            self.cubic.w_max = w;
        }
        self.cubic.k = ((self.cubic.w_max - w).max(0.0) / self.cfg.cubic_c).cbrt();
        self.cubic.epoch_start = Some(now);
    }

    fn clamp_cwnd(&mut self) {
        let max = (self.cfg.max_cwnd_segs * self.cfg.mss) as f64;
        self.cwnd = self.cwnd.clamp(self.cfg.mss as f64, max);
    }

    /// Refuse restored state the sender's own arithmetic would trip on,
    /// beyond what the layout's domains refuse: an RTT sample before
    /// `snd_una` (what `rtt_probe` asserts against), and a pending
    /// retransmission that is empty or not inside `[snd_una, flow_size]`
    /// (the receiver would otherwise ACK past the flow's end, or the
    /// cell inject an empty or already-acknowledged segment).
    fn check_restored(&mut self) -> Result<(), SnapError> {
        let sampled = self.sample_seq.is_none_or(|(seq, _)| seq >= self.snd_una);
        let retx_inside = self.retx_pending.is_none_or(|seg| {
            seg.len > 0
                && seg.seq >= self.snd_una
                && seg.seq.saturating_add(u64::from(seg.len)) <= self.flow_size
        });
        if !(sampled && retx_inside) {
            return Err(SnapError::Malformed("tcp sender state out of range"));
        }
        Ok(())
    }
}

impl TcpSender {
    /// Current slow-start threshold (bytes) — diagnostics.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }
}

use outran_simcore::{snap_enum, snap_fields};

snap_fields! { Segment { seq, len, is_retx } }
snap_enum! { Phase, "tcp phase tag" { 0 => SlowStart, 1 => CongestionAvoidance, 2 => FastRecovery } }
// A non-finite or negative estimate, or an `rto` past `max_rto`, would
// panic the next RTO arm.
snap_fields! {
    overlay RttEstimator {
        srtt in ge(0) & finite, rttvar in ge(0) & finite, rto in ge(0) & le(max_rto),
    }
    rebuilt { min_rto, max_rto }
}
snap_fields! { CubicState { epoch_start, w_max in ge(0) & finite, k in ge(0) & finite } }

// The config is not serialized: the restoring side builds the sender
// from the experiment configuration with [`TcpSender::new`], then
// overlays the full dynamic state (flow size included).
snap_fields! {
    overlay TcpSender {
        flow_size, snd_una in le(snd_nxt), snd_nxt in le(flow_size), cwnd in ge(0) & finite,
        ssthresh in ge(0), phase, dup_acks, recover in le(flow_size), retx_pending, rtt,
        sample_seq, rto_deadline, retx_bytes in counter, timeouts, last_rtt in counter, cubic,
    }
    rebuilt { cfg }
    then TcpSender::check_restored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    #[test]
    fn initial_window_burst() {
        let mut s = TcpSender::new(cfg(), 1_000_000);
        let segs = s.emit(Time::ZERO);
        assert_eq!(segs.len(), 10);
        assert_eq!(segs[0].seq, 0);
        assert_eq!(s.in_flight(), 14_000);
        assert!(s.rto_deadline().is_some());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = TcpSender::new(cfg(), 10_000_000);
        let w0 = s.cwnd();
        let segs = s.emit(Time::ZERO);
        for seg in &segs {
            s.on_ack(Time::from_millis(50), seg.seq + seg.len as u64);
        }
        assert!((s.cwnd() - 2.0 * w0).abs() < 1.0, "cwnd={}", s.cwnd());
    }

    #[test]
    fn rto_resets_to_go_back_n() {
        let mut s = TcpSender::new(cfg(), 1_000_000);
        let _ = s.emit(Time::ZERO);
        let deadline = s.rto_deadline().unwrap();
        s.on_rto(deadline);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.cwnd(), 1400.0);
        let segs = s.emit(deadline);
        assert_eq!(segs[0].seq, 0, "go-back-N restarts at snd_una");
        // Backed-off RTO.
        assert!(s.rto_deadline().unwrap() > deadline);
    }

    #[test]
    fn cubic_recovers_toward_wmax() {
        let mut s = TcpSender::new(cfg(), u64::MAX / 2);
        let mut now = Time::ZERO;
        // Grow to a sizable window.
        for _ in 0..12 {
            let segs = s.emit(now);
            let Some(last) = segs.last() else { break };
            let cum = last.seq + last.len as u64;
            now += Dur::from_millis(20);
            s.on_ack(now, cum);
        }
        let w_before_loss = s.cwnd();
        let _ = s.emit(now); // put data in flight so dupacks count
        for _ in 0..3 {
            s.on_ack(now, s.snd_una);
        }
        let w_after_loss = s.cwnd();
        assert!(w_after_loss < w_before_loss);
        // Exit recovery, then grow back via the cubic curve.
        let _ = s.emit(now);
        s.on_ack(now + Dur::from_millis(20), s.snd_nxt);
        let mut w = s.cwnd();
        // The cubic K for this drop is ~9 s of flow time; run past it.
        for i in 0..800 {
            let segs = s.emit(now);
            let cum = segs
                .last()
                .map(|g| g.seq + g.len as u64)
                .unwrap_or(s.snd_nxt);
            now += Dur::from_millis(20);
            s.on_ack(now, cum);
            w = s.cwnd();
            if w >= w_before_loss * 0.9 {
                break;
            }
            assert!(i < 799, "cubic must climb back toward w_max, w={w}");
        }
        assert!(w > w_after_loss);
    }

    #[test]
    fn rtt_estimator_tracks_samples() {
        let mut s = TcpSender::new(cfg(), 1_000_000);
        let _ = s.emit(Time::ZERO);
        s.on_ack(Time::from_millis(30), 1400);
        assert_eq!(s.last_rtt, Some(Dur::from_millis(30)));
    }
}
