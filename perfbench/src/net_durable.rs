//! `net-durable`: an in-process UDP base station with a write-ahead log,
//! serving a provisioned mote army from one client thread — first as an
//! open loop at a fixed offered rate (latency from each reading's due
//! time to its ACK), then as a closed loop with a fixed number of
//! readings in flight (throughput).

use bytes::Bytes;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use wsn_core::base_station::BaseStation;
use wsn_core::config::{CounterMode, ProtocolConfig, RecoveryConfig};
use wsn_core::forward::{e2e_open_with, e2e_seal_with, sealer, unwrap_in, unwrap_with, wrap_frame};
use wsn_core::keys::Provisioner;
use wsn_core::msg::{ClusterId, Inner, Message};
use wsn_core::persist::StateMutation;
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::prf::PrfKey;
use wsn_crypto::Key128;
use wsn_net::load::{provision_motes, Mote};
use wsn_net::udp::wall_us;
use wsn_net::wal::{self, StateStore};
use wsn_net::{NetStats, UdpServer, UdpServerConfig};
use wsn_sim::rng::derive_seed;

use crate::inputs::{due_ns, mote_order, provisioning_seed};
use crate::replay::{ns_per_op, replay_bs};
use crate::report::Outcome;
use crate::stats::{median, quantile, ratio};
use crate::sys::{self, Span};

/// Workload size.
#[derive(Clone, Debug)]
pub struct Size {
    /// Motes provisioned (ids `1..=motes`).
    pub motes: usize,
    /// Offered rate of the open-loop phase, readings/s.
    pub rate: u64,
    /// Readings in flight in the closed-loop phase.
    pub window: usize,
    /// Servers spawned per run (`setup_s` is their median).
    pub reps: u64,
    /// Captured frames the traced run replays through the crypto and
    /// codec layers.
    pub sample: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            motes: 20_000,
            rate: 20_000,
            window: 256,
            reps: 7,
            sample: 20_000,
        }
    }
}

/// Slice of the closed loop whose ACK count gives one throughput
/// sample.
const SLICE: Duration = Duration::from_millis(100);

/// Slices of the closed loop between two checks that ACK implies
/// flushed, taken while traffic runs.
const SLICES_PER_FLUSH_CHECK: usize = 10;

/// Reading payload before sealing, bytes.
const PAYLOAD: usize = 24;

/// Wait before a reading is retransmitted.
const ACK_TIMEOUT: Duration = Duration::from_millis(1000);

/// Retransmits before a reading counts as failed.
const MAX_RETRIES: u32 = 4;

/// Sustained closed-loop rate, readings/s: the median over slices of
/// `(acked, seconds)`, so a stall in one slice (a snapshot fsync, a
/// preempted thread) does not move it.
fn slice_rate(slices: &[(u64, f64)]) -> f64 {
    let per_s: Vec<f64> = slices.iter().map(|&(n, s)| ratio(n as f64, s)).collect();
    median(&per_s)
}

/// Socket receive buffer asked for on both ends, so a burst of a full
/// window of datagrams is queued rather than dropped.
const RCVBUF: usize = 4 << 20;

/// The protocol configuration of server and motes: recovery ACKs and
/// explicit counters.
fn protocol_config() -> ProtocolConfig {
    ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_counter_mode(CounterMode::Explicit)
}

/// The server configuration under test: one reader, one worker and a
/// WAL in `dir`.
fn server_config(motes: usize, seed: u64, dir: &Path) -> UdpServerConfig {
    let mut c = UdpServerConfig::localhost(0, motes + 1, seed, protocol_config());
    c.queue_depth = 8192;
    c.rcvbuf = Some(RCVBUF);
    c.state_dir = Some(dir.to_path_buf());
    c
}

/// A reading awaiting its ACK.
struct Pending {
    pos: usize,
    ctr: u64,
    sealed: Bytes,
    due: Instant,
    last_sent: Instant,
    retries: u32,
}

/// Client-side tallies.
#[derive(Default)]
struct Tally {
    sent: u64,
    failed: u64,
    retransmits: u64,
    bad_acks: u64,
    /// Milliseconds from due time to ACK (open loop only).
    latency_ms: Vec<f64>,
    /// Milliseconds the generator sent behind schedule (open loop).
    late_ms: Vec<f64>,
    /// Nanoseconds of `Mote::next_reading` (traced phases).
    seal_ns: Vec<f64>,
    /// Nanoseconds of `send_to` (traced phases).
    send_ns: Vec<f64>,
    /// Nanoseconds of a `recv_from` that returned a datagram (traced).
    recv_ns: Vec<f64>,
}

/// The single client thread: the mote army plus one socket.
struct Client {
    socket: UdpSocket,
    target: SocketAddr,
    motes: Vec<Mote>,
    order: Vec<u32>,
    next: usize,
    /// `Kci` sealers by mote position, for checking every ACK.
    verify: Vec<AuthEnc>,
    cfg: ProtocolConfig,
    pending: HashMap<u64, Pending>,
    /// Highest ACKed counter per mote position.
    acked_ctr: Vec<Option<u64>>,
    /// The live server's state directory.
    state_dir: PathBuf,
    /// ACK-implies-flushed checks made, and the motes each found with
    /// an ACKed counter the WAL copy did not hold, summed.
    flush_checks: u64,
    unflushed: u64,
    size: Size,
    buf: Vec<u8>,
    /// `(send clock µs, frame)` of everything sent, when capturing.
    capture: Option<Vec<(u64, Bytes)>>,
    t: Tally,
}

impl Client {
    fn timed(&self) -> bool {
        self.capture.is_some()
    }

    fn send_frame(&mut self, frame: &Bytes) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.socket.send_to(frame, self.target).map(|_| ());
        if self.timed() {
            self.t.send_ns.push(t0.elapsed().as_nanos() as f64);
        }
        if let (Ok(()), Some(c)) = (&r, self.capture.as_mut()) {
            c.push((wall_us(), frame.clone()));
        }
        r
    }

    /// Sends the next reading in the mote order, due at `due`.
    fn send_new(&mut self, due: Instant) {
        let pos = self.order[self.next % self.order.len()] as usize;
        self.next += 1;
        let t0 = Instant::now();
        let reading = self.motes[pos].next_reading(PAYLOAD);
        if self.timed() {
            self.t.seal_ns.push(t0.elapsed().as_nanos() as f64);
        }
        // A send the kernel refuses is retried by the ACK timeout.
        let _ = self.send_frame(&reading.frame);
        self.t.sent += 1;
        self.pending.insert(
            reading.ack_key,
            Pending {
                pos,
                ctr: reading.ctr,
                sealed: reading.sealed,
                due,
                last_sent: Instant::now(),
                retries: 0,
            },
        );
    }

    /// Reads every queued datagram without blocking. Returns the
    /// readings newly ACKed.
    fn drain(&mut self, record_latency: bool) -> u64 {
        let mut newly = 0;
        while let Some(len) = self.recv() {
            newly += self.on_datagram(len, record_latency);
        }
        newly
    }

    /// One nonblocking `recv_from`, timed when it returns a datagram, so
    /// the time is the syscall's and never a wait for the server.
    fn recv(&mut self) -> Option<usize> {
        let t0 = Instant::now();
        let (len, _) = self.socket.recv_from(&mut self.buf).ok()?;
        if self.timed() {
            self.t.recv_ns.push(t0.elapsed().as_nanos() as f64);
        }
        Some(len)
    }

    /// Handles one datagram: it must be an ACK that unwraps under its
    /// mote's `Kci`. Returns 1 if it ACKed a pending reading.
    fn on_datagram(&mut self, len: usize, record_latency: bool) -> u64 {
        let now = Instant::now();
        let key = Message::peek_wrapped(&self.buf[..len]).and_then(|(cid, nonce, sealed)| {
            let ae = self.verify.get((cid as usize).checked_sub(1)?)?;
            match unwrap_with(ae, cid, nonce, sealed, wall_us(), &self.cfg) {
                Ok(u) => match u.inner {
                    Inner::Ack { key } => Some(key),
                    _ => None,
                },
                Err(_) => None,
            }
        });
        let Some(key) = key else {
            self.t.bad_acks += 1;
            return 0;
        };
        // ACKs of a retransmitted reading's earlier copies find nothing
        // pending.
        let Some(p) = self.pending.remove(&key) else {
            return 0;
        };
        let slot = &mut self.acked_ctr[p.pos];
        *slot = Some(slot.map_or(p.ctr, |c| c.max(p.ctr)));
        if record_latency {
            self.t
                .latency_ms
                .push(now.duration_since(p.due).as_secs_f64() * 1e3);
        }
        1
    }

    /// Retransmits readings whose ACK is overdue; gives up on readings
    /// out of retries (failures).
    fn retransmit(&mut self) {
        let now = Instant::now();
        let timeout = ACK_TIMEOUT;
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| now.duration_since(p.last_sent) >= timeout)
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            let p = self.pending.get_mut(&key).expect("listed above");
            if p.retries >= MAX_RETRIES {
                self.pending.remove(&key);
                self.t.failed += 1;
                continue;
            }
            p.retries += 1;
            p.last_sent = now;
            let frame = self.motes[p.pos].rewrap(p.ctr, &p.sealed);
            let _ = self.send_frame(&frame);
            self.t.retransmits += 1;
        }
    }

    /// Waits (retransmitting) until nothing is in flight.
    fn settle(&mut self) {
        let patience = ACK_TIMEOUT * (MAX_RETRIES + 2);
        let start = Instant::now();
        while !self.pending.is_empty() && start.elapsed() < patience {
            self.drain(true);
            self.retransmit();
            std::thread::sleep(Duration::from_micros(200));
        }
        self.t.failed += self.pending.len() as u64;
        self.pending.clear();
    }

    /// ACK implies flushed, checked while traffic runs: copies the live
    /// WAL and snapshot right after ACKs arrived and checks the copy
    /// against every counter ACKed so far.
    fn check_flushed(&mut self) {
        self.unflushed += ack_not_durable(&self.state_dir, &self.acked_ctr);
        self.flush_checks += 1;
    }

    /// Open loop: readings due at `rate`/s for `seconds`, each timed
    /// from its due time to its ACK.
    fn open_loop(&mut self, seconds: f64) -> Span {
        let cpu0 = sys::cpu_seconds();
        let start = Instant::now();
        let end = Duration::from_secs_f64(seconds);
        let mut i = 0u64;
        let mut last_retx = start;
        loop {
            let now = start.elapsed();
            if now >= end {
                break;
            }
            loop {
                let due = Duration::from_nanos(due_ns(i, self.size.rate));
                if due > start.elapsed() {
                    break;
                }
                self.t
                    .late_ms
                    .push((start.elapsed() - due).as_secs_f64() * 1e3);
                self.send_new(start + due);
                i += 1;
            }
            self.drain(true);
            if last_retx.elapsed() >= Duration::from_millis(5) {
                self.retransmit();
                last_retx = Instant::now();
            }
            // Idle until the next reading is due, waking early for an
            // ACK so its arrival is seen when it happens.
            let next = Duration::from_nanos(due_ns(i, self.size.rate));
            if let Some(ahead) = next.checked_sub(start.elapsed()) {
                sys::wait_readable(&self.socket, ahead.min(Duration::from_micros(500)));
            }
        }
        self.drain(true);
        self.check_flushed();
        self.settle();
        Span {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - cpu0,
        }
    }

    /// Closed loop: `window` readings in flight for `seconds`. Returns
    /// `(readings ACKed, seconds)` of each slice, and the loop's span.
    fn closed_loop(&mut self, seconds: f64) -> (Vec<(u64, f64)>, Span) {
        let cpu0 = sys::cpu_seconds();
        let start = Instant::now();
        let end = Duration::from_secs_f64(seconds);
        let mut slices = Vec::new();
        let mut slice_start = start;
        let mut slice_acked = 0u64;
        let mut last_retx = start;
        let mut check_due = false;
        while start.elapsed() < end {
            let now = Instant::now();
            if now >= slice_start + SLICE {
                slices.push((slice_acked, (now - slice_start).as_secs_f64()));
                slice_start = now;
                slice_acked = 0;
                check_due |= slices.len() % SLICES_PER_FLUSH_CHECK == 0;
            }
            while self.pending.len() < self.size.window {
                self.send_new(Instant::now());
            }
            // The window is full: wait (at most 1 ms) for ACKs.
            sys::wait_readable(&self.socket, Duration::from_millis(1));
            let newly = self.drain(false);
            slice_acked += newly;
            if check_due && newly > 0 {
                self.check_flushed();
                check_due = false;
            }
            if last_retx.elapsed() >= Duration::from_millis(5) {
                self.retransmit();
                last_retx = Instant::now();
            }
        }
        let span = Span {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - cpu0,
        };
        self.drain(false);
        self.check_flushed();
        self.settle();
        (slices, span)
    }
}

/// Counters of the live server at one instant.
#[derive(Clone, Copy, Default)]
struct Live {
    rx: u64,
    tx: u64,
    accepted: u64,
    duplicates: u64,
    counter_rejects: u64,
    queue_full: u64,
    wal_appends: u64,
    snapshots: u64,
}

impl Live {
    fn of(s: &NetStats) -> Live {
        let l = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Live {
            rx: l(&s.datagrams_rx),
            tx: l(&s.datagrams_tx),
            accepted: l(&s.readings_accepted),
            duplicates: l(&s.duplicates),
            counter_rejects: l(&s.counter_rejects),
            queue_full: l(&s.queue_full_drops),
            wal_appends: l(&s.wal_appends),
            snapshots: l(&s.snapshots_written),
        }
    }

    fn since(self, e: Live) -> Live {
        Live {
            rx: self.rx - e.rx,
            tx: self.tx - e.tx,
            accepted: self.accepted - e.accepted,
            duplicates: self.duplicates - e.duplicates,
            counter_rejects: self.counter_rejects - e.counter_rejects,
            queue_full: self.queue_full - e.queue_full,
            wal_appends: self.wal_appends - e.wal_appends,
            snapshots: self.snapshots - e.snapshots,
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> WorkDir {
        let dir = std::env::current_dir()
            .expect("working directory")
            .join(".bench_work")
            .join(format!("net-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs the workload.
pub fn run(size: &Size, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let rss0 = sys::rss_bytes();
    let work = WorkDir::new();
    let pseed = provisioning_seed(seed);

    // Set up: spawn the durable server and provision the army, `reps`
    // times; the last pair serves the load.
    let mut setups = Vec::new();
    let mut live: Option<(UdpServer, Vec<Mote>)> = None;
    let mut state_dir = PathBuf::new();
    for rep in 0..size.reps {
        if let Some((server, _)) = live.take() {
            server.shutdown();
        }
        state_dir = work.0.join(format!("state-{rep}"));
        let cfg = server_config(size.motes, pseed, &state_dir);
        let (pair, span) = sys::measure(|| {
            let server = UdpServer::spawn(cfg).expect("spawning the UDP server");
            (server, provision_motes(size.motes, pseed))
        });
        setups.push(span.wall_s);
        live = Some(pair);
    }
    let peak_per_node = sys::peak_rss_bytes().saturating_sub(rss0) as f64 / size.motes as f64;
    let (server, motes) = live.expect("at least one setup");
    let stats = std::sync::Arc::clone(server.stats());
    let provisioner = Provisioner::new(derive_seed(pseed, 1));
    let verify: Vec<AuthEnc> = (1..=size.motes as u32)
        .map(|id| sealer(&provisioner.cluster_key_of(id)))
        .collect();
    let socket = UdpSocket::bind("127.0.0.1:0").expect("binding the client socket");
    socket.set_nonblocking(true).expect("nonblocking socket");
    let client_rcvbuf =
        sys::set_rcvbuf(&socket, RCVBUF).expect("setting the client receive buffer");
    // Linux reports twice the buffer it grants for data; it caps the
    // grant at `net.core.rmem_max`.
    for (end, reported) in [("client", client_rcvbuf)]
        .into_iter()
        .chain(server.rcvbuf_effective().iter().map(|&b| ("server", b)))
    {
        if reported / 2 < RCVBUF {
            out.warn(format!(
                "{end} socket receive buffer is {} bytes, not the {RCVBUF} asked for \
                 (net.core.rmem_max caps it)",
                reported / 2
            ));
        }
    }
    let mut client = Client {
        socket,
        target: SocketAddr::from(([127, 0, 0, 1], server.ports()[0])),
        motes,
        order: mote_order(seed, size.motes),
        next: 0,
        verify,
        cfg: protocol_config(),
        pending: HashMap::new(),
        acked_ctr: vec![None; size.motes],
        state_dir: state_dir.clone(),
        flush_checks: 0,
        unflushed: 0,
        size: size.clone(),
        buf: vec![0u8; 2048],
        capture: None,
        t: Tally::default(),
    };

    // The open loop needs fewer seconds for a steady median than the
    // closed loop does for a steady rate.
    let (open_s, closed_s) = (seconds / 3.0, seconds * 2.0 / 3.0);
    client.open_loop(open_s);
    let latency = std::mem::take(&mut client.t.latency_ms);
    let late = std::mem::take(&mut client.t.late_ms);
    let (slices_b, span_b) = client.closed_loop(closed_s);
    let acked_b: u64 = slices_b.iter().map(|(n, _)| n).sum();

    // Traced: the same two phases again, capturing every frame sent and
    // timing the client's calls.
    let mut traced = None;
    if trace {
        client.capture = Some(Vec::new());
        let before = Live::of(&stats);
        client.open_loop(open_s);
        let (t_slices, _) = client.closed_loop(closed_s);
        traced = Some((
            client.capture.take().expect("capturing"),
            Live::of(&stats).since(before),
            t_slices,
        ));
    }

    // Gates on the live run.
    let errors = stats.protocol_errors();
    out.gate(errors == 0, || {
        let l = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{errors} protocol errors at the server (bad auth {}, stale {}, malformed {}, \
             unknown cluster {}, counter rejects {}; {} retransmits)",
            l(&stats.bad_auth),
            l(&stats.stale),
            l(&stats.malformed),
            l(&stats.unknown_cluster),
            l(&stats.counter_rejects),
            client.t.retransmits
        )
    });
    out.gate(client.t.bad_acks == 0, || {
        format!(
            "{} datagrams were not ACKs under the mote's Kci",
            client.t.bad_acks
        )
    });
    // Once more after every reading settled.
    client.check_flushed();
    let (checks, unflushed) = (client.flush_checks, client.unflushed);
    out.gate(unflushed == 0, || {
        format!("{unflushed} ACKed counters missing from the WAL copies taken over {checks} checks")
    });
    out.attempted = client.t.sent;
    out.failed = client.t.failed;
    server.shutdown();

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("readings_per_s", slice_rate(&slices_b));
    m.set("reading_p50_ms", quantile(&latency, 0.5));
    m.set("reading_p99_ms", quantile(&latency, 0.99));
    m.set("peak_rss_bytes_per_node", peak_per_node);
    let Some((frames, t_live, t_slices)) = traced else {
        return out;
    };

    // ---- WAL restore of the live state directory ------------------------
    let cfg = client.cfg.clone();
    let restore_start = Instant::now();
    let (_store, recovered) = StateStore::open(&state_dir, 0).expect("reopening the state dir");
    let replayed_records = recovered.mutations.len();
    let mut restored = match recovered.snapshot {
        Some(snap) => BaseStation::from_snapshot(
            cfg.clone(),
            provisioner.km(),
            provisioner.revocation_chain(),
            snap,
        ),
        None => fresh_bs(&cfg, &provisioner, size.motes),
    };
    for mutation in &recovered.mutations {
        restored.apply_mutation(mutation);
    }
    let restore_ms = restore_start.elapsed().as_secs_f64() * 1e3;
    let registered = restored.registered_nodes().len();
    out.gate(registered == size.motes + 1, || {
        format!(
            "restored registry holds {registered} of {} ids",
            size.motes + 1
        )
    });

    // ---- base station + WAL replay of every traced frame -----------------
    let replay_dir = work.0.join("replay");
    let (mut store, _) = StateStore::open(&replay_dir, 0).expect("opening the replay store");
    let mut bs = fresh_bs(&cfg, &provisioner, size.motes);
    let r = replay_bs(&mut bs, &frames, Some(&mut store));
    // The replay sees exactly what the live station dispatched unless
    // the kernel or a full worker queue dropped datagrams on the way;
    // then the loss is reported (`udp.rx_loss_share`,
    // `udp.queue_full_drops`) and the counts cannot be compared.
    if t_live.rx == frames.len() as u64 && t_live.queue_full == 0 {
        out.gate(
            r.accepted == t_live.accepted
                && bs.duplicates == t_live.duplicates
                && bs.counter_rejects == t_live.counter_rejects,
            || {
                format!(
                    "replay of {} frames accepted {} / dup {} / rejected {}, live {} / {} / {}",
                    frames.len(),
                    r.accepted,
                    bs.duplicates,
                    bs.counter_rejects,
                    t_live.accepted,
                    t_live.duplicates,
                    t_live.counter_rejects
                )
            },
        );
    } else {
        out.warn(format!(
            "{} of {} traced frames reached a worker; replay counts not compared",
            t_live.rx - t_live.queue_full,
            frames.len()
        ));
    }

    // ---- crypto and codec replays on a sample of the traced frames ----------
    let sample = &frames[..frames.len().min(size.sample)];
    let mut cluster: HashMap<ClusterId, AuthEnc> = HashMap::new();
    let mut node: HashMap<u32, AuthEnc> = HashMap::new();
    let mut scratch = Vec::new();
    let mut wrapped = Vec::new();
    let mut units = Vec::new();
    for (at, frame) in sample {
        let Some((cid, nonce, sealed)) = Message::peek_wrapped(frame) else {
            out.gate(false, || {
                "replay: a captured frame is not wrapped".to_string()
            });
            continue;
        };
        let ae = cluster
            .entry(cid)
            .or_insert_with(|| sealer(&provisioner.cluster_key_of(cid)));
        match unwrap_in(ae, cid, nonce, sealed, *at, &cfg, &mut scratch) {
            Ok(u) => {
                if let Inner::Data(unit) = &u.inner {
                    node.entry(unit.src)
                        .or_insert_with(|| sealer(&provisioner.node_key(unit.src)));
                    units.push(unit.clone());
                }
                wrapped.push((cid, nonce, sealed.to_vec(), *at, u));
            }
            Err(e) => out.gate(false, || {
                format!("replay: captured frame fails to unwrap: {e:?}")
            }),
        }
    }
    let opened: Vec<(u32, u64, Vec<u8>, Bytes)> = units
        .iter()
        .filter_map(|u| {
            let ctr = u.ctr?;
            let pt = e2e_open_with(&node[&u.src], u.src, ctr, &u.body).ok()?;
            Some((u.src, ctr, pt, u.body.clone()))
        })
        .collect();
    out.gate(opened.len() == units.len(), || {
        format!(
            "replay: {} of {} readings fail to open",
            units.len() - opened.len(),
            units.len()
        )
    });
    let passes = 5;
    let unwrap_ns = ns_per_op(&wrapped, passes, |(cid, nonce, sealed, at, _)| {
        unwrap_in(&cluster[cid], *cid, *nonce, sealed, *at, &cfg, &mut scratch).is_ok()
    });
    let wrap_ns = ns_per_op(&wrapped, passes, |(cid, nonce, _, at, u)| {
        wrap_frame(
            &cluster[cid],
            *cid,
            *cid,
            *nonce,
            *at,
            u.sender_hops,
            &u.inner,
        )
    });
    let ack_ns = ns_per_op(&wrapped, passes, |(cid, nonce, _, at, _)| {
        wrap_frame(
            &cluster[cid],
            *cid,
            0,
            *nonce,
            *at,
            0,
            &Inner::Ack { key: *nonce },
        )
    });
    let seal_ns = ns_per_op(&opened, passes, |(src, ctr, pt, _)| {
        e2e_seal_with(&node[src], *src, *ctr, pt)
    });
    let open_ns = ns_per_op(&opened, passes, |(src, ctr, _, c1)| {
        e2e_open_with(&node[src], *src, *ctr, c1)
    });
    let keys: Vec<Key128> = units
        .iter()
        .map(|u| provisioner.cluster_key_of(u.src))
        .collect();
    let sealer_ns = ns_per_op(&keys, passes, sealer);
    let prfs: Vec<PrfKey> = keys.iter().map(PrfKey::new).collect();
    let prf_ns = ns_per_op(&prfs, passes, |p| p.derive(&[0]));
    let raw: Vec<&[u8]> = sample.iter().map(|(_, f)| &f[..]).collect();
    let peek_ns = ns_per_op(&raw, passes, |f| Message::peek_wrapped(f).is_some());
    let decode_ns = ns_per_op(&raw, passes, |f| Message::decode(f));
    let frame_bytes = ratio(
        raw.iter().map(|f| f.len()).sum::<usize>() as f64,
        raw.len() as f64,
    );

    // ---- attribution of the closed loop, per reading ------------------------
    // Per reading: the client seals and wraps, the server unwraps, opens
    // and wraps the ACK, the client unwraps the ACK; four header peeks
    // (reader, dispatch, ACK routing, client); two datagrams each sent
    // and received once, costed at the client's measured syscalls.
    let crypto_ns = seal_ns + wrap_ns + 2.0 * unwrap_ns + open_ns + ack_ns;
    let codec_ns = 4.0 * peek_ns;
    let readings = r.accepted.max(1) as f64;
    let dispatch_sum: f64 = r.dispatch_ns.iter().sum();
    let bs_ns = ((dispatch_sum / frames.len().max(1) as f64)
        - (peek_ns + unwrap_ns + open_ns + ack_ns))
        .max(0.0)
        * ratio(frames.len() as f64, readings);
    let wal_ns =
        (r.append_ns.iter().sum::<f64>() + r.snapshot_ms.iter().sum::<f64>() * 1e6) / readings;
    let send_ns = median(&client.t.send_ns);
    let recv_ns = median(&client.t.recv_ns);
    let udp_ns = 2.0 * (send_ns + recv_ns);
    let cpu_ns = ratio(span_b.cpu_s * 1e9, acked_b as f64);
    let share = |ns: f64| ratio(ns, cpu_ns);
    let sent_frames = frames.len() as f64;
    let m = &mut out.metrics;
    crate::zero_layers(m, &["sim.", "shard.", "core.", "crypto.hello_"]);
    m.set("crypto.unwrap_ns", unwrap_ns);
    m.set("crypto.wrap_ns", wrap_ns);
    m.set("crypto.e2e_seal_ns", seal_ns);
    m.set("crypto.e2e_open_ns", open_ns);
    m.set("crypto.prf_derive_ns", prf_ns);
    m.set("crypto.sealer_build_ns", sealer_ns);
    m.set("crypto.ack_seal_ns", ack_ns);
    m.set("crypto.ops_per_op", 6.0);
    m.set("crypto.share", share(crypto_ns));
    m.set("codec.peek_ns", peek_ns);
    m.set("codec.decode_ns", decode_ns);
    m.set("codec.frame_bytes_mean", frame_bytes);
    m.set("codec.share", share(codec_ns));
    m.set("bs.dispatch_ns_p50", quantile(&r.dispatch_ns, 0.5));
    m.set("bs.dispatch_ns_p99", quantile(&r.dispatch_ns, 0.99));
    m.set("bs.duplicates", bs.duplicates as f64);
    m.set("bs.counter_rejects", bs.counter_rejects as f64);
    m.set("bs.share", share(bs_ns));
    m.set("wal.append_ns_p50", quantile(&r.append_ns, 0.5));
    m.set("wal.append_ns_p99", quantile(&r.append_ns, 0.99));
    m.set(
        "wal.appends_per_reading",
        ratio(t_live.wal_appends as f64, t_live.accepted as f64),
    );
    m.set("wal.bytes_per_reading", r.wal_bytes as f64 / readings);
    m.set("wal.snapshots", t_live.snapshots as f64);
    m.set(
        "wal.snapshot_ms_max",
        r.snapshot_ms.iter().copied().fold(0.0, f64::max),
    );
    m.set("wal.restore_ms", restore_ms);
    m.set("wal.replayed_records", replayed_records as f64);
    m.set("wal.share", share(wal_ns));
    m.set("udp.datagrams_rx", t_live.rx as f64);
    m.set(
        "udp.rx_loss_share",
        ratio(sent_frames - t_live.rx as f64, sent_frames),
    );
    m.set("udp.queue_full_drops", t_live.queue_full as f64);
    m.set(
        "udp.tx_per_reading",
        ratio(t_live.tx as f64, t_live.accepted as f64),
    );
    m.set("udp.client_send_ns", send_ns);
    m.set("udp.share", share(udp_ns));
    m.set("client.seal_ns", median(&client.t.seal_ns));
    m.set("client.generator_late_p99_ms", quantile(&late, 0.99));
    m.set("client.retransmits", client.t.retransmits as f64);
    m.set(
        "trace.overhead_share",
        ratio(slice_rate(&slices_b), slice_rate(&t_slices)) - 1.0,
    );
    m.set(
        "unattributed_share",
        1.0 - share(crypto_ns + codec_ns + bs_ns + wal_ns + udp_ns),
    );
    m.set(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
    );
    m.set("latency_samples", latency.len() as f64);
    out
}

/// A base station built the way the UDP server builds its shard.
fn fresh_bs(cfg: &ProtocolConfig, provisioner: &Provisioner, motes: usize) -> BaseStation {
    let ids = 0..=motes as u32;
    BaseStation::new(
        cfg.clone(),
        0,
        provisioner.km(),
        ids.clone()
            .map(|id| (id, provisioner.node_key(id)))
            .collect(),
        ids.map(|id| (id, provisioner.cluster_key_of(id))).collect(),
        provisioner.revocation_chain(),
    )
}

/// ACK implies flushed: copies the live WAL and snapshot, and counts the
/// motes whose highest ACKed counter the copy does not hold (as a
/// `CounterAccept` record or a snapshot window at or above it).
///
/// The log is copied first. The server renames a new snapshot into place
/// before it truncates the log, so a compaction between the two reads
/// leaves a snapshot at least as new as the log copy, never a gap.
fn ack_not_durable(dir: &Path, acked: &[Option<u64>]) -> u64 {
    let log = std::fs::read(dir.join("shard-0.wal")).unwrap_or_default();
    let snap = std::fs::read(dir.join("shard-0.snap")).unwrap_or_default();
    let mut durable: HashMap<u32, u64> = HashMap::new();
    let mut note = |src: u32, ctr: u64| {
        let e = durable.entry(src).or_insert(ctr);
        *e = (*e).max(ctr);
    };
    let mut snap_lsn = 0;
    if let Some((lsn, s)) = wal::decode_snapshot_file(&snap) {
        snap_lsn = lsn;
        for (src, last) in s.windows {
            if let Some(c) = last {
                note(src, c);
            }
        }
    }
    let (records, _) = wal::read_wal(&log);
    for (lsn, m) in records {
        if let (true, Some(StateMutation::CounterAccept { src, ctr })) = (lsn > snap_lsn, m) {
            note(src, ctr);
        }
    }
    acked
        .iter()
        .enumerate()
        .filter(|(pos, a)| {
            a.is_some_and(|c| durable.get(&(*pos as u32 + 1)).is_none_or(|d| *d < c))
        })
        .count() as u64
}
