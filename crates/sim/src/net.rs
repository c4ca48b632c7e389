//! The discrete-event engine: one deployed network, its nodes split
//! among `k ≥ 1` spatial regions.
//!
//! # Why outputs do not depend on the region count
//!
//! Every observable value is a pure function of *per-node* state, so the
//! decomposition changes scheduling only:
//!
//! - **Per-node RNG streams.** Node `i` draws from
//!   `StdRng::seed_from_u64(derive_seed(seed, i))`, both in its app hooks
//!   ([`Ctx::rng`]) and for the channel loss of the frames it receives.
//! - **A decomposition-independent event key.** Every event carries an
//!   [`EventKey`] `(time, origin, per-origin counter, target)`. Each node
//!   consumes its events in ascending key order whichever region hosts
//!   it. Events scheduled from outside app hooks (timers, start hooks,
//!   injected frames) take their counter from the node they are
//!   attributed to.
//! - **Owner-local state.** A node's counters, timers, power state, clock
//!   drift and transmit queue live in the region that owns it: a frame is
//!   charged in its sender's region and received in its receiver's.
//! - **One trace order.** Records carry per-node sequence numbers; at the
//!   end of every run call the engine hands them to the installed sink
//!   merged by `(at, node, seq)` (see [`wsn_trace::merge_region_traces`]).
//!
//! With one region, [`Simulator::run`], [`Simulator::run_until`] and
//! [`Simulator::step`] are a plain heap loop. With more, every region runs
//! on its own thread and frames crossing a region border are exchanged
//! once per lookahead window (see [`crate::shard`]).
//! [`Simulator::merge_regions`] folds a quiescent engine into one region.

use crate::energy::EnergyMeter;
use crate::event::{Event, EventKey, EventKind, SimTime};
use crate::link::{IidLoss, LinkProcess};
use crate::node::{Action, App, Ctx, NodeId, TimerKey};
use crate::radio::RadioConfig;
use crate::rng::derive_seed;
use crate::shard::{assign_regions, run_windows};
use crate::topology::Topology;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use wsn_trace::{merge_region_traces, BufferSink, TraceEvent, TraceRecord, TraceSink};

/// Per-node and aggregate traffic counters — the raw material of Figures 8
/// and 9 (messages per node during key setup) and the energy comparisons.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Frames transmitted per node.
    pub tx_msgs: Vec<u64>,
    /// Frames received per node.
    pub rx_msgs: Vec<u64>,
    /// Bytes transmitted per node.
    pub tx_bytes: Vec<u64>,
    /// Bytes received per node.
    pub rx_bytes: Vec<u64>,
    /// Energy meters per node.
    pub energy: Vec<EnergyMeter>,
    /// Frames tail-dropped per node by a finite transmit queue (only ever
    /// non-zero when `RadioConfig::tx_queue_cap` is set).
    pub tx_drops: Vec<u64>,
}

impl Counters {
    pub(crate) fn new(n: usize) -> Self {
        let mut c = Counters::default();
        c.resize(n);
        c
    }

    fn resize(&mut self, n: usize) {
        self.tx_msgs.resize(n, 0);
        self.rx_msgs.resize(n, 0);
        self.tx_bytes.resize(n, 0);
        self.rx_bytes.resize(n, 0);
        self.energy.resize(n, EnergyMeter::default());
        self.tx_drops.resize(n, 0);
    }

    /// Copies node slot `from_idx` of `from` into slot `idx`.
    fn place(&mut self, idx: usize, from: &Counters, from_idx: usize) {
        self.tx_msgs[idx] = from.tx_msgs[from_idx];
        self.rx_msgs[idx] = from.rx_msgs[from_idx];
        self.tx_bytes[idx] = from.tx_bytes[from_idx];
        self.rx_bytes[idx] = from.rx_bytes[from_idx];
        self.energy[idx] = from.energy[from_idx];
        self.tx_drops[idx] = from.tx_drops[from_idx];
    }

    /// Total frames transmitted network-wide.
    pub fn total_tx_msgs(&self) -> u64 {
        self.tx_msgs.iter().sum()
    }

    /// Mean frames transmitted per node.
    pub fn mean_tx_per_node(&self) -> f64 {
        self.total_tx_msgs() as f64 / self.tx_msgs.len() as f64
    }

    /// Total radio energy, microjoules.
    pub fn total_energy_uj(&self) -> f64 {
        self.energy.iter().map(|e| e.total_uj()).sum()
    }

    /// Total frames tail-dropped network-wide by finite transmit queues.
    pub fn total_tx_drops(&self) -> u64 {
        self.tx_drops.iter().sum()
    }
}

/// Everything mutable about one node besides its app and counters.
struct NodeState {
    rng: StdRng,
    /// Event-creation counter; also the node's timer arming generation.
    ctr: u64,
    /// Sequence number of the node's next trace record.
    trace_seq: u64,
    /// Powered off: no deliveries, timer fires or start hook.
    down: bool,
    /// Clock-rate multiplier applied to timer delays at arming time.
    drift: f64,
    /// Finish times of the frames awaiting or on the air; used only when
    /// the radio models contention or a finite TX queue.
    tx_queue: VecDeque<SimTime>,
}

/// Read-only context every region reads while it processes events.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) radio: &'a RadioConfig,
    /// Region of each node; empty with one region.
    pub(crate) region_of: &'a [u32],
    /// Index of each node within its region; empty with one region.
    pub(crate) local_of: &'a [u32],
    /// Per-node partition side labels, if a partition is in force.
    pub(crate) partition: Option<&'a [u8]>,
    /// The region processing events.
    pub(crate) me: usize,
}

impl Env<'_> {
    #[inline]
    fn local(&self, id: NodeId) -> usize {
        if self.local_of.is_empty() {
            id as usize
        } else {
            self.local_of[id as usize] as usize
        }
    }

    #[inline]
    fn region(&self, id: NodeId) -> usize {
        if self.region_of.is_empty() {
            0
        } else {
            self.region_of[id as usize] as usize
        }
    }

    /// Whether a partition cuts the link `from → to`. Ids without a label
    /// (synthetic adversary senders) are never cut.
    #[inline]
    fn cuts(&self, from: NodeId, to: NodeId) -> bool {
        self.partition.is_some_and(|sides| {
            match (sides.get(from as usize), sides.get(to as usize)) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            }
        })
    }
}

/// One region: the nodes it owns, everything mutable about them, and the
/// heap of events they consume. Per-node vectors are indexed by the
/// node's index within the region (its id when there is one region).
pub(crate) struct Region<A> {
    /// Global ids of owned nodes, ascending.
    nodes: Vec<NodeId>,
    apps: Vec<A>,
    state: Vec<NodeState>,
    counters: Counters,
    /// Number of owned nodes that are powered off.
    n_down: usize,
    pub(crate) heap: BinaryHeap<Event>,
    /// Latest armed generation per (node, timer key); stale timer events
    /// are dropped when popped.
    timers: HashMap<(NodeId, TimerKey), u64>,
    /// The channel loss model, drawing from the receiver's stream.
    link: Box<dyn LinkProcess>,
    /// Trace records not yet handed to the sink; `Some` iff tracing.
    trace: Option<BufferSink>,
    scratch: Vec<Action>,
    /// Time of the latest event processed here.
    now: SimTime,
    events: u64,
}

impl<A: App> Region<A> {
    fn new(radio: &RadioConfig, heap_capacity: usize) -> Self {
        Region {
            nodes: Vec::new(),
            apps: Vec::new(),
            state: Vec::new(),
            counters: Counters::default(),
            n_down: 0,
            heap: BinaryHeap::with_capacity(heap_capacity),
            timers: HashMap::new(),
            link: Box::new(IidLoss { loss: radio.loss }),
            trace: None,
            scratch: Vec::with_capacity(8),
            now: 0,
            events: 0,
        }
    }

    /// Adopts node `id` running `app`; its start hook fires at `at`.
    fn add_node(&mut self, id: NodeId, app: A, seed: u64, at: SimTime) {
        self.nodes.push(id);
        self.apps.push(app);
        self.state.push(NodeState {
            rng: StdRng::seed_from_u64(derive_seed(seed, id as u64)),
            // Counter 0 is consumed by the Start event below.
            ctr: 1,
            trace_seq: 0,
            down: false,
            drift: 1.0,
            tx_queue: VecDeque::new(),
        });
        self.counters.resize(self.nodes.len());
        self.heap.push(Event {
            key: EventKey {
                at,
                origin: id,
                ctr: 0,
                target: id,
            },
            kind: EventKind::Start(id),
        });
    }

    fn next_ctr(&mut self, li: usize) -> u64 {
        let st = &mut self.state[li];
        st.ctr += 1;
        st.ctr - 1
    }

    #[inline]
    fn is_down(&self, li: usize) -> bool {
        self.n_down != 0 && self.state[li].down
    }

    /// Records an event for node `node` (index `li`) at time `at`,
    /// constructing it only when tracing.
    #[inline]
    fn trace(&mut self, li: usize, node: NodeId, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = self.trace.as_mut() {
            let st = &mut self.state[li];
            buf.record(TraceRecord {
                seq: st.trace_seq,
                at,
                node,
                event: make(),
            });
            st.trace_seq += 1;
        }
    }

    /// Processes every queued event with `key.at < end`. Deliveries to
    /// nodes of other regions go to `out`, one batch per region.
    pub(crate) fn process_until(&mut self, end: SimTime, env: &Env, out: &mut [Vec<Event>]) {
        while self.heap.peek().is_some_and(|ev| ev.key.at < end) {
            let ev = self.heap.pop().expect("peeked event vanished");
            self.process(ev, env, out);
        }
    }

    fn process(&mut self, ev: Event, env: &Env, out: &mut [Vec<Event>]) {
        self.now = ev.key.at;
        self.events += 1;
        match ev.kind {
            EventKind::Start(id) => {
                let li = env.local(id);
                if !self.is_down(li) {
                    self.dispatch(id, li, env, out, |app, ctx| app.on_start(ctx));
                }
            }
            EventKind::Timer { node, key, gen } => {
                let li = env.local(node);
                if !self.is_down(li) && self.timers.get(&(node, key)) == Some(&gen) {
                    self.timers.remove(&(node, key));
                    self.trace(li, node, self.now, || TraceEvent::TimerFired { key });
                    self.dispatch(node, li, env, out, |app, ctx| app.on_timer(ctx, key));
                }
            }
            EventKind::Deliver { from, to, payload } => {
                let li = env.local(to);
                // A powered-off receiver hears nothing — not even a drop.
                if self.is_down(li) {
                    return;
                }
                // Frames crossing a partition cut never arrive; the rest
                // face the link process, drawing from the receiver's
                // stream.
                if env.cuts(from, to)
                    || self.link.should_drop(
                        from,
                        to,
                        payload.len(),
                        self.now,
                        &mut self.state[li].rng,
                    )
                {
                    self.trace(li, to, self.now, || TraceEvent::RadioDrop {
                        from,
                        bytes: payload.len() as u32,
                    });
                    return;
                }
                self.counters.rx_msgs[li] += 1;
                self.counters.rx_bytes[li] += payload.len() as u64;
                self.counters.energy[li].record_rx(payload.len(), env.radio);
                self.trace(li, to, self.now, || TraceEvent::Rx {
                    from,
                    payload: payload.clone(),
                });
                self.dispatch(to, li, env, out, |app, ctx| {
                    app.on_message(ctx, from, &payload)
                });
            }
        }
    }

    fn dispatch(
        &mut self,
        id: NodeId,
        li: usize,
        env: &Env,
        out: &mut [Vec<Event>],
        f: impl FnOnce(&mut A, &mut Ctx),
    ) {
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let st = &mut self.state[li];
            let mut ctx = Ctx {
                id,
                now: self.now,
                rng: &mut st.rng,
                actions: &mut actions,
                sink: self
                    .trace
                    .as_mut()
                    .map(|s| s as &mut (dyn TraceSink + 'static)),
                trace_seq: &mut st.trace_seq,
            };
            f(&mut self.apps[li], &mut ctx);
        }
        for action in actions.drain(..) {
            self.apply(id, li, env, out, action);
        }
        self.scratch = actions;
    }

    /// Decides when a frame of `bytes` leaves node `li`'s radio, or `None`
    /// if its finite TX queue tail-drops it. With contention, a frame's
    /// airtime starts after the node's previous frame has finished.
    fn tx_admit(&mut self, li: usize, radio: &RadioConfig, bytes: usize) -> Option<SimTime> {
        // The multi-region lookahead window is one byte of airtime; an
        // empty frame would land inside it.
        assert!(bytes > 0, "radio frames must be non-empty");
        let now = self.now;
        if !radio.contention && radio.tx_queue_cap.is_none() {
            return Some(now + radio.airtime_us(bytes));
        }
        let q = &mut self.state[li].tx_queue;
        while q.front().is_some_and(|&finish| finish <= now) {
            q.pop_front();
        }
        if radio.tx_queue_cap.is_some_and(|cap| q.len() >= cap) {
            self.counters.tx_drops[li] += 1;
            return None;
        }
        let start = if radio.contention {
            q.back().copied().unwrap_or(now).max(now)
        } else {
            now
        };
        let finish = start + radio.airtime_us(bytes);
        q.push_back(finish);
        Some(finish)
    }

    fn charge_tx(&mut self, li: usize, radio: &RadioConfig, bytes: usize) {
        self.counters.tx_msgs[li] += 1;
        self.counters.tx_bytes[li] += bytes as u64;
        self.counters.energy[li].record_tx(bytes, radio);
    }

    /// Queues a delivery from node `li` to `to` at `at` in the
    /// receiver's region.
    fn deliver(
        &mut self,
        li: usize,
        to: NodeId,
        at: SimTime,
        payload: Bytes,
        env: &Env,
        out: &mut [Vec<Event>],
    ) {
        let from = self.nodes[li];
        let ev = Event {
            key: EventKey {
                at,
                origin: from,
                ctr: self.next_ctr(li),
                target: to,
            },
            kind: EventKind::Deliver { from, to, payload },
        };
        let dest = env.region(to);
        if dest == env.me {
            self.heap.push(ev);
        } else {
            out[dest].push(ev);
        }
    }

    /// Arms timer `key` of node `id`, `delay` nominal µs after `now`.
    fn arm_timer(&mut self, id: NodeId, li: usize, key: TimerKey, now: SimTime, delay: SimTime) {
        let drift = self.state[li].drift;
        // Exact-1.0 fast path keeps undrifted nodes free of float
        // round-off entirely.
        let delay = if drift == 1.0 {
            delay
        } else {
            (delay as f64 * drift).round() as SimTime
        };
        let fire_at = now + delay;
        // The creation counter doubles as the arming generation.
        let gen = self.next_ctr(li);
        self.timers.insert((id, key), gen);
        self.trace(li, id, now, || TraceEvent::TimerSet { key, fire_at });
        self.heap.push(Event {
            key: EventKey {
                at: fire_at,
                origin: id,
                ctr: gen,
                target: id,
            },
            kind: EventKind::Timer { node: id, key, gen },
        });
    }

    fn apply(&mut self, id: NodeId, li: usize, env: &Env, out: &mut [Vec<Event>], action: Action) {
        match action {
            Action::Broadcast(payload) => {
                let Some(at) = self.tx_admit(li, env.radio, payload.len()) else {
                    return;
                };
                self.charge_tx(li, env.radio, payload.len());
                // Gated lookup: the degree read only happens when a sink
                // will actually see the event.
                if self.trace.is_some() {
                    let neighbors = env.topo.degree(id) as u32;
                    self.trace(li, id, self.now, || TraceEvent::TxBroadcast {
                        payload: payload.clone(),
                        neighbors,
                    });
                }
                for &to in env.topo.neighbors(id) {
                    self.deliver(li, to, at, payload.clone(), env, out);
                }
            }
            Action::Send(to, payload) => {
                let Some(at) = self.tx_admit(li, env.radio, payload.len()) else {
                    return;
                };
                self.charge_tx(li, env.radio, payload.len());
                self.trace(li, id, self.now, || TraceEvent::TxUnicast {
                    to,
                    payload: payload.clone(),
                });
                // Addressed frame: delivered only to `to`, and only if in
                // range.
                if env.topo.neighbors(id).binary_search(&to).is_ok() {
                    self.deliver(li, to, at, payload, env, out);
                }
            }
            Action::SetTimer(key, delay) => self.arm_timer(id, li, key, self.now, delay),
            Action::CancelTimer(key) => {
                if self.timers.remove(&(id, key)).is_some() {
                    self.trace(li, id, self.now, || TraceEvent::TimerCanceled { key });
                }
            }
        }
    }
}

/// A discrete-event simulation of one deployed network running app `A` on
/// every node. See the [module docs](self) for the region model.
pub struct Simulator<A: App> {
    topo: Topology,
    radio: RadioConfig,
    seed: u64,
    /// Region of each node; empty with one region.
    region_of: Vec<u32>,
    /// Index of each node within its region; empty with one region.
    local_of: Vec<u32>,
    regions: Vec<Region<A>>,
    /// Partition in force: per-node side labels. Frames whose endpoints
    /// carry different labels are cut.
    partition: Option<Vec<u8>>,
    now: SimTime,
    /// Optional trace sink. `None` costs one branch per potential event;
    /// trace payloads are reference-counted so recording is cheap too.
    sink: Option<Box<dyn TraceSink>>,
    /// Global sequence number of the next record handed to the sink.
    trace_seq: u64,
}

impl<A: App> Simulator<A> {
    /// Builds a one-region simulator over `topo`, constructing each
    /// node's app with `make_app`, with seed 0 and the default radio.
    pub fn new(topo: Topology, make_app: impl FnMut(NodeId) -> A) -> Self {
        Self::with_config(topo, RadioConfig::default(), 0, make_app)
    }

    /// A one-region simulator with an explicit radio and seed.
    pub fn with_config(
        topo: Topology,
        radio: RadioConfig,
        seed: u64,
        make_app: impl FnMut(NodeId) -> A,
    ) -> Self {
        Self::with_regions(topo, radio, seed, 1, make_app)
    }

    /// A simulator whose nodes are split among `regions` grid cells of the
    /// deployment area, each run on its own thread by [`Self::run`].
    /// Outputs are identical for every region count. `make_app` is called
    /// in ascending id order.
    pub fn with_regions(
        topo: Topology,
        radio: RadioConfig,
        seed: u64,
        regions: usize,
        mut make_app: impl FnMut(NodeId) -> A,
    ) -> Self {
        assert!(regions >= 1, "need at least one region");
        let n = topo.n();
        let (region_of, heap_capacity) = if regions == 1 {
            // Pre-size the heap for the broadcast fan-out one node's
            // actions enqueue, so the steady state never grows it.
            (Vec::new(), n * 4)
        } else {
            (assign_regions(&topo, regions), 0)
        };
        let mut parts: Vec<Region<A>> = (0..regions)
            .map(|_| Region::new(&radio, heap_capacity))
            .collect();
        let mut local_of = Vec::new();
        for id in 0..n as NodeId {
            let r = region_of.get(id as usize).map_or(0, |&r| r as usize);
            if regions > 1 {
                local_of.push(parts[r].nodes.len() as u32);
            }
            parts[r].add_node(id, make_app(id), seed, 0);
        }
        Simulator {
            topo,
            radio,
            seed,
            region_of,
            local_of,
            regions: parts,
            partition: None,
            now: 0,
            sink: None,
            trace_seq: 0,
        }
    }

    /// The region owning `id` and the node's index within it.
    fn locate(&self, id: NodeId) -> (usize, usize) {
        if self.region_of.is_empty() {
            (0, id as usize)
        } else {
            (
                self.region_of[id as usize] as usize,
                self.local_of[id as usize] as usize,
            )
        }
    }

    fn node_mut(&mut self, id: NodeId) -> (&mut Region<A>, usize) {
        let (r, li) = self.locate(id);
        (&mut self.regions[r], li)
    }

    /// The one region, for accessors that need node-id order.
    fn single(&self, what: &str) -> &Region<A> {
        assert!(
            self.regions.len() == 1,
            "{what} needs one region: call merge_regions() first"
        );
        &self.regions[0]
    }

    /// Folds every region into one, so the engine runs single-threaded
    /// from here on. The heaps must be empty (run to quiescence first),
    /// so this only re-lays the per-node state out in node-id order;
    /// nothing observable changes.
    pub fn merge_regions(&mut self) {
        if self.regions.len() == 1 {
            return;
        }
        assert!(
            self.regions.iter().all(|r| r.heap.is_empty()),
            "merge_regions() needs a quiescent engine"
        );
        self.flush_trace();
        let n = self.topo.n();
        // Heap sized like a one-region engine's.
        let mut merged = Region::new(&self.radio, n * 4);
        merged.trace = self.sink.is_some().then(BufferSink::new);
        merged.counters = Counters::new(n);
        let mut apps: Vec<Option<A>> = (0..n).map(|_| None).collect();
        let mut state: Vec<Option<NodeState>> = (0..n).map(|_| None).collect();
        for r in self.regions.drain(..) {
            for (li, ((id, app), st)) in r.nodes.into_iter().zip(r.apps).zip(r.state).enumerate() {
                apps[id as usize] = Some(app);
                state[id as usize] = Some(st);
                merged.counters.place(id as usize, &r.counters, li);
            }
            merged.timers.extend(r.timers);
            merged.n_down += r.n_down;
            merged.events += r.events;
            merged.now = merged.now.max(r.now);
        }
        let owned = "every node owned by exactly one region";
        merged.nodes = (0..n as NodeId).collect();
        merged.apps = apps.into_iter().map(|a| a.expect(owned)).collect();
        merged.state = state.into_iter().map(|s| s.expect(owned)).collect();
        self.regions.push(merged);
        self.region_of = Vec::new();
        self.local_of = Vec::new();
    }

    /// Installs a trace sink; every subsequent simulator and protocol
    /// event is recorded into it. Replaces any previous sink.
    pub fn install_trace(&mut self, sink: impl TraceSink + 'static) {
        self.install_trace_boxed(Box::new(sink));
    }

    /// [`Self::install_trace`] for an already-boxed sink, so builders can
    /// hold `Box<dyn TraceSink>` without double-boxing on install.
    pub fn install_trace_boxed(&mut self, sink: Box<dyn TraceSink>) {
        self.flush_trace();
        self.sink = Some(sink);
        for r in &mut self.regions {
            r.trace.get_or_insert_with(BufferSink::new);
        }
    }

    /// Removes and returns the installed sink (flushed), leaving the
    /// simulator untraced. The sequence counter is preserved, so a sink
    /// installed later continues the same total order.
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.flush_trace();
        for r in &mut self.regions {
            r.trace = None;
        }
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
        sink
    }

    /// Hands every buffered record to the sink in the merged order.
    fn flush_trace(&mut self) {
        let Some(sink) = self.sink.as_deref_mut() else {
            return;
        };
        let mut buffers = self
            .regions
            .iter_mut()
            .filter_map(|r| r.trace.as_mut().map(BufferSink::records_mut));
        let Some(first) = buffers.next() else {
            return;
        };
        for other in buffers {
            first.append(other);
        }
        emit(sink, &mut self.trace_seq, first);
    }

    /// Records a protocol-layer event on behalf of `node` at the current
    /// virtual time. Used by experiment drivers that act outside app
    /// hooks (e.g. a driver-initiated key refresh); apps inside hooks use
    /// [`Ctx::trace`] instead.
    pub fn trace_record(&mut self, node: NodeId, event: TraceEvent) {
        self.trace_with(node, || event);
    }

    /// Records an event, constructing it only if a sink is installed —
    /// the zero-overhead-when-disabled path.
    #[inline]
    fn trace_with(&mut self, node: NodeId, make: impl FnOnce() -> TraceEvent) {
        if self.sink.is_some() {
            let now = self.now;
            let (region, li) = self.node_mut(node);
            region.trace(li, node, now, make);
        }
    }

    /// The deployed topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters so far. Needs one region.
    pub fn counters(&self) -> &Counters {
        &self.single("counters()").counters
    }

    /// All node apps (indexable by `NodeId`). Needs one region.
    pub fn apps(&self) -> &[A] {
        &self.single("apps()").apps
    }

    /// Mutable access to one node's app (for post-phase reconfiguration,
    /// e.g. the base station issuing a command between phases).
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        let (region, li) = self.node_mut(id);
        &mut region.apps[li]
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.regions.iter().map(|r| r.events).sum()
    }

    /// Queues `ev` in its target's region.
    fn push(&mut self, ev: Event) {
        let (r, _) = self.locate(ev.key.target);
        self.regions[r].heap.push(ev);
    }

    fn next_ctr(&mut self, id: NodeId) -> u64 {
        let (region, li) = self.node_mut(id);
        region.next_ctr(li)
    }

    /// Injects a frame delivered to every node within radio range of
    /// node position `origin`, `delay` µs from now, appearing to come from
    /// `claimed_from`. This is the adversary's entry point (HELLO floods,
    /// replays): the attacker is *not* a simulated node and pays no cost.
    /// The deliveries are attributed to `origin`.
    pub fn inject_broadcast_at(
        &mut self,
        origin: NodeId,
        claimed_from: NodeId,
        delay: SimTime,
        payload: impl Into<Bytes>,
    ) {
        let payload: Bytes = payload.into();
        let at = self.now + delay + self.radio.airtime_us(payload.len());
        // Deliver to origin's neighborhood *and* origin itself: the
        // adversary transmits from origin's position.
        let mut targets: Vec<NodeId> = self.topo.neighbors(origin).to_vec();
        targets.push(origin);
        let neighbors = targets.len() as u32;
        self.trace_with(origin, || TraceEvent::Injected {
            payload: payload.clone(),
            neighbors,
        });
        for to in targets {
            let ctr = self.next_ctr(origin);
            self.push(Event {
                key: EventKey {
                    at,
                    origin,
                    ctr,
                    target: to,
                },
                kind: EventKind::Deliver {
                    from: claimed_from,
                    to,
                    payload: payload.clone(),
                },
            });
        }
    }

    /// Schedules a timer for `node` from outside the app hooks (used by
    /// experiment drivers to kick off later phases).
    pub fn schedule_timer(&mut self, node: NodeId, key: TimerKey, delay: SimTime) {
        let now = self.now;
        let (region, li) = self.node_mut(node);
        region.arm_timer(node, li, key, now, delay);
    }

    /// Queues a fresh `Start` event for `id`, `delay` µs from now, so a
    /// rebooted node's `on_start` hook runs again.
    pub fn schedule_start(&mut self, id: NodeId, delay: SimTime) {
        let ctr = self.next_ctr(id);
        self.push(Event {
            key: EventKey {
                at: self.now + delay,
                origin: id,
                ctr,
                target: id,
            },
            kind: EventKind::Start(id),
        });
    }

    /// Processes one event. Returns false when the queue is empty. Needs
    /// one region.
    pub fn step(&mut self) -> bool {
        self.single("step()");
        let (env, regions, ..) = self.split();
        let Some(ev) = regions[0].heap.pop() else {
            return false;
        };
        regions[0].process(ev, &env, &mut []);
        self.finish_run();
        true
    }

    /// The read-only event-processing context, the regions, the sink and
    /// the global trace counter, borrowed apart.
    fn split(
        &mut self,
    ) -> (
        Env<'_>,
        &mut [Region<A>],
        Option<&mut (dyn TraceSink + 'static)>,
        &mut u64,
    ) {
        let env = Env {
            topo: &self.topo,
            radio: &self.radio,
            region_of: &self.region_of,
            local_of: &self.local_of,
            partition: self.partition.as_deref(),
            me: 0,
        };
        let sink = self.sink.as_deref_mut();
        (env, &mut self.regions, sink, &mut self.trace_seq)
    }

    /// Catches the clock up with the regions and flushes the trace.
    fn finish_run(&mut self) {
        self.now = self
            .regions
            .iter()
            .map(|r| r.now)
            .fold(self.now, SimTime::max);
        self.flush_trace();
    }

    /// Adds nodes to a one-region engine: `topo` must extend the current
    /// topology with the new nodes' positions, and `apps` holds their
    /// apps in id order. Each new node draws from its own seeded stream
    /// and starts now; nothing about the existing nodes changes.
    pub fn add_nodes(&mut self, topo: Topology, apps: Vec<A>) {
        self.single("add_nodes()");
        let first = self.topo.n();
        assert_eq!(topo.n(), first + apps.len(), "one app per added node");
        let (seed, now) = (self.seed, self.now);
        for (i, app) in apps.into_iter().enumerate() {
            self.regions[0].add_node((first + i) as NodeId, app, seed, now);
        }
        self.topo = topo;
    }

    // ---- fault-injection surface -------------------------------------
    //
    // Everything below exists for fault engines (wsn-chaos). With none of
    // it used — no down nodes, no drift, no partition, default link — the
    // hot path pays one `n_down == 0` compare, one drift compare and one
    // `Option` branch.

    /// Replaces the channel loss model. The default reproduces
    /// `RadioConfig::loss` exactly; see [`crate::link`]. Needs one
    /// region: a link process is state shared by every receiver.
    pub fn set_link_process(&mut self, link: impl LinkProcess + 'static) {
        self.single("set_link_process()");
        self.regions[0].link = Box::new(link);
    }

    /// Whether `id` is currently powered on. Ids outside the topology
    /// (synthetic adversary senders) count as up.
    pub fn node_is_up(&self, id: NodeId) -> bool {
        if id as usize >= self.topo.n() {
            return true;
        }
        let (r, li) = self.locate(id);
        !self.regions[r].is_down(li)
    }

    /// Powers node `id` off: pending and future deliveries, timers and
    /// start hooks are silently discarded, and its armed timers are
    /// forgotten (a crashed node loses its timer wheel). App state is
    /// left in place — wiping or retaining it is the caller's decision.
    /// Idempotent. Emits a `NodeDown` trace event on the transition.
    pub fn set_node_down(&mut self, id: NodeId) {
        if id as usize >= self.topo.n() || !self.node_is_up(id) {
            return;
        }
        let (region, li) = self.node_mut(id);
        region.state[li].down = true;
        region.n_down += 1;
        region.timers.retain(|&(node, _), _| node != id);
        self.trace_with(id, || TraceEvent::NodeDown);
    }

    /// Powers node `id` back on. The app's hooks run again only once new
    /// events reach it — pair with [`Self::schedule_start`] (and
    /// [`Self::replace_app`] for a state-wiped reboot) to re-enter the
    /// network. Idempotent. Emits a `NodeUp` trace event on transition.
    pub fn set_node_up(&mut self, id: NodeId) {
        if self.node_is_up(id) {
            return;
        }
        let (region, li) = self.node_mut(id);
        region.state[li].down = false;
        region.n_down -= 1;
        self.trace_with(id, || TraceEvent::NodeUp);
    }

    /// Swaps in a fresh app for `id`, returning the old one. Used for
    /// state-wiped reboots: the replacement starts from its constructor
    /// state, as real firmware does after a power cycle.
    pub fn replace_app(&mut self, id: NodeId, app: A) -> A {
        std::mem::replace(self.app_mut(id), app)
    }

    /// Sets node `id`'s clock-rate multiplier: every timer delay it arms
    /// from now on is scaled by `factor` (1.0 = nominal, 1.05 = a clock
    /// running 5% slow so timers fire late). Models oscillator drift; the
    /// paper's election timers are the sensitive consumers.
    pub fn set_clock_drift(&mut self, id: NodeId, factor: f64) {
        assert!(factor > 0.0, "drift factor must be positive");
        if (id as usize) < self.topo.n() {
            let (region, li) = self.node_mut(id);
            region.state[li].drift = factor;
        }
    }

    /// Imposes a partition: `sides[i]` labels node `i`'s side, and frames
    /// whose endpoints carry different labels are cut. Senders without a
    /// label (synthetic adversary ids) are unaffected. Returns the number
    /// of topology links cut and emits a `PartitionStart` trace event.
    /// Replaces any partition already in force.
    pub fn set_partition(&mut self, sides: Vec<u8>) -> u32 {
        let mut links_cut = 0u32;
        for a in 0..self.topo.n() as NodeId {
            for &b in self.topo.neighbors(a) {
                if a < b {
                    if let (Some(x), Some(y)) = (sides.get(a as usize), sides.get(b as usize)) {
                        if x != y {
                            links_cut += 1;
                        }
                    }
                }
            }
        }
        self.partition = Some(sides);
        self.trace_with(0, || TraceEvent::PartitionStart { links_cut });
        links_cut
    }

    /// Heals the partition, if one is in force. Emits `PartitionHeal`.
    pub fn clear_partition(&mut self) {
        if self.partition.take().is_some() {
            self.trace_with(0, || TraceEvent::PartitionHeal);
        }
    }
}

impl<A: App + Send> Simulator<A> {
    /// Runs until every event queue drains. Returns the final virtual
    /// time.
    pub fn run(&mut self) -> SimTime {
        self.process_before(SimTime::MAX);
        self.now
    }

    /// Runs every event scheduled at or before `deadline`, then advances
    /// the clock to `deadline` (pending later events stay queued).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.process_before(deadline.saturating_add(1));
        self.now = self.now.max(deadline);
        self.now
    }

    /// Processes every event with a fire time before `end`: a plain heap
    /// loop with one region, the windowed parallel loop with more.
    fn process_before(&mut self, end: SimTime) {
        let (env, regions, sink, trace_seq) = self.split();
        match (regions, sink) {
            ([region], None) => region.process_until(end, &env, &mut []),
            // Traced: hand each instant's records over once it is
            // complete, so the buffer stays small.
            ([region], Some(sink)) => {
                while let Some(t) = region.heap.peek().map(|e| e.key.at).filter(|&t| t < end) {
                    region.process_until(t + 1, &env, &mut []);
                    let records = region
                        .trace
                        .as_mut()
                        .expect("traced regions buffer")
                        .records_mut();
                    emit(sink, trace_seq, records);
                }
            }
            (regions, _) => run_windows(regions, env, end),
        }
        self.finish_run();
    }
}

/// Hands `records` to `sink` merged by `(at, node, per-node seq)` and
/// numbered from `*next_seq`, leaving the vector empty.
fn emit(sink: &mut dyn TraceSink, next_seq: &mut u64, records: &mut Vec<TraceRecord>) {
    merge_region_traces(records, *next_seq);
    *next_seq += records.len() as u64;
    for rec in records.drain(..) {
        sink.record(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    /// Counts receptions; node 0 broadcasts once at start.
    struct Echo {
        heard: usize,
    }

    impl App for Echo {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id() == 0 {
                ctx.broadcast(vec![1, 2, 3]);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, payload: &[u8]) {
            assert_eq!(payload, &[1, 2, 3]);
            self.heard += 1;
        }
    }

    fn echo(_: NodeId) -> Echo {
        Echo { heard: 0 }
    }

    fn small_topo(seed: u64) -> Topology {
        Topology::random(&TopologyConfig::with_density(50, 10.0), seed)
    }

    #[test]
    fn broadcast_reaches_exactly_neighbors() {
        let topo = small_topo(1);
        let deg0 = topo.degree(0);
        let mut sim = Simulator::new(topo, echo);
        sim.run();
        let heard: usize = sim.apps().iter().map(|a| a.heard).sum();
        assert_eq!(heard, deg0);
        assert_eq!(sim.counters().total_tx_msgs(), 1);
        assert_eq!(sim.counters().tx_msgs[0], 1);
    }

    #[test]
    fn counters_track_bytes_and_energy() {
        let mut sim = Simulator::new(small_topo(2), echo);
        sim.run();
        assert_eq!(sim.counters().tx_bytes[0], 3);
        assert!(sim.counters().energy[0].tx_uj > 0.0);
        let rx_total: u64 = sim.counters().rx_msgs.iter().sum();
        assert_eq!(rx_total as usize, sim.topology().degree(0));
    }

    struct TimerApp {
        fired: Vec<TimerKey>,
    }
    impl App for TimerApp {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(1, 100);
            ctx.set_timer(2, 50);
            ctx.set_timer(3, 75);
            ctx.cancel_timer(3);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, key: TimerKey) {
            self.fired.push(key);
        }
    }

    #[test]
    fn run_until_advances_clock_and_preserves_later_events() {
        let mut sim = Simulator::new(small_topo(12), |_| TimerApp { fired: vec![] });
        // Timers at 50 and 100 exist (key 2 and key 1). Stop at 70.
        sim.run_until(70);
        assert_eq!(sim.now(), 70, "clock must advance to the deadline");
        assert!(sim.apps().iter().all(|a| a.fired == vec![2]));
        // The 100 µs timer is still pending and fires on resume.
        sim.run();
        assert!(sim.apps().iter().all(|a| a.fired == vec![2, 1]));
        // A deadline in the past does not rewind the clock.
        assert_eq!(sim.run_until(5), 100);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let cfg = TopologyConfig {
            n: 2,
            side: 10.0,
            radius: 1.0,
            wrap: false,
        };
        let topo = Topology::from_positions(
            cfg,
            vec![
                crate::geom::Point::new(1.0, 1.0),
                crate::geom::Point::new(9.0, 9.0),
            ],
        );
        let mut sim = Simulator::new(topo, |_| TimerApp { fired: vec![] });
        while sim.step() {}
        assert_eq!(sim.apps()[0].fired, vec![2, 1]);
        assert_eq!(sim.now(), 100);
    }

    struct RearmApp {
        fired: usize,
    }
    impl App for RearmApp {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(7, 100);
            // Re-arm the same key: only the second instance may fire.
            ctx.set_timer(7, 200);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
            assert_eq!(key, 7);
            assert_eq!(ctx.now(), 200);
            self.fired += 1;
        }
    }

    #[test]
    fn rearming_supersedes() {
        let mut sim = Simulator::new(small_topo(3), |_| RearmApp { fired: 0 });
        sim.run();
        for app in sim.apps() {
            assert_eq!(app.fired, 1);
        }
    }

    #[test]
    fn unicast_only_reaches_target_in_range() {
        struct Uni {
            heard: usize,
        }
        impl App for Uni {
            fn on_start(&mut self, ctx: &mut Ctx) {
                if ctx.id() == 0 {
                    ctx.send(1, vec![9]); // in range
                    ctx.send(2, vec![9]); // out of range: charged, not delivered
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, _p: &[u8]) {
                self.heard += 1;
            }
        }
        // Line topology: 0-1 adjacent; 0-2 not.
        let cfg = TopologyConfig {
            n: 3,
            side: 100.0,
            radius: 1.5,
            wrap: false,
        };
        let topo = Topology::from_positions(
            cfg,
            vec![
                crate::geom::Point::new(1.0, 1.0),
                crate::geom::Point::new(2.0, 1.0),
                crate::geom::Point::new(50.0, 50.0),
            ],
        );
        let mut sim = Simulator::new(topo, |_| Uni { heard: 0 });
        sim.run();
        assert_eq!(sim.apps()[1].heard, 1);
        assert_eq!(sim.apps()[2].heard, 0);
        // Both sends were charged even though one was undeliverable.
        assert_eq!(sim.counters().tx_msgs[0], 2);
    }

    #[test]
    fn injected_broadcast_delivers_with_fake_sender() {
        struct Sink {
            from: Vec<NodeId>,
        }
        impl App for Sink {
            fn on_message(&mut self, _ctx: &mut Ctx, from: NodeId, _p: &[u8]) {
                self.from.push(from);
            }
        }
        let victim_neighbors = small_topo(4).degree(5);
        for k in [1, 4] {
            let mut sim =
                Simulator::with_regions(small_topo(4), RadioConfig::default(), 0, k, |_| Sink {
                    from: vec![],
                });
            sim.inject_broadcast_at(5, 0xDEAD, 10, vec![1]);
            sim.run();
            sim.merge_regions();
            let heard: usize = sim.apps().iter().map(|a| a.from.len()).sum();
            assert_eq!(heard, victim_neighbors + 1); // neighborhood + node 5 itself
            assert!(sim
                .apps()
                .iter()
                .flat_map(|a| a.from.iter())
                .all(|&f| f == 0xDEAD));
            // The attacker pays nothing.
            assert_eq!(sim.counters().total_tx_msgs(), 0);
        }
    }

    #[test]
    fn lossy_radio_drops_frames() {
        let topo = small_topo(6);
        let deg0 = topo.degree(0);
        assert!(deg0 >= 5, "need a reasonably connected node for this test");
        let radio = RadioConfig::default().with_loss(0.99);
        let mut sim = Simulator::with_config(topo, radio, 42, echo);
        sim.run();
        let heard: usize = sim.apps().iter().map(|a| a.heard).sum();
        assert!(heard < deg0, "99% loss should drop something");
    }

    /// Node 0 fires a burst of broadcasts in one dispatch.
    struct Burst {
        n: usize,
        heard: usize,
        rx_at: Vec<SimTime>,
    }
    impl App for Burst {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id() == 0 {
                for _ in 0..self.n {
                    ctx.broadcast(vec![0u8; 4]);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, _p: &[u8]) {
            self.heard += 1;
            self.rx_at.push(ctx.now());
        }
    }

    fn burst_app(n: usize) -> Burst {
        Burst {
            n,
            heard: 0,
            rx_at: vec![],
        }
    }

    #[test]
    fn finite_tx_queue_tail_drops_and_flooder_pays() {
        let radio = RadioConfig::default().with_tx_queue(3).with_contention();
        let mut sim = Simulator::with_config(small_topo(8), radio, 0, |_| burst_app(10));
        sim.run();
        // Only the queue's worth of frames made it onto the air; the rest
        // were tail-dropped and charged to the flooder alone.
        assert_eq!(sim.counters().tx_msgs[0], 3);
        assert_eq!(sim.counters().tx_drops[0], 7);
        assert_eq!(sim.counters().total_tx_drops(), 7);
    }

    #[test]
    fn contention_serializes_airtime() {
        let airtime = RadioConfig::default().airtime_us(4);
        // Idealized radio: both frames of a burst land simultaneously.
        let mut sim = Simulator::new(small_topo(8), |_| burst_app(2));
        sim.run();
        let ideal: Vec<SimTime> = sim.apps()[1].rx_at.clone();
        assert!(ideal.windows(2).all(|w| w[0] == w[1]));
        // Contention: the second frame waits out the first one's airtime.
        let radio = RadioConfig::default().with_contention();
        let mut sim = Simulator::with_config(small_topo(8), radio, 0, |_| burst_app(2));
        sim.run();
        for app in sim.apps().iter().filter(|a| !a.rx_at.is_empty()) {
            assert_eq!(app.rx_at.len(), 2);
            assert_eq!(app.rx_at[1] - app.rx_at[0], airtime);
        }
        assert_eq!(sim.counters().total_tx_drops(), 0);
    }

    #[test]
    fn added_nodes_start_and_join_the_radio_graph() {
        let topo = small_topo(2);
        let mut positions: Vec<_> = (0..50).map(|i| topo.position(i)).collect();
        let mut sim = Simulator::new(topo, echo);
        sim.run();
        let before = sim.counters().total_tx_msgs();
        positions.push(positions[0]);
        let cfg = TopologyConfig {
            n: 51,
            ..sim.topology().config().clone()
        };
        sim.add_nodes(Topology::from_positions(cfg, positions), vec![echo(50)]);
        assert!(sim.topology().neighbors(50).contains(&0));
        sim.run();
        // The joiner's start hook ran (node 50 ≠ 0, so it stays silent),
        // and earlier counters carried over.
        assert_eq!(sim.counters().total_tx_msgs(), before);
        assert_eq!(sim.counters().tx_msgs.len(), 51);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let radio = RadioConfig::default().with_loss(0.3);
            let mut sim = Simulator::with_config(small_topo(7), radio, 9, echo);
            sim.run();
            (
                sim.apps().iter().map(|a| a.heard).collect::<Vec<_>>(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "merge_regions")]
    fn node_order_accessors_need_one_region() {
        let mut sim = Simulator::with_regions(small_topo(1), RadioConfig::default(), 0, 2, echo);
        sim.run();
        let _ = sim.apps();
    }
}
