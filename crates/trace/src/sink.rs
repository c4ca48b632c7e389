//! Where trace records go: the sink trait and its three stock
//! implementations.

use crate::event::TraceRecord;
use crate::NodeId;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Receives every [`TraceRecord`] a simulator emits.
///
/// `Send` is required so traced simulators can be moved into worker
/// threads by the parallel trial runner.
pub trait TraceSink: Send {
    /// Accepts one record. Called on the simulation hot path — cheap
    /// implementations matter.
    fn record(&mut self, rec: TraceRecord);

    /// Pushes any buffered output to its destination.
    fn flush(&mut self) {}

    /// Removes and returns every record the sink retained, in sequence
    /// order. Sinks that do not retain records return nothing.
    fn drain(&mut self) -> Vec<TraceRecord> {
        Vec::new()
    }
}

/// Discards everything.
///
/// Installing `NullSink` is observably equivalent to installing no sink
/// at all, though the simulator still builds and orders every record
/// for it. It exists so call sites can be written uniformly over a sink
/// value, and to measure what tracing costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: TraceRecord) {}
}

/// Retains records in per-node ring buffers.
///
/// Each node gets its own bounded buffer (oldest records evicted first),
/// so one chatty node cannot evict the history of a quiet one. With
/// capacity 0 the buffers are unbounded.
#[derive(Debug, Default)]
pub struct MemorySink {
    per_node: BTreeMap<NodeId, VecDeque<TraceRecord>>,
    cap_per_node: usize,
    evicted: u64,
}

impl MemorySink {
    /// An unbounded sink: keeps every record.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A sink keeping at most `cap` records per node (0 = unbounded).
    pub fn with_node_capacity(cap: usize) -> Self {
        MemorySink {
            cap_per_node: cap,
            ..MemorySink::default()
        }
    }

    /// Records retained for one node, oldest first.
    pub fn node(&self, id: NodeId) -> impl Iterator<Item = &TraceRecord> {
        self.per_node.get(&id).into_iter().flatten()
    }

    /// Total records currently retained.
    pub fn len(&self) -> usize {
        self.per_node.values().map(VecDeque::len).sum()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.per_node.values().all(VecDeque::is_empty)
    }

    /// How many records ring-buffer bounds have evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// All retained records merged into one stream, ordered by global
    /// sequence number (i.e. exactly the order they were emitted).
    pub fn chronological(&self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = self
            .per_node
            .values()
            .flat_map(|ring| ring.iter().cloned())
            .collect();
        all.sort_by_key(|r| r.seq);
        all
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: TraceRecord) {
        let ring = self.per_node.entry(rec.node).or_default();
        if self.cap_per_node > 0 && ring.len() == self.cap_per_node {
            ring.pop_front();
            self.evicted += 1;
        }
        ring.push_back(rec);
    }

    fn drain(&mut self) -> Vec<TraceRecord> {
        let out = self.chronological();
        self.per_node.clear();
        out
    }
}

/// Retains every record in a plain vector, in exactly the order it was
/// emitted.
///
/// This is the buffer each simulator region records into, with a
/// *per-node* sequence counter; [`merge_region_traces`] stitches the
/// region buffers into one globally ordered trace.
#[derive(Debug, Default)]
pub struct BufferSink {
    records: Vec<TraceRecord>,
}

impl BufferSink {
    /// An empty buffer.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// Records retained so far, in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The retained records, for a caller that reorders and drains them
    /// in place (keeping the buffer's capacity).
    pub fn records_mut(&mut self) -> &mut Vec<TraceRecord> {
        &mut self.records
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    fn drain(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Merges per-region trace streams, concatenated in any order, into one
/// deterministic global stream, in place.
///
/// Input records must carry **per-node** sequence numbers (each node
/// counts its own emissions). The merge sorts by
/// `(at, node, per-node seq)` and then reassigns `seq` as a global
/// counter over the merged order, starting at `first_seq`. Because every
/// record is attributed to exactly one node and a node lives in exactly
/// one region, this order is a pure function of the simulation's
/// behavior — **not** of how nodes were assigned to regions — which is
/// what makes traces byte-identical across `WSN_SHARDS` settings.
pub fn merge_region_traces(records: &mut [TraceRecord], first_seq: u64) {
    records.sort_unstable_by_key(|r| (r.at, r.node, r.seq));
    for (seq, rec) in (first_seq..).zip(records.iter_mut()) {
        rec.seq = seq;
    }
}

/// Streams records as JSON lines through a buffered writer.
///
/// Write errors do not panic the simulation: the sink stops writing and
/// reports the first error from [`JsonlSink::finish`].
pub struct JsonlSink {
    writer: BufWriter<Box<dyn Write + Send>>,
    written: u64,
    error: Option<io::Error>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("written", &self.written)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// A sink writing to any byte stream.
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        JsonlSink {
            writer: BufWriter::new(Box::new(writer)),
            written: 0,
            error: None,
        }
    }

    /// A sink writing to a freshly created (or truncated) file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(File::create(path)?))
    }

    /// Records successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and closes, returning how many records were written, or
    /// the first I/O error encountered.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.written)
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, rec: TraceRecord) {
        if self.error.is_some() {
            return;
        }
        let line = rec.to_json();
        if let Err(e) = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
        {
            self.error = Some(e);
        } else {
            self.written += 1;
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use std::sync::{Arc, Mutex};

    fn rec(seq: u64, node: NodeId) -> TraceRecord {
        TraceRecord {
            seq,
            at: seq * 10,
            node,
            event: TraceEvent::BecameHead,
        }
    }

    #[test]
    fn memory_sink_orders_across_nodes() {
        let mut sink = MemorySink::new();
        sink.record(rec(2, 9));
        sink.record(rec(0, 4));
        sink.record(rec(1, 9));
        let seqs: Vec<u64> = sink.chronological().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(sink.node(9).count(), 2);
        assert_eq!(sink.len(), 3);
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let mut sink = MemorySink::with_node_capacity(2);
        for seq in 0..5 {
            sink.record(rec(seq, 1));
        }
        let kept: Vec<u64> = sink.node(1).map(|r| r.seq).collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(sink.evicted(), 3);
    }

    #[test]
    fn drain_empties_the_sink() {
        let mut sink = MemorySink::new();
        sink.record(rec(0, 1));
        assert_eq!(sink.drain().len(), 1);
        assert!(sink.is_empty());
        assert_eq!(sink.drain().len(), 0);
    }

    #[test]
    fn buffer_sink_keeps_emission_order_and_drains() {
        let mut sink = BufferSink::new();
        sink.record(rec(1, 7));
        sink.record(rec(0, 3));
        let seqs: Vec<u64> = sink.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 0], "no reordering on record");
        assert_eq!(sink.drain().len(), 2);
        assert!(sink.records().is_empty());
    }

    /// Records carrying per-node seqs: node 1 emits at t=10 then t=20,
    /// node 2 emits twice at t=10.
    fn per_node_stream() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                seq: 0,
                at: 10,
                node: 1,
                event: TraceEvent::BecameHead,
            },
            TraceRecord {
                seq: 1,
                at: 20,
                node: 1,
                event: TraceEvent::BecameHead,
            },
            TraceRecord {
                seq: 0,
                at: 10,
                node: 2,
                event: TraceEvent::BecameHead,
            },
            TraceRecord {
                seq: 1,
                at: 10,
                node: 2,
                event: TraceEvent::BecameHead,
            },
        ]
    }

    #[test]
    fn shard_merge_is_partition_independent() {
        let mut merged_one = per_node_stream();
        // Partition A: both nodes in one region. Partition B: one each,
        // concatenated in the other order.
        merge_region_traces(&mut merged_one, 7);
        let (ones, twos): (Vec<_>, Vec<_>) =
            per_node_stream().into_iter().partition(|r| r.node == 1);
        let mut merged_two = [twos, ones].concat();
        merge_region_traces(&mut merged_two, 7);
        assert_eq!(merged_one, merged_two);
        // Global seq is reassigned densely over the merged order.
        let seqs: Vec<u64> = merged_one.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        // (at, node, per-node seq) order: t=10 node 1, t=10 node 2 (both),
        // then t=20 node 1.
        let nodes: Vec<NodeId> = merged_one.iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![1, 2, 2, 1]);
    }

    /// A Vec writer that is Send and lets the test read what was written.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(buf.clone());
        sink.record(rec(0, 3));
        sink.record(rec(1, 3));
        assert_eq!(sink.finish().unwrap(), 2);
        let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,"));
        assert!(lines[1].contains("\"kind\":\"became_head\""));
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors_at_finish() {
        let mut sink = JsonlSink::new(FailingWriter);
        // BufWriter buffers small writes; force it out.
        for seq in 0..10_000 {
            sink.record(rec(seq, 0));
        }
        assert!(sink.finish().is_err());
    }
}
