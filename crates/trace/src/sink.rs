//! The ordered sink: one I/O thread behind a bounded channel that
//! hands items to an encoder in campaign-index order, whatever order
//! workers finish them in. The write-ahead journal and the trace file
//! are both written through it, each as a [`SinkEncoder`].
//!
//! **Hot path.** A worker sends one message and returns; encoding,
//! ordering and file writes all run on the sink thread, and no worker
//! takes a sink lock. A worker stalls only when the channel is full,
//! and that wait is measured ([`OrderedSink::wait_ns`]).
//!
//! **Ordering.** Items are held in a reorder buffer keyed by index and
//! handed over strictly in index order, followed by one
//! [`SinkEncoder::drained`] call per contiguous run. Control messages
//! reach the encoder in arrival order; the channel is FIFO, so one sent
//! from a single-threaded section lands after every item sent before it.
//!
//! **Shutdown.** [`OrderedSink::finish`] joins the thread once it has
//! drained every queued message and hands the encoder back. Dropping
//! the sink unfinished (a campaign unwinding on a worker panic) closes
//! the channel: the thread drains what arrived and drops the encoder,
//! which flushes. A hard kill can lose what still sat in the channel,
//! the tail loss journal replay and trace readers already tolerate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

/// Bounded channel capacity, in messages: caps the completed but
/// unwritten work a sink holds, with enough slack that workers never
/// block on a healthy I/O thread.
const SINK_CHANNEL_CAPACITY: usize = 1024;

/// What an [`OrderedSink`] writes through. Every call runs on the sink
/// thread.
pub trait SinkEncoder: Send + 'static {
    /// An indexed unit of work (a probe, a domain block).
    type Item: Send + 'static;
    /// An unindexed message that travels in arrival order.
    type Control: Send + 'static;

    /// Called for each item, strictly in index order.
    fn item(&mut self, index: u64, item: Self::Item);

    /// Called for each control message in arrival order; `next` is the
    /// first index not yet handed to [`item`](SinkEncoder::item).
    fn control(&mut self, msg: Self::Control, next: u64);

    /// Called once after each contiguous run of items, with the new
    /// `next`.
    fn drained(&mut self, _next: u64) {}
}

enum Msg<I, C> {
    Item(u64, I),
    Control(C),
    /// Drain and hand the encoder back; not counted in the depth.
    Finish,
}

/// Queue gauges, shared by the senders and the sink thread.
#[derive(Default)]
struct Gauges {
    /// Messages sent but not yet received.
    depth: AtomicU64,
    /// High-water mark of `depth`.
    hwm: AtomicU64,
    /// Nanoseconds senders spent blocked on a full channel.
    wait_ns: AtomicU64,
}

/// A send-only, lock-free handle to one ordered sink thread.
pub struct OrderedSink<E: SinkEncoder> {
    tx: SyncSender<Msg<E::Item, E::Control>>,
    /// Joined by [`finish`](OrderedSink::finish) to reclaim the encoder.
    io: Mutex<Option<JoinHandle<E>>>,
    gauges: Arc<Gauges>,
}

impl<E: SinkEncoder> OrderedSink<E> {
    /// Spawns the sink thread `name` around `encoder`; `next` is the
    /// first index the reorder buffer waits for (the resume point).
    ///
    /// # Panics
    ///
    /// Panics if the thread cannot be spawned.
    pub fn spawn(name: &str, mut encoder: E, mut next: u64) -> Self {
        let (tx, rx) = sync_channel::<Msg<E::Item, E::Control>>(SINK_CHANNEL_CAPACITY);
        let gauges = Arc::new(Gauges::default());
        let shared = Arc::clone(&gauges);
        let io = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let mut pending = BTreeMap::new();
                // A closed channel drains what arrived, like `Finish`.
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Item(index, item) => {
                            shared.depth.fetch_sub(1, Ordering::Relaxed);
                            pending.insert(index, item);
                            drain(&mut encoder, &mut pending, &mut next);
                        }
                        Msg::Control(msg) => {
                            shared.depth.fetch_sub(1, Ordering::Relaxed);
                            encoder.control(msg, next);
                        }
                        Msg::Finish => break,
                    }
                }
                drain(&mut encoder, &mut pending, &mut next);
                encoder
            })
            .expect("spawn sink thread");
        OrderedSink { tx, io: Mutex::new(Some(io)), gauges }
    }

    /// Enqueues one message, measuring any backpressure wait.
    fn send(&self, msg: Msg<E::Item, E::Control>) {
        // Count before sending: the thread decrements on receipt, and
        // counting after delivery would let the decrement land first
        // and underflow the gauge.
        let depth = self.gauges.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.gauges.hwm.fetch_max(depth, Ordering::Relaxed);
        match self.tx.try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                let start = Instant::now();
                self.tx.send(msg).expect("sink thread died");
                let waited = start.elapsed().as_nanos() as u64;
                self.gauges.wait_ns.fetch_add(waited, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => panic!("sink thread died"),
        }
    }

    /// Submits the item at campaign index `index`.
    pub fn item(&self, index: u64, item: E::Item) {
        self.send(Msg::Item(index, item));
    }

    /// Submits a control message.
    pub fn control(&self, msg: E::Control) {
        self.send(Msg::Control(msg));
    }

    /// Nanoseconds senders spent blocked on backpressure; zero means no
    /// worker ever waited on this sink.
    pub fn wait_ns(&self) -> u64 {
        self.gauges.wait_ns.load(Ordering::Relaxed)
    }

    /// High-water mark of the queue depth, in messages.
    pub fn queue_high_water(&self) -> u64 {
        self.gauges.hwm.load(Ordering::Relaxed)
    }

    /// Joins the sink thread once it has drained every queued message,
    /// and hands the encoder back.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if the sink thread panicked.
    pub fn finish(&self) -> E {
        let io = self.io.lock().take().expect("sink finished twice");
        // FIFO: everything sent before `Finish` is processed first.
        self.tx.send(Msg::Finish).expect("sink thread died");
        io.join().expect("sink thread panicked")
    }
}

/// Hands every arrived item from `next` on to the encoder, in index
/// order, then reports the run if there was one.
fn drain<E: SinkEncoder>(encoder: &mut E, pending: &mut BTreeMap<u64, E::Item>, next: &mut u64) {
    let start = *next;
    while let Some(item) = pending.remove(next) {
        encoder.item(*next, item);
        *next += 1;
    }
    if *next > start {
        encoder.drained(*next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every call it receives, and reports them when dropped.
    #[derive(Default)]
    struct Log {
        calls: Vec<String>,
        on_drop: Option<std::sync::mpsc::Sender<Vec<String>>>,
    }

    impl SinkEncoder for Log {
        type Item = &'static str;
        type Control = &'static str;

        fn item(&mut self, index: u64, item: &'static str) {
            self.calls.push(format!("item {index} {item}"));
        }

        fn control(&mut self, msg: &'static str, next: u64) {
            self.calls.push(format!("control {msg} @{next}"));
        }

        fn drained(&mut self, next: u64) {
            self.calls.push(format!("drained @{next}"));
        }
    }

    impl Drop for Log {
        fn drop(&mut self) {
            if let Some(tx) = self.on_drop.take() {
                let _ = tx.send(std::mem::take(&mut self.calls));
            }
        }
    }

    fn calls(sink: OrderedSink<Log>) -> Vec<String> {
        std::mem::take(&mut sink.finish().calls)
    }

    #[test]
    fn out_of_order_items_are_encoded_in_index_order() {
        let sink = OrderedSink::spawn("test-sink", Log::default(), 3);
        for (index, item) in [(5, "c"), (3, "a"), (6, "d"), (4, "b")] {
            sink.item(index, item);
        }
        let items: Vec<String> =
            calls(sink).into_iter().filter(|c| c.starts_with("item")).collect();
        assert_eq!(items, ["item 3 a", "item 4 b", "item 5 c", "item 6 d"]);
    }

    #[test]
    fn control_messages_stay_fifo_behind_a_held_item() {
        let sink = OrderedSink::spawn("test-sink", Log::default(), 0);
        sink.item(1, "held");
        sink.control("first");
        sink.control("second");
        sink.item(0, "gap");
        sink.control("third");
        assert_eq!(
            calls(sink),
            [
                "control first @0",
                "control second @0",
                "item 0 gap",
                "item 1 held",
                "drained @2",
                "control third @2",
            ]
        );
    }

    #[test]
    fn drained_runs_once_per_contiguous_run() {
        let sink = OrderedSink::spawn("test-sink", Log::default(), 0);
        sink.item(2, "c");
        sink.item(1, "b");
        sink.item(0, "a"); // releases 0..3 as one run
        sink.item(3, "d"); // a run of one
        sink.item(5, "f"); // still waiting for 4: no run
        assert_eq!(
            calls(sink),
            ["item 0 a", "item 1 b", "item 2 c", "drained @3", "item 3 d", "drained @4"]
        );
    }

    #[test]
    fn gauges_settle_and_never_wait_within_the_channel_bound() {
        let sink = OrderedSink::spawn("test-sink", Log::default(), 0);
        // Never more messages than slots: a send cannot find the
        // channel full, whatever the thread is doing.
        for index in (0..SINK_CHANNEL_CAPACITY as u64).rev() {
            sink.item(index, "x");
        }
        assert!(sink.queue_high_water() >= 1);
        let encoded = sink.finish().calls.len();
        assert_eq!(encoded, SINK_CHANNEL_CAPACITY + 1, "every item plus one drained run");
        assert_eq!(sink.gauges.depth.load(Ordering::Relaxed), 0, "depth gauge must settle");
        assert_eq!(sink.wait_ns(), 0);
        assert!(sink.queue_high_water() <= SINK_CHANNEL_CAPACITY as u64);
    }

    #[test]
    fn dropping_an_unfinished_sink_still_drains_what_arrived() {
        let (tx, rx) = std::sync::mpsc::channel();
        let sink = OrderedSink::spawn("test-sink", Log { calls: Vec::new(), on_drop: Some(tx) }, 0);
        sink.item(1, "b");
        sink.control("mark");
        sink.item(0, "a");
        drop(sink);
        assert_eq!(
            rx.recv().expect("the sink thread drops the encoder once the channel closes"),
            ["control mark @0", "item 0 a", "item 1 b", "drained @2"]
        );
    }
}
