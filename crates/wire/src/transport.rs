//! Datagram transports: a deterministic in-memory hub and real UDP.
//!
//! The endpoints in this crate ([`crate::ServeLoop`], [`crate::WireReceiver`],
//! the load generator) speak to the network only through the [`Transport`]
//! trait — unreliable, unordered-capable datagram I/O addressed by
//! [`SocketAddr`]. Two backends exist:
//!
//! * [`MemHub`] / [`MemTransport`] — a process-local hub of per-endpoint
//!   queues. Delivery is instantaneous and lossless in FIFO order, sends to
//!   unregistered addresses vanish (like UDP to a closed port), and nothing
//!   depends on wall time — paired with a
//!   [`ManualClock`](pels_netsim::clock::ManualClock) it makes live-agent
//!   runs bit-reproducible in tests.
//! * [`UdpTransport`] — a non-blocking [`std::net::UdpSocket`] whose batch
//!   hooks are `recvmmsg`/`sendmmsg` where the socket allows
//!   ([`crate::batch`]), used by `pels serve`, `pels loadgen` and `pels
//!   live` over loopback (and by any real deployment).

#[cfg(target_os = "linux")]
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One datagram paired with a peer address: the destination for
/// [`Transport::send_batch`], the origin after [`Transport::recv_batch`].
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Payload bytes. On receive, the slot's length is the capacity
    /// offered to the backend and is truncated to the datagram's length;
    /// restore it (see [`Datagram::reset`]) before reusing the slot.
    pub buf: Vec<u8>,
    /// Peer address: where to send, or where a received datagram came from.
    pub addr: SocketAddr,
}

impl Datagram {
    /// A zeroed receive slot offering `capacity` bytes, addressed at a
    /// placeholder peer until a receive overwrites it.
    pub fn slot(capacity: usize) -> Self {
        Datagram { buf: vec![0u8; capacity], addr: SocketAddr::from(([0, 0, 0, 0], 0)) }
    }

    /// Restores the buffer to `len` writable bytes for the next receive.
    ///
    /// Only bytes grown beyond the current length are zeroed: the prefix
    /// may keep stale bytes from the previous datagram, which every
    /// backend overwrites before reporting a fill. (A `clear()` +
    /// full-length `resize` here memsets the slot's whole capacity on
    /// every ring pass — at `pels serve` rates that was gigabytes per
    /// second of hidden zeroing.)
    pub fn reset(&mut self, len: usize) {
        self.buf.resize(len, 0);
    }
}

/// Coalescing cap: consecutive departures to one destination are packed
/// back-to-back into container datagrams of at most this many bytes before
/// hitting the socket. Wire packets are self-delimiting (see
/// [`packet_len`](crate::codec::packet_len)), so receivers split containers
/// without framing bytes. The value is the classic maximum UDP payload on
/// Ethernet (1500-byte MTU − 20 IP − 8 UDP), which fits three 478-byte data
/// packets per container at the default 400-byte payload. Loopback would
/// tolerate far larger datagrams, but the point is a throughput number
/// that transfers to real NICs, where anything past the MTU fragments.
///
/// Coalescing is the lever that actually moves datagrams/s on this path:
/// on a kernel without mitigation overhead, syscall *entry* is nearly free
/// and the ~1 µs per datagram is loopback stack traversal, paid per
/// datagram whether it was submitted via `sendmmsg` or `sendto`. Packing
/// ~3 wire packets per container divides that per-datagram cost by ~3;
/// `sendmmsg` alone only shaves the (cheap) entry.
pub(crate) const AGGREGATE_BYTES: usize = 1472;

/// The one container builder: wire packets on their way to the next
/// [`Transport::send_batch`], each written once, straight into the
/// container datagram it leaves in.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    /// Containers awaiting the next flush, in departure order.
    queued: Vec<Datagram>,
    /// Wire packets inside them.
    packets: usize,
    /// Sent buffers kept for reuse: never more than the largest flush held.
    spare: Vec<Vec<u8>>,
    containers_sent: u64,
    batches_sent: u64,
}

impl Outbox {
    /// Queues one wire packet of `len` bytes for `addr`, encoded by `write`
    /// (which must append exactly `len` bytes): into the tail container
    /// while that shares the destination and stays within
    /// [`AGGREGATE_BYTES`], into a new one otherwise.
    pub(crate) fn push(&mut self, len: usize, addr: SocketAddr, write: impl FnOnce(&mut Vec<u8>)) {
        self.packets += 1;
        if let Some(tail) = self.queued.last_mut() {
            if tail.addr == addr && tail.buf.len() + len <= AGGREGATE_BYTES {
                return write(&mut tail.buf);
            }
        }
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        write(&mut buf);
        self.queued.push(Datagram { buf, addr });
    }

    /// Wire packets queued since the last flush.
    pub(crate) fn packets(&self) -> usize {
        self.packets
    }

    /// Containers queued since the last flush.
    pub(crate) fn containers(&self) -> usize {
        self.queued.len()
    }

    /// Containers handed to the transport so far.
    pub(crate) fn containers_sent(&self) -> u64 {
        self.containers_sent
    }

    /// Non-empty flushes so far: one [`Transport::send_batch`] each.
    pub(crate) fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Sends everything queued in one batch and keeps the buffers.
    ///
    /// # Errors
    ///
    /// Propagates the transport's hard failures; the queue is emptied
    /// either way.
    pub(crate) fn flush<T: Transport>(&mut self, transport: &T) -> io::Result<()> {
        if self.queued.is_empty() {
            return Ok(());
        }
        self.containers_sent += self.queued.len() as u64;
        self.batches_sent += 1;
        self.packets = 0;
        let sent = transport.send_batch(&self.queued);
        self.spare.extend(self.queued.drain(..).map(|d| d.buf));
        sent
    }
}

/// Unreliable datagram I/O, addressed by socket address.
///
/// `try_recv` never blocks: agents are `poll`-driven state machines and a
/// quiet network must not stall the control loops (pacing, feedback ticks,
/// staleness watchdogs all run on the clock, not on packet arrival).
pub trait Transport {
    /// The address peers should send to to reach this endpoint.
    fn local_addr(&self) -> SocketAddr;

    /// Sends one datagram to `to`. Like UDP, delivery is not guaranteed.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors; an unreachable destination is *not*
    /// an error (the datagram is silently lost).
    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<()>;

    /// Receives one datagram into `buf` if one is ready, returning its
    /// length and origin. Returns `Ok(None)` when nothing is pending.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors other than "would block".
    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>>;

    /// Sends every datagram in `batch`, in order.
    ///
    /// The default implementation loops over [`Transport::send_to`], so
    /// every backend — including middleware like [`crate::FaultTransport`]
    /// and the deterministic [`MemHub`] — composes with batch-aware
    /// callers with *identical* semantics to one call per datagram.
    /// [`UdpTransport`], which has real vectored syscalls, overrides it.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors; per-datagram loss is not an error.
    fn send_batch(&self, batch: &[Datagram]) -> io::Result<()> {
        send_each(self, batch)
    }

    /// Receives up to `batch.len()` datagrams, filling slots from the
    /// front. Each slot's `buf` length is the receive capacity offered;
    /// filled slots come back truncated to the datagram length with the
    /// origin in `addr`. Returns how many slots were filled; fewer than
    /// `batch.len()` means the backend ran dry.
    ///
    /// The default implementation loops over [`Transport::try_recv`] with
    /// the same semantics as one call per datagram.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors other than "would block".
    fn recv_batch(&self, batch: &mut [Datagram]) -> io::Result<usize> {
        recv_each(self, batch)
    }
}

/// [`Transport::send_batch`]'s default: one [`Transport::send_to`] each.
fn send_each<T: Transport + ?Sized>(t: &T, batch: &[Datagram]) -> io::Result<()> {
    for d in batch {
        t.send_to(&d.buf, d.addr)?;
    }
    Ok(())
}

/// [`Transport::recv_batch`]'s default: [`Transport::try_recv`] into each
/// slot until the backend runs dry.
fn recv_each<T: Transport + ?Sized>(t: &T, batch: &mut [Datagram]) -> io::Result<usize> {
    let mut filled = 0;
    for slot in batch.iter_mut() {
        match t.try_recv(&mut slot.buf)? {
            Some((n, from)) => {
                slot.buf.truncate(n);
                slot.addr = from;
                filled += 1;
            }
            None => break,
        }
    }
    Ok(filled)
}

type Queues = HashMap<SocketAddr, VecDeque<(SocketAddr, Vec<u8>)>>;

/// A shared in-memory datagram switch. Clone it (cheap, `Arc` inside) and
/// create one [`MemTransport`] per endpoint.
///
/// # Examples
///
/// ```
/// use pels_wire::transport::{MemHub, Transport};
///
/// let hub = MemHub::new();
/// let a = hub.endpoint("127.0.0.1:9001".parse().unwrap());
/// let b = hub.endpoint("127.0.0.1:9002".parse().unwrap());
/// a.send_to(b"hello", b.local_addr()).unwrap();
/// let mut buf = [0u8; 64];
/// let (n, from) = b.try_recv(&mut buf).unwrap().unwrap();
/// assert_eq!(&buf[..n], b"hello");
/// assert_eq!(from, a.local_addr());
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemHub {
    queues: Arc<Mutex<Queues>>,
    dropped: Arc<AtomicU64>,
    truncated: Arc<AtomicU64>,
    /// Recycled datagram buffers: `try_recv` returns each delivered
    /// buffer here and `send_to` refills from it, so steady-state
    /// traffic allocates nothing per datagram.
    pool: Arc<Mutex<Vec<Vec<u8>>>>,
}

/// Cap on pooled buffers; beyond this, returned buffers are just dropped.
const POOL_LIMIT: usize = 4096;

impl MemHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `addr` and returns its endpoint handle. Re-registering an
    /// address clears its pending queue.
    pub fn endpoint(&self, addr: SocketAddr) -> MemTransport {
        self.queues.lock().expect("hub lock").insert(addr, VecDeque::new());
        MemTransport { hub: self.clone(), addr }
    }

    /// Datagrams sent to addresses with no registered endpoint.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Datagrams clipped because a receiver's buffer was smaller than the
    /// datagram — each one reached the codec as a counted, detectable
    /// truncation instead of a silent mystery.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }
}

/// One endpoint of a [`MemHub`].
#[derive(Debug, Clone)]
pub struct MemTransport {
    hub: MemHub,
    addr: SocketAddr,
}

impl Transport for MemTransport {
    fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<()> {
        let mut datagram = self.hub.pool.lock().expect("pool lock").pop().unwrap_or_default();
        datagram.clear();
        datagram.extend_from_slice(buf);
        let mut queues = self.hub.queues.lock().expect("hub lock");
        match queues.get_mut(&to) {
            Some(q) => q.push_back((self.addr, datagram)),
            None => {
                self.hub.dropped.fetch_add(1, Ordering::Relaxed);
                drop(queues);
                let mut pool = self.hub.pool.lock().expect("pool lock");
                if pool.len() < POOL_LIMIT {
                    pool.push(datagram);
                }
            }
        }
        Ok(())
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        let (from, datagram) = {
            let mut queues = self.hub.queues.lock().expect("hub lock");
            let Some(q) = queues.get_mut(&self.addr) else { return Ok(None) };
            let Some(entry) = q.pop_front() else { return Ok(None) };
            entry
        };
        // Like recvfrom: a too-small buffer truncates the datagram — but
        // unlike recvfrom, the clip is counted so a missized receive
        // buffer shows up in stats instead of as unexplained decode
        // rejects downstream.
        let n = datagram.len().min(buf.len());
        if datagram.len() > buf.len() {
            self.hub.truncated.fetch_add(1, Ordering::Relaxed);
        }
        buf[..n].copy_from_slice(&datagram[..n]);
        let mut pool = self.hub.pool.lock().expect("pool lock");
        if pool.len() < POOL_LIMIT {
            pool.push(datagram);
        }
        Ok(Some((n, from)))
    }
}

/// A non-blocking UDP socket.
///
/// Single-owner by design: the `recvmmsg`/`sendmmsg` scratch vectors live
/// in a `RefCell`, so the handle is `Send` but not `Sync` — exactly the
/// shape of the event loops in this crate, which each own one socket.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    addr: SocketAddr,
    /// Sends the socket swallowed (full buffer, refused peer) — the UDP
    /// analogue of [`MemHub::dropped`].
    send_drops: Arc<AtomicU64>,
    #[cfg(target_os = "linux")]
    scratch: RefCell<crate::batch::sys::Scratch>,
}

impl UdpTransport {
    /// Binds `addr` (use port 0 for an ephemeral port) in non-blocking
    /// mode.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(addr: SocketAddr) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        Ok(UdpTransport {
            socket,
            addr,
            send_drops: Arc::new(AtomicU64::new(0)),
            #[cfg(target_os = "linux")]
            scratch: RefCell::default(),
        })
    }

    /// Shared handle to the swallowed-send counter; clone before moving
    /// the transport into an agent.
    pub fn send_drops_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.send_drops)
    }

    /// Sends swallowed so far — `WouldBlock`/refused sends on either path
    /// plus `sendmmsg` short-writes.
    pub fn send_drops(&self) -> u64 {
        self.send_drops.load(Ordering::Relaxed)
    }

    /// Counts one swallowed send — `sendmmsg` partial completions land in
    /// the same ledger.
    pub(crate) fn count_send_drop(&self) {
        self.send_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Best-effort request to grow the socket's kernel receive and send
    /// buffers to `bytes` each (the OS clamps the request; no-op off
    /// Linux). The ~208 KiB Linux default holds only a couple hundred
    /// queued datagrams — about 2 ms of traffic at `pels serve` rates — so
    /// a control burst from a thousand-flow peer sheds HELLOs/ACKs in the
    /// kernel before userspace ever sees them.
    pub fn expand_buffers(&self, bytes: usize) {
        crate::batch::expand_socket_buffers(&self.socket, bytes);
    }

    /// The underlying socket, for the raw-fd syscalls of [`crate::batch`].
    pub(crate) fn socket(&self) -> &UdpSocket {
        &self.socket
    }
}

impl Transport for UdpTransport {
    fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<()> {
        match self.socket.send_to(buf, to) {
            Ok(_) => Ok(()),
            // A full socket buffer drops the datagram — UDP semantics, not
            // an error the pacing loop should die on. Counted, so bursts
            // the kernel swallowed are visible in stats.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.count_send_drop();
                Ok(())
            }
            // Loopback can surface a peer's closed port as ECONNREFUSED on
            // the *next* send; the peer being gone is still just loss.
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                self.count_send_drop();
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        match self.socket.recv_from(buf) {
            Ok((n, from)) => Ok(Some((n, from))),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(None),
            Err(e) => Err(e),
        }
    }

    // `batch::sys` speaks `sockaddr_in` only, so it takes the batches of an
    // IPv4 socket (whose peers are all IPv4) bound for IPv4 destinations;
    // everything else goes one datagram at a time.

    fn send_batch(&self, batch: &[Datagram]) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        if self.addr.is_ipv4() && batch.iter().all(|d| d.addr.is_ipv4()) {
            return crate::batch::sys::send_batch(self, &mut self.scratch.borrow_mut(), batch);
        }
        send_each(self, batch)
    }

    fn recv_batch(&self, batch: &mut [Datagram]) -> io::Result<usize> {
        #[cfg(target_os = "linux")]
        if self.addr.is_ipv4() {
            return crate::batch::sys::recv_batch(self, &mut self.scratch.borrow_mut(), batch);
        }
        recv_each(self, batch)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Polls `ready` until it returns `true` or `timeout` elapses, sleeping
    /// `interval` between attempts. Returns whether `ready` succeeded.
    ///
    /// This is the deadline-based wait the UDP tests use instead of fixed
    /// retry counts: the deadline is wall-clock, so a slow machine gets the
    /// full timeout rather than `N × interval` worth of scheduler luck.
    pub(crate) fn wait_for(
        timeout: Duration,
        interval: Duration,
        mut ready: impl FnMut() -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if ready() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(interval);
        }
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn mem_hub_delivers_fifo_per_endpoint() {
        let hub = MemHub::new();
        let a = hub.endpoint(addr(1));
        let b = hub.endpoint(addr(2));
        a.send_to(b"one", b.local_addr()).unwrap();
        a.send_to(b"two", b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(b.try_recv(&mut buf).unwrap().unwrap().0, 3);
        assert_eq!(&buf[..3], b"one");
        assert_eq!(b.try_recv(&mut buf).unwrap().unwrap().0, 3);
        assert_eq!(&buf[..3], b"two");
        assert!(b.try_recv(&mut buf).unwrap().is_none());
        // a's own queue is untouched.
        assert!(a.try_recv(&mut buf).unwrap().is_none());
    }

    #[test]
    fn mem_hub_drops_to_unregistered_addresses() {
        let hub = MemHub::new();
        let a = hub.endpoint(addr(1));
        a.send_to(b"void", addr(99)).unwrap();
        assert_eq!(hub.dropped(), 1);
    }

    #[test]
    fn mem_hub_truncates_into_small_buffers_and_counts_it() {
        let hub = MemHub::new();
        let a = hub.endpoint(addr(1));
        let b = hub.endpoint(addr(2));
        a.send_to(&[7u8; 100], b.local_addr()).unwrap();
        let mut buf = [0u8; 10];
        let (n, _) = b.try_recv(&mut buf).unwrap().unwrap();
        assert_eq!(n, 10);
        assert_eq!(hub.truncated(), 1);
        // An exact-fit receive is not a truncation.
        a.send_to(&[7u8; 10], b.local_addr()).unwrap();
        b.try_recv(&mut buf).unwrap().unwrap();
        assert_eq!(hub.truncated(), 1);
    }

    #[test]
    fn default_batch_methods_match_per_datagram_semantics() {
        let hub = MemHub::new();
        let a = hub.endpoint(addr(1));
        let b = hub.endpoint(addr(2));
        let batch: Vec<Datagram> = (0u8..3)
            .map(|i| Datagram { buf: vec![i; (i as usize + 1) * 10], addr: b.local_addr() })
            .collect();
        a.send_batch(&batch).unwrap();
        // A 4-slot receive ring drains all three in order and reports 3.
        let mut ring: Vec<Datagram> = (0..4).map(|_| Datagram::slot(64)).collect();
        let got = b.recv_batch(&mut ring).unwrap();
        assert_eq!(got, 3);
        for (i, slot) in ring.iter().take(got).enumerate() {
            assert_eq!(slot.buf, vec![i as u8; (i + 1) * 10]);
            assert_eq!(slot.addr, a.local_addr());
        }
        // Slots truncate like `try_recv` into a small buffer, counted.
        a.send_to(&[9u8; 100], b.local_addr()).unwrap();
        let mut small = [Datagram::slot(10)];
        assert_eq!(b.recv_batch(&mut small).unwrap(), 1);
        assert_eq!(small[0].buf.len(), 10);
        assert_eq!(hub.truncated(), 1);
        // Reset restores capacity for reuse.
        small[0].reset(64);
        assert_eq!(small[0].buf.len(), 64);
        assert_eq!(b.recv_batch(&mut small).unwrap(), 0);
    }

    #[test]
    fn outbox_packs_consecutive_packets_for_one_destination_up_to_the_cap() {
        let hub = MemHub::new();
        let (a, b, c) = (hub.endpoint(addr(1)), hub.endpoint(addr(2)), hub.endpoint(addr(3)));
        let mut out = Outbox::default();
        let mut push = |byte: u8, len: usize, to: SocketAddr| {
            out.push(len, to, |buf| buf.resize(buf.len() + len, byte));
        };
        // Three 478-byte packets fill a container (1434 of 1472 bytes); the
        // fourth opens the next; a packet for someone else ends that one
        // early, and b's next packet does not reach back past it.
        for byte in 0..4 {
            push(byte, 478, addr(2));
        }
        push(4, 478, addr(3));
        push(5, 478, addr(2));
        assert_eq!((out.packets(), out.containers()), (6, 4));
        out.flush(&a).unwrap();
        assert_eq!((out.packets(), out.containers()), (0, 0));
        let received = |t: &MemTransport| {
            let mut buf = [0u8; 2048];
            std::iter::from_fn(|| t.try_recv(&mut buf).unwrap().map(|(n, _)| n)).collect::<Vec<_>>()
        };
        assert_eq!(received(&b), [3 * 478, 478, 478]);
        assert_eq!(received(&c), [478]);
        // An empty flush is no batch; sent buffers come back emptied.
        out.flush(&a).unwrap();
        out.push(1, addr(2), |buf| buf.push(9));
        out.flush(&a).unwrap();
        assert_eq!(received(&b), [1]);
        assert_eq!((out.containers_sent(), out.batches_sent()), (5, 2));
    }

    #[test]
    fn udp_loopback_roundtrip() {
        let a = UdpTransport::bind(addr(0)).unwrap();
        let b = UdpTransport::bind(addr(0)).unwrap();
        a.send_to(b"ping", b.local_addr()).unwrap();
        let mut buf = [0u8; 16];
        // Loopback delivery is fast but asynchronous: wait on a deadline.
        let arrived = wait_for(Duration::from_secs(5), Duration::from_millis(1), || {
            match b.try_recv(&mut buf).unwrap() {
                Some((n, from)) => {
                    assert_eq!(&buf[..n], b"ping");
                    assert_eq!(from, a.local_addr());
                    true
                }
                None => false,
            }
        });
        assert!(arrived, "datagram never arrived on loopback");
        assert_eq!(a.send_drops(), 0);
    }

    #[test]
    fn recv_batch_on_an_ipv6_socket_reports_the_senders_address() {
        let bind = || UdpTransport::bind("[::1]:0".parse().unwrap());
        let (Ok(a), Ok(b)) = (bind(), bind()) else {
            println!("skipped: this host has no IPv6 loopback");
            return;
        };
        a.send_batch(&[Datagram { buf: b"ping".to_vec(), addr: b.local_addr() }]).unwrap();
        let mut ring = [Datagram::slot(16)];
        let arrived = wait_for(Duration::from_secs(5), Duration::from_millis(1), || {
            b.recv_batch(&mut ring).unwrap() == 1
        });
        assert!(arrived, "datagram never arrived on loopback");
        assert_eq!((&ring[0].buf[..], ring[0].addr), (&b"ping"[..], a.local_addr()));
    }

    #[test]
    fn udp_send_to_dead_peer_is_loss_not_error() {
        let a = UdpTransport::bind(addr(0)).unwrap();
        let dead = {
            let tmp = UdpTransport::bind(addr(0)).unwrap();
            tmp.local_addr()
        };
        // Whether loopback surfaces the closed port as ECONNREFUSED is
        // kernel- and timing-dependent; the contract under test is that a
        // refusal is *counted loss*, never an `Err` that kills a pacing
        // loop. Give the kernel a brief window to deliver the ICMP error.
        wait_for(Duration::from_millis(200), Duration::from_millis(1), || {
            a.send_to(b"to nobody", dead).unwrap();
            a.send_drops() > 0
        });
        let handle = a.send_drops_handle();
        assert_eq!(handle.load(Ordering::Relaxed), a.send_drops());
    }
}
