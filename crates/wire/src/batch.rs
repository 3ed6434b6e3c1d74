//! `recvmmsg`/`sendmmsg` for the batch hooks of
//! [`UdpTransport`](crate::UdpTransport).
//!
//! Its [`send_batch`](crate::Transport::send_batch) and
//! [`recv_batch`](crate::Transport::recv_batch) spend one syscall per
//! *batch* here instead of one per datagram. On a kernel with CPU
//! mitigations the syscall boundary dominates; on an unmitigated kernel
//! entry is cheap and most of the residual ~1 µs/datagram is loopback
//! *stack traversal*, paid per datagram no matter how many ride one
//! `sendmmsg`. Batching still pays there: with both hooks falling through
//! to one syscall per datagram, the benchmark's `wire_saturate` spent
//! about 8 % more CPU per packet (2.93 → 3.17 µs median over ten
//! alternated pairs on 2 vCPUs) and moved about 9 % fewer packets, so this
//! path stays unless a measurement says otherwise. The serve/loadgen loops
//! also pair it with application-layer coalescing — packing several
//! self-delimiting wire packets into one datagram; see DESIGN.md §9.
//!
//! The workspace vendors no `libc` crate, so the two syscalls and the
//! three kernel structs they take (`iovec`, `msghdr`, `mmsghdr`) are
//! declared by hand in the [`sys`] module — the only place in the crate
//! allowed to use `unsafe`. It speaks `sockaddr_in` only and exists only on
//! Linux; an IPv6 socket, an IPv6 destination or another platform takes the
//! [`Transport`](crate::Transport) trait's per-datagram loop, so behavior
//! (not speed) is identical everywhere. Datagram loss semantics are those
//! of the per-datagram path: a `WouldBlock`/refused send and a `sendmmsg`
//! short-write are *counted* into the same `wire.udp.send_drops` ledger,
//! never surfaced as errors.

/// Best-effort request for `bytes` of kernel receive and send buffer on
/// `socket` — Linux only, a no-op elsewhere. The kernel clamps the request
/// to `net.core.{r,w}mem_max` and keeps the old size on failure, so there
/// is nothing useful to propagate: callers that care can measure the loss
/// they wanted to avoid.
pub(crate) fn expand_socket_buffers(socket: &std::net::UdpSocket, bytes: usize) {
    #[cfg(target_os = "linux")]
    sys::set_buffer_sizes(socket, bytes);
    #[cfg(not(target_os = "linux"))]
    let _ = (socket, bytes);
}

/// Hand-vendored `recvmmsg`/`sendmmsg` bindings (the workspace carries no
/// `libc`). All `unsafe` in the crate lives here; the exported functions
/// are safe: every pointer handed to the kernel derives from a live slice
/// borrowed for the duration of the call, and every length comes from the
/// same slice's `len()`.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub(crate) mod sys {
    use crate::transport::{Datagram, UdpTransport};
    use std::io;
    use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_uint, c_void};

    // Layouts per the Linux UAPI on LP64 targets (x86-64, aarch64): iovec
    // is {ptr, size_t}, msghdr is {ptr, u32(+pad), ptr, size_t, ptr,
    // size_t, int(+pad)}, mmsghdr appends the per-message byte count.
    #[repr(C)]
    #[derive(Debug)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    #[repr(C)]
    #[derive(Debug)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }

    #[repr(C)]
    #[derive(Debug)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: c_uint,
    }

    /// `struct sockaddr_in`: family, big-endian port, big-endian address,
    /// eight bytes of zero padding.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    impl Default for SockAddrIn {
        fn default() -> Self {
            SockAddrIn { family: AF_INET, port_be: 0, addr_be: 0, zero: [0; 8] }
        }
    }

    const AF_INET: u16 = 2;
    const SOL_SOCKET: c_int = 1;
    const SO_SNDBUF: c_int = 7;
    const SO_RCVBUF: c_int = 8;

    extern "C" {
        fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
    }

    /// `SO_RCVBUF`/`SO_SNDBUF` enlargement behind
    /// [`expand_socket_buffers`](super::expand_socket_buffers); the kernel
    /// clamps to `net.core.{r,w}mem_max`, so the return values carry no
    /// actionable signal and are ignored.
    pub(super) fn set_buffer_sizes(socket: &std::net::UdpSocket, bytes: usize) {
        let fd = socket.as_raw_fd();
        let val: c_int = bytes.min(c_int::MAX as usize) as c_int;
        for opt in [SO_RCVBUF, SO_SNDBUF] {
            // SAFETY: `val` is a live local for the duration of the call
            // and `optlen` is exactly its size.
            unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    opt,
                    std::ptr::addr_of!(val).cast(),
                    std::mem::size_of::<c_int>() as c_uint,
                );
            }
        }
    }

    /// Reused header/address/iovec arrays so steady-state batching
    /// allocates nothing per call.
    #[derive(Debug, Default)]
    pub(crate) struct Scratch {
        addrs: Vec<SockAddrIn>,
        iovs: Vec<IoVec>,
        hdrs: Vec<MMsgHdr>,
    }

    // The raw pointers inside make the compiler refuse `Send`, but they
    // are rebuilt from borrowed slices on every call and dangle in
    // between — the scratch owns no aliased state across threads.
    #[allow(unsafe_code)]
    unsafe impl Send for Scratch {}

    impl Scratch {
        /// Sizes the three arrays for an `n`-message call. Returns after
        /// this the arrays never reallocate, so interior pointers taken
        /// below stay valid for the syscall.
        fn prepare(&mut self, n: usize) {
            self.addrs.clear();
            self.addrs.resize(n, SockAddrIn::default());
            self.iovs.clear();
            self.iovs.reserve(n);
            self.hdrs.clear();
            self.hdrs.reserve(n);
        }

        /// Builds `hdrs[i]` over `iovs[i]` and `addrs[i]`. Caller must
        /// have pushed iovec `i` already.
        fn push_hdr(&mut self, i: usize) {
            self.hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: std::ptr::addr_of_mut!(self.addrs[i]).cast(),
                    namelen: std::mem::size_of::<SockAddrIn>() as u32,
                    iov: std::ptr::addr_of_mut!(self.iovs[i]),
                    iovlen: 1,
                    control: std::ptr::null_mut(),
                    controllen: 0,
                    flags: 0,
                },
                len: 0,
            });
        }
    }

    /// Vectored send. Loss semantics mirror the per-datagram path: a
    /// `WouldBlock`/refused head datagram is counted as a drop and the
    /// rest of the batch still gets its chance; a short-write (kernel
    /// accepted fewer bytes than the datagram) is counted the same way.
    pub(crate) fn send_batch(
        udp: &UdpTransport,
        scratch: &mut Scratch,
        batch: &[Datagram],
    ) -> io::Result<()> {
        let n = batch.len();
        if n == 0 {
            return Ok(());
        }
        scratch.prepare(n);
        for (i, d) in batch.iter().enumerate() {
            let SocketAddr::V4(v4) = d.addr else {
                unreachable!("the caller sends IPv4 batches only");
            };
            scratch.addrs[i] = SockAddrIn {
                family: AF_INET,
                port_be: v4.port().to_be(),
                addr_be: u32::from(*v4.ip()).to_be(),
                zero: [0; 8],
            };
            // Send-side iovec: the kernel only reads through it, the
            // mut cast is an ABI formality.
            scratch.iovs.push(IoVec { base: d.buf.as_ptr().cast_mut().cast(), len: d.buf.len() });
        }
        for i in 0..n {
            scratch.push_hdr(i);
        }
        let fd = udp.socket().as_raw_fd();
        let mut off = 0usize;
        while off < n {
            // SAFETY: `hdrs[off..]` points into live scratch arrays sized
            // by `prepare(n)`; the iovec bases borrow `batch`, which
            // outlives the call.
            let ret =
                unsafe { sendmmsg(fd, scratch.hdrs.as_mut_ptr().add(off), (n - off) as c_uint, 0) };
            if ret < 0 {
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::ConnectionRefused => {
                        udp.count_send_drop();
                        off += 1;
                    }
                    io::ErrorKind::Interrupted => {}
                    _ => return Err(err),
                }
                continue;
            }
            let sent = ret as usize;
            for (hdr, dg) in scratch.hdrs[off..off + sent].iter().zip(&batch[off..off + sent]) {
                if (hdr.len as usize) < dg.buf.len() {
                    udp.count_send_drop();
                }
            }
            off += sent;
        }
        Ok(())
    }

    /// Vectored receive into the ring's slots. Returns how many slots were
    /// filled; `WouldBlock` (nothing pending) is 0, matching `try_recv`'s
    /// `Ok(None)`.
    pub(crate) fn recv_batch(
        udp: &UdpTransport,
        scratch: &mut Scratch,
        batch: &mut [Datagram],
    ) -> io::Result<usize> {
        let n = batch.len();
        if n == 0 {
            return Ok(0);
        }
        scratch.prepare(n);
        for slot in batch.iter_mut() {
            scratch.iovs.push(IoVec { base: slot.buf.as_mut_ptr().cast(), len: slot.buf.len() });
        }
        for i in 0..n {
            scratch.push_hdr(i);
        }
        let fd = udp.socket().as_raw_fd();
        // SAFETY: same pointer discipline as `send_batch`; the null
        // timeout means "don't wait", and the socket is non-blocking
        // anyway.
        let ret = unsafe {
            recvmmsg(fd, scratch.hdrs.as_mut_ptr(), n as c_uint, 0, std::ptr::null_mut())
        };
        if ret < 0 {
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::WouldBlock
                | io::ErrorKind::ConnectionRefused
                | io::ErrorKind::Interrupted => Ok(0),
                _ => Err(err),
            };
        }
        let got = (ret as usize).min(n);
        for (i, dg) in batch.iter_mut().enumerate().take(got) {
            let sa = scratch.addrs[i];
            if sa.family == AF_INET {
                dg.addr = SocketAddr::V4(SocketAddrV4::new(
                    Ipv4Addr::from(u32::from_be(sa.addr_be)),
                    u16::from_be(sa.port_be),
                ));
            }
            let len = (scratch.hdrs[i].len as usize).min(dg.buf.len());
            dg.buf.truncate(len);
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use crate::transport::tests::wait_for;
    use crate::transport::{Datagram, Transport, UdpTransport};
    use std::time::Duration;

    fn bind() -> UdpTransport {
        UdpTransport::bind("127.0.0.1:0".parse().unwrap()).unwrap()
    }

    #[test]
    fn batched_roundtrip_preserves_payloads_and_origins() {
        let a = bind();
        let b = bind();
        let batch: Vec<Datagram> = (0u8..16)
            .map(|i| Datagram { buf: vec![i; 64 + i as usize], addr: b.local_addr() })
            .collect();
        a.send_batch(&batch).unwrap();
        let mut ring: Vec<Datagram> = (0..32).map(|_| Datagram::slot(512)).collect();
        let mut got = 0usize;
        let arrived = wait_for(Duration::from_secs(5), Duration::from_millis(1), || {
            for slot in ring.iter_mut().skip(got) {
                slot.reset(512);
            }
            got += b.recv_batch(&mut ring[got..]).unwrap();
            got == 16
        });
        assert!(arrived, "only {got}/16 datagrams arrived");
        // Loopback keeps order within one socket pair.
        for (i, slot) in ring.iter().take(16).enumerate() {
            assert_eq!(slot.buf, vec![i as u8; 64 + i], "datagram {i}");
            assert_eq!(slot.addr, a.local_addr());
        }
        assert_eq!(a.send_drops(), 0);
    }

    #[test]
    fn batch_and_per_datagram_calls_interoperate() {
        let a = bind();
        let b = bind();
        // A run of `send_to`s is readable by one `recv_batch`.
        for payload in [b"one", b"two"] {
            a.send_to(payload, b.local_addr()).unwrap();
        }
        let mut ring: Vec<Datagram> = (0..4).map(|_| Datagram::slot(64)).collect();
        let mut got = 0usize;
        let arrived = wait_for(Duration::from_secs(5), Duration::from_millis(1), || {
            got += b.recv_batch(&mut ring[got..]).unwrap();
            got == 2
        });
        assert!(arrived);
        assert_eq!((&ring[0].buf[..], &ring[1].buf[..]), (&b"one"[..], &b"two"[..]));
        // A `send_batch` is readable by `try_recv`.
        b.send_batch(&[Datagram { buf: b"three".to_vec(), addr: a.local_addr() }]).unwrap();
        let mut buf = [0u8; 64];
        let arrived = wait_for(Duration::from_secs(5), Duration::from_millis(1), || {
            matches!(a.try_recv(&mut buf).unwrap(), Some((5, _)))
        });
        assert!(arrived);
        assert_eq!(&buf[..5], b"three");
    }

    #[test]
    fn empty_batches_are_noops() {
        let a = bind();
        a.send_batch(&[]).unwrap();
        let mut none: [Datagram; 0] = [];
        assert_eq!(a.recv_batch(&mut none).unwrap(), 0);
        let mut ring = [Datagram::slot(64)];
        assert_eq!(a.recv_batch(&mut ring).unwrap(), 0, "quiet socket reads nothing");
    }

    #[test]
    fn oversized_datagram_truncates_into_slot_capacity() {
        let a = bind();
        let b = bind();
        a.send_to(&[7u8; 300], b.local_addr()).unwrap();
        let mut ring = [Datagram::slot(100)];
        let arrived = wait_for(Duration::from_secs(5), Duration::from_millis(1), || {
            ring[0].reset(100);
            b.recv_batch(&mut ring).unwrap() == 1
        });
        assert!(arrived);
        assert_eq!(ring[0].buf, vec![7u8; 100]);
    }
}
