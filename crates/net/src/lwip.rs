//! The `LWIP` cubicle: a small TCP stack with a socket API.
//!
//! Reproduces the properties of Unikraft's LWIP that shape Figure 7:
//! MSS-sized segmentation, a **64 KiB send buffer** ("the change in slope
//! for files larger than 1 MB is due to the buffer size inside LWIP"),
//! ack-clocked flow control against the peer's advertised window, and a
//! poll-driven single-threaded event loop. Frames move to and from the
//! `NETDEV` cubicle through windowed cross-cubicle calls.

use crate::frame::{flags, Segment, MSS};
use crate::netdev::{NetdevProxy, MAX_FRAME};
use cubicle_core::{
    component_mut, impl_component, Builder, Component, ComponentImage, CubicleId, EntryId, Errno,
    LoadedComponent, Result, System, Value, WindowId,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;
use cubicle_ukbase::AllocProxy;
use std::collections::VecDeque;

/// Send-buffer capacity per connection (LWIP's `TCP_SND_BUF`).
pub const SND_BUF: usize = 64 * 1024;
/// Advertised receive window.
pub const RCV_WND: u16 = 65_535;
/// Server initial sequence number.
const ISS: u32 = 1_000;

/// TCP connection states (the subset a reliable wire needs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TcpState {
    SynRcvd,
    Established,
    CloseWait,
    Closed,
}

#[derive(Debug)]
struct Tcb {
    state: TcpState,
    local_port: u16,
    remote_port: u16,
    rcv_nxt: u32,
    snd_nxt: u32,
    snd_una: u32,
    peer_wnd: u32,
    /// Bytes accepted from the application, not yet segmented.
    send_queue: VecDeque<u8>,
    /// Bytes received in order, not yet read by the application.
    recv_queue: VecDeque<u8>,
    /// Application closed its end (FIN pending after the queue drains).
    fin_pending: bool,
    fin_sent: bool,
}

impl Tcb {
    fn inflight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    fn send_space(&self) -> usize {
        SND_BUF.saturating_sub(self.send_queue.len() + self.inflight() as usize)
    }
}

#[derive(Debug)]
enum Socket {
    Listener { port: u16, backlog: VecDeque<usize> },
    Conn(Tcb),
}

/// TX segments between pbuf-pool refills from `ALLOC` (tuned to the
/// paper's Figure 5 edge ratio: LWIP→ALLOC ≈ LWIP→NETDEV / 465).
pub const PBUF_REFILL_SEGMENTS: u64 = 456;

/// Frames per batched `NETDEV` dispatch (and pages in the TX batch
/// ring): matches the device's own ring depth, so one batch never laps a
/// slot it wrote earlier in the same dispatch.
pub const TX_BATCH: usize = 8;

/// State of the `LWIP` component.
#[derive(Debug, Default)]
pub struct Lwip {
    netdev: Option<NetdevProxy>,
    alloc: Option<AllocProxy>,
    sockets: Vec<Option<Socket>>,
    /// Staging page for frames exchanged with `NETDEV`.
    frame_buf: VAddr,
    /// Current TX pbuf page (rotated through `ALLOC` refills).
    tx_buf: VAddr,
    /// Window publishing `tx_buf` to `NETDEV`; destroyed on each refill
    /// before the page goes back to `ALLOC` (a live window descriptor
    /// must never cover memory its cubicle no longer owns).
    tx_wid: Option<WindowId>,
    /// Base of the [`TX_BATCH`]-page staging ring used by batched
    /// flushes: each batched frame gets its own slot because every write
    /// precedes the single dispatch.
    tx_batch_buf: VAddr,
    /// Long-lived window publishing the batch ring to `NETDEV`.
    tx_batch_wid: Option<WindowId>,
    segments_since_refill: u64,
    /// Segments processed (statistics).
    pub segments_rx: u64,
    /// Segments emitted (statistics).
    pub segments_tx: u64,
}

impl_component!(Lwip, restart = reboot_reset);

impl Lwip {
    /// Microreboot hook: sockets, the frame staging page and the TX pbuf
    /// page all lived in the reclaimed cubicle memory. Wiring proxies
    /// survive; `lwip_init` must run again before the stack is used.
    fn reboot_reset(&mut self) {
        let (netdev, alloc) = (self.netdev, self.alloc);
        *self = Lwip::default();
        self.netdev = netdev;
        self.alloc = alloc;
    }
    /// Boot-time wiring of the device driver proxy.
    pub fn set_netdev(&mut self, dev: NetdevProxy) {
        self.netdev = Some(dev);
    }

    /// Boot-time wiring of the coarse allocator: when present, the stack
    /// refills its pbuf pool from `ALLOC` every
    /// [`PBUF_REFILL_SEGMENTS`] transmitted segments (Figure 5's sparse
    /// `LWIP → ALLOC` edge).
    pub fn set_alloc(&mut self, alloc: AllocProxy) {
        self.alloc = Some(alloc);
    }

    fn conn_mut(&mut self, fd: i64) -> Option<&mut Tcb> {
        match usize::try_from(fd)
            .ok()
            .and_then(|i| self.sockets.get_mut(i)?.as_mut())
        {
            Some(Socket::Conn(tcb)) => Some(tcb),
            _ => None,
        }
    }

    fn find_conn(&mut self, local: u16, remote: u16) -> Option<usize> {
        self.sockets.iter().position(|s| {
            matches!(s, Some(Socket::Conn(t))
                if t.local_port == local && t.remote_port == remote && t.state != TcpState::Closed)
        })
    }

    fn find_listener(&mut self, port: u16) -> Option<usize> {
        self.sockets
            .iter()
            .position(|s| matches!(s, Some(Socket::Listener { port: p, .. }) if *p == port))
    }

    fn alloc_fd(&mut self, s: Socket) -> i64 {
        if let Some(i) = self.sockets.iter().position(Option::is_none) {
            self.sockets[i] = Some(s);
            i as i64
        } else {
            self.sockets.push(Some(s));
            self.sockets.len() as i64 - 1
        }
    }
}

/// Builds the loadable `LWIP` image.
pub fn image() -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new("LWIP", CodeImage::plain(48 * 1024))
        .heap_pages(32)
        .export(b.export("long lwip_init(void)").unwrap(), e_init)
        .export(b.export("long lwip_socket(void)").unwrap(), e_socket)
        .export(
            b.export("long lwip_bind(long fd, long port)").unwrap(),
            e_bind,
        )
        .export(b.export("long lwip_listen(long fd)").unwrap(), e_listen)
        .export(b.export("long lwip_accept(long fd)").unwrap(), e_accept)
        .export(
            b.export("long lwip_recv(long fd, void *buf, size_t n)")
                .unwrap(),
            e_recv,
        )
        .export(
            b.export("long lwip_send(long fd, const void *buf, size_t n)")
                .unwrap(),
            e_send,
        )
        .export(b.export("long lwip_close(long fd)").unwrap(), e_close)
        .export(b.export("long lwip_poll(void)").unwrap(), e_poll)
}

fn e_init(sys: &mut System, this: &mut dyn Component, _args: &[Value]) -> Result<Value> {
    let dev_cid = {
        let st = component_mut::<Lwip>(this);
        match st.netdev {
            Some(d) => d.cid(),
            None => return Ok(Value::I64(Errno::Einval.neg())),
        }
    };
    // Allocate the frame staging page and open a long-lived window on it
    // for the device (driver ↔ device shared descriptor memory).
    let buf = sys.alloc_pages(1);
    let wid = sys.window_init();
    sys.window_add(wid, buf, 4096)?;
    sys.window_open(wid, dev_cid)?;
    component_mut::<Lwip>(this).frame_buf = buf;
    Ok(Value::I64(0))
}

fn e_socket(sys: &mut System, this: &mut dyn Component, _args: &[Value]) -> Result<Value> {
    sys.charge(80);
    let st = component_mut::<Lwip>(this);
    // a socket starts life as an unbound listener shell
    let fd = st.alloc_fd(Socket::Listener {
        port: 0,
        backlog: VecDeque::new(),
    });
    Ok(Value::I64(fd))
}

fn e_bind(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(80);
    let fd = args[0].as_i64();
    let port = args[1].as_i64();
    let st = component_mut::<Lwip>(this);
    let Ok(port) = u16::try_from(port) else {
        return Ok(Value::I64(Errno::Einval.neg()));
    };
    if st.find_listener(port).is_some() && port != 0 {
        return Ok(Value::I64(Errno::Eaddrinuse.neg()));
    }
    match usize::try_from(fd)
        .ok()
        .and_then(|i| st.sockets.get_mut(i)?.as_mut())
    {
        Some(Socket::Listener { port: p, .. }) => {
            *p = port;
            Ok(Value::I64(0))
        }
        _ => Ok(Value::I64(Errno::Ebadf.neg())),
    }
}

fn e_listen(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(80);
    let fd = args[0].as_i64();
    let st = component_mut::<Lwip>(this);
    match usize::try_from(fd)
        .ok()
        .and_then(|i| st.sockets.get(i)?.as_ref())
    {
        Some(Socket::Listener { .. }) => Ok(Value::I64(0)),
        _ => Ok(Value::I64(Errno::Ebadf.neg())),
    }
}

fn e_accept(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(120);
    let fd = args[0].as_i64();
    let st = component_mut::<Lwip>(this);
    match usize::try_from(fd)
        .ok()
        .and_then(|i| st.sockets.get_mut(i)?.as_mut())
    {
        Some(Socket::Listener { backlog, .. }) => match backlog.pop_front() {
            Some(conn_idx) => Ok(Value::I64(conn_idx as i64)),
            None => Ok(Value::I64(Errno::Ewouldblock.neg())),
        },
        _ => Ok(Value::I64(Errno::Ebadf.neg())),
    }
}

fn e_recv(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    let fd = args[0].as_i64();
    let (buf, n) = args[1].as_buf();
    sys.charge(200);
    let (bytes, _closed) = {
        let st = component_mut::<Lwip>(this);
        let Some(tcb) = st.conn_mut(fd) else {
            return Ok(Value::I64(Errno::Ebadf.neg()));
        };
        if tcb.recv_queue.is_empty() {
            return Ok(match tcb.state {
                TcpState::CloseWait | TcpState::Closed => Value::I64(0), // EOF
                _ => Value::I64(Errno::Ewouldblock.neg()),
            });
        }
        let take = n.min(tcb.recv_queue.len());
        let bytes: Vec<u8> = tcb.recv_queue.drain(..take).collect();
        (bytes, tcb.state != TcpState::Established)
    };
    // copy into the application's buffer (windowed)
    match sys.write(buf, &bytes) {
        Ok(()) => Ok(Value::I64(bytes.len() as i64)),
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => {
            // put the bytes back so the app can retry with a window
            let st = component_mut::<Lwip>(this);
            if let Some(tcb) = st.conn_mut(fd) {
                for b in bytes.into_iter().rev() {
                    tcb.recv_queue.push_front(b);
                }
            }
            Ok(Value::I64(Errno::Eacces.neg()))
        }
        Err(e) => Err(e),
    }
}

fn e_send(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    let fd = args[0].as_i64();
    let (buf, n) = args[1].as_buf();
    sys.charge(200);
    let space = {
        let st = component_mut::<Lwip>(this);
        let Some(tcb) = st.conn_mut(fd) else {
            return Ok(Value::I64(Errno::Ebadf.neg()));
        };
        if tcb.state != TcpState::Established && tcb.state != TcpState::CloseWait {
            return Ok(Value::I64(Errno::Enotconn.neg()));
        }
        tcb.send_space()
    };
    if space == 0 {
        return Ok(Value::I64(Errno::Ewouldblock.neg()));
    }
    let take = n.min(space);
    // read the application's bytes (windowed) straight into the send
    // queue via a pooled scratch buffer — no allocation per segment
    let queued = sys.with_read(buf, take, |_sys, bytes| {
        let st = component_mut::<Lwip>(this);
        let tcb = st.conn_mut(fd).expect("checked above");
        tcb.send_queue.extend(bytes.iter().copied());
        Ok(())
    });
    match queued {
        Ok(()) => Ok(Value::I64(take as i64)),
        Err(cubicle_core::CubicleError::WindowDenied { .. }) => Ok(Value::I64(Errno::Eacces.neg())),
        Err(e) => Err(e),
    }
}

fn e_close(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    sys.charge(120);
    let fd = args[0].as_i64();
    let st = component_mut::<Lwip>(this);
    match usize::try_from(fd)
        .ok()
        .and_then(|i| st.sockets.get_mut(i)?.as_mut())
    {
        Some(Socket::Conn(tcb)) => {
            tcb.fin_pending = true;
            Ok(Value::I64(0))
        }
        Some(Socket::Listener { .. }) => {
            st.sockets[usize::try_from(fd).expect("checked")] = None;
            Ok(Value::I64(0))
        }
        None => Ok(Value::I64(Errno::Ebadf.neg())),
    }
}

/// One event-loop iteration: drain the device RX queue, then flush
/// pending transmissions. Returns the number of segments processed.
fn e_poll(sys: &mut System, this: &mut dyn Component, _args: &[Value]) -> Result<Value> {
    let (dev, frame_buf) = {
        let st = component_mut::<Lwip>(this);
        let Some(dev) = st.netdev else {
            return Ok(Value::I64(Errno::Einval.neg()));
        };
        (dev, st.frame_buf)
    };
    let mut events = 0i64;

    // ---- RX path -------------------------------------------------------
    loop {
        let n = dev.rx(sys, frame_buf, MAX_FRAME)?;
        if n == Errno::Ewouldblock.neg() {
            break;
        }
        if n < 0 {
            return Ok(Value::I64(n));
        }
        sys.charge(600); // per-segment stack processing
        let decoded = sys.with_read(frame_buf, n as usize, |_sys, bytes| {
            Ok(Segment::decode(bytes))
        })?;
        let Some(seg) = decoded else {
            continue; // malformed frame dropped
        };
        events += 1;
        component_mut::<Lwip>(this).segments_rx += 1;
        handle_segment(sys, this, &dev, frame_buf, &seg)?;
    }

    // ---- TX path -------------------------------------------------------
    events += flush_tx(sys, this, &dev)?;
    Ok(Value::I64(events))
}

fn send_segment(
    sys: &mut System,
    this: &mut dyn Component,
    dev: &NetdevProxy,
    frame_buf: VAddr,
    seg: &Segment,
) -> Result<()> {
    sys.charge(500); // per-segment stack processing
                     // pbuf pool management: with ALLOC wired, TX buffers are drawn from
                     // the system-wide allocator and recycled periodically.
    let buf = {
        let st = component_mut::<Lwip>(this);
        st.segments_since_refill += 1;
        let needs_refill = st.alloc.is_some()
            && (st.tx_buf.is_null() || st.segments_since_refill >= PBUF_REFILL_SEGMENTS);
        if needs_refill {
            let (alloc, old, old_wid) = (st.alloc.expect("checked"), st.tx_buf, st.tx_wid);
            let page = alloc.palloc(sys, 1)?;
            let wid = sys.window_init();
            sys.window_add(wid, page, 4096)?;
            sys.window_open(wid, dev.cid())?;
            if !old.is_null() {
                // retire the old pbuf's window *before* the page goes
                // back to ALLOC: its descriptor must not keep covering
                // memory this cubicle no longer owns
                if let Some(w) = old_wid {
                    sys.window_destroy(w)?;
                }
                alloc.pfree(sys, old, 1)?;
            }
            let st = component_mut::<Lwip>(this);
            st.tx_buf = page;
            st.tx_wid = Some(wid);
            st.segments_since_refill = 0;
            page
        } else if st.tx_buf.is_null() {
            frame_buf
        } else {
            st.tx_buf
        }
    };
    let bytes = seg.encode();
    sys.write(buf, &bytes)?;
    let r = dev.tx(sys, buf, bytes.len())?;
    debug_assert!(r >= 0, "device window is open");
    component_mut::<Lwip>(this).segments_tx += 1;
    Ok(())
}

fn handle_segment(
    sys: &mut System,
    this: &mut dyn Component,
    dev: &NetdevProxy,
    frame_buf: VAddr,
    seg: &Segment,
) -> Result<()> {
    // Connection lookup by (local, remote) port pair.
    let conn = {
        let st = component_mut::<Lwip>(this);
        st.find_conn(seg.dport, seg.sport)
    };
    if seg.has(flags::SYN) && conn.is_none() {
        let listener = {
            let st = component_mut::<Lwip>(this);
            st.find_listener(seg.dport)
        };
        if listener.is_some() {
            let tcb = Tcb {
                state: TcpState::SynRcvd,
                local_port: seg.dport,
                remote_port: seg.sport,
                rcv_nxt: seg.seq.wrapping_add(1),
                snd_nxt: ISS.wrapping_add(1),
                snd_una: ISS,
                peer_wnd: u32::from(seg.wnd),
                send_queue: VecDeque::new(),
                recv_queue: VecDeque::new(),
                fin_pending: false,
                fin_sent: false,
            };
            let reply = Segment {
                sport: seg.dport,
                dport: seg.sport,
                seq: ISS,
                ack: tcb.rcv_nxt,
                flags: flags::SYN | flags::ACK,
                wnd: RCV_WND,
                payload: Vec::new(),
            };
            let st = component_mut::<Lwip>(this);
            st.alloc_fd(Socket::Conn(tcb));
            send_segment(sys, this, dev, frame_buf, &reply)?;
        }
        return Ok(());
    }
    let Some(idx) = conn else {
        return Ok(()); // segment for no one: dropped
    };

    let mut ack_needed = false;
    let mut established_now = false;
    {
        let st = component_mut::<Lwip>(this);
        let Some(Socket::Conn(tcb)) = st.sockets[idx].as_mut() else {
            unreachable!()
        };
        if seg.has(flags::ACK) {
            // advance the unacked horizon
            let acked = seg.ack.wrapping_sub(tcb.snd_una);
            if acked > 0 && acked <= tcb.inflight().wrapping_add(1) {
                tcb.snd_una = seg.ack;
            }
            tcb.peer_wnd = u32::from(seg.wnd);
            if tcb.state == TcpState::SynRcvd {
                tcb.state = TcpState::Established;
                established_now = true;
            }
        }
        if !seg.payload.is_empty() {
            if seg.seq == tcb.rcv_nxt {
                tcb.recv_queue.extend(seg.payload.iter());
                tcb.rcv_nxt = tcb.rcv_nxt.wrapping_add(seg.payload.len() as u32);
            }
            ack_needed = true; // ack even duplicates (keeps the peer moving)
        }
        if seg.has(flags::FIN) && seg.seq == tcb.rcv_nxt {
            tcb.rcv_nxt = tcb.rcv_nxt.wrapping_add(1);
            tcb.state = TcpState::CloseWait;
            ack_needed = true;
        }
        if seg.has(flags::RST) {
            tcb.state = TcpState::Closed;
        }
    }
    if established_now {
        // queue the connection on its listener's backlog
        let st = component_mut::<Lwip>(this);
        let (port, idx_copy) = {
            let Some(Socket::Conn(tcb)) = st.sockets[idx].as_ref() else {
                unreachable!()
            };
            (tcb.local_port, idx)
        };
        if let Some(l) = st.find_listener(port) {
            if let Some(Socket::Listener { backlog, .. }) = st.sockets[l].as_mut() {
                backlog.push_back(idx_copy);
            }
        }
    }
    if ack_needed {
        let reply = {
            let st = component_mut::<Lwip>(this);
            let Some(Socket::Conn(tcb)) = st.sockets[idx].as_ref() else {
                unreachable!()
            };
            Segment {
                sport: tcb.local_port,
                dport: tcb.remote_port,
                seq: tcb.snd_nxt,
                ack: tcb.rcv_nxt,
                flags: flags::ACK,
                wnd: RCV_WND,
                payload: Vec::new(),
            }
        };
        send_segment(sys, this, dev, frame_buf, &reply)?;
    }
    Ok(())
}

/// Lazily builds the [`TX_BATCH`]-page staging ring (and its `NETDEV`
/// window) used by batched flushes.
fn ensure_batch_ring(
    sys: &mut System,
    this: &mut dyn Component,
    dev: &NetdevProxy,
) -> Result<VAddr> {
    let (existing, alloc) = {
        let st = component_mut::<Lwip>(this);
        (st.tx_batch_buf, st.alloc)
    };
    if !existing.is_null() {
        return Ok(existing);
    }
    let base = match alloc {
        Some(a) => a.palloc(sys, TX_BATCH)?,
        None => sys.alloc_pages(TX_BATCH),
    };
    let wid = sys.window_init();
    sys.window_add(wid, base, TX_BATCH * 4096)?;
    sys.window_open(wid, dev.cid())?;
    let st = component_mut::<Lwip>(this);
    st.tx_batch_buf = base;
    st.tx_batch_wid = Some(wid);
    Ok(base)
}

/// Batched counterpart of [`send_segment`]: stages each segment in its
/// own ring slot, then moves the whole group to `NETDEV` under a single
/// cross-call dispatch. Per-segment stack-processing cycles are charged
/// exactly as on the unbatched path — only the crossing overhead is
/// amortised.
fn send_segments_batched(
    sys: &mut System,
    this: &mut dyn Component,
    dev: &NetdevProxy,
    segs: &[Segment],
) -> Result<()> {
    let ring = ensure_batch_ring(sys, this, dev)?;
    for chunk in segs.chunks(TX_BATCH) {
        let mut frames: Vec<(VAddr, usize)> = Vec::with_capacity(chunk.len());
        for (i, seg) in chunk.iter().enumerate() {
            sys.charge(500); // per-segment stack processing
            let slot = ring + i * 4096;
            let bytes = seg.encode();
            sys.write(slot, &bytes)?;
            frames.push((slot, bytes.len()));
        }
        for r in dev.tx_batch(sys, &frames)? {
            debug_assert!(r >= 0, "device window is open");
            let _ = r;
        }
        let st = component_mut::<Lwip>(this);
        st.segments_tx += chunk.len() as u64;
        st.segments_since_refill += chunk.len() as u64;
    }
    Ok(())
}

fn flush_tx(sys: &mut System, this: &mut dyn Component, dev: &NetdevProxy) -> Result<i64> {
    let mut sent = 0i64;
    let nsockets = {
        let st = component_mut::<Lwip>(this);
        st.sockets.len()
    };
    for idx in 0..nsockets {
        let mut pending: Vec<Segment> = Vec::new();
        loop {
            let out = {
                let st = component_mut::<Lwip>(this);
                let Some(Socket::Conn(tcb)) = st.sockets[idx].as_mut() else {
                    break;
                };
                if tcb.state != TcpState::Established && tcb.state != TcpState::CloseWait {
                    break;
                }
                let window = tcb.peer_wnd.saturating_sub(tcb.inflight()) as usize;
                if !tcb.send_queue.is_empty() && window > 0 {
                    let take = tcb.send_queue.len().min(MSS).min(window);
                    let payload: Vec<u8> = tcb.send_queue.drain(..take).collect();
                    let seg = Segment {
                        sport: tcb.local_port,
                        dport: tcb.remote_port,
                        seq: tcb.snd_nxt,
                        ack: tcb.rcv_nxt,
                        flags: flags::ACK,
                        wnd: RCV_WND,
                        payload,
                    };
                    tcb.snd_nxt = tcb.snd_nxt.wrapping_add(take as u32);
                    Some(seg)
                } else if tcb.fin_pending
                    && !tcb.fin_sent
                    && tcb.send_queue.is_empty()
                    && tcb.inflight() == 0
                {
                    let seg = Segment {
                        sport: tcb.local_port,
                        dport: tcb.remote_port,
                        seq: tcb.snd_nxt,
                        ack: tcb.rcv_nxt,
                        flags: flags::FIN | flags::ACK,
                        wnd: RCV_WND,
                        payload: Vec::new(),
                    };
                    tcb.snd_nxt = tcb.snd_nxt.wrapping_add(1);
                    tcb.fin_sent = true;
                    Some(seg)
                } else {
                    None
                }
            };
            match out {
                Some(seg) => {
                    // Defer: the socket's whole burst goes out under
                    // batched dispatches after the drain loop.
                    pending.push(seg);
                    sent += 1;
                }
                None => break,
            }
        }
        if !pending.is_empty() {
            send_segments_batched(sys, this, dev, &pending)?;
        }
    }
    Ok(sent)
}

/// Typed caller-side proxy for the `LWIP` socket API.
#[derive(Clone, Copy, Debug)]
pub struct LwipProxy {
    cid: CubicleId,
    init: EntryId,
    socket: EntryId,
    bind: EntryId,
    listen: EntryId,
    accept: EntryId,
    recv: EntryId,
    send: EntryId,
    close: EntryId,
    poll: EntryId,
}

impl LwipProxy {
    /// Resolves the proxy from the loaded component.
    ///
    /// # Errors
    ///
    /// [`cubicle_core::CubicleError::NoSuchEntry`] when the image does
    /// not export the expected symbols.
    pub fn resolve(loaded: &LoadedComponent) -> Result<LwipProxy> {
        Ok(LwipProxy {
            cid: loaded.cid,
            init: loaded.entry("lwip_init")?,
            socket: loaded.entry("lwip_socket")?,
            bind: loaded.entry("lwip_bind")?,
            listen: loaded.entry("lwip_listen")?,
            accept: loaded.entry("lwip_accept")?,
            recv: loaded.entry("lwip_recv")?,
            send: loaded.entry("lwip_send")?,
            close: loaded.entry("lwip_close")?,
            poll: loaded.entry("lwip_poll")?,
        })
    }

    /// The `LWIP` cubicle's ID.
    pub fn cid(&self) -> CubicleId {
        self.cid
    }

    /// `lwip_init` — allocates the device staging buffer. Call once at
    /// boot after wiring [`Lwip::set_netdev`].
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn init(&self, sys: &mut System) -> Result<i64> {
        Ok(sys.cross_call(self.init, &[])?.as_i64())
    }

    /// Creates a socket.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn socket(&self, sys: &mut System) -> Result<i64> {
        Ok(sys.cross_call(self.socket, &[])?.as_i64())
    }

    /// Binds to a port.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn bind(&self, sys: &mut System, fd: i64, port: u16) -> Result<i64> {
        Ok(sys
            .cross_call(self.bind, &[Value::I64(fd), Value::I64(i64::from(port))])?
            .as_i64())
    }

    /// Starts listening.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn listen(&self, sys: &mut System, fd: i64) -> Result<i64> {
        Ok(sys.cross_call(self.listen, &[Value::I64(fd)])?.as_i64())
    }

    /// Accepts a pending connection (`-EWOULDBLOCK` when none).
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn accept(&self, sys: &mut System, fd: i64) -> Result<i64> {
        Ok(sys.cross_call(self.accept, &[Value::I64(fd)])?.as_i64())
    }

    /// Receives into caller memory (the caller must window `buf`).
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn recv(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize) -> Result<i64> {
        Ok(sys
            .cross_call(self.recv, &[Value::I64(fd), Value::buf_out(buf, n)])?
            .as_i64())
    }

    /// Sends from caller memory (the caller must window `buf`). Returns
    /// the bytes accepted into the 64 KiB send buffer.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn send(&self, sys: &mut System, fd: i64, buf: VAddr, n: usize) -> Result<i64> {
        Ok(sys
            .cross_call(self.send, &[Value::I64(fd), Value::buf_in(buf, n)])?
            .as_i64())
    }

    /// Sends several caller buffers to `fd` under one batched
    /// cross-cubicle dispatch (one trampoline/PKRU round trip for the
    /// group) — the response header+body fast path. Returns one
    /// bytes-accepted-or-`-errno` result per buffer.
    ///
    /// # Errors
    ///
    /// Kernel errors from the batched cross-cubicle call.
    pub fn send_batch(
        &self,
        sys: &mut System,
        fd: i64,
        bufs: &[(VAddr, usize)],
    ) -> Result<Vec<i64>> {
        let elems: Vec<[Value; 2]> = bufs
            .iter()
            .map(|&(addr, len)| [Value::I64(fd), Value::buf_in(addr, len)])
            .collect();
        let refs: Vec<&[Value]> = elems.iter().map(|e| e.as_slice()).collect();
        Ok(sys
            .cross_call_batch(self.send, &refs)?
            .iter()
            .map(|v| v.as_i64())
            .collect())
    }

    /// Closes a socket (FIN after the send queue drains).
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn close(&self, sys: &mut System, fd: i64) -> Result<i64> {
        Ok(sys.cross_call(self.close, &[Value::I64(fd)])?.as_i64())
    }

    /// One event-loop iteration (RX drain + TX flush).
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn poll(&self, sys: &mut System) -> Result<i64> {
        Ok(sys.cross_call(self.poll, &[])?.as_i64())
    }
}
