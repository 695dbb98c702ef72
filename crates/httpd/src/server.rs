//! The `NGINX` cubicle: a static-file HTTP/1.0 server.
//!
//! Reproduces the application of §6.3: an event-driven web server that
//! accepts connections from the TCP stack (`LWIP`), reads static files
//! through `VFSCORE`/`RAMFS`, and streams them back through the socket
//! API — every step a windowed cross-cubicle call (Figure 5's component
//! graph, 8 partitions).

use cubicle_core::{
    component_mut, impl_component, Builder, Component, ComponentImage, CubicleId, EntryId, Errno,
    LoadedComponent, Result, System, Value,
};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::{VAddr, PAGE_SIZE};
use cubicle_net::{LwipProxy, SND_BUF};
use cubicle_ukbase::{PlatProxy, TimeProxy};
use cubicle_vfs::{flags, FileStat, VfsPort, VfsProxy};
use std::collections::HashMap;

/// Per-transfer I/O buffer (NGINX's default `output_buffers` scale).
pub const IO_BUF: usize = 32 * 1024;

#[derive(Debug)]
enum ConnState {
    ReadingRequest(Vec<u8>),
    Sending {
        file_fd: i64,
        offset: u64,
        remaining: u64,
        /// Header (and error-body) bytes not yet pushed to the socket.
        head: Vec<u8>,
        head_sent: usize,
        /// Sendfile: the file's extent pages, windowed for `LWIP` by the
        /// backend, so body bytes go straight from file pages into the
        /// socket — no `pread` copy through `io_buf`. `None` (an empty
        /// file, or the backend refused the map) takes the staged copy.
        extents: Option<Vec<VAddr>>,
    },
    Draining, // response fully handed to the stack; close when flushed
}

/// State of the `NGINX` component.
#[derive(Debug, Default)]
pub struct Httpd {
    lwip: Option<LwipProxy>,
    vfs: Option<VfsProxy>,
    time: Option<TimeProxy>,
    plat: Option<PlatProxy>,
    fs_backends: Vec<CubicleId>,
    port: Option<VfsPort>,
    listener: i64,
    conns: HashMap<i64, ConnState>,
    io_buf: VAddr,
    log_buf: VAddr,
    /// Requests completed (statistics).
    pub requests_served: u64,
    /// Responses whose body went out through a sendfile window rather
    /// than the staged `pread` copy (statistics).
    pub sendfile_served: u64,
    /// 404s issued (statistics).
    pub not_found: u64,
}

impl_component!(Httpd, restart = reboot_reset);

impl Httpd {
    /// Microreboot hook: connections, the listener socket and the I/O
    /// buffers referenced reclaimed memory. Wiring proxies and the
    /// backend list survive; `nginx_init` must run again to listen.
    fn reboot_reset(&mut self) {
        let (lwip, vfs, time, plat) = (self.lwip, self.vfs, self.time, self.plat);
        let fs_backends = std::mem::take(&mut self.fs_backends);
        *self = Httpd::default();
        self.lwip = lwip;
        self.vfs = vfs;
        self.time = time;
        self.plat = plat;
        self.fs_backends = fs_backends;
    }
    /// Boot-time wiring of the OS-service proxies.
    pub fn set_wiring(&mut self, lwip: LwipProxy, vfs: VfsProxy, fs_backends: &[CubicleId]) {
        self.lwip = Some(lwip);
        self.vfs = Some(vfs);
        self.fs_backends = fs_backends.to_vec();
    }

    /// Optional wiring of `TIME` and `PLAT`: with these present the
    /// server stamps responses with the clock and writes an access-log
    /// line per request (the sparse `NGINX → TIME` / `NGINX → PLAT`
    /// edges of Figure 5).
    pub fn set_observability(&mut self, time: TimeProxy, plat: PlatProxy) {
        self.time = Some(time);
        self.plat = Some(plat);
    }
}

/// Builds the loadable `NGINX` image.
pub fn image() -> ComponentImage {
    let b = Builder::new();
    ComponentImage::new("NGINX", CodeImage::plain(96 * 1024))
        .heap_pages(64)
        .export(b.export("long nginx_init(long port)").unwrap(), e_init)
        .export(b.export("long nginx_poll(void)").unwrap(), e_poll)
}

fn e_init(sys: &mut System, this: &mut dyn Component, args: &[Value]) -> Result<Value> {
    let port = args[0].as_i64();
    let (lwip, vfs, backends) = {
        let st = component_mut::<Httpd>(this);
        match (st.lwip, st.vfs) {
            (Some(l), Some(v)) => (l, v, st.fs_backends.clone()),
            _ => return Ok(Value::I64(Errno::Einval.neg())),
        }
    };
    // The port layer manages windows around VFS calls.
    let vfs_port = VfsPort::new(sys, vfs, &backends)?;
    // One long-lived I/O buffer, windowed for the whole data path:
    // RAMFS fills it (via VFSCORE pread) and LWIP drains it.
    let io_buf = sys.heap_alloc(IO_BUF, 4096)?;
    let wid = sys.window_init();
    sys.window_add(wid, io_buf, IO_BUF)?;
    for cid in vfs_port.grantees().to_vec() {
        sys.window_open(wid, cid)?;
    }
    sys.window_open(wid, lwip.cid())?;

    // access-log staging buffer, windowed for PLAT
    let log_buf = sys.heap_alloc(4096, 4096)?;
    {
        let st = component_mut::<Httpd>(this);
        if let Some(plat) = st.plat {
            let wid = sys.window_init();
            sys.window_add(wid, log_buf, 4096)?;
            sys.window_open(wid, plat.cid())?;
        }
    }

    let fd = lwip.socket(sys)?;
    let r = lwip.bind(sys, fd, port as u16)?;
    if r < 0 {
        return Ok(Value::I64(r));
    }
    lwip.listen(sys, fd)?;
    let st = component_mut::<Httpd>(this);
    st.port = Some(vfs_port);
    st.io_buf = io_buf;
    st.log_buf = log_buf;
    st.listener = fd;
    Ok(Value::I64(0))
}

/// One event-loop iteration. Returns the number of connections that made
/// progress (0 = idle).
fn e_poll(sys: &mut System, this: &mut dyn Component, _args: &[Value]) -> Result<Value> {
    let (lwip, listener, io_buf) = {
        let st = component_mut::<Httpd>(this);
        let Some(lwip) = st.lwip else {
            return Ok(Value::I64(Errno::Einval.neg()));
        };
        (lwip, st.listener, st.io_buf)
    };
    sys.charge(400); // event-loop bookkeeping (epoll-style dispatch)
    lwip.poll(sys)?;

    let mut progressed = 0i64;
    // accept new connections
    loop {
        let conn = lwip.accept(sys, listener)?;
        if conn < 0 {
            break;
        }
        component_mut::<Httpd>(this)
            .conns
            .insert(conn, ConnState::ReadingRequest(Vec::new()));
        progressed += 1;
    }

    let mut fds: Vec<i64> = component_mut::<Httpd>(this).conns.keys().copied().collect();
    // Service connections in fd order: the map's hash order varies from
    // process to process, and a multi-core siege replay must be a pure
    // function of the scheduler seed.
    fds.sort_unstable();
    for fd in fds {
        progressed += step_conn(sys, this, lwip, fd, io_buf)?;
    }
    lwip.poll(sys)?; // flush whatever the handlers queued
    Ok(Value::I64(progressed))
}

fn step_conn(
    sys: &mut System,
    this: &mut dyn Component,
    lwip: LwipProxy,
    fd: i64,
    io_buf: VAddr,
) -> Result<i64> {
    enum Action {
        None,
        Request,
        Send,
        CloseDrained,
    }
    let action = {
        let st = component_mut::<Httpd>(this);
        match st.conns.get_mut(&fd) {
            Some(ConnState::ReadingRequest(_)) => Action::Request,
            Some(ConnState::Sending { .. }) => Action::Send,
            Some(ConnState::Draining) => Action::CloseDrained,
            None => Action::None,
        }
    };
    match action {
        Action::None => Ok(0),
        Action::Request => {
            let n = lwip.recv(sys, fd, io_buf, IO_BUF)?;
            if n == Errno::Ewouldblock.neg() {
                return Ok(0);
            }
            if n <= 0 {
                // peer went away before sending a request
                lwip.close(sys, fd)?;
                component_mut::<Httpd>(this).conns.remove(&fd);
                return Ok(1);
            }
            let bytes = sys.read_vec(io_buf, n as usize)?;
            let st = component_mut::<Httpd>(this);
            let Some(ConnState::ReadingRequest(acc)) = st.conns.get_mut(&fd) else {
                return Ok(0);
            };
            acc.extend_from_slice(&bytes);
            let complete = acc.windows(4).any(|w| w == b"\r\n\r\n");
            if !complete {
                return Ok(1);
            }
            let request = String::from_utf8_lossy(acc).into_owned();
            open_response(sys, this, fd, &request)?;
            Ok(1)
        }
        Action::Send => pump_response(sys, this, lwip, fd, io_buf),
        Action::CloseDrained => {
            lwip.close(sys, fd)?;
            component_mut::<Httpd>(this).conns.remove(&fd);
            Ok(1)
        }
    }
}

fn open_response(
    sys: &mut System,
    this: &mut dyn Component,
    fd: i64,
    request: &str,
) -> Result<i64> {
    sys.charge(900); // request parsing + routing (NGINX http module work)
    let path = parse_get_path(request);
    let (port, lwip) = {
        let st = component_mut::<Httpd>(this);
        (
            st.port.clone().expect("initialised"),
            st.lwip.expect("initialised"),
        )
    };
    let state = match path {
        Some(path) => {
            let stat: Option<FileStat> = match port.stat(sys, &path)? {
                Ok(s) if !s.is_dir => Some(s),
                _ => None,
            };
            match stat {
                Some(stat) => {
                    let file_fd = port.open(sys, &path, flags::O_RDONLY)?;
                    if file_fd < 0 {
                        None
                    } else {
                        // Sendfile: window the file's pages to LWIP up
                        // front. An empty file, or any backend refusal
                        // (e.g. a file too large for the extent buffer),
                        // takes the staged pread copy instead.
                        let extents = if stat.size > 0 {
                            port.sendfile_map(sys, file_fd, lwip.cid())?.ok()
                        } else {
                            None
                        };
                        let head = format!(
                            "HTTP/1.0 200 OK\r\nServer: cubicle-nginx\r\nContent-Length: {}\r\nContent-Type: application/octet-stream\r\n\r\n",
                            stat.size
                        );
                        Some(ConnState::Sending {
                            file_fd,
                            offset: 0,
                            remaining: stat.size,
                            head: head.into_bytes(),
                            head_sent: 0,
                            extents,
                        })
                    }
                }
                None => None,
            }
        }
        None => None,
    };
    let state = state.unwrap_or_else(|| {
        component_mut::<Httpd>(this).not_found += 1;
        let body = "404 not found\n";
        let head = format!(
            "HTTP/1.0 404 Not Found\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        ConnState::Sending {
            file_fd: -1,
            offset: 0,
            remaining: 0,
            head: head.into_bytes(),
            head_sent: 0,
            extents: None,
        }
    });
    component_mut::<Httpd>(this).conns.insert(fd, state);
    Ok(1)
}

fn pump_response(
    sys: &mut System,
    this: &mut dyn Component,
    lwip: LwipProxy,
    fd: i64,
    io_buf: VAddr,
) -> Result<i64> {
    let port = {
        let st = component_mut::<Httpd>(this);
        st.port.clone().expect("initialised")
    };
    let mut progressed = 0i64;
    loop {
        let (head_chunk, file_fd, offset, remaining, extents) = {
            let st = component_mut::<Httpd>(this);
            let Some(ConnState::Sending {
                file_fd,
                offset,
                remaining,
                head,
                head_sent,
                extents,
            }) = st.conns.get_mut(&fd)
            else {
                return Ok(progressed);
            };
            (
                head[*head_sent..].to_vec(),
                *file_fd,
                *offset,
                *remaining,
                extents.clone(),
            )
        };
        if !head_chunk.is_empty() {
            if remaining > 0 && file_fd >= 0 && extents.is_none() {
                // Batched header+body: stage both in the io buffer and
                // hand them to the socket under one cross-call dispatch.
                let hn = head_chunk.len().min(IO_BUF / 2);
                sys.write(io_buf, &head_chunk[..hn])?;
                let body_buf = io_buf + hn;
                let body_cap = (IO_BUF - hn).min(remaining as usize);
                let n = port
                    .proxy()
                    .pread(sys, file_fd, body_buf, body_cap, offset)?
                    .max(0) as usize;
                let rs = lwip.send_batch(sys, fd, &[(io_buf, hn), (body_buf, n)])?;
                let h_acc = rs.first().copied().unwrap_or(0).max(0) as usize;
                // A short header accept exhausts the send space, so the
                // body element contributed nothing.
                let b_acc = if h_acc == hn {
                    rs.get(1).copied().unwrap_or(0).max(0) as usize
                } else {
                    0
                };
                let st = component_mut::<Httpd>(this);
                if let Some(ConnState::Sending {
                    head_sent,
                    offset,
                    remaining,
                    ..
                }) = st.conns.get_mut(&fd)
                {
                    *head_sent += h_acc;
                    *offset += b_acc as u64;
                    *remaining -= b_acc as u64;
                }
                progressed += 1;
                if h_acc < hn || b_acc < n {
                    return Ok(progressed); // flow control: resume next poll
                }
                continue;
            }
            // push header bytes through the io buffer
            let n = head_chunk.len().min(IO_BUF);
            sys.write(io_buf, &head_chunk[..n])?;
            let sent = lwip.send(sys, fd, io_buf, n)?;
            if sent == Errno::Ewouldblock.neg() {
                return Ok(progressed);
            }
            if sent < 0 {
                return Ok(progressed);
            }
            let st = component_mut::<Httpd>(this);
            if let Some(ConnState::Sending { head_sent, .. }) = st.conns.get_mut(&fd) {
                *head_sent += sent as usize;
            }
            progressed += 1;
            continue;
        }
        if remaining == 0 {
            // finished: release the file, FIN, access log, drain
            if extents.is_some() {
                port.sendfile_unmap(sys, file_fd)?;
            }
            if file_fd >= 0 {
                port.close(sys, file_fd)?;
            }
            let (time, plat, log_buf, served) = {
                let st = component_mut::<Httpd>(this);
                st.conns.insert(fd, ConnState::Draining);
                st.requests_served += 1;
                st.sendfile_served += u64::from(extents.is_some());
                (st.time, st.plat, st.log_buf, st.requests_served)
            };
            if let (Some(time), Some(plat)) = (time, plat) {
                let now = time.now_ns(sys)?;
                let line = format!("[{now}] request {served} on conn {fd} completed\n");
                sys.write(log_buf, line.as_bytes())?;
                plat.console_out(sys, log_buf, line.len())?;
            }
            lwip.close(sys, fd)?;
            return Ok(progressed + 1);
        }
        if let Some(ext) = &extents {
            // Zero-copy body: send straight from the file's own pages.
            let budget = remaining.min(SND_BUF as u64) as usize;
            let mut chunks: Vec<(VAddr, usize)> = Vec::new();
            let (mut pos, mut left) = (offset as usize, budget);
            while left > 0 {
                let (pi, po) = (pos / PAGE_SIZE, pos % PAGE_SIZE);
                let c = (PAGE_SIZE - po).min(left);
                chunks.push((ext[pi] + po, c));
                pos += c;
                left -= c;
            }
            let mut pushed = 0usize;
            for (r, &(_, c)) in lwip.send_batch(sys, fd, &chunks)?.iter().zip(&chunks) {
                if *r <= 0 {
                    break;
                }
                pushed += *r as usize;
                if (*r as usize) < c {
                    break;
                }
            }
            let st = component_mut::<Httpd>(this);
            if let Some(ConnState::Sending {
                offset, remaining, ..
            }) = st.conns.get_mut(&fd)
            {
                *offset += pushed as u64;
                *remaining -= pushed as u64;
            }
            if pushed == 0 {
                return Ok(progressed); // send buffer full
            }
            progressed += 1;
            if pushed < budget {
                return Ok(progressed); // flow control: resume next poll
            }
            continue;
        }
        // staged loop: VFS pread into the buffer, socket send out
        let chunk = remaining.min(IO_BUF as u64) as usize;
        let n = port.proxy().pread(sys, file_fd, io_buf, chunk, offset)?;
        if n <= 0 {
            // truncated file: release it and bail out
            port.close(sys, file_fd)?;
            let st = component_mut::<Httpd>(this);
            st.conns.insert(fd, ConnState::Draining);
            lwip.close(sys, fd)?;
            return Ok(progressed);
        }
        let mut pushed = 0usize;
        while pushed < n as usize {
            let sent = lwip.send(sys, fd, io_buf + pushed, n as usize - pushed)?;
            if sent <= 0 {
                break; // send buffer full: register partial progress
            }
            pushed += sent as usize;
        }
        let st = component_mut::<Httpd>(this);
        if let Some(ConnState::Sending {
            offset, remaining, ..
        }) = st.conns.get_mut(&fd)
        {
            *offset += pushed as u64;
            *remaining -= pushed as u64;
        }
        progressed += 1;
        if pushed < n as usize {
            return Ok(progressed); // flow control: resume next poll
        }
    }
}

fn parse_get_path(request: &str) -> Option<String> {
    let line = request.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    if !path.starts_with('/') {
        return None;
    }
    Some(path.to_string())
}

/// Typed proxy for the server's entry points.
#[derive(Clone, Copy, Debug)]
pub struct HttpdProxy {
    cid: CubicleId,
    init: EntryId,
    poll: EntryId,
}

impl HttpdProxy {
    /// Resolves the proxy from the loaded component.
    ///
    /// # Errors
    ///
    /// [`cubicle_core::CubicleError::NoSuchEntry`] when the image does
    /// not export the expected symbols.
    pub fn resolve(loaded: &LoadedComponent) -> Result<HttpdProxy> {
        Ok(HttpdProxy {
            cid: loaded.cid,
            init: loaded.entry("nginx_init")?,
            poll: loaded.entry("nginx_poll")?,
        })
    }

    /// The `NGINX` cubicle's ID.
    pub fn cid(&self) -> CubicleId {
        self.cid
    }

    /// `nginx_init(port)`.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn init(&self, sys: &mut System, port: u16) -> Result<i64> {
        Ok(sys
            .cross_call(self.init, &[Value::I64(i64::from(port))])?
            .as_i64())
    }

    /// `nginx_poll()` — one event-loop iteration.
    ///
    /// # Errors
    ///
    /// Kernel errors from the cross-cubicle call.
    pub fn poll(&self, sys: &mut System) -> Result<i64> {
        Ok(sys.cross_call(self.poll, &[])?.as_i64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_path_parsing() {
        assert_eq!(
            parse_get_path("GET /index.html HTTP/1.0\r\n\r\n"),
            Some("/index.html".into())
        );
        assert_eq!(parse_get_path("POST /x HTTP/1.0\r\n\r\n"), None);
        assert_eq!(parse_get_path("GET noslash HTTP/1.0\r\n\r\n"), None);
        assert_eq!(parse_get_path(""), None);
    }
}
