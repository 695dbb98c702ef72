//! Deployment boot and a siege-like load driver (paper §6.3).

use crate::server::{image as nginx_image, Httpd, HttpdProxy};
use cubicle_core::{CubicleError, CubicleId, Result, System, SystemConfig};
use cubicle_net::{boot_net, NetStack, SimClient, WireModel};
use cubicle_ramfs::{mount_at, Ramfs};
use cubicle_ukbase::{boot_base, BaseSystem};
use cubicle_vfs::{flags, Vfs, VfsPort, VfsProxy};

/// The fully booted NGINX deployment: the 8-partition component graph of
/// Figure 5 (NGINX, LWIP, NETDEV, VFSCORE, RAMFS, PLAT, ALLOC, TIME +
/// shared LIBC).
pub struct WebDeployment {
    /// The kernel.
    pub sys: System,
    /// Server entry points.
    pub httpd: HttpdProxy,
    /// Network stack handles.
    pub net: NetStack,
    /// Base services.
    pub base: BaseSystem,
    /// `VFSCORE` proxy (for file population).
    pub vfs: VfsProxy,
    /// `VFSCORE`'s cubicle (the RAMFS journal's custodian).
    pub vfs_cid: CubicleId,
    /// Registry slot of `VFSCORE` (statistics).
    pub vfs_slot: usize,
    /// The file-system backend cubicle.
    pub ramfs_cid: CubicleId,
    /// Registry slot of the file-system backend (journal wiring).
    pub ramfs_slot: usize,
    /// Registry slot of the server (statistics).
    pub httpd_slot: usize,
    next_client_port: u16,
}

/// HTTP server port used by the deployment.
pub const HTTP_PORT: u16 = 80;

/// Boots the full web deployment on a kernel built with `config` — an
/// [`cubicle_core::IsolationMode`] alone, or a full [`SystemConfig`].
///
/// # Errors
///
/// Loader or initialisation failures.
pub fn boot_web(config: impl Into<SystemConfig>) -> Result<WebDeployment> {
    let mut sys = System::new(config);
    let base = boot_base(&mut sys)?;
    let vfs_loaded = sys.load(cubicle_vfs::image(), Box::new(Vfs::default()))?;
    let ramfs_loaded = sys.load(cubicle_ramfs::image(), Box::new(Ramfs::default()))?;
    sys.with_component_mut::<Ramfs, _>(ramfs_loaded.slot, |fs, _| fs.set_alloc(base.alloc))
        .expect("ramfs slot");
    mount_at(&mut sys, vfs_loaded.slot, &ramfs_loaded, "/")?;
    let net = boot_net(&mut sys)?;
    let vfs = VfsProxy::resolve(&vfs_loaded)?;

    let nginx_loaded = sys.load(nginx_image(), Box::new(Httpd::default()))?;
    let httpd = HttpdProxy::resolve(&nginx_loaded)?;
    let ramfs_cid = ramfs_loaded.cid;
    sys.with_component_mut::<Httpd, _>(nginx_loaded.slot, |h, _| {
        h.set_wiring(net.lwip, vfs, &[ramfs_cid]);
        h.set_observability(base.time, base.plat);
    })
    .expect("nginx slot");
    sys.with_component_mut::<cubicle_net::Lwip, _>(net.lwip_slot, |l, _| l.set_alloc(base.alloc))
        .expect("lwip slot");
    let r = httpd.init(&mut sys, HTTP_PORT)?;
    if r != 0 {
        return Err(CubicleError::Component(format!("nginx_init failed: {r}")));
    }
    sys.mark_boot_complete();
    Ok(WebDeployment {
        sys,
        httpd,
        net,
        base,
        vfs,
        vfs_cid: vfs_loaded.cid,
        vfs_slot: vfs_loaded.slot,
        ramfs_cid,
        ramfs_slot: ramfs_loaded.slot,
        httpd_slot: nginx_loaded.slot,
        next_client_port: 40_000,
    })
}

impl WebDeployment {
    /// Wires a crash-surviving inode journal into `RAMFS`, custodied by
    /// `VFSCORE`: after this, a quarantined-and-microrebooted `RAMFS`
    /// replays its namespace instead of coming back empty, and NGINX
    /// keeps serving pre-crash content without re-population.
    ///
    /// # Errors
    ///
    /// Kernel errors from the allocation, window or format path.
    pub fn enable_ramfs_journal(&mut self, pages: usize) -> Result<cubicle_mpk::VAddr> {
        cubicle_ramfs::install_journal(
            &mut self.sys,
            self.vfs_cid,
            self.ramfs_cid,
            self.ramfs_slot,
            pages,
        )
    }

    /// Creates a file in the document root (runs in the server cubicle,
    /// like an admin populating the image).
    ///
    /// # Errors
    ///
    /// File system errors.
    pub fn put_file(&mut self, path: &str, contents: &[u8]) -> Result<()> {
        let (vfs, ramfs, nginx) = (self.vfs, self.ramfs_cid, self.httpd.cid());
        let path = path.to_string();
        let contents = contents.to_vec();
        self.sys.run_in_cubicle(nginx, move |sys| {
            let port = VfsPort::new(sys, vfs, &[ramfs])?;
            let fd = port.open(sys, &path, flags::O_CREAT | flags::O_RDWR | flags::O_TRUNC)?;
            if fd < 0 {
                return Err(CubicleError::Component(format!("open {path}: {fd}")));
            }
            // write in buffer-sized chunks
            let buf = sys.heap_alloc(32 * 1024, 4096)?;
            let mut off = 0usize;
            while off < contents.len() {
                let chunk = (contents.len() - off).min(32 * 1024);
                sys.write(buf, &contents[off..off + chunk])?;
                let n = port.pwrite(sys, fd, buf, chunk, off as u64)?;
                if n <= 0 {
                    return Err(CubicleError::Component(format!("pwrite: {n}")));
                }
                off += n as usize;
            }
            port.close(sys, fd)?;
            sys.heap_free(buf)?;
            Ok(())
        })
    }

    /// Issues one HTTP GET and returns `(latency_cycles, response)`.
    /// The latency clock covers the whole exchange: connection setup,
    /// request, response streaming, FIN — like the paper's measured
    /// download latency.
    ///
    /// # Errors
    ///
    /// [`CubicleError::Component`] when the exchange stalls.
    pub fn fetch(&mut self, path: &str, wire: WireModel) -> Result<(u64, HttpResponse)> {
        let port = self.next_client_port;
        self.next_client_port += 1;
        let mut client = SimClient::new(self.net.netdev_slot, port, HTTP_PORT, wire);
        client.send(format!("GET {path} HTTP/1.0\r\nHost: cubicle\r\n\r\n").as_bytes());
        let t0 = self.sys.now();
        // client-side per-request work (load generator, connect path)
        self.sys.charge(wire.request_overhead_cycles);
        // Event loop: alternate the external client and the server until
        // the server closes the connection.
        let mut idle_rounds = 0;
        for _ in 0..100_000 {
            client.pump(&mut self.sys);
            if client.fin_seen() {
                break;
            }
            let progressed = self.httpd.poll(&mut self.sys)?;
            if progressed == 0 {
                idle_rounds += 1;
                if idle_rounds > 64 {
                    return Err(CubicleError::Component(format!(
                        "fetch of {path} stalled after {} bytes",
                        client.received.len()
                    )));
                }
            } else {
                idle_rounds = 0;
            }
        }
        if !client.fin_seen() {
            return Err(CubicleError::Component(format!(
                "fetch of {path} never finished"
            )));
        }
        let latency = self.sys.now() - t0;
        let response = HttpResponse::parse(&client.received)
            .ok_or_else(|| CubicleError::Component("malformed HTTP response".into()))?;
        Ok((latency, response))
    }
}

/// A parsed HTTP response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Parses status line + headers + body.
    pub fn parse(raw: &[u8]) -> Option<HttpResponse> {
        let header_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&raw[..header_end]).ok()?;
        let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
        Some(HttpResponse {
            status,
            body: raw[header_end..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing() {
        let raw = b"HTTP/1.0 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let r = HttpResponse::parse(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"hello");
        assert!(HttpResponse::parse(b"garbage").is_none());
    }
}
