//! # cubicle-httpd — the NGINX-like web server
//!
//! The I/O-intensive application of the paper's evaluation (§6.3): a
//! static-file HTTP server running as a cubicle on the full 8-partition
//! CubicleOS deployment of Figure 5 (`NGINX`, `LWIP`, `NETDEV`,
//! `VFSCORE`, `RAMFS`, `PLAT`, `ALLOC`, `TIME`, plus the shared `LIBC`).
//!
//! [`boot_web`] assembles the deployment, [`WebDeployment::fetch`] plays
//! the role of the `siege` load generator, and Figure 7 (download
//! latency vs file size) is regenerated by the `fig07_nginx_latency`
//! bench target.

mod driver;
mod server;

pub use driver::{boot_web, HttpResponse, WebConfig, WebDeployment, HTTP_PORT};
pub use server::{image, Httpd, HttpdProxy, IO_BUF};
