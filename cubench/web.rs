//! NGINX sessions: boot the Figure 5 deployment, populate the document
//! root, then GET files one at a time from a host-side client.

use crate::measure::{self, err, Counters, Leg, Sample, TraceOut, TraceTo};
use crate::workload::WebFile;
use cubicle_core::{CubicleId, IsolationMode, System};
use cubicle_httpd::{boot_web, HttpResponse, WebDeployment, HTTP_PORT};
use cubicle_net::{SimClient, WireModel};
use cubicle_vfs::VfsPort;
use std::time::Instant;

/// First client port of a boot (as `WebDeployment` numbers them).
const FIRST_CLIENT_PORT: u16 = 40_000;

/// Host and simulated time a fetch spent on each side of the wire.
#[derive(Clone, Copy, Debug, Default)]
pub struct Split {
    pub server_ns: u64,
    pub server_cycles: u64,
    pub polls: u64,
    pub client_ns: u64,
}

/// One GET over a fresh connection, as `WebDeployment::fetch` plays it
/// (same client, wire model, event loop and stall rule), with the
/// server's `nginx_poll` and the client's `pump` timed apart. Returns
/// the simulated latency, which is measured even when the exchange
/// fails.
pub fn fetch(
    dep: &mut WebDeployment,
    client_port: u16,
    path: &str,
    split: &mut Split,
) -> (u64, Result<HttpResponse, String>) {
    let wire = WireModel::default();
    let mut client = SimClient::new(dep.net.netdev_slot, client_port, HTTP_PORT, wire);
    client.send(format!("GET {path} HTTP/1.0\r\nHost: cubicle\r\n\r\n").as_bytes());
    let t0 = dep.sys.now();
    dep.sys.charge(wire.request_overhead_cycles);
    let result = exchange(dep, &mut client, path, split);
    let latency = dep.sys.now() - t0;
    let response = result.and_then(|()| {
        HttpResponse::parse(&client.received).ok_or_else(|| "malformed HTTP response".to_string())
    });
    (latency, response)
}

fn exchange(
    dep: &mut WebDeployment,
    client: &mut SimClient,
    path: &str,
    split: &mut Split,
) -> Result<(), String> {
    let mut idle_rounds = 0;
    for _ in 0..100_000 {
        let h = Instant::now();
        client.pump(&mut dep.sys);
        split.client_ns += h.elapsed().as_nanos() as u64;
        if client.fin_seen() {
            return Ok(());
        }
        let (h, c) = (Instant::now(), dep.sys.now());
        let progressed = dep.httpd.poll(&mut dep.sys).map_err(err)?;
        split.server_ns += h.elapsed().as_nanos() as u64;
        split.server_cycles += dep.sys.now() - c;
        split.polls += 1;
        if progressed == 0 {
            idle_rounds += 1;
            if idle_rounds > 64 {
                return Err(format!(
                    "fetch of {path} stalled after {} bytes",
                    client.received.len()
                ));
            }
        } else {
            idle_rounds = 0;
        }
    }
    Err(format!("fetch of {path} never finished"))
}

/// Boots a deployment with `files` in its document root, plus the port
/// the fd probe opens files through from inside `NGINX`.
fn boot(mode: IsolationMode, files: &[WebFile]) -> Result<(WebDeployment, VfsPort), String> {
    let mut dep = boot_web(mode).map_err(err)?;
    for f in files {
        dep.put_file(&f.path, &f.body).map_err(err)?;
    }
    let (nginx, vfs, ramfs) = (dep.httpd.cid(), dep.vfs, dep.ramfs_cid);
    let port = dep
        .sys
        .run_in_cubicle(nginx, |sys: &mut System| VfsPort::new(sys, vfs, &[ramfs]))
        .map_err(err)?;
    Ok((dep, port))
}

/// One boot serving `requests` (indices into `files`), appended to `leg`;
/// with `trace`, run traced.
pub fn session(
    mode: IsolationMode,
    files: &[WebFile],
    requests: &[usize],
    leg: &mut Leg,
    trace: Option<TraceTo>,
) -> Result<Option<TraceOut>, String> {
    let label = format!("{mode:?} NGINX session");
    let setup = Instant::now();
    let (mut dep, port) = boot(mode, files)?;
    leg.setup_ns.push(setup.elapsed().as_nanos() as u64);
    let nginx = dep.httpd.cid();
    let fd_before = measure::probe_fd(&mut dep.sys, nginx, &port)?;
    let ledger = trace.map(|_| measure::trace_begin(&mut dep.sys));

    let from = leg.samples.len();
    let before = Counters::read(&dep.sys, None);
    let start = dep.sys.now();
    let mut split = Split::default();
    for (i, &fi) in requests.iter().enumerate() {
        let file = &files[fi];
        let h = Instant::now();
        let (cycles, response) = fetch(
            &mut dep,
            FIRST_CLIENT_PORT + i as u16,
            &file.path,
            &mut split,
        );
        let host_ns = h.elapsed().as_nanos() as u64;
        let ok = matches!(&response, Ok(r) if r.status == 200 && r.body == file.body);
        if !ok {
            leg.failed += 1;
        }
        leg.samples.push(Sample {
            kind: (fi / crate::workload::FILES_PER_CLASS) as u8,
            cycles,
            host_ns,
        });
    }
    let elapsed = dep.sys.now() - start;
    leg.check_bracketed(from, elapsed)?;
    leg.counters
        .add(&Counters::read(&dep.sys, None).since(&before));
    leg.server_ns += split.server_ns;
    leg.server_cycles += split.server_cycles;
    leg.server_calls += split.polls;
    leg.client_ns += split.client_ns;

    // the fetch loop drives the server from the monitor's context
    let traced = match (trace, ledger) {
        (Some(to), Some(ledger)) => Some(measure::trace_end(
            &mut dep.sys,
            &ledger,
            CubicleId::MONITOR,
            elapsed,
            to,
        )?),
        _ => None,
    };
    let fd_after = measure::probe_fd(&mut dep.sys, nginx, &port)?;
    leg.fds_leaked += fd_after - fd_before;
    cubicle_bench::report::audit_gate(&dep.sys, &label);
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::web_files;

    #[test]
    fn fetch_matches_web_deployment_fetch() {
        let files = web_files(3, &[1024, 4096, 16384]);
        let file = &files[5];
        let mut reference = boot_web(IsolationMode::Full).unwrap();
        reference.put_file(&file.path, &file.body).unwrap();
        let (want, want_resp) = reference.fetch(&file.path, WireModel::default()).unwrap();

        let mut dep = boot_web(IsolationMode::Full).unwrap();
        dep.put_file(&file.path, &file.body).unwrap();
        let mut split = Split::default();
        let (got, resp) = fetch(&mut dep, FIRST_CLIENT_PORT, &file.path, &mut split);
        assert_eq!(got, want, "same simulated latency as WebDeployment::fetch");
        assert_eq!(resp.unwrap(), want_resp);
        assert_eq!(want_resp.body, file.body);
        assert!(split.polls > 0 && split.server_cycles > 0 && split.server_cycles < got);
    }
}
