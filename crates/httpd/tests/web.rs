//! End-to-end HTTP tests over the full 8-partition deployment.

use cubicle_core::IsolationMode;
use cubicle_httpd::{boot_web, WebDeployment};
use cubicle_net::WireModel;

fn fast_wire() -> WireModel {
    WireModel {
        hop_cycles: 2_000,
        per_byte_cycles: 1,
        request_overhead_cycles: 0,
    }
}

fn served(dep: &mut WebDeployment) -> u64 {
    dep.sys
        .with_component_mut::<cubicle_httpd::Httpd, _>(dep.httpd_slot, |h, _| h.requests_served)
        .unwrap()
}

#[test]
fn serves_a_small_file() {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.put_file("/hello.html", b"<h1>cubicles</h1>").unwrap();
    let (latency, resp) = dep.fetch("/hello.html", fast_wire()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"<h1>cubicles</h1>");
    assert!(latency > 0);
    assert_eq!(served(&mut dep), 1);
}

#[test]
fn serves_large_files_across_many_segments() {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    let content: Vec<u8> = (0..300_000u32).map(|i| (i % 253) as u8).collect();
    dep.put_file("/big.bin", &content).unwrap();
    let (_lat, resp) = dep.fetch("/big.bin", fast_wire()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body.len(), content.len());
    assert_eq!(resp.body, content);
}

#[test]
fn missing_file_is_404() {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    let (_lat, resp) = dep.fetch("/nope.html", fast_wire()).unwrap();
    assert_eq!(resp.status, 404);
}

#[test]
fn sequential_requests_reuse_the_stack() {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    for i in 0..5 {
        dep.put_file(&format!("/f{i}.txt"), format!("content {i}").as_bytes())
            .unwrap();
    }
    for i in 0..5 {
        let (_lat, resp) = dep.fetch(&format!("/f{i}.txt"), fast_wire()).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, format!("content {i}").as_bytes());
    }
    assert_eq!(served(&mut dep), 5);
    assert_eq!(
        dep.sys.stats().faults_denied,
        0,
        "no isolation violations while serving"
    );
}

#[test]
fn works_in_all_isolation_modes() {
    for mode in [
        IsolationMode::Unikraft,
        IsolationMode::NoMpk,
        IsolationMode::NoAcl,
        IsolationMode::Full,
    ] {
        let mut dep = boot_web(mode).unwrap();
        dep.put_file("/x", b"same bytes in every mode").unwrap();
        let (_lat, resp) = dep.fetch("/x", fast_wire()).unwrap();
        assert_eq!(resp.status, 200, "{mode:?}");
        assert_eq!(resp.body, b"same bytes in every mode", "{mode:?}");
    }
}

#[test]
fn isolation_slows_downloads_monotonically() {
    // Figure 7's premise: the same download costs more under CubicleOS.
    let content = vec![0xAAu8; 128 * 1024];
    let mut latencies = Vec::new();
    for mode in [IsolationMode::Unikraft, IsolationMode::Full] {
        let mut dep = boot_web(mode).unwrap();
        dep.put_file("/payload", &content).unwrap();
        let (lat, resp) = dep.fetch("/payload", fast_wire()).unwrap();
        assert_eq!(resp.body.len(), content.len());
        latencies.push(lat);
    }
    assert!(
        latencies[1] > latencies[0],
        "CubicleOS ({}) must be slower than Unikraft ({})",
        latencies[1],
        latencies[0]
    );
}

#[test]
fn figure5_component_graph() {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.put_file("/f", &vec![1u8; 100_000]).unwrap();
    dep.sys.mark_boot_complete(); // measure the request only
    dep.fetch("/f", fast_wire()).unwrap();
    let sys = &dep.sys;
    let (_, stats) = sys.since_boot();
    let nginx = sys.find_cubicle("NGINX").unwrap();
    let lwip = sys.find_cubicle("LWIP").unwrap();
    let netdev = sys.find_cubicle("NETDEV").unwrap();
    let vfs = sys.find_cubicle("VFSCORE").unwrap();
    let ramfs = sys.find_cubicle("RAMFS").unwrap();
    // the Figure 5 edges, all active:
    assert!(stats.edge(nginx, lwip) > 0);
    assert!(stats.edge(lwip, netdev) > 0);
    assert!(stats.edge(nginx, vfs) > 0);
    assert!(stats.edge(vfs, ramfs) > 0);
    // and the forbidden shortcuts, all absent:
    assert_eq!(stats.edge(nginx, netdev), 0);
    assert_eq!(stats.edge(nginx, ramfs), 0);
    assert_eq!(stats.edge(lwip, ramfs), 0);
    // LWIP→NETDEV dominates NGINX→LWIP (segmentation fan-out, Fig. 5)
    assert!(stats.edge(lwip, netdev) > stats.edge(nginx, lwip));
}

// ---------------------------------------------------------------------------
// Response paths: batching, the grant cache, sendfile and the copy fallback
// ---------------------------------------------------------------------------

fn sendfile_served(dep: &mut WebDeployment) -> u64 {
    dep.sys
        .with_component_mut::<cubicle_httpd::Httpd, _>(dep.httpd_slot, |h, _| h.sendfile_served)
        .unwrap()
}

fn open_fds(dep: &mut WebDeployment) -> usize {
    dep.sys
        .with_component_mut::<cubicle_vfs::Vfs, _>(dep.vfs_slot, |v, _| v.open_fds())
        .unwrap()
}

#[test]
fn default_fetch_batches_hits_the_grant_cache_and_sends_from_file_pages() {
    let content: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.put_file("/f.bin", &content).unwrap();
    let (_l, got) = dep.fetch("/f.bin", fast_wire()).unwrap();
    assert_eq!(got.status, 200);
    assert_eq!(got.body, content);
    let s = dep.sys.stats();
    assert!(s.batch_dispatches > 0, "TX batching must engage");
    assert!(s.grant_cache_hits > 0, "the grant cache must engage");
    assert_eq!(sendfile_served(&mut dep), 1, "the body left via sendfile");
    dep.sys.audit().assert_clean("default fetch");
}

#[test]
fn empty_and_unmappable_files_take_the_copy_fallback() {
    // A file with more extent pages than the extent buffer holds
    // addresses: the backend refuses the sendfile map.
    let pages = cubicle_vfs::SENDFILE_EXTENT_BUF / 8 + 1;
    let big: Vec<u8> = (0..pages * 4096).map(|i| (i % 251) as u8).collect();
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.put_file("/empty", b"").unwrap();
    dep.put_file("/big.bin", &big).unwrap();
    let (_l, r) = dep.fetch("/empty", fast_wire()).unwrap();
    assert_eq!((r.status, r.body.len()), (200, 0));
    let (_l, r) = dep.fetch("/big.bin", fast_wire()).unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body == big, "the copy fallback serves identical bytes");
    assert_eq!(served(&mut dep), 2);
    assert_eq!(sendfile_served(&mut dep), 0, "neither body used sendfile");
    dep.sys.audit().assert_clean("copy fallback");
}

#[test]
fn mixed_requests_and_small_files() {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.put_file("/tiny.txt", b"x").unwrap();
    dep.put_file("/page.html", b"<p>hello</p>").unwrap();
    for _ in 0..3 {
        let (_l, r) = dep.fetch("/tiny.txt", fast_wire()).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, b"x".as_slice()));
        let (_l, r) = dep.fetch("/page.html", fast_wire()).unwrap();
        assert_eq!(r.body, b"<p>hello</p>");
        let (_l, r) = dep.fetch("/gone", fast_wire()).unwrap();
        assert_eq!(r.status, 404);
    }
    dep.sys.audit().assert_clean("after mixed requests");
}

#[test]
fn more_requests_than_descriptors_on_one_boot() {
    // Every served file is closed when its response completes, so one
    // boot outlives the VFS descriptor table.
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    dep.put_file("/a", b"alpha").unwrap();
    let baseline = open_fds(&mut dep);
    let requests = cubicle_vfs::MAX_FDS + 8;
    for i in 0..requests {
        let (_l, r) = dep.fetch("/a", fast_wire()).unwrap();
        assert_eq!(
            (r.status, r.body.as_slice()),
            (200, b"alpha".as_slice()),
            "request {i}"
        );
    }
    assert_eq!(served(&mut dep), requests as u64);
    assert_eq!(
        open_fds(&mut dep),
        baseline,
        "no descriptor outlives its response"
    );
}

#[test]
fn sendfile_map_is_revoked_when_the_file_changes() {
    let mut dep = boot_web(IsolationMode::Full).unwrap();
    let v1: Vec<u8> = vec![0xAA; 100_000];
    dep.put_file("/data.bin", &v1).unwrap();
    let (_l, r) = dep.fetch("/data.bin", fast_wire()).unwrap();
    assert_eq!(r.body, v1);
    // Rewrite the file (the extent set changes): stale sendfile windows
    // are revoked and the next fetch maps the new extents.
    let v2: Vec<u8> = vec![0x55; 150_000];
    dep.put_file("/data.bin", &v2).unwrap();
    let (_l, r) = dep.fetch("/data.bin", fast_wire()).unwrap();
    assert_eq!(r.body, v2, "fetch after rewrite serves the new bytes");
    dep.sys.audit().assert_clean("after sendfile revocation");
}
