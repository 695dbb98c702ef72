//! End-to-end TCP tests: external client ⇄ NETDEV ⇄ LWIP ⇄ application,
//! across real windows.

use cubicle_core::{impl_component, ComponentImage, CubicleId, IsolationMode, System, WindowId};
use cubicle_mpk::insn::CodeImage;
use cubicle_mpk::VAddr;
use cubicle_net::{boot_net, Lwip, NetStack, SimClient, WireModel, MSS, SND_BUF};

struct App;
impl_component!(App);

struct Net {
    sys: System,
    stack: NetStack,
    app: CubicleId,
}

fn boot(mode: IsolationMode) -> Net {
    let mut sys = System::new(mode);
    let stack = boot_net(&mut sys).unwrap();
    let app = sys
        .load(
            ComponentImage::new("APP", CodeImage::plain(8 * 1024)).heap_pages(64),
            Box::new(App),
        )
        .unwrap();
    sys.mark_boot_complete();
    Net {
        sys,
        stack,
        app: app.cid,
    }
}

/// App-side I/O buffer with a persistent window open for LWIP.
fn app_buffer(sys: &mut System, lwip: CubicleId, len: usize) -> (VAddr, WindowId) {
    let buf = sys.heap_alloc(len, 4096).unwrap();
    let wid = sys.window_init();
    sys.window_add(wid, buf, len).unwrap();
    sys.window_open(wid, lwip).unwrap();
    (buf, wid)
}

fn client(net: &Net, port: u16) -> SimClient {
    SimClient::new(
        net.stack.netdev_slot,
        49_152,
        port,
        WireModel {
            hop_cycles: 1_000,
            per_byte_cycles: 1,
            request_overhead_cycles: 0,
        },
    )
}

#[test]
fn handshake_establishes() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let listener = net.sys.run_in_cubicle(app, |sys| {
        let fd = stack.lwip.socket(sys).unwrap();
        assert_eq!(stack.lwip.bind(sys, fd, 80).unwrap(), 0);
        assert_eq!(stack.lwip.listen(sys, fd).unwrap(), 0);
        fd
    });
    let mut cl = client(&net, 80);
    cl.pump(&mut net.sys); // SYN out
    net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap(); // SYN in, SYN/ACK out
    });
    cl.pump(&mut net.sys); // SYN/ACK in, ACK out
    assert!(cl.is_established());
    let conn = net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap(); // ACK in → backlog
        stack.lwip.accept(sys, listener).unwrap()
    });
    assert!(conn >= 0, "accept returned {conn}");
}

fn establish(net: &mut Net, port: u16) -> (SimClient, i64) {
    let (stack, app) = (net.stack, net.app);
    let listener = net.sys.run_in_cubicle(app, |sys| {
        let fd = stack.lwip.socket(sys).unwrap();
        stack.lwip.bind(sys, fd, port).unwrap();
        stack.lwip.listen(sys, fd).unwrap();
        fd
    });
    let mut cl = client(net, port);
    cl.pump(&mut net.sys);
    net.sys
        .run_in_cubicle(app, |sys| stack.lwip.poll(sys).unwrap());
    cl.pump(&mut net.sys);
    let conn = net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap();
        stack.lwip.accept(sys, listener).unwrap()
    });
    assert!(conn >= 0);
    (cl, conn)
}

#[test]
fn request_bytes_reach_the_app() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let (mut cl, conn) = establish(&mut net, 80);
    cl.send(b"GET /index.html HTTP/1.0\r\n\r\n");
    cl.pump(&mut net.sys);
    let got = net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap();
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), 4096);
        let n = stack.lwip.recv(sys, conn, buf, 4096).unwrap();
        assert!(n > 0, "recv returned {n}");
        sys.read_vec(buf, n as usize).unwrap()
    });
    assert_eq!(got, b"GET /index.html HTTP/1.0\r\n\r\n");
}

#[test]
fn response_streams_back_with_segmentation() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let (mut cl, conn) = establish(&mut net, 80);
    // server sends 10 KiB: must arrive segmented at MSS and reassembled
    let payload: Vec<u8> = (0..10_240u32).map(|i| (i % 251) as u8).collect();
    let total = payload.len();
    net.sys.run_in_cubicle(app, |sys| {
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), total);
        sys.write(buf, &payload).unwrap();
        let mut off = 0usize;
        while off < total {
            let n = stack.lwip.send(sys, conn, buf + off, total - off).unwrap();
            assert!(n > 0);
            off += n as usize;
        }
        stack.lwip.poll(sys).unwrap();
    });
    // ack-clocked rounds until everything arrives
    for _ in 0..64 {
        cl.pump(&mut net.sys);
        if cl.received.len() >= total {
            break;
        }
        net.sys
            .run_in_cubicle(app, |sys| stack.lwip.poll(sys).unwrap());
    }
    assert_eq!(cl.received, payload);
    // segmentation really happened
    let tx = net
        .sys
        .with_component_mut::<Lwip, _>(net.stack.lwip_slot, |l, _| l.segments_tx)
        .unwrap();
    assert!(
        tx as usize >= total / MSS,
        "at least ⌈10KiB/MSS⌉ data segments"
    );
}

#[test]
fn send_buffer_is_bounded_at_64k() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let (mut cl, conn) = establish(&mut net, 80);
    cl.set_window(0); // peer advertises zero window: nothing can leave
    cl.pump(&mut net.sys);
    net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap();
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), SND_BUF + 4096);
        // the stack accepts at most SND_BUF bytes, then EWOULDBLOCK
        let mut accepted = 0usize;
        loop {
            let n = stack
                .lwip
                .send(sys, conn, buf, SND_BUF + 4096 - accepted)
                .unwrap();
            if n < 0 {
                assert_eq!(n, cubicle_core::Errno::Ewouldblock.neg());
                break;
            }
            accepted += n as usize;
            assert!(accepted <= SND_BUF, "send buffer overflow: {accepted}");
        }
        assert_eq!(accepted, SND_BUF, "exactly TCP_SND_BUF bytes fit");
    });
}

#[test]
fn fin_closes_cleanly() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let (mut cl, conn) = establish(&mut net, 80);
    net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.close(sys, conn).unwrap();
        stack.lwip.poll(sys).unwrap();
    });
    cl.pump(&mut net.sys);
    assert!(cl.fin_seen(), "server FIN must reach the client");
}

#[test]
fn recv_without_window_is_refused() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let (mut cl, conn) = establish(&mut net, 80);
    cl.send(b"data");
    cl.pump(&mut net.sys);
    let r = net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap();
        let buf = sys.heap_alloc(64, 8).unwrap(); // no window!
        stack.lwip.recv(sys, conn, buf, 64).unwrap()
    });
    assert_eq!(r, cubicle_core::Errno::Eacces.neg());
    // and with a window the same bytes are still there (stack put them back)
    let got = net.sys.run_in_cubicle(app, |sys| {
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), 64);
        let n = stack.lwip.recv(sys, conn, buf, 64).unwrap();
        sys.read_vec(buf, n as usize).unwrap()
    });
    assert_eq!(got, b"data");
}

#[test]
fn figure5_edges_exist() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let (mut cl, conn) = establish(&mut net, 80);
    let payload = vec![7u8; 50_000];
    net.sys.run_in_cubicle(app, |sys| {
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), payload.len());
        sys.write(buf, &payload).unwrap();
        let mut off = 0;
        while off < payload.len() {
            let n = stack
                .lwip
                .send(sys, conn, buf + off, payload.len() - off)
                .unwrap();
            if n <= 0 {
                break;
            }
            off += n as usize;
        }
        stack.lwip.poll(sys).unwrap();
    });
    for _ in 0..64 {
        cl.pump(&mut net.sys);
        if cl.received.len() >= payload.len() {
            break;
        }
        net.sys
            .run_in_cubicle(app, |sys| stack.lwip.poll(sys).unwrap());
    }
    assert_eq!(cl.received.len(), payload.len());
    let sys = &net.sys;
    let (_, stats) = sys.since_boot();
    let lwip = sys.find_cubicle("LWIP").unwrap();
    let netdev = sys.find_cubicle("NETDEV").unwrap();
    // Figure 5 shape: APP→LWIP and LWIP→NETDEV are the hot edges; the
    // app never touches the device directly.
    assert!(
        stats.edge(net.app, lwip) > 5,
        "got {}",
        stats.edge(net.app, lwip)
    );
    // One device call per segment; a TX burst crosses as one batch.
    let device_calls = stats.edge(lwip, netdev) - stats.batch_dispatches + stats.batched_calls;
    assert!(
        device_calls > 30,
        "one device call per segment, got {device_calls}"
    );
    assert_eq!(stats.edge(net.app, netdev), 0);
    assert!(
        stats.edge(lwip, netdev) > stats.edge(net.app, lwip),
        "segmentation multiplies calls downstream (Fig. 5: 1.9M vs 56k)"
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
        let mut net = boot(mode);
        let (stack, app) = (net.stack, net.app);
        let (mut cl, conn) = establish(&mut net, 80);
        cl.send(b"ping");
        cl.pump(&mut net.sys);
        net.sys.run_in_cubicle(app, |sys| {
            stack.lwip.poll(sys).unwrap();
            let (buf, _w) = app_buffer(sys, stack.lwip.cid(), 64);
            let n = stack.lwip.recv(sys, conn, buf, 64).unwrap();
            assert_eq!(n, 4, "{mode:?}");
            // echo
            let m = stack.lwip.send(sys, conn, buf, 4).unwrap();
            assert_eq!(m, 4, "{mode:?}");
            stack.lwip.poll(sys).unwrap();
        });
        cl.pump(&mut net.sys);
        assert_eq!(cl.received, b"ping", "{mode:?}");
    }
}

#[test]
fn double_bind_is_eaddrinuse() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    net.sys.run_in_cubicle(app, |sys| {
        let a = stack.lwip.socket(sys).unwrap();
        assert_eq!(stack.lwip.bind(sys, a, 8080).unwrap(), 0);
        let b = stack.lwip.socket(sys).unwrap();
        assert_eq!(
            stack.lwip.bind(sys, b, 8080).unwrap(),
            cubicle_core::Errno::Eaddrinuse.neg()
        );
    });
}

#[test]
fn socket_api_rejects_bad_fds() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    net.sys.run_in_cubicle(app, |sys| {
        let ebadf = cubicle_core::Errno::Ebadf.neg();
        assert_eq!(stack.lwip.listen(sys, 99).unwrap(), ebadf);
        assert_eq!(stack.lwip.accept(sys, 99).unwrap(), ebadf);
        assert_eq!(stack.lwip.close(sys, 99).unwrap(), ebadf);
        let buf = sys.heap_alloc(16, 8).unwrap();
        assert_eq!(stack.lwip.recv(sys, 99, buf, 16).unwrap(), ebadf);
        assert_eq!(stack.lwip.send(sys, 99, buf, 16).unwrap(), ebadf);
    });
}

#[test]
fn send_on_unconnected_socket_is_enotconn() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    net.sys.run_in_cubicle(app, |sys| {
        let fd = stack.lwip.socket(sys).unwrap();
        stack.lwip.bind(sys, fd, 81).unwrap();
        let buf = sys.heap_alloc(16, 8).unwrap();
        // a listener shell is not a connection
        assert_eq!(
            stack.lwip.send(sys, fd, buf, 16).unwrap(),
            cubicle_core::Errno::Ebadf.neg()
        );
    });
}

#[test]
fn syn_to_closed_port_is_dropped() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    // no listener anywhere
    let mut cl = client(&net, 4444);
    cl.pump(&mut net.sys); // SYN out
    net.sys
        .run_in_cubicle(app, |sys| stack.lwip.poll(sys).unwrap());
    cl.pump(&mut net.sys);
    assert!(!cl.is_established(), "no listener, no handshake");
}

#[test]
fn interleaved_connections_keep_streams_apart() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let listener = net.sys.run_in_cubicle(app, |sys| {
        let fd = stack.lwip.socket(sys).unwrap();
        stack.lwip.bind(sys, fd, 80).unwrap();
        stack.lwip.listen(sys, fd).unwrap();
        fd
    });
    // two clients on different ephemeral ports
    let mk = |port| {
        SimClient::new(
            net.stack.netdev_slot,
            port,
            80,
            WireModel {
                hop_cycles: 100,
                per_byte_cycles: 0,
                request_overhead_cycles: 0,
            },
        )
    };
    let mut c1 = mk(50_001);
    let mut c2 = mk(50_002);
    c1.pump(&mut net.sys);
    c2.pump(&mut net.sys);
    net.sys
        .run_in_cubicle(app, |sys| stack.lwip.poll(sys).unwrap());
    c1.pump(&mut net.sys);
    c2.pump(&mut net.sys);
    let (conn1, conn2) = net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap();
        let a = stack.lwip.accept(sys, listener).unwrap();
        let b = stack.lwip.accept(sys, listener).unwrap();
        (a, b)
    });
    assert!(conn1 >= 0 && conn2 >= 0 && conn1 != conn2);
    c1.send(b"from-one");
    c2.send(b"from-two");
    c1.pump(&mut net.sys);
    c2.pump(&mut net.sys);
    net.sys.run_in_cubicle(app, |sys| {
        stack.lwip.poll(sys).unwrap();
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), 64);
        // map accepted fds to data: find which conn got which bytes
        let n1 = stack.lwip.recv(sys, conn1, buf, 64).unwrap();
        let d1 = sys.read_vec(buf, n1 as usize).unwrap();
        let n2 = stack.lwip.recv(sys, conn2, buf, 64).unwrap();
        let d2 = sys.read_vec(buf, n2 as usize).unwrap();
        let mut got = vec![d1, d2];
        got.sort();
        assert_eq!(got, vec![b"from-one".to_vec(), b"from-two".to_vec()]);
    });
}

#[test]
fn a_socket_belongs_to_the_cubicle_that_opened_or_accepted_it() {
    let mut net = boot(IsolationMode::Full);
    let (stack, app) = (net.stack, net.app);
    let evil = net
        .sys
        .load(
            ComponentImage::new("EVIL", CodeImage::plain(4096)).heap_pages(8),
            Box::new(App),
        )
        .unwrap()
        .cid;
    let (mut cl, conn) = establish(&mut net, 80);
    let listener = net.sys.run_in_cubicle(app, |sys| {
        let fd = stack.lwip.socket(sys).unwrap();
        assert_eq!(stack.lwip.bind(sys, fd, 81).unwrap(), 0);
        fd
    });
    cl.send(b"secret");
    cl.pump(&mut net.sys);
    net.sys
        .run_in_cubicle(app, |sys| stack.lwip.poll(sys).unwrap());

    let ebadf = cubicle_core::Errno::Ebadf.neg();
    net.sys.run_in_cubicle(evil, |sys| {
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), 64);
        sys.write(buf, b"forged").unwrap();
        assert_eq!(stack.lwip.recv(sys, conn, buf, 64).unwrap(), ebadf);
        assert_eq!(stack.lwip.send(sys, conn, buf, 6).unwrap(), ebadf);
        assert_eq!(stack.lwip.close(sys, conn).unwrap(), ebadf);
        assert_eq!(stack.lwip.bind(sys, listener, 82).unwrap(), ebadf);
        assert_eq!(stack.lwip.listen(sys, listener).unwrap(), ebadf);
        assert_eq!(stack.lwip.close(sys, listener).unwrap(), ebadf);
    });

    // The owner still gets every byte, and nothing was sent on its behalf.
    net.sys.run_in_cubicle(app, |sys| {
        let (buf, _w) = app_buffer(sys, stack.lwip.cid(), 64);
        assert_eq!(stack.lwip.recv(sys, conn, buf, 64).unwrap(), 6);
        assert_eq!(sys.read_vec(buf, 6).unwrap(), b"secret");
        assert_eq!(stack.lwip.listen(sys, listener).unwrap(), 0);
        stack.lwip.poll(sys).unwrap();
    });
    cl.pump(&mut net.sys);
    assert!(cl.received.is_empty(), "{:?}", cl.received);
    assert!(net.sys.audit().is_clean(), "{}", net.sys.audit());
}
