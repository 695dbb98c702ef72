//! Whole-system test: the web server and the database engine running in
//! ONE CubicleOS instance (11 cubicles), sharing the file-system stack —
//! the web server serves a report generated from SQL data.

use cubicleos::httpd::{Httpd, HttpdProxy};
use cubicleos::kernel::{impl_component, ComponentImage, IsolationMode, System};
use cubicleos::mpk::insn::CodeImage;
use cubicleos::net::{boot_net, SimClient, WireModel};
use cubicleos::ramfs::boot_fs;
use cubicleos::sqldb::storage::CubicleEnv;
use cubicleos::sqldb::Database;
use cubicleos::ukbase::boot_base;

struct SqliteApp;
impl_component!(SqliteApp);

#[test]
fn database_and_webserver_share_one_cubicle_system() {
    let mut sys = System::new(IsolationMode::Full);

    // --- substrate: base + fs + net ------------------------------------
    let base = boot_base(&mut sys).unwrap();
    let fs = boot_fs(&mut sys, &base, None).unwrap();
    let net = boot_net(&mut sys).unwrap();

    // --- application 1: the SQL engine ---------------------------------
    let sqlite = sys
        .load(
            ComponentImage::new("SQLITE", CodeImage::plain(64 * 1024)).heap_pages(128),
            Box::new(SqliteApp),
        )
        .unwrap();
    let report: String = sys.run_in_cubicle(sqlite.cid, |sys| {
        let port = fs.port(sys).unwrap();
        let mut db =
            Database::open(sys, Box::new(CubicleEnv::new(port.clone())), "/app.db").unwrap();
        db.execute(sys, "CREATE TABLE hits(page TEXT, n INTEGER)")
            .unwrap();
        db.execute(
            sys,
            "INSERT INTO hits VALUES ('/index', 41), ('/about', 7), ('/index', 1)",
        )
        .unwrap();
        let rows = db
            .query(
                sys,
                "SELECT page, sum(n) FROM hits GROUP BY page ORDER BY sum(n) DESC",
            )
            .unwrap();
        let mut report = String::from("page,hits\n");
        for r in rows {
            report.push_str(&format!("{},{}\n", r[0], r[1]));
        }
        // publish the report as a static file for the web server
        let fd = port
            .open(
                sys,
                "/report.csv",
                cubicleos::vfs::flags::O_CREAT | cubicleos::vfs::flags::O_RDWR,
            )
            .unwrap();
        port.write_all(sys, fd, report.as_bytes()).unwrap();
        port.close(sys, fd).unwrap();
        report
    });
    assert_eq!(report, "page,hits\n/index,42\n/about,7\n");

    // --- application 2: the web server ---------------------------------
    let nginx = sys
        .load(cubicleos::httpd::image(), Box::new(Httpd::default()))
        .unwrap();
    sys.with_component_mut::<Httpd, _>(nginx.slot, |h, _| {
        h.set_wiring(net.lwip, fs.vfs, &[fs.ramfs_cid]);
    })
    .unwrap();
    let httpd = HttpdProxy::resolve(&nginx).unwrap();
    assert_eq!(httpd.init(&mut sys, 80).unwrap(), 0);

    // --- the outside world fetches the SQL-generated report ------------
    let mut client = SimClient::new(
        net.netdev_slot,
        40_001,
        80,
        WireModel {
            hop_cycles: 1_000,
            per_byte_cycles: 1,
            request_overhead_cycles: 0,
        },
    );
    client.send(b"GET /report.csv HTTP/1.0\r\n\r\n");
    for _ in 0..200 {
        client.pump(&mut sys);
        if client.fin_seen() {
            break;
        }
        httpd.poll(&mut sys).unwrap();
    }
    assert!(client.fin_seen(), "download must complete");
    let response = String::from_utf8_lossy(&client.received).into_owned();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.ends_with(&report), "body must be the SQL report");

    // --- the isolation story held throughout ---------------------------
    assert_eq!(sys.stats().faults_denied, 0, "no isolation violations");
    assert!(
        sys.stats().faults_resolved > 0,
        "windows actually exercised"
    );
    assert!(sys.cubicles().count() >= 11, "full component graph loaded");
    // and the two applications are still isolated from each other:
    let sqlite_heap = sys.run_in_cubicle(sqlite.cid, |sys| sys.heap_alloc(64, 8).unwrap());
    let steal = sys.run_in_cubicle(nginx.cid, |sys| sys.read_vec(sqlite_heap, 8));
    assert!(steal.is_err(), "NGINX must not read SQLITE memory");
}
