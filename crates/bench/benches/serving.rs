//! Serving-edge benches: the TCP wire protocol and the tenant-fair
//! admission path, measured against in-process submission of the same
//! workload — what the network front door costs on top of the
//! [`QueryServer`], and what frame encode/decode costs on its own.
//!
//! Emits `BENCH_serving.json` at the workspace root, and fails when a
//! connection costs more than a relational band allows: 16 queries on
//! 16 connections may take at most 25× the same 16 on one connection.
//! Both sides run on the same machine in the same minute, so the band
//! needs no calibration; a timer on the accept path (25 ms per
//! connection made it 482×) breaks it, a slow runner does not. A second
//! relational gauge, one connection against in-process submission of
//! the same 16 queries, is printed and recorded but holds no threshold.

use mdq_bench::harness::Bench;
use mdq_runtime::net::{ClientFrame, NetClient, NetServer, ServerFrame};
use mdq_runtime::{QueryOutcome, QueryServer, RuntimeConfig, TenantPolicy};
use mdq_services::domains::news::news_world;
use std::sync::Arc;

const QUERY: &str = "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                     lowcost('Milano', City, Price), Price <= 60.0.";
const N: usize = 16;
/// How many times the one-connection wall time `N` connections may
/// cost (measured: under 10×).
const CONNECTION_BAND: u128 = 25;

/// Drains `n` queries through one TCP connection; answers counted.
fn drive_tcp(client: &mut NetClient, n: usize) -> usize {
    (0..n)
        .map(|_| match client.query(QUERY, Some(5)).expect("serves") {
            QueryOutcome::Done { answers, .. } => answers.len(),
            other => panic!("unexpected outcome: {other:?}"),
        })
        .sum()
}

/// Drains `n` queries submitted in-process, concurrently.
fn drive_local(server: &QueryServer, n: usize) -> usize {
    let sessions: Vec<_> = (0..n).map(|_| server.submit(QUERY, Some(5))).collect();
    sessions
        .into_iter()
        .map(|s| s.collect().expect("runs").answers.len())
        .sum()
}

fn main() {
    let bench = Bench::from_args();

    // the in-process baseline: same warm server, no wire
    let local = QueryServer::from_world(news_world(), RuntimeConfig::default());
    drive_local(&local, N);
    bench.measure(&format!("serving/{N}-queries/in-process"), || {
        drive_local(&local, N)
    });

    // one connection, N queries end to end over loopback TCP (frame
    // encode + kernel round trips + session streaming)
    let server = Arc::new(QueryServer::from_world(
        news_world(),
        RuntimeConfig::default(),
    ));
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut warm = NetClient::connect(net.addr()).expect("connects");
    drive_tcp(&mut warm, N);
    bench.measure(&format!("serving/{N}-queries/tcp/one-connection"), || {
        drive_tcp(&mut warm, N)
    });

    // N connections, one query each: connection setup + HELLO dominates
    bench.measure(
        &format!("serving/{N}-queries/tcp/one-per-connection"),
        || {
            (0..N)
                .map(|_| {
                    let mut c = NetClient::connect(net.addr()).expect("connects");
                    let served = drive_tcp(&mut c, 1);
                    c.quit().expect("clean close");
                    served
                })
                .sum::<usize>()
        },
    );

    // the tenant-scoped path: handshake + per-tenant scheduling queue
    server.register_tenant("bench", TenantPolicy::default());
    let mut tenant = NetClient::connect(net.addr()).expect("connects");
    tenant.tenant("bench").expect("handshake");
    drive_tcp(&mut tenant, N);
    bench.measure(&format!("serving/{N}-queries/tcp/tenant-scoped"), || {
        drive_tcp(&mut tenant, N)
    });

    // pure frame codec cost, no sockets: a QUERY line in, the DONE
    // line out, round-tripped through encode/parse
    let query_line = ClientFrame::Query {
        k: Some(5),
        text: QUERY.to_string(),
    }
    .encode();
    let done_line = ServerFrame::Done {
        answers: 5,
        calls: 7,
        wall_ms: 3,
        partial: false,
    }
    .encode();
    bench.measure("serving/frame-codec/roundtrip", || {
        let q = ClientFrame::parse(&query_line).expect("parses");
        let d = ServerFrame::parse(&done_line).expect("parses");
        (q.encode().len(), d.encode().len())
    });

    drop(warm);
    drop(tenant);
    net.shutdown();

    let mean = |case: &str| bench.mean_ns(&format!("serving/{N}-queries/{case}"));
    let band = mean("tcp/one-per-connection").zip(mean("tcp/one-connection"));
    if let Some((churned, held)) = band {
        bench.gauge(
            &format!("serving/{N}-queries/tcp/per-connection-vs-one-x100"),
            (churned * 100 / held.max(1)) as u64,
            "ratio",
        );
    }
    // what the wire costs on top of the server: reported, never gated —
    // the ratio moves with the machine (2.5x and 6.6x on record)
    if let Some((held, local)) = mean("tcp/one-connection").zip(mean("in-process")) {
        bench.gauge(
            &format!("serving/{N}-queries/tcp/one-connection-vs-in-process-x100"),
            (held * 100 / local.max(1)) as u64,
            "ratio",
        );
    }
    bench.write_json("serving");
    if let Some((churned, held)) = band {
        if churned > CONNECTION_BAND * held {
            eprintln!(
                "one query per connection costs {churned} ns per {N}, over {CONNECTION_BAND}x \
                 the {held} ns of one connection: something waits on the connection path"
            );
            std::process::exit(1);
        }
    }
}
