//! A teaching trace (the paper's "pedagogic advantages" claim): two
//! sublayered stacks driven synchronously, printing every wire packet with
//! each field attributed to the sublayer that owns it.
//!
//! ```sh
//! cargo run --example handshake_trace
//! ```

use netsim::{Dur, HostStack, Stack, Time};
use sublayering::netsim;
use sublayering::sublayer_core::{Packet, SlConfig, SlTcpStack};
use sublayering::slwire::Endpoint;

fn main() {
    let mut client = SlTcpStack::new(1, SlConfig::default(), slmetrics::shared());
    let mut server = SlTcpStack::new(2, SlConfig::default(), slmetrics::shared());
    server.listen(80);
    let conn = client.connect(Time::ZERO, 5000, Endpoint::new(2, 80));
    client.send(conn, b"hello across the sublayers");
    println!("wire trace (client <-> server), one line per packet:\n");

    let mut now = Time::ZERO;
    for round in 0..30 {
        now += Dur::from_millis(10);
        client.on_tick(now);
        server.on_tick(now);
        let mut quiet = true;
        while let Some(f) = client.poll_transmit(now) {
            println!("t={now}  C->S  {}", Packet::decode(&f).unwrap().describe());
            server.on_frame(now, &f);
            quiet = false;
        }
        while let Some(f) = server.poll_transmit(now) {
            println!("t={now}  S->C  {}", Packet::decode(&f).unwrap().describe());
            client.on_frame(now, &f);
            quiet = false;
        }
        if let Some(&sc) = server.established().first() {
            let got = server.recv(sc);
            if !got.is_empty() {
                println!("        server app read {:?}", String::from_utf8_lossy(&got));
                client.close(conn);
                server.close(sc);
            }
        }
        if quiet && round > 3 && client.conn_count() == 0 && server.conn_count() == 0 {
            break;
        }
    }
    println!("\nnote how the handshake packets carry only CM-owned bits, data packets");
    println!("only advance RD's seq/ack, and the window lives in OSR's subheader.");
}
