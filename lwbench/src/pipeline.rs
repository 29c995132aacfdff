//! A pipelined two-server PIR client: one thread, one connection per
//! party, many GETs in flight, matched by request id.
//!
//! The library's `TwoServerZltp` issues one GET at a time and waits for
//! both answers. A closed loop at the §5.1 operating point must keep a
//! whole batch in flight instead, so this driver speaks ZLTP itself,
//! built only from the public pieces: `encode_frame`, `FrameDecoder`,
//! `Message::{ClientHello, Get}`, `KeywordMap` and
//! `TwoServerClient::{query_slot, combine}`.

use crate::measure::ClientSpans;
use lightweb_core::{encode_frame, FrameDecoder, Message, Mode, PROTOCOL_VERSION};
use lightweb_dpf::DpfParams;
use lightweb_pir::{KeywordMap, TwoServerClient};
use std::collections::HashMap;
use std::io::{Read, Write};

struct Party<S> {
    stream: S,
    decoder: FrameDecoder,
}

/// The session parameters a party announced in its `ServerHello`.
#[derive(PartialEq)]
struct Hello {
    universe_id: String,
    blob_len: usize,
    params: DpfParams,
    keyword_hash_key: [u8; 16],
    extra: Vec<u8>,
}

pub struct Pipeline<S> {
    parties: [Party<S>; 2],
    client: TwoServerClient,
    keywords: KeywordMap,
    blob_len: usize,
    next_id: u32,
    /// Answers received so far for each GET in flight, per party.
    halves: HashMap<u32, [Option<Vec<u8>>; 2]>,
    buf: Vec<u8>,
    wire_bytes: u64,
    /// Record client and wire spans while set.
    pub trace: bool,
    pub spans: ClientSpans,
}

impl<S: Read + Write> Pipeline<S> {
    /// Open a two-server PIR session on each stream and check that the
    /// two endpoints form a pair.
    pub fn connect(s0: S, s1: S) -> Result<Self, String> {
        let mut parties = [
            Party {
                stream: s0,
                decoder: FrameDecoder::new(),
            },
            Party {
                stream: s1,
                decoder: FrameDecoder::new(),
            },
        ];
        let mut buf = vec![0u8; 64 * 1024];
        let mut wire_bytes = 0;
        let mut hellos = Vec::with_capacity(2);
        for party in &mut parties {
            let hello = Message::ClientHello {
                version: PROTOCOL_VERSION,
                modes: vec![Mode::TwoServerPir.to_wire()],
            };
            let frame = encode_frame(&hello, None).map_err(|e| e.to_string())?;
            party.stream.write_all(&frame).map_err(|e| e.to_string())?;
            wire_bytes += frame.len() as u64;
            let reply = read_message(party, &mut buf, &mut wire_bytes, &mut None)?;
            let Message::ServerHello {
                universe_id,
                blob_len,
                domain_bits,
                term_bits,
                keyword_hash_key,
                extra,
                ..
            } = reply
            else {
                return Err(format!("expected ServerHello, got {}", reply.name()));
            };
            let params =
                DpfParams::new(domain_bits as u32, term_bits as u32).map_err(|e| e.to_string())?;
            hellos.push(Hello {
                universe_id,
                blob_len: blob_len as usize,
                params,
                keyword_hash_key,
                extra,
            });
        }
        let (h0, h1) = (&hellos[0], &hellos[1]);
        if h0.universe_id != h1.universe_id
            || h0.blob_len != h1.blob_len
            || h0.params != h1.params
            || h0.keyword_hash_key != h1.keyword_hash_key
        {
            return Err("the two endpoints serve different universes".into());
        }
        if h0.extra == h1.extra {
            return Err("both endpoints claim the same party".into());
        }
        Ok(Self {
            client: TwoServerClient::new(h0.params, h0.blob_len),
            keywords: KeywordMap::new(&h0.keyword_hash_key, h0.params.domain_bits()),
            blob_len: h0.blob_len,
            parties,
            next_id: 1,
            halves: HashMap::new(),
            buf,
            wire_bytes,
            trace: false,
            spans: ClientSpans::default(),
        })
    }

    /// GETs sent whose combined answer has not been returned yet.
    pub fn in_flight(&self) -> usize {
        self.halves.len()
    }

    /// Bytes sent plus received on both connections.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Send a GET for `key` to both parties; returns its request id.
    pub fn issue(&mut self, key: &str) -> Result<u32, String> {
        let slot = self.keywords.slot(key.as_bytes());
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let query = self
            .spans
            .keygen
            .time(self.trace, || self.client.query_slot(slot));
        for (party, key) in [query.key0, query.key1].iter().enumerate() {
            let msg = Message::Get {
                request_id: id,
                payload: key.to_bytes().to_vec(),
            };
            let frame = self
                .spans
                .encode
                .time(self.trace, || encode_frame(&msg, None))
                .map_err(|e| e.to_string())?;
            self.parties[party]
                .stream
                .write_all(&frame)
                .map_err(|e| format!("party {party}: {e}"))?;
            self.wire_bytes += frame.len() as u64;
        }
        self.halves.insert(id, [None, None]);
        Ok(id)
    }

    /// Block until some GET in flight has both answers; return its id and
    /// the combined blob.
    pub fn complete(&mut self) -> Result<(u32, Vec<u8>), String> {
        if self.halves.is_empty() {
            return Err("no GET in flight".into());
        }
        loop {
            // Read from a party that still owes half of a GET whose other
            // half is in; both parties answer every request, so that read
            // always has something coming.
            let party = self
                .halves
                .values()
                .find_map(|h| match h {
                    [Some(_), None] => Some(1),
                    [None, Some(_)] => Some(0),
                    _ => None,
                })
                .unwrap_or(0);
            let mut spans = self.trace.then_some(&mut self.spans);
            let msg = read_message(
                &mut self.parties[party],
                &mut self.buf,
                &mut self.wire_bytes,
                &mut spans,
            )?;
            let (id, payload) = match msg {
                Message::GetResponse {
                    request_id,
                    payload,
                } => (request_id, payload),
                Message::Error { code, message } => {
                    return Err(format!("party {party} error {code}: {message}"))
                }
                other => return Err(format!("party {party} sent {}", other.name())),
            };
            let slot = self
                .halves
                .get_mut(&id)
                .ok_or_else(|| format!("party {party} answered unknown request {id}"))?;
            if slot[party].replace(payload).is_some() {
                return Err(format!("party {party} answered request {id} twice"));
            }
            if let [Some(_), Some(_)] = slot {
                let [a0, a1] = self.halves.remove(&id).expect("present");
                let (a0, a1) = (a0.expect("both"), a1.expect("both"));
                if a0.len() != self.blob_len || a1.len() != self.blob_len {
                    return Err(format!("request {id}: answer has the wrong size"));
                }
                let blob = self
                    .spans
                    .combine
                    .time(self.trace, || TwoServerClient::combine(&a0, &a1))
                    .map_err(|e| e.to_string())?;
                return Ok((id, blob));
            }
        }
    }

    /// Complete every GET in flight, discarding the answers.
    pub fn drain(&mut self) -> Result<(), String> {
        while self.in_flight() > 0 {
            self.complete()?;
        }
        Ok(())
    }

    /// Orderly close of both sessions.
    pub fn close(mut self) -> Result<(), String> {
        self.drain()?;
        for party in &mut self.parties {
            let frame = encode_frame(&Message::Close, None).map_err(|e| e.to_string())?;
            party.stream.write_all(&frame).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Read from one party until its decoder yields a whole message.
fn read_message<S: Read>(
    party: &mut Party<S>,
    buf: &mut [u8],
    wire_bytes: &mut u64,
    spans: &mut Option<&mut ClientSpans>,
) -> Result<Message, String> {
    loop {
        let t = std::time::Instant::now();
        let decoded = party.decoder.decode().map_err(|e| e.to_string())?;
        if let Some((msg, _)) = decoded {
            if let Some(s) = spans.as_deref_mut() {
                s.decode.add(t.elapsed());
            }
            return Ok(msg);
        }
        let n = party.stream.read(buf).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-session".into());
        }
        *wire_bytes += n as u64;
        party.decoder.extend(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use lightweb_core::{IoModel, ServerConfig, TwoServerZltp, ZltpServer};
    use std::net::{TcpListener, TcpStream};

    /// A reactor-served two-server pair holding `n` seeded records.
    type Pair = (
        [ZltpServer; 2],
        [std::net::SocketAddr; 2],
        Vec<std::thread::JoinHandle<()>>,
    );

    fn pair(n: u64) -> Pair {
        let servers = [0u8, 1].map(|party| {
            let mut cfg = ServerConfig::small("pipeline-test", party);
            cfg.modes = lightweb_core::ModeSet::new([Mode::TwoServerPir]);
            cfg.io_model = IoModel::Reactor;
            cfg.scan_threads = 1;
            let s = ZltpServer::new(cfg).unwrap();
            for i in 0..n {
                s.publish(&format!("k{i}"), &oracle::content(1, i, 0, 1024))
                    .unwrap();
            }
            s
        });
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for s in &servers {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(l.local_addr().unwrap());
            handles.push(
                lightweb_reactor::serve_with(s, l, lightweb_reactor::ReactorConfig::default())
                    .unwrap(),
            );
        }
        (servers, [addrs[0], addrs[1]], handles)
    }

    fn stop(servers: [ZltpServer; 2], handles: Vec<std::thread::JoinHandle<()>>) {
        for s in &servers {
            s.shutdown();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn pipelined_answers_equal_the_library_client() {
        let (servers, addrs, handles) = pair(40);
        let conn = |i: usize| TcpStream::connect(addrs[i]).unwrap();
        let mut pipe = Pipeline::connect(conn(0), conn(1)).unwrap();
        let mut reference = TwoServerZltp::connect(conn(0), conn(1)).unwrap();
        // Present and absent keys, 12 in flight at once.
        let keys: Vec<String> = (0..48).map(|i| format!("k{i}")).collect();
        let mut by_id = HashMap::new();
        for key in &keys[..12] {
            by_id.insert(pipe.issue(key).unwrap(), key.clone());
        }
        let mut next = 12;
        let mut checked = 0;
        while pipe.in_flight() > 0 {
            let (id, blob) = pipe.complete().unwrap();
            let key = by_id.remove(&id).unwrap();
            assert_eq!(blob, reference.private_get(&key).unwrap(), "{key}");
            checked += 1;
            if next < keys.len() {
                by_id.insert(pipe.issue(&keys[next]).unwrap(), keys[next].clone());
                next += 1;
            }
        }
        assert_eq!(checked, keys.len());
        assert!(pipe.wire_bytes() > 0);
        pipe.close().unwrap();
        reference.close().unwrap();
        stop(servers, handles);
    }

    #[test]
    fn a_publish_between_the_two_scans_tears_the_answer() {
        let (servers, addrs, handles) = pair(8);
        let conn = |i: usize| TcpStream::connect(addrs[i]).unwrap();
        let mut pipe = Pipeline::connect(conn(0), conn(1)).unwrap();
        let expected = oracle::content(1, 1, 0, 1024);
        let mut torn = 0;
        for version in 1..=32u64 {
            // Send the GET to party 0 only and wait for its scan; update
            // an unrelated record on both parties before party 1 scans.
            let q = pipe.client.query_slot(pipe.keywords.slot(b"k1"));
            let mut answers = Vec::new();
            for (party, key) in [q.key0, q.key1].iter().enumerate() {
                let msg = Message::Get {
                    request_id: version as u32,
                    payload: key.to_bytes().to_vec(),
                };
                let frame = encode_frame(&msg, None).unwrap();
                pipe.parties[party].stream.write_all(&frame).unwrap();
                let reply =
                    read_message(&mut pipe.parties[party], &mut pipe.buf, &mut 0, &mut None)
                        .unwrap();
                let Message::GetResponse { payload, .. } = reply else {
                    panic!("expected an answer")
                };
                answers.push(payload);
                if party == 0 {
                    for s in &servers {
                        s.publish("k2", &oracle::content(1, 2, version, 1024))
                            .unwrap();
                    }
                }
            }
            let blob = TwoServerClient::combine(&answers[0], &answers[1]).unwrap();
            if blob == expected {
                continue;
            }
            // The shares agree off the target slot, so a tear is exactly
            // k2's old ^ new: the XOR of two versions of another record.
            let delta: Vec<u8> = oracle::content(1, 2, version - 1, 1024)
                .iter()
                .zip(oracle::content(1, 2, version, 1024))
                .map(|(a, b)| a ^ b)
                .collect();
            let off: Vec<u8> = blob.iter().zip(&expected).map(|(a, b)| a ^ b).collect();
            assert_eq!(
                off, delta,
                "a racing publish can only add the other record's delta"
            );
            torn += 1;
        }
        // Each attempt tears with probability 1/2.
        assert!(torn > 0, "no torn answer in 32 racing reads");
        stop(servers, handles);
    }
}
