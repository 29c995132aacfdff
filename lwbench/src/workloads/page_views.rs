//! `page_views`: one `LightwebBrowser` on a small universe over the
//! universe's in-process transport, in a closed loop of Zipf-chosen page
//! views. Almost no scan work: each view is five GETs of two sequential
//! party hops, and each hop waits out the batch window alone.

use super::{Bench, FETCHES_PER_VIEW};
use crate::measure::{ms, Clock, Metric, Segment};
use crate::oracle::splitmix;
use crate::probe;
use lightweb_browser::LightwebBrowser;
use lightweb_core::MemDuplex;
use lightweb_universe::json::Value;
use lightweb_universe::{Universe, UniverseConfig, UniverseError};
use lightweb_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const DOMAINS: usize = 4;
const PAGES: usize = 300;
const ZIPF_EXPONENT: f64 = 1.0;

/// Times each data GET from the client's first write to party 0 to its
/// last read from party 1 — the two sequential hops of one
/// `TwoServerZltp::private_get`.
#[derive(Default)]
struct HopClock {
    on: bool,
    start: Option<Instant>,
    last_reply: Option<Instant>,
    get_ms: Vec<f64>,
}

impl HopClock {
    fn finish(&mut self) {
        if let (Some(s), Some(r)) = (self.start, self.last_reply) {
            self.get_ms.push(ms(r - s));
        }
        self.start = None;
        self.last_reply = None;
    }
}

/// A transport stream the benchmark wraps around the universe's
/// in-process connection to watch GET boundaries.
struct Tap {
    inner: MemDuplex,
    party: u8,
    clock: Option<Arc<Mutex<HopClock>>>,
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let (0, Some(clock)) = (self.party, &self.clock) {
            let mut c = clock.lock().expect("hop clock poisoned");
            // A write to party 0 after party 1 replied starts a new GET.
            if c.on && (c.start.is_none() || c.last_reply.is_some()) {
                c.finish();
                c.start = Some(Instant::now());
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let (1, Some(clock), true) = (self.party, &self.clock, n > 0) {
            let mut c = clock.lock().expect("hop clock poisoned");
            if c.on && c.start.is_some() {
                c.last_reply = Some(Instant::now());
            }
        }
        Ok(n)
    }
}

struct Page {
    path: String,
    body: String,
}

pub struct PageViews {
    // Field order is drop order: the browser's sessions close before the
    // universe's servers go away.
    browser: LightwebBrowser<Tap>,
    universe: Universe,
    clock: Arc<Mutex<HopClock>>,
    pages: Vec<Page>,
    /// Popularity rank to page index.
    by_rank: Vec<usize>,
    zipf: Zipf,
    rng: StdRng,
}

fn script(domain: &str) -> String {
    format!(
        r#"
        route "/pages/:id" {{
            fetch "{domain}/pages/{{id}}"
            title "{{id}}"
            render "{{data.0.body}}"
        }}
        default {{
            render "not found"
        }}
        "#
    )
}

/// Publish page `j` (owned by publisher `j % DOMAINS`) at `path`.
fn publish(u: &Universe, j: usize, path: &str, text: &str) -> Result<usize, UniverseError> {
    let value = Value::object([("body", Value::from(text))]);
    u.publish_json(&format!("publisher{}", j % DOMAINS), path, &value)
}

/// Seeded page text: lowercase words, 200 to 700 bytes.
fn body(state: &mut u64) -> String {
    let len = 200 + (splitmix(state) % 500) as usize;
    let mut s = String::with_capacity(len + 8);
    while s.len() < len {
        let word = 2 + splitmix(state) % 8;
        for _ in 0..word {
            s.push((b'a' + (splitmix(state) % 26) as u8) as char);
        }
        s.push(' ');
    }
    s.trim_end().to_string()
}

impl PageViews {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cfg = UniverseConfig::small_test("bench-pages");
        let (budget, chain) = (cfg.fetches_per_page, cfg.max_chain_parts);
        if budget != FETCHES_PER_VIEW {
            return Err(format!(
                "universe fetch budget is {budget}, expected {FETCHES_PER_VIEW}"
            ));
        }
        let u = Universe::new(cfg).map_err(|e| e.to_string())?;
        for d in 0..DOMAINS {
            let domain = format!("site{d}.example");
            let publisher = format!("publisher{d}");
            u.register_domain(&domain, &publisher)
                .map_err(|e| e.to_string())?;
            u.publish_code(&publisher, &domain, &script(&domain))
                .map_err(|e| e.to_string())?;
        }
        let mut state = seed;
        let mut pages = Vec::with_capacity(PAGES);
        for j in 0..PAGES {
            let d = j % DOMAINS;
            let text = body(&mut state);
            // A keyword collision is resolved as §3.1 says: the
            // publisher picks another name.
            for attempt in 0.. {
                let path = format!("site{d}.example/pages/p{j}r{attempt}");
                match publish(&u, j, &path, &text) {
                    Ok(_) => {
                        pages.push(Page { path, body: text });
                        break;
                    }
                    Err(UniverseError::KeywordCollision(_)) => continue,
                    Err(e) => return Err(e.to_string()),
                }
            }
        }
        let clock = Arc::new(Mutex::new(HopClock::default()));
        let tap = |inner, party, clock: Option<Arc<Mutex<HopClock>>>| Tap {
            inner,
            party,
            clock,
        };
        let (c0, c1) = u.connect_code();
        let (d0, d1) = u.connect_data();
        let browser = LightwebBrowser::connect(
            (tap(c0, 0, None), tap(c1, 1, None)),
            (
                tap(d0, 0, Some(clock.clone())),
                tap(d1, 1, Some(clock.clone())),
            ),
            budget,
            chain,
        )
        .map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_rank: Vec<usize> = (0..pages.len()).collect();
        for i in (1..by_rank.len()).rev() {
            by_rank.swap(i, rng.gen_range(0..=i));
        }
        Ok(Self {
            browser,
            universe: u,
            clock,
            zipf: Zipf::new(pages.len(), ZIPF_EXPONENT),
            pages,
            by_rank,
            rng,
        })
    }

    /// View page `index`; true when it rendered exactly as published
    /// with one real fetch padded to the budget.
    fn view(&mut self, index: usize) -> bool {
        let page = &self.pages[index];
        self.browser.browse(&page.path).is_ok_and(|r| {
            r.body == page.body
                && r.real_fetches == 1
                && r.real_fetches + r.dummy_fetches == FETCHES_PER_VIEW
        })
    }
}

impl Bench for PageViews {
    fn warm_up(&mut self) -> Result<(), String> {
        // Cold code fetches: the first page of every domain.
        for d in 0..DOMAINS.min(self.pages.len()) {
            if !self.view(d) {
                return Err(format!("warm-up view of {} failed", self.pages[d].path));
            }
        }
        self.run(Duration::from_millis(500), false).map(|_| ())
    }

    fn run(&mut self, window: Duration, _traced: bool) -> Result<Segment, String> {
        let mut seg = Segment::default();
        {
            let mut c = self.clock.lock().expect("hop clock poisoned");
            *c = HopClock {
                on: true,
                ..HopClock::default()
            };
        }
        let (data0, code0) = (self.browser.data_stats(), self.browser.code_stats());
        let visits0 = self.browser.visits().len();
        let until = Instant::now() + window;
        let clock = Clock::start();
        while Instant::now() < until {
            let index = self.by_rank[self.zipf.sample(&mut self.rng)];
            let gets0 = self.browser.data_stats().requests;
            let t = Instant::now();
            let ok = self.view(index);
            seg.view_ms.push(ms(t.elapsed()));
            seg.attempted += 1;
            seg.ops += 1;
            if ok {
                seg.views += 1;
                seg.gets_ok += self.browser.data_stats().requests - gets0;
            } else {
                seg.failed += 1;
            }
        }
        let (wall, cpu) = clock.stop();
        seg.wall = wall;
        seg.cpu = cpu;
        {
            let mut c = self.clock.lock().expect("hop clock poisoned");
            c.finish();
            c.on = false;
            seg.get_ms = std::mem::take(&mut c.get_ms);
        }
        let (data, code) = (self.browser.data_stats(), self.browser.code_stats());
        seg.browser_gets = data.requests - data0.requests + code.requests - code0.requests;
        seg.code_fetches = self.browser.visits()[visits0..]
            .iter()
            .map(|v| v.code_fetches as u64)
            .sum();
        seg.wire_bytes = data.bytes_sent
            + data.bytes_received
            + code.bytes_sent
            + code.bytes_received
            - (data0.bytes_sent + data0.bytes_received + code0.bytes_sent + code0.bytes_received);
        seg.gets_attempted = seg.attempted;
        seg.gets_failed = seg.failed;
        Ok(seg)
    }

    fn probe(self: Box<Self>) -> Result<Vec<Metric>, String> {
        drop(self);
        Ok(vec![Metric::new(
            "bench.membw_gb_per_s",
            "GB/s",
            probe::membw_gb_per_s(64 << 20),
        )])
    }

    fn shutdown(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }

    fn update_in_place(&mut self, i: usize) -> Result<(), String> {
        let j = i % self.pages.len();
        let page = &self.pages[j];
        publish(&self.universe, j, &page.path, &page.body)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn shape(&self) -> Vec<(&'static str, String)> {
        let u = self.universe.config();
        let cfg = self.universe.data_servers()[0].config();
        vec![
            ("workload", "page_views".into()),
            ("scan_kernel", probe::scan_kernel(cfg)),
            ("scan_threads", format!("{} (0 = auto)", cfg.scan_threads)),
            ("io_model", "in-process".into()),
            (
                "batch",
                format!("{}x{}ms", cfg.batch.max_batch, cfg.batch.window.as_millis()),
            ),
            ("pages", self.pages.len().to_string()),
            ("domains", DOMAINS.to_string()),
            ("blob_len", cfg.blob_len.to_string()),
            ("domain_bits", cfg.domain_bits.to_string()),
            ("fetches_per_page", u.fetches_per_page.to_string()),
        ]
    }
}
