//! The lightweb browser engine.
//!
//! Owns the two ZLTP session pairs (code + data), the code-blob cache, the
//! domain-separated local storage, and — critically for the paper's threat
//! model — the **fixed fetch schedule**: every page view issues exactly
//! `fetches_per_page` data GETs, padding with dummy queries to uniformly
//! random slots when the page needs fewer. A network attacker therefore
//! learns only (a) which universe the user talks to, (b) when a code blob
//! was fetched (new/evicted domain), and (c) when a page was visited —
//! the §3.2 leakage inventory, nothing more.

use crate::lwscript::{parse_script, LwScript, ScriptError};
use crate::storage::LocalStorage;
use lightweb_core::{SessionStats, TwoServerZltp, ZltpError};
use lightweb_telemetry::trace::TraceSpan;
use lightweb_universe::access::ClientAccessPass;
use lightweb_universe::blob::{continuation_path, decode_blob, BlobError};
use rand::Rng;
use std::collections::HashMap;
use std::io::{Read, Write};

/// Errors from a browsing session.
#[derive(Debug)]
pub enum BrowserError {
    /// Transport / protocol failure.
    Zltp(ZltpError),
    /// The path has no valid domain component.
    BadPath(String),
    /// The domain has no published code blob.
    NoCode(String),
    /// The domain's code failed to parse or run.
    Script(ScriptError),
    /// A data blob was malformed.
    Blob(BlobError),
    /// The page wants more fetches than the universe's fixed budget.
    FetchBudget {
        /// Fetches the page requested (chained parts included).
        wanted: usize,
        /// The universe's fixed per-page budget.
        budget: usize,
    },
    /// A protected blob could not be decrypted with the user's pass.
    Access(String),
}

impl std::fmt::Display for BrowserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrowserError::Zltp(e) => write!(f, "ZLTP: {e}"),
            BrowserError::BadPath(p) => write!(f, "invalid lightweb path '{p}'"),
            BrowserError::NoCode(d) => write!(f, "no code blob published for domain '{d}'"),
            BrowserError::Script(e) => write!(f, "page code: {e}"),
            BrowserError::Blob(e) => write!(f, "data blob: {e}"),
            BrowserError::FetchBudget { wanted, budget } => {
                write!(
                    f,
                    "page wants {wanted} fetches; universe budget is {budget}"
                )
            }
            BrowserError::Access(m) => write!(f, "access control: {m}"),
        }
    }
}

impl std::error::Error for BrowserError {}

impl From<ZltpError> for BrowserError {
    fn from(e: ZltpError) -> Self {
        BrowserError::Zltp(e)
    }
}

impl From<ScriptError> for BrowserError {
    fn from(e: ScriptError) -> Self {
        BrowserError::Script(e)
    }
}

impl From<BlobError> for BrowserError {
    fn from(e: BlobError) -> Self {
        BrowserError::Blob(e)
    }
}

/// A rendered page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RenderedPage {
    /// Page title.
    pub title: String,
    /// Rendered body text.
    pub body: String,
    /// Hyperlinks the page offers (`(label, path)`); navigation targets
    /// for the next `browse` call.
    pub links: Vec<(String, String)>,
    /// Real data fetches the page used (≤ the fixed budget).
    pub real_fetches: usize,
    /// Dummy fetches added to reach the fixed budget.
    pub dummy_fetches: usize,
}

/// What the network observed for one page view — the browser's own record
/// of its traffic shape, used by tests and the traffic-analysis experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageVisit {
    /// The visited path (client-side only, never sent anywhere).
    pub path: String,
    /// Code-blob GETs issued (0 on cache hit, 1 on miss).
    pub code_fetches: usize,
    /// Data-blob GETs issued (always the fixed budget).
    pub data_fetches: usize,
}

/// The lightweb browser.
pub struct LightwebBrowser<S: Read + Write> {
    code_session: TwoServerZltp<S>,
    data_session: TwoServerZltp<S>,
    code_cache: HashMap<String, LwScript>,
    storage: LocalStorage,
    passes: HashMap<String, ClientAccessPass>,
    prompt_handler: Box<dyn FnMut(&str) -> String + Send>,
    fetches_per_page: usize,
    max_chain_parts: usize,
    visits: Vec<PageVisit>,
}

impl<S: Read + Write> LightwebBrowser<S> {
    /// Connect a browser: `code` and `data` are the stream pairs to the
    /// CDN's code and data universes; `fetches_per_page` is the universe's
    /// fixed per-page budget and `max_chain_parts` its chaining cap.
    pub fn connect(
        code: (S, S),
        data: (S, S),
        fetches_per_page: usize,
        max_chain_parts: usize,
    ) -> Result<Self, BrowserError> {
        assert!(
            fetches_per_page >= 1,
            "budget must allow at least one fetch"
        );
        Ok(Self {
            code_session: TwoServerZltp::connect(code.0, code.1)?,
            data_session: TwoServerZltp::connect(data.0, data.1)?,
            code_cache: HashMap::new(),
            storage: LocalStorage::new(),
            passes: HashMap::new(),
            prompt_handler: Box::new(|_q| String::new()),
            fetches_per_page,
            max_chain_parts,
            visits: Vec::new(),
        })
    }

    /// Install the user-interaction handler for `prompt` statements.
    pub fn set_prompt_handler(&mut self, handler: impl FnMut(&str) -> String + Send + 'static) {
        self.prompt_handler = Box::new(handler);
    }

    /// Install an access pass (subscription keys) for a domain (§3.3).
    pub fn install_pass(&mut self, domain: &str, pass: ClientAccessPass) {
        self.passes.insert(domain.to_string(), pass);
    }

    /// Local storage (inspection / tests).
    pub fn storage(&self) -> &LocalStorage {
        &self.storage
    }

    /// The traffic log: one entry per page view.
    pub fn visits(&self) -> &[PageVisit] {
        &self.visits
    }

    /// Combined data-session traffic counters.
    pub fn data_stats(&self) -> SessionStats {
        self.data_session.stats()
    }

    /// Combined code-session traffic counters.
    pub fn code_stats(&self) -> SessionStats {
        self.code_session.stats()
    }

    /// Evict a domain's code blob from the cache (e.g. the publisher
    /// shipped an update; §3.2 expects this "once every few days at most").
    pub fn evict_code(&mut self, domain: &str) {
        self.code_cache.remove(domain);
    }

    /// Issue one *cover* page load: exactly the universe's fixed number of
    /// dummy data GETs, no code fetch — indistinguishable on the wire from
    /// a real visit to an already-cached domain. Used by the constant-rate
    /// scheduler ([`crate::pacer::Pacer`]) to fill idle slots so that
    /// visit *timing* stops carrying information (§2.1/§3.2's residual
    /// leak).
    pub fn browse_cover(&mut self) -> Result<(), BrowserError> {
        let _page = lightweb_telemetry::span!("browser.page.ns");
        let _page_span = TraceSpan::root("browser.page");
        lightweb_telemetry::counter!("browser.page.cover").inc();
        let mut rng = rand::thread_rng();
        let domain_size = 1u64 << self.data_session_params_bits();
        for _ in 0..self.fetches_per_page {
            let slot = rng.gen_range(0..domain_size);
            let _ = self.data_session.private_get_slot(slot)?;
            lightweb_telemetry::counter!("browser.fetch.dummy").inc();
        }
        self.visits.push(PageVisit {
            path: "about:cover".to_string(),
            code_fetches: 0,
            data_fetches: self.fetches_per_page,
        });
        Ok(())
    }

    /// Browse to a lightweb path and render the page.
    pub fn browse(&mut self, path: &str) -> Result<RenderedPage, BrowserError> {
        let _page = lightweb_telemetry::span!("browser.page.ns");
        // One trace per page view: every code/data/dummy GET below hangs
        // off this root (the current context until the page returns), so
        // a trace tree shows the page's full fan-out.
        let _page_span = TraceSpan::root("browser.page");
        lightweb_telemetry::counter!("browser.page.real").inc();
        let domain = path
            .split('/')
            .next()
            .filter(|d| d.contains('.'))
            .ok_or_else(|| BrowserError::BadPath(path.to_string()))?
            .to_string();
        let sub_path = &path[domain.len()..];
        let sub_path = if sub_path.is_empty() { "/" } else { sub_path };

        // --- 1. Code blob (cached aggressively; §3.2) ---
        let mut code_fetches = 0;
        if !self.code_cache.contains_key(&domain) {
            code_fetches = 1;
            lightweb_telemetry::counter!("browser.fetch.code").inc();
            let blob = self.code_session.private_get(&domain)?;
            let (_, payload) = decode_blob(&blob)?;
            if payload.is_empty() {
                return Err(BrowserError::NoCode(domain.clone()));
            }
            let text = String::from_utf8(payload.to_vec())
                .map_err(|_| BrowserError::NoCode(domain.clone()))?;
            let script = parse_script(&text)?;
            self.code_cache.insert(domain.clone(), script);
        }
        let script = self.code_cache.get(&domain).expect("just inserted").clone();

        // --- 2. Run the page code against path + local state ---
        let view = self.storage.domain_view(&domain);
        let handler = &mut self.prompt_handler;
        let plan = script.plan(sub_path, &view, &mut |q| handler(q))?;
        for (k, v) in &plan.stores {
            self.storage.set(&domain, k, v);
        }
        if plan.fetches.len() > self.fetches_per_page {
            return Err(BrowserError::FetchBudget {
                wanted: plan.fetches.len(),
                budget: self.fetches_per_page,
            });
        }

        // --- 3. Data fetches, chained parts included, padded to budget ---
        let mut data_fetches = 0usize;
        let mut payloads: Vec<Option<String>> = Vec::with_capacity(plan.fetches.len());
        for fetch_path in &plan.fetches {
            let value = self.fetch_chain(fetch_path, &mut data_fetches)?;
            let value = match (&value, self.passes.get(&domain)) {
                (Some(v), Some(pass)) => Some(
                    pass.open(fetch_path, v)
                        .map_err(|e| BrowserError::Access(e.to_string()))?,
                ),
                (Some(v), None) => Some(v.clone()),
                (None, _) => None,
            };
            payloads.push(value.map(|v| String::from_utf8_lossy(&v).into_owned()));
        }
        if data_fetches > self.fetches_per_page {
            return Err(BrowserError::FetchBudget {
                wanted: data_fetches,
                budget: self.fetches_per_page,
            });
        }
        // Dummy padding: uniformly random slots, indistinguishable from
        // real queries by construction of the PIR scheme.
        let real = data_fetches;
        lightweb_telemetry::counter!("browser.fetch.real").add(real as u64);
        let mut rng = rand::thread_rng();
        let domain_size = 1u64 << self.data_session_params_bits();
        while data_fetches < self.fetches_per_page {
            let slot = rng.gen_range(0..domain_size);
            let _ = self.data_session.private_get_slot(slot)?;
            data_fetches += 1;
            lightweb_telemetry::counter!("browser.fetch.dummy").inc();
        }

        // --- 4. Render ---
        let body = plan.render(&payloads)?;
        let title = plan.render_title(&payloads)?;
        self.visits.push(PageVisit {
            path: path.to_string(),
            code_fetches,
            data_fetches,
        });
        Ok(RenderedPage {
            title,
            body,
            links: plan.links.clone(),
            real_fetches: real,
            dummy_fetches: self.fetches_per_page - real,
        })
    }

    fn data_session_params_bits(&self) -> u32 {
        // The data universe's slot-domain bits, for dummy-slot sampling.
        self.data_session.params().domain_bits()
    }

    /// Fetch a possibly-chained value, spending budget per part. Returns
    /// `None` for an absent value (all-zero blob decodes to empty payload
    /// with no continuation).
    fn fetch_chain(
        &mut self,
        path: &str,
        fetch_count: &mut usize,
    ) -> Result<Option<Vec<u8>>, BrowserError> {
        let mut assembled = Vec::new();
        for part in 0..self.max_chain_parts {
            let part_path = if part == 0 {
                path.to_string()
            } else {
                continuation_path(path, part)
            };
            let blob = self.data_session.private_get(&part_path)?;
            *fetch_count += 1;
            let (header, payload) = decode_blob(&blob)?;
            if part == 0 && header.payload_len == 0 && !header.has_next {
                // Absent key: servers return the zero blob.
                return Ok(None);
            }
            assembled.extend_from_slice(payload);
            if !header.has_next {
                return Ok(Some(assembled));
            }
        }
        Err(BrowserError::Blob(BlobError::Corrupt(format!(
            "chain at '{path}' exceeds {} parts",
            self.max_chain_parts
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightweb_universe::access::AccessKeyring;
    use lightweb_universe::json::Value;
    use lightweb_universe::{Universe, UniverseConfig};

    fn news_universe() -> Universe {
        let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
        u.register_domain("news.com", "News").unwrap();
        u.publish_code(
            "News",
            "news.com",
            r#"
            route "/" {
                fetch "news.com/frontpage"
                title "News"
                render "Front: {data.0.lead}"
            }
            route "/articles/:slug" {
                fetch "news.com/articles/{slug}"
                title "{slug}"
                render "{data.0.body}"
            }
            default {
                render "not found"
            }
            "#,
        )
        .unwrap();
        u.publish_json(
            "News",
            "news.com/frontpage",
            &Value::object([("lead", "Big story".into())]),
        )
        .unwrap();
        u.publish_json(
            "News",
            "news.com/articles/uganda",
            &Value::object([("body", "Article text about Uganda.".into())]),
        )
        .unwrap();
        u
    }

    fn browser_for(u: &Universe) -> LightwebBrowser<lightweb_core::MemDuplex> {
        LightwebBrowser::connect(
            u.connect_code(),
            u.connect_data(),
            u.config().fetches_per_page,
            u.config().max_chain_parts,
        )
        .unwrap()
    }

    #[test]
    fn browse_renders_pages() {
        let u = news_universe();
        let mut b = browser_for(&u);
        let page = b.browse("news.com/").unwrap();
        assert_eq!(page.title, "News");
        assert_eq!(page.body, "Front: Big story");
        let article = b.browse("news.com/articles/uganda").unwrap();
        assert_eq!(article.title, "uganda");
        assert!(article.body.contains("Uganda"));
        let missing = b.browse("news.com/no/such/page").unwrap();
        assert_eq!(missing.body, "not found");
    }

    #[test]
    fn every_page_view_issues_exactly_the_fixed_fetch_count() {
        let u = news_universe();
        let budget = u.config().fetches_per_page;
        let mut b = browser_for(&u);
        b.browse("news.com/").unwrap();
        b.browse("news.com/articles/uganda").unwrap();
        b.browse("news.com/no/such/page").unwrap(); // zero real fetches
        for visit in b.visits() {
            assert_eq!(visit.data_fetches, budget, "visit {:?}", visit.path);
        }
        // And the session-level request counter agrees: 3 pages × budget.
        assert_eq!(b.data_stats().requests, (3 * budget) as u64);
    }

    #[test]
    fn code_blob_is_cached_after_first_visit() {
        let u = news_universe();
        let mut b = browser_for(&u);
        b.browse("news.com/").unwrap();
        b.browse("news.com/articles/uganda").unwrap();
        let visits = b.visits();
        assert_eq!(visits[0].code_fetches, 1);
        assert_eq!(visits[1].code_fetches, 0, "cache miss on second visit");
        assert_eq!(b.code_stats().requests, 1);
        // Eviction forces a refetch.
        b.evict_code("news.com");
        b.browse("news.com/").unwrap();
        assert_eq!(b.visits()[2].code_fetches, 1);
    }

    #[test]
    fn unknown_domain_reports_no_code() {
        let u = news_universe();
        let mut b = browser_for(&u);
        assert!(matches!(
            b.browse("ghost.com/x"),
            Err(BrowserError::NoCode(d)) if d == "ghost.com"
        ));
    }

    #[test]
    fn bad_path_rejected() {
        let u = news_universe();
        let mut b = browser_for(&u);
        assert!(matches!(
            b.browse("nodomain"),
            Err(BrowserError::BadPath(_))
        ));
    }

    #[test]
    fn prompt_flow_personalizes_content() {
        let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
        u.register_domain("weather.com", "Wx").unwrap();
        u.publish_code(
            "Wx",
            "weather.com",
            r#"
            route "/" {
                prompt postal "Enter postal code:"
                fetch "weather.com/by-postal/{store.postal}"
                render "Forecast: {data.0.forecast}"
            }
            "#,
        )
        .unwrap();
        u.publish_json(
            "Wx",
            "weather.com/by-postal/94110",
            &Value::object([("forecast", "fog".into())]),
        )
        .unwrap();

        let mut b = browser_for(&u);
        b.set_prompt_handler(|_q| "94110".to_string());
        let page = b.browse("weather.com/").unwrap();
        assert_eq!(page.body, "Forecast: fog");
        assert_eq!(b.storage().get("weather.com", "postal"), Some("94110"));
        // Second visit uses the stored code without prompting.
        b.set_prompt_handler(|_q| panic!("should not prompt again"));
        let page2 = b.browse("weather.com/").unwrap();
        assert_eq!(page2.body, "Forecast: fog");
    }

    #[test]
    fn chained_values_consume_budget() {
        let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
        u.register_domain("long.com", "L").unwrap();
        u.publish_code(
            "L",
            "long.com",
            "route \"/\" {\n fetch \"long.com/epic\"\n render \"{data.0}\"\n }",
        )
        .unwrap();
        let long_text = "A".repeat(2500); // 3 parts in a 1 KiB universe
        u.publish_data("L", "long.com/epic", long_text.as_bytes())
            .unwrap();

        let mut b = browser_for(&u);
        let page = b.browse("long.com/").unwrap();
        assert_eq!(page.body.len(), 2500);
        assert_eq!(page.real_fetches, 3);
        assert_eq!(page.dummy_fetches, u.config().fetches_per_page - 3);
    }

    #[test]
    fn paywalled_content_requires_a_pass() {
        let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
        u.register_domain("paid.com", "Paid").unwrap();
        u.publish_code(
            "Paid",
            "paid.com",
            "route \"/premium\" {\n fetch \"paid.com/premium-data\"\n render \"{data.0}\"\n }",
        )
        .unwrap();
        let ring = AccessKeyring::new();
        let protected = ring.protect("paid.com/premium-data", b"exclusive scoop");
        u.publish_data("Paid", "paid.com/premium-data", &protected)
            .unwrap();

        // Without a pass the browser sees ciphertext and has no pass
        // installed — it renders the raw (garbled) payload.
        let mut anon = browser_for(&u);
        let page = anon.browse("paid.com/premium").unwrap();
        assert!(!page.body.contains("exclusive scoop"));

        // With the pass, plaintext.
        let mut subscriber = browser_for(&u);
        subscriber.install_pass("paid.com", ring.issue_pass(0));
        let page = subscriber.browse("paid.com/premium").unwrap();
        assert_eq!(page.body, "exclusive scoop");
    }

    #[test]
    fn revoked_pass_fails_after_rotation() {
        let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
        u.register_domain("paid.com", "Paid").unwrap();
        u.publish_code(
            "Paid",
            "paid.com",
            "route \"/p\" {\n fetch \"paid.com/d\"\n render \"{data.0}\"\n }",
        )
        .unwrap();
        let mut ring = AccessKeyring::new();
        let old_pass = ring.issue_pass(0);
        ring.rotate();
        u.publish_data("Paid", "paid.com/d", &ring.protect("paid.com/d", b"v2"))
            .unwrap();

        let mut b = browser_for(&u);
        b.install_pass("paid.com", old_pass);
        assert!(matches!(
            b.browse("paid.com/p"),
            Err(BrowserError::Access(_))
        ));
    }

    #[test]
    fn following_links_navigates_like_a_user() {
        let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
        u.register_domain("serial.com", "S").unwrap();
        u.publish_code(
            "S",
            "serial.com",
            r#"
            route "/part/:n" {
                fetch "serial.com/part/{n}"
                link "Next" "serial.com/part/{n}x"
                render "{data.0}"
            }
            "#,
        )
        .unwrap();
        u.publish_data("S", "serial.com/part/1", b"chapter one")
            .unwrap();
        u.publish_data("S", "serial.com/part/1x", b"chapter two")
            .unwrap();

        let mut b = browser_for(&u);
        let page = b.browse("serial.com/part/1").unwrap();
        assert_eq!(page.body, "chapter one");
        let (label, target) = &page.links[0];
        assert_eq!(label, "Next");
        let next = b.browse(target).unwrap();
        assert_eq!(next.body, "chapter two");
        // Both hops had the identical traffic shape.
        assert_eq!(b.visits()[0].data_fetches, b.visits()[1].data_fetches);
    }

    #[test]
    fn cover_loads_match_cached_visits_on_the_wire() {
        let u = news_universe();
        // Browser A: warms the code cache, then one real visit.
        let mut a = browser_for(&u);
        a.browse("news.com/").unwrap();
        let before = a.data_stats();
        a.browse("news.com/articles/uganda").unwrap();
        let real_bytes = (
            a.data_stats().bytes_sent - before.bytes_sent,
            a.data_stats().bytes_received - before.bytes_received,
        );

        // Browser B: same warmup, then one cover load.
        let mut b = browser_for(&u);
        b.browse("news.com/").unwrap();
        let before = b.data_stats();
        b.browse_cover().unwrap();
        let cover_bytes = (
            b.data_stats().bytes_sent - before.bytes_sent,
            b.data_stats().bytes_received - before.bytes_received,
        );

        assert_eq!(real_bytes, cover_bytes, "cover load is distinguishable");
        assert_eq!(b.visits()[1].data_fetches, u.config().fetches_per_page);
        assert_eq!(b.visits()[1].code_fetches, 0);
    }

    #[test]
    fn paced_session_shape_is_visit_independent() {
        use crate::pacer::Pacer;
        let u = news_universe();
        let pacer = Pacer::new(1.0);

        // Two very different browsing patterns over the same horizon.
        let run = |visits: &[f64]| {
            let mut b = browser_for(&u);
            b.browse("news.com/").unwrap(); // cache warmup (code fetch)
            let schedule = pacer.schedule(visits, 6.0);
            for slot in &schedule {
                match slot.real {
                    Some(_) => {
                        b.browse("news.com/articles/uganda").unwrap();
                    }
                    None => b.browse_cover().unwrap(),
                }
            }
            (b.data_stats(), schedule.len())
        };
        let (busy, n1) = run(&[0.0, 0.5, 1.0, 2.0, 3.0]);
        let (idle, n2) = run(&[]);
        assert_eq!(n1, n2);
        assert_eq!(busy.requests, idle.requests);
        assert_eq!(busy.bytes_sent, idle.bytes_sent);
        assert_eq!(busy.bytes_received, idle.bytes_received);
    }

    #[test]
    fn over_budget_page_rejected() {
        let u = Universe::new(UniverseConfig::small_test("cdn")).unwrap();
        u.register_domain("greedy.com", "G").unwrap();
        let fetches: String = (0..6)
            .map(|i| format!(" fetch \"greedy.com/d{i}\"\n"))
            .collect();
        u.publish_code(
            "G",
            "greedy.com",
            &format!("route \"/\" {{\n{fetches} render \"x\"\n }}"),
        )
        .unwrap();
        let mut b = browser_for(&u);
        assert!(matches!(
            b.browse("greedy.com/"),
            Err(BrowserError::FetchBudget {
                wanted: 6,
                budget: 5
            })
        ));
    }
}
