//! Scale-out and privacy-property integration tests: the §5.2 sharded
//! architecture at moderate scale, and the end-to-end traffic-shape
//! property that defeats the §1 fingerprinting attack.

use lightweb::dpf::{gen, DpfParams};
use lightweb::engine::ScanPool;
use lightweb::pir::{PirServer, TwoServerClient};
use lightweb::workload::fingerprint::{
    simulate_lightweb_flow, simulate_proxy_flow, synthetic_site, FlowObservation, NearestCentroid,
};
use lightweb::workload::CorpusSpec;
use lightweb::zltp::deployment::ShardedDeployment;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sharded_deployment_serves_a_synthetic_c4_shard() {
    // A scaled-down C4: 2^12 pages through the keyword map into a 2^14
    // domain, sharded 8 ways, retrieved through the full two-server
    // protocol with front-end splitting.
    let params = DpfParams::with_default_termination(14).unwrap();
    let pages = CorpusSpec::c4().generate(1 << 12, 42);
    let record_len = 512usize;
    let map = lightweb::pir::KeywordMap::new(&[7u8; 16], 14);

    let mut entries = Vec::new();
    let mut used = std::collections::HashSet::new();
    let mut stored = Vec::new();
    for page in &pages {
        let slot = map.slot(page.path.as_bytes());
        if !used.insert(slot) {
            continue; // keyword collision: the publisher would rename (§5.1)
        }
        let mut rec = vec![0u8; record_len];
        let n = page.body.len().min(record_len);
        rec[..n].copy_from_slice(&page.body[..n]);
        entries.push((slot, rec.clone()));
        stored.push((page.path.clone(), slot, rec));
    }
    // At 25% load, roughly 1/8 of pages collide; most survive.
    assert!(stored.len() > 3000, "only {} pages stored", stored.len());

    let dep0 = ShardedDeployment::from_entries(params, 3, record_len, entries.clone()).unwrap();
    let dep1 = ShardedDeployment::from_entries(params, 3, record_len, entries).unwrap();
    assert_eq!(dep0.shard_count(), 8);

    let client = TwoServerClient::new(params, record_len);
    for (path, slot, rec) in stored.iter().step_by(500) {
        let q = client.query_slot(*slot);
        let (a0, _) = dep0.answer(&q.key0).unwrap();
        let a1 = dep1
            .answer_with_pool(&q.key1, &ScanPool::new(dep1.shard_count()))
            .unwrap();
        assert_eq!(
            &TwoServerClient::combine(&a0, &a1).unwrap(),
            rec,
            "path {path}"
        );
    }
}

#[test]
fn sharding_degree_does_not_change_answers() {
    let params = DpfParams::with_default_termination(12).unwrap();
    let entries: Vec<(u64, Vec<u8>)> = (0..512u64)
        .map(|i| (i * 7 % (1 << 12), vec![i as u8; 64]))
        .collect::<std::collections::BTreeMap<_, _>>()
        .into_iter()
        .collect();
    let mono = PirServer::from_entries(params, 64, entries.clone()).unwrap();
    let (key, _) = gen(&params, 333);
    let reference = mono.answer(&key).unwrap();
    for prefix in 1..=4u32 {
        let dep = ShardedDeployment::from_entries(params, prefix, 64, entries.clone()).unwrap();
        assert_eq!(dep.answer(&key).unwrap().0, reference, "prefix {prefix}");
    }
}

#[test]
fn fingerprinting_attack_succeeds_on_proxy_fails_on_lightweb() {
    let mut rng = StdRng::seed_from_u64(1234);
    let site = synthetic_site(30, &mut rng);
    let chance = 1.0 / site.len() as f64;

    // Proxy channel: train and test on per-page flows.
    let train: Vec<(usize, FlowObservation)> = site
        .iter()
        .enumerate()
        .flat_map(|(l, objs)| {
            (0..6)
                .map(|_| (l, simulate_proxy_flow(objs, &mut rng)))
                .collect::<Vec<_>>()
        })
        .collect();
    let test: Vec<(usize, FlowObservation)> = site
        .iter()
        .enumerate()
        .map(|(l, objs)| (l, simulate_proxy_flow(objs, &mut rng)))
        .collect();
    let clf = NearestCentroid::train(&train);
    let proxy_acc = clf.accuracy(&test);
    assert!(
        proxy_acc > 10.0 * chance,
        "proxy attack should crush chance: {proxy_acc}"
    );

    // Lightweb channel: identical flows for every page → at most chance.
    let lw_train: Vec<(usize, FlowObservation)> = (0..site.len())
        .flat_map(|l| (0..6).map(move |_| (l, simulate_lightweb_flow(5, 1024))))
        .collect();
    let lw_test: Vec<(usize, FlowObservation)> = (0..site.len())
        .map(|l| (l, simulate_lightweb_flow(5, 1024)))
        .collect();
    let lw_clf = NearestCentroid::train(&lw_train);
    let lw_acc = lw_clf.accuracy(&lw_test);
    assert!(
        lw_acc <= chance + 1e-9,
        "lightweb leaked page identity: {lw_acc}"
    );
}

#[test]
fn corpus_scales_track_paper_statistics() {
    // Sanity tie between the workload generator and the cost model's
    // dataset specs: mean page sizes must agree.
    let spec = CorpusSpec::c4();
    let dataset = lightweb::cost::model::DatasetSpec::c4();
    let pages = spec.generate(2000, 9);
    let mean_kib =
        pages.iter().map(|p| p.body.len() as f64).sum::<f64>() / pages.len() as f64 / 1024.0;
    assert!(
        (mean_kib - dataset.avg_page_kib).abs() < 0.25,
        "generator mean {mean_kib:.2} KiB vs spec {} KiB",
        dataset.avg_page_kib
    );
}
