//! Cross-store integration tests: every store must round-trip images with
//! functional equality, and the storage hierarchy of Figure 3 must hold.

use expelliarmus::prelude::*;
use expelliarmus::store::{full_fingerprint, semantic_fingerprint, StoreError};

fn all_stores(world: &World) -> Vec<Box<dyn ImageStore>> {
    vec![
        Box::new(QcowStore::new(world.env())),
        Box::new(GzipStore::new(world.env())),
        Box::new(MirageStore::new(world.env())),
        Box::new(HemeraStore::new(world.env())),
        Box::new(ExpelliarmusRepo::new(world.env())),
        Box::new(FixedBlockDedupStore::new(world.env(), 256)),
        Box::new(CdcDedupStore::new(world.env(), 512)),
    ]
}

#[test]
fn every_store_roundtrips_every_image() {
    let world = World::small();
    for store in all_stores(&world) {
        for name in world.image_names() {
            let vmi = world.build_image(name);
            store
                .publish(&world.catalog, &vmi)
                .unwrap_or_else(|e| panic!("{}: publish {name}: {e}", store.name()));
            let req = RetrieveRequest::for_image(&vmi, &world.catalog);
            let (got, report) = store
                .retrieve(&world.catalog, &req)
                .unwrap_or_else(|e| panic!("{}: retrieve {name}: {e}", store.name()));
            assert_eq!(
                got.installed_package_set(&world.catalog),
                vmi.installed_package_set(&world.catalog),
                "{}: package set mismatch for {name}",
                store.name()
            );
            assert_eq!(
                got.user_data_bytes(),
                vmi.user_data_bytes(),
                "{}: user data mismatch for {name}",
                store.name()
            );
            assert!(
                report.duration.as_nanos() > 0,
                "{}: zero-cost retrieve",
                store.name()
            );
        }
    }
}

#[test]
fn storage_hierarchy_matches_figure3() {
    let world = World::small();
    let qcow = QcowStore::new(world.env());
    let gzip = GzipStore::new(world.env());
    let mirage = MirageStore::new(world.env());
    let hemera = HemeraStore::new(world.env());
    let xpl = ExpelliarmusRepo::new(world.env());
    for name in world.image_names() {
        let vmi = world.build_image(name);
        qcow.publish(&world.catalog, &vmi).unwrap();
        gzip.publish(&world.catalog, &vmi).unwrap();
        mirage.publish(&world.catalog, &vmi).unwrap();
        hemera.publish(&world.catalog, &vmi).unwrap();
        xpl.publish(&world.catalog, &vmi).unwrap();
    }
    let (q, g, m, h, x) = (
        qcow.repo_bytes(),
        gzip.repo_bytes(),
        mirage.repo_bytes(),
        hemera.repo_bytes(),
        xpl.repo_bytes(),
    );
    // Figure 3's ordering at scale: Expelliarmus < Mirage ≈ Hemera < Qcow2,
    // gzip between dedup stores and raw.
    assert!(x < m, "Expelliarmus {x} must beat Mirage {m}");
    assert!(m < q && h < q && g < q, "every scheme beats raw qcow2");
    let ratio = (h as f64) / (m as f64);
    assert!(
        (0.7..1.4).contains(&ratio),
        "Mirage {m} vs Hemera {h} should be close"
    );
}

#[test]
fn monolithic_stores_cannot_serve_unknown_images() {
    let world = World::small();
    let vmi = world.build_image("redis");
    for store in all_stores(&world) {
        store.publish(&world.catalog, &vmi).unwrap();
        let req = RetrieveRequest {
            name: "never-published".into(),
            base: vmi.base.clone(),
            primary: vec!["redis-server".into()],
            user_data: vec![],
        };
        let result = store.retrieve(&world.catalog, &req);
        if store.name() == "Expelliarmus" {
            // The semantic store assembles it from parts.
            assert!(result.is_ok(), "Expelliarmus should assemble from parts");
        } else {
            assert!(
                matches!(result, Err(StoreError::NotFound(_))),
                "{} should not find an unpublished image",
                store.name()
            );
        }
    }
}

#[test]
fn repeated_publish_is_idempotent_for_dedup_stores() {
    let world = World::small();
    let vmi = world.build_image("lamp");
    for store in all_stores(&world) {
        store.publish(&world.catalog, &vmi).unwrap();
        let size1 = store.repo_bytes();
        store.publish(&world.catalog, &vmi).unwrap();
        let size2 = store.repo_bytes();
        let grew = size2.saturating_sub(size1);
        match store.name() {
            // Monolithic stores replace the entry by name: no growth.
            "Qcow2" | "Qcow2+Gzip" => assert!(grew <= size1 / 100, "{}: grew {grew}", store.name()),
            // Dedup stores add at most metadata.
            _ => assert!(
                grew < size1 / 20,
                "{}: republish grew {grew} of {size1}",
                store.name()
            ),
        }
    }
}

#[test]
fn every_store_agrees_differentially_on_every_image() {
    // The churn oracle's core equality, applied exhaustively to the small
    // world across ALL stores (the five evaluated systems plus both
    // block-dedup baselines): every retrieval of the same image must have
    // the same semantic fingerprint, and snapshot stores must reproduce
    // the exact full fingerprint of what was published.
    let world = World::small();
    let stores = all_stores(&world);
    for name in world.image_names() {
        let vmi = world.build_image(name);
        let want_semantic = semantic_fingerprint(&world.catalog, &vmi);
        let want_full = full_fingerprint(&world.catalog, &vmi);
        let req = RetrieveRequest::for_image(&vmi, &world.catalog);
        for store in stores.iter() {
            store.publish(&world.catalog, &vmi).unwrap();
            let (got, _) = store.retrieve(&world.catalog, &req).unwrap();
            assert_eq!(
                semantic_fingerprint(&world.catalog, &got),
                want_semantic,
                "{}: semantic fingerprint diverged for {name}",
                store.name()
            );
            if store.name() != "Expelliarmus" {
                assert_eq!(
                    full_fingerprint(&world.catalog, &got),
                    want_full,
                    "{}: full fingerprint diverged for {name}",
                    store.name()
                );
            }
            store
                .check_integrity()
                .unwrap_or_else(|e| panic!("{} integrity: {e}", store.name()));
        }
    }
}

#[test]
fn delete_frees_only_the_deleted_image() {
    // Publish three images everywhere, delete the middle one: the other
    // two must stay retrievable and every refcount audit must stay clean.
    let world = World::small();
    for store in all_stores(&world) {
        for name in ["mini", "redis", "lamp"] {
            store
                .publish(&world.catalog, &world.build_image(name))
                .unwrap();
        }
        let before = store.repo_bytes();
        let report = store.delete("redis").unwrap();
        assert_eq!(report.image, "redis");
        assert_eq!(
            store.repo_bytes(),
            before - report.bytes_freed,
            "{}: delete accounting",
            store.name()
        );
        store
            .check_integrity()
            .unwrap_or_else(|e| panic!("{} integrity after delete: {e}", store.name()));
        // Survivors still round-trip.
        for name in ["mini", "lamp"] {
            let vmi = world.build_image(name);
            let req = RetrieveRequest::for_image(&vmi, &world.catalog);
            let (got, _) = store
                .retrieve(&world.catalog, &req)
                .unwrap_or_else(|e| panic!("{}: {name} after delete: {e}", store.name()));
            assert_eq!(
                semantic_fingerprint(&world.catalog, &got),
                semantic_fingerprint(&world.catalog, &vmi),
                "{}: {name} corrupted by deleting redis",
                store.name()
            );
        }
        // The deleted name is gone from monolithic stores; deleting it
        // again is an error everywhere.
        assert!(matches!(
            store.delete("redis"),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(
            store.delete("never-there"),
            Err(StoreError::NotFound(_))
        ));
    }
}

#[test]
fn publish_reports_are_consistent() {
    let world = World::small();
    for store in all_stores(&world) {
        let vmi = world.build_image("nginx");
        let report = store.publish(&world.catalog, &vmi).unwrap();
        assert_eq!(report.image, "nginx");
        assert!(report.duration.as_nanos() > 0);
        assert!(
            report.breakdown.total() <= report.duration,
            "{}: breakdown {} exceeds duration {}",
            store.name(),
            report.breakdown.total(),
            report.duration
        );
    }
}

#[test]
fn five_stores_serve_distinct_images_concurrently() {
    // The shared-access (`&self`) retrieval path under real contention:
    // four threads per store retrieve every image at once, each starting
    // at a different image so distinct images are in flight together.
    // Every concurrent retrieval must match the sequential one.
    const THREADS: usize = 4;
    let world = World::small();
    let names = world.image_names();
    let requests: Vec<RetrieveRequest> = names
        .iter()
        .map(|name| RetrieveRequest::for_image(&world.build_image(name), &world.catalog))
        .collect();
    for store in expelliarmus::bench::churn::five_stores(
        || world.env(),
        expelliarmus::store::TierPolicy::raw(),
    ) {
        for name in &names {
            store
                .publish(&world.catalog, &world.build_image(name))
                .unwrap_or_else(|e| panic!("{}: publish {name}: {e}", store.name()));
        }
        let sequential: Vec<_> = requests
            .iter()
            .map(|req| {
                let (vmi, _) = store.retrieve(&world.catalog, req).unwrap();
                semantic_fingerprint(&world.catalog, &vmi)
            })
            .collect();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (store, world, names, requests, sequential, barrier) =
                    (&store, &world, &names, &requests, &sequential, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..requests.len() {
                        let i = (t + k) % requests.len();
                        let (vmi, _) = store
                            .retrieve(&world.catalog, &requests[i])
                            .unwrap_or_else(|e| panic!("{}: retrieve: {e}", store.name()));
                        assert_eq!(
                            semantic_fingerprint(&world.catalog, &vmi),
                            sequential[i],
                            "{}: concurrent retrieval of {} diverged",
                            store.name(),
                            names[i]
                        );
                    }
                });
            }
        });
        store
            .check_integrity()
            .unwrap_or_else(|e| panic!("{} integrity: {e}", store.name()));
    }
}
