//! Deterministic model persistence: fit once, export the service's
//! models to a content-addressed artifact store, then warm-start a
//! fresh service from disk and serve bit-identical predictions —
//! no refit, no samples, no simulator.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use bmf_basis::basis::OrthonormalBasis;
use bmf_core::service::{FitRequest, FitService, ServiceConfig};
use bmf_persist::artifact::encode_snapshot;
use bmf_persist::store::ArtifactStore;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::seeded;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let r = 6;
    let mut rng = seeded(42);
    let mut normal = StandardNormal::new();
    let points: Vec<Vec<f64>> = (0..16).map(|_| normal.sample_vec(&mut rng, r)).collect();

    // --- Process 1: fit a few performance models through the service.
    let service = FitService::new(ServiceConfig::default())?;
    let ps = service.register_points(points.clone())?;
    for (j, name) in ["gain", "bandwidth", "psrr"].iter().enumerate() {
        let truth: Vec<f64> = (0..=r).map(|i| ((i + 3 * j) as f64 * 0.47).cos()).collect();
        let values = points
            .iter()
            .map(|p| {
                truth[0]
                    + p.iter()
                        .enumerate()
                        .map(|(i, x)| truth[i + 1] * x)
                        .sum::<f64>()
            })
            .collect();
        let prior = truth.iter().map(|t| Some(t * 1.05)).collect();
        service.submit_fit(FitRequest {
            job_id: (*name).to_string(),
            basis: OrthonormalBasis::linear(r),
            points: ps,
            prior,
            values,
        })?;
    }
    service.drain();
    println!("fitted {} models", service.snapshot_count());

    // Snapshots carry the model *and* its provenance, byte-deterministically.
    let snap = service.export_model("gain")?;
    let bytes = encode_snapshot(&snap)?;
    println!(
        "`gain` snapshot: {} bytes, prior {:?}, cv error {:.3e}",
        bytes.len(),
        snap.prior_kind,
        snap.cv_error
    );

    // Evict-to-disk: publish every model to a content-addressed store.
    let dir = std::env::temp_dir().join("bmf-persistence-example");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir)?;
    let ids = store.export_service(&service)?;
    for (id, job) in ids.iter().zip(service.job_ids()) {
        println!("stored {job:<10} as {id}.bmfsnap");
    }

    // --- Process 2 (simulated): warm-start a brand-new service from disk.
    let warmed = FitService::new(ServiceConfig::default())?;
    let imported = store.warm_start(&warmed)?;
    println!("warm-started a fresh service with {imported} models");

    // Bit-identical serving, without ever seeing a sample point.
    let probe: Vec<f64> = normal.sample_vec(&mut rng, r);
    for job in service.job_ids() {
        let cold = service.predict(&job, &probe)?;
        let warm = warmed.predict(&job, &probe)?;
        assert_eq!(cold.to_bits(), warm.to_bits());
        println!("{job:<10} predicts {cold:+.6} from both services (bit-identical)");
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
