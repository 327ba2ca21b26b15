//! The paper's motivating scenario: an exploratory astronomy workload whose
//! access pattern drifts over time (SDSS, Figures 1–2). DeepSea's decayed
//! benefits let the pool follow the drift: fragments serving the old hot spot
//! get evicted as the new one heats up.
//!
//! ```sh
//! cargo run --release --example sdss_exploration
//! ```

use deepsea::core::{baselines, driver::DeepSea};
use deepsea::workload::schema::{BigBenchData, InstanceSize, ItemDistribution};
use deepsea::workload::sdss::{sdss_like_histogram, SdssTrace};
use deepsea::workload::sequences::item_domain;
use deepsea::workload::TemplateId;

fn main() {
    let (lo, hi) = item_domain();
    // Data whose item popularity follows the SDSS ra histogram, like §10.1.
    let hist = sdss_like_histogram(lo, hi);
    let data = BigBenchData::generate(InstanceSize::Gb100, &ItemDistribution::Histogram(hist), 7);

    // A drifting trace: early queries browse one region, later ones another.
    let trace = SdssTrace::new(lo, hi).generate(120, 7);

    // Bounded pool: 10% of the base tables — eviction pressure is real.
    let smax = data.catalog.total_base_bytes() / 10;
    let cfg = baselines::deepsea().with_phi(0.05).with_smax(smax);
    let mut ds = DeepSea::new(data.catalog, cfg);

    let mut window_elapsed = 0.0;
    let mut window_reuse = 0;
    for (i, (l, h)) in trace.iter().enumerate() {
        let out = ds
            .process_query(&TemplateId::Q9.instantiate(*l, *h))
            .expect("query runs");
        window_elapsed += out.elapsed_secs;
        window_reuse += usize::from(out.used_view.is_some());
        if (i + 1) % 20 == 0 {
            println!(
                "queries {:>3}–{:>3}: {:>8.1}s total, {:>2}/20 reused, pool {:>5.2} GB",
                i - 18,
                i + 1,
                window_elapsed,
                window_reuse,
                ds.pool_bytes() as f64 / 1e9
            );
            window_elapsed = 0.0;
            window_reuse = 0;
        }
    }

    println!(
        "\nfinal pool ({} bytes of {} allowed):",
        ds.pool_bytes(),
        smax
    );
    for view in ds.registry().iter().filter(|v| v.is_materialized()) {
        for ps in view.partitions.values() {
            for (fid, iv) in ps.materialized() {
                let frag = ps.frag(fid).unwrap();
                println!(
                    "  {}.{}{}  {:>7.2} GB  {} hits",
                    view.name,
                    ps.attr,
                    iv,
                    frag.size as f64 / 1e9,
                    ds.registry()
                        .ledger()
                        .hits(view.id, &ps.attr)
                        .of(fid)
                        .raw_hits()
                );
            }
        }
    }
    println!("\nThe surviving fragments cluster around the *current* hot spot —");
    println!("the decay function timed out the benefits of the early region.");
}
