//! Virtual time answers to the cost model: on the Table 1 batch cells that
//! carry request digests or use MACs, making any one `CostModel` price
//! dearer never makes the group faster.
//!
//! A batch cell's throughput used to read the engine's batch-formation
//! gate as much as the prices (its width stayed at the gate's 6 under any
//! 0.5–2× MAC or digest price); with one batching rule — the primary puts
//! everything pending into the batch it issues when the previous one
//! executes — the cells move with cost. Each price is doubled in turn and
//! the cell re-measured on the same seed. The 1 % slack is the jitter of a
//! price the configuration hardly spends (`sign_us` under MACs, or
//! `per_kb_us`, which read 1 225.5 / 1 228.5 / 1 224.0 TPS across single
//! trials of `sta_nomac_allbig_batch`). The `acid` SQL cells are left out:
//! they run request bodies inline, whose pipelined window this rule does
//! not touch, and their throughput still rises with some prices.
//!
//! Each run is one trial over a shortened window (100 ms warm-up, 300 ms
//! counted, against the benches' 500 ms and 2 s) to fit 33 runs in the
//! test profile's budget.

use harness::cluster::Cluster;
use harness::cost::CostModel;
use harness::experiments::{config, null_spec, NUM_CLIENTS};
use harness::testkit::ms;
use harness::workload::null_ops;
use pbft_core::PbftConfig;

const SIZE: usize = 1024;

/// The ten prices, by field name.
const PRICES: [&str; 10] = [
    "mac_us",
    "sign_us",
    "sig_verify_us",
    "digest_us_per_kb",
    "page_hash_us",
    "packet_us",
    "fragment_us",
    "per_kb_us",
    "flush_us",
    "disk_write_us_per_kb",
];

/// The default model with `price` doubled.
fn doubled(price: &str) -> CostModel {
    let mut c = CostModel::default();
    let p = match price {
        "mac_us" => &mut c.mac_us,
        "sign_us" => &mut c.sign_us,
        "sig_verify_us" => &mut c.sig_verify_us,
        "digest_us_per_kb" => &mut c.digest_us_per_kb,
        "page_hash_us" => &mut c.page_hash_us,
        "packet_us" => &mut c.packet_us,
        "fragment_us" => &mut c.fragment_us,
        "per_kb_us" => &mut c.per_kb_us,
        "flush_us" => &mut c.flush_us,
        "disk_write_us_per_kb" => &mut c.disk_write_us_per_kb,
        other => panic!("no price {other}"),
    };
    *p *= 2.0;
    c
}

/// One trial of the 1 KiB null workload under `cfg` and `cost`, seed 1000.
fn tps(cfg: &PbftConfig, cost: CostModel) -> f64 {
    let mut spec = null_spec(cfg.clone(), SIZE, NUM_CLIENTS, 1000);
    spec.cost = cost;
    let mut cluster = Cluster::build(spec);
    cluster.start_workload(|_| null_ops(SIZE));
    cluster.measure_throughput(ms(100), ms(300))
}

#[test]
fn a_dearer_price_never_raises_batch_cell_throughput() {
    let cells = [
        config(false, true, true, true),  // sta_mac_allbig_batch
        config(false, true, false, true), // sta_mac_noallbig_batch
        config(false, false, true, true), // sta_nomac_allbig_batch
    ];
    let mut rises = Vec::new();
    for cfg in &cells {
        let base = tps(cfg, CostModel::default());
        assert!(base > 0.0, "{}: no throughput", cfg.table1_name());
        for price in PRICES {
            let dear = tps(cfg, doubled(price));
            if dear > 1.01 * base {
                rises.push(format!(
                    "{} {price} × 2: {dear:.1} TPS against {base:.1}",
                    cfg.table1_name()
                ));
            }
        }
    }
    assert!(
        rises.is_empty(),
        "a dearer price raised throughput: {rises:#?}"
    );
}
