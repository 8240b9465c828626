//! Property tests for the pool-recycled and borrowed ingestion paths:
//! both must be byte-for-byte equivalent to owned serial ingestion on
//! the whole [`NotaryAggregate`] for any worker count 1–8, batch
//! size, and fault profile (none / tap defaults / stress) — and the
//! quarantine/bisect recovery path must return every poisoned flow's
//! buffers to the pool instead of leaking or dropping them.

use proptest::prelude::*;
use tlscope_chron::Month;
use tlscope_notary::{
    ingest_borrowed, ingest_pooled, ingest_pooled_supervised, ingest_serial, FlowPool,
    NotaryAggregate, PipelineConfig, PipelineMetrics, PooledFlow, TappedFlow,
};
use tlscope_traffic::{FaultInjector, Generator, TrafficConfig};

/// The committed fault profiles: the same trio the test suites run
/// under via `TLSCOPE_FAULT_PROFILE`.
fn fault_profile() -> impl Strategy<Value = FaultInjector> {
    (0usize..3).prop_map(|i| match i {
        0 => FaultInjector::none(),
        1 => FaultInjector::tap_defaults(),
        _ => FaultInjector::stress(),
    })
}

fn month_flows(seed: u64, year: i32, mon: u8, n: u32, faults: FaultInjector) -> Vec<TappedFlow> {
    Generator::new(TrafficConfig {
        seed,
        connections_per_month: n,
        faults,
    })
    .month(Month::ym(year, mon))
    .into_iter()
    .map(TappedFlow::from)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Pooled channel ingestion and fused borrowed ingestion both
    /// reproduce owned serial ingestion bit-for-bit.
    #[test]
    fn pooled_and_borrowed_match_owned_serial(
        seed in 0u64..1_000_000,
        year in 2012i32..=2018,
        mon in 1u8..=12,
        n in 50u32..200,
        workers in 1usize..=8,
        batch in 1usize..300,
        faults in fault_profile(),
    ) {
        let flows = month_flows(seed, year, mon, n, faults);
        let serial = ingest_serial(flows.clone());

        // Borrowed fast path: fold the generator's scratch borrows
        // straight into the aggregate, as the fused runner does.
        let g = Generator::new(TrafficConfig {
            seed,
            connections_per_month: n,
            faults,
        });
        let mut borrowed = NotaryAggregate::new();
        let mut stream = g.stream_month(Month::ym(year, mon));
        while let Some(flow) = stream.next_flow() {
            ingest_borrowed(&mut borrowed, flow.date, flow.port, flow.client, flow.server);
        }
        prop_assert_eq!(&serial, &borrowed);

        // Pool-recycled channel path.
        let metrics = PipelineMetrics::new();
        let pooled = ingest_pooled(flows.clone(), workers, batch, &metrics);
        prop_assert_eq!(&serial, &pooled);

        let s = metrics.snapshot();
        prop_assert_eq!(s.flows_dispatched, flows.len() as u64);
        prop_assert_eq!(s.flows_ingested, flows.len() as u64);
        prop_assert_eq!(s.shards_lost, 0);
        prop_assert!(s.accounting_holds());
    }

    /// Poison flows are bisected out and quarantined; their buffers —
    /// and their batch neighbours' — all come back to the pool.
    #[test]
    fn quarantine_returns_poisoned_buffers_to_the_pool(
        seed in 0u64..1_000_000,
        n in 100u32..250,
        workers in 1usize..=8,
        batch in 1usize..128,
        poison_stride in 2u64..40,
        faults in fault_profile(),
    ) {
        let flows = month_flows(seed, 2016, 6, n, faults);
        let total = flows.len() as u64;
        let cfg = PipelineConfig::clamped(workers, batch);
        let pool = FlowPool::for_config(&cfg);
        let metrics = PipelineMetrics::new();
        // Deterministic poison: every flow whose client length is a
        // multiple of the stride panics the processor.
        let expected_poison = flows
            .iter()
            .filter(|f| (f.client.len() as u64).is_multiple_of(poison_stride))
            .count() as u64;
        let (agg, ()) = ingest_pooled_supervised(
            &pool,
            &cfg,
            &metrics,
            move |agg: &mut NotaryAggregate, flow: &PooledFlow| {
                if (flow.client.len() as u64).is_multiple_of(poison_stride) {
                    panic!("poisoned flow");
                }
                agg.not_tls += 1;
            },
            |feeder| {
                for f in &flows {
                    feeder.push(f.date, f.port, &f.client, f.server.as_deref());
                }
            },
        );
        let s = metrics.snapshot();
        prop_assert_eq!(s.shards_lost, 0);
        prop_assert_eq!(s.flows_quarantined, expected_poison);
        prop_assert_eq!(agg.not_tls, total - expected_poison);
        prop_assert_eq!(s.flows_dispatched, total);
        prop_assert!(s.accounting_holds());
        // Recovery never loses a buffer: the pool is sized for the
        // pipeline, so every client/server buffer — quarantined flows
        // included — is either recycled mid-run or sitting in the
        // return channel now.
        let stats = pool.stats();
        prop_assert_eq!(stats.bufs_dropped, 0);
        prop_assert_eq!(stats.batches_dropped, 0);
        let reused = pool.flow_buf(b"post-run");
        prop_assert_eq!(&*reused, b"post-run");
        prop_assert_eq!(pool.stats().bufs_recycled, stats.bufs_recycled + 1);
    }
}
