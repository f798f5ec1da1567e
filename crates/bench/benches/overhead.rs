//! Criterion micro-benchmarks behind Figure 13: the per-SDU hot path
//! OutRAN adds to the xNodeB user plane — five-tuple header parsing,
//! flow-table observation (hash + MLFQ marking), ciphering, and the
//! RLC MLFQ push/pull discipline.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use outran_pdcp::{CipherStream, FiveTuple, FlowTable, MlfqConfig, Priority};
use outran_rlc::{MlfqQueues, RlcSdu};
use outran_simcore::Time;

fn bench_flow_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("pdcp_flow_table_observe");
    for n_flows in [1_000usize, 2_000, 4_000, 8_000] {
        g.bench_with_input(BenchmarkId::from_parameter(n_flows), &n_flows, |b, &n| {
            let mut ft = FlowTable::new(MlfqConfig::default());
            let tuples: Vec<FiveTuple> = (0..n)
                .map(|i| FiveTuple::simulated(i as u64, (i % 16) as u16))
                .collect();
            for t in &tuples {
                ft.observe(*t, 1500, Time::ZERO);
            }
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % n;
                ft.observe(tuples[i], 1500, Time::ZERO)
            });
        });
    }
    g.finish();
}

fn bench_header_parse(c: &mut Criterion) {
    let tuple = FiveTuple::simulated(42, 3);
    let mut header = [0u8; FiveTuple::IPV4_HEADER_LEN];
    tuple.write_ipv4_header(&mut header);
    c.bench_function("pdcp_parse_ipv4_five_tuple", |b| {
        b.iter(|| FiveTuple::parse_ipv4(std::hint::black_box(&header)))
    });
}

fn bench_cipher(c: &mut Criterion) {
    let stream = CipherStream::new(0xDEAD_BEEF);
    let payload = vec![0xA5u8; 1400];
    c.bench_function("pdcp_cipher_1400B", |b| {
        let mut count = 0u32;
        b.iter(|| {
            count = count.wrapping_add(1);
            stream.apply(count, std::hint::black_box(&payload))
        })
    });
}

fn bench_mlfq(c: &mut Criterion) {
    c.bench_function("rlc_mlfq_push_pull_cycle", |b| {
        b.iter_batched(
            || {
                let mut q = MlfqQueues::new(4, 256);
                for i in 0..128u64 {
                    let _ = q.push(RlcSdu {
                        id: i,
                        flow_id: i % 16,
                        tuple: FiveTuple::simulated(i % 16, 0),
                        len: 1400,
                        offset: 0,
                        priority: Priority((i % 4) as u8),
                        arrival: Time::ZERO,
                        seq: i * 1400,
                    });
                }
                q
            },
            |mut q| q.pull(64_000, 3),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_flow_table,
    bench_header_parse,
    bench_cipher,
    bench_mlfq
);
criterion_main!(benches);
