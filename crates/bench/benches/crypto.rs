//! Micro-benches (hix-testkit): real throughput of the from-scratch
//! crypto primitives (these numbers are wall-clock, not simulated —
//! they justify the "functional plane" being usable in tests), plus one
//! whole session `connect` + `close`, the control-plane host cost those
//! primitives (and the shared-window mapping) add up to. Emits
//! `BENCH_crypto.json` alongside the printed report so the crypto
//! plane's perf trajectory rides in the same ledger as the simulated
//! reports (wall-clock numbers vary by host, so unlike `BENCH_perf` and
//! `BENCH_scale` this file is informational, never byte-compared).
//!
//! The seal/open rows run the zero-allocation `seal_into`/`open_into`
//! multi-block paths into preallocated buffers — the same hot path the
//! DMA pipeline uses — so the open/seal ratio reflects cipher asymmetry,
//! not allocator noise.
//!
//! Usage:
//!   cargo bench --bench crypto [-- OUT.json]     run and emit
//!   cargo bench --bench crypto -- --check FILE   check a ledger only

use hix_bench::json::Json;
use hix_bench::ledger::row;
use hix_bench::ledgers::crypto::{LEDGER, ROWS};
use hix_bench::{fail, vals};
use hix_crypto::drbg::HmacDrbg;
use hix_crypto::ocb::{Key, Nonce, Ocb, TAG_LEN};
use hix_crypto::{
    aes::{Aes128, WIDE_BATCH},
    sha256,
};
use hix_testkit::bench::{black_box, Bench, Measurement};

fn bench_aes_block(rows: &mut Vec<Measurement>) {
    let aes = Aes128::new(&[7u8; 16]);
    let mut block = [0x5au8; 16];
    rows.push(Bench::new("aes128/encrypt_block").run(|| {
        block = aes.encrypt_block(black_box(block));
        block
    }));
    let mut block = [0xa5u8; 16];
    rows.push(Bench::new("aes128/decrypt_block").run(|| {
        block = aes.decrypt_block(black_box(block));
        block
    }));
}

fn bench_aes_wide(rows: &mut Vec<Measurement>) {
    let aes = Aes128::new(&[7u8; 16]);
    let mut blocks = [[0x5au8; 16]; WIDE_BATCH];
    let bytes = (WIDE_BATCH * 16) as u64;
    rows.push(
        Bench::new("aes128/encrypt_blocks/8wide")
            .throughput_bytes(bytes)
            .run(|| aes.encrypt_blocks(black_box(&mut blocks))),
    );
    rows.push(
        Bench::new("aes128/decrypt_blocks/8wide")
            .throughput_bytes(bytes)
            .run(|| aes.decrypt_blocks(black_box(&mut blocks))),
    );
}

fn bench_ocb_seal(rows: &mut Vec<Measurement>) {
    let ocb = Ocb::new(&Key::from_bytes([3u8; 16]));
    for kib in [4u64, 64, 1024] {
        let data = vec![0xabu8; (kib * 1024) as usize];
        let mut out = vec![0u8; data.len() + TAG_LEN];
        let mut counter = 0u64;
        rows.push(
            Bench::new(format!("ocb/seal/{kib}KiB"))
                .throughput_bytes(kib * 1024)
                .run(|| {
                    counter += 1;
                    ocb.seal_into(&Nonce::from_counter(counter), b"aad", &data, &mut out);
                    out[0]
                }),
        );
    }
}

fn bench_ocb_open(rows: &mut Vec<Measurement>) {
    let ocb = Ocb::new(&Key::from_bytes([3u8; 16]));
    for kib in [4u64, 64, 1024] {
        let data = vec![0xabu8; (kib * 1024) as usize];
        let sealed = ocb.seal(&Nonce::from_counter(1), b"aad", &data);
        let mut out = vec![0u8; data.len()];
        rows.push(
            Bench::new(format!("ocb/open/{kib}KiB"))
                .throughput_bytes(kib * 1024)
                .run(|| {
                    ocb.open_into(&Nonce::from_counter(1), b"aad", &sealed, &mut out)
                        .unwrap();
                    out[0]
                }),
        );
    }
}

fn bench_sha256() -> Measurement {
    let data = vec![0x11u8; 64 * 1024];
    Bench::new("sha256/64KiB")
        .throughput_bytes(data.len() as u64)
        .run(|| sha256::digest(&data))
}

/// One two-party agreement (two keypairs, one shared secret) per group:
/// the simulator's 256-bit default and RFC 3526 group 14.
fn bench_dh_handshake(rows: &mut Vec<Measurement>) {
    use hix_crypto::dh::DhGroup;
    for (name, group) in [
        ("dh/sim-group-agreement", DhGroup::sim()),
        ("dh/modp2048-agreement", DhGroup::modp2048()),
    ] {
        let mut rng_a = HmacDrbg::new(b"a");
        let mut rng_b = HmacDrbg::new(b"b");
        rows.push(Bench::new(name).run(|| {
            let a = group.generate(&mut rng_a);
            let bk = group.generate(&mut rng_b);
            group.agree(&a, &bk.public).unwrap()
        }));
    }
}

/// One session lifecycle on one rig: `connect` with the default 64 MiB
/// shared window (attestation, three-party DH, window mapping) and
/// `close` (context teardown, window unmapping).
fn bench_session(rows: &mut Vec<Measurement>) {
    use hix_core::{GpuEnclave, GpuEnclaveOptions, HixSession};
    use hix_driver::rig::{standard_rig, RigOptions};
    let mut m = standard_rig(RigOptions::default());
    let mut enclave =
        GpuEnclave::launch(&mut m, GpuEnclaveOptions::default()).expect("enclave launches");
    rows.push(Bench::new("session/connect-close").run(|| {
        let s = HixSession::connect(&mut m, &mut enclave).expect("connect");
        s.close(&mut m, &mut enclave).expect("close");
    }));
}

fn ledger(rows: &[Measurement]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|m| {
            row(ROWS, vals![
                m.name.as_str(),
                m.median_ns,
                m.p95_ns,
                m.min_ns,
                m.iters,
                m.throughput_bytes.unwrap_or(0),
                m.mib_per_sec(),
            ])
        })
        .collect();
    LEDGER.doc(vals![rows])
}

fn main() {
    // cargo passes harness flags like `--bench` and runs the bench with
    // the package as CWD; the output path is the first non-flag
    // argument, defaulting to the workspace-root ledger name.
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a == "--check" || !a.starts_with('-'))
        .collect();
    let (_, paths) = LEDGER.cli(&args);

    let mut rows = Vec::new();
    bench_aes_block(&mut rows);
    bench_aes_wide(&mut rows);
    bench_ocb_seal(&mut rows);
    bench_ocb_open(&mut rows);
    rows.push(bench_sha256());
    bench_dh_handshake(&mut rows);
    bench_session(&mut rows);

    let out_path = paths.into_iter().next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json").into()
    });
    if let Err(e) = LEDGER.write(&out_path, &ledger(&rows)) {
        fail(&e);
    }
    println!("\ncrypto bench: wrote {} rows to {out_path}", rows.len());
}
