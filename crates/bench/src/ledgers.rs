//! The four `BENCH_*.json` ledger declarations and their semantic
//! invariants. Each key is declared once here; a key shared by several
//! groups of one ledger is one constant.

use crate::json::Json;
use crate::ledger::Kind::{Fixed, Int, Ints, Obj, Rows, Str};
use crate::ledger::{Col, Ledger};

/// `ensure!(cond, "msg", args…)`: an invariant fails with the message
/// unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// `BENCH_scale.json`, written by `scale_report`.
pub mod scale {
    use super::*;
    use hix_core::multiuser::FaultProfile;

    const PROFILE: Col = Col("profile", Str);
    const WAIT_P99: Col = Col("healthy_wait_p99_ns", Int);
    const WAIT_P999: Col = Col("healthy_wait_p999_ns", Int);
    /// One row per (users, profile) cell.
    pub const CELLS: &[Col] = &[
        Col("users", Int),
        PROFILE,
        Col("makespan_ns", Int),
        Col("per_user_ns", Int),
        Col("fairness", Fixed(4)),
        Col("ctx_switches", Int),
        Col("parks", Int),
        Col("unparks", Int),
        Col("peak_resident", Int),
        Col("evicted", Int),
        WAIT_P99,
        WAIT_P999,
    ];
    const CELL_ROWS: Col = Col("cells", Rows(CELLS));

    /// Fields: seed, quantum_ns, max_resident, cells.
    pub const LEDGER: Ledger = Ledger {
        bench: "scale_report",
        fields: &[
            Col("seed", Int),
            Col("quantum_ns", Int),
            Col("max_resident", Int),
            CELL_ROWS,
        ],
        invariants,
    };

    fn invariants(doc: &Json) -> Result<(), String> {
        let cells = CELL_ROWS.rows(doc);
        ensure!(!cells.is_empty(), "no cells");
        for (n, cell) in cells.iter().enumerate() {
            let profile = PROFILE.text(cell);
            ensure!(
                FaultProfile::parse(profile).is_some(),
                "cell {n}: bad profile {profile:?}"
            );
            ensure!(
                WAIT_P999.num(cell) >= WAIT_P99.num(cell),
                "cell {n}: p99.9 wait below p99"
            );
        }
        Ok(())
    }
}

/// `BENCH_fabric.json`, written by `fabric_report`.
pub mod fabric {
    use super::*;
    use hix_sim::fault::FabricProfile;

    const GPUS: Col = Col("gpus", Int);
    const PROFILE: Col = Col("profile", Str);
    const SESSIONS: Col = Col("sessions", Int);
    const SERVED_OK: Col = Col("served_ok", Int);
    const RESETS: Col = Col("resets", Int);
    const BLAST_RADIUS: Col = Col("blast_radius", Int);
    const MIGRATIONS: Col = Col("migrations", Int);
    /// One row per (gpus, profile, seed) machine cell.
    pub const CELLS: &[Col] = &[
        GPUS,
        PROFILE,
        Col("seed", Int),
        SESSIONS,
        SERVED_OK,
        RESETS,
        BLAST_RADIUS,
        MIGRATIONS,
        Col("ops_to_reset", Int),
    ];
    const DEGRADED_RATIO: Col = Col("degraded_ratio", Fixed(4));
    const PEER_IDENTICAL: Col = Col("peer_identical", Int);
    /// One row per fabric size of the degraded-mode model.
    pub const MODEL: &[Col] = &[
        GPUS,
        Col("clean_makespan_ns", Int),
        Col("reset_makespan_ns", Int),
        DEGRADED_RATIO,
        PEER_IDENTICAL,
    ];
    const CELL_ROWS: Col = Col("cells", Rows(CELLS));
    const MODEL_ROWS: Col = Col("model", Rows(MODEL));

    /// Fields: seeds, switch_fanout, cells, model.
    pub const LEDGER: Ledger = Ledger {
        bench: "fabric_report",
        fields: &[
            Col("seeds", Ints),
            Col("switch_fanout", Int),
            CELL_ROWS,
            MODEL_ROWS,
        ],
        invariants,
    };

    fn invariants(doc: &Json) -> Result<(), String> {
        let cells = CELL_ROWS.rows(doc);
        ensure!(!cells.is_empty(), "no cells");
        for (n, cell) in cells.iter().enumerate() {
            let Some(profile) = FabricProfile::parse(PROFILE.text(cell)) else {
                return Err(format!(
                    "cell {n}: unknown profile {:?}",
                    PROFILE.text(cell)
                ));
            };
            // Containment: a shard-local secure reset never touches a peer.
            ensure!(
                BLAST_RADIUS.num(cell) == 0.0,
                "cell {n}: nonzero reset blast radius"
            );
            ensure!(
                SERVED_OK.num(cell) == SESSIONS.num(cell),
                "cell {n}: tenants served non-identical data"
            );
            if profile != FabricProfile::None {
                ensure!(
                    RESETS.num(cell) >= 1.0,
                    "cell {n}: faulted run with no reset"
                );
                // Every faulted multi-GPU run migrates a session off the
                // resetting shard.
                ensure!(
                    GPUS.num(cell) < 2.0 || MIGRATIONS.num(cell) >= 1.0,
                    "cell {n}: faulted run never migrated"
                );
            }
        }
        let model = MODEL_ROWS.rows(doc);
        ensure!(!model.is_empty(), "no model cells");
        for (n, cell) in model.iter().enumerate() {
            ensure!(
                PEER_IDENTICAL.num(cell) == 1.0,
                "model cell {n}: peer shards stalled"
            );
            ensure!(
                DEGRADED_RATIO.num(cell) >= 1.0,
                "model cell {n}: degraded ratio below 1"
            );
        }
        Ok(())
    }
}

/// `BENCH_perf.json`, written by `perf_report`.
pub mod perf {
    use super::*;
    use hix_obs::Stage;

    const PROFILE: Col = Col("profile", Str);
    const REQUESTS: Col = Col("requests", Int);
    const E2E: Col = Col("e2e_ns", Int);
    const SERVICE: Col = Col("service_ns", Int);
    const QUEUE: Col = Col("queue_ns", Int);
    const DATA_P99: Col = Col("data_p99_ns", Int);
    const MIX_OPS: Col = Col("mix_ops", Int);
    const WAKES: Col = Col("wakes", Int);
    const FRAMES: Col = Col("frames", Int);
    const LONGEST: Col = Col("longest_critical_path_ns", Int);
    /// The batched engine's column of a profile.
    pub const BATCHED: &[Col] = &[WAKES, FRAMES, DATA_P99, REQUESTS];
    const BATCHED_OBJ: Col = Col("batched", Obj(BATCHED));
    const STAGE: Col = Col("stage", Str);
    /// One row per attribution stage, in [`Stage::ALL`] order.
    pub const STAGES: &[Col] = &[STAGE, Col("ns", Int), Col("spans", Int)];
    const P50: Col = Col("p50_ns", Int);
    const P95: Col = Col("p95_ns", Int);
    const P99: Col = Col("p99_ns", Int);
    const P999: Col = Col("p999_ns", Int);
    const MAX: Col = Col("max_ns", Int);
    /// One SLO row per tenant.
    pub const SLO: &[Col] = &[
        Col("tenant", Str),
        REQUESTS,
        P50,
        P95,
        P99,
        P999,
        MAX,
        SERVICE,
        QUEUE,
    ];
    const STAGE_ROWS: Col = Col("stages", Rows(STAGES));
    const SLO_ROWS: Col = Col("slo", Rows(SLO));
    /// One row per fault profile: the sync engine, plus [`BATCHED`].
    pub const PROFILES: &[Col] = &[
        PROFILE,
        REQUESTS,
        Col("makespan_ns", Int),
        E2E,
        SERVICE,
        QUEUE,
        DATA_P99,
        MIX_OPS,
        WAKES,
        BATCHED_OBJ,
        LONGEST,
        Col("unattributed_ns", Int),
        STAGE_ROWS,
        SLO_ROWS,
    ];
    const PROFILE_ROWS: Col = Col("profiles", Rows(PROFILES));

    /// Fields: seed, tenants, rounds, profiles.
    pub const LEDGER: Ledger = Ledger {
        bench: "perf_report",
        fields: &[
            Col("seed", Int),
            Col("tenants", Int),
            Col("rounds", Int),
            PROFILE_ROWS,
        ],
        invariants,
    };

    fn invariants(doc: &Json) -> Result<(), String> {
        let profiles = PROFILE_ROWS.rows(doc);
        ensure!(!profiles.is_empty(), "no profiles");
        let stage_names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        for p in profiles {
            let tag = PROFILE.text(p);
            // Service + queue tile e2e, and the longest critical path
            // fits inside it.
            let (e2e, service, queue) = (E2E.num(p), SERVICE.num(p), QUEUE.num(p));
            ensure!(
                service + queue == e2e,
                "{tag}: service {service} + queue {queue} != e2e {e2e}"
            );
            ensure!(
                LONGEST.num(p) <= e2e,
                "{tag}: longest critical path exceeds total e2e"
            );
            // The batched column: strictly fewer wakes than one-per-op
            // sync on every profile, and on the clean profile the ≥4×
            // amortization and data-plane p99-no-worse acceptance gates.
            let batched = p.get(BATCHED_OBJ.0).unwrap_or(&Json::Null);
            let (wakes, mix_ops) = (WAKES.num(p), MIX_OPS.num(p));
            let (b_wakes, b_frames) = (WAKES.num(batched), FRAMES.num(batched));
            ensure!(mix_ops > 0.0, "{tag}: empty op mix");
            ensure!(
                b_wakes < wakes,
                "{tag}: batching did not reduce wakes ({b_wakes} vs {wakes})"
            );
            ensure!(
                b_frames > 0.0 && b_wakes >= b_frames,
                "{tag}: batched frame ledger inconsistent"
            );
            if tag == "none" {
                ensure!(
                    b_wakes * 4.0 <= wakes,
                    "{tag}: amortization below 4x ({b_wakes} vs {wakes} wakes over {mix_ops} ops)"
                );
                let (p99, b_p99) = (DATA_P99.num(p), DATA_P99.num(batched));
                ensure!(
                    b_p99 <= p99,
                    "{tag}: batched data p99 {b_p99} ns regressed past sync {p99} ns"
                );
            }
            let got: Vec<&str> = STAGE_ROWS.rows(p).iter().map(|r| STAGE.text(r)).collect();
            ensure!(
                got == stage_names,
                "{tag}: stage rows {got:?} != {stage_names:?}"
            );
            let slo = SLO_ROWS.rows(p);
            ensure!(!slo.is_empty(), "{tag}: empty SLO table");
            for (i, row) in slo.iter().enumerate() {
                let grid = [P50, P95, P99, P999, MAX].map(|c| c.num(row));
                ensure!(
                    grid.windows(2).all(|w| w[0] <= w[1]),
                    "{tag}: SLO row {i} percentiles not monotone"
                );
            }
            ensure!(
                slo.iter().map(|r| REQUESTS.num(r)).sum::<f64>() == REQUESTS.num(p),
                "{tag}: SLO rows do not tile the request count"
            );
        }
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::ledgers::tests::{committed, field};

        #[test]
        fn the_batching_gate_rejects_a_batched_p99_above_sync() {
            let mut doc = crate::json::parse_json(&committed("BENCH_perf.json")).expect("valid");
            assert!((LEDGER.invariants)(&doc).is_ok());
            let Json::Arr(profiles) = field(&mut doc, &PROFILE_ROWS) else {
                panic!("rows")
            };
            let clean = &mut profiles[0];
            assert_eq!(PROFILE.text(clean), "none");
            let sync_p99 = DATA_P99.num(clean);
            *field(field(clean, &BATCHED_OBJ), &DATA_P99) = Json::Num(sync_p99 + 1.0);
            let err = (LEDGER.invariants)(&doc).expect_err("the gate must fail");
            assert!(err.contains("p99"), "{err}");
        }
    }
}

/// `BENCH_crypto.json`, written by the `crypto` bench.
pub mod crypto {
    use super::*;

    const NAME: Col = Col("name", Str);
    const MEDIAN: Col = Col("median_ns", Int);
    /// One row per measurement.
    pub const ROWS: &[Col] = &[
        NAME,
        MEDIAN,
        Col("p95_ns", Int),
        Col("min_ns", Int),
        Col("iters", Int),
        Col("throughput_bytes", Int),
        Col("mib_per_sec", Fixed(1)),
    ];
    const ROW_GROUP: Col = Col("rows", Rows(ROWS));

    /// Row names the ledger must always carry (the ablation gates key
    /// on these).
    const REQUIRED_ROWS: &[&str] = &[
        "aes128/encrypt_block",
        "aes128/decrypt_block",
        "aes128/encrypt_blocks/8wide",
        "aes128/decrypt_blocks/8wide",
        "ocb/seal/4KiB",
        "ocb/seal/64KiB",
        "ocb/seal/1024KiB",
        "ocb/open/4KiB",
        "ocb/open/64KiB",
        "ocb/open/1024KiB",
        "sha256/64KiB",
        "dh/sim-group-agreement",
        "dh/modp2048-agreement",
        "session/connect-close",
    ];

    /// Fields: rows.
    pub const LEDGER: Ledger = Ledger {
        bench: "crypto",
        fields: &[ROW_GROUP],
        invariants,
    };

    fn invariants(doc: &Json) -> Result<(), String> {
        let rows = ROW_GROUP.rows(doc);
        for r in rows {
            ensure!(MEDIAN.num(r) > 0.0, "row {}: zero median", NAME.text(r));
        }
        for required in REQUIRED_ROWS {
            ensure!(
                rows.iter().any(|r| NAME.text(r) == *required),
                "required row missing: {required}"
            );
        }
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::ledgers::tests::{committed, field};

        #[test]
        fn a_ledger_missing_a_required_row_fails_check() {
            let text = committed("BENCH_crypto.json");
            for required in REQUIRED_ROWS {
                let mut mutant = crate::json::parse_json(&text).expect("valid");
                let Json::Arr(rows) = field(&mut mutant, &ROW_GROUP) else {
                    panic!("rows")
                };
                rows.retain(|r| NAME.text(r) != *required);
                let text = LEDGER.render(&mutant).expect("renders");
                let err = LEDGER.check(&text).expect_err("a missing row must fail");
                assert_eq!(err, format!("required row missing: {required}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn committed(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    }

    /// The mutable value of `col` in object `v`.
    pub(super) fn field<'a>(v: &'a mut Json, col: &Col) -> &'a mut Json {
        let Json::Obj(fields) = v else {
            panic!("not an object")
        };
        &mut fields
            .iter_mut()
            .find(|(k, _)| k == col.0)
            .expect("declared key")
            .1
    }

    const COMMITTED: [(&Ledger, &str); 4] = [
        (&scale::LEDGER, "BENCH_scale.json"),
        (&perf::LEDGER, "BENCH_perf.json"),
        (&fabric::LEDGER, "BENCH_fabric.json"),
        (&crypto::LEDGER, "BENCH_crypto.json"),
    ];

    #[test]
    fn committed_ledgers_pass_and_their_mutants_fail() {
        for (ledger, file) in COMMITTED {
            let text = committed(file);
            if let Err(e) = ledger.check(&text) {
                panic!("{file}: {e}");
            }
            // Swap the first two fields of the first inline row.
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with("{\"") && l.contains(", "))
                .expect("an inline row");
            let (indent, body) = line.split_at(line.len() - line.trim_start().len());
            let (a, rest) = body[1..].split_once(", ").unwrap();
            let (b, rest) = rest.split_once(", ").unwrap();
            let mutant = text.replacen(line, &format!("{indent}{{{b}, {a}, {rest}"), 1);
            let err = ledger.check(&mutant).expect_err("reordered keys must fail");
            assert!(err.contains("keys"), "{file}: {err}");

            // Drop the last digit of the first fixed-point number.
            if let Some(dot) = text.find('.') {
                let end = dot + text[dot..].find([',', '}']).expect("number ends");
                let mutant = format!("{}{}", &text[..end - 1], &text[end..]);
                let err = ledger
                    .check(&mutant)
                    .expect_err("a dropped decimal must fail");
                assert!(err.contains("declaration renders"), "{file}: {err}");
            }
        }
    }
}
