//! Cross-validation of the performance model against *executed*
//! operations: the functional PIR server runs a real query while
//! `ive_math::metrics` counts every residue NTT, pointwise MAC, iCRT
//! coefficient and automorphism it performs; the counts are then compared
//! with the complexity model's predictions for the same geometry, to the
//! unit.
//!
//! The models keep the paper's schedule — an `ExpandQuery` tree of
//! `D0 − 1` `Subs` — and so does the CPU server on a geometry with at
//! least `D0/2` rows (the toy one). With fewer rows it folds the tree's
//! last level into `RowSel` (one `Subs` per database row, `ive_pir`'s
//! `expand` module): its counts then differ from the model's by exactly
//! `D0/2 − rows` `Subs`, and this test states that difference for a
//! folding geometry on the same ring.
//!
//! This file contains a single test on purpose: the counters are
//! process-global, and cargo gives each integration-test binary its own
//! process.

use ive::baselines::complexity::{external_product_ops, per_query_ops, Geometry};
use ive::he::HeParams;
use ive::math::metrics;
use ive::pir::{Database, PirClient, PirParams, PirServer};
use rand::SeedableRng;

#[test]
fn functional_op_counts_match_complexity_model() {
    // 8 rows = D0/2: the whole tree, the model's schedule.
    check_op_counts(&PirParams::toy(), false, 37);
    // 4 rows < D0/2 = 8: the last level folded into RowSel.
    let folded = PirParams::new(HeParams::toy(), 16, 2).expect("valid geometry");
    check_op_counts(&folded, true, 45);
}

/// Runs one query on `params` stage by stage, then end to end, and holds
/// every count to the model: exactly, less the `D0/2 − rows` `Subs` the
/// fold saves when `folds`.
fn check_op_counts(params: &PirParams, folds: bool, target: usize) {
    let he = params.he();
    let (n, k, ell) = (he.n(), he.ring().basis().len(), he.evk_gadget().ell());
    // The model geometry takes one ℓ; the toy ring's two gadgets agree.
    assert_eq!(he.rgsw_gadget().ell(), ell);
    // The model geometry mirroring the functional parameters, in
    // direct-RGSW mode (the client uploads the selection bits).
    let geom = Geometry {
        n,
        k,
        ell,
        d0: params.d0(),
        dims: params.dims(),
        fill: 1.0,
        rgsw_conversion: false,
    };
    let model = per_query_ops(&geom);

    let records: Vec<Vec<u8>> =
        (0..params.num_records()).map(|i| format!("op-count record {i}").into_bytes()).collect();
    let db = Database::from_records(params, &records).expect("fits");
    let server = PirServer::new(params, db).expect("geometry matches");
    let mut client =
        PirClient::new(params, rand_chacha::ChaCha8Rng::seed_from_u64(4242)).expect("keygen");
    let query = client.query(target).expect("in range");

    let (d0, half, rows) = (params.d0() as u64, params.d0() as u64 / 2, params.num_rows() as u64);
    let (n, k, ell) = (n as u64, k as u64, ell as u64);
    // One `Subs`: k inverse transforms of `a` and ℓ·k digit transforms
    // (`τ_r(b)` is an index permutation in the NTT domain), one iCRT of
    // `a`, both polynomials through τ_r, and the 2ℓ·k·n-product GEMM.
    let (subs_ntts, subs_auto, subs_macs) = ((1 + ell) * k, 2 * k * n, 2 * ell * k * n);
    // A tree node also multiplies its odd child by `X^{-2^j}`, one
    // product per word of `a` and `b` — an element-wise op the model
    // books outside its GEMM (`elem_macs`), the kernel as MACs.
    let node_macs = 2 * k * n;
    // The model charges the paper's full tree: D0 − 1 `Subs`, each one
    // `subs_macs` GEMM.
    let model_subs = d0 - 1;
    assert_eq!(model.expand.residue_ntts, (model_subs * subs_ntts) as f64);
    assert_eq!(model.expand.gemm_macs, (model_subs * subs_macs) as f64);
    // What the server runs: the whole tree, or D0/2 − 1 tree nodes and
    // one `Subs` per row.
    let (expand_subs, row_subs) = if folds { (half - 1, rows) } else { (d0 - 1, 0) };

    // --- Expand in isolation: exactly `subs_ntts` residue NTTs, one
    //     iCRT, both automorphisms and `subs_macs + node_macs` MACs per
    //     tree node. -------------------------------------------------------
    let before = metrics::snapshot();
    let expanded = server.expand(client.public_keys(), &query).expect("keys ok");
    let expand = metrics::snapshot().delta_since(&before);
    assert_eq!(expand.residue_ntts, expand_subs * subs_ntts);
    assert_eq!(expand.icrt_coeffs, expand_subs * n);
    assert_eq!(expand.auto_coeffs, expand_subs * subs_auto);
    assert_eq!(expand.pointwise_macs, expand_subs * (subs_macs + node_macs));
    if !folds {
        assert_eq!(expand.residue_ntts as f64, model.expand.residue_ntts);
        let model_macs = model.expand.gemm_macs + (model_subs * node_macs) as f64;
        assert_eq!(expand.pointwise_macs as f64, model_macs);
    }

    // --- RowSel in isolation: the model's MAC count, exactly (the lazy
    //     kernels charge one MAC per product; a folded parent meets two
    //     stored polynomials), plus a folded level's `Subs` per row. The
    //     scan itself is NTT-free (preprocessed DB). --------------------
    let before = metrics::snapshot();
    let rows_ct = server.row_sel(&expanded).expect("shape ok");
    let rowsel = metrics::snapshot().delta_since(&before);
    assert_eq!(
        rowsel.pointwise_macs,
        model.rowsel.gemm_macs as u64 + row_subs * subs_macs,
        "RowSel executed {} MACs, model predicts {} plus {row_subs} Subs",
        rowsel.pointwise_macs,
        model.rowsel.gemm_macs
    );
    assert_eq!(rowsel.residue_ntts, row_subs * subs_ntts, "only a folded row's Subs transforms");
    assert_eq!(rowsel.icrt_coeffs, row_subs * n);
    assert_eq!(rowsel.auto_coeffs, row_subs * subs_auto);

    // --- ColTor in isolation: NTT count per external product is exact
    //     ((2 + 2ℓ)·k: Dcp iNTTs plus digit forward NTTs), and so is the
    //     GEMM. ----------------------------------------------------------
    let before = metrics::snapshot();
    let _response = server.col_tor_step(rows_ct, &query).expect("bits ok");
    let coltor = metrics::snapshot().delta_since(&before);
    let products = geom.rows() - 1;
    let expect_ntts = products * (2 + 2 * ell) * k;
    assert_eq!(
        coltor.residue_ntts, expect_ntts,
        "ColTor executed {} residue NTTs, structural count {}",
        coltor.residue_ntts, expect_ntts
    );
    // The model's per-⊡ NTT count uses the same structural formula.
    let model_coltor_ntts = external_product_ops(&geom).residue_ntts * products as f64;
    assert_eq!(coltor.residue_ntts as f64, model_coltor_ntts);
    assert_eq!(coltor.pointwise_macs as f64, model.coltor.gemm_macs);
    // Each ⊡ reconstructs both polynomials coefficient-wise.
    assert_eq!(coltor.icrt_coeffs, products * 2 * n);

    // --- Full pipeline: the model's counts less the D0/2 − rows `Subs`
    //     a fold saves (and, for MACs, plus the tree nodes' monomial
    //     products), to the unit. ----------------------------------------
    metrics::reset();
    let _ = server.answer(client.public_keys(), &query).expect("pipeline");
    let full = metrics::snapshot();
    let functional_subs = expand_subs + row_subs;
    let saved = model_subs - functional_subs;
    assert_eq!(saved, if folds { half - rows } else { 0 }, "functional Subs = model − saved");
    let model_ntts =
        model.expand.residue_ntts + model.rowsel.residue_ntts + model.coltor.residue_ntts;
    assert_eq!(
        full.residue_ntts as f64,
        model_ntts - (saved * subs_ntts) as f64,
        "executed {} residue NTTs vs model {model_ntts:.0} less {saved} Subs",
        full.residue_ntts
    );
    let model_macs = model.expand.gemm_macs + model.rowsel.gemm_macs + model.coltor.gemm_macs;
    assert_eq!(
        full.pointwise_macs as f64,
        model_macs + (expand_subs * node_macs) as f64 - (saved * subs_macs) as f64,
        "executed {} MACs vs model {model_macs:.0} plus {expand_subs} nodes less {saved} Subs",
        full.pointwise_macs
    );
    assert_eq!(
        full.pointwise_macs,
        expand.pointwise_macs + rowsel.pointwise_macs + coltor.pointwise_macs
    );
    // Automorphisms: two per Subs (a and b), k·n coefficients each.
    assert_eq!(full.auto_coeffs, functional_subs * subs_auto);
    assert_eq!(full.icrt_coeffs, functional_subs * n + products * 2 * n);
}
