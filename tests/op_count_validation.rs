//! Cross-validation of the performance model against *executed*
//! operations: the functional PIR server runs a real query while
//! `ive_math::metrics` counts every residue NTT, pointwise MAC, iCRT
//! coefficient and automorphism it performs; the counts are then compared
//! with the complexity model's predictions for the same geometry.
//!
//! This file contains a single test on purpose: the counters are
//! process-global, and cargo gives each integration-test binary its own
//! process.

use ive::baselines::complexity::{external_product_ops, per_query_ops, Geometry};
use ive::math::metrics;
use ive::pir::{Database, PirClient, PirParams, PirServer};
use rand::SeedableRng;

#[test]
fn functional_op_counts_match_complexity_model() {
    let params = PirParams::toy();
    let he = params.he();
    let (n, k, ell) = (he.n(), he.ring().basis().len(), he.evk_gadget().ell());
    // The model geometry takes one ℓ; the toy ring's two gadgets agree.
    assert_eq!(he.rgsw_gadget().ell(), ell);
    // The model geometry mirroring the toy functional parameters, in
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
    let db = Database::from_records(&params, &records).expect("fits");
    let server = PirServer::new(&params, db).expect("geometry matches");
    let mut client =
        PirClient::new(&params, rand_chacha::ChaCha8Rng::seed_from_u64(4242)).expect("keygen");
    let query = client.query(37).expect("in range");

    // --- Expand in isolation: exactly (1+ℓ)·k residue NTTs per Subs —
    //     k inverse transforms of `a` and ℓ·k digit transforms; `τ_r(b)`
    //     is an index permutation in the NTT domain — over the D0 − 1
    //     tree nodes, which is what the model (and the paper) charge. ---
    let before = metrics::snapshot();
    let expanded = server.expand(client.public_keys(), &query).expect("keys ok");
    let expand = metrics::snapshot().delta_since(&before);
    assert_eq!(expand.residue_ntts, ((params.d0() - 1) * (1 + ell) * k) as u64);
    assert_eq!(expand.residue_ntts as f64, model.expand.residue_ntts);
    // Each Subs reconstructs `a` coefficient-wise and moves both
    // polynomials through τ_r (k·n residues each).
    assert_eq!(expand.icrt_coeffs, ((params.d0() - 1) * n) as u64);
    assert_eq!(expand.auto_coeffs, ((params.d0() - 1) * 2 * k * n) as u64);

    // --- RowSel in isolation: the model's MAC count must be *exact*
    //     (the lazy kernels charge one MAC per product, like the
    //     per-term kernels before them). ---
    let before = metrics::snapshot();
    let rows = server.row_sel(&expanded).expect("shape ok");
    let rowsel = metrics::snapshot().delta_since(&before);
    assert_eq!(
        rowsel.pointwise_macs as f64, model.rowsel.gemm_macs,
        "RowSel executed {} MACs, model predicts {}",
        rowsel.pointwise_macs, model.rowsel.gemm_macs
    );
    assert_eq!(rowsel.residue_ntts, 0, "RowSel must be NTT-free (preprocessed DB)");

    // --- ColTor in isolation: NTT count per external product is exact
    //     ((2 + 2ℓ)·k: Dcp iNTTs plus digit forward NTTs). --------------
    let before = metrics::snapshot();
    let _response = server.col_tor_step(rows, &query).expect("bits ok");
    let coltor = metrics::snapshot().delta_since(&before);
    let products = geom.rows() - 1;
    let expect_ntts = products * ((2 + 2 * ell) * k) as u64;
    assert_eq!(
        coltor.residue_ntts, expect_ntts,
        "ColTor executed {} residue NTTs, structural count {}",
        coltor.residue_ntts, expect_ntts
    );
    // The model's per-⊡ NTT count uses the same structural formula.
    let model_coltor_ntts = external_product_ops(&geom).residue_ntts * products as f64;
    assert_eq!(coltor.residue_ntts as f64, model_coltor_ntts);
    // Each ⊡ reconstructs both polynomials coefficient-wise.
    assert_eq!(coltor.icrt_coeffs, products * (2 * n) as u64);

    // --- Full pipeline: aggregate counts within a documented band. -----
    metrics::reset();
    let _ = server.answer(client.public_keys(), &query).expect("pipeline");
    let full = metrics::snapshot();
    // Every stage now executes exactly the transforms the model
    // charges, so the totals agree to the unit.
    let model_ntts =
        model.expand.residue_ntts + model.rowsel.residue_ntts + model.coltor.residue_ntts;
    let ratio = full.residue_ntts as f64 / model_ntts;
    assert!(
        (0.99..1.01).contains(&ratio),
        "executed {} residue NTTs vs model {model_ntts:.0} (ratio {ratio:.2})",
        full.residue_ntts
    );
    let model_macs = model.expand.gemm_macs + model.rowsel.gemm_macs + model.coltor.gemm_macs;
    let mac_ratio = full.pointwise_macs as f64 / model_macs;
    assert!(
        (0.9..1.3).contains(&mac_ratio),
        "executed {} MACs vs model {model_macs:.0} (ratio {mac_ratio:.2})",
        full.pointwise_macs
    );
    // Automorphisms: two per Subs (a and b), k·n coefficients each.
    assert_eq!(full.auto_coeffs, expand.auto_coeffs);
}
