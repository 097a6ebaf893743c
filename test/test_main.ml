let () =
  (* Build the default engine up front, as the CLI does: a rerun under
     NOCAP_DOMAINS (test/dune) then sizes the pool from the first test on. *)
  ignore (Zk_pcs.Engine.default ());
  Alcotest.run "nocap_repro"
    [
      ("parallel", Test_parallel.suite);
      ("vec", Test_vec.suite);
      ("native", Test_native.suite);
      ("field", Test_field.suite);
      ("hash", Test_hash.suite);
      ("ntt", Test_ntt.suite);
      ("poly", Test_poly.suite);
      ("ecc", Test_ecc.suite);
      ("merkle", Test_merkle.suite);
      ("r1cs", Test_r1cs.suite);
      ("sumcheck", Test_sumcheck.suite);
      ("orion", Test_orion.suite);
      ("spartan", Test_spartan.suite);
      ("curve", Test_curve.suite);
      ("nocap", Test_nocap.suite);
      ("analysis", Test_analysis.suite);
      ("workloads", Test_workloads.suite);
      ("perf", Test_perf.suite);
      ("zkdb", Test_zkdb.suite);
      ("extensions", Test_extensions.suite);
      ("multiset-hash", Test_multiset_hash.suite);
      ("multichip", Test_multichip.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("lang+spmv", Test_lang_spmv.suite);
      ("memory-check", Test_memory_check.suite);
      ("additions", Test_additions.suite);
      ("aes", Test_aes.suite);
      ("sha256", Test_sha256.suite);
      ("bignum", Test_bignum.suite);
      ("fri", Test_fri.suite);
      ("stark", Test_stark.suite);
      ("grand-product", Test_grand_product.suite);
      ("pcs-engine", Test_pcs.suite);
      ("faults", Test_faults.suite);
      ("stream", Test_stream.suite);
      ("serve", Test_serve.suite);
    ]
