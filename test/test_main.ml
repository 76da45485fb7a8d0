(* Test entry point: every suite from every library. The descent suite
   goes first: its concurrent certification and digest tests need the
   millicode library still unbuilt, and its marks and words uncomputed. *)

let () =
  Alcotest.run "hppa"
    (Test_descent.suite @ Test_word.suite @ Test_isa.suite @ Test_machine.suite
   @ Test_chains.suite @ Test_mul.suite @ Test_div.suite @ Test_ext.suite @ Test_dist.suite
   @ Test_compiler.suite @ Test_compiler_w64.suite @ Test_golden.suite
   @ Test_baselines.suite @ Test_delay.suite
   @ Test_verify.suite @ Test_engine.suite @ Test_batch.suite
   @ Test_server.suite @ Test_obs.suite @ Test_plan.suite @ Test_w64.suite
   @ Test_pinned.suite)
