let () =
  Alcotest.run "tokencmp"
    [
      ("heap", Test_heap.tests);
      ("rng", Test_rng.tests);
      ("engine", Test_engine.tests);
      ("stat", Test_stat.tests);
      ("json", Test_json.tests);
      ("table", Test_table.tests);
      ("obs", Test_obs.tests);
      ("cache", Test_cache.tests);
      ("interconnect", Test_interconnect.tests);
      ("destset", Test_destset.tests);
      ("workload", Test_workload.tests);
      ("token", Test_token.tests);
      ("token-fsm", Test_token_fsm.tests);
      ("perfect", Test_perfect.tests);
      ("directory", Test_directory.tests);
      ("directory-fsm", Test_directory_fsm.tests);
      ("model-checking", Test_mc.tests);
      ("random-programs", Test_random.tests);
      ("runner", Test_runner.tests);
      ("integration", Test_integration.tests);
      ("fault", Test_fault.tests);
      ("chaos", Test_chaos.tests);
      ("forensics", Test_forensics.tests);
      ("par", Test_par.tests);
      ("golden", Test_golden.tests);
      ("parking", Test_parking.tests);
      ("profiler", Test_profiler.tests);
      ("misc", Test_misc.tests);
      ("alloc", Test_alloc.tests);
    ]
