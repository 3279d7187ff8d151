let () =
  Alcotest.run "skyloft"
    [
      ("sim", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("hw", Test_hw.suite);
      ("kernel", Test_kernel.suite);
      ("alloc", Test_alloc.suite);
      ("broker", Test_broker.suite);
      ("core", Test_core.suite);
      ("runtime_core", Test_runtime_core.suite);
      ("worksteal", Test_worksteal.suite);
      ("net", Test_net.suite);
      ("policies", Test_policies.suite);
      ("apps", Test_apps.suite);
      ("baselines", Test_baselines.suite);
      ("extensions", Test_extensions.suite);
      ("fault", Test_fault.suite);
      ("obs", Test_obs.suite);
      ("determinism", Test_determinism.suite);
      ("parallel", Test_parallel.suite);
      ("properties", Test_properties.suite);
      ("trace", Test_trace.suite);
      ("flight_recorder", Test_flight_recorder.suite);
      ("scenario", Test_scenario.suite);
      ("experiments", Test_experiments.suite);
      ("integration", Test_integration.suite);
      ("uthread", Test_uthread.suite);
    ]
