(* Aggregates every suite. Each test_<module>.ml exposes
   [suite : unit Alcotest.test_case list]. *)

let () =
  Alcotest.run "dbp"
    [
      ("ints", Test_ints.suite);
      ("json", Test_json.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("vec", Test_vec.suite);
      ("imap", Test_imap.suite);
      ("lttb", Test_lttb.suite);
      ("heap", Test_heap.suite);
      ("prng", Test_prng.suite);
      ("pool", Test_pool.suite);
      ("load", Test_load.suite);
      ("lvec", Test_lvec.suite);
      ("multiset", Test_multiset.suite);
      ("stats", Test_stats.suite);
      ("binpack", Test_binpack.suite);
      ("item", Test_item.suite);
      ("item-block", Test_item_block.suite);
      ("instance", Test_instance.suite);
      ("event-source", Test_event_source.suite);
      ("profile", Test_profile.suite);
      ("reduction", Test_reduction.suite);
      ("ff-index", Test_ff_index.suite);
      ("depart-queue", Test_depart_queue.suite);
      ("bin-store", Test_bin_store.suite);
      ("fit-group", Test_fit_group.suite);
      ("engine", Test_engine.suite);
      ("serve", Test_serve.suite);
      ("recourse", Test_recourse.suite);
      ("ha", Test_ha.suite);
      ("cdff", Test_cdff.suite);
      ("timeline", Test_timeline.suite);
      ("baselines", Test_baselines.suite);
      ("offline", Test_offline.suite);
      ("workloads", Test_workloads.suite);
      ("analysis", Test_analysis.suite);
      ("momentary", Test_momentary.suite);
      ("theory", Test_theory.suite);
      ("report", Test_report.suite);
      ("experiments", Test_experiments.suite);
      ("reference", Test_reference.suite);
      ("io", Test_io.suite);
      ("check", Test_check.suite);
      ("lemmas", Test_lemmas.suite);
    ]
