(* Analytics-layer suite (lib/obs): the JSONL reader inverts the writer
   on arbitrary events (qcheck), the committed golden files parse back
   and satisfy the standard invariants, span attribution sums exactly
   to the run totals, Trace_diff reports first divergences, and the
   Bench_gate record round-trips through its file and the gate passes
   identical records while failing a planted regression under every
   judging policy. *)

open Goalcom
open Goalcom_harness
module Obs = Goalcom_obs

let qcount = 250

(* Arbitrary messages, biased toward the adversarial corners of the
   Text escaping (quotes, backslashes, control and high bytes). *)
let msg_gen =
  QCheck.Gen.(
    sized_size (int_bound 4) @@ fix (fun self n ->
        let any_byte = map Char.chr (int_bound 255) in
        let leaf =
          oneof
            [
              return Msg.Silence;
              map (fun i -> Msg.Sym i) (int_bound 30);
              map (fun i -> Msg.Int (i - 500)) (int_bound 1000);
              map (fun s -> Msg.Text s) (string_size ~gen:any_byte (int_bound 8));
              map
                (fun s -> Msg.Text s)
                (oneofl [ "\""; "\\"; "a\"b\\c"; "\n\t\r\b"; "\255\001"; "" ]);
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map2 (fun a b -> Msg.Pair (a, b)) (self (n / 2)) (self (n / 2)));
              (1, map (fun l -> Msg.Seq l) (list_size (int_bound 3) (self (n / 2))));
            ]))

let party_gen = QCheck.Gen.oneofl [ Trace.User; Trace.Server; Trace.World ]

(* Name-ish strings exercise the JSON (not Msg) escaping path. *)
let name_gen =
  QCheck.Gen.oneofl
    [ "printing(alphabet=3)"; "g\"x"; "maze\\y"; ""; "a b\nc"; "\195\169!" ]

let event_gen =
  QCheck.Gen.(
    let nat = int_bound 5000 in
    oneof
      [
        map3
          (fun goal user (server, horizon, drain, world_choice) ->
            Trace.Run_start { goal; user; server; horizon; drain; world_choice })
          name_gen name_gen
          (quad name_gen nat (int_bound 9) (int_bound 9));
        map (fun round -> Trace.Round_start { round }) nat;
        map3
          (fun round (src, dst) msg -> Trace.Emit { round; src; dst; msg })
          nat (pair party_gen party_gen) msg_gen;
        map (fun round -> Trace.Halt { round }) nat;
        map3
          (fun round sensor (positive, clock, patience) ->
            Trace.Sense { round; sensor; positive; clock; patience })
          nat name_gen
          (triple bool nat nat);
        map2
          (fun round (from_index, to_index, attempt) ->
            Trace.Switch { round; from_index; to_index; attempt })
          nat
          (triple (int_bound 40) (int_bound 40) (int_bound 6));
        map2 (fun index slots -> Trace.Resume { index; slots }) (int_bound 40) nat;
        map3
          (fun round index budget -> Trace.Session { round; index; budget })
          nat (int_bound 40) nat;
        map3
          (fun round fault detail -> Trace.Fault { round; fault; detail })
          nat name_gen name_gen;
        map (fun round -> Trace.Violation { round }) nat;
        map2 (fun rounds halted -> Trace.Run_end { rounds; halted }) nat bool;
        map3
          (fun tick session (action, detail) ->
            Trace.Supervise { tick; session; action; detail })
          nat nat (pair name_gen name_gen);
        map3
          (fun (server_class, enum) (index, accepted) detail ->
            Trace.Warm { server_class; enum; index; accepted; detail })
          (pair name_gen name_gen)
          (pair (int_range (-1) 40) bool)
          name_gen;
      ])

let event_arb = QCheck.make event_gen ~print:Obs.Jsonl.event_to_json

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:qcount
    ~name:"Jsonl: parse_line (event_to_json e) = Ok e" event_arb (fun e ->
      match Obs.Jsonl.parse_line (Obs.Jsonl.event_to_json e) with
      | Ok e' -> e' = e
      | Error msg -> QCheck.Test.fail_report msg)

(* The byte format itself is pinned by the goldens; spot-pin the
   adversarial corners here so a renderer change cannot hide behind a
   golden regeneration. *)
let exact_bytes () =
  let check expected ev =
    Alcotest.(check string) expected expected (Obs.Jsonl.event_to_json ev)
  in
  check {|{"ev":"round_start","round":7}|} (Trace.Round_start { round = 7 });
  check
    {|{"ev":"emit","round":1,"src":"user","dst":"server","msg":"\"a\\\"b\\\\c\\nd\""}|}
    (Trace.Emit
       {
         round = 1;
         src = Trace.User;
         dst = Trace.Server;
         msg = Msg.Text "a\"b\\c\nd";
       });
  check {|{"ev":"resume","index":0,"slots":7}|}
    (Trace.Resume { index = 0; slots = 7 })

(* Committed golden files: parse back, revalidate, re-serialize
   byte-identically. *)
let golden_path name = Filename.concat "golden" (name ^ ".jsonl")

let golden_roundtrip (c : Trace_cases.case) () =
  let path = golden_path c.name in
  match Obs.Jsonl.of_file path with
  | Error e -> Alcotest.fail e
  | Ok events ->
      (match Trace.check Trace.standard events with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: invariants: %s" c.name msg);
      Alcotest.(check (list string))
        "re-serialization is byte-identical"
        (Obs.Jsonl.read_lines path)
        (Obs.Jsonl.to_lines events)

(* Attribution: every Round_start is charged to exactly one span, so
   per-candidate rounds sum to the run totals — pinned on the goldens
   (e3_maze is the multi-run file). *)
let attribution_sums (c : Trace_cases.case) () =
  let events =
    match Obs.Jsonl.of_file (golden_path c.name) with
    | Ok ev -> ev
    | Error e -> Alcotest.fail e
  in
  let runs = Obs.Span.of_events events in
  Alcotest.(check bool) "at least one run" true (runs <> []);
  List.iter
    (fun (r : Obs.Span.run) ->
      let spans_sum =
        List.fold_left (fun acc (s : Obs.Span.span) -> acc + s.rounds) 0 r.spans
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: span rounds sum to run total" c.name)
        r.rounds spans_sum)
    runs;
  let ledger = Obs.Span.ledger runs in
  let total_run_rounds =
    List.fold_left (fun acc (r : Obs.Span.run) -> acc + r.rounds) 0 runs
  in
  Alcotest.(check int) "ledger total matches" total_run_rounds
    ledger.Obs.Span.total_rounds;
  Alcotest.(check int) "winning + wasted = total" ledger.Obs.Span.total_rounds
    (ledger.Obs.Span.winning_rounds + ledger.Obs.Span.wasted_rounds)

let e1_winner_rounds () =
  (* The E1 golden halts; its winning rounds are exactly the rounds
     charged to the winning candidate. *)
  let events =
    match Obs.Jsonl.of_file (golden_path "e1_printing") with
    | Ok ev -> ev
    | Error e -> Alcotest.fail e
  in
  match Obs.Span.of_events events with
  | [ run ] ->
      Alcotest.(check bool) "halted" true run.Obs.Span.halted;
      Alcotest.(check bool) "has a winner" true (run.Obs.Span.winner <> None)
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

(* Trace_diff *)

let diff_identical () =
  let lines = Obs.Jsonl.read_lines (golden_path "e1_printing") in
  match Obs.Trace_diff.lines lines lines with
  | None -> ()
  | Some d -> Alcotest.failf "spurious divergence: %s" d.Obs.Trace_diff.detail

let diff_different_runs () =
  (* Two different reference runs diverge at line 1 (the Run_start). *)
  let a = Obs.Jsonl.read_lines (golden_path "e1_printing") in
  let b = Obs.Jsonl.read_lines (golden_path "e16_crash") in
  match Obs.Trace_diff.lines a b with
  | Some d ->
      Alcotest.(check int) "diverges at line 1" 1 d.Obs.Trace_diff.position;
      Alcotest.(check bool) "kind-aware detail" true
        (String.length d.Obs.Trace_diff.detail > 0)
  | None -> Alcotest.fail "distinct traces reported identical"

let diff_field_detail () =
  let ev round = Trace.Round_start { round } in
  match Obs.Trace_diff.events [ ev 1; ev 2 ] [ ev 1; ev 3 ] with
  | Some d ->
      Alcotest.(check int) "position" 2 d.Obs.Trace_diff.position;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "detail names the field: %s" d.Obs.Trace_diff.detail)
        true
        (contains d.Obs.Trace_diff.detail "round 2 vs 3")
  | None -> Alcotest.fail "no divergence found"

let diff_tail () =
  let ev round = Trace.Round_start { round } in
  match Obs.Trace_diff.events [ ev 1; ev 2 ] [ ev 1 ] with
  | Some d ->
      Alcotest.(check int) "position" 2 d.Obs.Trace_diff.position;
      Alcotest.(check bool) "right side ended" true (d.Obs.Trace_diff.right = None)
  | None -> Alcotest.fail "length mismatch not reported"

(* Bench_gate *)

module Gate = Obs.Bench_gate

let sample_records =
  [
    Gate.record "no_sink_overhead_pct" 0.4;
    Gate.record "jsonl sink (buffer)/overhead_pct" 120.0;
    Gate.record "untraced replica/ms_per_run" 0.057;
  ]

let baseline_of records =
  List.map (fun (r : Gate.record) -> (r.name, r.value)) records

let gate_identical_passes () =
  let cs =
    Gate.compare_records ~baseline:(baseline_of sample_records) sample_records
  in
  Alcotest.(check int) "all compared" (List.length sample_records)
    (List.length cs);
  Alcotest.(check int) "no regressions" 0 (List.length (Gate.regressions cs))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let gate_injected_regression_fails () =
  (* A 50% blowup on a relative (pct) metric must trip the gate. *)
  let fresh =
    List.map
      (fun (r : Gate.record) ->
        if r.name = "jsonl sink (buffer)/overhead_pct" then
          { r with value = r.value *. 1.5 }
        else r)
      sample_records
  in
  let cs = Gate.compare_records ~baseline:(baseline_of sample_records) fresh in
  let regs = Gate.regressions cs in
  Alcotest.(check int) "exactly one regression" 1 (List.length regs);
  Alcotest.(check string)
    "the right metric" "jsonl sink (buffer)/overhead_pct"
    (List.hd regs).Gate.metric;
  let verdict = Gate.verdict_json cs in
  Alcotest.(check bool) "verdict says fail" true
    (contains verdict "\"verdict\": \"fail\"");
  match Obs.Json.parse verdict with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let first =
        match Obs.Json.member "comparisons" j with
        | Some (Obs.Json.List (c :: _)) -> c
        | _ -> Alcotest.fail "verdict has no comparisons"
      in
      let field k = Option.bind (Obs.Json.member k first) Obs.Json.number_opt in
      Alcotest.(check (option (float 0.))) "verdict carries the slack"
        (Some 10.) (field "slack");
      Alcotest.(check (option string)) "verdict carries the policy"
        (Some "drift")
        (Option.bind (Obs.Json.member "policy" first) Obs.Json.string_opt)

let gate_slack_absorbs_noise () =
  (* Near-zero pct metrics: a big relative move inside the absolute
     slack is noise, not a regression. *)
  Alcotest.(check bool) "0.2 -> 0.9 pct is not a regression" false
    (Gate.judge ~tol_pct:35. ~slack:10. ~baseline:0.2 ~fresh:0.9);
  Alcotest.(check bool) "120 -> 180 pct is a regression" true
    (Gate.judge ~tol_pct:35. ~slack:10. ~baseline:120. ~fresh:180.);
  (* Absolute timings: only order-of-magnitude blowups trip the loose
     default. *)
  Alcotest.(check bool) "1.5x on a timing passes" false
    (Gate.judge ~tol_pct:300. ~slack:0. ~baseline:0.06 ~fresh:0.09);
  Alcotest.(check bool) "5x on a timing fails" true
    (Gate.judge ~tol_pct:300. ~slack:0. ~baseline:0.06 ~fresh:0.30)

let gate_extraction () =
  let json =
    {|{"seed": 1, "no_sink_overhead_pct": 0.25,
       "results": [
         {"name": "no sink", "ms_per_run": 0.05, "overhead_pct": 0.25},
         {"name": "untraced replica", "ms_per_run": 0.049}
       ]}|}
  in
  match Obs.Json.parse json with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let ms = Gate.metrics_of_json j in
      let find name = List.assoc_opt name ms in
      Alcotest.(check int) "four metrics (seed is not gateable)" 4
        (List.length ms);
      Alcotest.(check bool) "top-level pct extracted" true
        (find "no_sink_overhead_pct" <> None);
      Alcotest.(check bool) "per-result fields extracted" true
        (find "no sink/overhead_pct" <> None
        && find "no sink/ms_per_run" <> None
        && find "untraced replica/ms_per_run" <> None)

(* One record of every policy, with values that stress the number
   rendering: integral, long fractions, tiny, large. *)
let policy_records =
  [
    Gate.record ~policy:Exact "mismatch_pct" 0.;
    Gate.record ~policy:Info "speedup_x" 3148.0;
    Gate.record ~policy:(Ceiling 25.) "scaling_16k_over_1k" 19.217;
    Gate.record "storm/jobs1_ms" 2501.3333333333335;
    Gate.record ~policy:Exact "storm/total_rounds" 1460246.;
    Gate.record ~policy:(Drift { tol_pct = 15.; slack = 0. })
      "storm/minor_words_per_round" 257.61;
    Gate.record ~policy:Info "storm/jobs1_sessions_per_sec" (1. /. 3.);
    Gate.record "no sink/overhead_pct" 1e-7;
    Gate.record ~policy:Exact "maze/remote/jobs4_ms" 98.9;
  ]

let gate_write_roundtrip () =
  let path = Filename.temp_file "bench_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gate.write_file path
        [ ("seed", Obs.Json.Int 1); ("unit", Obs.Json.String "ms") ]
        policy_records;
      match Obs.Json.of_file path with
      | Error e -> Alcotest.fail e
      | Ok j ->
          let ms = Gate.metrics_of_json j in
          List.iter
            (fun (r : Gate.record) ->
              match r.policy with
              | Exact | Drift _ ->
                  Alcotest.(check (option (float 0.)))
                    r.name (Some r.value) (List.assoc_opt r.name ms)
              | Ceiling _ | Info -> ())
            policy_records;
          Alcotest.(check (option (list string)))
            "results grouped in order of first appearance"
            (Some [ "storm"; "no sink"; "maze/remote" ])
            (Option.map
               (List.filter_map (fun e ->
                    Option.bind (Obs.Json.member "name" e) Obs.Json.string_opt))
               (Option.bind (Obs.Json.member "results" j) Obs.Json.list_opt)))

let gate_planted_regressions () =
  let baseline = [ ("a", 10.); ("b", 100.) ] in
  let regressed records =
    List.map
      (fun (c : Gate.comparison) -> c.metric)
      (Gate.regressions (Gate.compare_records ~baseline records))
  in
  Alcotest.(check (list string)) "Exact: any rise fails" [ "a" ]
    (regressed [ Gate.record ~policy:Exact "a" 11. ]);
  Alcotest.(check (list string)) "Exact: equal passes" []
    (regressed [ Gate.record ~policy:Exact "a" 10. ]);
  let drift = Gate.Drift { tol_pct = 20.; slack = 5. } in
  Alcotest.(check (list string)) "Drift: within tolerance passes" []
    (regressed [ Gate.record ~policy:drift "b" 119. ]);
  Alcotest.(check (list string)) "Drift: beyond tolerance fails" [ "b" ]
    (regressed [ Gate.record ~policy:drift "b" 121. ]);
  Alcotest.(check (list string)) "Ceiling: the committed value is ignored"
    [ "b" ]
    (regressed [ Gate.record ~policy:(Ceiling 50.) "b" 60. ]);
  Alcotest.(check (list string)) "Ceiling: under the bound passes" []
    (regressed [ Gate.record ~policy:(Ceiling 50.) "a" 49. ])

let gate_info_never_compared () =
  let cs =
    Gate.compare_records ~baseline:[ ("a", 10.) ]
      [
        Gate.record ~policy:Info "a" 100.;
        Gate.record ~policy:Info "a" 1.;
        Gate.record ~policy:Info "absent" 5.;
      ]
  in
  Alcotest.(check int) "no comparisons" 0 (List.length cs)

let gate_missing_baseline_fails () =
  (* A fresh subset of the baseline is legal; a fresh gated record the
     committed file lacks (a renamed metric) is not. *)
  let baseline = [ ("a", 1.); ("b", 2.) ] in
  let subset = Gate.compare_records ~baseline [ Gate.record "a" 1. ] in
  Alcotest.(check int) "subset passes" 0 (List.length (Gate.regressions subset));
  let cs =
    Gate.compare_records ~baseline
      [ Gate.record "a" 1.; Gate.record ~policy:Exact "renamed" 2. ]
  in
  match Gate.regressions cs with
  | [ c ] ->
      Alcotest.(check string) "names the metric" "renamed" c.metric;
      Alcotest.(check bool) "reported missing" true (Gate.missing c);
      Alcotest.(check bool) "verdict says null baseline" true
        (contains (Gate.verdict_json cs) "\"baseline\": null")
  | _ -> Alcotest.fail "expected exactly the renamed metric to fail"

let golden_cases f =
  List.map
    (fun (c : Trace_cases.case) -> Alcotest.test_case c.name `Quick (f c))
    Trace_cases.all

let () =
  Alcotest.run "trace-analytics"
    [
      ( "jsonl",
        QCheck_alcotest.to_alcotest prop_jsonl_roundtrip
        :: [ Alcotest.test_case "exact bytes" `Quick exact_bytes ] );
      ("golden-roundtrip", golden_cases golden_roundtrip);
      ( "attribution",
        golden_cases attribution_sums
        @ [ Alcotest.test_case "e1 winner" `Quick e1_winner_rounds ] );
      ( "trace-diff",
        [
          Alcotest.test_case "identical" `Quick diff_identical;
          Alcotest.test_case "different runs" `Quick diff_different_runs;
          Alcotest.test_case "field detail" `Quick diff_field_detail;
          Alcotest.test_case "tail" `Quick diff_tail;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "identical passes" `Quick gate_identical_passes;
          Alcotest.test_case "injected 50% fails" `Quick
            gate_injected_regression_fails;
          Alcotest.test_case "slack and tolerances" `Quick
            gate_slack_absorbs_noise;
          Alcotest.test_case "metric extraction" `Quick gate_extraction;
          Alcotest.test_case "write/read round trip" `Quick
            gate_write_roundtrip;
          Alcotest.test_case "planted regression per policy" `Quick
            gate_planted_regressions;
          Alcotest.test_case "info never compared" `Quick
            gate_info_never_compared;
          Alcotest.test_case "missing baseline fails" `Quick
            gate_missing_baseline_fails;
        ] );
    ]
