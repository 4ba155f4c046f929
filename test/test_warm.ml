(* Tests for the warm-start store (Goalcom_harness.Warm).

   The store is a JSONL file of known-good winning candidate indices.
   These tests pin its robustness contract: the store round-trips, a
   re-recorded key replaces its entry, a hit replays the cold outcome
   from slot 0, and corrupt stores, stale indices and bad budgets all
   fall back cold with a Trace.Warm event recording the rejection.
   The parser must also survive arbitrary bytes: [load] answers [Ok] or
   [Error] and never raises, and [hints] never yields a slot Levin
   would reject.

   The class under test is the raw machine numbering of
   test_machine_user: 1-state Mealy machines over the xor toy goal's
   alphabets (Xor_toy), turned into users by Machine_user. *)

open Goalcom
open Goalcom_automata
open Xor_toy
module Warm = Goalcom_harness.Warm

let qtest ?(count = 100) name gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen law)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let with_temp_file prefix f =
  let path = Filename.temp_file prefix ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* 8 candidates: every output column of a 1-state machine. *)
let machine_class () =
  Machine_user.user_class ~read ~write
    (Mealy.enumerate_up_to ~max_states:1 ~inputs:3 ~outputs:2)

let race_schedule () = Levin.round_robin ~budget:40 ~width:8 ()

let race ~enum ~b ~seed ~jobs =
  Universal.finite_par ~schedule:(race_schedule ()) ~max_slots:8 ~jobs ~enum
    ~sensing ~goal:(xor_goal b) ~server:idle_server ~seed ()

(* --- store format ----------------------------------------------------- *)

let arb_entry =
  QCheck.(
    map
      (fun ((c, e), (i, bu)) ->
        { Warm.server_class = c; enum = e; index = i; budget = bu })
      (pair
         (pair small_printable_string small_printable_string)
         (pair (int_bound 1000) (1 -- 1000))))

let prop_warm_roundtrip =
  qtest ~count:60 "Warm: save/load JSONL roundtrip"
    QCheck.(list_of_size Gen.(int_bound 10) arb_entry)
    (fun entries ->
      with_temp_file "warm_rt" (fun path ->
          Warm.save path entries;
          Warm.load path = Ok entries))

let prop_warm_record_lookup =
  qtest ~count:60 "Warm: record then lookup; re-record replaces, not grows"
    QCheck.(pair (list_of_size Gen.(int_bound 6) arb_entry) arb_entry)
    (fun (entries, e) ->
      let once = Warm.record entries e in
      let bumped = { e with Warm.budget = e.Warm.budget + 1 } in
      let twice = Warm.record once bumped in
      Warm.lookup once ~server_class:e.Warm.server_class ~enum:e.Warm.enum
      = Some e
      && List.length twice = List.length once
      && Warm.lookup twice ~server_class:e.Warm.server_class ~enum:e.Warm.enum
         = Some bumped)

let prop_levin_hinted =
  qtest ~count:50 "Levin.hinted: prepends hints; rejects invalid ones"
    QCheck.(list_of_size Gen.(int_bound 5) (pair (int_bound 50) (1 -- 50)))
    (fun raw ->
      let hints = List.map (fun (i, b) -> { Levin.index = i; budget = b }) raw in
      let sched = Levin.hinted ~hints (Levin.schedule ()) in
      List.of_seq (Seq.take (List.length hints) sched) = hints
      && (try
            let (_ : Levin.slot Seq.t) =
              Levin.hinted
                ~hints:[ { Levin.index = -1; budget = 3 } ]
                (Levin.schedule ())
            in
            false
          with Invalid_argument _ -> true)
      && (try
            let (_ : Levin.slot Seq.t) =
              Levin.hinted
                ~hints:[ { Levin.index = 0; budget = 0 } ]
                (Levin.schedule ())
            in
            false
          with Invalid_argument _ -> true))

let test_warm_corrupt_and_missing () =
  with_temp_file "warm_bad" (fun path ->
      write_file path
        "{\"class\":\"a\",\"enum\":\"b\",\"index\":1,\"budget\":2}\nnot json\n";
      match Warm.load path with
      | Error e ->
          Alcotest.(check bool) "error names the line" true
            (contains ~affix:"line 2" e)
      | Ok _ -> Alcotest.fail "corrupt store loaded");
  match Warm.load "/nonexistent/warm.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing store loaded"

(* --- parser robustness ------------------------------------------------ *)

(* Store files built from three kinds of line: arbitrary bytes (any
   char, NUL and high bytes included), well-formed entries whose
   fields take any int (negative indices and budgets included), and
   blank lines.  Pure noise almost always fails to parse; the
   well-formed arm is what reaches [hints] with hostile values. *)
let gen_store_bytes =
  let open QCheck.Gen in
  let noise = string_size ~gen:char (int_bound 40) in
  let entry_line =
    map
      (fun ((c, e), (i, b)) ->
        Warm.entry_to_json { Warm.server_class = c; enum = e; index = i; budget = b })
      (pair
         (pair (string_size ~gen:char (int_bound 6)) (oneofl [ "m"; "n" ]))
         (pair int int))
  in
  let line = frequency [ (3, noise); (3, entry_line); (1, return "") ] in
  map (String.concat "\n") (list_size (int_bound 8) line)

let prop_load_never_raises =
  qtest ~count:300 "Warm.load: arbitrary bytes never raise; hints are valid slots"
    (QCheck.make ~print:String.escaped gen_store_bytes)
    (fun bytes ->
      with_temp_file "warm_fuzz" (fun path ->
          write_file path bytes;
          match Warm.load path with
          | Error _ -> true
          | Ok entries ->
              (* Probe every stored key against a finite and an
                 unbounded enumeration of the stored name. *)
              List.for_all
                (fun (e : Warm.entry) ->
                  List.for_all
                    (fun enum ->
                      List.for_all
                        (fun (s : Levin.slot) -> s.index >= 0 && s.budget >= 1)
                        (Warm.hints ~enum ~server_class:e.server_class
                           (Ok entries)))
                    [
                      Enum.tabulate ~name:e.enum 8 Fun.id;
                      Enum.make ~name:e.enum (fun i -> Some i);
                    ])
                entries))

(* --- hint validation and replay --------------------------------------- *)

(* Run [f] under a capturing sink; return its result plus every
   Trace.Warm event's (accepted, index). *)
let collect_warm_events f =
  let events = ref [] in
  let result =
    Trace.with_sink
      (function
        | Trace.Warm { accepted; index; _ } ->
            events := (accepted, index) :: !events
        | _ -> ())
      f
  in
  (result, List.rev !events)

let test_warm_hint_validation () =
  let enum = machine_class () in
  let entry index budget =
    { Warm.server_class = "xor"; enum = Enum.name enum; index; budget }
  in
  (* Valid entry: one hint slot, accepted event. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Ok [ entry 3 17 ]))
  in
  Alcotest.(check bool) "hint applied" true
    (hints = [ { Levin.index = 3; budget = 17 } ]);
  Alcotest.(check (list (pair bool int))) "accepted event" [ (true, 3) ] evs;
  (* Stale index (the class has 8 candidates): rejected, cold fallback. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Ok [ entry 999 17 ]))
  in
  Alcotest.(check bool) "stale rejected" true (hints = []);
  Alcotest.(check (list (pair bool int))) "rejected event" [ (false, 999) ] evs;
  (* Bad budget: rejected. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Ok [ entry 3 0 ]))
  in
  Alcotest.(check bool) "bad budget rejected" true (hints = []);
  Alcotest.(check (list (pair bool int))) "bad-budget event" [ (false, 3) ] evs;
  (* Load error: cold start, index -1 in the event. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"xor" (Error "warm.jsonl: line 2: bad"))
  in
  Alcotest.(check bool) "error store is a cold start" true (hints = []);
  Alcotest.(check (list (pair bool int))) "error event" [ (false, -1) ] evs;
  (* Plain miss: silent cold start. *)
  let hints, evs =
    collect_warm_events (fun () ->
        Warm.hints ~enum ~server_class:"other" (Ok [ entry 3 17 ]))
  in
  Alcotest.(check bool) "miss is silent" true (hints = [] && evs = [])

let test_warm_replay_race () =
  (* A cold race's outcome, recorded with of_race and replayed through
     hinted_schedule, wins at slot 0 with the same candidate. *)
  let enum = machine_class () in
  match race ~enum ~b:1 ~seed:3 ~jobs:2 with
  | None -> Alcotest.fail "cold race found no winner"
  | Some cold -> (
      let entry = Warm.of_race ~server_class:"xor/b1" ~enum cold in
      with_temp_file "warm_replay" (fun path ->
          Warm.save path [ entry ];
          let store = Warm.load path in
          Alcotest.(check bool) "store loads" true (store = Ok [ entry ]);
          let schedule =
            Warm.hinted_schedule ~schedule:(race_schedule ()) ~enum
              ~server_class:"xor/b1" store
          in
          match
            Universal.finite_par ~schedule ~max_slots:9 ~jobs:2 ~enum ~sensing
              ~goal:(xor_goal 1) ~server:idle_server ~seed:3 ()
          with
          | None -> Alcotest.fail "warm race found no winner"
          | Some warm ->
              Alcotest.(check int) "same winning candidate"
                cold.Universal.winner_index warm.Universal.winner_index;
              Alcotest.(check int) "won at the hint slot" 0
                warm.Universal.winner_slot))

let () =
  Alcotest.run "warm"
    [
      ( "warm",
        [
          prop_warm_roundtrip;
          prop_warm_record_lookup;
          prop_levin_hinted;
          Alcotest.test_case "corrupt & missing stores" `Quick
            test_warm_corrupt_and_missing;
          Alcotest.test_case "hint validation & tracing" `Quick
            test_warm_hint_validation;
          Alcotest.test_case "race replay from a warm hint" `Quick
            test_warm_replay_race;
        ] );
      (* Alcotest truncates printed test names to a width set by the
         longest group label, so this label also fixes how the "warm"
         names above print. *)
      ("robustness", [ prop_load_never_raises ]);
    ]
