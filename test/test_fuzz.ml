(* Parser robustness: every spec and wire-format parser answers [Ok] or
   [Error] on any input, within a time bound, and never raises.

   Inputs are valid specs mutated a few times (characters inserted,
   deleted or replaced, hostile tokens such as "nan" or a 20-digit
   integer spliced in, slices truncated or repeated) plus arbitrary
   bytes.  Each parse runs under a wall-clock alarm, so a parser that
   loops forever fails its case instead of stalling the suite. *)

open Goalcom_session
module Fault = Goalcom_faults.Fault
module Json = Goalcom_obs.Json
module Jsonl = Goalcom_obs.Jsonl
module Binary = Goalcom_obs.Binary
module Rollup = Goalcom_obs.Rollup

let count = 2_000
let time_bound = 2.0

exception Timed_out

(* [f x], or [Timed_out] once [time_bound] seconds of wall clock have
   passed. *)
let within f x =
  let disarm () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. })
  in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.; it_value = time_bound });
  Fun.protect
    ~finally:(fun () ->
      disarm ();
      Sys.set_signal Sys.sigalrm previous)
    (fun () -> f x)

(* --- inputs --- *)

let tokens =
  [
    "nan"; "-nan"; "inf"; "-inf"; "1e308"; "1e9"; "0x1p60"; "-1"; "0"; "1.5";
    "99999999999999999999"; "4611686018427387903"; "."; ".."; ","; ":"; ";";
    "@"; "%"; "="; "+"; "\""; "{"; "}"; "["; "]"; "\\u"; "\\"; "\000"; "\255";
    " "; "e"; "-";
  ]

let insert s i t = String.sub s 0 i ^ t ^ String.sub s i (String.length s - i)
let delete s i = String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
let replace s i c = String.mapi (fun j d -> if j = i then c else d) s

let mutation s =
  let open QCheck.Gen in
  let n = String.length s in
  let pos = int_bound n in
  let at = if n = 0 then return 0 else int_bound (n - 1) in
  frequency
    [
      (2, map2 (fun i c -> insert s i (String.make 1 c)) pos char);
      (3, map2 (fun i t -> insert s i t) pos (oneofl tokens));
      (2, if n = 0 then return s else map (delete s) at);
      (2, if n = 0 then return s else map2 (replace s) at char);
      (1, map (fun i -> String.sub s 0 i) pos);
      ( 1,
        map2
          (fun i j ->
            let i = min i j and j = max i j in
            insert s j (String.sub s i (j - i)))
          pos pos );
    ]

let rec mutate k s =
  if k = 0 then QCheck.Gen.return s
  else QCheck.Gen.(mutation s >>= mutate (k - 1))

let inputs seeds =
  let open QCheck.Gen in
  frequency
    [
      (5, oneofl seeds >>= fun s -> int_range 1 5 >>= fun k -> mutate k s);
      (1, string_size ~gen:char (int_bound 64));
    ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_lines =
  lazy
    (List.filter
       (fun l -> l <> "")
       (String.split_on_char '\n' (read_file "golden/e1_printing.jsonl")))

(* [parse] must return on every input; [check] inspects an [Ok]. *)
let total ?(check = ignore) name seeds parse =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:(Printf.sprintf "%S") (inputs (Lazy.force seeds)))
       (fun s ->
         (match within parse s with Ok v -> check v | Error (_ : string) -> ());
         true))

let chaos_seeds =
  lazy
    [
      "kill@2,4%5=0;crash:25@1..800%3=1"; "burst:0.3@10..50";
      "blackout@5..9%2=1"; "fault:corrupt:0.05+crash:60"; "kill@3,7%5=0";
      "fault:burst:0.1,0.2,0.9%4=3";
    ]

let fault_seeds =
  lazy
    [
      "corrupt:0.05+crash:60"; "burst:0.1,0.2,0.9"; "delay:2+drop:0.1+dup";
      "intermittent:5,3"; "reorder:2"; "adversary:3"; "loss:0.25"; "nop";
    ]

let arrival_seeds =
  lazy [ "bang"; "4"; "constant:3"; "poisson:2.5"; "mmpp:1,5:0.2"; "mmpp:0.5,2,8" ]

let class_seeds =
  lazy [ "printing=3,maze-corridor=1"; "a=1"; "default=2,b=5"; "" ]

let json_seeds =
  lazy
    [
      read_file "golden/stats_e18_chaos.json";
      Rollup.to_json (Rollup.snapshot (Rollup.create ()));
    ]

let jsonl_seeds = lazy (Goalcom_prelude.Listx.take 40 (Lazy.force golden_lines))

let binary_seeds =
  lazy
    (let events =
       List.filter_map
         (fun l -> Result.to_option (Jsonl.parse_line l))
         (Lazy.force jsonl_seeds)
     in
     [
       String.concat "" (List.map Binary.event_to_string events);
       Binary.event_to_string (List.hd events);
     ])

let suite =
  [
    total "Chaos.of_string" chaos_seeds (Chaos.of_string ~alphabet:6);
    total "Fault.stack_of_string" fault_seeds
      (Fault.stack_of_string ~alphabet:6);
    total "Arrival.of_string" arrival_seeds Arrival.of_string;
    (* Every accepted spec must also be accepted by [Admission.make]. *)
    total "Admission.classes_of_string"
      ~check:(fun classes ->
        ignore (Admission.make ~classes ~max_live:1 ~queue_capacity:0 ()))
      class_seeds Admission.classes_of_string;
    total "Json.parse + Rollup.snapshot_of_json" json_seeds (fun s ->
        Result.map
          (fun j -> ignore (Rollup.snapshot_of_json j : _ result))
          (Json.parse s));
    total "Jsonl.parse_line" jsonl_seeds Jsonl.parse_line;
    total "Binary.decode_all" binary_seeds (fun s -> Binary.decode_all s);
  ]

let () = Alcotest.run "fuzz" [ ("parsers", suite) ]
