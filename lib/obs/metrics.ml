open Goalcom

(* Symbols-on-the-wire weight of a message: atoms count 1, texts their
   length, silence nothing.  This is the per-round channel usage the
   paper's overhead statements are about (number of symbols exchanged),
   not an OCaml heap size. *)
let rec msg_weight = function
  | Msg.Silence -> 0
  | Msg.Sym _ | Msg.Int _ -> 1
  | Msg.Text s -> String.length s
  | Msg.Pair (a, b) -> msg_weight a + msg_weight b
  | Msg.Seq ms -> List.fold_left (fun acc m -> acc + msg_weight m) 0 ms

type timing = {
  timed : int;
  total_s : float;
  mean_s : float;
  min_s : float;
  max_s : float;
  p50_ns : int;
  p99_ns : int;
}

type summary = {
  runs : int;
  rounds : int;
  halts : int;
  user_msgs : int;
  server_msgs : int;
  world_msgs : int;
  wire_symbols : int;
  senses : int;
  negatives : int;
  switches : int;
  resumes : int;
  sessions : int;
  faults : int;
  violations : int;
  round_timing : timing option;
}

type t = {
  clock : (unit -> float) option;
  mutable runs : int;
  mutable rounds : int;
  mutable halts : int;
  mutable user_msgs : int;
  mutable server_msgs : int;
  mutable world_msgs : int;
  mutable wire_symbols : int;
  mutable senses : int;
  mutable negatives : int;
  mutable switches : int;
  mutable resumes : int;
  mutable sessions : int;
  mutable faults : int;
  mutable violations : int;
  (* round timing; [round_open] guards against stamping across runs *)
  mutable round_open : bool;
  mutable round_stamp : float;
  mutable timed : int;
  mutable time_total : float;
  mutable time_min : float;
  mutable time_max : float;
  round_ns : Rollup.Hist.t;
}

let create ?clock () =
  {
    clock;
    runs = 0;
    rounds = 0;
    halts = 0;
    user_msgs = 0;
    server_msgs = 0;
    world_msgs = 0;
    wire_symbols = 0;
    senses = 0;
    negatives = 0;
    switches = 0;
    resumes = 0;
    sessions = 0;
    faults = 0;
    violations = 0;
    round_open = false;
    round_stamp = 0.;
    timed = 0;
    time_total = 0.;
    time_min = infinity;
    time_max = neg_infinity;
    round_ns = Rollup.Hist.create ();
  }

let close_round t now =
  if t.round_open then begin
    let d = now -. t.round_stamp in
    t.timed <- t.timed + 1;
    t.time_total <- t.time_total +. d;
    if d < t.time_min then t.time_min <- d;
    if d > t.time_max then t.time_max <- d;
    Rollup.Hist.add t.round_ns (int_of_float (d *. 1e9));
    t.round_open <- false
  end

let observe t (ev : Trace.event) =
  match ev with
  | Trace.Run_start _ -> t.runs <- t.runs + 1
  | Trace.Round_start _ -> begin
      t.rounds <- t.rounds + 1;
      match t.clock with
      | None -> ()
      | Some clock ->
          let now = clock () in
          close_round t now;
          t.round_open <- true;
          t.round_stamp <- now
    end
  | Trace.Emit { src; msg; _ } -> begin
      t.wire_symbols <- t.wire_symbols + msg_weight msg;
      match src with
      | Trace.User -> t.user_msgs <- t.user_msgs + 1
      | Trace.Server -> t.server_msgs <- t.server_msgs + 1
      | Trace.World -> t.world_msgs <- t.world_msgs + 1
    end
  | Trace.Halt _ -> t.halts <- t.halts + 1
  | Trace.Sense { positive; _ } ->
      t.senses <- t.senses + 1;
      if not positive then t.negatives <- t.negatives + 1
  | Trace.Switch _ -> t.switches <- t.switches + 1
  | Trace.Resume _ -> t.resumes <- t.resumes + 1
  | Trace.Session _ -> t.sessions <- t.sessions + 1
  | Trace.Fault _ -> t.faults <- t.faults + 1
  | Trace.Violation _ -> t.violations <- t.violations + 1
  | Trace.Run_end _ -> begin
      match t.clock with
      | None -> ()
      | Some clock -> close_round t (clock ())
    end
  (* Engine-level supervision events are aggregated by lib/session's
     own reporting, not by the per-run meter. *)
  | Trace.Supervise _ -> ()
  (* Warm-start cache decisions likewise. *)
  | Trace.Warm _ -> ()

let sink t = observe t

let summary t =
  {
    runs = t.runs;
    rounds = t.rounds;
    halts = t.halts;
    user_msgs = t.user_msgs;
    server_msgs = t.server_msgs;
    world_msgs = t.world_msgs;
    wire_symbols = t.wire_symbols;
    senses = t.senses;
    negatives = t.negatives;
    switches = t.switches;
    resumes = t.resumes;
    sessions = t.sessions;
    faults = t.faults;
    violations = t.violations;
    round_timing =
      (if t.timed = 0 then None
       else
         Some
           {
             timed = t.timed;
             total_s = t.time_total;
             mean_s = t.time_total /. float_of_int t.timed;
             min_s = t.time_min;
             max_s = t.time_max;
             p50_ns = Rollup.Hist.percentile 50. t.round_ns;
             p99_ns = Rollup.Hist.percentile 99. t.round_ns;
           });
  }

let of_events events =
  let t = create () in
  List.iter (observe t) events;
  summary t

let to_table (s : summary) =
  [
    ("runs", string_of_int s.runs);
    ("rounds", string_of_int s.rounds);
    ("halts", string_of_int s.halts);
    ("user msgs", string_of_int s.user_msgs);
    ("server msgs", string_of_int s.server_msgs);
    ("world msgs", string_of_int s.world_msgs);
    ("wire symbols", string_of_int s.wire_symbols);
    ("sense verdicts", string_of_int s.senses);
    ("  negative", string_of_int s.negatives);
    ("switches", string_of_int s.switches);
    ("resumes", string_of_int s.resumes);
    ("sessions", string_of_int s.sessions);
    ("faults", string_of_int s.faults);
    ("violations", string_of_int s.violations);
  ]
  @
  match s.round_timing with
  | None -> []
  | Some tm ->
      [
        ("rounds timed", string_of_int tm.timed);
        ("round mean", Printf.sprintf "%.2fus" (tm.mean_s *. 1e6));
        ("round min", Printf.sprintf "%.2fus" (tm.min_s *. 1e6));
        ("round max", Printf.sprintf "%.2fus" (tm.max_s *. 1e6));
        ("round p50", Printf.sprintf "%.2fus" (float_of_int tm.p50_ns /. 1e3));
        ("round p99", Printf.sprintf "%.2fus" (float_of_int tm.p99_ns /. 1e3));
      ]

let pp ppf (s : summary) =
  let rows = to_table s in
  let width =
    List.fold_left (fun w (k, _) -> max w (String.length k)) 0 rows
  in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%-*s %s" width k v)
    rows;
  Format.fprintf ppf "@]"
