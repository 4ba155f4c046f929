(* The session-serving benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--plant P]

   --trace 0 measures the end-to-end metrics: the workload is set up
   from the seed and served through [Engine.run] at jobs 1, repeatedly
   for S seconds, with tracing off.  --trace 1 is the separate traced
   run: it adds spans around every layer boundary the benchmark can
   reach from outside, replays a session sample rung by rung, and
   reports the per-layer metrics.  Either way the last line of standard
   output is one JSON object; a failed output check exits 1 instead.
   --plant wraps every user in a deliberate regression (see
   [Workload.plant]); the self-test uses it. *)

open Goalcom_prelude
module Engine = Goalcom_session.Engine
module Rollup = Goalcom_obs.Rollup
module Ring = Goalcom_obs.Ring

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let now = Clock.now

(* --- arguments --------------------------------------------------------- *)

type args = {
  kind : Workload.kind;
  seed : int;
  seconds : float;
  trace : bool;
  plant : Workload.plant;
}

let usage =
  "usage: main.exe --workload storm|surge|net|capture --seed N --seconds S \
   --trace 0|1 [--plant none|alloc|linger|sabotage]"

let parse argv =
  let get key =
    let rec go = function
      | k :: v :: _ when k = key -> Some v
      | _ :: tl -> go tl
      | [] -> None
    in
    go (List.tl (Array.to_list argv))
  in
  let need key = match get key with Some v -> v | None -> invalid_arg usage in
  let int_of key v =
    match int_of_string_opt v with Some i -> i | None -> invalid_arg (key ^ ": not an integer")
  in
  let choose key table v =
    match List.assoc_opt v table with
    | Some x -> x
    | None -> invalid_arg (Printf.sprintf "%s: unknown %S" key v)
  in
  let seconds = int_of "--seconds" (need "--seconds") in
  if seconds < 1 then invalid_arg "--seconds: want at least 1";
  {
    kind = choose "--workload" Workload.kinds (need "--workload");
    seed = int_of "--seed" (need "--seed");
    seconds = float_of_int seconds;
    trace =
      choose "--trace" [ ("0", false); ("1", true) ] (need "--trace");
    plant =
      choose "--plant" Workload.plants (Option.value (get "--plant") ~default:"none");
  }

(* --- small helpers ----------------------------------------------------- *)

(* A preallocated int buffer: pushing never allocates below capacity. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 1 cap) 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let floats t = List.init t.n (fun i -> float_of_int t.a.(i))
end

let percentile q = function [] -> 0. | xs -> Stats.percentile q xs
let median = percentile 50.
let ms ns = float_of_int ns *. 1e-6
let pct a b = if b = 0. then 0. else 100. *. a /. b

(* --- output checks ----------------------------------------------------- *)

(* BENCH_session.json's storm row, which storm must reproduce at seed 1. *)
let storm_seed1 = [ ("total_rounds", 1_460_246.); ("restarts", 31.); ("trips", 3.); ("p99_rounds", 1007.) ]

let done_rounds (r : Engine.report) =
  Array.to_list r.outcomes
  |> List.filter_map (function Engine.Done { rounds; _ } -> Some (float_of_int rounds) | _ -> None)

let check_report (w : Workload.t) (r : Engine.report) =
  let n = Array.length w.specs in
  let count f = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 r.outcomes in
  if r.completed + r.shed + r.gave_up + r.deadlines + r.unfinished <> n then
    fail "outcome counts do not add up to the %d sessions" n;
  if count (function Engine.Done _ -> true | _ -> false) <> r.completed then
    fail "completed count disagrees with the outcomes";
  let rounds = done_rounds r in
  if percentile 50. rounds <> r.p50_rounds || percentile 99. rounds <> r.p99_rounds then
    fail "rounds-to-goal percentiles disagree with the outcomes";
  if List.fold_left ( +. ) 0. rounds > float_of_int r.total_rounds then
    fail "completed sessions ran more rounds than the run";
  if r.unfinished > 0 then fail "%d sessions were still live at max_ticks" r.unfinished;
  (match (w.kind, w.seed, w.plant) with
  | Workload.Storm, 1, Workload.No_plant ->
      List.iter
        (fun (field, want) ->
          let got =
            match field with
            | "total_rounds" -> float_of_int r.total_rounds
            | "restarts" -> float_of_int r.restarts
            | "trips" -> float_of_int r.trips
            | _ -> r.p99_rounds
          in
          if got <> want then
            fail "storm seed 1: %s = %g, BENCH_session.json has %g" field got want)
        storm_seed1
  | _ -> ());
  match w.rollup with
  | None -> ()
  | Some rollup ->
      let snap = Rollup.snapshot rollup in
      List.iter
        (fun (c : Rollup.class_stats) ->
          let of_class f =
            let k = ref 0 in
            Array.iteri
              (fun id o -> if w.specs.(id).Engine.server_class = c.cls && f o then incr k)
              r.outcomes;
            !k
          in
          let d = of_class (function Engine.Done _ -> true | _ -> false) in
          let s = of_class (function Engine.Shed -> true | _ -> false) in
          if c.completed <> d || c.shed <> s then
            fail "rollup class %s: done/shed %d/%d, engine report %d/%d" c.cls c.completed
              c.shed d s)
        snap.classes;
      if snap.totals.completed <> r.completed || snap.totals.shed <> r.shed then
        fail "rollup totals disagree with the engine report"

(* --- one untraced run -------------------------------------------------- *)

type rep = {
  setup_ns : int list;
  wall_ns : int;
  tick_p50_ms : float;
  tick_p95_ms : float;
  report : Engine.report;
  latency : float list;  (** arrival tick to done tick, completed sessions *)
  words : float;  (** minor words during [Engine.run] *)
  host_ms : float;  (** mean [Probe.mem_ms] just before and after [Engine.run] *)
  top_heap_mb : float;  (** the process's heap high-water mark after it *)
  gc_minor : int;
  gc_major : int;
  promoted : float;
}

(* Set-ups timed per repeat; the last one is served. *)
let setups = 3

let untraced ?(jobs = 1) ~plant kind ~seed =
  (* Set-up starts from a collected heap, not the last repeat's garbage. *)
  Gc.full_major ();
  let setup_ns = ref [] in
  let build () =
    let t0 = now () in
    let w = Workload.build ~plant kind ~seed in
    setup_ns := (now () - t0) :: !setup_ns;
    w
  in
  for _ = 2 to setups do
    ignore (Sys.opaque_identity (build ()))
  done;
  let w = build () in
  (* Collect the discarded set-ups' garbage outside the measured run. *)
  Gc.full_major ();
  let n = Array.length w.specs in
  let marks = Ints.create (w.config.Engine.max_ticks + 1) in
  let arrive = Array.make n (-1) in
  let latency = Ints.create n in
  let own = Workload.supervise w in
  let on_supervise ~tick ~session ~action ~detail =
    (match action with
    | "admit" | "shed" -> arrive.(session) <- tick
    | "done" -> Ints.push latency (tick - arrive.(session))
    | _ -> ());
    match own with Some f -> f ~tick ~session ~action ~detail | None -> ()
  in
  let on_tick ~tick:_ = Ints.push marks (now ()) in
  let probe_before = Probe.mem_ms () in
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t2 = now () in
  let report = Workload.run ~jobs ~on_tick ~on_supervise w in
  let t3 = now () in
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  let host_ms = (probe_before +. Probe.mem_ms ()) /. 2. in
  check_report w report;
  if latency.n <> report.completed then fail "a completed session was never seen arriving";
  let gaps = List.init (max 0 (marks.n - 1)) (fun i -> ms (marks.a.(i + 1) - marks.a.(i))) in
  {
    setup_ns = !setup_ns;
    wall_ns = t3 - t2;
    tick_p50_ms = percentile 50. gaps;
    tick_p95_ms = percentile 95. gaps;
    report;
    latency = Ints.floats latency;
    words = w1 -. w0;
    host_ms;
    top_heap_mb = float_of_int (s1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.;
    gc_minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
    gc_major = s1.Gc.major_collections - s0.Gc.major_collections;
    promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
  }

(* Repeat untraced runs until [until] (at least three times); every
   repeat of a seed must serve the same outcomes. *)
let repeats ~plant kind ~seed ~until =
  let rec go acc =
    if List.length acc >= 3 && now () >= until then List.rev acc
    else begin
      let r = untraced ~plant kind ~seed in
      (match acc with
      | first :: _ when first.report.digest <> r.report.digest ->
          fail "repeat digest %s differs from %s" r.report.digest first.report.digest
      | _ -> ());
      (* Keep one report: the others would only raise the heap peak. *)
      let r = match acc with [] -> r | _ -> { r with report = (List.hd acc).report } in
      go (r :: acc)
    end
  in
  go []

let sessions_per_s r = float_of_int r.report.completed /. Clock.seconds r.wall_ns
let words_per_round r = r.words /. float_of_int (max 1 r.report.total_rounds)

(* --- the end-to-end metrics -------------------------------------------- *)

(* How much slower than the reference the host's memory ran (>1 is
   slower), over the run's repeats. *)
(* The first repeat grows the heap and forces lazy set-up, once per
   process; timings come from the repeats after it. *)
let timed reps = List.tl reps

let probe_ms reps = median (List.map (fun r -> r.host_ms) (timed reps))
let host_factor reps = probe_ms reps /. Probe.mem_reference_ms

(* Wall-clock metrics are medians over the repeats, scaled by the host
   factor to what they would read at the probe's reference speed. *)
let end_to_end reps =
  let first = List.hd reps and last = List.nth reps (List.length reps - 1) in
  let r = first.report in
  let med f = median (List.map f (timed reps)) in
  let h = host_factor reps in
  [
    ("sessions_per_s", "1/s", med sessions_per_s *. h);
    ("tick_ms_p50", "ms", med (fun r -> r.tick_p50_ms) /. h);
    ("tick_ms_p95", "ms", med (fun r -> r.tick_p95_ms) /. h);
    ("rounds_to_goal_p50", "rounds", r.p50_rounds);
    ("rounds_to_goal_p99", "rounds", r.p99_rounds);
    ("latency_ticks_p50", "ticks", percentile 50. first.latency);
    ("latency_ticks_p99", "ticks", percentile 99. first.latency);
    ("done_pct", "%", pct (float_of_int r.completed) (float_of_int (Array.length r.outcomes)));
    (* The first repeat pays one-off lazy initialisation; the last
       repeat's allocation is the steady figure. *)
    ("alloc_words_per_round", "words", words_per_round last);
    (* After set-up and the first repeat: later repeats only add the
       previous repeat's garbage to the high-water mark. *)
    ("peak_heap_mb", "MB", first.top_heap_mb);
    ("setup_s", "s", median (List.concat_map (fun r -> List.map Clock.seconds r.setup_ns) (timed reps)) /. h);
  ]

(* --- the traced run ---------------------------------------------------- *)

type traced = {
  t_report : Engine.report;
  t_engine_ns : int;  (** [Engine.run] wall time under instrumentation *)
  spans : Spans.t;
  root : int;
  live_share_pct : float;
  queued : int;
  shed : int;
  waits : float list;
  give_ups : int;
  restarts : int;
  wasted_pct : float;
  decisions : (int * int * string * string) list;  (** in arrival order *)
  arbitrations : int;
  arbitrate_ns : int;
  collisions : int;
  idles : int;
  evicted : int;
}

(* Session lifecycle as seen from [on_supervise]. *)
let pending = 0 and queued_s = 1 and running_s = 2 and backoff = 3 and terminal = 4

let traced_run kind ~seed =
  let w = Workload.build kind ~seed in
  Gc.full_major ();
  let n = Array.length w.specs in
  let spans = Spans.create () in
  let root = Spans.open_ spans ~kind:Spans.Run ~parent:(-1) (now ()) in
  let cur_tick = ref (Spans.open_ spans ~kind:Spans.Tick ~req:1 ~parent:root (now ())) in
  let cur_parent = ref !cur_tick in
  (* Rounds per session, counted at its server: the engine steps every
     party once per executed round. *)
  let steps = Array.make n 0 in
  let inc_start = Array.make n 0 in
  let winning = ref 0 in
  let counting id (server : Goalcom.Strategy.server) : Goalcom.Strategy.server =
    let module I = Goalcom.Strategy.Instance in
    Goalcom.Strategy.make ~name:(Goalcom.Strategy.name server)
      ~init:(fun () -> I.create server)
      ~step:(fun rng inst obs ->
        steps.(id) <- steps.(id) + 1;
        (inst, I.step rng inst obs))
  in
  let specs =
    Array.mapi
      (fun id (s : Engine.spec) ->
        {
          s with
          make_user =
            (fun ~checkpoint ->
              let t0 = now () in
              let u = s.make_user ~checkpoint in
              Spans.add spans ~kind:Spans.Incarnation ~req:id ~parent:!cur_tick ~start:t0 (now ());
              u);
          server = counting id s.server;
        })
      w.specs
  in
  let state = Array.make n pending and queued_at = Array.make n 0 in
  let running = ref 0 and ended = ref 0 and live_sum = ref 0 and ticks = ref 0 in
  let queued = ref 0 and shed = ref 0 and give_ups = ref 0 and restarts = ref 0 in
  let waits = Ints.create n in
  let decisions = ref [] in
  let stop s next =
    if state.(s) = running_s then begin
      decr running;
      incr ended
    end;
    state.(s) <- next
  in
  let lifecycle ~tick ~session:s ~action ~detail =
    match action with
    | "admit" when detail = "queued" ->
        incr queued;
        state.(s) <- queued_s;
        queued_at.(s) <- tick
    | "shed" ->
        incr shed;
        state.(s) <- terminal
    | "start" | "restart" ->
        if state.(s) = queued_s then Ints.push waits (tick - queued_at.(s));
        if action = "restart" then incr restarts;
        state.(s) <- running_s;
        incr running;
        inc_start.(s) <- steps.(s)
    | "done" ->
        winning := !winning + (steps.(s) - inc_start.(s));
        stop s terminal
    | "fail" | "wedge" | "kill" -> stop s backoff
    | "give-up" ->
        incr give_ups;
        stop s terminal
    | "deadline" -> stop s terminal
    | _ -> ()
  in
  let own = Workload.supervise w in
  let on_supervise ~tick ~session ~action ~detail =
    let t0 = now () in
    decisions := (tick, session, action, detail) :: !decisions;
    lifecycle ~tick ~session ~action ~detail;
    (match own with Some f -> f ~tick ~session ~action ~detail | None -> ());
    Spans.add spans ~kind:Spans.Supervise ~req:session ~parent:!cur_parent ~start:t0 (now ())
  in
  let on_tick ~tick =
    let t = now () in
    Spans.close spans !cur_tick t;
    live_sum := !live_sum + !running + !ended;
    ended := 0;
    incr ticks;
    cur_tick := Spans.open_ spans ~kind:Spans.Tick ~req:(tick + 1) ~parent:root t;
    cur_parent := !cur_tick
  in
  let arbitrations = ref 0 and arbitrate_ns = ref 0 and collisions = ref 0 and idles = ref 0 in
  let wrap_group (g : Engine.group) =
    {
      g with
      arbitrate =
        (fun ~tick ~report ->
          let t0 = now () in
          let span = Spans.open_ spans ~kind:Spans.Arbitrate ~req:tick ~parent:!cur_tick t0 in
          cur_parent := span;
          let collided = ref false and delivered = ref false in
          g.arbitrate ~tick ~report:(fun ~session ~action ~detail ->
              if action = "collide" then collided := true
              else if action = "deliver" then delivered := true;
              report ~session ~action ~detail);
          let t1 = now () in
          Spans.close spans span t1;
          cur_parent := !cur_tick;
          incr arbitrations;
          arbitrate_ns := !arbitrate_ns + (t1 - t0);
          if !collided then incr collisions else if not !delivered then incr idles);
    }
  in
  let t0 = now () in
  let report =
    Workload.run ~on_tick ~on_supervise ~groups:(List.map wrap_group) ~specs w
  in
  let t1 = now () in
  Spans.relabel spans !cur_tick Spans.Finish;
  Spans.close spans !cur_tick t1;
  check_report w report;
  if Array.fold_left ( + ) 0 steps <> report.total_rounds then
    fail "server steps (%d) disagree with the engine's round count (%d)"
      (Array.fold_left ( + ) 0 steps) report.total_rounds;
  let total = float_of_int (max 1 report.total_rounds) in
  ( w,
    {
      t_report = report;
      t_engine_ns = t1 - t0;
      spans;
      root;
      live_share_pct = pct (float_of_int !live_sum /. float_of_int (max 1 !ticks)) (float_of_int n);
      queued = !queued;
      shed = !shed;
      waits = Ints.floats waits;
      give_ups = !give_ups;
      restarts = !restarts;
      wasted_pct = pct (total -. float_of_int !winning) total;
      decisions = List.rev !decisions;
      arbitrations = !arbitrations;
      arbitrate_ns = !arbitrate_ns;
      collisions = !collisions;
      idles = !idles;
      evicted = (match w.ring with Some r -> Ring.evicted r | None -> 0);
    } )

(* Replay the recorded supervise stream into a fresh rollup. *)
let rollup_cost (w : Workload.t) decisions =
  let r = Rollup.create ~class_of:(fun id -> w.specs.(id).Engine.server_class) () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  List.iter (fun (tick, session, action, detail) -> Rollup.supervise r ~tick ~session ~action ~detail) decisions;
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let k = float_of_int (max 1 (List.length decisions)) in
  (float_of_int (t1 - t0) /. k, (w1 -. w0) /. k)

let per_layer ~(args : args) ~reps ~(probe : Probe.t) =
  let e2e = end_to_end reps in
  let first = List.hd reps in
  let base = first.report in
  let total_rounds = float_of_int (max 1 base.total_rounds) in
  let wall_ns = median (List.map (fun r -> float_of_int r.wall_ns) (timed reps)) in
  let total_ns = wall_ns /. total_rounds in
  let total_words = List.assoc "alloc_words_per_round" (List.map (fun (k, _, v) -> (k, v)) e2e) in
  let w, t = traced_run args.kind ~seed:args.seed in
  if t.t_report.digest <> base.digest then
    fail "the traced run served different outcomes (digest %s vs %s)" t.t_report.digest base.digest;
  let members = Hashtbl.create 16 in
  List.iter (fun (g : Engine.group) -> Array.iter (fun id -> Hashtbl.replace members id ()) g.members) w.groups;
  let rungs =
    Layers.replay t.spans ~root:t.root ~seed:args.seed ~chaos:w.chaos ~specs:w.specs
      ~excluded:(Hashtbl.mem members)
  in
  Spans.close t.spans t.root (now ());
  let s = Layers.split rungs in
  let ring_on = w.ring <> None in
  let rung_ns =
    s.exec_ns +. s.universal_ns +. s.judge_ns +. s.faults_ns +. if ring_on then s.ring_ns else 0.
  in
  let rung_words =
    s.exec_words +. s.universal_words +. s.judge_words +. s.faults_words
    +. if ring_on then s.ring_words else 0.
  in
  let engine_ns = total_ns -. rung_ns and engine_words = total_words -. rung_words in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b) in
  if not (close (rung_ns +. engine_ns) total_ns && close (rung_words +. engine_words) total_words)
  then fail "layer costs do not add up to the end-to-end total";
  let self, span_total = Spans.self_ns t.spans in
  if Array.fold_left ( + ) 0 self <> span_total then fail "span self times do not add up";
  (* jobs 2 must serve exactly what jobs 1 served. *)
  let j2 = untraced ~jobs:2 ~plant:Workload.No_plant args.kind ~seed:args.seed in
  if j2.report.digest <> base.digest then
    fail "jobs 2 digest %s differs from jobs 1 %s" j2.report.digest base.digest;
  let rollup_ns, rollup_words = rollup_cost w t.decisions in
  let done_ck =
    List.filteri (fun id _ -> match t.t_report.outcomes.(id) with Engine.Done _ -> true | _ -> false)
      (Array.to_list t.t_report.checkpoints)
  in
  let slots =
    match done_ck with
    | [] -> 0.
    | l ->
        float_of_int (List.fold_left (fun a c -> a + c.Goalcom.Universal.saved_slots) 0 l)
        /. float_of_int (List.length l)
  in
  let f = float_of_int in
  [
    ("exec.ns_per_round", "ns", s.exec_ns);
    ("exec.words_per_round", "words", s.exec_words);
    ("universal.ns_per_round", "ns", s.universal_ns);
    ("universal.words_per_round", "words", s.universal_words);
    ("universal.slots_per_session", "slots", slots);
    ("universal.overhead_pct", "%", pct (f rungs.ledger_wasted) (f rungs.ledger_total));
    ("referee.ns_per_round", "ns", s.judge_ns);
    ("referee.words_per_round", "words", s.judge_words);
    ("faults.ns_per_round", "ns", s.faults_ns);
    ("faults.words_per_round", "words", s.faults_words);
    ("engine.ns_per_round", "ns", engine_ns);
    ("engine.words_per_round", "words", engine_words);
    ("engine.live_share_pct", "%", t.live_share_pct);
    ("total.ns_per_round", "ns", total_ns);
    ("total.words_per_round", "words", total_words);
    ("admission.queued", "count", f t.queued);
    ("admission.shed", "count", f t.shed);
    ("admission.queue_wait_ticks_p50", "ticks", percentile 50. t.waits);
    ("admission.queue_wait_ticks_p99", "ticks", percentile 99. t.waits);
    ("breaker.trips", "count", f t.t_report.trips);
    ("policy.restarts", "count", f t.restarts);
    ("policy.give_ups", "count", f t.give_ups);
    ("policy.wasted_rounds_pct", "%", t.wasted_pct);
    ("rollup.ns_per_event", "ns", rollup_ns);
    ("rollup.words_per_event", "words", rollup_words);
    ("ring.ns_per_round", "ns", s.ring_ns);
    ("ring.words_per_round", "words", s.ring_words);
    ("ring.ns_per_event", "ns", f (rungs.ring.ns - rungs.faults.ns) /. f (max 1 rungs.ring_events));
    ("ring.bytes_per_event", "bytes", f rungs.ring_bytes /. f (max 1 rungs.ring_retained));
    ("ring.events_per_round", "count", f rungs.ring_events /. f (max 1 rungs.ring.rounds));
    ("ring.evicted", "count", f t.evicted);
    ("medium.us_per_arbitrate", "us", f t.arbitrate_ns /. 1e3 /. f (max 1 t.arbitrations));
    ("medium.collisions", "count", f t.collisions);
    ("medium.idles", "count", f t.idles);
    ("gc.minor_collections", "count", f first.gc_minor);
    ("gc.major_collections", "count", f first.gc_major);
    ("gc.promoted_words_per_round", "words", first.promoted /. total_rounds);
    ("pool.jobs2_vs_jobs1_pct", "%", pct (f j2.wall_ns) wall_ns);
    ("probe.mem_ms", "ms", probe_ms reps);
    ("probe.cpu_x2", "x", probe.cpu_x2);
    ("probe.alloc_x2", "x", probe.alloc_x2);
  ]
  @ List.mapi
      (fun i k -> (Printf.sprintf "span.%s.self_ms" (Spans.label k), "ms", ms self.(i)))
      Spans.all
  @ [
      ("span.total_ms", "ms", ms span_total);
      ("trace.overhead_pct", "%", pct (f t.t_engine_ns -. wall_ns) wall_ns);
    ],
    (w, t)

(* --- output ------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~attempted metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        if not (Float.is_finite v) then fail "metric %s is not finite" name;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}"
    attempted (String.concat ", " fields)

let probe_line (p : Probe.t) reps =
  Printf.sprintf "probe           mem_ms=%.2f (host factor %.3f) cpu_x2=%.2f alloc_x2=%.2f%s"
    (probe_ms reps) (host_factor reps) p.cpu_x2 p.alloc_x2
    (if Probe.parallel p then ""
     else " (no usable parallelism: wall-clock gains from extra domains cannot show here)")

(* The wall-clock figures before scaling by the host factor. *)
let raw_line reps =
  let med f = median (List.map f (timed reps)) in
  Printf.sprintf "unscaled        sessions_per_s=%.1f tick_ms_p50=%.3f tick_ms_p95=%.3f setup_s=%.4f"
    (med sessions_per_s)
    (med (fun r -> r.tick_p50_ms))
    (med (fun r -> r.tick_p95_ms))
    (median (List.concat_map (fun r -> List.map Clock.seconds r.setup_ns) (timed reps)))

let main args =
  let start = now () in
  let budget = int_of_float (args.seconds *. 1e9) in
  let name = Workload.name args.kind in
  if not args.trace then begin
    let reps = repeats ~plant:args.plant args.kind ~seed:args.seed ~until:(start + budget) in
    let metrics = end_to_end reps in
    let probe = Probe.run () in
    print_endline (probe_line probe reps);
    print_endline (raw_line reps);
    List.iter (fun (k, u, v) -> Printf.printf "%-22s %14.4f %s\n" k v u) metrics;
    Printf.printf "%s seed %d: %d repeats, digest %s\n" name args.seed (List.length reps)
      (List.hd reps).report.digest;
    print_endline (result_line ~attempted:(List.length reps) metrics)
  end
  else begin
    let reps =
      repeats ~plant:args.plant args.kind ~seed:args.seed ~until:(start + (budget / 2))
    in
    let probe = Probe.run () in
    let metrics, (_, t) = per_layer ~args ~reps ~probe in
    let dir = ".bench_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.jsonl" name args.seed) in
    Spans.write t.spans path;
    print_endline (probe_line probe reps);
    if not (Probe.parallel probe) then
      print_endline
        "notice          pool.jobs2_vs_jobs1_pct is reported only: the probe shows no \
         usable parallelism on this host";
    List.iter (fun (k, u, v) -> Printf.printf "%-34s %16.4f %s\n" k v u) metrics;
    Printf.printf "spans           %d written to %s\n" t.spans.Spans.n path;
    print_endline (result_line ~attempted:(List.length reps + 3) metrics)
  end

let () =
  match parse Sys.argv with
  | exception Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  | args -> (
      try main args with Check_failed msg ->
        Printf.eprintf "sessbench: check failed: %s\n" msg;
        exit 1)
