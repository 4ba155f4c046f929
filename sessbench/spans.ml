(* In-memory spans for the traced run, recorded around calls into each
   layer from the benchmark's own code and written out when it ends.

   A span is (kind, request id, parent span, start, stop) in monotonic
   nanoseconds.  A kind's self time is the duration of its spans minus
   the part their child spans cover, so the self times of all kinds sum
   to the root span's duration exactly. *)

type kind =
  | Run  (** the whole traced workload: the root *)
  | Tick  (** one scheduler tick, between consecutive [on_tick] calls *)
  | Finish  (** the engine's work after its last tick: trace replay, report *)
  | Incarnation  (** one [make_user] call; request id = session id *)
  | Supervise  (** one [on_supervise] call *)
  | Arbitrate  (** one shared-medium group arbitration *)
  | Exec  (** the rung replays on the session sample *)
  | Universal
  | Judge
  | Faults
  | Ring

let all =
  [ Run; Tick; Finish; Incarnation; Supervise; Arbitrate; Exec; Universal; Judge; Faults; Ring ]

let index k =
  let rec go i = function
    | [] -> assert false
    | k' :: tl -> if k' = k then i else go (i + 1) tl
  in
  go 0 all

let label = function
  | Run -> "run"
  | Tick -> "tick"
  | Finish -> "finish"
  | Incarnation -> "incarnation"
  | Supervise -> "supervise"
  | Arbitrate -> "arbitrate"
  | Exec -> "exec"
  | Universal -> "universal"
  | Judge -> "judge"
  | Faults -> "faults"
  | Ring -> "ring"

type t = {
  mutable n : int;
  mutable kind : kind array;
  mutable req : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    kind = Array.make cap Run;
    req = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kind <- extend t.kind Run;
  t.req <- extend t.req 0;
  t.parent <- extend t.parent 0;
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0

(* Open a span starting at [start]; [close] sets its end.  [parent] is a
   span index, or -1 for the root. *)
let open_ t ~kind ?(req = -1) ~parent start =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.kind.(i) <- kind;
  t.req.(i) <- req;
  t.parent.(i) <- parent;
  t.start.(i) <- start;
  t.stop.(i) <- start;
  i

let close t i stop = t.stop.(i) <- stop
let relabel t i kind = t.kind.(i) <- kind

let add t ~kind ?req ~parent ~start stop =
  let i = open_ t ~kind ?req ~parent start in
  close t i stop

(* Self nanoseconds per kind, in [all] order, and the root's total. *)
let self_ns t =
  let self = Array.make (List.length all) 0 in
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) - t.start.(i) in
    let k = index t.kind.(i) in
    self.(k) <- self.(k) + d;
    let p = t.parent.(i) in
    if p >= 0 then begin
      let pk = index t.kind.(p) in
      self.(pk) <- self.(pk) - d
    end
    else total := !total + d
  done;
  (self, !total)

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = if t.n > 0 then t.start.(0) else 0 in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"span\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
          i t.parent.(i) (label t.kind.(i)) t.req.(i)
          (t.start.(i) - base) (t.stop.(i) - base)
      done)
