open Goalcom

(* All cross-port state lives here; port [i]'s strategy reads and
   writes index [i] only, so concurrent port steps never race.  The
   slot boundary is resolve(), which the session engine calls on the
   supervising domain — see the .mli determinism note. *)
type t = {
  n : int;
  staged : (int * int) option array; (* this slot's attempt per port *)
  feedback : int array; (* 0 quiet, 1 delivered, 2 collided *)
  outbox : (int * int) option array; (* granted frame, pending world delivery *)
  delivered_by : int array;
  mutable slots : int;
  mutable successes : int;
  mutable collisions : int;
  mutable idles : int;
}

let create ~ports =
  if ports < 1 then invalid_arg "Medium.create: need at least one port";
  {
    n = ports;
    staged = Array.make ports None;
    feedback = Array.make ports 0;
    outbox = Array.make ports None;
    delivered_by = Array.make ports 0;
    slots = 0;
    successes = 0;
    collisions = 0;
    idles = 0;
  }

let ports t = t.n

let port t i =
  if i < 0 || i >= t.n then invalid_arg "Medium.port: port out of range";
  Strategy.make
    ~name:(Printf.sprintf "medium-port(%d)" i)
    ~init:(fun () ->
      (* A fresh incarnation starts from a quiet port: whatever a dead
         predecessor staged or was owed is gone. *)
      t.staged.(i) <- None;
      t.feedback.(i) <- 0;
      t.outbox.(i) <- None)
    ~step:(fun _rng () (obs : Io.Server.obs) ->
      let fb = t.feedback.(i) in
      t.feedback.(i) <- 0;
      let out = t.outbox.(i) in
      t.outbox.(i) <- None;
      (match obs.from_user with
      | Msg.Pair (Msg.Int seq, Msg.Int sym) when seq >= 0 ->
          if t.staged.(i) = None then t.staged.(i) <- Some (seq, sym)
      | _ -> ());
      ( (),
        {
          Io.Server.to_user = Msg.Sym fb;
          to_world =
            (match out with
            | Some (seq, sym) -> Msg.Pair (Msg.Int seq, Msg.Int sym)
            | None -> Msg.Silence);
        } ))

(* One pass counts the staged ports and finds the first; only a
   collision walks [staged] again, to flag every loser in port order.
   Details are formatted only when a [report] reads them. *)
let resolve ?report t =
  let count = ref 0 and first = ref 0 in
  for i = t.n - 1 downto 0 do
    if Option.is_some t.staged.(i) then begin
      first := i;
      incr count
    end
  done;
  (match !count with
  | 0 -> t.idles <- t.idles + 1
  | 1 -> (
      let i = !first in
      t.successes <- t.successes + 1;
      t.delivered_by.(i) <- t.delivered_by.(i) + 1;
      t.outbox.(i) <- t.staged.(i);
      t.feedback.(i) <- 1;
      match (report, t.staged.(i)) with
      | Some f, Some (seq, _) ->
          f ~port:i ~action:"deliver"
            ~detail:(Printf.sprintf "slot=%d seq=%d" t.slots seq)
      | _ -> ())
  | k ->
      t.collisions <- t.collisions + 1;
      for i = !first to t.n - 1 do
        if Option.is_some t.staged.(i) then begin
          t.feedback.(i) <- 2;
          match report with
          | Some f ->
              f ~port:i ~action:"collide"
                ~detail:(Printf.sprintf "slot=%d %d-way" t.slots k)
          | None -> ()
        end
      done);
  Array.fill t.staged 0 t.n None;
  t.slots <- t.slots + 1

let slots t = t.slots
let successes t = t.successes
let collisions t = t.collisions
let idles t = t.idles

let delivered t i =
  if i < 0 || i >= t.n then invalid_arg "Medium.delivered: port out of range";
  t.delivered_by.(i)
