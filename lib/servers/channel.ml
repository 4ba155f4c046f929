open Goalcom
open Goalcom_prelude

(* A fixed-latency FIFO: push at the head, deliver from the tail once
   the queue holds more than [rounds] entries.  Queues stay tiny
   (length = latency), so plain lists are fine. *)
let push_pop ~rounds queue msg =
  let queue = msg :: queue in
  if List.length queue > rounds then begin
    let rec split acc = function
      | [] -> assert false
      | [ oldest ] -> (oldest, List.rev acc)
      | m :: rest -> split (m :: acc) rest
    in
    split [] queue
  end
  else (Msg.Silence, queue)

let delayed ~rounds base =
  if rounds < 0 then invalid_arg "Channel.delayed: negative latency";
  if rounds = 0 then base
  else begin
    let module I = Strategy.Instance in
    Strategy.make
      ~name:(Printf.sprintf "delayed(%d,%s)" rounds (Strategy.name base))
      ~init:(fun () -> (I.create base, [], []))
      ~step:(fun rng (inst, inbox, outbox) (obs : Io.Server.obs) ->
        let delivered_in, inbox = push_pop ~rounds inbox obs.from_user in
        let act = I.step rng inst { obs with Io.Server.from_user = delivered_in } in
        let delivered_out, outbox = push_pop ~rounds outbox act.Io.Server.to_user in
        ( (inst, inbox, outbox),
          { act with Io.Server.to_user = delivered_out } ))
  end

(* Randomness is drawn from the per-step [rng] (not a private stream
   fixed at construction), so separate trials and separate instances of
   the same wrapped strategy never share RNG state and replays with the
   same execution seed reproduce the same losses. *)
let drop_inbound ~drop_prob base =
  if not (drop_prob >= 0. && drop_prob <= 1.) then
    invalid_arg "Channel.drop_inbound: drop_prob out of range";
  let module I = Strategy.Instance in
  Strategy.make
    ~name:(Printf.sprintf "drop-in(%.2f,%s)" drop_prob (Strategy.name base))
    ~init:(fun () -> I.create base)
    ~step:(fun rng inst (obs : Io.Server.obs) ->
      let obs =
        if
          (not (Msg.is_silence obs.Io.Server.from_user))
          && Rng.bernoulli rng drop_prob
        then { obs with Io.Server.from_user = Msg.Silence }
        else obs
      in
      (inst, I.step rng inst obs))

let duplicate_outbound base =
  let module I = Strategy.Instance in
  Strategy.make
    ~name:(Printf.sprintf "dup-out(%s)" (Strategy.name base))
    ~init:(fun () -> (I.create base, []))
    ~step:(fun rng (inst, pending) obs ->
      let act = I.step rng inst obs in
      let out = act.Io.Server.to_user in
      if Msg.is_silence out then
        (* Deliver the oldest pending duplicate, if any. *)
        match pending with
        | [] -> ((inst, []), act)
        | d :: rest -> ((inst, rest), { act with Io.Server.to_user = d })
      else
        (* Queue the duplicate (never overwrite): back-to-back emissions
           each get their echo once the link next falls silent. *)
        ((inst, pending @ [ out ]), act))
