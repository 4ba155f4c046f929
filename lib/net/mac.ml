open Goalcom

let goal ~payload_alphabet doc =
  let scenario = Forward.scenario ~payload_alphabet doc in
  Goal.make
    ~name:(Printf.sprintf "net-mac(%d syms)" (List.length doc))
    ~worlds:[ Forward.world_of_scenario scenario ]
    ~referee:Forward.referee

(* A station never needs to frame ahead: the broadcast names the next
   missing symbol, the medium cannot corrupt or duplicate, and a lost
   (collided) frame just leaves the broadcast where it was — so the
   policy retransmits at its next scheduled round. *)
let policy ~period ~offset =
  if period < 1 || offset < 0 || offset >= period then
    invalid_arg "Mac.policy: need 0 <= offset < period";
  let transmit ~prefix:_ k sym =
    Io.User.say_server (Msg.Pair (Msg.Int k, Msg.Int sym))
  and hold ~prefix:_ _ _ = Io.User.silent in
  Strategy.stateless
    ~name:(Printf.sprintf "mac-policy(%d/%d)" offset period)
    (fun (obs : Io.User.obs) ->
      Forward.read_broadcast obs.from_world ~malformed:Io.User.silent
        ~complete:Io.User.halt_act ~beyond:Io.User.silent
        ~next:(if obs.round mod period = offset then transmit else hold))

let policy_class ?(shift = 0) ~max_period () =
  if max_period < 1 then invalid_arg "Mac.policy_class: empty class";
  let all =
    Array.of_list
      (List.concat_map
         (fun p -> List.init p (fun o -> (p, o)))
         (List.init max_period (fun i -> i + 1)))
  in
  let n = Array.length all in
  let shift = ((shift mod n) + n) mod n in
  Goalcom_automata.Enum.tabulate
    ~name:(Printf.sprintf "mac-policies(max_period=%d,shift=%d)" max_period shift)
    n
    (fun i ->
      let p, o = all.((i + shift) mod n) in
      policy ~period:p ~offset:o)

let sensing = Forward.sensing

let universal_user ?schedule ?checkpoint ?stats ?shift ~max_period () =
  Universal.finite ?schedule ?checkpoint ?stats
    ~enum:(policy_class ?shift ~max_period ())
    ~sensing ()
