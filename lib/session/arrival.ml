open Goalcom_prelude

(* Deterministic arrival-rate processes.

   The engine draws "how many sessions arrive this tick" from one of
   these processes, using a dedicated RNG stream split from the run
   seed *after* every per-session stream — so runs that use [Bang] or
   [Constant] (which consume no randomness) keep the exact digests
   they had before arrival processes existed.

   Everything here must be bit-identical across hosts.  The Poisson
   sampler therefore avoids libm: [exp_neg] is computed with IEEE
   basic operations only (argument halving + a Taylor tail + repeated
   squaring), which every conforming platform rounds identically. *)

type t =
  | Bang
  | Constant of int
  | Poisson of float
  | Mmpp of { rates : float array; switch : float }

type state = { mutable regime : int }

let start _ = { regime = 0 }

(* e^{-x} for x >= 0 without libm: halve x until <= 0.5, sum the
   alternating Taylor series (21 terms bounds the error far below one
   ulp at |y| <= 0.5), then square back up. *)
let exp_neg x =
  if x <= 0. then 1.
  else begin
    let y = ref x and k = ref 0 in
    while !y > 0.5 do
      y := !y /. 2.;
      incr k
    done;
    let term = ref 1. and sum = ref 1. in
    for i = 1 to 20 do
      term := !term *. -. !y /. float_of_int i;
      sum := !sum +. !term
    done;
    let r = ref !sum in
    for _ = 1 to !k do
      r := !r *. !r
    done;
    !r
  end

let max_rate = 1e6

(* Knuth's product-of-uniforms sampler, for one chunk of rate <= 16:
   exp(-lambda) underflows past lambda ~ 745. *)
let poisson_chunk rng lambda =
  let l = exp_neg lambda in
  let k = ref 0 and p = ref 1. in
  let continue = ref true in
  while !continue do
    p := !p *. Rng.float rng 1.;
    if !p <= l then continue := false else incr k
  done;
  !k

(* Poisson is additive, so a larger rate is sampled as a sum of
   independent chunks from the same stream, in a fixed order: first the
   remainder [lambda - 16m] in (0, 16], then [m] chunks of 16.  (The
   order a recursive [poisson 16. + poisson (lambda -. 16.)] drew them
   in; below [max_rate] every [lambda -. 16.] there is exact, so the
   remainder is computed directly.)  Sampling stops once the batch
   reaches [cap]: the caller clamps it to [cap] anyway. *)
let poisson rng lambda ~cap =
  if lambda <= 0. || cap <= 0 then 0
  else if lambda <= 16. then poisson_chunk rng lambda
  else begin
    let m = Float.to_int (Float.ceil (lambda /. 16.)) - 1 in
    let n = ref (poisson_chunk rng (lambda -. (16. *. Float.of_int m))) in
    let left = ref m in
    while !left > 0 && !n < cap do
      n := !n + poisson_chunk rng 16.;
      decr left
    done;
    !n
  end

let draw t state ~rng ~tick ~remaining =
  let n =
    match t with
    | Bang -> if tick = 1 then remaining else 0
    | Constant k -> k
    | Poisson rate -> poisson rng rate ~cap:remaining
    | Mmpp { rates; switch } ->
        (* Geometric dwell times: each tick, first decide whether to
           advance to the next regime (cyclically), then sample at the
           current regime's rate.  Both draws happen every tick, so
           the stream layout does not depend on past outcomes. *)
        let hop = Rng.bernoulli rng switch in
        if hop then state.regime <- (state.regime + 1) mod Array.length rates;
        poisson rng rates.(state.regime) ~cap:remaining
  in
  min n remaining

let to_string = function
  | Bang -> "bang"
  | Constant k -> string_of_int k
  | Poisson r -> Printf.sprintf "poisson:%g" r
  | Mmpp { rates; switch } ->
      Printf.sprintf "mmpp:%s:%g"
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%g") rates)))
        switch

let of_string s =
  let s = String.trim s in
  let float_arg name v =
    match float_of_string_opt v with
    | Some f when f > max_rate ->
        Error
          (Printf.sprintf "Arrival.of_string: %s rate %S above the cap of %g \
                           per tick" name v max_rate)
    | Some f when f >= 0. && Float.is_finite f -> Ok f
    | _ -> Error (Printf.sprintf "Arrival.of_string: bad %s rate %S" name v)
  in
  match String.lowercase_ascii s with
  | "bang" | "all" -> Ok Bang
  | low -> (
      match int_of_string_opt s with
      | Some k when k >= 0 -> Ok (if k = 0 then Bang else Constant k)
      | Some _ -> Error "Arrival.of_string: negative constant rate"
      | None -> (
          match String.split_on_char ':' low with
          | [ "constant"; v ] -> (
              match int_of_string_opt v with
              | Some k when k >= 0 -> Ok (if k = 0 then Bang else Constant k)
              | _ ->
                  Error
                    (Printf.sprintf "Arrival.of_string: bad constant rate %S" v))
          | [ "poisson"; v ] ->
              Result.map (fun r -> Poisson r) (float_arg "poisson" v)
          | "mmpp" :: rates :: rest -> (
              let switch =
                match rest with
                | [] -> Ok 0.1
                | [ v ] -> (
                    match float_of_string_opt v with
                    | Some p when p >= 0. && p <= 1. -> Ok p
                    | _ ->
                        Error
                          (Printf.sprintf
                             "Arrival.of_string: mmpp switch probability %S \
                              not in [0,1]"
                             v))
                | _ -> Error "Arrival.of_string: too many ':' in mmpp spec"
              in
              match switch with
              | Error _ as e -> e
              | Ok switch -> (
                  let parts = String.split_on_char ',' rates in
                  let rec go acc = function
                    | [] -> Ok (List.rev acc)
                    | v :: rest -> (
                        match float_arg "mmpp" v with
                        | Ok r -> go (r :: acc) rest
                        | Error _ as e -> e)
                  in
                  match go [] parts with
                  | Error _ as e -> e
                  | Ok [] | Ok [ _ ] ->
                      Error "Arrival.of_string: mmpp wants >= 2 rates"
                  | Ok rs -> Ok (Mmpp { rates = Array.of_list rs; switch })))
          | _ ->
              Error
                (Printf.sprintf
                   "Arrival.of_string: %S (want bang | N | constant:N | \
                    poisson:R | mmpp:R1,R2,..[:P])"
                   s)))
