open Goalcom_prelude

(* The bench record and the perf-regression gate.  Every benchmark part
   emits one list of records; the same list is written to the part's
   committed BENCH_*.json and, under `bench --check`, compared against
   that file, each record judged by the policy it carries.  The logic
   lives here so the test suite can exercise the gate (identical records
   pass, planted regressions fail) without running a benchmark.

   Default drift tolerance: relative metrics (names ending in "_pct",
   e.g. the tracing-overhead percentages) transfer across machines and
   get the tight default; absolute timings do not — CI hardware is not
   the hardware the baseline was measured on — so their default is
   deliberately loose and mostly guards against order-of-magnitude
   blowups.  A small absolute slack keeps near-zero percentages from
   tripping on ratio noise. *)

type policy =
  | Exact
  | Drift of { tol_pct : float; slack : float }
  | Ceiling of float
  | Info

type record = { name : string; value : float; policy : policy }

let record ?policy name value =
  let policy =
    match policy with
    | Some p -> p
    | None when String.ends_with ~suffix:"_pct" name ->
        Drift { tol_pct = 35.; slack = 10. }
    | None -> Drift { tol_pct = 300.; slack = 0. }
  in
  { name; value; policy }

let tolerance = function
  | Drift { tol_pct; slack } -> (tol_pct, slack)
  | Exact | Ceiling _ | Info -> (0., 0.)

type comparison = {
  metric : string;
  policy : policy;
  baseline : float option;
  fresh : float;
  regressed : bool;
}

(* A fresh value regresses when it exceeds the baseline by more than
   the relative tolerance AND by more than the absolute slack; lower is
   always better for every gated metric (times, overhead percentages,
   failure counts). *)
let judge ~tol_pct ~slack ~baseline ~fresh =
  fresh > baseline *. (1. +. (tol_pct /. 100.)) && fresh > baseline +. slack

let compare_records ~baseline records =
  List.filter_map
    (fun { name; value = fresh; policy } ->
      let against baseline =
        let tol_pct, slack = tolerance policy in
        let regressed =
          match baseline with
          | None -> true
          | Some baseline -> judge ~tol_pct ~slack ~baseline ~fresh
        in
        Some { metric = name; policy; baseline; fresh; regressed }
      in
      match policy with
      | Info -> None
      | Ceiling bound -> against (Some bound)
      | Exact | Drift _ -> against (List.assoc_opt name baseline))
    records

let regressions = List.filter (fun c -> c.regressed)
let missing c = c.baseline = None

(* The BENCH file shape:
   { ..header.., ..scalars.., "results": [ {"name": .., <fields>..}, .. ] }.
   Every numeric field of a results entry is the metric "<name>/<field>";
   top-level "*_pct" scalars come along under their own key. *)

let metrics_of_json j =
  let top =
    match j with
    | Json.Obj kvs ->
        List.filter_map
          (fun (k, v) ->
            match Json.number_opt v with
            | Some value when String.ends_with ~suffix:"_pct" k ->
                Some (k, value)
            | _ -> None)
          kvs
    | _ -> []
  in
  let results =
    match Json.member "results" j with
    | Some (Json.List entries) ->
        List.concat_map
          (fun entry ->
            match Json.member "name" entry with
            | Some (Json.String base) -> begin
                match entry with
                | Json.Obj kvs ->
                    List.filter_map
                      (fun (k, v) ->
                        if k = "name" then None
                        else
                          Option.map
                            (fun value -> (base ^ "/" ^ k, value))
                            (Json.number_opt v))
                      kvs
                | _ -> []
              end
            | _ -> [])
          entries
    | _ -> []
  in
  top @ results

let load_file path =
  match Json.of_file path with
  | Error e -> Error e
  | Ok j -> begin
      match metrics_of_json j with
      | [] -> Error (Printf.sprintf "%s: no gateable metrics found" path)
      | ms -> Ok ms
    end

(* The inverse of [metrics_of_json]: "<name>/<field>" records (split at
   the last '/') become results entries in order of first appearance,
   the rest top-level scalars after the header.  Integral values print
   as integers, as the counts always have. *)
let to_json header records =
  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
    else Json.Float v
  in
  let top, fields =
    List.partition_map
      (fun r ->
        match String.rindex_opt r.name '/' with
        | None -> Either.Left (r.name, number r.value)
        | Some i ->
            let n = String.length r.name in
            let field = String.sub r.name (i + 1) (n - i - 1) in
            Either.Right (String.sub r.name 0 i, (field, number r.value)))
      records
  in
  let names =
    List.rev
      (List.fold_left
         (fun acc (base, _) -> if List.mem base acc then acc else base :: acc)
         [] fields)
  in
  let entry base =
    let own (b, kv) = if b = base then Some kv else None in
    Json.Obj (("name", Json.String base) :: List.filter_map own fields)
  in
  Json.Obj (header @ top @ [ ("results", Json.List (List.map entry names)) ])

let write_file path header records =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (to_json header records));
      output_char oc '\n')

(* Rendering. *)

let policy_name = function
  | Exact -> "exact"
  | Drift _ -> "drift"
  | Ceiling _ -> "ceiling"
  | Info -> "info"

let table comparisons =
  let rows =
    List.map
      (fun c ->
        [
          c.metric;
          (match c.baseline with
          | Some b -> Printf.sprintf "%.3f" b
          | None -> "-");
          Printf.sprintf "%.3f" c.fresh;
          (match c.policy with
          | Drift { tol_pct; slack } -> Printf.sprintf "%.0f%% +%g" tol_pct slack
          | p -> policy_name p);
          (if missing c then "MISSING"
           else if c.regressed then "REGRESSED"
           else "ok");
        ])
      comparisons
  in
  Table.make ~title:"bench --check"
    ~columns:[ "metric"; "baseline"; "fresh"; "tol"; "status" ]
    rows

let verdict_json comparisons =
  let regs = regressions comparisons in
  let entry c =
    let tol_pct, slack = tolerance c.policy in
    Json.Obj
      [
        ("metric", Json.String c.metric);
        ("policy", Json.String (policy_name c.policy));
        ( "baseline",
          match c.baseline with Some b -> Json.Float b | None -> Json.Null );
        ("fresh", Json.Float c.fresh);
        ("tol_pct", Json.Float tol_pct);
        ("slack", Json.Float slack);
        ("regressed", Json.Bool c.regressed);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("verdict", Json.String (if regs = [] then "pass" else "fail"));
         ("compared", Json.Int (List.length comparisons));
         ("regressed", Json.Int (List.length regs));
         ("comparisons", Json.List (List.map entry comparisons));
       ])
