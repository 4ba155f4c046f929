open Goalcom_prelude

type 'a t = { name : string; card : int option; get : int -> 'a option }

let make ~name ?card get =
  let get i =
    if i < 0 then None
    else begin
      match card with
      | Some c when i >= c -> None
      | _ -> get i
    end
  in
  { name; card; get }

let name t = t.name
let cardinality t = t.card
let get t i = t.get i

let get_exn t i =
  match t.get i with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Enum.get_exn (%s): index %d out of range" t.name i)

let of_list ~name xs =
  let arr = Array.of_list xs in
  make ~name ~card:(Array.length arr) (fun i ->
      if i < Array.length arr then Some arr.(i) else None)

let map ?name f t =
  let name = match name with Some n -> n | None -> t.name ^ "/mapped" in
  { name; card = t.card; get = (fun i -> Option.map f (t.get i)) }

let append a b =
  match a.card with
  | None -> invalid_arg "Enum.append: first enumeration must be finite"
  | Some ca ->
      let card =
        match b.card with
        | Some cb when ca <= max_int - cb -> Some (ca + cb)
        (* Overflow: reporting [Some max_int] would silently misstate
           the cardinality (and make wrap-around indexing truncate the
           class); [None] says "too many to count" honestly. *)
        | Some _ -> None
        | None -> None
      in
      make ~name:(a.name ^ "++" ^ b.name) ?card (fun i ->
          if i < ca then a.get i else b.get (i - ca))

let interleave a b =
  let card =
    match (a.card, b.card) with
    | Some ca, Some cb -> Some (ca + cb)
    | _ -> None
  in
  (* Alternate strictly while both sides have elements; once the
     shorter side is exhausted the longer side's leftover follows
     sequentially (no element is repeated or skipped). *)
  let zipped i = if i mod 2 = 0 then a.get (i / 2) else b.get (i / 2) in
  let get i =
    match (a.card, b.card) with
    | None, None -> zipped i
    | Some ca, Some cb ->
        let m = min ca cb in
        if i < 2 * m then zipped i
        else if ca <= cb then b.get (i - ca)
        else a.get (i - cb)
    | Some ca, None -> if i < 2 * ca then zipped i else b.get (i - ca)
    | None, Some cb -> if i < 2 * cb then zipped i else a.get (i - cb)
  in
  make ~name:(a.name ^ "~" ^ b.name) ?card get

let product a b =
  match (a.card, b.card) with
  | Some ca, Some cb ->
      make ~name:(a.name ^ "x" ^ b.name) ~card:(ca * cb) (fun i ->
          match (a.get (i / cb), b.get (i mod cb)) with
          | Some x, Some y -> Some (x, y)
          | _ -> None)
  | _ ->
      (* Cantor diagonal; only correct when both sides are infinite, so
         pad finite sides by cycling (documented as diagonalisation). *)
      let wrap t i =
        match t.card with
        | Some c when c > 0 -> t.get (i mod c)
        | _ -> t.get i
      in
      make ~name:(a.name ^ "x" ^ b.name) (fun i ->
          let x, y = Coding.unpair i in
          match (wrap a x, wrap b y) with
          | Some x, Some y -> Some (x, y)
          | _ -> None)

let to_list t =
  match t.card with
  | None -> invalid_arg "Enum.to_list: infinite enumeration"
  | Some c -> List.filter_map t.get (Listx.range 0 c)

let filter_finite p t =
  match t.card with
  | None -> invalid_arg "Enum.filter_finite: infinite enumeration"
  | Some _ -> of_list ~name:(t.name ^ "/filtered") (List.filter p (to_list t))

let take n t = List.filter_map t.get (Listx.range 0 n)

let find_index ?(limit = 10_000) p t =
  let stop =
    match t.card with Some c -> min c limit | None -> limit
  in
  let rec go i =
    if i >= stop then None
    else begin
      match t.get i with
      | None -> None
      | Some v -> if p v then Some i else go (i + 1)
    end
  in
  go 0

let tabulate ~name n f =
  make ~name ~card:n (fun i -> if i < n then Some (f i) else None)

let naturals = make ~name:"naturals" (fun i -> Some i)
