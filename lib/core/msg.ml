type t =
  | Silence
  | Sym of int
  | Int of int
  | Text of string
  | Pair of t * t
  | Seq of t list

(* Monomorphic structural equality/ordering.  [Msg.equal] runs on every
   [is_silence] and trace guard in the round loop, and the wedge
   detector compares consecutive world observations each round;
   dispatching on known constructors avoids the polymorphic-compare
   runtime's tag walk.  [compare] keeps exactly the order
   [Stdlib.compare] gave this type (constant constructor first, then
   declaration order), so any existing sort stays stable.  Physical
   equality short-cuts [equal]: a [t] holds no floats, so [a == b]
   implies structural equality, and worlds that hand out one shared
   broadcast per state make the wedge detector's per-round comparison
   O(1). *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Silence, Silence -> true
  | Sym a, Sym b | Int a, Int b -> Int.equal a b
  | Text a, Text b -> String.equal a b
  | Pair (a1, a2), Pair (b1, b2) -> equal a1 b1 && equal a2 b2
  | Seq a, Seq b -> equal_list a b
  | (Silence | Sym _ | Int _ | Text _ | Pair _ | Seq _), _ -> false

and equal_list a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> equal x y && equal_list xs ys
  | ([] | _ :: _), _ -> false

let tag = function
  | Silence -> 0
  | Sym _ -> 1
  | Int _ -> 2
  | Text _ -> 3
  | Pair _ -> 4
  | Seq _ -> 5

let rec compare a b =
  match (a, b) with
  | Silence, Silence -> 0
  | Sym a, Sym b | Int a, Int b -> Int.compare a b
  | Text a, Text b -> String.compare a b
  | Pair (a1, a2), Pair (b1, b2) ->
      let c = compare a1 b1 in
      if c <> 0 then c else compare a2 b2
  | Seq a, Seq b -> compare_list a b
  | _ -> Int.compare (tag a) (tag b)

and compare_list a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = compare x y in
      if c <> 0 then c else compare_list xs ys

let is_silence = function Silence -> true | _ -> false

let rec pp ppf = function
  | Silence -> Format.pp_print_string ppf "_"
  | Sym s -> Format.fprintf ppf "#%d" s
  | Int n -> Format.fprintf ppf "%d" n
  | Text s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "(%a,%a)" pp a pp b
  | Seq ms ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
           pp)
        ms

(* [add_buffer] renders the same grammar as [pp] straight into a
   buffer: no formatter, no intermediate strings.  The two must agree
   byte for byte — [of_string] below and the trace serialisers rely on
   this rendering.  (%S and [String.escaped] produce identical
   escapes.) *)
let rec add_buffer b = function
  | Silence -> Buffer.add_char b '_'
  | Sym s ->
      Buffer.add_char b '#';
      Buffer.add_string b (string_of_int s)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Text s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Pair (x, y) ->
      Buffer.add_char b '(';
      add_buffer b x;
      Buffer.add_char b ',';
      add_buffer b y;
      Buffer.add_char b ')'
  | Seq ms ->
      Buffer.add_char b '[';
      List.iteri
        (fun i m ->
          if i > 0 then Buffer.add_char b ';';
          add_buffer b m)
        ms;
      Buffer.add_char b ']'

let to_string m =
  let b = Buffer.create 32 in
  add_buffer b m;
  Buffer.contents b

(* Inverse of [to_string].  The grammar is unambiguous by first
   character: '_' silence, '#' symbol, '-'/digit integer, '"' an
   OCaml-escaped text literal (what %S prints), '(' pair, '[' seq. *)

exception Parse of string

let of_string s =
  let n = String.length s in
  let fail pos msg = raise (Parse (Printf.sprintf "%s at offset %d" msg pos)) in
  let peek pos = if pos < n then Some s.[pos] else None in
  let expect pos c =
    match peek pos with
    | Some c' when c' = c -> pos + 1
    | _ -> fail pos (Printf.sprintf "expected %C" c)
  in
  let parse_int pos =
    let start = pos in
    let pos = if peek pos = Some '-' then pos + 1 else pos in
    let stop = ref pos in
    while !stop < n && s.[!stop] >= '0' && s.[!stop] <= '9' do incr stop done;
    if !stop = pos then fail pos "expected digits";
    match int_of_string_opt (String.sub s start (!stop - start)) with
    | Some v -> (v, !stop)
    | None -> fail start "integer out of range"
  in
  (* OCaml string-literal escapes, as produced by String.escaped /
     printf %S: backslash-escaped backslash, quote, n, t, r, b, and
     backslash followed by three decimal digits. *)
  let parse_text pos =
    let b = Buffer.create 16 in
    let rec go pos =
      match peek pos with
      | None -> fail pos "unterminated string"
      | Some '"' -> (Buffer.contents b, pos + 1)
      | Some '\\' -> begin
          match peek (pos + 1) with
          | Some '\\' -> Buffer.add_char b '\\'; go (pos + 2)
          | Some '"' -> Buffer.add_char b '"'; go (pos + 2)
          | Some 'n' -> Buffer.add_char b '\n'; go (pos + 2)
          | Some 't' -> Buffer.add_char b '\t'; go (pos + 2)
          | Some 'r' -> Buffer.add_char b '\r'; go (pos + 2)
          | Some 'b' -> Buffer.add_char b '\b'; go (pos + 2)
          | Some c when c >= '0' && c <= '9' ->
              if pos + 3 >= n then fail pos "truncated decimal escape";
              let code =
                try int_of_string (String.sub s (pos + 1) 3)
                with _ -> fail pos "bad decimal escape"
              in
              if code > 255 then fail pos "decimal escape out of range";
              Buffer.add_char b (Char.chr code);
              go (pos + 4)
          | _ -> fail pos "unknown escape"
        end
      | Some c -> Buffer.add_char b c; go (pos + 1)
    in
    go pos
  in
  let rec parse_msg pos =
    match peek pos with
    | None -> fail pos "empty message"
    | Some '_' -> (Silence, pos + 1)
    | Some '#' ->
        let v, pos = parse_int (pos + 1) in
        (Sym v, pos)
    | Some ('-' | '0' .. '9') ->
        let v, pos = parse_int pos in
        (Int v, pos)
    | Some '"' ->
        let v, pos = parse_text (pos + 1) in
        (Text v, pos)
    | Some '(' ->
        let a, pos = parse_msg (pos + 1) in
        let pos = expect pos ',' in
        let b, pos = parse_msg pos in
        (Pair (a, b), expect pos ')')
    | Some '[' ->
        if peek (pos + 1) = Some ']' then (Seq [], pos + 2)
        else begin
          let rec items acc pos =
            let m, pos = parse_msg pos in
            match peek pos with
            | Some ';' -> items (m :: acc) (pos + 1)
            | Some ']' -> (Seq (List.rev (m :: acc)), pos + 1)
            | _ -> fail pos "expected ';' or ']'"
          in
          items [] (pos + 1)
        end
    | Some c -> fail pos (Printf.sprintf "unexpected %C" c)
  in
  match parse_msg 0 with
  | m, pos when pos = n -> Ok m
  | _, pos -> Error (Printf.sprintf "trailing input at offset %d in %S" pos s)
  | exception Parse msg -> Error (Printf.sprintf "%s in %S" msg s)

let sym_opt = function Sym s -> Some s | _ -> None
let int_opt = function Int n -> Some n | _ -> None
let text_opt = function Text s -> Some s | _ -> None

let seq_of_string s =
  Seq (List.map (fun c -> Int (Char.code c)) (List.init (String.length s) (String.get s)))

let string_of_seq = function
  | Seq ms ->
      let rec go acc = function
        | [] -> Some (String.concat "" (List.rev acc))
        | Int c :: rest when c >= 0 && c < 256 ->
            go (String.make 1 (Char.chr c) :: acc) rest
        | _ -> None
      in
      go [] ms
  | _ -> None
