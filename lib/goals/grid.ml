type t = {
  width : int;
  height : int;
  blocked : (int * int) list;
  free : string;
}

type pos = int * int

let in_bounds t (x, y) = x >= 0 && x < t.width && y >= 0 && y < t.height

let is_free t ((x, y) as p) =
  in_bounds t p && String.unsafe_get t.free ((y * t.width) + x) = '\001'

let make ~width ~height ?(blocked = []) () =
  if width <= 0 || height <= 0 then
    invalid_arg "Grid.make: non-positive dimensions";
  let cells = Bytes.make (width * height) '\001' in
  List.iter
    (fun (x, y) ->
      if not (x >= 0 && x < width && y >= 0 && y < height) then
        invalid_arg "Grid.make: blocked cell out of bounds";
      Bytes.set cells ((y * width) + x) '\000')
    blocked;
  { width; height; blocked; free = Bytes.to_string cells }

let north = 0
let east = 1
let south = 2
let west = 3
let num_directions = 4

let step_dir (x, y) dir =
  match dir with
  | 0 -> (x, y - 1)
  | 1 -> (x + 1, y)
  | 2 -> (x, y + 1)
  | 3 -> (x - 1, y)
  | _ -> invalid_arg "Grid.step_dir: unknown direction"

let move t p dir =
  let p' = step_dir p dir in
  if is_free t p' then p' else p

let manhattan (x1, y1) (x2, y2) = abs (x1 - x2) + abs (y1 - y2)

let bfs_path t src dst =
  if not (is_free t src) then invalid_arg "Grid.bfs_path: bad source";
  if not (is_free t dst) then invalid_arg "Grid.bfs_path: bad destination";
  if src = dst then Some []
  else begin
    let parent = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.add parent src (src, -1);
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let p = Queue.pop queue in
      let rec try_dirs dir =
        if dir >= num_directions || !found then ()
        else begin
          let p' = step_dir p dir in
          if is_free t p' && not (Hashtbl.mem parent p') then begin
            Hashtbl.add parent p' (p, dir);
            if p' = dst then found := true else Queue.add p' queue
          end;
          try_dirs (dir + 1)
        end
      in
      try_dirs 0
    done;
    if not !found then None
    else begin
      let rec backtrack p acc =
        let prev, dir = Hashtbl.find parent p in
        if dir = -1 then acc else backtrack prev (dir :: acc)
      in
      Some (backtrack dst [])
    end
  end
