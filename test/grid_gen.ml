(* Random grids shared by the qcheck suites of test_properties and
   test_maze: 2..8 cells a side, up to a quarter of the cells blocked,
   (0, 0) always free. *)

open Goalcom_prelude

let grid =
  QCheck.map
    (fun (seed, w, h) ->
      let rng = Rng.make seed in
      let w = w + 2 and h = h + 2 in
      let blocked =
        List.filter_map
          (fun _ ->
            let p = (Rng.int rng w, Rng.int rng h) in
            if p = (0, 0) then None else Some p)
          (Listx.range 0 (w * h / 4))
      in
      Goalcom_goals.Grid.make ~width:w ~height:h ~blocked ())
    QCheck.(triple (int_bound 1_000_000) (int_bound 6) (int_bound 6))
