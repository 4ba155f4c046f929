(* Host-capability probes.

   [mem_ms] times a fixed run of random reads over 64 MiB, far
   larger than any cache: it reads how fast this host's memory system is
   right now.  Other tenants of a shared host slow it and the session
   engine together, so the benchmark scales its wall-clock metrics by
   it.  On a 2-vCPU cloud host, a 1.6x slower storm came with a 1.45x
   slower probe while a CPU-bound loop moved 7%; over eight net runs
   the engine's wall time spread 16% and its ratio to the probe 5%.  The table lives outside the OCaml heap and
   does not count towards [peak_heap_mb].

   How much of a second domain this host delivers:

   [cpu_x2] and [alloc_x2] are (two units of work run back to back on
   one domain) / (the same two units on two domains at once), for a
   CPU-bound loop and for an allocating loop.  2.0 is a perfect second
   core; about 1.0 or below means a jobs-2 speed-up cannot show here.
   OCaml 5 minor collections stop every domain, so the allocating
   figure is usually the lower one. *)

let now = Clock.now

let table_bits = 23

let table = lazy (Bigarray.(Array1.init int c_layout (1 lsl table_bits) (fun i -> i)))

let mem_once () =
  let t = Lazy.force table in
  let mask = (1 lsl table_bits) - 1 in
  let x = ref 12345 and acc = ref 0 in
  let t0 = now () in
  for _ = 1 to 3_000_000 do
    x := ((!x * 1103515245) + 12345) land mask;
    acc := !acc + Bigarray.Array1.unsafe_get t !x
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now () - t0) *. 1e-6

(* Median of three: one probe reading in milliseconds. *)
let mem_ms () =
  match List.sort compare [ mem_once (); mem_once (); mem_once () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

(* The [mem_ms] reading wall-clock metrics are scaled to, near a quiet
   moment of that host. *)
let mem_reference_ms = 25.

let cpu_unit () =
  let acc = ref 0 in
  for i = 1 to 40_000_000 do
    acc := (!acc * 31) + i
  done;
  Sys.opaque_identity !acc

let alloc_unit () =
  let acc = ref [] in
  for i = 1 to 4_000_000 do
    acc := [ i; i ];
    ignore (Sys.opaque_identity !acc)
  done;
  List.length !acc

let x2 work =
  let t0 = now () in
  ignore (work ());
  ignore (work ());
  let t1 = now () in
  let d = Domain.spawn work in
  ignore (work ());
  ignore (Domain.join d);
  let t2 = now () in
  float_of_int (t1 - t0) /. float_of_int (max 1 (t2 - t1))

type t = { cpu_x2 : float; alloc_x2 : float }  (** see [x2] *)

let run () = { cpu_x2 = x2 cpu_unit; alloc_x2 = x2 alloc_unit }

(* Below this, the host shows no usable parallelism. *)
let parallel_threshold = 1.3
let parallel p = p.cpu_x2 >= parallel_threshold && p.alloc_x2 >= parallel_threshold
