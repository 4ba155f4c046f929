open Goalcom

(* Profile exports: spans rendered to Chrome's trace-event JSON (open
   chrome://tracing or https://ui.perfetto.dev and load the file) and
   to CSV.  Traces carry no wall clock by design, so the timeline uses
   round numbers as deterministic logical time: one round = one
   microsecond tick, [ts] = first round, [dur] = rounds.  Runs map to
   threads (tid = 1-based run ordinal) of a single process. *)

let buf_add_json_str b s =
  Buffer.add_char b '"';
  Json.add_escaped b s;
  Buffer.add_char b '"'

let span_name (s : Span.span) =
  match s.Span.index with
  | None -> "uninstrumented"
  | Some i -> Printf.sprintf "candidate %d" i

let instant_name (ev : Trace.event) =
  match ev with
  | Trace.Switch { from_index; to_index; attempt; _ } ->
      if from_index = to_index then
        Some (Printf.sprintf "retry #%d (attempt %d)" to_index attempt)
      else Some (Printf.sprintf "switch #%d->#%d" from_index to_index)
  | Trace.Session { index; budget; _ } ->
      Some (Printf.sprintf "session #%d (budget %d)" index budget)
  | Trace.Resume { index; slots } ->
      Some (Printf.sprintf "resume #%d (%d slots)" index slots)
  | Trace.Fault { fault; _ } -> Some ("fault " ^ fault)
  | Trace.Halt _ -> Some "halt"
  | Trace.Violation _ -> Some "violation"
  | _ -> None

let event_round (ev : Trace.event) =
  match ev with
  | Trace.Switch { round; _ }
  | Trace.Session { round; _ }
  | Trace.Fault { round; _ }
  | Trace.Halt { round }
  | Trace.Violation { round } ->
      Some round
  | Trace.Resume _ -> Some 0
  | _ -> None

let add_record b ~first fmt =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b "    ";
  Printf.ksprintf (Buffer.add_string b) fmt

let chrome_of_events events =
  let segments = Trace.split_runs events in
  let runs = List.map Span.run_of_events segments in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  let first = ref true in
  add_record b ~first
    "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"goalcom\"}}";
  List.iteri
    (fun i (run : Span.run) ->
      let tid = i + 1 in
      let tname = Buffer.create 64 in
      buf_add_json_str tname
        (Printf.sprintf "run %d: %s | %s" tid run.Span.goal run.Span.user);
      add_record b ~first
        "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}"
        tid (Buffer.contents tname);
      List.iter
        (fun (s : Span.span) ->
          if s.Span.rounds > 0 then begin
            let name = Buffer.create 32 in
            buf_add_json_str name (span_name s);
            add_record b ~first
              "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":%s,\"cat\":\"span\",\"ts\":%d,\"dur\":%d,\"args\":{\"rounds\":%d,\"sessions\":%d,\"retries\":%d,\"user_msgs\":%d,\"server_msgs\":%d,\"world_msgs\":%d,\"wire_symbols\":%d,\"senses\":%d,\"negatives\":%d,\"faults\":%d,\"winner\":%b}}"
              tid (Buffer.contents name) s.Span.first_round
              (s.Span.last_round - s.Span.first_round + 1)
              s.Span.rounds s.Span.sessions s.Span.retries s.Span.user_msgs
              s.Span.server_msgs s.Span.world_msgs s.Span.wire_symbols
              s.Span.senses s.Span.negatives s.Span.faults
              (run.Span.winner <> None && s.Span.index = run.Span.winner)
          end)
        run.Span.spans)
    runs;
  (* Instant marks — enumeration moves, faults, halts — drawn from the
     raw events of each segment, on the matching thread. *)
  List.iteri
    (fun i segment ->
      let tid = i + 1 in
      List.iter
        (fun ev ->
          match (instant_name ev, event_round ev) with
          | Some label, Some round ->
              let name = Buffer.create 32 in
              buf_add_json_str name label;
              add_record b ~first
                "{\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"name\":%s,\"cat\":\"mark\",\"ts\":%d,\"s\":\"t\"}"
                tid (Buffer.contents name) round
          | _ -> ())
        segment)
    segments;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* CSV: one row per span, batch-wide.  Same quoting discipline as
   Table.to_csv. *)

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_of_events events =
  let runs = Span.of_events events in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "run,goal,user,index,first_round,last_round,rounds,sessions,retries,user_msgs,server_msgs,world_msgs,wire_symbols,senses,negatives,faults,winner\n";
  List.iteri
    (fun i (run : Span.run) ->
      List.iter
        (fun (s : Span.span) ->
          Printf.bprintf b "%d,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%b\n"
            (i + 1) (csv_cell run.Span.goal) (csv_cell run.Span.user)
            (match s.Span.index with None -> "" | Some i -> string_of_int i)
            s.Span.first_round s.Span.last_round s.Span.rounds s.Span.sessions
            s.Span.retries s.Span.user_msgs s.Span.server_msgs
            s.Span.world_msgs s.Span.wire_symbols s.Span.senses
            s.Span.negatives s.Span.faults
            (run.Span.winner <> None && s.Span.index = run.Span.winner))
        run.Span.spans)
    runs;
  Buffer.contents b
