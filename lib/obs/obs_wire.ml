let marker = "telemetry"
let max_events = 5000

(* ------------------------------------------------------------- export *)

let rec buf_span b (t : Obs.span_tree) =
  Buffer.add_string b "{\"name\":";
  Obs_json.add_quoted b t.Obs.span_name;
  Buffer.add_string b
    (Printf.sprintf ",\"calls\":%d,\"wall_s\":%.9f,\"children\":[" t.Obs.calls
       t.Obs.wall_s);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      buf_span b c)
    t.Obs.children;
  Buffer.add_string b "]}"

let export_line () =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "{\"%s\":1,\"epoch\":%.17g,\"counters\":{" marker
       (Obs.epoch ()));
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Obs_json.add_quoted b name;
      Buffer.add_string b (Printf.sprintf ":%d" v))
    (Obs.counters ());
  Buffer.add_string b "},\"gauges\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Obs_json.add_quoted b name;
      Buffer.add_string b (Printf.sprintf ":%.17g" v))
    (Obs.gauges ());
  Buffer.add_string b "},\"histograms\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char b ',';
      Obs_json.add_quoted b name;
      Buffer.add_char b ':';
      Histogram.to_json_buf b h)
    (Obs.histograms ());
  Buffer.add_string b "},\"spans\":[";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char b ',';
      buf_span b t)
    (Obs.snapshot_spans ());
  Buffer.add_string b "],\"events\":[";
  let evs = Obs.snapshot_events () in
  let n = List.length evs in
  (* keep the newest slices when a worker somehow records a flood *)
  let evs =
    if n <= max_events then evs
    else
      List.filteri (fun i _ -> i >= n - max_events) evs
  in
  List.iteri
    (fun i (name, ts, dur) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      Obs_json.add_quoted b name;
      Buffer.add_string b (Printf.sprintf ",%.3f,%.3f]" ts dur))
    evs;
  Buffer.add_string b "]}";
  Buffer.contents b

let looks_like line =
  let prefix = Printf.sprintf "{\"%s\":" marker in
  String.length line >= String.length prefix
  && String.sub line 0 (String.length prefix) = prefix

(* ------------------------------------------------------------- ingest *)

exception Bad

let obj_fields = function Obs_json.Obj kvs -> kvs | _ -> raise Bad
let num = function Obs_json.Num v -> v | _ -> raise Bad
let str = function Obs_json.Str s -> s | _ -> raise Bad
let int j = int_of_float (num j)

let field k j = match Obs_json.member k j with Some v -> v | None -> raise Bad

let rec span_of_json j =
  {
    Obs.span_name = str (field "name" j);
    calls = int (field "calls" j);
    wall_s = num (field "wall_s" j);
    children =
      (match field "children" j with
       | Obs_json.List cs -> List.map span_of_json cs
       | _ -> raise Bad);
  }

let ingest_line ~key ~track line =
  if not (looks_like line) then false
  else
    match Obs_json.parse line with
    | exception Obs_json.Parse_error _ -> false
    | j -> (
      match
        (* parse and validate everything before mutating any state, so
           a torn line from a killed worker is dropped whole *)
        let epoch_remote = num (field "epoch" j) in
        let counters =
          List.map (fun (k, v) -> (k, int v)) (obj_fields (field "counters" j))
        in
        let gauges =
          List.map (fun (k, v) -> (k, num v)) (obj_fields (field "gauges" j))
        in
        let hists =
          List.map
            (fun (k, v) ->
              match Histogram.of_json v with
              | Some h -> (k, h)
              | None -> raise Bad)
            (obj_fields (field "histograms" j))
        in
        let spans =
          match field "spans" j with
          | Obs_json.List ss -> List.map span_of_json ss
          | _ -> raise Bad
        in
        let events =
          match field "events" j with
          | Obs_json.List es ->
            List.map
              (fun e ->
                match e with
                | Obs_json.List [ name; ts; dur ] ->
                  (str name, num ts, num dur)
                | _ -> raise Bad)
              es
          | _ -> raise Bad
        in
        (epoch_remote, counters, gauges, hists, spans, events)
      with
      | exception (Bad | Invalid_argument _ | Failure _) -> false
      | epoch_remote, counters, gauges, hists, spans, events ->
        Obs.merge_counters counters;
        Obs.merge_gauges gauges;
        List.iter (fun (name, h) -> Obs.merge_histogram name h) hists;
        List.iter Obs.merge_span_tree spans;
        let tid = Obs.extern_track ~key ~name:track in
        List.iter
          (fun (name, ts, dur) ->
            Obs.extern_slice ~tid ~name
              ~ts_abs:(epoch_remote +. (ts /. 1e6))
              ~dur_s:(dur /. 1e6))
          events;
        true)
